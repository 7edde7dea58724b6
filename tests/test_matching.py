import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evckit.errors import PreconditionError
from evckit.graph import Graph, bipartition, connected_components
from evckit.matching import (
    ElementaryWitness,
    HallWitness,
    hall_check,
    hopcroft_karp,
    is_elementary,
    is_essentially_elementary,
    alternating_tree,
    max_matching,
    max_matching_size,
)

from conftest import (
    brute_force_min_covers,
    exhaustive_max_matching_size,
    perfect_matching_through_edge,
    random_graph_corpus,
)


def brute_all_max_matchings(g):
    """Every maximum matching as a sorted pair list; oracle for tie-breaking."""
    best = []
    best_size = 0
    edges = list(g.edges)

    def rec(i, used, acc):
        nonlocal best, best_size
        if i == len(edges):
            if len(acc) > best_size:
                best_size = len(acc)
                best = [tuple(acc)]
            elif len(acc) == best_size:
                best.append(tuple(acc))
            return
        rec(i + 1, used, acc)
        u, v = edges[i]
        if not (used >> u & 1) and not (used >> v & 1):
            acc.append((u, v))
            rec(i + 1, used | (1 << u) | (1 << v), acc)
            acc.pop()

    rec(0, 0, [])
    return best_size, best


def test_footnote_matching_size(named):
    foot = named["footnote"]
    assert max_matching_size(foot) == 2
    m = max_matching(foot)
    used = [v for e in m for v in e]
    assert len(m) == 2 and len(set(used)) == 4


def test_c5_matching_size(named):
    # derived by exhaustive enumeration over the five edges
    size, _ = brute_all_max_matchings(named["C5"])
    assert size == 2
    assert max_matching_size(named["C5"]) == 2


def test_edgeless_matching():
    g = Graph(("a", "b"), ())
    assert max_matching_size(g) == 0
    assert max_matching(g) == ()


def test_blossom_vs_exhaustive_corpus():
    # sizes must agree with brute force on a 500-graph randomized corpus, plus
    # bipartite graphs with many maximum matchings: even cycles, K3,4 and the
    # 3x3 grid
    corpus = random_graph_corpus(500, 2, 10, seed=77)
    cycles = [[(i, (i + 1) % n) for i in range(n)] for n in range(4, 11, 2)]
    k34 = [(i, j) for i in range(3) for j in range(3, 7)]
    grid = [(v, v + 1) for v in range(9) if v % 3 < 2] + [(v, v + 3) for v in range(6)]
    for pairs in cycles + [k34, grid]:
        corpus.append(Graph.from_pairs((str(u), str(v)) for u, v in pairs))
    for g in corpus:
        assert max_matching_size(g) == exhaustive_max_matching_size(g), g.edges


def test_max_matching_is_lexicographically_least():
    for g in random_graph_corpus(60, 2, 7, seed=13):
        size, all_best = brute_all_max_matchings(g)
        got = max_matching(g)
        assert len(got) == size
        assert got == min(tuple(sorted(m)) for m in all_best), g.edges


def test_max_matching_valid():
    for g in random_graph_corpus(80, 2, 9, seed=31):
        m = max_matching(g)
        seen = set()
        for u, v in m:
            assert g.has_edge(u, v)
            assert u not in seen and v not in seen
            seen.update((u, v))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.data())
def test_blossom_matches_dp_hypothesis(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.sets(st.sampled_from(pairs)))
    g = Graph(tuple("abcdefgh"[:n]), tuple(sorted(chosen)))
    assert max_matching_size(g) == exhaustive_max_matching_size(g)


def test_pm_through_edge_c4(named):
    c4 = named["C4"]
    got = perfect_matching_through_edge(c4, (0, 2), (1, 3), (0, 1))
    assert got == ((0, 1), (2, 3))


def test_pm_through_edge_p4(named):
    p4 = named["P4"]
    assert perfect_matching_through_edge(p4, (0, 2), (1, 3), (1, 2)) is None


def test_pm_through_edge_c6(named):
    c6 = named["C6"]
    got = perfect_matching_through_edge(c6, (0, 2, 4), (1, 3, 5), (0, 1))
    # derived: C6 has exactly two perfect matchings; only one contains edge 12
    assert got == ((0, 1), (2, 3), (4, 5))


def test_pm_through_edge_validates_sides(named):
    c4 = named["C4"]
    with pytest.raises(PreconditionError):
        perfect_matching_through_edge(c4, (0, 1), (2, 3), (0, 1))  # sides not independent


def test_hall_check_star(named):
    k13 = named["K1,3"]
    leaves = k13.index_set(["x", "y", "z"])
    res = hall_check(k13, leaves, (k13.index("c"),))
    assert isinstance(res, HallWitness)
    assert res.kind == "deficient"
    assert k13.labels_of(res.violator) == ("x", "y")
    assert k13.labels_of(res.neighborhood) == ("c",)


def test_hall_check_c4_saturates(named):
    res = hall_check(named["C4"], (1, 3), (0, 2))
    assert res == ((0, 1), (2, 3))


def test_hall_violator_minimality():
    for g in random_graph_corpus(60, 2, 8, seed=41):
        for comp in connected_components(g):
            sub = g.induced(comp)
            from evckit.graph import OddCycle, bipartition

            res = bipartition(sub)
            if isinstance(res, OddCycle):
                continue
            a, b = res
            out = hall_check(sub, a, b)
            if isinstance(out, HallWitness):
                x = set(out.violator)
                assert len(out.neighborhood) < len(x)
                # every proper subset satisfies Hall
                for y in map(set, itertools.combinations(x, len(x) - 1)):
                    if not y:
                        continue
                    nb = set()
                    for v in y:
                        nb.update(sub.adjacency[v])
                    assert len(nb) >= len(y), (sub.edges, out)
            else:
                matched = {u for e in out for u in e}
                assert set(a) <= matched


def test_tight_set_c6_none(named):
    assert is_elementary(named["C6"]) == (True, None)


def test_tight_set_p4(named):
    ok, witness = is_elementary(named["P4"])
    res = witness.tight_set
    assert not ok and res is not None and res.kind == "tight"
    # a (index 0) alone has the neighborhood {b}
    assert (res.violator, res.neighborhood) == ((0,), (1,))


def test_elementary_examples(named):
    assert is_elementary(named["C6"])[0] is True
    ok, witness = is_elementary(named["P4"])
    assert ok is False and witness.edge == (1, 2)
    assert is_elementary(named["K2"])[0] is True


def test_elementary_requires_bipartite(named):
    with pytest.raises(PreconditionError):
        is_elementary(named["footnote"])


def test_elementary_iff_min_covers_are_the_sides():
    # cross-check against cover enumeration on connected bipartite graphs:
    # elementary means the two sides are the only minimum covers, and for
    # graphs with a perfect matching that is the same as having exactly two
    from evckit.graph import OddCycle, bipartition

    checked = with_pm = 0
    for g in random_graph_corpus(150, 2, 8, seed=53):
        if len(connected_components(g)) != 1:
            continue
        sides = bipartition(g)
        if isinstance(sides, OddCycle):
            continue
        _, covers = brute_force_min_covers(g)
        ok, _ = is_elementary(g)
        assert ok == (set(covers) == {tuple(sides[0]), tuple(sides[1])}), g.edges
        if max_matching_size(g) * 2 == g.n:
            assert ok == (len(covers) == 2), g.edges
            with_pm += 1
        checked += 1
    assert checked > 20 and with_pm > 5


def test_essentially_elementary_disconnected():
    g = Graph(("a", "b", "c", "d"), ((0, 1), (2, 3)))
    assert is_essentially_elementary(g) is True
    g2 = Graph(("a", "b", "c", "d", "e"), ((0, 1), (2, 3), (3, 4)))
    assert is_essentially_elementary(g2) is False


def _random_balanced_bipartite(rng, h):
    # sides of h vertices each under a random labelling, usually with a
    # planted perfect matching, plus random crossing pairs
    perm = list(range(2 * h))
    rng.shuffle(perm)
    left, right = perm[:h], perm[h:]
    pairs = set()
    if rng.random() < 0.9:
        pairs.update(zip(left, right))
    p = rng.uniform(0.05, 0.6)
    pairs.update((a, b) for a in left for b in right if rng.random() < p)
    edges = tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))
    return Graph(tuple(f"v{i}" for i in range(2 * h)), edges)


def test_alternating_tree_tells_pairs_in_some_perfect_matching():
    rng = random.Random(61)
    pairs = in_pm = 0
    for _ in range(400):
        h = rng.randint(1, 6)
        adj = {u: tuple(v for v in range(h) if rng.random() < 0.4) for u in range(h)}
        pm = hopcroft_karp(range(h), adj)
        if len(pm) < h:
            continue
        back = {v: u for u, v in pm.items()}
        for u, vs in adj.items():
            for v in vs:
                rest = {x: tuple(y for y in adj[x] if y != v) for x in adj if x != u}
                want = len(hopcroft_karp(rest, rest)) == h - 1
                tree = alternating_tree(adj, back, back[v])
                assert (u in tree) == want, (adj, u, v)
                # each tree vertex hangs from one reached before it, through
                # a right neighbour that vertex is matched to
                order = list(tree)
                assert tree[back[v]] is None and order[0] == back[v]
                for x in order[1:]:
                    p = tree[x]
                    assert order.index(p) < order.index(x) and pm[x] in adj[p]
                pairs += 1
                in_pm += want
    assert 0 < in_pm < pairs and pairs > 1000


def _elementary_by_edge(g):
    # the per-edge route: one perfect_matching_through_edge per edge, on the
    # graphs where is_elementary reaches its edge loop (balanced sides and a
    # perfect matching); None elsewhere
    side_a, side_b = bipartition(g)
    if len(side_a) != len(side_b) or isinstance(
        hall_check(g, side_a, side_b), HallWitness
    ):
        return None
    for e in g.edges:
        if perfect_matching_through_edge(g, side_a, side_b, e) is None:
            tight = _tight_by_subsets(g, side_a)
            return False, ElementaryWitness(edge=e, tight_set=tight)
    return True, None


def _tight_by_subsets(g, side):
    # the least X with |N(X)| = |X| containing each source in turn, by
    # subset enumeration; the first one that is a proper subset of the side
    def nbhd(xs):
        return {w for x in xs for w in g.adjacency[x]}

    for a in side:
        rest = [x for x in side if x != a]
        for size in range(len(side)):
            tight = [
                (a, *xs)
                for xs in itertools.combinations(rest, size)
                if len(nbhd((a, *xs))) == size + 1
            ]
            if tight:
                break
        (least,) = tight  # tight sets through a are closed under intersection
        if len(least) < len(side):
            return HallWitness(
                violator=tuple(sorted(least)),
                neighborhood=tuple(sorted(nbhd(least))),
                kind="tight",
            )
    return None


def test_is_elementary_matches_per_edge_route():
    rng = random.Random(67)
    compared = non_elementary = 0
    for _ in range(1500):
        g = _random_balanced_bipartite(rng, rng.randint(1, 5))
        if len(connected_components(g)) != 1:
            continue
        want = _elementary_by_edge(g)
        if want is None:
            continue
        assert is_elementary(g) == want, g.edges
        compared += 1
        non_elementary += not want[0]
    assert compared > 500 and non_elementary > 100
