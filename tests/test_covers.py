import itertools

import pytest

from evckit import covers
from evckit.covers import (
    cover_configurations,
    enumerate_covers_up_to,
    enumerate_min_vcs,
    min_vc_containing,
    mvc,
)
from evckit.errors import PreconditionError, ResourceLimitError
from evckit.graph import Graph, bits

from conftest import brute_force_min_covers, random_graph_corpus


def test_mvc_footnote(named):
    size, witness = mvc(named["footnote"])
    assert size == 2
    assert named["footnote"].labels_of(witness) == ("a1", "a2")


def test_mvc_c5(named):
    assert mvc(named["C5"])[0] == 3


def test_mvc_k2(named):
    size, witness = mvc(named["K2"])
    assert size == 1 and len(witness) == 1


def test_mvc_witness_covers():
    for g in random_graph_corpus(60, 2, 9, seed=3):
        size, witness = mvc(g)
        wset = set(witness)
        assert len(witness) == size
        assert all(u in wset or v in wset for u, v in g.edges)


def test_enumerate_c4(named):
    cs = enumerate_min_vcs(named["C4"])
    assert cs.covers == ((0, 2), (1, 3))
    assert not cs.truncated


def test_enumerate_p5(named):
    cs = enumerate_min_vcs(named["P5"])
    assert [named["P5"].labels_of(c) for c in cs.covers] == [("b", "d")]


def test_enumerate_footnote(named):
    cs = enumerate_min_vcs(named["footnote"])
    assert [named["footnote"].labels_of(c) for c in cs.covers] == [("a1", "a2")]


def test_enumerate_matches_brute_force():
    for g in random_graph_corpus(120, 2, 8, seed=7):
        size, covers = brute_force_min_covers(g)
        cs = enumerate_min_vcs(g)
        assert cs.size == size
        assert list(cs.covers) == sorted(covers), g.edges


def test_enumerate_cap_truncation(named):
    cs = enumerate_min_vcs(named["C5"], cap=2)
    assert cs.truncated
    assert len(cs.covers) == 2
    assert cs.covers == tuple(sorted(cs.covers))


def test_enumerate_is_memoized_per_cap(named):
    c5 = named["C5"]
    g = Graph(c5.labels, c5.edges)  # a fresh memo
    full = enumerate_min_vcs(g)
    capped = enumerate_min_vcs(g, cap=2)
    assert not full.truncated and len(full.covers) == 5
    assert capped.truncated and capped.covers == full.covers[:2]
    assert enumerate_min_vcs(g) is full and enumerate_min_vcs(g, cap=2) is capped
    # at every cap a truncated list keeps the covers with the smallest vertex
    # masks, sorted lexicographically, and is flagged exactly when a cover is
    # left out
    many = [_path_or_cycle(n, True) for n in (7, 8, 9, 11)]
    many += [Graph(tuple("abcdef"), tuple(itertools.combinations(range(6), 2)))]
    for g0 in random_graph_corpus(40, 2, 10, seed=359) + many:
        g = Graph(g0.labels, g0.edges)
        full = enumerate_min_vcs(g)
        masks = sorted(sum(1 << v for v in c) for c in full.covers)
        for cap in range(1, len(masks) + 1):
            capped = enumerate_min_vcs(g, cap=cap)
            assert capped.size == full.size and capped.cap == cap
            assert capped.covers == tuple(sorted(tuple(bits(m)) for m in masks[:cap]))
            assert capped.truncated == (len(masks) > cap), (g0.edges, cap)
            assert enumerate_min_vcs(g, cap=cap) is capped


def test_enumerate_cap_validation(named):
    with pytest.raises(PreconditionError):
        enumerate_min_vcs(named["C5"], cap=0)


def test_min_vc_containing_examples(named):
    assert min_vc_containing(named["P3"], 0) is None
    assert min_vc_containing(named["C4"], 0) == (0, 2)
    foot = named["footnote"]
    assert min_vc_containing(foot, foot.index("b1")) is None


def test_min_vc_containing_agrees_with_enumeration():
    for g in random_graph_corpus(80, 2, 8, seed=17):
        cs = enumerate_min_vcs(g)
        for v in range(g.n):
            got = min_vc_containing(g, v)
            expected = any(v in c for c in cs.covers)
            assert (got is not None) == expected, (g.edges, v)
            if got is not None:
                assert v in got and len(got) == cs.size
                gset = set(got)
                assert all(a in gset or b in gset for a, b in g.edges)


def test_edgeless_graph():
    g = Graph(("a", "b"), ())
    assert mvc(g) == (0, ())
    cs = enumerate_min_vcs(g)
    assert cs.size == 0 and cs.covers == ((),)


def test_enumerate_covers_up_to():
    g = Graph(("a", "b", "c"), ((0, 1), (1, 2)))
    covers = list(enumerate_covers_up_to(g, 2))
    assert covers == sorted(covers)
    named_covers = sorted(
        tuple(g.labels[i] for i in range(3) if m >> i & 1) for m in covers
    )
    assert named_covers == [("a", "b"), ("a", "c"), ("b",), ("b", "c")]


def test_cover_configurations_match_brute_force():
    for g in random_graph_corpus(40, 2, 7, seed=29):
        for k in range(1, 5):
            expected = []
            for guards in itertools.combinations_with_replacement(range(g.n), k):
                counts = [0] * g.n
                for v in guards:
                    counts[v] += 1
                if all(counts[u] or counts[w] for u, w in g.edges):
                    expected.append(tuple(counts))
            got = list(cover_configurations(g, k))
            assert len(got) == len(set(got))
            assert sorted(got) == sorted(expected), (g.edges, k)


def test_cover_configurations_edgeless():
    g = Graph(("a", "b"), ())
    assert list(cover_configurations(g, 0)) == [(0, 0)]
    assert sorted(cover_configurations(g, 1)) == [(0, 1), (1, 0)]


def _path_or_cycle(n, closed):
    edges = [(i, i + 1) for i in range(n - 1)]
    if closed:
        edges.insert(1, (0, n - 1))
    return Graph(tuple(f"v{i}" for i in range(n)), tuple(edges))


def test_cover_counts_of_paths_and_cycles_match_closed_forms():
    # a cover of size <= k is the complement of an independent set of at
    # least n - k vertices; P_n has comb(n - j + 1, j) independent sets of
    # size j and C_n has n / (n - j) * comb(n - j, j) (j < n), at sizes far
    # beyond the brute force's reach
    from math import comb

    for closed, ns in ((False, range(2, 21)), (True, range(3, 21))):
        for n in ns:
            if closed:
                sets = [1] + [n * comb(n - j, j) // (n - j) for j in range(1, n)] + [0]
            else:
                sets = [comb(n - j + 1, j) for j in range(n + 1)]
            g = _path_or_cycle(n, closed)
            full = list(enumerate_covers_up_to(g, n))
            assert len(full) == sum(sets)
            assert all(a < b for a, b in zip(full, full[1:]))
            assert all(c >> u & 1 or c >> w & 1 for c in full for u, w in g.edges)
            rising = _path_or_cycle(n, closed)
            for k in range(n + 1):
                want = [c for c in full if c.bit_count() <= k]
                assert len(want) == sum(sets[n - k:]), (n, closed, k)
                fresh = list(enumerate_covers_up_to(_path_or_cycle(n, closed), k))
                assert fresh == want, (n, closed, k)
                assert list(enumerate_covers_up_to(rising, k)) == want, (n, closed, k)


def test_covers_within_a_mask_match_brute_force():
    # the covers of the subgraph induced by a vertex mask, as masks of the
    # whole graph: every size, asked fresh and rising on one graph
    import random

    rng = random.Random(353)
    for g0 in random_graph_corpus(40, 2, 10, seed=347):
        for _ in range(4):
            within = rng.getrandbits(g0.n)
            inside = [v for v in range(g0.n) if within >> v & 1]
            edges = [(u, w) for u, w in g0.edges if within >> u & 1 and within >> w & 1]
            g = Graph(g0.labels, g0.edges)
            for k in range(-1, len(inside) + 2):
                want = sorted(
                    sum(1 << v for v in combo)
                    for size in range(min(k, len(inside)) + 1)
                    for combo in itertools.combinations(inside, size)
                    if all(u in combo or w in combo for u, w in edges)
                )
                fresh = Graph(g0.labels, g0.edges)
                case = (g0.edges, within, k)
                assert list(enumerate_covers_up_to(fresh, k, within)) == want, case
                assert list(enumerate_covers_up_to(g, k, within)) == want, case
            # the whole graph's covers are kept apart from the mask's
            assert list(enumerate_covers_up_to(g, g0.n)) == list(
                enumerate_covers_up_to(Graph(g0.labels, g0.edges), g0.n)
            )


def test_cover_enumeration_refused_above_twenty_vertices():
    c21 = _path_or_cycle(21, True)
    with pytest.raises(ResourceLimitError, match="cover scan capped at 20 vertices"):
        enumerate_covers_up_to(c21, 11)
    # a 20-vertex part of the same graph, the path P20, is answered: its
    # 10-vertex covers are the complements of its comb(11, 10) largest
    # independent sets
    assert len(list(enumerate_covers_up_to(c21, 10, c21.full_mask >> 1))) == 11


def test_cover_enumeration_refused_at_the_call_before_any_draw(monkeypatch):
    # the refusal comes with the call, not with the first draw, and the
    # search is never started
    started = []
    monkeypatch.setattr(covers, "_covers_between", lambda *a: started.append(a))
    c21 = _path_or_cycle(21, True)
    for within in (None, c21.full_mask):
        with pytest.raises(ResourceLimitError, match="cover scan capped at 20 vertices"):
            enumerate_covers_up_to(c21, 11, within, least=11)
    assert started == []


def test_covers_from_least_match_brute_force():
    # ``least`` to k yields exactly the covers of those sizes, ascending
    for g in random_graph_corpus(30, 2, 9, seed=367):
        every = sorted(
            sum(1 << v for v in combo)
            for size in range(g.n + 1)
            for combo in itertools.combinations(range(g.n), size)
            if all(u in combo or w in combo for u, w in g.edges)
        )
        for least in range(g.n + 2):
            for k in range(least - 1, g.n + 2):
                want = [c for c in every if least <= c.bit_count() <= k]
                got = list(enumerate_covers_up_to(g, k, least=least))
                assert got == want, (g.edges, least, k)


def _brute_force_cover_number(g, mask):
    inside = list(bits(mask))
    edges = [(u, w) for u, w in g.edges if mask >> u & 1 and mask >> w & 1]
    for size in range(len(inside) + 1):
        for combo in itertools.combinations(inside, size):
            if all(u in combo or w in combo for u, w in edges):
                return size
    raise AssertionError("unreachable")


def test_cover_number_on_vertex_masks_matches_brute_force():
    import random

    rng = random.Random(373)
    for g in random_graph_corpus(60, 2, 10, seed=371):
        masks = [0, g.full_mask] + [rng.getrandbits(g.n) for _ in range(6)]
        fresh = Graph(g.labels, g.edges)
        for mask in masks:
            want = _brute_force_cover_number(g, mask)
            assert covers.mvc_mask(fresh, mask) == want, (g.edges, mask)
            assert covers.mvc_mask(fresh, mask) == want  # memoized
    edgeless = Graph(tuple("abc"), ())
    assert [covers.mvc_mask(edgeless, m) for m in range(8)] == [0] * 8


def _windmill(t):
    # t triangles sharing the hub 0: edges 0 a_i, 0 b_i and a_i b_i
    edges = []
    for i in range(t):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return Graph(tuple(f"v{i}" for i in range(2 * t + 1)), tuple(sorted(edges)))


def test_cover_number_matches_closed_forms_past_the_brute_force():
    # P_n needs floor(n / 2), C_n ceil(n / 2), K_n n - 1 and the windmill
    # W_t the hub plus one vertex of each triangle, t + 1
    for n in range(2, 41):
        p = _path_or_cycle(n, False)
        assert covers.mvc_mask(p, p.full_mask) == n // 2, n
        if n >= 3:
            c = _path_or_cycle(n, True)
            assert covers.mvc_mask(c, c.full_mask) == (n + 1) // 2, n
    for n in range(1, 13):
        edges = tuple(itertools.combinations(range(n), 2))
        k = Graph(tuple(f"v{i}" for i in range(n)), edges)
        assert covers.mvc_mask(k, k.full_mask) == n - 1, n
    for t in range(1, 14):
        w = _windmill(t)
        assert covers.mvc_mask(w, w.full_mask) == t + 1, t


def test_cover_number_of_seeded_trees_matches_a_leaf_up_matching():
    # a tree's cover number is its largest matching (Konig), which the
    # leaf-up greedy finds; the vertices are shuffled so that the search's
    # own greedy bound does not see the tree's hanging order
    import random

    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(20, 40)
        parent = [None] + [rng.randrange(i) for i in range(1, n)]
        matched = set()
        for v in range(n - 1, 0, -1):
            if v not in matched and parent[v] not in matched:
                matched |= {v, parent[v]}
        name = rng.sample(range(n), n)
        edges = [(name[v], name[parent[v]]) for v in range(1, n)]
        edges = tuple(sorted((min(e), max(e)) for e in edges))
        tree = Graph(tuple(f"v{i}" for i in range(n)), edges)
        assert covers.mvc_mask(tree, tree.full_mask) == len(matched) // 2, seed


def test_min_covers_above_twenty_vertices_match_closed_forms():
    # minimum covers are listed without the 20-vertex cap of the cover scan:
    # odd C_n has n minimum covers of size (n + 1) / 2, even C_n its two
    # colour classes, and P_2m has m + 1 minimum covers of size m
    for n in range(21, 25):
        cs = enumerate_min_vcs(_path_or_cycle(n, True))
        assert cs.size == (n + 1) // 2 and not cs.truncated
        if n % 2:
            assert len(cs.covers) == n
        else:
            assert cs.covers == (tuple(range(0, n, 2)), tuple(range(1, n, 2)))
    cs = enumerate_min_vcs(_path_or_cycle(30, False))
    assert cs.size == 15 and len(cs.covers) == 16 and not cs.truncated
    c24 = _path_or_cycle(24, True)
    for v in range(24):
        got = min_vc_containing(c24, v)
        assert got is not None and v in got and len(got) == 12
    # P31's one minimum cover is its 15 odd vertices, so it misses both ends
    p31 = _path_or_cycle(31, False)
    assert enumerate_min_vcs(p31).covers == (tuple(range(1, 31, 2)),)
    assert min_vc_containing(p31, 0) is None
    assert min_vc_containing(p31, 30) is None
