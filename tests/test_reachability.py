import hashlib
import itertools
import random

import pytest

from evckit.covers import enumerate_min_vcs
from evckit.errors import IntegrityError, PreconditionError
from evckit.game import transition_moves
from evckit.graph import bits
from evckit.reachability import (
    compatible_configs,
    counts_of,
    layered,
    move_feasible_counts,
    replay_moves,
)
from evckit.selftest import min_covers_compatible_check

from conftest import config_of_labels, random_graph_corpus


def brute_one_step_moves(g, counts):
    """All configurations reachable in one simultaneous step; tiny oracle."""
    guards = []
    for v, c in enumerate(counts):
        guards.extend([v] * c)
    results = set()
    options = [(v, tuple([v] + list(g.adjacency[v]))) for v in guards]
    for choice in itertools.product(*(opts for _, opts in options)):
        out = [0] * g.n
        for w in choice:
            out[w] += 1
        results.add(tuple(out))
    return results


def gale_feasible(g, c1, c2):
    """Gale's supply-demand condition on the closed-neighbourhood transport
    graph: for every set A of occupied vertices, the guards on A fit into
    N[A] under the target counts.  Visits 2^|support| subsets; oracle only."""
    if sum(c1) != sum(c2):
        return False
    sup = [v for v in range(g.n) if c1[v]]
    closed = [g.adj_mask[v] | (1 << v) for v in sup]
    nb = [0] * (1 << len(sup))
    tot = [0] * (1 << len(sup))
    for m in range(1, 1 << len(sup)):
        low = m & -m
        i = low.bit_length() - 1
        nb[m] = nb[m ^ low] | closed[i]
        tot[m] = tot[m ^ low] + c1[sup[i]]
        if tot[m] > sum(c2[w] for w in bits(nb[m])):
            return False
    return True


def _configs(g, *label_counts):
    return [config_of_labels(g, lc) for lc in label_counts]


def test_disjoint_paths_c5(named):
    # sources 2, 4 reach sinks 1, 3 by vertex-disjoint one-step paths while
    # the guard on the interior vertex 0 stays put
    c5 = named["C5"]
    c1 = counts_of(c5, (0, 2, 4))
    c2 = counts_of(c5, (0, 1, 3))
    moves = compatible_configs(c5, c1, c2)
    assert moves == ((2, 1), (4, 3))
    touched = [w for move in moves for w in move]
    assert len(touched) == len(set(touched)) and 0 not in touched
    assert replay_moves(c5, c1, moves) == c2
    assert move_feasible_counts(c5, c1, c2)


def test_disjoint_paths_p4_none(named):
    # no two disjoint one-step paths join {a, b} and {c, d} on P4, either way
    p4 = named["P4"]
    c1, c2 = _configs(p4, {"a": 1, "b": 1}, {"c": 1, "d": 1})
    for x, y in ((c1, c2), (c2, c1)):
        assert compatible_configs(p4, x, y) is None
        assert not move_feasible_counts(p4, x, y)


def test_disjoint_paths_count_zero(named):
    # a guard that need not move gets no path; one that must, gets one edge
    c4 = named["C4"]
    at0, at1 = (counts_of(c4, (v,)) for v in (0, 1))
    assert compatible_configs(c4, at0, at0) == ()
    assert compatible_configs(c4, at1, at1) == ()
    assert compatible_configs(c4, at0, at1) == ((0, 1),)


def test_disjoint_paths_count_exceeds_sides(named):
    # more paths than guards on the source side cannot be routed
    c4 = named["C4"]
    with pytest.raises(IntegrityError):
        replay_moves(c4, (1, 0, 0, 0), ((0, 1), (0, 3)))
    assert not move_feasible_counts(c4, (1, 0, 0, 0), (0, 2, 0, 0))
    # two guards on 0 split to its two neighbours, but cannot both reach 2
    assert move_feasible_counts(c4, (2, 0, 0, 0), (0, 1, 0, 1))
    assert not move_feasible_counts(c4, (2, 0, 0, 0), (0, 0, 2, 0))


def test_compatible_c5(named):
    c5 = named["C5"]
    c1, c2 = (counts_of(c5, c5.index_set(s)) for s in ("135", "124"))
    assert compatible_configs(c5, c1, c2) == ((2, 1), (4, 3))


def test_compatible_p4_false(named):
    p4 = named["P4"]
    c1, c2 = _configs(p4, {"a": 1, "b": 1}, {"c": 1, "d": 1})
    assert compatible_configs(p4, c1, c2) is None


def test_compatible_identical_sets(named):
    c4 = named["C4"]
    c = counts_of(c4, (0, 2))
    assert compatible_configs(c4, c, c) == ()


def test_compatible_size_mismatch(named):
    c4 = named["C4"]
    # unequal guard totals: no routing, in both shapes of the answer
    c1 = counts_of(c4, (0,))
    c2 = counts_of(c4, (1, 3))
    assert compatible_configs(c4, c1, c2) is None
    assert not move_feasible_counts(c4, c1, c2)


def test_compatible_configs_p3_chain(named):
    p3 = named["P3"]
    c1, c2 = _configs(p3, {"a": 1, "b": 1}, {"b": 1, "c": 1})
    # b may only be vacated toward c once a's guard takes its place
    assert compatible_configs(p3, c1, c2) == ((0, 1), (1, 2))


def test_compatible_configs_equal(named):
    k2 = named["K2"]
    (c,) = _configs(k2, {"a": 1, "b": 1})
    assert compatible_configs(k2, c, c) == ()


def test_compatible_configs_star(named):
    k13 = named["K1,3"]
    c1, c2 = _configs(k13, {"c": 1, "x": 1}, {"c": 1, "y": 1})
    moves = compatible_configs(k13, c1, c2)
    c, x, y = (k13.index(lab) for lab in "cxy")
    # the centre's guard steps to y while x's guard takes the centre
    assert moves == tuple(sorted(((x, c), (c, y))))


def test_config_feasibility_matches_brute_force():
    for g in random_graph_corpus(25, 2, 5, seed=71):
        for total in (2, 3):
            carrier = list(range(g.n)) * total
            for c1v in itertools.combinations(carrier[: 2 * g.n], total):
                counts1 = [0] * g.n
                for v in c1v:
                    counts1[v] += 1
                reachable = brute_one_step_moves(g, counts1)
                for counts2 in reachable:
                    assert move_feasible_counts(g, tuple(counts1), counts2)
                # spot-check some non-reachable targets
                for other in itertools.islice(
                    itertools.combinations_with_replacement(range(g.n), total), 12
                ):
                    counts2 = [0] * g.n
                    for v in other:
                        counts2[v] += 1
                    expected = tuple(counts2) in reachable
                    assert (
                        move_feasible_counts(g, tuple(counts1), tuple(counts2))
                        == expected
                    ), (g.edges, counts1, counts2)
                break  # one multiset per total keeps the oracle cheap


def _random_counts(rng, n, total, cap=None):
    """``total`` guards on random vertices, at most ``cap`` on each."""
    counts = [0] * n
    for _ in range(total):
        v = rng.randrange(n)
        while counts[v] == cap:
            v = rng.randrange(n)
        counts[v] += 1
    return tuple(counts)


def _random_step(rng, g, counts):
    out = [0] * g.n
    for v, c in enumerate(counts):
        for _ in range(c):
            out[rng.choice((v,) + g.adjacency[v])] += 1
    return tuple(out)


def _random_mask(rng, n, size):
    return sum(1 << v for v in rng.sample(range(n), size))


def test_route_matches_gale_and_moves_replay():
    # count vectors, then one guard per vertex as masks, then slot masks of
    # 2 and 3 slots per vertex: each form answers as the count form and
    # Gale's condition do
    rng = random.Random(83)
    slot_rng = random.Random(97)
    feasible = masked = masked_feasible = layers = layers_feasible = 0
    for g in random_graph_corpus(60, 2, 8, seed=89):
        for trial in range(40):
            c1 = _random_counts(rng, g.n, rng.randint(1, g.n + 2))
            if trial % 2:
                c2 = _random_step(rng, g, c1)
            else:
                c2 = _random_counts(rng, g.n, sum(c1))
            ok = move_feasible_counts(g, c1, c2)
            assert ok == gale_feasible(g, c1, c2), (g.edges, c1, c2)
            moves = compatible_configs(g, c1, c2)
            assert (moves is not None) == ok
            if ok:
                feasible += 1
                assert moves == tuple(sorted(moves))
                assert all(x != w for x, w in moves)
                assert replay_moves(g, c1, moves) == c2
        for trial in range(40):
            s1 = _random_mask(rng, g.n, rng.randint(0, g.n))
            c1 = tuple(s1 >> v & 1 for v in range(g.n))
            c2 = _random_step(rng, g, c1)
            if not (trial % 2 and max(c2, default=0) <= 1):
                # a draw of the same size, or now and then of another size
                size = s1.bit_count() if trial % 8 else rng.randint(0, g.n)
                c2 = tuple(_random_mask(rng, g.n, size) >> v & 1 for v in range(g.n))
            s2 = sum(1 << v for v in range(g.n) if c2[v])
            ok = move_feasible_counts(g, s1, s2, 1)
            assert ok == gale_feasible(g, c1, c2), (g.edges, c1, c2)
            assert ok == move_feasible_counts(g, c1, c2), (g.edges, c1, c2)
            masked += 1
            masked_feasible += ok
        for slots in (2, 3):
            for trial in range(20):
                total = slot_rng.randint(1, g.n + 2)
                c1 = _random_counts(slot_rng, g.n, total, slots)
                c2 = _random_step(slot_rng, g, c1)
                if not (trial % 2 and max(c2) <= slots):
                    c2 = _random_counts(slot_rng, g.n, total, slots)
                s1, s2 = layered(c1, slots), layered(c2, slots)
                ok = move_feasible_counts(g, s1, s2, slots)
                assert ok == gale_feasible(g, c1, c2), (g.edges, slots, c1, c2)
                assert ok == move_feasible_counts(g, c1, c2), (g.edges, c1, c2)
                layers += 1
                layers_feasible += ok
    assert feasible > 1200  # every one-step image plus some random draws
    assert masked_feasible > 1200 and masked - masked_feasible > 600
    assert layers_feasible > 1500 and layers - layers_feasible > 200


# sha256 of the move lists below, recorded with the count-vector router that
# the slot-mask router replaced; ``play`` transcripts print these lists
MOVE_LIST_DIGEST = "8024d307ed6f524850ab50ab8cef4d617d9722cb40d0a83a49c010ed23b4f3eb"


def test_move_lists_are_pinned():
    # 0/1 and stacked pairs, each to a one-step image or to a random draw of
    # the same size; on the 0/1 pairs the draw holds one guard per vertex
    rng = random.Random(307)
    digest = hashlib.sha256()
    routed = 0
    for g in random_graph_corpus(100, 2, 9, seed=311):
        for trial in range(60):
            size = rng.randint(1, g.n)
            if trial % 3:
                c1 = _random_counts(rng, g.n, rng.randint(1, 2 * g.n))
                c2 = _random_counts(rng, g.n, sum(c1))
            else:
                c1 = _random_counts(rng, g.n, size, 1)
                c2 = _random_counts(rng, g.n, size, 1)
            if trial % 2:
                c2 = _random_step(rng, g, c1)
            moves = compatible_configs(g, c1, c2)
            routed += moves is not None
            digest.update(repr((c1, c2, moves)).encode())
    assert routed > 3000
    assert digest.hexdigest() == MOVE_LIST_DIGEST


def test_crossing_constraint(named):
    p3 = named["P3"]
    a, b = p3.index("a"), p3.index("b")
    # the lone guard on b answers an attack on a-b by crossing to a
    assert transition_moves(p3, (0, 1, 0), (1, 0, 0), b, a) == ((b, a),)
    with pytest.raises(PreconditionError):
        transition_moves(p3, (0, 1, 0), (1, 0, 0), a, b)  # no guard on a
    with pytest.raises(PreconditionError):
        transition_moves(p3, (0, 1, 0), (0, 0, 1), b, a)  # no guard lands on a


def test_min_covers_compatible_check(named):
    assert min_covers_compatible_check(named["C5"]) == (10, [])
    assert min_covers_compatible_check(named["C4"]) == (1, [])
    assert min_covers_compatible_check(named["P5"]) == (0, [])


def test_min_cover_pairs_route_both_ways():
    for g in random_graph_corpus(50, 2, 7, seed=73):
        cs = enumerate_min_vcs(g)
        for a, b in itertools.islice(
            itertools.combinations(range(len(cs.covers)), 2), 20
        ):
            c1 = counts_of(g, cs.covers[a])
            c2 = counts_of(g, cs.covers[b])
            for src, dst in ((c1, c2), (c2, c1)):
                moves = compatible_configs(g, src, dst)
                assert (moves is not None) == gale_feasible(g, src, dst)
                if moves is not None:
                    assert replay_moves(g, src, moves) == dst
