import itertools

import pytest

from evckit.covers import (
    brute_force_min_covers,
    cover_configurations,
    enumerate_covers_up_to,
    enumerate_min_vcs,
    min_vc_containing,
    mvc,
)
from evckit.errors import PreconditionError
from evckit.graph import Graph

from conftest import random_graph_corpus


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
    covers = enumerate_covers_up_to(g, 2)
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


def test_cover_scan_memo_matches_brute_force_in_any_order():
    # the scan is memoized per graph: whatever order the sizes are asked in,
    # each answer equals an itertools brute force, stays ascending, is a
    # fresh list, and every subset is edge-checked at most once
    import random

    checks = 0

    class CountingEdges(tuple):
        def __iter__(self):  # the scan iterates the edges once per subset
            nonlocal checks
            checks += 1
            return super().__iter__()

    rng = random.Random(337)
    edgeless = [Graph((), ()), Graph(("a",), ()), Graph(("a", "b"), ())]
    for g0 in random_graph_corpus(30, 2, 9, seed=331) + edgeless:
        expected = {
            k: sorted(
                sum(1 << v for v in combo)
                for size in range(min(k, g0.n) + 1)
                for combo in itertools.combinations(range(g0.n), size)
                if all(u in combo or w in combo for u, w in g0.edges)
            )
            for k in range(g0.n + 2)
        }
        orders = [list(range(g0.n + 2)), list(range(g0.n + 1, -1, -1))]
        orders.append(rng.sample(orders[0], len(orders[0])))
        for order in orders:
            g = Graph(g0.labels, g0.edges)
            object.__setattr__(g, "edges", CountingEdges(g0.edges))
            checks = 0
            for k in order + [-1]:
                got = enumerate_covers_up_to(g, k)
                assert got == expected.get(k, []), (g0.edges, order, k)
                got.append(-1)  # callers own their list
                assert enumerate_covers_up_to(g, k) == expected.get(k, [])
            assert checks == 2**g0.n, (g0.edges, order)
