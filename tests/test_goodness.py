import functools
import itertools

import pytest

from evckit import goodness
from evckit.corpus import exhaustive_connected, random_connected
from evckit.covers import (
    cover_configurations,
    enumerate_min_vcs,
    mvc_mask,
)
from evckit.errors import PreconditionError
from evckit.goodness import (
    BadSetCertificate,
    is_strongly_good,
    is_weakly_good,
    necessary_conditions_report,
    revalidate_bad_set,
)
from evckit.graph import (
    Graph,
    bits,
    cut_vertices,
    mask_components,
    mask_of,
    neighbors_of_set,
    parse_edge_list,
)
from evckit.reachability import counts_of, move_feasible_counts

from conftest import config_of_labels, random_graph_corpus

# frozen n=7 instance: a minimum cover that is weakly good but not strongly
# good (none exists on six or fewer vertices; verified exhaustively)
WEAK_NOT_STRONG_EDGES = (
    (0, 1), (0, 3), (0, 5), (1, 4), (1, 6), (2, 3), (2, 5), (2, 6), (4, 6),
)
WEAK_NOT_STRONG_COVER = (0, 1, 2, 4)


def support_of(counts):
    return tuple(v for v, c in enumerate(counts) if c)


def test_weakly_good_p5(named):
    p5 = named["P5"]
    ok, cert = is_weakly_good(p5, counts_of(p5, p5.index_set(["b", "d"])))
    assert not ok
    assert revalidate_bad_set(p5, cert)
    # a different valid certificate (T={c} pinning component {a,b}) must
    # also validate, independently of which one the search returns
    alt = BadSetCertificate(
        kind="weakly_bad",
        support=p5.index_set(["b", "d"]),
        counts=tuple(1 if v in p5.index_set(["b", "d"]) else 0 for v in range(5)),
        bad_set=(p5.index("c"),),
        component=p5.index_set(["a", "b"]),
    )
    assert revalidate_bad_set(p5, alt)


def test_weakly_good_star(named):
    k13 = named["K1,3"]
    ok, cert = is_weakly_good(k13, counts_of(k13, (k13.index("c"),)))
    assert not ok
    assert k13.labels_of(cert.bad_set) == ("x",)
    assert set(k13.labels_of(cert.component)) == {"c", "y", "z"}


def test_weakly_good_c4(named):
    c4 = named["C4"]
    ok, cert = is_weakly_good(c4, counts_of(c4, (0, 2)))
    assert ok and cert is None


def test_strongly_good_c4(named):
    c4 = named["C4"]
    ok, cert = is_strongly_good(c4, counts_of(c4, (0, 2)))
    assert ok and cert is None


def test_strongly_good_p5(named):
    # not weakly good, so (contrapositive of the implication) not strongly good
    p5 = named["P5"]
    ok, cert = is_strongly_good(p5, counts_of(p5, p5.index_set(["b", "d"])))
    assert not ok
    assert cert.kind == "strongly_bad"
    assert revalidate_bad_set(p5, cert)


def test_cover_support_required(named):
    with pytest.raises(PreconditionError):
        is_weakly_good(named["C4"], counts_of(named["C4"], (0,)))


def test_goodness_refuses_a_disconnected_graph():
    # C4 u C4 with a minimum cover: each C4 alone is strongly good, but a
    # component that T does not touch sits at its cover number
    g = parse_edge_list("a b\nb c\nc d\nd a\np q\nq r\nr s\ns p")
    counts = counts_of(g, g.index_set("acpr"))
    for check in (is_weakly_good, is_strongly_good):
        with pytest.raises(PreconditionError, match="connected graph"):
            check(g, counts)


def test_goodness_reads_count_vectors_only(named):
    p3 = named["P3"]
    c4 = Graph(named["C4"].labels, named["C4"].edges)
    # one guard on b, not the vertex list (a, b, a): T = {a} pins {b, c}
    ok, cert = is_weakly_good(p3, (0, 1, 0))
    assert not ok and cert.counts == (0, 1, 0)
    for malformed in (
        (1, 0, 1, 0, 1),  # five entries for four vertices
        (1, 0, 1),
        (1, 0, 2, -1),
        (1, 0, 1.0, 0),
        [1, 0, 1, 0],
    ):
        for check in (is_weakly_good, is_strongly_good):
            with pytest.raises(PreconditionError, match="guard configuration"):
                check(c4, malformed)
    assert not c4._memo.get("goodness")  # nothing malformed is kept


def test_weak_not_strong_instance():
    g = Graph(tuple("abcdefg"), WEAK_NOT_STRONG_EDGES)
    cs = enumerate_min_vcs(g)
    assert WEAK_NOT_STRONG_COVER in cs.covers  # it is a minimum cover
    counts = counts_of(g, WEAK_NOT_STRONG_COVER)
    weak, _ = is_weakly_good(g, counts)
    strong, cert = is_strongly_good(g, counts)
    assert weak and not strong
    assert revalidate_bad_set(g, cert)


def test_no_weak_not_strong_instance_below_six():
    # exhaustive at n <= 4 here; the acceptance sweep covers 5 and 6
    for n in (2, 3, 4):
        for g in exhaustive_connected(n):
            for cover in enumerate_min_vcs(g).covers:
                counts = counts_of(g, cover)
                weak, _ = is_weakly_good(g, counts)
                strong, _ = is_strongly_good(g, counts)
                assert strong == (strong and weak)
                assert not (weak and not strong), (g.edges, cover)


def test_strongly_implies_weakly_random():
    for g in random_graph_corpus(60, 2, 6, seed=97):
        for cover in enumerate_min_vcs(g).covers:
            counts = counts_of(g, cover)
            strong, _ = is_strongly_good(g, counts)
            if strong:
                weak, _ = is_weakly_good(g, counts)
                assert weak, (g.edges, cover)


def test_cut_vertex_covers_not_weakly_good():
    for g in random_graph_corpus(60, 3, 7, seed=101):
        cuts = set(cut_vertices(g))
        if not cuts:
            continue
        for cover in enumerate_min_vcs(g).covers:
            if cuts - set(cover):
                ok, cert = is_weakly_good(g, counts_of(g, cover))
                assert not ok, (g.edges, cover)
                assert revalidate_bad_set(g, cert)


def test_multi_guard_configuration_weakly_good(named):
    # two guards on the star center plus one on a leaf: removing any leaf
    # subset still leaves a guard surplus everywhere
    k13 = named["K1,3"]
    counts = config_of_labels(k13, {"c": 2, "x": 1})
    ok, _ = is_weakly_good(k13, counts)
    assert ok
    ok, _ = is_strongly_good(k13, counts)
    assert ok


def test_battery_star(named):
    rep = necessary_conditions_report(named["K1,3"], 1)
    by_id = {c["id"]: c for c in rep["conditions"]}
    assert not by_id["vertex-in-min-cover"]["passed"]
    assert not by_id["cover-at-least-half"]["passed"]
    assert rep["verdict"] == "exceeds_k"


def test_battery_footnote(named):
    rep = necessary_conditions_report(named["footnote"], 2)
    by_id = {c["id"]: c for c in rep["conditions"]}
    cert = by_id["vertex-in-min-cover"]["certificate"]
    assert cert["vertex"] == named["footnote"].index("b1")
    assert rep["verdict"] == "exceeds_k"


def test_battery_c5(named):
    rep = necessary_conditions_report(named["C5"], 3)
    assert rep["verdict"] == "necessary_conditions_hold"
    assert all(c["passed"] for c in rep["conditions"])


def test_battery_above_mvc(named):
    # with two guards the path on three vertices passes the whole battery
    rep = necessary_conditions_report(named["P3"], 2)
    assert rep["verdict"] == "necessary_conditions_hold"
    assert not rep["spartan_mode"]


def test_battery_k_below_mvc(named):
    with pytest.raises(PreconditionError):
        necessary_conditions_report(named["C5"], 2)


def test_battery_rejects_disconnected():
    g = Graph(("a", "b", "c", "d"), ((0, 1), (2, 3)))
    with pytest.raises(PreconditionError):
        necessary_conditions_report(g, 2)


def test_tight_independent_set_is_the_least_by_subset_scan():
    # the first tight non-maximal independent set in (size, lex) order over
    # all vertex subsets, against the one read off the cover list
    def first_by_subsets(g):
        for size in range(1, g.n + 1):
            for combo in itertools.combinations(range(g.n), size):
                m = sum(1 << v for v in combo)
                nb = neighbors_of_set(g, m)
                independent = not any(g.adj_mask[v] & m for v in combo)
                if independent and g.full_mask & ~m & ~nb and nb.bit_count() == size:
                    return combo, tuple(bits(nb))
        return None

    found = 0
    for g in random_graph_corpus(150, 2, 9, seed=881):
        got = goodness._find_tight_independent(g)
        want = first_by_subsets(g)
        assert (got and (got["independent_set"], got["neighborhood"])) == want, g.edges
        found += want is not None
    assert 20 < found < 150


def test_bad_certificates_revalidate_on_corpus():
    for g in random_graph_corpus(40, 2, 6, seed=103):
        for cover in enumerate_min_vcs(g).covers:
            counts = counts_of(g, cover)
            ok, cert = is_weakly_good(g, counts)
            if not ok:
                assert revalidate_bad_set(g, cert), (g.edges, cert)
            ok, cert = is_strongly_good(g, counts)
            if not ok:
                assert revalidate_bad_set(g, cert), (g.edges, cert)


def _lifted_targets(g, comp_mask, guards_left):
    # the targets from a fresh induced subgraph, lifted to g's vertices
    comp_vertices = tuple(bits(comp_mask))
    sub = g.induced(comp_vertices)
    for sub_counts in cover_configurations(sub, guards_left):
        target = [0] * g.n
        for v, c in zip(comp_vertices, sub_counts):
            target[v] = c
        yield tuple(target)


@functools.lru_cache(maxsize=4096)
def _lifted_target_list(labels, edges, comp_mask, guards_left):
    return tuple(_lifted_targets(Graph(labels, edges), comp_mask, guards_left))


def _plain_replacement_reachable(g, comp_mask, residual, guards_left):
    # the replacement check without the stay-put shortcut or the per-graph
    # caches: a full scan of the configurations of a fresh induced subgraph,
    # kept here per (graph, component, guard count)
    return any(
        move_feasible_counts(g, residual, target)
        for target in _lifted_target_list(g.labels, g.edges, comp_mask, guards_left)
    )


def _shortcut_corpus():
    graphs = [g for n in range(2, 6) for g in exhaustive_connected(n)]
    graphs += random_graph_corpus(40, 7, 8, seed=211)
    graphs.append(Graph(tuple("abcdefg"), WEAK_NOT_STRONG_EDGES))
    return graphs


def test_strongly_good_matches_plain_replacement_check(monkeypatch):
    checked = bad = 0
    for g in _shortcut_corpus():
        configs = [counts_of(g, c) for c in enumerate_min_vcs(g).covers]
        configs += cover_configurations(g, mvc_mask(g, g.full_mask) + 1)
        configs += cover_configurations(g, mvc_mask(g, g.full_mask) + 2)
        for counts in configs:
            got = is_strongly_good(g, counts)
            with monkeypatch.context() as m:
                m.setattr(goodness, "_replacement_reachable", _plain_replacement_reachable)
                # a fresh copy, so no answer leans on the caches in g._memo
                want = is_strongly_good(Graph(g.labels, g.edges), counts)
            assert got == want, (g.edges, counts)
            checked += 1
            if not got[0]:
                bad += 1
                assert revalidate_bad_set(g, got[1]), (g.edges, got[1])
    assert checked > 1000 and bad > 100


def _bad(kind, counts, t_mask, comp, exit_vertex=None):
    return BadSetCertificate(
        kind=kind,
        support=support_of(counts),
        counts=counts,
        bad_set=tuple(bits(t_mask)),
        component=tuple(bits(comp)),
        exit_vertex=exit_vertex,
    )


def _reference_weakly_good(g, counts):
    # the weak question scanned on its own: the first (T, component) whose
    # guards equal its cover number
    sup = goodness._require_cover_support(g, counts)
    for t_mask in goodness._unoccupied_subsets(g, sup):
        for comp in mask_components(g, g.full_mask & ~t_mask):
            if goodness._guards_in(counts, comp) == mvc_mask(g, comp):
                return False, _bad("weakly_bad", counts, t_mask, comp)
    return True, None


def _reference_strongly_good(g, counts):
    # the strong question scanned on its own, with the weak scan run again
    # as its cross-check
    sup = goodness._require_cover_support(g, counts)
    for t_mask in goodness._unoccupied_subsets(g, sup):
        nt = neighbors_of_set(g, t_mask)
        for comp in mask_components(g, g.full_mask & ~t_mask):
            exits = nt & comp & sup
            if not exits:
                continue
            guards = goodness._guards_in(counts, comp)
            if guards == mvc_mask(g, comp):
                return False, _bad("strongly_bad", counts, t_mask, comp, next(bits(exits)))
            for v in bits(exits):
                residual = goodness._residual(counts, comp, v)
                if not goodness._replacement_reachable(g, comp, residual, guards - 1):
                    return False, _bad("strongly_bad", counts, t_mask, comp, v)
    if not _reference_weakly_good(g, counts)[0]:
        raise AssertionError("strongly good but weakly bad")
    return True, None


def test_one_scan_matches_the_two_separate_scans():
    # the first weak and the first strong witness, certificates included,
    # equal those of the two scans the merged one replaced; on a connected
    # graph the scan never goes on past the first weak witness
    checked = bad = went_on = 0
    for g in _shortcut_corpus():
        configs = [counts_of(g, c) for c in enumerate_min_vcs(g).covers]
        configs += cover_configurations(g, mvc_mask(g, g.full_mask) + 1)
        for counts in configs:
            got = is_weakly_good(g, counts), is_strongly_good(g, counts)
            fresh = Graph(g.labels, g.edges)
            want = (
                _reference_weakly_good(fresh, counts),
                _reference_strongly_good(fresh, counts),
            )
            assert got == want, (g.edges, counts)
            checked += 1
            bad += not got[1][0]
            if not got[0][0] and not got[1][0]:
                weak, strong = (cert.bad_set for _, cert in got)
                went_on += (len(weak), weak) < (len(strong), strong)
    assert checked > 1000 and bad > 100 and went_on == 0


def test_kept_verdicts_match_a_fresh_graph():
    # verdicts are kept per guard count vector; the (mvc+1)-guard
    # configurations put several count vectors on one support
    checked = shared = 0
    for g in _shortcut_corpus():
        configs = [counts_of(g, c) for c in enumerate_min_vcs(g).covers]
        configs += cover_configurations(g, mvc_mask(g, g.full_mask) + 1)
        supports = set()
        for counts in configs:
            weak = is_weakly_good(g, counts)
            strong = is_strongly_good(g, counts)
            assert is_weakly_good(g, counts) is weak
            assert is_strongly_good(g, counts) is strong
            fresh = Graph(g.labels, g.edges)
            assert weak == is_weakly_good(fresh, counts), (g.edges, counts)
            assert strong == is_strongly_good(fresh, counts), (g.edges, counts)
            checked += 1
            shared += support_of(counts) in supports
            supports.add(support_of(counts))
    assert checked > 1000 and shared > 500


def test_revalidation_ignores_kept_verdicts():
    # a strongly bad cover with its verdict kept: a certificate naming an
    # exit whose guards can in fact regroup is still rejected
    g = Graph(tuple("abcdefg"), WEAK_NOT_STRONG_EDGES)
    counts = counts_of(g, WEAK_NOT_STRONG_COVER)
    strong, cert = is_strongly_good(g, counts)
    assert not strong and revalidate_bad_set(g, cert)
    sup = mask_of(support_of(counts))
    forged = 0
    for t_mask in range(1, 1 << g.n):
        if t_mask & sup:
            continue
        near = neighbors_of_set(g, t_mask)
        for comp in mask_components(g, g.full_mask & ~t_mask):
            guards = sum(counts[v] for v in bits(comp))
            if guards == mvc_mask(g, comp):
                continue
            for v in bits(near & comp & sup):
                residual = goodness._residual(counts, comp, v)
                if not _plain_replacement_reachable(g, comp, residual, guards - 1):
                    continue
                claim = BadSetCertificate(
                    kind="strongly_bad",
                    support=support_of(counts),
                    counts=counts,
                    bad_set=tuple(bits(t_mask)),
                    component=tuple(bits(comp)),
                    exit_vertex=v,
                )
                assert not revalidate_bad_set(g, claim), claim
                forged += 1
    assert forged > 0


def test_saturation_matches_every_target_on_random_residuals():
    # the cover saturation check answers as the scan of every target
    # configuration does, on residuals drawn at random inside random vertex
    # masks, stacked guards and guard counts past the cover number included
    import random

    rng = random.Random(419)
    answers = []
    for g in random_graph_corpus(40, 2, 9, seed=421):
        for _ in range(6):
            comp = rng.randrange(1, 1 << g.n)
            inside = list(bits(comp))
            for guards_left in range(1, len(inside) + 2):
                residual = [0] * g.n
                for _ in range(guards_left):
                    residual[rng.choice(inside)] += 1
                residual = tuple(residual)
                got = goodness._replacement_reachable(g, comp, residual, guards_left)
                want = _plain_replacement_reachable(g, comp, residual, guards_left)
                assert got == want, (g.edges, comp, residual)
                answers.append(got)
    assert answers.count(True) > 500 and answers.count(False) > 100


def _recording_fills(monkeypatch, answer=None):
    # every cover the replacement check asks about, as its vertex tuple; the
    # check answers with ``answer`` when it is given
    asked = []
    fills = goodness.fills

    def recording(g, need, have, slots):
        asked.append(tuple(v for v in range(g.n) if need >> v * slots & 1))
        return fills(g, need, have, slots) if answer is None else answer

    monkeypatch.setattr(goodness, "fills", recording)
    return asked


def test_replacement_check_tries_covers_up_to_the_first_filled(monkeypatch):
    # C6 has two covers of three vertices, {a, c, e} below {b, d, f}.  Two
    # guards on a and one on d leave b c and e f bare; c and e can each take
    # only the guard on d, so {a, c, e} is not filled and {b, d, f} is
    c6 = Graph(tuple("abcdef"), ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)))
    residual = (2, 0, 0, 1, 0, 0)
    with monkeypatch.context() as m:
        asked = _recording_fills(m)
        assert goodness._replacement_reachable(c6, c6.full_mask, residual, 3)
        assert asked == [(0, 2, 4), (1, 3, 5)]
    with monkeypatch.context() as m:
        asked = _recording_fills(m, answer=True)
        assert goodness._replacement_reachable(c6, c6.full_mask, residual, 3)
        assert asked == [(0, 2, 4)]  # it stops at the first filled cover
    with monkeypatch.context() as m:
        asked = _recording_fills(m, answer=False)
        assert not goodness._replacement_reachable(c6, c6.full_mask, residual, 3)
        assert asked == [(0, 2, 4), (1, 3, 5)]
        # three guards on a reach f, a and b only: no cover is asked about
        asked.clear()
        assert not goodness._replacement_reachable(
            c6, c6.full_mask, (3, 0, 0, 0, 0, 0), 3
        )
        assert asked == []


def test_replacement_check_refuses_a_component_above_twenty_vertices():
    # the path on 21 vertices, a component of C22 less one vertex, with
    # edges bare under its residual: the cover scan refuses it, each time
    c22 = Graph(
        tuple(f"v{i}" for i in range(22)),
        tuple(sorted([(i, i + 1) for i in range(21)] + [(0, 21)])),
    )
    residual = tuple(2 if i == 18 else int(i < 18 and i % 2 == 0) for i in range(22))
    assert sum(residual) == 11
    for _ in range(2):
        with pytest.raises(PreconditionError, match="capped at 20 vertices"):
            goodness._replacement_reachable(c22, c22.full_mask >> 1, residual, 11)


def test_battery_on_twenty_vertices_tries_few_covers(monkeypatch):
    # a guard by work, not by wall time: on a seeded 20-vertex sparse graph
    # the 10,144 replacement checks past the stay-put shortcut ask for the
    # covers of 1,112 (component, guard count) keys, and each draws one
    # cover and asks one saturation check, where the targets of those keys
    # number 4,725,547
    g = random_connected(20, 0.2, 1, 7)[0]
    asked = _recording_fills(monkeypatch)
    listed = []
    drawn = []
    enumerate_covers = goodness.enumerate_covers_up_to

    def recording(g, k, within=None):
        listed.append((within, k))
        return _drawing(enumerate_covers(g, k, within), drawn)

    monkeypatch.setattr(goodness, "enumerate_covers_up_to", recording)
    report = necessary_conditions_report(g, mvc_mask(g, g.full_mask))
    assert report["verdict"] == "necessary_conditions_hold"
    assert (len(set(listed)), len(listed), len(asked)) == (1112, 10144, 10144)
    assert len(drawn) == 10144


def _drawing(covers, drawn):
    for cover in covers:
        drawn.append(cover)
        yield cover
