import pytest

from evckit.decider import (
    validate_defense_family,
    DefenseFamily,
    FixpointTrace,
    is_spartan,
    spartan_fixpoint,
    strategy_export,
)
from evckit.errors import PreconditionError, ResourceLimitError
from evckit.graph import Graph, parse_edge_list

from conftest import random_graph_corpus


def test_footnote_not_spartan(named):
    v = is_spartan(named["footnote"])
    assert not v.spartan
    assert v.method == "konig"
    assert v.certificate["kind"] == "odd_cycle"
    assert len(v.certificate["cycle"]) == 3


def test_c4_spartan(named):
    v = is_spartan(named["C4"])
    assert v.spartan and v.method == "konig"
    assert v.family is not None
    assert set(v.family.covers) == {(0, 2), (1, 3)}


def test_c5_spartan_via_fixpoint(named):
    v = is_spartan(named["C5"])
    assert v.spartan and v.method == "fixpoint"
    assert len(v.family.covers) == 5  # every minimum cover survives


def test_bowtie_family(named):
    v = is_spartan(named["bowtie"])
    assert v.spartan
    assert len(v.family.covers) == 4


def test_p5_empty_fixpoint(named):
    result = spartan_fixpoint(named["P5"])
    assert isinstance(result, FixpointTrace)
    assert len(result.deletions) == 1  # the unique cover dies immediately
    cover, edge, round_no = result.deletions[0]
    assert cover == named["P5"].index_set(["b", "d"])


def test_c4_fixpoint_both_survive(named):
    fam = spartan_fixpoint(named["C4"])
    assert isinstance(fam, DefenseFamily)
    assert set(fam.covers) == {(0, 2), (1, 3)}
    assert validate_defense_family(named["C4"], fam) == []


def test_family_transitions_replay(named):
    for name in ("C4", "C5", "C6", "bowtie", "K2"):
        v = is_spartan(named[name])
        assert v.spartan
        assert validate_defense_family(named[name], v.family) == [], name


def test_a_target_index_outside_the_family_is_reported(named):
    # on C4 a negative index aliases the real target (-1 and -2 wrap to the
    # two covers), as True aliases cover 1, and replays cleanly; an index
    # one past the end reads no cover at all: each is reported once, and
    # nothing else is
    c4 = named["C4"]
    fam = spartan_fixpoint(c4)
    key, (ti, paths) = min(fam.transitions.items())
    for forged_index in (ti - len(fam.covers), len(fam.covers), True):
        forged = DefenseFamily(
            covers=fam.covers,
            transitions={**fam.transitions, key: (forged_index, paths)},
        )
        problems = validate_defense_family(c4, forged)
        assert len(problems) == 1, problems
        assert f"targets index {forged_index}, outside" in problems[0]


def test_strategy_export_c4(named):
    v = is_spartan(named["C4"])
    table = strategy_export(v.family, named["C4"])
    assert len(table["states"]) == 2
    # every oriented boundary attack appears from each state
    assert len(table["transitions"]) == 8
    assert table["initial"] == 0


def test_strategy_export_k2(named):
    v = is_spartan(named["K2"])
    table = strategy_export(v.family, named["K2"])
    assert table["states"] == [["a"], ["b"]]
    moves = {
        (t["from"], tuple(t["attack"])): t["moves"] for t in table["transitions"]
    }
    assert moves[(0, ("a", "b"))] == [["a", "b"]]


def test_strategy_export_c6(named):
    v = is_spartan(named["C6"])
    table = strategy_export(v.family, named["C6"])
    assert len(table["states"]) == 2
    assert all(len(m) == 3 for t in table["transitions"] for m in [t["moves"]])


def test_disconnected_graph_per_component():
    g = parse_edge_list("a b\nb c\nc a\nx y")  # triangle + edge
    v = is_spartan(g)
    assert v.method == "perComponent"
    assert v.spartan  # triangle is Spartan (evc = mvc = 2), so is the edge
    assert len(v.components) == 2
    g2 = parse_edge_list("a b\nb c\nx y")  # path + edge: path P3 is not
    v2 = is_spartan(g2)
    assert not v2.spartan
    assert v2.certificate is not None


def test_rejects_isolated_vertices():
    g = Graph(("a", "b", "c"), ((0, 1),))
    with pytest.raises(PreconditionError):
        is_spartan(g)


def test_rejects_single_vertex():
    with pytest.raises(PreconditionError):
        is_spartan(Graph(("a",), ()))


def test_method_game(named):
    for name, spartan in (
        ("C4", True), ("C5", True), ("P5", False), ("footnote", False)
    ):
        v = is_spartan(named[name], method="game")
        assert v.spartan == spartan and v.method == "gameOracle", name


def test_method_fixpoint_forced(named):
    # Koenig graphs still decide correctly when forced down the fixpoint lane
    v = is_spartan(named["C4"], method="fixpoint")
    assert v.spartan and v.method == "fixpoint"
    v = is_spartan(named["P5"], method="fixpoint")
    assert not v.spartan and v.certificate["kind"] == "empty_fixpoint"


def test_cross_check_agrees(named):
    for name in ("C4", "C5", "P5", "footnote", "bowtie"):
        v = is_spartan(named[name], cross_check=True)
        assert v.cross_check["agrees"]


def test_cross_check_of_a_disconnected_graph():
    # C4 is Spartan and P5 is not, so the game lane answers False and the
    # decider agrees
    g = parse_edge_list("a b\nb c\nc d\nd a\np q\nq r\nr s\ns t\n")
    v = is_spartan(g, cross_check=True)
    assert v.method == "perComponent" and not v.spartan
    assert v.cross_check["agrees"] and v.cross_check["game_oracle"] is False
    # the game refuses C21 (above 20 vertices), but P5 comes first and
    # already loses, so the cross-check stops there
    ring = " ".join(f"v{i} v{(i + 1) % 21}" for i in range(21))
    g = parse_edge_list("p q\nq r\nr s\ns t\n" + ring + "\n")
    with pytest.raises(ResourceLimitError, match="capped at 20 vertices"):
        is_spartan(g, method="game")
    v = is_spartan(g, cross_check=True)
    assert v.cross_check["agrees"] and v.cross_check["game_oracle"] is False


def test_cross_check_solves_each_component_once(monkeypatch):
    # C4 wins at its cover number and P3 loses: the game lane's own solves
    # answer the cross-check, and any other lane solves each component once
    import evckit.decider
    import evckit.game

    solves = []
    real = evckit.game.solve_guard_game

    def counting(g, k, **kwargs):
        solves.append((g.labels, k))
        return real(g, k, **kwargs)

    monkeypatch.setattr(evckit.game, "solve_guard_game", counting)
    monkeypatch.setattr(evckit.decider, "solve_guard_game", counting, raising=False)
    g = parse_edge_list("a b\nb c\nc d\nd a\nx y\ny z\n")
    for method in ("game", "auto", "fixpoint"):
        solves.clear()
        v = is_spartan(g, method=method, cross_check=True)
        assert not v.spartan and v.cross_check["game_oracle"] is False
        assert solves == [(tuple("abcd"), 2), (tuple("xyz"), 1)], method


def test_truncated_enumeration_is_refused(named):
    # a fixpoint over part of the covers could delete one that a missing
    # cover defends, and the game oracle refuses the sizes where the default
    # cap truncates, so truncation is a refusal on every lane but the game's
    for method in ("auto", "fixpoint"):
        with pytest.raises(ResourceLimitError, match="more than 2 minimum covers"):
            is_spartan(named["C5"], cover_cap=2, method=method)
    assert is_spartan(named["C5"], cover_cap=2, method="game").spartan
    assert is_spartan(named["C5"], cover_cap=5).spartan


def test_fixpoint_refuses_a_truncated_cover_list(named, monkeypatch):
    from evckit import decider

    monkeypatch.setattr(decider, "DEFAULT_COVER_CAP", 2)
    with pytest.raises(ResourceLimitError, match="more than 2 minimum covers"):
        spartan_fixpoint(named["C5"])


def test_decider_matches_oracle_random():
    for g in random_graph_corpus(120, 2, 7, seed=139):
        assert is_spartan(g).spartan == is_spartan(g, method="game").spartan, g.edges


def test_fixpoint_lane_agrees_on_konig_graphs():
    # even when the Koenig fast path is bypassed, the fixpoint answer equals
    # bipartite + essentially elementary whenever mm == mvc
    from evckit.covers import mvc_mask
    from evckit.graph import OddCycle, bipartition
    from evckit.matching import is_essentially_elementary, max_matching_size

    seen = 0
    for g in random_graph_corpus(80, 2, 6, seed=163):
        if max_matching_size(g) != mvc_mask(g, g.full_mask):
            continue
        seen += 1
        bip = not isinstance(bipartition(g), OddCycle)
        structural = bip and is_essentially_elementary(g)
        assert is_spartan(g, method="fixpoint").spartan == structural, g.edges
    assert seen > 20


def test_witness_runs_once_per_exported_transition(monkeypatch):
    from evckit.defense import DefenseContext

    calls = []
    original = DefenseContext.witness

    def counting(self, s, attack, t):
        calls.append((s, attack, t))
        return original(self, s, attack, t)

    monkeypatch.setattr(DefenseContext, "witness", counting)
    families = traces = 0
    for g in random_graph_corpus(80, 3, 9, seed=233):
        calls.clear()
        result = spartan_fixpoint(g)
        if isinstance(result, FixpointTrace):
            assert calls == [], g.edges
            traces += 1
            continue
        assert len(calls) == len(set(calls)) == len(result.transitions), g.edges
        # each call names the transition's source and its one target
        assert sorted((s, attack, t) for s, attack, t in calls) == sorted(
            (result.covers[ci], attack, result.covers[ti])
            for (ci, attack), (ti, _) in result.transitions.items()
        )
        families += 1
    assert families > 10 and traces > 10


def test_exported_witnesses_equal_fresh_check_defense():
    # the matchings cached per question change nothing: every exported path
    # system equals a fresh scan's and a fresh matching's expansion through
    # the attacked guard, and the family replays
    from evckit.defense import (
        DefenseContext,
        build_aux,
        check_defense,
        matching_to_paths,
        rainbow_pm_with_edge,
    )

    transitions = shared = 0
    for g in random_graph_corpus(60, 5, 10, seed=241):
        result = spartan_fixpoint(g)
        if isinstance(result, FixpointTrace):
            continue
        for (ci, attack), (ti, paths) in result.transitions.items():
            s, t = result.covers[ci], result.covers[ti]
            fresh = check_defense(g, s, attack, (t,), DefenseContext(g))
            assert fresh is not None and fresh.paths == paths, (g.edges, s, attack)
            aux = build_aux(g, s, t)
            rm = rainbow_pm_with_edge(aux, *attack)
            assert matching_to_paths(aux, rm, attack[0]) == paths
            transitions += 1
            shared += attack[0] in t
        assert validate_defense_family(g, result) == [], g.edges
    assert transitions > 600 and shared > 300, (transitions, shared)


def test_stats_record_each_fixpoint_ask_once(monkeypatch):
    from evckit.defense import DefenseContext, DefenseStats

    asks = []
    original = DefenseContext.defends

    def recording(self, s, attack, t):
        asks.append((s, attack, t))
        return original(self, s, attack, t)

    monkeypatch.setattr(DefenseContext, "defends", recording)
    total = 0
    for g in random_graph_corpus(150, 4, 9, seed=239):
        asks.clear()
        stats = DefenseStats()
        spartan_fixpoint(g, stats=stats)
        # every side fits the brute-force cap, so each ask is one instance
        # and the witness phase adds none
        assert stats.instances == len(asks) == len(set(asks)), g.edges
        assert stats.mismatches == 0
        total += stats.instances
    assert total > 1000


def test_stats_skip_sides_past_the_brute_force_cap(monkeypatch):
    # C22 u C4: the covers that differ on C22 differ in 11 vertices per
    # side, past the cap, and those that differ on C4 alone in 2, so only
    # the asks within the cap are instances, and the export adds none
    from evckit.defense import VERIFY_SIDES_CAP, DefenseContext, DefenseStats

    asks = []
    original = DefenseContext.defends

    def recording(self, s, attack, t):
        asks.append(len(set(s) - set(t)))
        return original(self, s, attack, t)

    monkeypatch.setattr(DefenseContext, "defends", recording)
    ring = " ".join(f"v{i} v{(i + 1) % 22}" for i in range(22))
    g = parse_edge_list(ring + "\na b\nb c\nc d\nd a\n")
    stats = DefenseStats()
    assert isinstance(spartan_fixpoint(g, stats=stats), DefenseFamily)
    within = sum(side <= VERIFY_SIDES_CAP for side in asks)
    assert 0 < within < len(asks) and max(asks) > VERIFY_SIDES_CAP
    assert stats.instances == within and stats.mismatches == 0
