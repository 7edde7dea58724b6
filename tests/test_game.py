import hashlib
import itertools
import io
import math
import random

import pytest

from evckit import game
from evckit.corpus import exhaustive_connected
from evckit.covers import mvc_mask
from evckit.decider import is_spartan
from evckit.errors import PreconditionError, ResourceLimitError
from evckit.game import (
    GameOutcome,
    evc,
    play_session,
    solve_guard_game,
    transition_moves,
)
from evckit.fixpoint import greatest_fixpoint, oriented_attacks
from evckit.graph import Graph, mask_of, parse_edge_list
from evckit.reachability import move_feasible_counts, replay_moves

from conftest import game_states, random_graph_corpus


def test_k2_one_guard(named):
    out = solve_guard_game(named["K2"], 1)
    assert out.defender_wins
    assert set(out.survivors) == {(1, 0), (0, 1)}


def test_p3_values(named):
    assert not solve_guard_game(named["P3"], 1).defender_wins
    assert solve_guard_game(named["P3"], 2).defender_wins
    assert evc(named["P3"]).value == 2


def test_footnote_two_guards_lose(named):
    out = solve_guard_game(named["footnote"], 2)
    assert not out.defender_wins
    # the only two-guard cover state dies in the first round, on an attack
    # toward b1 or b2
    assert out.states == [(1, 1, 0, 0)]
    assert out.ranks == {(1, 1, 0, 0): 0}


def test_fixed_values(named):
    assert evc(named["C4"]).value == 2
    assert evc(named["C5"]).value == 3
    assert evc(named["K1,3"]).value == 2
    assert evc(named["K2"]).value == 1


def test_evc_bounds_and_monotonicity():
    for g in random_graph_corpus(40, 2, 6, seed=149):
        k0 = mvc_mask(g, g.full_mask)
        result = evc(g)
        assert k0 <= result.value <= 2 * k0
        # winning stays winning with one more guard
        assert solve_guard_game(g, result.value + 1).defender_wins


def test_evc_additive_over_components():
    g = parse_edge_list("a b\nb c\nx y")
    assert evc(g).value == 2 + 1


def test_evc_single_vertex():
    g = Graph(("a",), ())
    assert evc(g).value == 0 and evc(g).mvc == 0


def test_game_requires_connected(named):
    with pytest.raises(PreconditionError):
        solve_guard_game(parse_edge_list("a b\nc d"), 2)


def test_state_enumeration_counts(named):
    # C5 with three guards: exactly the five minimum covers, one guard each
    states = game_states(named["C5"], 3)
    assert solve_guard_game(named["C5"], 3).states == states
    assert len(states) == 5
    assert all(sum(s) == 3 and max(s) == 1 for s in states)
    # one extra guard may double up anywhere on a cover or extend the support
    states4 = game_states(named["C5"], 4)
    assert solve_guard_game(named["C5"], 4).states == states4
    assert all(sum(s) == 4 for s in states4)
    assert len(states4) > 5


def test_one_per_vertex_states_are_covers_of_size_k(named):
    for g in random_graph_corpus(20, 2, 7, seed=163):
        for k in range(1, g.n + 1):
            states = solve_guard_game(g, k, one_per_vertex=True).states
            expected = [c for c in game_states(g, k) if max(c) == 1]
            assert states == game_states(g, k, one_per_vertex=True) == expected


def test_a_dead_vertex_decides_a_loss_without_a_search(named, monkeypatch):
    # at k = mvc no state holds a leaf of P3 or of the star K1,3 (the centre
    # is their only minimum cover), so every state loses to the attack on
    # the leaf's edge: the verdict asks no answer, and the rounds read later
    # are those of the full solve
    star = Graph(tuple("cxyz"), ((0, 1), (0, 2), (0, 3)))
    for g in (named["P3"], star):
        k = mvc_mask(g, g.full_mask)
        asked = []
        with monkeypatch.context() as m:
            m.setattr(game, "some_state_survives", lambda *args: asked.append(args))
            m.setattr(game, "move_feasible_counts", lambda *args: asked.append(args))
            outcome = solve_guard_game(g, k)
        assert not outcome.defender_wins and asked == []
        states = game_states(g, k)
        supports = [mask_of(v for v in range(g.n) if s[v]) for s in states]
        alive, removals, _ = greatest_fixpoint(
            [oriented_attacks(g, support) for support in supports],
            lambda threat: [j for j, s in enumerate(states) if s[threat[1]]],
            lambda i, threat, j: move_feasible_counts(
                g, game._minus(states[i], threat[0]), game._minus(states[j], threat[1])
            ),
        )
        assert outcome.states == states
        assert outcome.survivors == [states[i] for i in alive] == []
        assert outcome.ranks == {states[i]: r for i, _, r in removals}
        assert len(outcome.ranks) == len(states) > 0


def test_state_budget(named):
    with pytest.raises(ResourceLimitError):
        solve_guard_game(named["C5"], 3, budget=2)


def test_budget_bracket(named):
    with pytest.raises(ResourceLimitError) as exc:
        evc(named["C5"], budget=2)
    assert exc.value.bracket is not None


def test_strategy_responses_stay_in_survivors():
    for g in random_graph_corpus(25, 2, 6, seed=157):
        k = mvc_mask(g, g.full_mask)
        out = solve_guard_game(g, k)
        if not out.defender_wins:
            continue
        survivors = set(out.survivors)
        for state in out.survivors:
            for a, b in g.edges:
                if (state[a] > 0) == (state[b] > 0):
                    continue
                resp = game._best_response(g, out, state, (a, b))
                assert resp is not None, (g.edges, state, (a, b))
                target, moves = resp
                assert target in survivors
                assert replay_moves(g, state, moves) == target
                u, v = (a, b) if state[a] else (b, a)
                assert (u, v) in moves  # a guard crosses the attacked edge


def test_transition_moves_validate(named):
    c4 = named["C4"]
    moves = transition_moves(c4, (1, 0, 1, 0), (0, 1, 0, 1), 0, 1)
    assert replay_moves(c4, (1, 0, 1, 0), moves) == (0, 1, 0, 1)
    assert (0, 1) in moves


def test_replay_rejects_illegal_moves(named):
    c4 = named["C4"]
    from evckit.errors import IntegrityError

    with pytest.raises(IntegrityError):
        replay_moves(c4, (1, 0, 1, 0), ((0, 2),))  # not an edge
    with pytest.raises(IntegrityError):
        replay_moves(c4, (1, 0, 1, 0), ((1, 2),))  # no guard on b


def test_is_spartan_by_game(named):
    # the defender wins the game with as many guards as a minimum cover
    # exactly on the Spartan graphs, and is_spartan's game method says so
    for name, spartan in (
        ("C4", True), ("C5", True), ("P5", False), ("footnote", False)
    ):
        g = named[name]
        k = mvc_mask(g, (1 << g.n) - 1)
        assert solve_guard_game(g, k).defender_wins == spartan, name
        assert is_spartan(g, method="game").spartan == spartan, name


def test_play_session_c4_defense(named):
    out = io.StringIO()
    events = play_session(named["C4"], 2, io.StringIO("attack a b\nquit\n"), out)
    text = out.getvalue()
    assert "(defender holds with 2 guards)" in text
    assert "defense:" in text
    defense = next(e for e in events if e["event"] == "defense")
    assert defense["cover"] is True


def test_play_session_p3_forced_loss(named):
    script = "attack a b\nattack b c\nquit\n"
    out = io.StringIO()
    events = play_session(named["P3"], 1, io.StringIO(script), out)
    text = out.getvalue()
    assert "warning: the defender cannot hold with 1 guards" in text
    assert "attacker wins" in text
    kinds = [e["event"] for e in events]
    assert "attacker_win" in kinds


def test_play_session_rejects_non_edge(named):
    out = io.StringIO()
    play_session(named["C4"], 2, io.StringIO("attack a c\nquit\n"), out)
    assert "not an edge: a c" in out.getvalue()


def test_play_session_rejects_unknown_vertex(named):
    out = io.StringIO()
    play_session(named["C4"], 2, io.StringIO("attack a zz\nquit\n"), out)
    assert "unknown vertex" in out.getvalue()


def test_play_session_hint(named):
    out = io.StringIO()
    play_session(named["C4"], 2, io.StringIO("hint\nquit\n"), out)
    assert "winning attacks: none" in out.getvalue()
    out = io.StringIO()
    play_session(named["P3"], 1, io.StringIO("hint\nquit\n"), out)
    assert "winning attacks: a b" in out.getvalue()
    # a lost position: the guarded edge a1 a2 is answered by a swap
    out = io.StringIO()
    play_session(named["footnote"], 2, io.StringIO("hint\nquit\n"), out)
    assert "guards: a1 a2\n" in out.getvalue()
    assert "winning attacks: a1 b1, a1 b2, a2 b1, a2 b2\n" in out.getvalue()


def test_hint_names_the_attacks_no_survivor_answers():
    # the hint read off the outcome, against its definition: an unguarded
    # edge, or one guarded end and no surviving state in one step
    from evckit.reachability import move_feasible_counts

    hinted = 0
    for g in random_graph_corpus(30, 2, 6, seed=163):
        for k in (mvc_mask(g, g.full_mask), mvc_mask(g, g.full_mask) + 1):
            out = solve_guard_game(g, k)
            if not out.states:
                continue
            script = "".join(
                f"attack {g.labels[a]} {g.labels[b]}\nhint\n" for a, b in g.edges
            )
            events = play_session(g, k, io.StringIO(script), io.StringIO())
            guards = None
            for event in events:
                if "guards" in event:
                    guards = event["guards"]
                if event["event"] != "hint":
                    continue
                want = []
                for a, b in g.edges:
                    if guards[a] and guards[b]:
                        continue
                    u, v = (a, b) if guards[a] else (b, a)
                    if not guards[u] or not any(
                        t[v] and move_feasible_counts(
                            g, game._minus(guards, u), game._minus(t, v)
                        )
                        for t in out.survivors
                    ):
                        want.append((a, b))
                assert event["attacks"] == want, (g.edges, k, guards)
                hinted += 1
    assert hinted > 100


def test_play_session_swap(named):
    # force a swap by attacking an edge with both endpoints guarded
    out = io.StringIO()
    play_session(named["P3"], 2, io.StringIO("attack a b\nquit\n"), out)
    # with guards on {a? b?}: the winning 2-guard states include both-endpoint
    # positions; accept either a swap or a regular defense line
    assert "defense:" in out.getvalue()


def test_play_session_malformed_command(named):
    out = io.StringIO()
    play_session(named["C4"], 2, io.StringIO("fight me\nquit\n"), out)
    assert "cannot parse command" in out.getvalue()


# the first 10 hex digits of the sha256 of each fixture's play transcript
# when every edge is attacked in g.edges order and then the session quits:
# with evc guards, then with evc - 1 where that is at least the cover number
# (a dash where it is not); a deliberate change of output updates them and
# says so in CHANGES.md
PLAY_DIGESTS = {
    "K2": "b13a3feab2 -",
    "P3": "19e9b468e7 9fc2cc3d57",
    "P4": "a12325d898 52631c1257",
    "P5": "92de0093af b0bcf491f3",
    "C4": "2aadff1e61 -",
    "C5": "66ab6e5c17 -",
    "C6": "a65e8dc0f6 -",
    "K1,3": "3e521fb0ba 56762926db",
    "bowtie": "f77a1ca216 -",
    "footnote": "4443f4b454 5543309c4e",
}


def test_play_transcripts_are_pinned(named):
    got = {}
    for name, g in named.items():
        script = "".join(f"attack {g.labels[a]} {g.labels[b]}\n" for a, b in g.edges)
        value = evc(g).value
        digests = []
        for k in (value, value - 1):
            if k < mvc_mask(g, g.full_mask):
                digests.append("-")
                continue
            out = io.StringIO()
            play_session(g, k, io.StringIO(script + "quit\n"), out)
            digests.append(hashlib.sha256(out.getvalue().encode()).hexdigest()[:10])
        got[name] = " ".join(digests)
    assert got == PLAY_DIGESTS


# -- the two-game proof of evc ------------------------------------------------


def _multiset_evc(g: Graph) -> tuple[int, dict[int, bool]]:
    """Reference for a connected graph: the multiset game from mvc upward."""
    k0 = mvc_mask(g, g.full_mask)
    outcomes = {}
    for k in range(k0, 2 * k0 + 1):
        outcomes[k] = solve_guard_game(g, k).defender_wins
        if outcomes[k]:
            return k, outcomes
    raise AssertionError("the multiset game must win at 2 * mvc")


def _agreement_corpus():
    small = [g for n in range(2, 6) for g in exhaustive_connected(n)]
    return small + random_graph_corpus(40, 7, 8, seed=167)


def test_two_game_evc_matches_multiset_loop():
    graphs = _agreement_corpus()
    assert len(graphs) == 1 + 4 + 38 + 728 + 40
    for g in graphs:
        result = evc(g)
        assert (result.value, result.outcomes) == _multiset_evc(g), g.edges


@pytest.mark.parametrize("late", [1, None], ids=["wins_above_evc", "never_wins"])
def test_fallback_multiset_loop_is_exact(monkeypatch, late):
    """The one-per-vertex game first wins at evc + 1, or never, above the
    cover number: the multiset game must then decide every k from mvc to evc
    itself.  At the cover number the fake plays the real game, since there
    the two games are one (an mvc-guard multiset whose support covers the
    graph has one guard on each vertex), and a win there needs no multiset
    solve."""
    graphs = list(exhaustive_connected(4)) + random_graph_corpus(12, 5, 6, seed=173)
    expected = [_multiset_evc(g) for g in graphs]
    real = game.solve_guard_game
    calls = []
    truth = {}

    def fake(g, k, *, budget=None, one_per_vertex=False):
        calls.append((k, one_per_vertex))
        if one_per_vertex and k > truth["mvc"]:
            wins = late is not None and k >= truth["evc"] + late
            return GameOutcome(k, wins, lambda: ([], [], {}, []))
        return real(g, k, budget=budget, one_per_vertex=one_per_vertex)

    monkeypatch.setattr(game, "solve_guard_game", fake)
    fallbacks = 0
    for g, (value, outcomes) in zip(graphs, expected):
        k0 = mvc_mask(g, g.full_mask)
        truth.update(evc=value, mvc=k0)
        calls.clear()
        result = evc(g)
        assert (result.value, result.outcomes) == (value, outcomes), g.edges
        multiset = sorted(k for k, one in calls if not one)
        assert multiset == ([] if value == k0 else list(range(k0, value + 1)))
        fallbacks += value > k0
    assert fallbacks > 20


def test_evc_reuses_the_climb_loss_at_the_cover_number(monkeypatch):
    # P4 has mvc 2 and evc 3: the climb loses at 2 and wins at 3, and the
    # multiset game at 2 is the one-per-vertex game it just lost
    real = game.solve_guard_game
    calls = []

    def spy(g, k, **kwargs):
        calls.append((k, kwargs.get("one_per_vertex", False)))
        return real(g, k, **kwargs)

    monkeypatch.setattr(game, "solve_guard_game", spy)
    assert evc(parse_edge_list("a b\nb c\nc d")).value == 3
    assert calls == [(2, True), (3, True)]


def test_refusal_of_the_multiset_check_brackets_evc():
    # P6: mvc 3, evc 5; the one-per-vertex game has at most 10 states at
    # k = 3..5, the multiset game 22 at k = 4
    p6 = parse_edge_list("a b\nb c\nc d\nd e\ne f")
    assert max(len(game_states(p6, k, one_per_vertex=True)) for k in (3, 4, 5)) == 10
    assert len(game_states(p6, 4)) == 22
    assert evc(p6).value == 5
    for text, truth, bracket in [
        ("a b\nb c\nc d\nd e\ne f", 5, (3, 5)),
        # a later component x y adds [1, 2]
        ("a b\nb c\nc d\nd e\ne f\nx y", 6, (4, 7)),
    ]:
        with pytest.raises(ResourceLimitError) as exc:
            evc(parse_edge_list(text), budget=15)
        assert "multiset game at k=4" in str(exc.value)
        assert exc.value.bracket == bracket
        assert bracket[0] <= truth <= bracket[1]


# -- closed forms beyond the exhaustive corpus (Klostermeyer-Mynhardt 2009) ---


def _seeded_tree(n: int, seed: int) -> Graph:
    """Vertex i > 0 hangs from ``random.Random(seed).randrange(i)``."""
    rng = random.Random(seed)
    edges = sorted((rng.randrange(i), i) for i in range(1, n))
    return Graph(tuple(f"t{i:02d}" for i in range(n)), tuple(edges))


def _cycle(n: int) -> Graph:
    edges = sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))
    return Graph(tuple(f"c{i:02d}" for i in range(n)), tuple(edges))


def _clique(n: int) -> Graph:
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return Graph(tuple(f"k{i}" for i in range(n)), edges)


_CLOSED_FORMS = (
    [
        pytest.param(_seeded_tree(n, s), "tree", id=f"tree{n}/{s}")
        for n, s in [
            (7, 1), (9, 2), (10, 5), (11, 3), (12, 7), (14, 2), (16, 3),
            (17, 1), (18, 1), (19, 1), (20, 1), (20, 5), (20, 6),
        ]
    ]
    + [pytest.param(_cycle(n), "cycle", id=f"C{n}") for n in range(15, 21)]
    + [pytest.param(_clique(n), "clique", id=f"K{n}") for n in range(3, 9)]
)


@pytest.mark.parametrize("g,family", _CLOSED_FORMS)
def test_evc_closed_forms(g, family):
    if family == "tree":
        expected = 1 + sum(1 for v in range(g.n) if len(g.adjacency[v]) > 1)
    elif family == "cycle":
        expected = math.ceil(g.n / 2)
    else:
        expected = g.n - 1
    result = evc(g)
    assert result.value == expected
    assert result.mvc <= result.value <= 2 * result.mvc


def test_support_filter_rejects_only_unroutable_pairs():
    # the move check's prefilter: a pair it rejects never routes, and the
    # masks are the residual's support and that support's closed
    # neighbourhood; the solver's residual is the state's slot mask less its
    # top slot on v, with that closed neighbourhood spread over the slots
    from evckit.game import _minus, _residual
    from evckit.reachability import (
        _closed_slots,
        _support_masks,
        layered,
        move_feasible_counts,
    )

    def spread(mask, n, slots):
        return layered([slots * (mask >> w & 1) for w in range(n)], slots)

    rng = random.Random(241)
    rejected = kept = stacked = 0
    for g in random_graph_corpus(60, 4, 7, seed=251):
        k = mvc_mask(g, g.full_mask) + rng.randint(0, 1)
        states = game_states(g, k)
        slots = max(max(c) for c in states)
        closed = _closed_slots(g, slots)
        for c in states:
            for v in range(g.n):
                if c[v]:
                    want = _minus(c, v)
                    mask, near = _residual(closed, layered(c, slots), slots, v)
                    assert mask == layered(want, slots), (g.edges, c, v)
                    assert near == spread(
                        _support_masks(g, want)[1], g.n, slots
                    ), (g.edges, c, v)
                    stacked += max(want) > 1
        residuals = sorted(
            {_minus(c, v) for c in states for v in range(g.n) if c[v]}
        )
        masks = {c: _support_masks(g, c) for c in residuals}
        for c in residuals:
            support = sum(1 << v for v in range(g.n) if c[v])
            near = sum(1 << w for w in range(g.n) if any(
                c[v] and (v == w or g.has_edge(v, w)) for v in range(g.n)
            ))
            assert masks[c] == (support, near)
        for c1, c2 in itertools.islice(itertools.product(residuals, repeat=2), 3000):
            (s1, n1), (s2, n2) = masks[c1], masks[c2]
            if s2 & ~n1 or s1 & ~n2:
                assert not move_feasible_counts(g, c1, c2), (g.edges, c1, c2)
                rejected += 1
            else:
                kept += 1
    assert rejected > 2000 and kept > 10000 and stacked > 100
