import io

import pytest

from evckit.covers import mvc_mask
from evckit.errors import PreconditionError, ResourceLimitError
from evckit.game import (
    enumerate_states,
    evc,
    is_spartan_by_game,
    play_session,
    replay_moves,
    solve_guard_game,
    transition_moves,
)
from evckit.graph import Graph, parse_edge_list

from conftest import random_graph_corpus


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
    # the only two-guard cover state dies on an attack toward b1 or b2
    assert out.removal_trace
    state, edge = out.removal_trace[0]
    assert state == (1, 1, 0, 0)


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
    states = enumerate_states(named["C5"], 3)
    assert len(states) == 5
    assert all(sum(s) == 3 and max(s) == 1 for s in states)
    # one extra guard may double up anywhere on a cover or extend the support
    states4 = enumerate_states(named["C5"], 4)
    assert all(sum(s) == 4 for s in states4)
    assert len(states4) > 5


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
                resp = out.strategy_response(state, (a, b))
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
    assert is_spartan_by_game(named["C4"])
    assert is_spartan_by_game(named["C5"])
    assert not is_spartan_by_game(named["P5"])
    assert not is_spartan_by_game(named["footnote"])


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
