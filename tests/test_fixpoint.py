import pytest

import evckit.decider
import evckit.game
from evckit.covers import enumerate_min_vcs, mvc_mask
from evckit.decider import DefenseFamily, FixpointTrace, spartan_fixpoint
from evckit.defense import Defense, check_defense
from evckit.fixpoint import greatest_fixpoint, oriented_attacks, some_state_survives
from evckit.game import enumerate_states, solve_guard_game
from evckit.graph import Graph, mask_of
from evckit.reachability import move_feasible_counts

from conftest import random_graph_corpus

# the 25 graphs of the former order-independence test, then larger ones
CORPUS = random_graph_corpus(25, 3, 6, seed=131) + random_graph_corpus(
    60, 7, 8, seed=211
)


def naive_rounds(n_states, threats_of, first_responder):
    """Reference fixpoint: every round recomputes from scratch, and a state
    leaves with its first threat that no state alive at the round's start
    answers."""
    alive = list(range(n_states))
    removals = []
    round_no = 0
    while True:
        dying = {}
        for i in alive:
            for threat in threats_of(i):
                if first_responder(i, threat, alive) is None:
                    dying[i] = threat
                    break
        if not dying:
            return alive, removals
        removals += [(i, threat, round_no) for i, threat in dying.items()]
        alive = [i for i in alive if i not in dying]
        round_no += 1


def _threats(g, occupied):
    out = []
    for a, b in g.edges:
        if occupied(a) and not occupied(b):
            out.append((a, b))
        elif occupied(b) and not occupied(a):
            out.append((b, a))
    return out


def _minus(counts, v):
    return tuple(c - (w == v) for w, c in enumerate(counts))


def test_game_matches_naive_rounds():
    for g in CORPUS:
        k0 = mvc_mask(g, g.full_mask)
        # at k0 every covering multiset has one guard per vertex, so the
        # one-per-vertex game is a new input only above it
        for k, one_per_vertex in ((k0, False), (k0 + 1, False), (k0 + 1, True)):
            states = enumerate_states(g, k, one_per_vertex=one_per_vertex)

            def first_responder(i, threat, alive):
                u, v = threat
                c_from = _minus(states[i], u)
                return next(
                    (
                        j
                        for j in alive
                        if states[j][v]
                        and move_feasible_counts(g, c_from, _minus(states[j], v))
                    ),
                    None,
                )

            alive, removals = naive_rounds(
                len(states),
                lambda i: _threats(g, lambda v: states[i][v] > 0),
                first_responder,
            )
            out = solve_guard_game(g, k, one_per_vertex=one_per_vertex)
            assert out.states == states
            assert out.survivors == [states[i] for i in alive], (g.edges, k)
            assert out.ranks == {states[i]: r for i, _, r in removals}
            assert out.removal_trace == [(states[i], t) for i, t, _ in removals]


def test_decider_matches_naive_rounds():
    for g in CORPUS:
        covers = enumerate_min_vcs(g).covers

        def first_responder(i, attack, alive):
            outcome = check_defense(g, covers[i], attack, [covers[j] for j in alive])
            if isinstance(outcome, Defense):
                return covers.index(outcome.target)
            return None

        def threats_of(i):
            return _threats(g, lambda v: v in covers[i])

        alive, removals = naive_rounds(len(covers), threats_of, first_responder)
        result = spartan_fixpoint(g)
        if not alive:
            assert isinstance(result, FixpointTrace), g.edges
            assert result.deletions == tuple(
                (covers[i], attack, r) for i, attack, r in removals
            )
            continue
        assert isinstance(result, DefenseFamily), g.edges
        assert result.covers == tuple(covers[i] for i in alive)
        targets = {
            (alive.index(i), attack): alive.index(first_responder(i, attack, alive))
            for i in alive
            for attack in threats_of(i)
        }
        assert {key: ti for key, (ti, _) in result.transitions.items()} == targets


def test_no_answer_asked_twice(monkeypatch):
    # each engine on its own asks no (state, threat, candidate) twice; a game
    # solve runs the search, and reading its survivors the full solve
    asked = []

    def recording(engine, name):
        def run(*args):
            *rest, answer = args

            def counted(i, threat, j):
                asked.append((name, i, threat, j))
                return answer(i, threat, j)

            return engine(*rest, counted)

        return run

    monkeypatch.setattr(
        evckit.game, "greatest_fixpoint", recording(greatest_fixpoint, "rounds")
    )
    monkeypatch.setattr(
        evckit.game,
        "some_state_survives",
        recording(some_state_survives, "search"),
    )
    monkeypatch.setattr(
        evckit.decider, "greatest_fixpoint", recording(greatest_fixpoint, "rounds")
    )
    total = searched = 0
    for g in CORPUS:
        k0 = mvc_mask(g, g.full_mask)
        for run in (
            lambda: solve_guard_game(g, k0).survivors,
            lambda: solve_guard_game(g, k0 + 1).survivors,
            lambda: solve_guard_game(g, k0 + 1, one_per_vertex=True).survivors,
            lambda: spartan_fixpoint(g),
        ):
            asked.clear()
            run()
            assert len(set(asked)) == len(asked), g.edges
            total += len(asked)
            searched += sum(name == "search" for name, *_ in asked)
    assert total > 1000
    assert searched > 1000


def test_engine_answers_name_first_live_responder():
    # state 0 is answered by 1 or 2; state 1 by nobody; state 2 by 0
    threats = [["t0"], ["t1"], ["t2"]]
    cands = {"t0": [1, 2], "t1": [0, 2], "t2": [0]}
    answers = {(0, 1), (0, 2), (2, 0)}
    alive, removals, table = greatest_fixpoint(
        threats, cands.__getitem__, lambda i, t, j: (i, j) in answers
    )
    assert alive == [0, 2]
    assert removals == [(1, "t1", 0)]
    assert table == {(0, "t0"): 2, (2, "t2"): 0}


def test_oriented_attacks_orient_boundary_edges(named):
    p5 = named["P5"]  # a-b-c-d-e
    cover = p5.index_set(["b", "d"])
    assert oriented_attacks(p5, mask_of(cover)) == [(1, 0), (1, 2), (3, 2), (3, 4)]
    assert oriented_attacks(p5, p5.full_mask) == []


def _both_engines(threats, cands, answers):
    """The search's verdict, the states it explored and the (state, threat,
    candidate) triples it asked in order, and the full solve's survivors."""
    explored, asked = [], []

    def threats_of(i):
        explored.append(i)
        return threats[i]

    def answer(i, t, j):
        asked.append((i, t, j))
        return (i, j) in answers

    wins = some_state_survives(len(threats), threats_of, cands.__getitem__, answer)
    alive, _, _ = greatest_fixpoint(
        threats, cands.__getitem__, lambda i, t, j: (i, j) in answers
    )
    return wins, explored, asked, alive


def test_search_stops_at_a_closed_set_inside_the_fixpoint():
    # 1 has no responder, so 0 (answered by 1 only) dies and the first root
    # holds nothing; from 2, the set {2, 4} is closed.  3 survives the full
    # solve too, but the search's answer does not need it.
    threats = [["a"], ["b"], ["c"], ["d"], ["e"]]
    cands = {"a": [1], "b": [], "c": [0, 3, 4], "d": [2], "e": [2]}
    answers = {(0, 1), (2, 0), (2, 4), (3, 2), (4, 2)}
    wins, explored, asked, alive = _both_engines(threats, cands, answers)
    assert wins and alive == [2, 3, 4]
    assert explored == [0, 1, 2, 4]
    assert asked == [(0, "a", 1), (2, "c", 3), (2, "c", 4), (4, "e", 2)]


def test_search_moves_the_watchers_of_a_dead_state_on():
    # 0 first watches 1; when 3 dies, 1 dies with it, and 0 moves on to 2,
    # which answers it back
    threats = [["t0"], ["t1"], ["t2"], ["t3"]]
    cands = {"t0": [1, 2], "t1": [3], "t2": [0], "t3": []}
    answers = {(0, 1), (0, 2), (1, 3), (2, 0)}
    wins, explored, asked, alive = _both_engines(threats, cands, answers)
    assert wins and alive == [0, 2]
    assert explored == [0, 1, 3, 2]
    assert asked == [(0, "t0", 1), (1, "t1", 3), (0, "t0", 2), (2, "t2", 0)]


def test_search_loses_when_every_state_dies():
    # 0 and 1 answer each other, but 1's second threat needs 2, which has
    # no responder; 0's other candidate, 2, does not answer it
    threats = [["t0"], ["t1", "u1"], ["t2"]]
    cands = {"t0": [1, 2], "t1": [0], "u1": [2], "t2": []}
    answers = {(0, 1), (1, 0), (1, 2)}
    wins, explored, asked, alive = _both_engines(threats, cands, answers)
    assert not wins and alive == []
    assert explored == [0, 1, 2]
    assert asked == [(0, "t0", 1), (1, "t1", 0), (1, "u1", 2)]


def test_search_and_full_solve_agree_on_the_atlas():
    # every connected graph of the atlas (up to 7 vertices), both games, at
    # every k from the cover number up to the first multiset win
    nx = pytest.importorskip("networkx")
    solves = 0
    for atlas in nx.graph_atlas_g():
        if atlas.number_of_nodes() < 2 or not nx.is_connected(atlas):
            continue
        g = Graph(
            tuple(str(v) for v in atlas.nodes),
            tuple(sorted((min(e), max(e)) for e in atlas.edges)),
        )
        k = mvc_mask(g, g.full_mask)
        while True:
            for one_per_vertex in (True, False):
                out = solve_guard_game(g, k, one_per_vertex=one_per_vertex)
                assert out.defender_wins == bool(out.survivors), (g.edges, k)
                solves += 1
            if out.defender_wins:
                break
            k += 1
    assert solves > 2000
