"""Exact eternal-vertex-cover game solver: safety fixpoint over guard multisets.

State space for k guards: every k-multiset of vertices whose support is a
vertex cover.  The attacker picks any edge; edges with both endpoints guarded
are answered by swapping the two guards (the position is unchanged), so the
solve iterates only over attacks with exactly one guarded endpoint.  A
defender response is any state reachable by a simultaneous one-step movement
in which some guard crosses the attacked edge.  The defender wins when the
greatest fixpoint, the largest set of states that answer every attack
within the set, is not empty.  ``solve_guard_game`` first looks for a dead
vertex, one with a neighbour that no state holds: every state guards the
other end of that edge and no state answers the attack on it, so every
state loses without a search (at k = mvc, every vertex that lies in no
minimum cover is dead).  Otherwise it decides with the search
``fixpoint.some_state_survives``: it explores states from the first one and
stops at the first non-empty closed set, which lies inside the fixpoint, so
a win need not verify every surviving state.  The fixpoint itself, with
the round in which each other state leaves (``fixpoint.greatest_fixpoint``),
is computed on the first read of the outcome's ``states``, ``survivors`` or
``ranks``, over the same answer function; ``play`` and ``hint`` read it.

A response is checked on residuals, the two states less the guard that
crosses: the remaining guards must reach the responder's in one step.  The
solver keeps every state as a slot mask (``reachability.layered``) with L
slots per vertex, L the most guards any state stacks on one vertex (1 in the
one-per-vertex game and in the multiset game at k = mvc).  A residual is the
state's slot mask less its top slot on the crossing vertex, with the closed
neighbourhood of its support spread over the slots; the support test on
those masks rejects most pairs before the move check routes the rest.

``evc`` proves its answer with two games.  The one-per-vertex game keeps
only the 0/1 states (the vertex covers of size exactly k); its strategies
are multiset strategies, so its first win k* is an upper bound.  The
multiset game is monotone in k (an extra guard may stand still), so one
multiset loss at k* - 1 proves evc = k*.  Should the multiset game win
there, the multiset loop below k* finds the exact value.  Every solve on
this path reads only the verdict, so none computes removal rounds.

This solver is the package's independent ground truth: it shares the
one-step-movement primitive and the fixpoint engine with the decider but
none of the matching-based decision machinery.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

from .covers import cover_configurations, enumerate_covers_up_to, mvc_mask
from .errors import IntegrityError, PreconditionError, ResourceLimitError, ValidationError
from .fixpoint import greatest_fixpoint, oriented_attacks, some_state_survives
from .graph import Graph, connected_components, is_connected
from .reachability import (
    _closed_slots,
    compatible_configs,
    layered,
    move_feasible_counts,
    replay_moves,
)

DEFAULT_STATE_BUDGET = 5_000_000
STATE_BUDGET_ENV = "EVCKIT_STATE_BUDGET"

Counts = tuple[int, ...]


def _state_budget(budget: int | None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(STATE_BUDGET_ENV)
    if not env:
        return DEFAULT_STATE_BUDGET
    if not env.isdecimal():
        raise PreconditionError(
            f"{STATE_BUDGET_ENV} must be an integer of at least 0, got {env!r}"
        )
    return int(env)


def _state_masks(
    g: Graph, k: int, budget: int | None, one_per_vertex: bool
) -> tuple[list[int], int]:
    """The k-guard states as slot masks in enumeration order (cover mask
    order), and their slot count L: the most guards any state stacks on
    one vertex, k - mvc + 1 in the multiset game."""
    limit = _state_budget(budget)
    if one_per_vertex:
        slots = 1
        configs = enumerate_covers_up_to(g, k, least=k)
    else:
        slots = max(1, k - mvc_mask(g, g.full_mask) + 1)
        configs = (layered(c, slots) for c in cover_configurations(g, k))
    masks: list[int] = []
    for mask in configs:
        masks.append(mask)
        if len(masks) > limit:
            raise ResourceLimitError(
                f"state space exceeds the budget of {limit} states"
            )
    return masks, slots


def _counts(mask: int, slots: int, n: int) -> Counts:
    group = (1 << slots) - 1
    return tuple((mask >> v * slots & group).bit_count() for v in range(n))


class GameOutcome:
    """The verdict of the k-guard game, and its greatest fixpoint on demand.

    ``defender_wins`` is known when the outcome is built.  ``states`` (in
    canonical order), ``survivors`` and ``ranks`` (the removal round of each
    removed state) come from one full solve, ``rounds()``, run on first
    read.
    """

    def __init__(self, k: int, defender_wins: bool, rounds) -> None:
        self.k = k
        self.defender_wins = defender_wins
        self._rounds = rounds

    @cached_property
    def _solved(self):
        return self._rounds()

    @property
    def states(self) -> list[Counts]:
        return self._solved[0]

    @property
    def survivors(self) -> list[Counts]:
        return self._solved[1]

    @property
    def ranks(self) -> dict[Counts, int]:
        return self._solved[2]


def _minus(counts: Counts, v: int) -> Counts:
    lst = list(counts)
    lst[v] -= 1
    return tuple(lst)


def _residual(
    closed: tuple[int, ...], mask: int, slots: int, v: int
) -> tuple[int, int]:
    """Slot mask ``mask`` (``slots`` per vertex) less its top guard on v, and
    the closed neighbourhood of what is left's support with every slot of
    each vertex in it: ``reachability._support_masks``' second mask, spread
    over the slots.  ``closed`` is ``reachability._closed_slots``."""
    group = (1 << slots) - 1
    mask ^= 1 << v * slots + (mask >> v * slots & group).bit_length() - 1
    near = 0
    rest = mask
    while rest:
        y = (rest & -rest).bit_length() - 1  # the lowest slot of its vertex
        near |= closed[y]
        rest &= ~(group << y)
    return mask, near


def solve_guard_game(
    g: Graph, k: int, *, budget: int | None = None, one_per_vertex: bool = False
) -> GameOutcome:
    """Solve the k-guard safety game on a connected graph; ``one_per_vertex``
    restricts every position to at most one guard per vertex."""
    if not is_connected(g):
        raise PreconditionError("the game solver expects a connected graph")
    if k < 1:
        raise PreconditionError("at least one guard is required")
    masks, slots = _state_masks(g, k, budget, one_per_vertex)
    n = g.n
    # slot 0 of a vertex is filled exactly when the vertex holds a guard
    supports = masks if slots == 1 else [
        sum((m >> v * slots & 1) << v for v in range(n)) for m in masks
    ]
    closed = _closed_slots(g, slots)
    threats: list = [None] * len(masks)
    holders: list = [None] * n  # per vertex, the states with a guard on it
    residuals: list = [None] * (len(masks) * n)  # _residual of state i less v

    def threats_of(i: int) -> list[tuple[int, int]]:
        got = threats[i]
        if got is None:
            got = threats[i] = oriented_attacks(g, supports[i])
        return got

    def holding(threat: tuple[int, int]) -> list[int]:
        v = threat[1]
        got = holders[v]
        if got is None:
            shift = v * slots
            got = holders[v] = [j for j, m in enumerate(masks) if m >> shift & 1]
        return got

    def answer(i: int, threat: tuple[int, int], j: int) -> bool:
        u, v = threat
        r1 = residuals[i * n + u]
        if r1 is None:
            r1 = residuals[i * n + u] = _residual(closed, masks[i], slots, u)
        r2 = residuals[j * n + v]
        if r2 is None:
            r2 = residuals[j * n + v] = _residual(closed, masks[j], slots, v)
        s1, near1 = r1
        s2, near2 = r2
        if s2 & ~near1 or s1 & ~near2:
            return False
        return move_feasible_counts(g, s1, s2, slots)

    def rounds():
        # the full solve on the search's closures, over the states in mask
        # order: synchronous rounds do not depend on the order, so only the
        # report is sorted
        alive, removals, _ = greatest_fixpoint(
            [threats_of(i) for i in range(len(masks))], holding, answer
        )
        counts = [_counts(m, slots, n) for m in masks]
        return (
            sorted(counts),
            sorted(counts[i] for i in alive),
            {counts[i]: r for i, _, r in removals},
        )

    held = 0
    for support in supports:
        held |= support
    # on a connected graph with an edge, a vertex that no state holds has an
    # edge whose attack no state answers, and every state guards its other
    # end, so every state loses to it
    dead = g.m > 0 and held != g.full_mask
    wins = not dead and some_state_survives(len(masks), threats_of, holding, answer)
    return GameOutcome(k, wins, rounds)


def _best_response(
    g: Graph,
    outcome: GameOutcome,
    counts: Counts,
    attack: tuple[int, int],
):
    """Deterministic response to an attack on an edge with exactly one
    guarded end, or None when no state answers it.

    Prefers surviving states; otherwise (lost positions) the latest-removed
    reachable state, which maximizes the rounds the defender can still hold.
    """
    a, b = attack
    u, v = (a, b) if counts[a] else (b, a)
    c_from = _minus(counts, u)
    survivors_set = {tuple(s) for s in outcome.survivors}
    best = None
    best_key = None
    for target in outcome.states:
        if target[v] == 0:
            continue
        if not move_feasible_counts(g, c_from, _minus(target, v)):
            continue
        surviving = target in survivors_set
        rank = outcome.ranks.get(target, 1 << 30)  # survivors rank highest
        key = (0 if surviving else 1, -rank, target)
        if best_key is None or key < best_key:
            best_key = key
            best = target
    if best is None:
        return None
    moves = transition_moves(g, counts, best, u, v)
    return best, moves


def transition_moves(
    g: Graph, c_from: Counts, c_to: Counts, u: int, v: int
) -> tuple[tuple[int, int], ...]:
    """Simultaneous one-step moves realizing c_from -> c_to with a guard
    crossing u -> v; stationary guards are omitted."""
    if not c_from[u] or not c_to[v]:
        raise PreconditionError(
            f"a guard crossing {g.labels[u]} -> {g.labels[v]} needs a guard "
            f"on {g.labels[u]} before and on {g.labels[v]} after"
        )
    moves = compatible_configs(g, _minus(c_from, u), _minus(c_to, v))
    if moves is None:
        raise IntegrityError("transition re-validation failed")
    return ((u, v),) + moves


@dataclass
class EvcResult:
    value: int
    mvc: int
    per_component: list[dict]
    outcomes: dict[int, bool]  # k -> defender wins (for the largest component run)


def _component_evc(sub: Graph, k0: int, budget: int | None) -> int:
    """Exact evc of a connected graph whose cover number ``k0`` is at least 1.

    The one-per-vertex game climbs from ``k0`` to its first win k*, an upper
    bound; one multiset loss at k* - 1 then proves evc = k*, and a multiset
    win there sends the multiset loop over ``k0``..k* - 1.  When k* - 1 is
    ``k0`` that loss is already known: a ``k0``-guard multiset covering the
    graph has ``k0`` support vertices, one guard on each, so the multiset
    game at ``k0`` is the one-per-vertex game the climb lost.  A refused
    solve (the state budget or the cover scan's cap) raises with the
    bracket [lo, hi] known for this graph at that point.
    """
    lo, hi = k0, 2 * k0

    def wins(k: int, one_per_vertex: bool = False) -> bool:
        try:
            outcome = solve_guard_game(
                sub, k, budget=budget, one_per_vertex=one_per_vertex
            )
        except ResourceLimitError as exc:
            game = "one-per-vertex" if one_per_vertex else "multiset"
            raise ResourceLimitError(
                f"{exc} while solving the {game} game at k={k}",
                bracket=(lo, hi),
            ) from exc
        return outcome.defender_wins

    top = next((k for k in range(k0, min(hi, sub.n) + 1) if wins(k, True)), None)
    if top is not None:
        hi = top
        if hi - 1 <= lo or not wins(hi - 1):
            return hi
        hi -= 1
    for k in range(lo, hi):
        if wins(k):
            return k
        lo = k + 1
    if top is None and not wins(hi):
        raise IntegrityError("defender must win with twice the cover number of guards")
    return hi


def evc(g: Graph, *, budget: int | None = None) -> EvcResult:
    """Exact eternal vertex cover number, summed over components.

    Per component, a win of the one-per-vertex game at k* proves evc <= k*,
    and a loss of the multiset game at k* - 1 proves evc >= k*, since the
    multiset game is monotone in k.  ``outcomes`` records, for the largest
    component, that every k from its cover number below evc loses and evc
    wins.  A win of the multiset game at 2 * mvc is guaranteed (guarding
    both endpoints of a maximum matching), so failing that bound raises an
    integrity error.
    """
    comps = connected_components(g)
    largest = max((len(c) for c in comps), default=0)
    subs = [g.induced(comp) for comp in comps]
    cover_numbers = [mvc_mask(sub, sub.full_mask) for sub in subs]
    total = 0
    per_component = []
    outcomes: dict[int, bool] = {}
    for i, (comp, sub, k0) in enumerate(zip(comps, subs, cover_numbers)):
        if sub.n == 1 or sub.m == 0:
            per_component.append(
                {"vertices": list(g.labels_of(comp)), "mvc": 0, "evc": 0}
            )
            continue
        try:
            value = _component_evc(sub, k0, budget)
        except ResourceLimitError as exc:
            # solved components are exact, this one lies in its own bracket,
            # and each unsolved one in [mvc, 2*mvc]
            lo, hi = exc.bracket
            rest = sum(cover_numbers[i + 1 :])
            exc.bracket = (total + lo + rest, total + hi + 2 * rest)
            raise
        total += value
        per_component.append(
            {"vertices": list(g.labels_of(comp)), "mvc": k0, "evc": value}
        )
        if sub.n == largest:
            outcomes = {k: k == value for k in range(k0, value + 1)}
    return EvcResult(
        value=total,
        mvc=sum(cover_numbers),
        per_component=per_component,
        outcomes=outcomes,
    )


# -- interactive session -----------------------------------------------------


def play_session(g: Graph, k: int, in_stream, out_stream) -> list[dict]:
    """Line-oriented attacker REPL over the solved strategy.

    Commands: ``attack U V``, ``hint``, ``quit``.  Returns the event log;
    every defense event re-validates during the session.
    """
    outcome = solve_guard_game(g, k)
    events: list[dict] = []

    def say(line: str) -> None:
        out_stream.write(line + "\n")

    def show_guards(counts: Counts) -> None:
        labels = []
        for v in range(g.n):
            labels.extend([g.labels[v]] * counts[v])
        say("guards: " + " ".join(labels))

    if outcome.defender_wins:
        current = outcome.survivors[0]
        say(f"(defender holds with {k} guards)")
    elif outcome.states:
        # every state is removed; the first one removed last holds out longest
        current = max(outcome.states, key=outcome.ranks.__getitem__)
        say(f"warning: the defender cannot hold with {k} guards")
    else:
        say(f"no cover-supported placement of {k} guards exists; "
            "the attacker wins immediately")
        events.append({"event": "immediate_loss", "k": k})
        return events
    show_guards(current)
    events.append({"event": "start", "guards": current, "winning": outcome.defender_wins})

    while True:
        out_stream.write("> ")
        try:
            out_stream.flush()
        except AttributeError:
            pass
        line = in_stream.readline()
        if not line:
            break
        tokens = line.split()
        if not tokens:
            continue
        cmd = tokens[0].lower()
        if cmd == "quit":
            say("bye")
            events.append({"event": "quit"})
            break
        if cmd == "hint":
            # a winning defender stands on a survivor, which answers every
            # attack; a losing one answers only the swaps
            wins = [
                (a, b)
                for a, b in g.edges
                if not outcome.defender_wins and not (current[a] and current[b])
            ]
            if wins:
                say(
                    "winning attacks: "
                    + ", ".join(f"{g.labels[a]} {g.labels[b]}" for a, b in wins)
                )
            else:
                say("winning attacks: none")
            events.append({"event": "hint", "attacks": wins})
            continue
        if cmd == "attack" and len(tokens) == 3:
            try:
                a = g.index(tokens[1])
                b = g.index(tokens[2])
            except ValidationError:
                say(f"unknown vertex in: {tokens[1]} {tokens[2]}")
                continue
            if not g.has_edge(a, b):
                say(f"not an edge: {tokens[1]} {tokens[2]}")
                continue
            if current[a] == 0 and current[b] == 0:
                say(f"attacker wins: edge {tokens[1]} {tokens[2]} is unguarded")
                events.append({"event": "attacker_win", "edge": (a, b)})
                break
            if current[a] and current[b]:
                say(f"defense: swap {tokens[1]} <-> {tokens[2]}")
                show_guards(current)
                events.append(
                    {"event": "swap", "edge": (a, b), "guards": current}
                )
                continue
            response = _best_response(g, outcome, current, (a, b))
            if response is None:
                # forced crossing into a non-cover position
                u, v = (a, b) if current[a] else (b, a)
                nxt = list(current)
                nxt[u] -= 1
                nxt[v] += 1
                nxt = tuple(nxt)
                say(f"defense: {g.labels[u]}->{g.labels[v]}")
                show_guards(nxt)
                events.append(
                    {
                        "event": "defense",
                        "edge": (a, b),
                        "moves": ((u, v),),
                        "guards": nxt,
                        "cover": False,
                    }
                )
                current = nxt
                continue
            target, moves = response
            validated = replay_moves(g, current, moves)
            if validated != target:
                raise IntegrityError("session defense failed replay validation")
            say(
                "defense: "
                + " ".join(f"{g.labels[x]}->{g.labels[y]}" for x, y in moves)
            )
            show_guards(target)
            events.append(
                {
                    "event": "defense",
                    "edge": (a, b),
                    "moves": moves,
                    "guards": target,
                    "cover": True,
                }
            )
            current = target
            continue
        say(f"cannot parse command: {line.strip()}")
    return events

