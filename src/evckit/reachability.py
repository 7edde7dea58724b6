"""Guard configurations as count vectors, and one-step reachability.

A guard configuration is a count vector: a tuple with one whole number of at
least 0 per vertex, the guards standing there (:func:`counts_of` builds one
from a list of vertices).  Configuration c1 can become c2 in one step when
every guard of c1 stays or moves to a neighbour and the guards land exactly
on c2.  That is a transport question on closed neighbourhoods (Gale, 1957),
and one router answers it (:func:`_assign`).  The router works on slot
masks: with L slots per vertex, vertex v owns bits v*L .. v*L + L - 1, and
c guards on v fill its lowest c slots (:func:`layered`); at L = 1 a slot
mask is a vertex mask.  It sends every guard to a slot inside its closed
neighbourhood and returns where each moved guard came from.

:func:`compatible_configs` reads a move list off that assignment: the
sorted tuple of ``(x, w)`` pairs, one per guard moving from x to its
neighbour w, with stationary guards left out; :func:`replay_moves` applies
one.  :func:`move_feasible_counts` answers the same question as a bool for
the loops that ask many pairs; it takes two count vectors, or two slot
masks with their L.  The game solver keeps every state as a slot mask and
first compares supports (:func:`_support_masks`), a necessary condition
that rejects a pair without routing.  Goodness asks the router a looser
question (:func:`fills`): can every vertex of a cover take its own guard
from its closed neighbourhood, the other guards standing still.  A
defense's witness, its guard paths, is ``defense.GuardPaths``.
"""

from __future__ import annotations

from typing import Iterable

from .errors import IntegrityError
from .graph import Graph


def counts_of(g: Graph, vertices: Iterable[int]) -> tuple[int, ...]:
    """The count vector of guards standing on ``vertices``; a repeated
    vertex holds one guard per repeat."""
    counts = [0] * g.n
    for v in vertices:
        counts[v] += 1
    return tuple(counts)


def layered(counts: tuple[int, ...], slots: int) -> int:
    """The slot mask of ``counts`` with ``slots`` slots per vertex: the c
    guards on v fill bits v*slots .. v*slots + c - 1."""
    mask = 0
    for v, c in enumerate(counts):
        if c:
            mask |= ((1 << c) - 1) << v * slots
    return mask


def _closed_slots(g: Graph, slots: int) -> tuple[int, ...]:
    """Per slot, the closed neighbourhood of its vertex with every slot of
    each vertex in it, memoized per slot count."""
    key = ("closed_slots", slots)
    got = g._memo.get(key)
    if got is None:
        group = (1 << slots) - 1
        spread = [
            sum(group << w * slots for w in (v,) + g.adjacency[v])
            for v in range(g.n)
        ]
        got = g._memo[key] = tuple(spread[y // slots] for y in range(g.n * slots))
    return got


def _assign(g: Graph, s1: int, s2: int, slots: int) -> dict[int, int] | None:
    """Send every guard of slot mask ``s1`` to a slot of ``s2`` inside its
    closed neighbourhood, no two to one slot; return ``{slot: origin slot}``
    for the slots whose guard came from another slot, or None when no such
    routing exists.  A move check first compares the guard counts; with
    more slots in ``s2`` than guards in ``s1`` some slots stay empty.

    A guard on a slot of both starts in place.  Each surplus guard, lowest
    slot first, then takes a BFS-shortest augmenting path (slots scanned in
    ascending order) that may push placed guards to other slots.  A guard
    that finds no path proves that no complete routing exists, so the answer
    is exact: it agrees with Hall's condition on the transport graph.  The
    guards on one vertex's slots join the search in ascending order of their
    origins, so the vertices each guard moves between do not depend on which
    slot of a vertex it holds.
    """
    # the memo read inline, as this runs once per move check
    closed = g._memo.get(("closed_slots", slots)) or _closed_slots(g, slots)
    free = s2 & ~s1
    surplus = s1 & ~s2
    placed: dict[int, int] = {}  # slot -> origin of the guard there, if moved
    while surplus:
        x = (surplus & -surplus).bit_length() - 1
        surplus &= surplus - 1
        reached_via = {x: -1}  # origin -> slot it can give up
        slot_parent: dict[int, int] = {}  # slot -> origin that can take it
        seen = 0
        queue = [x]
        end = -1
        for y in queue:
            fresh = closed[y] & s2 & ~seen
            hit = fresh & free
            if hit:
                end = (hit & -hit).bit_length() - 1
                slot_parent[end] = y
                break
            seen |= fresh
            if slots == 1:  # one guard per vertex, so no order to fix
                while fresh:
                    w = (fresh & -fresh).bit_length() - 1
                    fresh &= fresh - 1
                    slot_parent[w] = y
                    z = placed.get(w, w)
                    if z not in reached_via:
                        reached_via[z] = w
                        queue.append(z)
                continue
            group = (1 << slots) - 1
            while fresh:
                first = (fresh & -fresh).bit_length() - 1
                mine = fresh & group << first - first % slots  # first's vertex
                fresh ^= mine
                held = []
                while mine:
                    w = (mine & -mine).bit_length() - 1
                    mine &= mine - 1
                    slot_parent[w] = y
                    held.append((placed.get(w, w), w))
                for z, w in sorted(held):
                    if z not in reached_via:
                        reached_via[z] = w
                        queue.append(z)
        if end < 0:
            return None
        free ^= 1 << end
        w = end
        while w >= 0:
            y = placed[w] = slot_parent[w]
            w = reached_via[y]
    return placed


def compatible_configs(
    g: Graph, c1: tuple[int, ...], c2: tuple[int, ...]
) -> tuple[tuple[int, int], ...] | None:
    """The moves that take the guards at count vector ``c1`` to ``c2`` in
    one step, as a move list, or None when ``c2`` is out of reach."""
    slots = max((*c1, *c2, 1))
    s1, s2 = layered(c1, slots), layered(c2, slots)
    if s1.bit_count() != s2.bit_count():
        return None
    placed = _assign(g, s1, s2, slots)
    if placed is None:
        return None
    moves = ((z // slots, w // slots) for w, z in placed.items())
    return tuple(sorted(move for move in moves if move[0] != move[1]))


def _support_masks(g: Graph, counts: tuple[int, ...]) -> tuple[int, int]:
    """The support of ``counts`` and its closed neighbourhood, as masks.

    c1 can reach c2 in one step only if each support lies in the other's
    closed neighbourhood: every guard stays or moves to a neighbour, and
    every guard of c2 comes from one of c1."""
    support = near = 0
    for v, c in enumerate(counts):
        if c:
            support |= 1 << v
            near |= (1 << v) | g.adj_mask[v]
    return support, near


def move_feasible_counts(
    g: Graph, c1: tuple[int, ...] | int, c2: tuple[int, ...] | int, slots: int = 0
) -> bool:
    """Can the guards at ``c1`` reach ``c2`` in one simultaneous step (each
    guard staying or moving to a neighbour)?  Both are count vectors (with
    ``slots`` 0), or both are slot masks with ``slots`` slots per vertex."""
    if not slots:
        slots = max((*c1, *c2, 1))
        c1, c2 = layered(c1, slots), layered(c2, slots)
    return c1.bit_count() == c2.bit_count() and _assign(g, c1, c2, slots) is not None


def fills(g: Graph, need: int, have: int, slots: int) -> bool:
    """Can every slot of ``need`` take its own guard of the slot mask
    ``have`` from the closed neighbourhood of its vertex, the guards left
    over standing still?  One augmenting-path check (``_assign`` from the
    slots of ``need``, closed neighbourhoods being symmetric); both masks
    have ``slots`` slots per vertex."""
    return _assign(g, need, have, slots) is not None


def replay_moves(
    g: Graph, counts: tuple[int, ...], moves: Iterable[tuple[int, int]]
) -> tuple[int, ...]:
    """The count vector after the guards at ``counts`` make ``moves`` at
    once; raises when a move is not along an edge or more guards leave a
    vertex than stand there."""
    outs = [0] * g.n
    ins = [0] * g.n
    for x, y in moves:
        if not g.has_edge(x, y):
            raise IntegrityError(f"move along non-edge {g.labels[x]} {g.labels[y]}")
        outs[x] += 1
        ins[y] += 1
    result = []
    for w in range(g.n):
        if outs[w] > counts[w]:
            raise IntegrityError(f"more guards leave {g.labels[w]} than stand there")
        result.append(counts[w] - outs[w] + ins[w])
    return tuple(result)
