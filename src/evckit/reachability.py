"""Guard configurations as count vectors, and one-step reachability.

A guard configuration is a count vector: a tuple with one whole number of at
least 0 per vertex, the guards standing there (:func:`counts_of` builds one
from a list of vertices).  Configuration c1 can become c2 in one step when
every guard of c1 stays or moves to a neighbour and the guards land exactly
on c2.  That is a transport question on closed neighbourhoods, answered by
one guard-to-slot matching (:func:`_route`); the matching doubles as the
move list.  A move list is the sorted tuple of ``(x, w)`` pairs, one per
guard moving from x to its neighbour w, with stationary guards left out:
:func:`compatible_configs` returns one and :func:`replay_moves` applies
one.

:func:`move_feasible_counts` answers the same question as a bool for the
loops that ask many pairs; they first compare supports
(:func:`_support_masks`), a necessary condition that rejects a pair without
routing.  It takes two count vectors, or two vertex masks when both
configurations hold at most one guard per vertex: the game solver passes
masks for such residuals (every one of the one-per-vertex game, and those of
the multiset game whose support has k - 1 vertices), and goodness passes
count vectors.  A mask pair is matched on closed-neighbourhood masks
(:func:`_match_masks`) in the order :func:`_route` searches, without building
a count vector or a flow table.  :func:`compatible_configs` keeps
:func:`_route`: its flow table is the move list, and the ``play`` session
prints that list, so the routing order is part of the output.  A defense's
witness, its guard paths, is ``defense.GuardPaths``.
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


def _closed_neighbourhoods(g: Graph) -> tuple[tuple[int, ...], ...]:
    got = g._memo.get("closed_neighbourhoods")
    if got is None:
        got = tuple(
            tuple(sorted((v,) + g.adjacency[v])) for v in range(g.n)
        )
        g._memo["closed_neighbourhoods"] = got
    return got


def _closed_masks(g: Graph) -> tuple[int, ...]:
    """Each vertex's closed neighbourhood as a mask."""
    got = g._memo.get("closed_masks")
    if got is None:
        got = g._memo["closed_masks"] = tuple(
            1 << v | g.adj_mask[v] for v in range(g.n)
        )
    return got


def _route(
    g: Graph, c1: tuple[int, ...], c2: tuple[int, ...]
) -> dict[tuple[int, int], int] | None:
    """Send every guard of ``c1`` to a slot of ``c2`` inside its closed
    neighbourhood; return ``{(x, w): guards moving x -> w}`` for x != w, or
    None when no such routing exists (as when the totals differ).

    Guards on a vertex both configurations occupy start in place.  Each
    surplus guard then takes a BFS-shortest augmenting path (neighbours in
    ascending order) that may push already-placed guards to other slots.  A
    guard that finds no path proves that no complete routing exists, so the
    answer is exact: it agrees with Hall's condition on the transport graph.
    """
    if sum(c1) != sum(c2):
        return None
    closed = _closed_neighbourhoods(g)
    n = g.n
    # flow[(x, w)]: guards from x assigned to slot w (stationary ones too)
    flow: dict[tuple[int, int], int] = {}
    free = [0] * n
    surplus = []
    for v in range(n):
        a, b = c1[v], c2[v]
        if a and b:
            flow[(v, v)] = min(a, b)
        if b > a:
            free[v] = b - a
        elif a > b:
            surplus.extend([v] * (a - b))
    for x in surplus:
        # left side: guard origins; right side: slots
        reached_via = {x: -1}  # origin -> slot it can give up
        slot_parent: dict[int, int] = {}  # slot -> origin that can take it
        queue = [x]
        end = -1
        for y in queue:
            for w in closed[y]:
                if w in slot_parent:
                    continue
                slot_parent[w] = y
                if free[w]:
                    end = w
                    break
                for z in closed[w]:
                    if z not in reached_via and flow.get((z, w)):
                        reached_via[z] = w
                        queue.append(z)
            if end >= 0:
                break
        if end < 0:
            return None
        free[end] -= 1
        w = end
        while w >= 0:
            y = slot_parent[w]
            flow[(y, w)] = flow.get((y, w), 0) + 1
            w = reached_via[y]
            if w >= 0:
                flow[(y, w)] -= 1
    return {(x, w): c for (x, w), c in flow.items() if x != w and c}


def compatible_configs(
    g: Graph, c1: tuple[int, ...], c2: tuple[int, ...]
) -> tuple[tuple[int, int], ...] | None:
    """The moves that take the guards at count vector ``c1`` to ``c2`` in
    one step, as a move list, or None when ``c2`` is out of reach."""
    routed = _route(g, c1, c2)
    if routed is None:
        return None
    return tuple(sorted(move for move, c in routed.items() for _ in range(c)))


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


def _match_masks(g: Graph, support1: int, support2: int) -> bool:
    """:func:`_route` for one guard per vertex: can the guards on
    ``support1`` land one each on ``support2``?

    A guard on a vertex of both starts in place; ``placed`` records the
    origin of every other occupied slot.  Each surplus guard, lowest vertex
    first, takes a BFS-shortest augmenting path whose slots are scanned in
    ascending order, as in :func:`_route`."""
    if support1.bit_count() != support2.bit_count():
        return False
    closed = _closed_masks(g)
    free = support2 & ~support1
    surplus = support1 & ~support2
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
            fresh = closed[y] & support2 & ~seen
            hit = fresh & free
            if hit:
                end = (hit & -hit).bit_length() - 1
                slot_parent[end] = y
                break
            seen |= fresh
            while fresh:
                w = (fresh & -fresh).bit_length() - 1
                fresh &= fresh - 1
                slot_parent[w] = y
                z = placed.get(w, w)
                if z not in reached_via:
                    reached_via[z] = w
                    queue.append(z)
        if end < 0:
            return False
        free ^= 1 << end
        w = end
        while w >= 0:
            y = placed[w] = slot_parent[w]
            w = reached_via[y]
    return True


def move_feasible_counts(
    g: Graph, c1: tuple[int, ...] | int, c2: tuple[int, ...] | int
) -> bool:
    """Can the guards at ``c1`` reach ``c2`` in one simultaneous step (each
    guard staying or moving to a neighbour)?  Both are count vectors, or both
    are vertex masks of one guard per vertex."""
    if isinstance(c1, int):
        return _match_masks(g, c1, c2)
    return _route(g, c1, c2) is not None


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
