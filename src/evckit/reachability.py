"""Guard configurations and one-step reachability.

Configuration c1 can become c2 in one step when every guard of c1 stays or
moves to a neighbour and the guards land exactly on c2.  That is a transport
question on closed neighbourhoods, answered by one guard-to-slot matching
(:func:`_route`); the matching doubles as the move list.  Callers that ask
many pairs first compare supports (:func:`_support_masks`), a necessary
condition that rejects a pair without routing.  A defense's witness, its
guard paths, is ``defense.GuardPaths``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import PreconditionError
from .graph import Graph, bits, mask_of


@dataclass(frozen=True)
class GuardConfiguration:
    """Multiset of guard positions: counts[v] guards stand on vertex v."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise PreconditionError("guard counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.counts) if c)

    @property
    def support_mask(self) -> int:
        return mask_of(self.support)

    @staticmethod
    def from_vertices(g: Graph, vertices: Iterable[int]) -> "GuardConfiguration":
        counts = [0] * g.n
        for v in vertices:
            counts[v] += 1
        return GuardConfiguration(tuple(counts))


def _closed_neighbourhoods(g: Graph) -> tuple[tuple[int, ...], ...]:
    got = g._memo.get("closed_neighbourhoods")
    if got is None:
        got = tuple(
            tuple(sorted((v,) + g.adjacency[v])) for v in range(g.n)
        )
        g._memo["closed_neighbourhoods"] = got
    return got


def _route(
    g: Graph, c1: tuple[int, ...], c2: tuple[int, ...]
) -> dict[tuple[int, int], int] | None:
    """Send every guard of ``c1`` to a slot of ``c2`` inside its closed
    neighbourhood; return ``{(x, w): guards moving x -> w}`` for x != w, or
    None when no such routing exists.

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
    g: Graph, c1: GuardConfiguration, c2: GuardConfiguration
) -> tuple[bool, tuple[tuple[int, int], ...] | None]:
    """One-step reachability with its witness: ``(ok, moves)`` where
    ``moves`` is the sorted tuple of guard moves ``(x, w)`` with x != w
    (stationary guards are omitted), or None when c2 is out of reach."""
    if c1.total != c2.total:
        raise PreconditionError("configurations must have equal guard totals")
    routed = _route(g, c1.counts, c2.counts)
    if routed is None:
        return False, None
    return True, tuple(
        sorted(move for move, c in routed.items() for _ in range(c))
    )


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


def move_feasible_counts(g: Graph, c1: tuple[int, ...], c2: tuple[int, ...]) -> bool:
    """Can the guards at count vector ``c1`` reach ``c2`` in one
    simultaneous step (each guard staying or moving to a neighbour)?"""
    return _route(g, c1, c2) is not None


def min_covers_compatible_check(g: Graph) -> dict:
    """Every pair of minimum covers must admit a perfect matching between the
    difference sides (length-1 disjoint paths); a counterexample would signal
    an implementation bug upstream."""
    from .covers import enumerate_min_vcs
    from .matching import hopcroft_karp

    cs = enumerate_min_vcs(g)
    failures = []
    pairs = 0
    for i in range(len(cs.covers)):
        for j in range(i + 1, len(cs.covers)):
            pairs += 1
            m1, m2 = mask_of(cs.covers[i]), mask_of(cs.covers[j])
            t1 = tuple(bits(m1 & ~m2))
            t2mask = m2 & ~m1
            adj = {a: tuple(bits(g.adj_mask[a] & t2mask)) for a in t1}
            matched = hopcroft_karp(t1, adj)
            if len(matched) != len(t1):
                failures.append((cs.covers[i], cs.covers[j]))
    return {
        "cover_count": len(cs.covers),
        "truncated": cs.truncated,
        "pairs_checked": pairs,
        "all_compatible": not failures,
        "failures": failures,
    }
