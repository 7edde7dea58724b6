"""Exact minimum vertex covers and the guard configurations that vertex
covers support.

One search answers the cover number and every list of covers.
``_covers_between`` branches on independent sets and draws their
complements lazily in ascending mask order, so its cost follows the number
of covers drawn.  The cover number ``mvc_mask`` is the least size, from a
matching lower bound up, at which it draws a cover; the minimum covers (the
fixpoint decider needs the full candidate universe) are its draws at that
size, a minimum cover that contains a given vertex is its first draw on the
rest of the graph, and the covers up to a size, which the game solver's
states stand on and the strongly-good check fills, are its draws over a
range of sizes.  A cap guards against exponential minimum-cover counts; a
truncated list keeps the covers with the smallest masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import PreconditionError
from .graph import Graph, bits

DEFAULT_COVER_CAP = 10_000


@dataclass(frozen=True)
class CoverSet:
    size: int
    covers: tuple[tuple[int, ...], ...]
    truncated: bool
    cap: int


def _greedy_matching_lb(g: Graph, mask: int) -> int:
    """Size of a greedy matching of the subgraph induced by ``mask``, a lower
    bound on its cover number.  Each vertex, from the highest down, takes
    its highest free neighbour: on a tree whose vertices hang from lower
    ones that is the leaf-up greedy, which finds a maximum matching."""
    adj = g.adj_mask
    avail = mask
    size = 0
    while avail:
        v = avail.bit_length() - 1
        avail ^= 1 << v
        nb = adj[v] & avail
        if nb:
            avail ^= 1 << (nb.bit_length() - 1)
            size += 1
    return size


def mvc_mask(g: Graph, mask: int) -> int:
    """Minimum vertex cover size of the subgraph induced by ``mask``: the
    least s, from a greedy matching's size up, at which the cover search
    draws a cover of exactly s vertices.  A matching bounds the cover number
    from below, and any cover pads up to every size s <= |mask|."""
    memo = g._memo.setdefault("mvc_mask", {})
    got = memo.get(mask)
    if got is None:
        got = _greedy_matching_lb(g, mask)
        while next(_covers_between(g, mask, got, got), None) is None:
            got += 1
        memo[mask] = got
    return got


def mvc(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact minimum vertex cover size plus, as witness, the optimal cover
    with the smallest vertex mask."""
    witness = _min_cover_containing(g, 0)
    assert witness is not None
    return len(witness), witness


def _min_cover_containing(g: Graph, forced: int):
    """The minimum cover with the smallest mask among those containing the
    vertex mask ``forced``, or None: ``forced`` plus a cover of G - forced
    of size mvc(G) - |forced|."""
    size = mvc_mask(g, g.full_mask) - forced.bit_count()
    found = next(_covers_between(g, g.full_mask & ~forced, size, size), None)
    return None if found is None else tuple(bits(found | forced))


def enumerate_min_vcs(g: Graph, cap: int = DEFAULT_COVER_CAP) -> CoverSet:
    """All minimum vertex covers, lexicographic, up to ``cap``; memoized in
    ``g._memo`` per cap (a ``CoverSet`` is immutable).  A truncated list
    keeps the ``cap`` covers with the smallest vertex masks."""
    if cap < 1:
        raise PreconditionError("cap must be at least 1")
    memo = g._memo.setdefault("min_vcs", {})
    if cap not in memo:
        k = mvc_mask(g, g.full_mask)
        found = list(itertools.islice(_covers_between(g, g.full_mask, k, k), cap + 1))
        covers = tuple(sorted(tuple(bits(c)) for c in found[:cap]))
        truncated = len(found) > cap
        memo[cap] = CoverSet(size=k, covers=covers, truncated=truncated, cap=cap)
    return memo[cap]


def min_vc_containing(g: Graph, v: int):
    """The minimum vertex cover with the smallest mask among those that
    contain ``v``, or None if every minimum cover avoids it (a certificate
    that the graph is not Spartan)."""
    if not 0 <= v < g.n:
        raise PreconditionError(f"vertex index {v} out of range")
    return _min_cover_containing(g, 1 << v)


def enumerate_covers_up_to(
    g: Graph, k: int, within: int | None = None, least: int = 0
) -> Iterator[int]:
    """The vertex covers (not only minimal ones) of ``least`` to ``k``
    vertices of the subgraph induced by the vertex mask ``within`` (default:
    every vertex), drawn lazily as masks of ``g`` in ascending order.

    Refused above 20 vertices at the call, before any draw, which caps the
    game solver's state spaces.  Nothing is kept between calls: a caller
    that stops early, like the strongly-good check at its first filled
    cover, draws only the covers it reads.
    """
    if within is None:
        within = g.full_mask
    width = within.bit_count()
    if width > 20:
        raise PreconditionError("cover scan capped at 20 vertices")
    return _covers_between(g, within, least, min(k, width))


def _covers_between(g: Graph, within: int, lo: int, hi: int) -> Iterator[int]:
    """The covers C of the subgraph induced by ``within`` with
    lo <= |C| <= hi, drawn lazily in ascending mask order as complements of
    its independent sets; each draw resumes the search where the last one
    stopped.

    Depth first on the highest candidate vertex, taking it (and dropping its
    neighbours) before skipping it, reaches the independent sets in
    descending mask order, hence their complements in ascending order.  A
    branch ends when it cannot reach ``width - hi`` vertices, and takes no
    vertex once it holds ``width - lo`` (a larger set gives a smaller
    cover).  An independent set of the candidates leaves out one end of
    every edge of a greedy matching among them, which bounds the branch from
    above.  Its cost follows the number of covers drawn, not the 2^n
    subsets.
    """
    if hi < 0 or hi < lo:
        return  # no size fits
    adj = g.adj_mask
    width = within.bit_count()
    need = width - hi
    room = width - lo
    # (independent set, candidates, its size)
    stack = [(0, within, 0)]
    while stack:
        ind, cand, size = stack.pop()
        if not cand or size == room:
            yield within ^ ind
            continue
        free = cand.bit_count()
        # a matching has at most free // 2 edges, so the bound can end the
        # branch only when size + ceil(free / 2) falls short of need
        if size + free - free // 2 < need:
            if size + free - _greedy_matching_lb(g, cand) < need:
                continue
        v = cand.bit_length() - 1
        rest = cand ^ (1 << v)
        if size + free - 1 >= need:
            stack.append((ind, rest, size))
        take = rest & ~adj[v]
        if size + 1 + take.bit_count() >= need:
            stack.append((ind | 1 << v, take, size + 1))


def cover_configurations(
    g: Graph, k: int, within: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Every k-guard count vector whose support is a vertex cover of the
    subgraph induced by ``within`` (default: every vertex), over all of
    ``g``'s vertices.

    Covers come in mask order; each takes one guard per support vertex and
    spreads the remaining guards over its support in every possible way.
    """
    for cover_mask in enumerate_covers_up_to(g, k, within):
        support = tuple(bits(cover_mask))
        base = [0] * g.n
        for v in support:
            base[v] = 1
        for extra in itertools.combinations_with_replacement(
            support, k - len(support)
        ):
            counts = base.copy()
            for v in extra:
                counts[v] += 1
            yield tuple(counts)
