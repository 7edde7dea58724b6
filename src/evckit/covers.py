"""Exact minimum vertex covers and the guard configurations that vertex
covers support.

``mvc_mask`` finds the cover number by branch-and-bound on the
maximum-degree vertex with a matching-based lower bound.  Every list of
covers comes from one enumerator, ``_covers_between``, which branches on
independent sets and returns their complements in ascending mask order, so
its cost follows the number of covers: all minimum covers (the fixpoint
decider needs the full candidate universe), the first minimum cover that
contains a given vertex, and the covers of every size up to k that the game
solver's states stand on and the strongly-good check fills.  A cap guards
against exponential minimum-cover counts; a truncated list keeps the covers
with the smallest masks.
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


def _max_degree_vertex(g: Graph, mask: int) -> int:
    adj = g.adj_mask
    best_v = -1
    best_d = 0
    for v in bits(mask):
        d = (adj[v] & mask).bit_count()
        if d > best_d:
            best_d = d
            best_v = v
    return best_v  # -1 when the induced graph has no edges


def mvc_mask(g: Graph, mask: int) -> int:
    """Minimum vertex cover size of the subgraph induced by ``mask``."""
    memo = g._memo.setdefault("mvc_mask", {})
    got = memo.get(mask)
    if got is not None:
        return got

    best = mask.bit_count()

    def branch(m: int, current: int) -> None:
        nonlocal best
        v = _max_degree_vertex(g, m)
        if v < 0:
            if current < best:
                best = current
            return
        if current + _greedy_matching_lb(g, m) >= best:
            return
        branch(m ^ (1 << v), current + 1)
        nb = g.adj_mask[v] & m
        branch(m & ~((1 << v) | nb), current + nb.bit_count())

    branch(mask, 0)
    memo[mask] = best
    return best


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
    found = _covers_between(g, g.full_mask & ~forced, size, size, limit=1)
    return tuple(bits(found[0] | forced)) if found else None


def enumerate_min_vcs(g: Graph, cap: int = DEFAULT_COVER_CAP) -> CoverSet:
    """All minimum vertex covers, lexicographic, up to ``cap``; memoized in
    ``g._memo`` per cap (a ``CoverSet`` is immutable).  A truncated list
    keeps the ``cap`` covers with the smallest vertex masks."""
    if cap < 1:
        raise PreconditionError("cap must be at least 1")
    memo = g._memo.setdefault("min_vcs", {})
    if cap not in memo:
        k = mvc_mask(g, g.full_mask)
        found = _covers_between(g, g.full_mask, k, k, limit=cap + 1)
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


def enumerate_covers_up_to(g: Graph, k: int, within: int | None = None) -> list[int]:
    """All vertex covers (not only minimal ones) of size at most ``k`` of the
    subgraph induced by the vertex mask ``within`` (default: every vertex),
    as masks of ``g`` in ascending order.

    Each cover is the complement in ``within`` of an independent set, so
    ``_covers_between`` branches on independent sets and its work follows
    the number of covers, not the 2^n subsets.  Refused above 20 vertices,
    which caps the game solver's state spaces.  ``g._memo`` keeps, per
    ``within``, the largest size enumerated and the covers found, so a
    rising k enumerates only the new sizes.
    """
    if within is None:
        within = g.full_mask
    width = within.bit_count()
    if width > 20:
        raise PreconditionError("cover scan capped at 20 vertices")
    k = min(k, width)
    memo = g._memo.setdefault("covers_up_to", {})
    done, covers = memo.get(within, (-1, []))
    if done < k:
        # both runs are ascending, so the sort is a linear merge
        done, covers = k, sorted(covers + _covers_between(g, within, done + 1, k))
        memo[within] = (done, covers)
    if k == done:
        return list(covers)
    return [mask for mask in covers if mask.bit_count() <= k]


def _covers_between(
    g: Graph, within: int, lo: int, hi: int, limit: int | None = None
) -> list[int]:
    """The first ``limit`` (default: all) covers C of the subgraph induced by
    ``within`` with lo <= |C| <= hi, ascending, as complements of its
    independent sets.

    Depth first on the highest candidate vertex, taking it (and dropping its
    neighbours) before skipping it, lists the independent sets in descending
    mask order, hence their complements in ascending order.  A branch ends
    when it cannot reach ``width - hi`` vertices, and takes no vertex once
    it holds ``width - lo`` (a larger set gives a smaller cover).  An
    independent set of the candidates leaves out one end of every edge of a
    greedy matching among them, which bounds the branch from above.
    """
    adj = g.adj_mask
    width = within.bit_count()
    need = width - hi
    room = width - lo
    found: list[int] = []
    # (independent set, candidates, its size); a negative hi admits no cover
    stack = [(0, within, 0)] if hi >= 0 else []
    while stack:
        ind, cand, size = stack.pop()
        if not cand or size == room:
            found.append(within ^ ind)
            if len(found) == limit:
                break
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
    return found


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
