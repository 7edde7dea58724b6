"""Exact minimum vertex covers: optimum, complete enumeration, per-vertex search,
plus the guard configurations that vertex covers support.

Branch-and-bound on the maximum-degree vertex with a matching-based lower
bound.  Enumeration collects *all* optimal covers (the fixpoint decider needs
the full candidate universe), deduplicated and returned in lexicographic
order; a cap guards against exponential cover counts.  The covers of every
size up to k, which the game solver's states and the strongly-good targets
stand on, are listed as complements of independent sets by branching, so
their cost follows their number.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import PreconditionError
from .graph import Graph, bits, mask_of

DEFAULT_COVER_CAP = 10_000


@dataclass(frozen=True)
class CoverSet:
    size: int
    covers: tuple[tuple[int, ...], ...]
    truncated: bool
    cap: int


def _greedy_matching_lb(g: Graph, mask: int) -> int:
    # any matching size lower-bounds the cover number of the induced graph
    adj = g.adj_mask
    avail = mask
    size = 0
    m = mask
    while m:
        low = m & -m
        m ^= low
        if not avail & low:
            continue
        v = low.bit_length() - 1
        nb = adj[v] & avail & ~low
        if nb:
            w = nb & -nb
            avail &= ~(low | w)
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
    """Exact minimum vertex cover size plus one optimal cover as witness."""
    k = mvc_mask(g, g.full_mask)
    witness = _cover_of_size_containing(g, k, 0)
    assert witness is not None
    return k, witness


def _cover_of_size_containing(g: Graph, k: int, forced_mask: int):
    """First (in deterministic branch order) cover of size exactly k that
    contains ``forced_mask``, or None."""
    if forced_mask.bit_count() > k:
        return None
    found: list[tuple[int, ...]] = []

    def branch(m: int, chosen: int) -> bool:
        size = chosen.bit_count()
        v = _max_degree_vertex(g, m)
        if v < 0:
            # chosen is now a cover containing the forced set, so size >= mvc
            if size == k:
                found.append(tuple(bits(chosen)))
                return True
            return False
        if size + _greedy_matching_lb(g, m) > k:
            return False
        if branch(m ^ (1 << v), chosen | (1 << v)):
            return True
        nb = g.adj_mask[v] & m
        return branch(m & ~((1 << v) | nb), chosen | nb)

    # restrict branching to endpoints of edges the forced set leaves uncovered
    live = 0
    for u, w in g.edges:
        if not (forced_mask >> u & 1) and not (forced_mask >> w & 1):
            live |= (1 << u) | (1 << w)
    branch(live, forced_mask)
    return found[0] if found else None


def enumerate_min_vcs(g: Graph, cap: int = DEFAULT_COVER_CAP) -> CoverSet:
    """All minimum vertex covers, lexicographic, up to ``cap``; memoized in
    ``g._memo`` per cap (a ``CoverSet`` is immutable)."""
    if cap < 1:
        raise PreconditionError("cap must be at least 1")
    memo = g._memo.setdefault("min_vcs", {})
    if cap not in memo:
        memo[cap] = _enumerate_min_vcs(g, cap)
    return memo[cap]


def _enumerate_min_vcs(g: Graph, cap: int) -> CoverSet:
    k = mvc_mask(g, g.full_mask)
    out: set[int] = set()
    overflow = False

    def branch(m: int, chosen: int) -> None:
        nonlocal overflow
        if overflow:
            return
        v = _max_degree_vertex(g, m)
        if v < 0:
            # chosen covers every edge; keep it only when optimal
            if chosen.bit_count() == k:
                out.add(chosen)
                if len(out) > cap:
                    overflow = True
            return
        if chosen.bit_count() + _greedy_matching_lb(g, m) > k:
            return
        branch(m ^ (1 << v), chosen | (1 << v))
        nb = g.adj_mask[v] & m
        branch(m & ~((1 << v) | nb), chosen | nb)

    if g.m == 0:
        return CoverSet(size=0, covers=((),), truncated=False, cap=cap)
    branch(g.full_mask, 0)
    covers = sorted(tuple(bits(c)) for c in out)
    if overflow:
        covers = covers[:cap]
    return CoverSet(size=k, covers=tuple(covers), truncated=overflow, cap=cap)


def min_vc_containing(g: Graph, v: int):
    """Some minimum vertex cover containing ``v``, or None if every minimum
    cover avoids it (a certificate that the graph is not Spartan)."""
    if not 0 <= v < g.n:
        raise PreconditionError(f"vertex index {v} out of range")
    k = mvc_mask(g, g.full_mask)
    return _cover_of_size_containing(g, k, 1 << v)


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


def _covers_between(g: Graph, within: int, lo: int, hi: int) -> list[int]:
    """The covers C of the subgraph induced by ``within`` with
    lo <= |C| <= hi, ascending, as complements of its independent sets.

    Depth first on the highest candidate vertex, taking it (and dropping its
    neighbours) before skipping it, lists the independent sets in descending
    mask order, hence their complements in ascending order.  A branch ends
    when it cannot reach ``width - hi`` vertices, and takes no vertex once
    it holds ``width - lo`` (a larger set gives a smaller cover).
    """
    adj = g.adj_mask
    width = within.bit_count()
    need = width - hi
    room = width - lo
    found: list[int] = []
    stack = [(0, within, 0)]  # (independent set, candidates, its size)
    while stack:
        ind, cand, size = stack.pop()
        if not cand or size == room:
            found.append(within ^ ind)
            continue
        v = cand.bit_length() - 1
        rest = cand ^ (1 << v)
        if size + rest.bit_count() >= need:
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


def brute_force_min_covers(g: Graph) -> tuple[int, list[tuple[int, ...]]]:
    """Subset brute force; test oracle for the branch-and-bound paths."""
    if g.m == 0:
        return 0, [()]
    for size in range(g.n + 1):
        found = []
        for combo in itertools.combinations(range(g.n), size):
            cm = mask_of(combo)
            if all((cm >> u & 1) or (cm >> v & 1) for u, v in g.edges):
                found.append(combo)
        if found:
            return size, found
    raise AssertionError("unreachable")
