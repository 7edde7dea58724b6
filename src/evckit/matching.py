"""Maximum matchings, the pairs that lie in some perfect matching, and
Hall-condition machinery.

Matching sizes come from augmenting-path search with blossom contraction,
on every graph; the bipartite questions (Hall's condition, the elementary
test, the defense scan's pair matchings) use layered (Hopcroft-Karp)
augmentation.  Given one matching, ``alternating_tree`` is the one search
behind every perfect-matching question: Hall's deficient set, the
elementary test's edges and tight set, and the defense scan's yes/no
answers and witnesses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import PreconditionError
from .graph import Graph, OddCycle, bipartition, bits, is_connected, mask_of

Matching = tuple[tuple[int, int], ...]



def canonical_matching(pairs) -> Matching:
    return tuple(sorted((u, v) if u < v else (v, u) for u, v in pairs))


# -- general matching: blossom contraction --------------------------------


def _blossom_matching(n: int, adjacency) -> list[int]:
    """Maximum matching on a general graph; returns the partner array.

    Classic O(V^3) scheme: BFS an alternating forest from each free vertex,
    contracting odd cycles (blossoms) via base[] relabeling.
    """
    match = [-1] * n
    # greedy seed keeps augmentation rounds short and is order-deterministic
    for v in range(n):
        if match[v] == -1:
            for w in adjacency[v]:
                if match[w] == -1:
                    match[v] = w
                    match[w] = v
                    break

    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    blossom = [False] * n

    def lca(a: int, b: int) -> int:
        used2 = [False] * n
        while True:
            a = base[a]
            used2[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if used2[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        for i in range(n):
            used[i] = False
            p[i] = -1
            base[i] = i
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adjacency[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, curbase, to)
                    mark_path(to, curbase, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_path(v)
    return match


def _mm_size_mask(g: Graph, mask: int) -> int:
    """Maximum matching size of the subgraph induced by ``mask`` (blossom)."""
    memo = g._memo.setdefault("mm_mask", {})
    got = memo.get(mask)
    if got is not None:
        return got
    verts = list(bits(mask))
    remap = {v: i for i, v in enumerate(verts)}
    adjacency = [
        [remap[w] for w in g.adjacency[v] if mask >> w & 1] for v in verts
    ]
    match = _blossom_matching(len(verts), adjacency)
    size = sum(1 for i, w in enumerate(match) if w > i)
    memo[mask] = size
    return size


# -- bipartite matching: Hopcroft-Karp -------------------------------------

_INF = float("inf")


def hopcroft_karp(lefts, adjacency: dict[int, tuple[int, ...]]) -> dict[int, int]:
    """Maximum matching of a bipartite graph, as a left->right map.

    ``adjacency`` maps each left vertex to its right neighbors; iteration
    order is made deterministic by sorting both sides.
    """
    lefts = sorted(lefts)
    pair_l: dict[int, int] = {}
    pair_r: dict[int, int] = {}
    dist: dict[int, float] = {}

    def bfs() -> bool:
        q = deque()
        for u in lefts:
            if u not in pair_l:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = _INF
        found = False
        while q:
            u = q.popleft()
            for w in adjacency.get(u, ()):
                nxt = pair_r.get(w)
                if nxt is None:
                    found = True
                elif dist[nxt] == _INF:
                    dist[nxt] = dist[u] + 1
                    q.append(nxt)
        return found

    def dfs(u: int) -> bool:
        for w in adjacency.get(u, ()):
            nxt = pair_r.get(w)
            if nxt is None or (dist[nxt] == dist[u] + 1 and dfs(nxt)):
                pair_l[u] = w
                pair_r[w] = u
                return True
        dist[u] = _INF
        return False

    while bfs():
        for u in lefts:
            if u not in pair_l:
                dfs(u)
    return pair_l


def alternating_tree(
    adjacency: dict[int, tuple[int, ...]], partner: dict[int, int], start: int
) -> dict[int, int | None]:
    """Breadth-first search over left vertices in the alternating digraph
    u -> partner[w] for each right neighbour w of u (neighbours ascending).

    Returns each left vertex reachable from ``start`` mapped to the vertex it
    was first reached from (``start`` to None), in discovery order.
    ``partner`` maps right vertices to their matched left vertices; every
    right vertex met must be matched, as it is under a perfect matching, or
    under a maximum one when ``start`` is free.

    Under a perfect matching pm of ``adjacency``, the tree from a is the
    least X containing a with |N(X)| = |X| (N(X) is pm(X)), and a pair (u, w)
    lies in some perfect matching iff u is in the tree from partner[w]: pm
    holds it (u is the root) or the arc u -> partner[w] closes an alternating
    cycle (Lovasz and Plummer, *Matching Theory*, 1986).
    """
    parent: dict[int, int | None] = {start: None}
    queue = [start]
    for u in queue:
        for w in adjacency[u]:
            b = partner[w]
            if b not in parent:
                parent[b] = u
                queue.append(b)
    return parent


def _crossing_adjacency(g: Graph, side_a, side_b) -> dict[int, tuple[int, ...]]:
    bmask = mask_of(side_b)
    return {a: tuple(bits(g.adj_mask[a] & bmask)) for a in side_a}


# -- public operations ------------------------------------------------------


def max_matching_size(g: Graph) -> int:
    """Maximum matching size of ``g`` (blossom), kept in ``g._memo``."""
    return _mm_size_mask(g, g.full_mask)


def max_matching(g: Graph) -> Matching:
    """A maximum matching, canonicalized to the lexicographically smallest
    sorted pair list among all maximum matchings (deterministic certificates).
    """
    target = max_matching_size(g)
    chosen: list[tuple[int, int]] = []
    used = 0
    if target == 0:
        return ()
    for u, v in g.edges:
        if used >> u & 1 or used >> v & 1:
            continue
        rest = g.full_mask & ~used & ~(1 << u) & ~(1 << v)
        if len(chosen) + 1 + _mm_size_mask(g, rest) == target:
            chosen.append((u, v))
            used |= (1 << u) | (1 << v)
            if len(chosen) == target:
                break
    return tuple(chosen)


@dataclass(frozen=True)
class HallWitness:
    """A set X of sources with N(X): deficient or, in an elementary witness, tight."""

    violator: tuple[int, ...]
    neighborhood: tuple[int, ...]


def _check_hall_preconditions(g: Graph, sources, targets) -> None:
    smask, tmask = mask_of(sources), mask_of(targets)
    if smask & tmask:
        raise PreconditionError("sources and targets must be disjoint")
    for s in sources:
        if g.adj_mask[s] & smask:
            raise PreconditionError("sources must be an independent set")
        if g.adj_mask[s] & ~tmask:
            raise PreconditionError("all neighbors of sources must lie in targets")


def hall_check(g: Graph, sources, targets):
    """Either a matching saturating ``sources`` into ``targets``, or an
    inclusion-wise minimal deficient :class:`HallWitness`: the alternating
    tree X of the first free source under a maximum matching pm, with
    N(X) = pm(X - free).

    X is minimal.  A deficient Y inside X holds the free source, since pm
    saturates the rest; so N(Y) = pm(Y - free), each tree step from Y stays
    in Y, and Y = X.
    """
    sources = tuple(sorted(sources))
    targets = tuple(sorted(targets))
    _check_hall_preconditions(g, sources, targets)
    adj = _crossing_adjacency(g, sources, targets)
    pair = hopcroft_karp(sources, adj)
    if len(pair) == len(sources):
        return canonical_matching(pair.items())
    free = next(u for u in sources if u not in pair)
    back = {w: u for u, w in pair.items()}
    violator = alternating_tree(adj, back, free)
    return HallWitness(
        violator=tuple(sorted(violator)),
        neighborhood=tuple(sorted(pair[u] for u in violator if u != free)),
    )


@dataclass(frozen=True)
class ElementaryWitness:
    """Evidence that a connected bipartite graph is not elementary."""

    edge: tuple[int, int]  # an edge in no perfect matching
    tight_set: HallWitness | None = None
    deficiency: HallWitness | None = None


def is_elementary(g: Graph) -> tuple[bool, ElementaryWitness | None]:
    """True iff every edge of the connected bipartite graph ``g`` lies in some
    perfect matching (equivalently: its only minimum vertex covers are the two
    sides of the bipartition).
    """
    if not is_connected(g):
        raise PreconditionError("is_elementary requires a connected graph")
    res = bipartition(g)
    if isinstance(res, OddCycle):
        raise PreconditionError("is_elementary requires a bipartite graph")
    side_a, side_b = res
    if g.m == 0:
        return True, None  # a connected edgeless graph is one vertex
    saturating = hall_check(g, side_a, side_b)
    deficient = isinstance(saturating, HallWitness)
    if deficient or len(side_a) != len(side_b):
        # no perfect matching: no edge lies in one
        return False, ElementaryWitness(
            edge=g.edges[0], deficiency=saturating if deficient else None
        )
    in_a = set(side_a)
    adj = _crossing_adjacency(g, side_a, side_b)
    pm = dict((x, y) if x in in_a else (y, x) for x, y in saturating)
    back = {y: x for x, y in pm.items()}
    trees: dict[int, dict[int, int | None]] = {}

    def tree(a: int) -> dict[int, int | None]:
        if a not in trees:
            trees[a] = alternating_tree(adj, back, a)
        return trees[a]

    for e in g.edges:
        x, y = e if e[0] in in_a else e[::-1]
        if x not in tree(back[y]):
            # that tree is proper; the first proper tree is the tight set
            tight = tree(next(a for a in side_a if len(tree(a)) < len(side_a)))
            return False, ElementaryWitness(
                edge=e,
                tight_set=HallWitness(
                    violator=tuple(sorted(tight)),
                    neighborhood=tuple(sorted(pm[a] for a in tight)),
                ),
            )
    return True, None


def is_essentially_elementary(g: Graph) -> bool:
    """Every connected component elementary (components must be bipartite)."""
    from .graph import connected_components

    return all(is_elementary(g.induced(comp))[0] for comp in connected_components(g))
