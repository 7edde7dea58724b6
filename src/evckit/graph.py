"""Immutable labeled graphs plus the structural queries everything else builds on.

Vertices are identified by label; integer indices follow first-appearance
(definition) order and never leak into reports.  Index sets are passed around
as sorted tuples, and the hot paths work on integer bitmasks.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import GraphFormatError, PreconditionError, ValidationError


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


@dataclass(frozen=True)
class Graph:
    """Simple finite undirected graph with string vertex labels.

    Invariants: no self-loops, no duplicate edges, edges stored canonically
    as ``(u, v)`` with ``u < v`` in ascending order.  Instances are immutable
    (all queries are read-only), so they are safe to share between workers.
    """

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValidationError("vertex labels must be distinct")
        seen = set()
        prev = None
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) references a missing vertex")
            if u == v:
                raise ValidationError(f"self-loop at {self.labels[u]!r}")
            if u > v:
                raise ValidationError("edges must be stored as (u, v) with u < v")
            if (u, v) in seen:
                raise ValidationError(
                    f"duplicate edge {self.labels[u]} {self.labels[v]}"
                )
            if prev is not None and (u, v) < prev:
                raise ValidationError("edges must be sorted")
            seen.add((u, v))
            prev = (u, v)

    # -- basic views ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbr: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbr)

    @cached_property
    def adj_mask(self) -> tuple[int, ...]:
        return tuple(mask_of(ns) for ns in self.adjacency)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def _memo(self) -> dict:
        # scratch cache for per-graph algorithm results (mvc of induced
        # masks, matching sizes, ...); safe because the graph is immutable
        return {}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_mask[u] >> v & 1) if u != v else False

    def index(self, label: str) -> int:
        try:
            return self.label_index[label]
        except KeyError:
            raise ValidationError(f"unknown vertex label {label!r}") from None

    def index_set(self, labels: Iterable[str]) -> tuple[int, ...]:
        return tuple(sorted(self.index(lab) for lab in labels))

    def labels_of(self, indices: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in indices)

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if not self.adjacency[v])

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph induced by ``vertices``; labels are preserved.

        Given every vertex, this returns the graph itself (the same labels
        and edges), so callers share its ``_memo``; any other set yields a
        new graph with an empty memo.
        """
        keep = sorted(set(vertices))
        if keep == list(range(self.n)):
            return self
        remap = {old: new for new, old in enumerate(keep)}
        keep_set = set(keep)
        edges = tuple(
            (remap[u], remap[v])
            for u, v in self.edges
            if u in keep_set and v in keep_set
        )
        return Graph(tuple(self.labels[i] for i in keep), edges)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[str, str]]) -> "Graph":
        """Build a graph from labeled edge pairs in first-appearance order."""
        order: list[str] = []
        index: dict[str, int] = {}

        def intern(lab: str) -> int:
            if lab not in index:
                index[lab] = len(order)
                order.append(lab)
            return index[lab]

        edges = []
        seen = set()
        for a, b in pairs:
            u, v = intern(a), intern(b)
            if u == v:
                raise ValidationError(f"self-loop at {a!r}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValidationError(f"duplicate edge {a} {b}")
            seen.add(e)
            edges.append(e)
        return Graph(tuple(order), tuple(sorted(edges)))


# -- parsing and serialization ------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated label pairs, one or more edges per line.

    Lines starting with ``#`` are comments.  Vertices are numbered in order
    of first appearance.  Self-loops and duplicate edges are rejected.
    """
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) % 2 != 0:
            raise GraphFormatError(
                f"line {lineno}: odd number of tokens ({len(tokens)})"
            )
        for i in range(0, len(tokens), 2):
            pairs.append((tokens[i], tokens[i + 1]))
    try:
        return Graph.from_pairs(pairs)
    except ValidationError as exc:
        raise ValidationError(str(exc)) from None


def parse_json_graph(obj) -> Graph:
    """Accept ``{"vertices": [...], "edges": [["u","v"], ...]}``.

    ``vertices`` (optional), ``edges`` and each edge must be lists (or
    tuples, from Python), and every label a string or an integer (read as
    its decimal string); anything else is a :class:`GraphFormatError`.
    Unlike the edge-list format this can carry isolated vertices; they are
    accepted here (with a warning) and rejected by analysis entry points.
    """
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "edges" not in obj:
        raise GraphFormatError('JSON graph needs "vertices" and "edges" keys')
    for key in ("vertices", "edges"):
        if not isinstance(obj.get(key, []), (list, tuple)):
            raise GraphFormatError(f'"{key}" must be a list')
    vertices = [_json_label(x) for x in obj.get("vertices", [])]
    pairs = []
    for e in obj["edges"]:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise GraphFormatError(f"bad edge entry: {e!r}")
        pairs.append((_json_label(e[0]), _json_label(e[1])))
    known: set[str] = set()
    for lab in vertices:
        if lab in known:
            raise GraphFormatError(f"repeated vertex label {lab!r}")
        known.add(lab)
    for a, b in pairs:
        for lab in (a, b):
            if vertices and lab not in known:
                raise ValidationError(f"edge uses unlisted vertex {lab!r}")
    if vertices:
        order = {lab: i for i, lab in enumerate(vertices)}
        idx_pairs = []
        for a, b in pairs:
            u, v = order[a], order[b]
            if u == v:
                raise ValidationError(f"self-loop at {a!r}")
            idx_pairs.append((u, v) if u < v else (v, u))
        if len(set(idx_pairs)) != len(idx_pairs):
            raise ValidationError("duplicate edge in JSON graph")
        g = Graph(tuple(vertices), tuple(sorted(idx_pairs)))
    else:
        g = Graph.from_pairs(pairs)
    if g.isolated_vertices():
        warnings.warn(
            "graph has isolated vertices; analysis entry points will reject it",
            stacklevel=2,
        )
    return g


def _json_label(x) -> str:
    # bool is an int subclass, but true/false are not vertex names
    if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
        return str(x)
    raise GraphFormatError(f"vertex label must be a string or an integer: {x!r}")


def load_graph_text(text: str) -> Graph:
    """Dispatch between the JSON graph form and the plain edge list."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json_graph(stripped)
    return parse_edge_list(text)


def serialize_edge_list(g: Graph) -> str:
    """Canonical edge-list text: one edge per line, in canonical order."""
    return "".join(f"{g.labels[u]} {g.labels[v]}\n" for u, v in g.edges)


def graph_json_obj(g: Graph) -> dict:
    return {
        "vertices": list(g.labels),
        "edges": [[g.labels[u], g.labels[v]] for u, v in g.edges],
    }


# -- structural queries ---------------------------------------------------


def mask_components(g: Graph, mask: int) -> tuple[int, ...]:
    """Connected components of the subgraph induced by ``mask``, as masks.

    Ordered by smallest member index.  ``g._memo`` keeps the answer per mask;
    it is a tuple, so no caller can change the kept value.
    """
    memo = g._memo.setdefault("mask_components", {})
    got = memo.get(mask)
    if got is not None:
        return got
    comps = []
    rest = mask
    adj = g.adj_mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v] & mask
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    got = memo[mask] = tuple(comps)
    return got


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex partition into maximal connected parts, smallest index first."""
    return [tuple(bits(c)) for c in mask_components(g, g.full_mask)]


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(mask_components(g, g.full_mask)) == 1


def neighbors_of_set(g: Graph, mask: int) -> int:
    """Open neighborhood N(X) of the vertex set ``mask``, as a mask."""
    nb = 0
    for v in bits(mask):
        nb |= g.adj_mask[v]
    return nb & ~mask


def cut_vertices(g: Graph) -> tuple[int, ...]:
    """All vertices whose removal disconnects the graph (g must be connected)."""
    if not is_connected(g):
        raise PreconditionError("cut_vertices requires a connected graph")
    n = g.n
    if n <= 2:
        return ()
    disc = [-1] * n
    low = [0] * n
    result = set()
    adj = g.adjacency
    timer = 0
    # iterative lowpoint DFS from vertex 0
    stack: list[tuple[int, int, int]] = [(0, -1, 0)]  # (vertex, parent, next child pos)
    root_children = 0
    while stack:
        v, parent, ci = stack[-1]
        if disc[v] == -1:
            disc[v] = low[v] = timer
            timer += 1
        if ci < len(adj[v]):
            stack[-1] = (v, parent, ci + 1)
            w = adj[v][ci]
            if w == parent:
                continue
            if disc[w] != -1:
                low[v] = min(low[v], disc[w])
            else:
                if v == 0:
                    root_children += 1
                stack.append((w, v, 0))
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if p != 0 and low[v] >= disc[p]:
                    result.add(p)
    if root_children >= 2:
        result.add(0)
    return tuple(sorted(result))


@dataclass(frozen=True)
class OddCycle:
    """Witness that a graph is not bipartite: an odd cycle as a vertex sequence."""

    vertices: tuple[int, ...]


def bipartition(g: Graph):
    """Two-color a connected graph.

    Returns ``(side0, side1)`` as sorted index tuples when bipartite, or an
    :class:`OddCycle` whose consecutive vertices (cyclically) are adjacent.
    """
    if not is_connected(g):
        raise PreconditionError("bipartition requires a connected graph")
    n = g.n
    color = [-1] * n
    parent = [-1] * n
    depth = [0] * n
    color[0] = 0
    queue = [0]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w in g.adjacency[v]:
            if color[w] == -1:
                color[w] = color[v] ^ 1
                parent[w] = v
                depth[w] = depth[v] + 1
                queue.append(w)
            elif color[w] == color[v]:
                return OddCycle(_odd_cycle_from(parent, depth, v, w))
    side0 = tuple(v for v in range(n) if color[v] == 0)
    side1 = tuple(v for v in range(n) if color[v] == 1)
    return side0, side1


def _odd_cycle_from(parent, depth, v, w) -> tuple[int, ...]:
    # walk both endpoints of the offending edge up to their BFS-tree LCA
    up_v, up_w = [v], [w]
    a, b = v, w
    while depth[a] > depth[b]:
        a = parent[a]
        up_v.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        up_w.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        up_v.append(a)
        up_w.append(b)
    # up_v ends at the LCA, up_w's last element is also the LCA: drop it
    cycle = up_v + list(reversed(up_w[:-1]))
    return tuple(cycle)


def require_analysis_ready(g: Graph) -> None:
    """Shared entry gate: analysis needs n > 1 and no isolated vertices."""
    if g.n <= 1:
        raise PreconditionError("analysis requires a graph with more than one vertex")
    iso = g.isolated_vertices()
    if iso:
        raise PreconditionError(
            f"analysis rejects isolated vertices: {', '.join(g.labels_of(iso))}"
        )
