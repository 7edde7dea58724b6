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
        prev = None
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) references a missing vertex")
            if u == v:
                raise ValidationError(f"self-loop at {self.labels[u]!r}")
            if u > v:
                raise ValidationError("edges must be stored as (u, v) with u < v")
            # sorted edges put a duplicate right after its twin
            if (u, v) == prev:
                raise ValidationError(
                    f"duplicate edge {self.labels[u]} {self.labels[v]}"
                )
            if prev is not None and (u, v) < prev:
                raise ValidationError("edges must be sorted")
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
        """Build a graph from labeled edge pairs in first-appearance order.

        The constructor rejects a self-loop or a duplicate edge.
        """
        index: dict[str, int] = {}
        edges = []
        for a, b in pairs:
            u = index.setdefault(a, len(index))
            v = index.setdefault(b, len(index))
            edges.append((u, v) if u < v else (v, u))
        return Graph(tuple(index), tuple(sorted(edges)))


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
    return Graph.from_pairs(pairs)


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
    order: dict[str, int] = {}
    for lab in vertices:
        if lab in order:
            raise GraphFormatError(f"repeated vertex label {lab!r}")
        order[lab] = len(order)
    if vertices:
        edges = []
        for a, b in pairs:
            for lab in (a, b):
                if lab not in order:
                    raise ValidationError(f"edge uses unlisted vertex {lab!r}")
            u, v = order[a], order[b]
            edges.append((u, v) if u < v else (v, u))
        g = Graph(tuple(vertices), tuple(sorted(edges)))
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
    full = g.full_mask
    return tuple(
        v for v in range(g.n) if len(mask_components(g, full & ~(1 << v))) > 1
    )


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
                queue.append(w)
            elif color[w] == color[v]:
                return OddCycle(_odd_cycle_from(parent, v, w))
    side0 = tuple(v for v in range(n) if color[v] == 0)
    side1 = tuple(v for v in range(n) if color[v] == 1)
    return side0, side1


def _odd_cycle_from(parent, v, w) -> tuple[int, ...]:
    # a breadth-first edge joins depths at most one apart, and the colour is
    # the depth's parity, so v and w share a depth: climb both in step to
    # their lowest common ancestor
    up_v, up_w = [v], [w]
    while up_v[-1] != up_w[-1]:
        up_v.append(parent[up_v[-1]])
        up_w.append(parent[up_w[-1]])
    # up_v ends at the ancestor, and so does up_w: drop its copy
    return tuple(up_v + up_w[-2::-1])


def require_analysis_ready(g: Graph) -> None:
    """Shared entry gate: analysis needs n > 1 and no isolated vertices."""
    if g.n <= 1:
        raise PreconditionError("analysis requires a graph with more than one vertex")
    iso = g.isolated_vertices()
    if iso:
        raise PreconditionError(
            f"analysis rejects isolated vertices: {', '.join(g.labels_of(iso))}"
        )
