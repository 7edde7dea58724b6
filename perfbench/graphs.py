"""Seeded graph lists for the benchmark workloads.

Nothing here imports evckit, so a change to the program cannot change the
inputs.  Two seeds act on a list:

* the *family seed* picks the graphs (their structure).  It is fixed by
  default, so every run of a workload solves the same isomorphism classes
  and its cost does not swing with the luck of a draw;
* the *presentation seed* (``--seed``) names the vertices, shuffles the
  edge list and the orientation of each edge, and shuffles the order of the
  list.  Inputs are JSON graphs whose ``vertices`` list keeps the structural
  order, which the program takes as its vertex numbering; so a seed changes
  every input file but not the work done on it, and a run's figures move
  with the machine, not with the draw.

A graph is ``(kind, n, edges)`` with ``edges`` a sorted tuple of ``(u, v)``,
``u < v``, over ``range(n)``.
"""

from __future__ import annotations

import itertools
import json
import random

DEFAULT_FAMILY_SEED = 2509

# cycles the program refuses (its cover scan stops at 20 vertices); they are
# kept out of the presentation seed so every run fails on the same inputs
REFUSED_CYCLES = (21, 22, 23, 24)


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_connected(n: int, p: float, rng: random.Random):
    """G(n, p), drawn again until connected."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        edges = tuple(e for e in pairs if rng.random() < p)
        if _connected(n, edges):
            return edges


def _biconnected(n: int, edges) -> bool:
    for x in range(n):
        keep = {v: i for i, v in enumerate(v for v in range(n) if v != x)}
        rest = [(keep[u], keep[v]) for u, v in edges if x != u and x != v]
        if not _connected(n - 1, rest):
            return False
    return True


def random_biconnected(n: int, p: float, rng: random.Random):
    """G(n, p), drawn again until it has no cut vertex."""
    while True:
        edges = random_connected(n, p, rng)
        if _biconnected(n, edges):
            return edges


def random_bipartite(n: int, p: float, rng: random.Random):
    """Random connected bipartite graph with sides of n//2 and n - n//2."""
    half = n // 2
    pairs = [(u, v) for u in range(half) for v in range(half, n)]
    while True:
        edges = tuple(e for e in pairs if rng.random() < p)
        if _connected(n, edges):
            return edges


def random_tree(n: int, rng: random.Random):
    """Random recursive tree: vertex i hangs from a uniform earlier vertex."""
    return tuple(sorted((rng.randrange(i), i) for i in range(1, n)))


def tree_cover_gap(n: int, edges) -> int:
    """evc - mvc of a tree: (internal vertices + 1) - (minimum cover size).

    The minimum cover comes from stripping leaves: a leaf's neighbour joins
    the cover and both leave the tree.
    """
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    internal = sum(1 for v in adj if len(adj[v]) > 1)
    cover = 0
    while any(adj.values()):
        leaf = next(v for v in adj if len(adj[v]) == 1)
        (hub,) = adj[leaf]
        cover += 1
        for w in list(adj[hub]):
            adj[w].discard(hub)
        adj[hub].clear()
    return internal + 1 - cover


def random_tree_gap(n: int, max_gap: int, rng: random.Random):
    """Random recursive tree whose evc - mvc is at most ``max_gap``; the game
    solver runs once per guard count from mvc to evc, so this caps its cost."""
    while True:
        edges = random_tree(n, rng)
        if tree_cover_gap(n, edges) <= max_gap:
            return edges


def cycle(n: int):
    return tuple(sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)))


def complete(n: int):
    return tuple(itertools.combinations(range(n), 2))


def evc_game_family(family_seed: int = DEFAULT_FAMILY_SEED):
    """Graphs answered by ``evckit evc`` (refused cycles excluded)."""
    rng = random.Random(family_seed)
    out = []
    for n, count in ((3, 6), (4, 14), (5, 18), (6, 28), (7, 6), (8, 4)):
        out += [("tree", n, random_tree_gap(n, 2, rng)) for _ in range(count)]
    for n, p, count in ((9, 0.3, 2), (10, 0.3, 2), (9, 0.6, 2), (10, 0.6, 2)):
        out += [(f"gnp{p}", n, random_biconnected(n, p, rng)) for _ in range(count)]
    out += [("cycle", n, cycle(n)) for n in range(3, 15)]
    out += [("complete", n, complete(n)) for n in range(3, 9)]
    return out


def spartan_decide_family(family_seed: int = DEFAULT_FAMILY_SEED):
    """Graphs answered by ``evckit spartan``."""
    rng = random.Random(family_seed + 1)
    out = []
    out += [("dense", n, random_connected(n, 0.8, rng))
            for n in (rng.randint(16, 26) for _ in range(24))]
    out += [("sparse", n, random_connected(n, 0.25, rng))
            for n in (rng.randint(16, 22) for _ in range(48))]
    for p in (0.3, 0.5):
        out += [("bipartite", n, random_bipartite(n, p, rng))
                for n in (rng.randint(8, 13) * 2 for _ in range(10))]
    out += [("odd_cycle", n, cycle(n)) for n in range(5, 18, 2)]
    out += [("complete", n, complete(n)) for n in range(4, 13)]
    return out


def present(graph, rng: random.Random):
    """Name and shuffle one graph; returns ``(labels, edge_pairs)`` where
    ``labels[i]`` names structural vertex ``i``."""
    kind, n, edges = graph
    labels = [f"v{x}" for x in rng.sample(range(10 * n), n)]
    pairs = []
    for u, v in edges:
        a, b = labels[u], labels[v]
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(pairs)
    return labels, pairs


def fixed_presentation(graph):
    kind, n, edges = graph
    labels = [f"{kind[0]}{i}" for i in range(n)]
    return labels, [(labels[u], labels[v]) for u, v in edges]


def graph_text(labels, pairs) -> str:
    """The input file: a JSON graph (see ``evckit.graph.parse_json_graph``)."""
    return json.dumps({"vertices": labels, "edges": [list(p) for p in pairs]})


def workload_inputs(workload: str, seed: int, family_seed: int = DEFAULT_FAMILY_SEED):
    """The ordered input list of one workload: ``[(graph, labels, lines)]``.

    Seeded graphs come first in a seed-shuffled order; the refused cycles of
    ``evc-game`` follow in a fixed order and a fixed labelling.
    """
    if workload == "evc-game":
        family = evc_game_family(family_seed)
    elif workload == "spartan-decide":
        family = spartan_decide_family(family_seed)
    else:
        raise ValueError(f"no graph list for workload {workload!r}")
    rng = random.Random(seed)
    order = list(range(len(family)))
    rng.shuffle(order)
    out = []
    for i in order:
        labels, lines = present(family[i], random.Random(rng.getrandbits(64)))
        out.append((family[i], labels, lines))
    if workload == "evc-game":
        for n in REFUSED_CYCLES:
            g = ("refused_cycle", n, cycle(n))
            out.append((g,) + fixed_presentation(g))
    return out
