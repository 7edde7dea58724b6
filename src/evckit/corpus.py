"""Named fixtures and graph corpora for the verification suites."""

from __future__ import annotations

import itertools
import random

from .errors import PreconditionError
from .graph import Graph, is_connected

_LABELS = "abcdefghijklmnopqrstuvwxyz"

EXHAUSTIVE_VERTEX_LIMIT = 7


def fixtures() -> dict[str, Graph]:
    """The ten named graphs used throughout the test suites."""

    def path(labels):
        return Graph.from_pairs(zip(labels, labels[1:]))

    def cycle(labels):
        return Graph.from_pairs(
            list(zip(labels, labels[1:])) + [(labels[-1], labels[0])]
        )

    return {
        "K2": path(["a", "b"]),
        "P3": path(["a", "b", "c"]),
        "P4": path(["a", "b", "c", "d"]),
        "P5": path(["a", "b", "c", "d", "e"]),
        "C4": cycle(["a", "b", "c", "d"]),
        "C5": cycle(["1", "2", "3", "4", "5"]),
        "C6": cycle(["1", "2", "3", "4", "5", "6"]),
        "K1,3": Graph.from_pairs([("c", "x"), ("c", "y"), ("c", "z")]),
        "bowtie": Graph.from_pairs(
            [("a", "b"), ("a", "x"), ("b", "x"), ("c", "d"), ("c", "x"), ("d", "x")]
        ),
        "footnote": Graph.from_pairs(
            [("a1", "a2"), ("a1", "b1"), ("a2", "b2"), ("a1", "b2"), ("a2", "b1")]
        ),
    }


def exhaustive_connected(n: int):
    """Every labeled connected graph on n vertices (no isolated vertices)."""
    if n > EXHAUSTIVE_VERTEX_LIMIT:
        raise PreconditionError(
            f"exhaustive corpus refused for n > {EXHAUSTIVE_VERTEX_LIMIT}"
        )
    if n < 1:
        return
    labels = tuple(_LABELS[:n])
    pairs = list(itertools.combinations(range(n), 2))
    for bitsel in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if bitsel >> i & 1)
        g = Graph(labels, edges)
        if is_connected(g) and (n == 1 or not g.isolated_vertices()):
            yield g


def random_connected(n: int, p: float, count: int, seed: int) -> list[Graph]:
    """``count`` seeded random connected graphs (resample until connected)."""
    rng = random.Random(seed)
    labels = tuple(_LABELS[:n])
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    while len(out) < count:
        edges = tuple(e for e in pairs if rng.random() < p)
        g = Graph(labels, edges)
        if is_connected(g) and not g.isolated_vertices():
            out.append(g)
    return out

