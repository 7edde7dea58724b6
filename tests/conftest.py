import random

import pytest

from evckit.corpus import fixtures
from evckit.graph import Graph, is_connected
from evckit.reachability import GuardConfiguration


@pytest.fixture(scope="session")
def named():
    return fixtures()


LABELS = "abcdefghij"


def random_connected_graph(n: int, p: float, rng: random.Random) -> Graph:
    # one vertex has no edge to draw and LABELS names at most ten
    if not 2 <= n <= len(LABELS):
        raise ValueError(f"n must lie in 2..{len(LABELS)}, got {n}")
    while True:
        edges = tuple(
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        )
        g = Graph(tuple(LABELS[:n]), edges)
        if is_connected(g) and not g.isolated_vertices():
            return g


def random_graph_corpus(count: int, n_lo: int, n_hi: int, seed: int):
    rng = random.Random(seed)
    return [
        random_connected_graph(rng.randint(n_lo, n_hi), rng.uniform(0.25, 0.9), rng)
        for _ in range(count)
    ]


def config_of_labels(g: Graph, mapping) -> GuardConfiguration:
    """``mapping[label]`` guards on each named vertex, none elsewhere."""
    counts = [0] * g.n
    for lab, c in mapping.items():
        counts[g.index(lab)] += c
    return GuardConfiguration(tuple(counts))
