import functools
import itertools
import random

import pytest

from evckit.corpus import fixtures
from evckit.covers import cover_configurations, enumerate_covers_up_to
from evckit.errors import PreconditionError
from evckit.graph import Graph, bits, is_connected, mask_of
from evckit.matching import canonical_matching, hopcroft_karp


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


def game_states(g: Graph, k: int, one_per_vertex: bool = False) -> list[tuple[int, ...]]:
    """The k-guard game's states in canonical order, drawn from the cover
    enumerators and not through the solver: the covers of exactly k
    vertices (one guard each) or every k-guard configuration on a cover."""
    if one_per_vertex:
        covers = enumerate_covers_up_to(g, k, least=k)
        return sorted(tuple(c >> v & 1 for v in range(g.n)) for c in covers)
    return sorted(cover_configurations(g, k))


def config_of_labels(g: Graph, mapping) -> tuple[int, ...]:
    """The count vector with ``mapping[label]`` guards on each named vertex,
    none elsewhere."""
    counts = [0] * g.n
    for lab, c in mapping.items():
        counts[g.index(lab)] += c
    return tuple(counts)


# -- independent oracles for the fast routes in src/ ------------------------


def brute_force_min_covers(g: Graph) -> tuple[int, list[tuple[int, ...]]]:
    """Every minimum vertex cover by subset brute force, lexicographic."""
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


def exhaustive_max_matching_size(g: Graph) -> int:
    """Maximum matching size by a subset DP over vertex masks."""
    adj = g.adj_mask

    @functools.cache
    def rec(mask: int) -> int:
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        best = rec(mask ^ (1 << v))  # leave v unmatched
        for w in bits(adj[v] & mask):
            best = max(best, 1 + rec(mask ^ (1 << v) ^ (1 << w)))
        return best

    return rec(g.full_mask)


def perfect_matching_through_edge(g: Graph, side_a, side_b, e):
    """Perfect matching of the bipartite subgraph between the sides that
    contains the edge ``e``, or ``None``: delete e's endpoints, match the
    rest with Hopcroft-Karp, re-add e."""
    sa, sb = set(side_a), set(side_b)
    if sa & sb:
        raise PreconditionError("sides must be disjoint")
    if len(sa) != len(sb):
        raise PreconditionError("sides must have equal size")
    for side in (side_a, side_b):
        smask = mask_of(side)
        for v in side:
            if g.adj_mask[v] & smask:
                raise PreconditionError("each side must be an independent set")
    a, b = e
    if a in sb and b in sa:
        a, b = b, a
    if a not in sa or b not in sb:
        raise PreconditionError("edge must cross the bipartition")
    if not g.has_edge(a, b):
        raise PreconditionError(f"{g.labels[a]} {g.labels[b]} is not an edge")
    rest_a = [x for x in side_a if x != a]
    rest_b = mask_of(x for x in side_b if x != b)
    adj = {x: tuple(bits(g.adj_mask[x] & rest_b)) for x in rest_a}
    pair = hopcroft_karp(rest_a, adj)
    if len(pair) != len(rest_a):
        return None
    return canonical_matching(list(pair.items()) + [(a, b)])


def enumerate_tagged_pms(aux):
    """Every perfect matching of an auxiliary multigraph with every tag
    assignment, one tuple of ``(u, v, tag)`` per product: the left vertices
    ascending, each taking a free pair neighbour, tagged REAL first when
    the pair is a real edge and then with each of its helper colors."""
    from evckit.defense import REAL

    adj = aux.graph.adj_mask
    rows = [
        (u, [
            (v, ((REAL,) if adj[u] >> v & 1 else ()) + aux.helper_colors(u, v))
            for v in vs
        ])
        for u, vs in aux.pair_adjacency.items()
    ]

    def rec(i: int, used: int, acc: list):
        if i == len(rows):
            yield tuple(acc)
            return
        u, row = rows[i]
        for v, tags in row:
            if used >> v & 1:
                continue
            for tag in tags:
                acc.append((u, v, tag))
                yield from rec(i + 1, used | 1 << v, acc)
                acc.pop()

    yield from rec(0, 0, [])


def reference_rainbow_bruteforce(aux, u: int, v: int) -> tuple[bool, bool]:
    """(some perfect matching pairs v with one of the attack's partners,
    some rainbow tagged one does), by listing every tag product of every
    perfect matching."""
    from evckit.defense import REAL, _question

    partners = _question(aux, u, v)[0]
    any_match = False
    for pm in enumerate_tagged_pms(aux):
        if not any(b == v and partners >> a & 1 for a, b, _ in pm):
            continue
        any_match = True
        colors = [tag for _, _, tag in pm if tag != REAL]
        if len(colors) == len(set(colors)):
            return True, True
    return any_match, False
