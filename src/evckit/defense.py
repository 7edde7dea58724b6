"""Auxiliary defense graph, rainbow perfect matchings, and guard-movement paths.

For two equal-size vertex covers S and T, the auxiliary graph lives on the
symmetric difference.  A *real* edge joins u in S-T to v in T-S when uv is an
edge of the underlying graph; a *helper* edge of color i joins them when both
endpoints have a neighbor in H_i, the i-th connected component of the shared
part G[S n T].  Parallel real/helper edges are kept apart (multigraph).

A perfect matching of the auxiliary graph that uses at most one helper edge
per color (a *rainbow* matching) expands into vertex-disjoint guard chains:
real edges become single steps, and each helper edge threads through its own
color component, so the chains never collide and never enter the dead zone
V - (S u T).

T answers the attack (u, v) on S (u in S, v in T - S, uv an edge) when a
rainbow perfect matching answers one question: v is matched to one of a
mask of left partners, and the pair carries one tag.  A guard u of S - T
must step onto v itself, so the partners are {u} and the tag is REAL.  A
guard u of S n T keeps its post, and the chain into v threads through u's
shared component: the partners are the left vertices touching that
component, and the tag is its color.  So all guards of one shared component
ask the same question.

The all-real matching is a perfect matching of the pair adjacency, and one
breadth-first search over it answers the question and witnesses it: the
alternating tree from the all-real partner of v
(``AuxiliaryGraph.alternating_tree``, over ``matching.alternating_tree``)
holds exactly the left vertices that some perfect matching pairs with v.
The decision (``DefenseContext.defends``) asks whether a partner is in that
tree; the witness (``rainbow_pm_with_edge``) flips the all-real matching
along the tree path to the first partner discovered, which closes a
shortest alternating cycle through v.  A shortest cycle repeats no helper
color, since a repeated color would be a shortcut.  The decider decides its
fixpoint on the yes/no answer and builds guard paths only for the
transitions it exports, each through one call of the witness entry
(``DefenseContext.witness``); the defense scan ``check_defense`` calls the
same entry per candidate.  So the decision and the witness share one
search.  Brute force (``rainbow_pm_bruteforce``) asks the question again by
a depth-first search over the pair adjacency in which only a partner may
take v: it tests each perfect matching it reaches once for a rainbow tag
choice (real pairs take REAL, the helper-only pairs need distinct colors)
and stops at the first rainbow one.  It reads no alternating tree and not
the all-real matching, so it and the game solver
(``is_spartan(g, method="game")``) are the independent checks.

The decider asks about one cover pair (S, T) many times.  ``build_aux``
makes one record of vertex masks per pair, in one pass: S, T, the sides
L = S - T and R = T - S, the components of G[S n T] as
``graph.mask_components`` returns them (the colors), and per component the
masks of the L and R vertices touching it.  A left vertex u's pair
neighbours are ``adj_mask[u] & R`` together with the R-mask of every
component that u touches.  The rest is derived on first use and kept on
the record: the all-real matching and its reverse, the pair adjacency,
each right vertex's alternating tree (a mask of its left vertices for the
yes/no answer, and its discovery order for the witness), and one
breadth-first tree per (color, left end) inside the color's component, off
which every helper chain from that left end is read (``_read_chain``).
The tuple and set views (``left``, ``right``, ``colors``, ``dead_zone``,
``real_pairs``, ``helper_pairs``, ``helper_colors``) are built from the
masks when ``evckit aux``, the tests or brute force read them.
``DefenseContext`` keeps one record per (S, T) and one entry per (S, T,
question) that holds the question's matching.  Each witness expands that
matching through the attacked guard (``matching_to_paths``).  Each is a
pure function of its key, so cached and recomputed answers are identical.
Optional ``DefenseStats`` are taken at one ask, ``defends``, and read the
matching from the same entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

from .covers import mvc_mask
from .errors import IntegrityError, PreconditionError
from .graph import Graph, bits, mask_components, mask_of, neighbors_of_set
from .matching import alternating_tree, hopcroft_karp

REAL = -1  # tag for real edges; helper tags are color indices >= 0
# vertex-disjoint guard chains, each from a vacated vertex of S - T to a
# newly occupied one of T - S, interiors inside S n T
GuardPaths = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AuxiliaryGraph:
    """The auxiliary graph of two covers S and T, as one record of vertex
    masks."""

    graph: Graph
    s_mask: int
    t_mask: int
    left_mask: int  # L = S - T
    right_mask: int  # R = T - S
    color_masks: tuple[int, ...]  # components of G[S n T], by least vertex
    color_left: tuple[int, ...]  # per component, the L vertices touching it
    color_right: tuple[int, ...]  # per component, the R vertices touching it

    # Everything below is a pure function of the masks; the cached views are
    # computed on first use (the instance is frozen, like ``Graph``).  The
    # searches keep their trees per right vertex and per (color, left end).

    @property
    def side_size(self) -> int:
        return self.left_mask.bit_count()

    @property
    def dead_mask(self) -> int:
        return self.graph.full_mask & ~(self.s_mask | self.t_mask)

    @cached_property
    def left(self) -> tuple[int, ...]:
        return tuple(bits(self.left_mask))

    @cached_property
    def right(self) -> tuple[int, ...]:
        return tuple(bits(self.right_mask))

    @cached_property
    def colors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(bits(c)) for c in self.color_masks)

    @cached_property
    def dead_zone(self) -> tuple[int, ...]:
        return tuple(bits(self.dead_mask))

    @cached_property
    def real_pairs(self) -> frozenset[tuple[int, int]]:
        adj, rm = self.graph.adj_mask, self.right_mask
        return frozenset((u, v) for u in self.left for v in bits(adj[u] & rm))

    @cached_property
    def helper_pairs(self) -> tuple[tuple[int, int, int], ...]:
        """Every (u, v, color) with u and v touching the color, ascending."""
        return tuple(
            (u, v, c)
            for u in self.left
            for v in self.right
            for c in self.helper_colors(u, v)
        )

    def helper_colors(self, u: int, v: int) -> tuple[int, ...]:
        return tuple(
            c
            for c, (cl, cr) in enumerate(zip(self.color_left, self.color_right))
            if cl >> u & 1 and cr >> v & 1
        )

    @cached_property
    def pair_adjacency(self) -> dict[int, tuple[int, ...]]:
        """Left -> rights joined by at least one (real or helper) edge:
        its real neighbours in R and the R vertices of each component it
        touches, ascending."""
        adj, rm = self.graph.adj_mask, self.right_mask
        out = {}
        for u in self.left:
            nb = adj[u] & rm
            for cl, cr in zip(self.color_left, self.color_right):
                if cl >> u & 1:
                    nb |= cr
            out[u] = tuple(bits(nb))
        return out

    @cached_property
    def real_pm(self) -> dict[int, int]:
        """``all_real_pm(self)``; an IntegrityError is raised again on each use."""
        return all_real_pm(self)

    @cached_property
    def real_pm_reverse(self) -> dict[int, int]:
        return {v: u for u, v in self.real_pm.items()}

    @cached_property
    def _trees(self) -> dict:
        return {}

    def alternating_tree(self, v: int) -> tuple[int, dict[int, int | None]]:
        """``matching.alternating_tree`` of the pair adjacency over
        ``real_pm`` from v's partner, kept per right vertex v: the mask of
        the left vertices some perfect matching pairs with v, and the tree
        itself in discovery order."""
        tree = self._trees.get(v)
        if tree is None:
            rev = self.real_pm_reverse
            parent = alternating_tree(self.pair_adjacency, rev, rev[v])
            tree = self._trees[v] = (mask_of(parent), parent)
        return tree

    def pairs_with(self, v: int, partners: int) -> bool:
        """Whether some perfect matching of the pair adjacency pairs the
        right vertex v with a vertex of the mask ``partners``: whether v's
        alternating tree meets it (no partner, no tree built)."""
        return bool(partners) and bool(self.alternating_tree(v)[0] & partners)

    def chain_tree(self, color: int, w: int) -> tuple[list[int], dict[int, int]]:
        """``_chain_tree`` inside the color's component from the neighbours
        of the left vertex w, kept per (color, w)."""
        key = (color, w)
        tree = self._trees.get(key)
        if tree is None:
            g = self.graph
            tree = self._trees[key] = _chain_tree(g, self.color_masks[color], g.adj_mask[w])
        return tree


@dataclass(frozen=True)
class RainbowMatching:
    """Perfect matching of an auxiliary graph, each pair tagged real or
    (helper, color); at most one helper edge per color."""

    edges: tuple[tuple[int, int, int], ...]  # (u, v, tag) with tag REAL or color
    forced: tuple[int, int, int]


def build_aux(g: Graph, s, t) -> AuxiliaryGraph:
    """The auxiliary graph of the covers ``s`` and ``t``, built in one pass
    over their masks."""
    sm, tm = mask_of(s), mask_of(t)
    if sm.bit_count() != tm.bit_count():
        raise PreconditionError("covers must have equal size")
    # g._memo keeps the masks already checked, so each cover is checked once
    checked = g._memo.setdefault("aux_covers", set())
    for name, cm in (("s", sm), ("t", tm)):
        if cm in checked:
            continue
        for u, v in g.edges:
            if not (cm >> u & 1) and not (cm >> v & 1):
                raise PreconditionError(f"cover {name} misses edge "
                                        f"{g.labels[u]} {g.labels[v]}")
        checked.add(cm)
    lm, rm = sm & ~tm, tm & ~sm
    # no edge lies inside S - T (T misses it) or T - S (S misses it)
    comps = mask_components(g, sm & tm)
    touched = [neighbors_of_set(g, c) for c in comps]
    return AuxiliaryGraph(
        graph=g,
        s_mask=sm,
        t_mask=tm,
        left_mask=lm,
        right_mask=rm,
        color_masks=comps,
        color_left=tuple(nb & lm for nb in touched),
        color_right=tuple(nb & rm for nb in touched),
    )


def all_real_pm(aux: AuxiliaryGraph) -> dict[int, int]:
    """Perfect matching using real edges only (guaranteed for minimum covers)."""
    adj, rm = aux.graph.adj_mask, aux.right_mask
    pair = hopcroft_karp(aux.left, {u: tuple(bits(adj[u] & rm)) for u in aux.left})
    if len(pair) != aux.side_size:
        raise IntegrityError(
            "no all-real perfect matching; the covers are not both minimum"
        )
    return pair


def _validate_rainbow(aux: AuxiliaryGraph, rm: RainbowMatching, question: tuple) -> None:
    lefts = rights = 0
    for u, v, _ in rm.edges:
        lefts |= 1 << u
        rights |= 1 << v
    if lefts != aux.left_mask or rights != aux.right_mask:
        raise IntegrityError("rainbow matching is not perfect")
    if len(rm.edges) != aux.side_size:
        raise IntegrityError("rainbow matching has repeated endpoints")
    adj = aux.graph.adj_mask
    used_colors = 0
    for u, v, tag in rm.edges:
        if tag == REAL:
            if not adj[u] >> v & 1:
                raise IntegrityError("real-tagged pair is not a real edge")
        else:
            if not (0 <= tag < len(aux.color_masks)
                    and aux.color_left[tag] >> u & 1
                    and aux.color_right[tag] >> v & 1):
                raise IntegrityError("helper-tagged pair lacks that color")
            if used_colors >> tag & 1:
                raise IntegrityError("two helper edges share a color")
            used_colors |= 1 << tag
    partners, v, tag = question
    fu, fv, ftag = rm.forced
    if not partners >> fu & 1 or (fv, ftag) != (v, tag) or rm.forced not in rm.edges:
        raise IntegrityError("the forced pair does not answer the question")


def _question(aux: AuxiliaryGraph, u: int, v: int) -> tuple:
    """The matching question of the attack (u, v): ``(partners, v, tag)``,
    asking that v be matched to one of the mask ``partners`` by a pair
    tagged ``tag``.  The attack must be an edge from S to T - S, so both
    sides are non-empty."""
    if not aux.s_mask >> u & 1:
        raise PreconditionError("the attacked guard must stand on S")
    if not aux.right_mask >> v & 1:
        raise PreconditionError("the attacked vertex must lie in T - S")
    if not aux.graph.adj_mask[u] >> v & 1:
        raise PreconditionError("the attack must be an edge")
    if aux.left_mask >> u & 1:
        return 1 << u, v, REAL
    # the attacked guard keeps its post: thread the chain through u's
    # component of the shared part
    for color, cm in enumerate(aux.color_masks):
        if cm >> u & 1:
            return aux.color_left[color], v, color


def _checked_question(aux: AuxiliaryGraph, u: int, v: int) -> tuple:
    """``_question`` of the attack (u, v), between two minimum covers."""
    question = _question(aux, u, v)
    aux.real_pm  # raises when the covers are not both minimum
    return question


def rainbow_pm_with_edge(aux: AuxiliaryGraph, u: int, v: int) -> RainbowMatching | None:
    """Rainbow perfect matching answering the attack (u, v) on S.

    For u in S - T the matching contains the real edge uv; for u in S n T
    the matched partner of v touches u's shared component, and the pair is
    carried as that color's helper edge.  ``forced`` names the pair at v.

    The witness is the all-real matching mp flipped along a shortest
    alternating cycle through v.  The alternating tree of v (a breadth-first
    search over left vertices from a0, mp's partner of v, stepping from a to
    mp's partner of each other right neighbour of a, neighbours ascending)
    gives the nearest partner w, the first one discovered, and the path from
    a0 to it.  Each left vertex of the path takes mp's partner of the next
    one, w takes v, and every other pair stays in mp.  A path pair is tagged
    REAL when it is a real edge, else with its first helper color.

    The witness is rainbow.  If two path pairs shared a color, the helper
    edge from the earlier left vertex to the later right vertex would be a
    shortcut.  A path pair of the forced color would touch the shared
    component, so its left vertex would be a partner nearer than w.  So the
    path repeats no color and never uses the forced one.  No partner is
    reachable exactly when no perfect matching (rainbow or not) answers the
    attack, and then the result is None.
    """
    question = _checked_question(aux, u, v)
    partners, _, tag = question
    if not partners:
        return None
    parent = aux.alternating_tree(v)[1]
    w = next((w for w in parent if partners >> w & 1), None)
    if w is None:
        return None
    mp = aux.real_pm
    adj = aux.graph.adj_mask
    forced = (w, v, tag)
    flipped = {w: forced}
    while parent[w] is not None:
        a, x = parent[w], mp[w]
        color = REAL if adj[a] >> x & 1 else aux.helper_colors(a, x)[0]
        flipped[a] = (a, x, color)
        w = a
    edges = tuple(sorted(flipped.get(a, (a, x, REAL)) for a, x in mp.items()))
    rm = RainbowMatching(edges=edges, forced=forced)
    _validate_rainbow(aux, rm, question)
    return rm


def rainbow_pm_bruteforce(aux: AuxiliaryGraph, u: int, v: int) -> tuple[bool, bool]:
    """(some perfect matching of the pair adjacency pairs v with one of the
    attack's partners, some rainbow tagged one does), by exhaustive search.

    A depth-first search over ``pair_adjacency``: v takes each of its
    partners in turn, ascending, and then every other left vertex, ascending,
    takes each free right neighbour in turn, so it reaches every perfect
    matching that pairs v with a partner exactly once.  Each matching is
    tested once for a rainbow tag choice: a real pair takes REAL, which uses
    no color, so the matching has one exactly when its helper-only pairs can
    take distinct colors (``_distinct_colors``).  The search stops at the
    first rainbow matching.  It reads no alternating tree and not the
    all-real matching.  It refuses the attacks that ``_question`` refuses,
    and covers larger than the cover number (not both minimum).
    """
    partners, _, _ = _question(aux, u, v)
    g = aux.graph
    if aux.s_mask.bit_count() != mvc_mask(g, g.full_mask):
        raise IntegrityError("the covers are not both minimum")
    adj = g.adj_mask
    rows = {w: mask_of(vs) for w, vs in aux.pair_adjacency.items()}
    helper_only: list[tuple[int, ...]] = []  # the color choices of each
    any_match = False

    def search(order: list[int], i: int, used: int) -> bool:
        nonlocal any_match
        if i == len(order):
            any_match = True
            return _distinct_colors(helper_only)
        w = order[i]
        for x in bits(rows[w] & ~used):
            real = adj[w] >> x & 1
            if not real:
                helper_only.append(aux.helper_colors(w, x))
            if search(order, i + 1, used | 1 << x):
                return True
            if not real:
                helper_only.pop()
        return False

    for w in aux.left:
        if partners >> w & 1 and rows[w] >> v & 1:
            if not adj[w] >> v & 1:
                helper_only.append(aux.helper_colors(w, v))
            if search([x for x in aux.left if x != w], 0, 1 << v):
                return True, True
            helper_only.clear()
    return any_match, False


def _distinct_colors(choices: list[tuple[int, ...]]) -> bool:
    """Whether each tuple of colors can give its own color, none shared: a
    matching of the tuples to colors that saturates the tuples."""
    if len(choices) < 2:
        return True  # a helper-only pair has at least one color
    pair = hopcroft_karp(range(len(choices)), dict(enumerate(choices)))
    return len(pair) == len(choices)


def matching_to_paths(aux: AuxiliaryGraph, rm: RainbowMatching, u: int) -> GuardPaths:
    """Expand a rainbow matching into vertex-disjoint guard chains, for the
    attack on the guard u.

    Real edges become single steps; a helper edge of color i threads through
    H_i (``_helper_chain``) to a neighbour of its right end.  The forced
    pair's helper chain ends at u instead, so that it crosses the attacked
    edge; u is ignored when the forced pair is REAL.
    """
    g = aux.graph
    paths = []
    for edge in rm.edges:
        a, b, tag = edge
        if tag == REAL:
            paths.append((a, b))
        else:
            ends = 1 << u if edge == rm.forced else g.adj_mask[b]
            paths.append(_helper_chain(aux, edge, ends))
    paths = tuple(paths)
    _validate_defense_paths(g, aux, paths)
    return paths


def _helper_chain(
    aux: AuxiliaryGraph, edge: tuple[int, int, int], ends: int
) -> tuple[int, ...]:
    """The chain of the helper pair ``(u, v, color)``: u, the shortest
    interior inside the color's component (lexicographic ties) from a
    neighbour of u to a vertex of the mask ``ends``, then v; read off the
    pair's chain tree of (color, u)."""
    u, v, tag = edge
    interior = _read_chain(aux.chain_tree(tag, u), ends)
    if interior is None:
        raise IntegrityError("color component fails to connect the helper edge")
    return (u, *interior, v)


def _chain_tree(g: Graph, cmask: int, sources_mask: int) -> tuple[list[int], dict[int, int]]:
    """Breadth-first tree inside ``cmask`` from the sources in it: its
    layers as masks, and for each vertex past the first layer the vertex it
    is reached from, the smallest neighbour in the layer before."""
    frontier = sources_mask & cmask
    adj = g.adj_mask
    layers = []
    prev: dict[int, int] = {}
    seen = frontier
    while frontier:
        layers.append(frontier)
        nxt = 0
        rest = frontier
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            new = adj[v] & cmask & ~seen
            seen |= new
            nxt |= new
            while new:
                w = new & -new
                new ^= w
                prev[w.bit_length() - 1] = v
        frontier = nxt
    return layers, prev


def _read_chain(tree: tuple[list[int], dict[int, int]], targets_mask: int):
    """Shortest path of ``tree`` from a source to a target of the mask:
    the smallest target of the first layer that holds one, back along the
    tree; None when no layer does."""
    layers, prev = tree
    for layer in layers:
        hit = layer & targets_mask
        if hit:
            cur = (hit & -hit).bit_length() - 1
            path = [cur]
            while cur in prev:
                cur = prev[cur]
                path.append(cur)
            return tuple(reversed(path))
    return None


def _validate_defense_paths(g: Graph, aux: AuxiliaryGraph, paths: GuardPaths) -> None:
    adj, dead = g.adj_mask, aux.dead_mask
    used = 0
    for p in paths:
        for a, b in zip(p, p[1:]):
            if not adj[a] >> b & 1:
                raise IntegrityError("defense path uses a non-edge")
        for x in p:
            bit = 1 << x
            if used & bit:
                raise IntegrityError("defense paths are not vertex-disjoint")
            used |= bit
            if dead & bit:
                raise IntegrityError("defense path enters the dead zone")


# -- the defense scan --------------------------------------------------------


@dataclass(frozen=True)
class Defense:
    target: tuple[int, ...]
    paths: GuardPaths


VERIFY_SIDES_CAP = 10  # brute force enumerates every perfect matching


@dataclass
class DefenseStats:
    """Optional instrumentation, taken at each ``DefenseContext.defends``
    ask: the yes/no answer, the witness search and brute force compared on
    pairs with at most ``VERIFY_SIDES_CAP`` vertices per side.  The answer
    and the witness read one alternating tree, so brute force is the
    independent check.  ``cpu_s`` is the CPU time (``time.process_time``)
    that the comparisons took."""

    instances: int = 0
    mismatches: int = 0
    cpu_s: float = 0.0


class DefenseContext:
    """Caches, for the scans of one graph, each cover pair's auxiliary graph
    (the mask record of ``build_aux``, with the alternating trees and chain
    trees it keeps) and one entry per (S, T, question) that holds the
    question's rainbow matching, or None when no matching answers it.

    All are exact: the auxiliary graph (with the views and trees it caches)
    is a pure function of (S, T), and ``rainbow_pm_with_edge`` a
    deterministic pure function of the auxiliary graph and the question.
    The question of a guard of S n T names its shared component and not the
    guard, so all guards of one shared component share its entry; each
    ``witness`` expands the entry's matching through its own attacked guard.

    With ``stats``, each ``defends`` ask compares the yes/no answer, the
    entry's matching and brute force; ``witness`` records nothing.
    """

    def __init__(self, g: Graph, stats: DefenseStats | None = None):
        self.g = g
        self.stats = stats
        self._aux: dict[tuple[tuple[int, ...], tuple[int, ...]], AuxiliaryGraph] = {}
        # (S, T, question) -> its rainbow matching or None
        self._entries: dict[tuple, RainbowMatching | None] = {}

    def aux_for(self, s, t) -> AuxiliaryGraph:
        aux = self._aux.get((s, t))
        if aux is None:
            aux = self._aux[(s, t)] = build_aux(self.g, s, t)
        return aux

    def _matching(self, key, aux, attack) -> RainbowMatching | None:
        """The entry of ``key``, the attack's (S, T, question): its matching
        ``rainbow_pm_with_edge(aux, *attack)``, computed on first use."""
        if key not in self._entries:
            self._entries[key] = rainbow_pm_with_edge(aux, *attack)
        return self._entries[key]

    def defends(self, s, attack: tuple[int, int], t) -> bool:
        """Whether cover ``t`` answers the attack ``(u, v)`` on cover ``s``,
        decided on v's alternating tree without a witness:
        ``witness(s, attack, t)`` returns guard paths exactly when this is
        True.  False when v is not in t; otherwise the attack is refused
        as ``witness`` refuses it (u off s, v in s, uv not an edge)."""
        if attack[1] not in t:
            return False
        aux = self.aux_for(s, t)
        question = _question(aux, *attack)
        answer = aux.pairs_with(attack[1], question[0])
        if self.stats is not None and aux.side_size <= VERIFY_SIDES_CAP:
            start = time.process_time()
            self.stats.instances += 1
            search = self._matching((s, t, question), aux, attack) is not None
            any_match, _ = rainbow_pm_bruteforce(aux, *attack)
            if not answer == search == any_match:
                self.stats.mismatches += 1
            self.stats.cpu_s += time.process_time() - start
        return answer

    def witness(self, s, attack: tuple[int, int], t) -> GuardPaths | None:
        """The guard paths by which cover ``t`` answers the attack ``(u, v)``
        on cover ``s`` (u in s, v in t - s), or None when it does not: the
        matching rm of the question's entry, expanded through u by
        ``matching_to_paths(aux, rm, u)``.
        """
        aux = self.aux_for(s, t)
        rm = self._matching((s, t, _checked_question(aux, *attack)), aux, attack)
        return None if rm is None else matching_to_paths(aux, rm, attack[0])


def check_defense(
    g: Graph,
    s: tuple[int, ...],
    attacked: tuple[int, int],
    candidates,
    ctx: DefenseContext | None = None,
) -> Defense | None:
    """First candidate cover that defends the attacked edge from ``s``, or
    None when none does.

    The attack names an edge with exactly one endpoint in ``s``; attacks
    inside the cover are answered upstream by swapping the two guards.
    Candidates are scanned in their given (canonical) order, each decided by
    ``DefenseContext.witness``, so a defense always comes with its witness.
    """
    if ctx is None:
        ctx = DefenseContext(g)
    a, b = attacked
    if not g.has_edge(a, b):
        raise PreconditionError("attacked pair is not an edge")
    s_set = set(s)
    if a in s_set and b not in s_set:
        u, v = a, b
    elif b in s_set and a not in s_set:
        u, v = b, a
    else:
        raise PreconditionError(
            "attacked edge must have exactly one endpoint in the cover"
        )
    for t in candidates:
        if v in t:
            paths = ctx.witness(s, (u, v), t)
            if paths is not None:
                return Defense(target=t, paths=paths)
    return None
