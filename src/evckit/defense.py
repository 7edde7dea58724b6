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
tuple of left partners, and the pair carries one tag.  A guard u of S - T
must step onto v itself, so the partners are (u,) and the tag is REAL.  A
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
search; brute-force enumeration (``rainbow_pm_bruteforce``) and the game
solver (``is_spartan(g, method="game")``) are the independent checks.

The decider asks about one cover pair (S, T) many times.  Everything the
search derives from the auxiliary graph alone (the all-real matching and
its reverse, the pair adjacency, the alternating tree per right vertex, the
helper colors per pair, the color masks and each shared component's
partners) is cached on the auxiliary graph, and ``DefenseContext`` keeps one
auxiliary graph per (S, T) and one entry per (S, T, question): the witness
and the guard chains expanded from it (``matching_to_paths``).  Only the
forced pair's helper chain routes through the attacked guard, so it alone
is expanded per transition.  Each is a pure function of its key, so cached
and recomputed answers are identical.  Optional ``DefenseStats`` are taken
at one ask, ``defends``, and read the witness from the same entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import IntegrityError, PreconditionError
from .graph import Graph, bits, mask_components, mask_of
from .matching import alternating_tree, hopcroft_karp

REAL = -1  # tag for real edges; helper tags are color indices >= 0
# vertex-disjoint guard chains, each from a vacated vertex of S - T to a
# newly occupied one of T - S, interiors inside S n T
GuardPaths = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AuxiliaryGraph:
    graph: Graph
    cover_s: tuple[int, ...]
    cover_t: tuple[int, ...]
    left: tuple[int, ...]  # S - T
    right: tuple[int, ...]  # T - S
    colors: tuple[tuple[int, ...], ...]  # components of G[S n T]
    real_pairs: frozenset[tuple[int, int]]
    helper_pairs: tuple[tuple[int, int, int], ...]  # (u, v, color)
    dead_zone: tuple[int, ...]

    # The views below are pure functions of the fields; the cached ones are
    # computed on first use (the instance is frozen, like ``Graph``).

    @property
    def side_size(self) -> int:
        return len(self.left)

    @cached_property
    def color_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(c) for c in self.colors)

    @cached_property
    def dead_mask(self) -> int:
        return mask_of(self.dead_zone)

    @cached_property
    def _helper_index(self) -> dict[tuple[int, int], tuple[int, ...]]:
        index: dict[tuple[int, int], tuple[int, ...]] = {}
        for u, v, c in self.helper_pairs:  # sorted, so colors ascend
            index[(u, v)] = index.get((u, v), ()) + (c,)
        return index

    def helper_colors(self, u: int, v: int) -> tuple[int, ...]:
        return self._helper_index.get((u, v), ())

    @cached_property
    def pair_adjacency(self) -> dict[int, tuple[int, ...]]:
        """Left -> rights connected by at least one (real or helper) edge."""
        nbrs: dict[int, set[int]] = {u: set() for u in self.left}
        for u, v in self.real_pairs:
            nbrs[u].add(v)
        for u, v, _ in self.helper_pairs:
            nbrs[u].add(v)
        return {u: tuple(sorted(vs)) for u, vs in nbrs.items()}

    @cached_property
    def real_pm(self) -> dict[int, int]:
        """``all_real_pm(self)``; an IntegrityError is raised again on each use."""
        return all_real_pm(self)

    @cached_property
    def real_pm_reverse(self) -> dict[int, int]:
        return {v: u for u, v in self.real_pm.items()}

    @cached_property
    def _trees(self) -> dict[int, dict[int, int | None]]:
        return {}

    def alternating_tree(self, v: int) -> dict[int, int | None]:
        """``matching.alternating_tree`` of the pair adjacency over
        ``real_pm`` from v's partner, kept per right vertex v: the left
        vertices some perfect matching pairs with v, in discovery order."""
        tree = self._trees.get(v)
        if tree is None:
            rev = self.real_pm_reverse
            tree = self._trees[v] = alternating_tree(self.pair_adjacency, rev, rev[v])
        return tree

    def in_some_pm(self, u: int, v: int) -> bool:
        """Whether the pair (u, v) of the pair adjacency lies in some perfect
        matching of it."""
        return u in self.alternating_tree(v)

    @cached_property
    def shared_partners(self) -> dict[int, tuple[tuple[int, ...], int]]:
        """Vertex of S n T -> (left vertices touching its component, the
        component's color)."""
        adj = self.graph.adj_mask
        out = {}
        for color, (comp, cmask) in enumerate(zip(self.colors, self.color_masks)):
            entry = (tuple(w for w in self.left if adj[w] & cmask), color)
            out.update(dict.fromkeys(comp, entry))
        return out


@dataclass(frozen=True)
class RainbowMatching:
    """Perfect matching of an auxiliary graph, each pair tagged real or
    (helper, color); at most one helper edge per color."""

    edges: tuple[tuple[int, int, int], ...]  # (u, v, tag) with tag REAL or color
    forced: tuple[int, int, int]


def build_aux(g: Graph, s, t) -> AuxiliaryGraph:
    """Construct the auxiliary graph for covers ``s`` and ``t``."""
    s = tuple(sorted(s))
    t = tuple(sorted(t))
    if len(s) != len(t):
        raise PreconditionError("covers must have equal size")
    sm, tm = mask_of(s), mask_of(t)
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
    left = tuple(bits(sm & ~tm))
    right = tuple(bits(tm & ~sm))
    shared = sm & tm
    colors = tuple(tuple(bits(c)) for c in mask_components(g, shared))
    color_masks = [mask_of(c) for c in colors]
    # the sides live inside independent sets, so no edge joins two left or
    # two right vertices; assert that two-colorability here
    lm, rm = mask_of(left), mask_of(right)
    for side_mask in (lm, rm):
        for v in bits(side_mask):
            if g.adj_mask[v] & side_mask:
                raise IntegrityError("auxiliary graph sides are not independent")
    real = frozenset(
        (u, v) for u in left for v in bits(g.adj_mask[u] & rm)
    )
    helpers = []
    for ci, cmask in enumerate(color_masks):
        touch_left = [u for u in left if g.adj_mask[u] & cmask]
        touch_right = [v for v in right if g.adj_mask[v] & cmask]
        for u in touch_left:
            for v in touch_right:
                helpers.append((u, v, ci))
    return AuxiliaryGraph(
        graph=g,
        cover_s=s,
        cover_t=t,
        left=left,
        right=right,
        colors=colors,
        real_pairs=real,
        helper_pairs=tuple(sorted(helpers)),
        dead_zone=tuple(bits(g.full_mask & ~(sm | tm))),
    )


def all_real_pm(aux: AuxiliaryGraph) -> dict[int, int]:
    """Perfect matching using real edges only (guaranteed for minimum covers)."""
    adj: dict[int, list[int]] = {u: [] for u in aux.left}
    for u, v in sorted(aux.real_pairs):
        adj[u].append(v)
    pair = hopcroft_karp(list(aux.left), {u: tuple(vs) for u, vs in adj.items()})
    if len(pair) != len(aux.left):
        raise IntegrityError(
            "no all-real perfect matching; the covers are not both minimum"
        )
    return pair


def _validate_rainbow(aux: AuxiliaryGraph, rm: RainbowMatching, question: tuple) -> None:
    lefts = {e[0] for e in rm.edges}
    rights = {e[1] for e in rm.edges}
    if lefts != set(aux.left) or rights != set(aux.right):
        raise IntegrityError("rainbow matching is not perfect")
    if len(rm.edges) != aux.side_size:
        raise IntegrityError("rainbow matching has repeated endpoints")
    used_colors: set[int] = set()
    for u, v, tag in rm.edges:
        if tag == REAL:
            if (u, v) not in aux.real_pairs:
                raise IntegrityError("real-tagged pair is not a real edge")
        else:
            if tag not in aux.helper_colors(u, v):
                raise IntegrityError("helper-tagged pair lacks that color")
            if tag in used_colors:
                raise IntegrityError("two helper edges share a color")
            used_colors.add(tag)
    partners, v, tag = question
    fu, fv, ftag = rm.forced
    if fu not in partners or (fv, ftag) != (v, tag) or rm.forced not in rm.edges:
        raise IntegrityError("the forced pair does not answer the question")


def _question(aux: AuxiliaryGraph, u: int, v: int) -> tuple:
    """The matching question of the attack (u, v): ``(partners, v, tag)``,
    asking that v be matched to one of ``partners`` by a pair tagged ``tag``."""
    if u in aux.left:
        return (u,), v, REAL
    # the attacked guard keeps its post: thread the chain through u's
    # component of the shared part
    partners, color = aux.shared_partners[u]
    return partners, v, color


def _checked_question(aux: AuxiliaryGraph, u: int, v: int) -> tuple:
    """``_question`` of the attack (u, v), which must be an edge from S to
    T - S (so both sides are non-empty) between two minimum covers."""
    if u not in aux.cover_s:
        raise PreconditionError("the attacked guard must stand on S")
    if v not in aux.right:
        raise PreconditionError("the attacked vertex must lie in T - S")
    if not aux.graph.has_edge(u, v):
        raise PreconditionError("the attack must be an edge")
    aux.real_pm  # raises when the covers are not both minimum
    return _question(aux, u, v)


def _satisfiable(aux: AuxiliaryGraph, question: tuple) -> bool:
    """Whether some perfect matching answers the question: whether one of
    the partners is in v's alternating tree (no partner, no tree built)."""
    partners, v, _ = question
    return any(aux.in_some_pm(w, v) for w in partners)


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
    parent = aux.alternating_tree(v)
    w = next((w for w in parent if w in partners), None)
    if w is None:
        return None
    mp = aux.real_pm
    forced = (w, v, tag)
    flipped = {w: forced}
    while parent[w] is not None:
        a, x = parent[w], mp[w]
        color = REAL if (a, x) in aux.real_pairs else aux.helper_colors(a, x)[0]
        flipped[a] = (a, x, color)
        w = a
    edges = tuple(sorted(flipped.get(a, (a, x, REAL)) for a, x in mp.items()))
    rm = RainbowMatching(edges=edges, forced=forced)
    _validate_rainbow(aux, rm, question)
    return rm


def enumerate_tagged_pms(aux: AuxiliaryGraph):
    """Every perfect matching of the auxiliary multigraph with every tag
    assignment; brute-force oracle for small sides."""
    lefts = list(aux.left)

    def rec(i: int, used: set[int], acc: list[tuple[int, int, int]]):
        if i == len(lefts):
            yield tuple(acc)
            return
        u = lefts[i]
        for v in aux.right:
            if v in used:
                continue
            options = []
            if (u, v) in aux.real_pairs:
                options.append(REAL)
            options.extend(aux.helper_colors(u, v))
            for tag in options:
                used.add(v)
                acc.append((u, v, tag))
                yield from rec(i + 1, used, acc)
                acc.pop()
                used.remove(v)

    yield from rec(0, set(), [])


def rainbow_pm_bruteforce(aux: AuxiliaryGraph, u: int, v: int) -> tuple[bool, bool]:
    """(some perfect matching pairs v with one of the attack's partners, some
    rainbow tagged one does) by enumeration."""
    partners, _, _ = _checked_question(aux, u, v)
    any_match = False
    for pm in enumerate_tagged_pms(aux):
        if not any(e[1] == v and e[0] in partners for e in pm):
            continue
        any_match = True
        colors_used = [e[2] for e in pm if e[2] != REAL]
        if len(colors_used) == len(set(colors_used)):
            return True, True
    return any_match, False


def matching_to_paths(
    aux: AuxiliaryGraph, rm: RainbowMatching, through: int | None = None
) -> GuardPaths:
    """Expand a rainbow matching into vertex-disjoint guard chains.

    Real edges become single steps; a helper edge of color i threads through
    H_i (``_helper_chain``).  ``through`` pins the last interior vertex of
    the forced pair's helper chain, which the defense scan sets to the
    attacked guard so that the chain crosses the attacked edge.
    """
    g = aux.graph
    paths = []
    for edge in rm.edges:
        u, v, tag = edge
        if tag == REAL:
            paths.append((u, v))
        elif through is not None and edge == rm.forced:
            paths.append(_helper_chain(aux, edge, 1 << through))
        else:
            paths.append(_helper_chain(aux, edge, g.adj_mask[v]))
    paths = tuple(paths)
    _validate_defense_paths(g, aux, paths)
    return paths


def _helper_chain(
    aux: AuxiliaryGraph, edge: tuple[int, int, int], ends: int
) -> tuple[int, ...]:
    """The chain of the helper pair ``(u, v, color)``: u, the shortest
    interior inside the color's component (lexicographic ties) from a
    neighbour of u to a vertex of the mask ``ends``, then v."""
    u, v, tag = edge
    g = aux.graph
    interior = _bfs_inside(g, aux.color_masks[tag], g.adj_mask[u], ends)
    if interior is None:
        raise IntegrityError("color component fails to connect the helper edge")
    return (u, *interior, v)


def _bfs_inside(g, cmask: int, sources_mask: int, targets_mask: int):
    """Shortest path inside ``cmask`` from any source to any target, both
    given as masks of component vertices; lexicographic tie-breaks: the
    smallest target of the first layer that holds one, each vertex reached
    from the smallest vertex of the layer before."""
    frontier = sources_mask & cmask
    targets_mask &= cmask
    if not frontier or not targets_mask:
        return None
    adj = g.adj_mask
    prev: dict[int, int] = {}
    seen = frontier
    while frontier:
        hit = frontier & targets_mask
        if hit:
            cur = (hit & -hit).bit_length() - 1
            path = [cur]
            while cur in prev:
                cur = prev[cur]
                path.append(cur)
            return tuple(reversed(path))
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
    return None


def _validate_defense_paths(g: Graph, aux: AuxiliaryGraph, paths: GuardPaths) -> None:
    adj = g.adj_mask
    dead = aux.dead_mask
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
    independent check."""

    instances: int = 0
    mismatches: int = 0


class DefenseContext:
    """Caches, for the scans of one graph, each cover pair's auxiliary graph
    and one entry per (S, T, question): ``[rainbow matching or None,
    chains]``, the chains filled on the first ``witness`` of an answered
    question.

    All are exact: the auxiliary graph (with the views it caches) is a pure
    function of (S, T), ``rainbow_pm_with_edge`` a deterministic pure
    function of the auxiliary graph and the question, and the chains a pure
    function of the matching.  The question of a guard of S n T names its
    shared component and not the guard, so all guards of one shared
    component share its entry; only the forced pair's helper chain routes
    through the attacked guard, so ``witness`` expands that one per call.

    With ``stats``, each ``defends`` ask compares the yes/no answer, the
    entry's matching and brute force; ``witness`` records nothing.
    """

    def __init__(self, g: Graph, stats: DefenseStats | None = None):
        self.g = g
        self.stats = stats
        self._aux: dict[tuple[tuple[int, ...], tuple[int, ...]], AuxiliaryGraph] = {}
        # (S, T, question) -> [its rainbow matching or None, its matching's
        # chains with the forced pair's index among them and the forced
        # pair, or None until the first witness]
        self._entries: dict[tuple, list] = {}

    def aux_for(self, s, t) -> AuxiliaryGraph:
        aux = self._aux.get((s, t))
        if aux is None:
            aux = self._aux[(s, t)] = build_aux(self.g, s, t)
        return aux

    def _entry(self, key, aux, attack) -> list:
        """The entry of ``key``, the attack's (S, T, question), its matching
        ``rainbow_pm_with_edge(aux, *attack)`` computed on first use."""
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = [rainbow_pm_with_edge(aux, *attack), None]
        return entry

    def defends(self, s, attack: tuple[int, int], t) -> bool:
        """Whether cover ``t`` answers the attack ``(u, v)`` on cover ``s``
        (u in s, v not), decided on the alternating tree without a witness:
        ``witness(s, attack, t)`` returns guard paths exactly when this is
        True."""
        if attack[1] not in t:
            return False
        aux = self.aux_for(s, t)
        question = _question(aux, *attack)
        answer = _satisfiable(aux, question)
        if self.stats is not None and aux.side_size <= VERIFY_SIDES_CAP:
            self.stats.instances += 1
            search = self._entry((s, t, question), aux, attack)[0] is not None
            any_match, _ = rainbow_pm_bruteforce(aux, *attack)
            if not answer == search == any_match:
                self.stats.mismatches += 1
        return answer

    def witness(self, s, attack: tuple[int, int], t) -> GuardPaths | None:
        """The guard paths by which cover ``t`` answers the attack ``(u, v)``
        on cover ``s`` (u in s, v in t - s), or None when it does not.

        The paths are ``matching_to_paths(aux, rm, through=u)`` for the
        matching rm of the question's entry.  The chains that do not route
        through u are expanded once per entry and kept in it; a
        helper-tagged forced chain is expanded here, through u, and the
        whole system is validated again.
        """
        aux = self.aux_for(s, t)
        u, v = attack
        entry = self._entry((s, t, _checked_question(aux, u, v)), aux, attack)
        rm, kept = entry
        if rm is None:
            return None
        if kept is None:
            kept = entry[1] = (
                matching_to_paths(aux, rm),
                rm.edges.index(rm.forced),
                rm.forced,
            )
        paths, i, forced = kept
        if forced[2] == REAL:
            return paths
        # a guard of S n T keeps its post: its color's chain ends ...-> u -> v
        chain = _helper_chain(aux, forced, 1 << u)
        if chain == paths[i]:  # the kept system, validated when expanded
            return paths
        paths = (*paths[:i], chain, *paths[i + 1:])
        _validate_defense_paths(self.g, aux, paths)
        return paths


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
