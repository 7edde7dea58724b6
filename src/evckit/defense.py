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

The reducer turns an arbitrary mode-satisfying perfect matching into a
rainbow one by superposing it with an all-real perfect matching and applying
exchange steps along the unique surviving alternating cycle; every exchange
strictly grows the overlap with the all-real matching, which bounds the loop.

The decider asks about one cover pair (S, T) many times.  Everything the
reducer derives from the auxiliary graph alone (the all-real matching and its
reverse, the pair adjacency, the helper colors per pair, the color masks,
S n T, and the perfect matching left after removing each skipped pair) is
cached on the auxiliary graph, and ``DefenseContext`` keeps one auxiliary
graph per (S, T) and one reducer answer per (S, T, mode).  Each is a pure
function of its key, so cached and recomputed answers are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import IntegrityError, PreconditionError
from .graph import Graph, bits, mask_components, mask_of
from .matching import hopcroft_karp
from .reachability import PathSystem

REAL = -1  # tag for real edges; helper tags are color indices >= 0


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
    def shared(self) -> tuple[int, ...]:
        """S n T, where guard chains may pass through."""
        return tuple(bits(mask_of(self.cover_s) & mask_of(self.cover_t)))

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
    def _rest_pairings(self) -> dict[tuple[int, int], dict[int, int] | None]:
        return {}


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
    for name, cover in (("s", s), ("t", t)):
        cm = mask_of(cover)
        for u, v in g.edges:
            if not (cm >> u & 1) and not (cm >> v & 1):
                raise PreconditionError(f"cover {name} misses edge "
                                        f"{g.labels[u]} {g.labels[v]}")
    sm, tm = mask_of(s), mask_of(t)
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


def _perfect_pairing(
    aux: AuxiliaryGraph, skip: tuple[int, int]
) -> dict[int, int] | None:
    """Perfect matching of the pair adjacency without the two ``skip``
    vertices, or None; memoized on ``aux``, so callers must copy it."""
    memo = aux._rest_pairings
    if skip not in memo:
        lefts = [u for u in aux.left if u not in skip]
        adj = {
            u: tuple(v for v in aux.pair_adjacency[u] if v not in skip)
            for u in lefts
        }
        pair = hopcroft_karp(lefts, adj)
        memo[skip] = pair if len(pair) == len(lefts) else None
    return memo[skip]


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


def _assign_tags(
    aux: AuxiliaryGraph, pairing: dict[int, int], forced: tuple[int, int, int]
) -> dict[int, tuple[int, int]]:
    """Map left -> (right, tag); real preferred, forced pair keeps its tag."""
    out: dict[int, tuple[int, int]] = {}
    fu, fv, ftag = forced
    for u, v in pairing.items():
        if u == fu:
            if v != fv:
                raise IntegrityError("forced pair missing from pairing")
            out[u] = (v, ftag)
        elif (u, v) in aux.real_pairs:
            out[u] = (v, REAL)
        else:
            colors = aux.helper_colors(u, v)
            if not colors:
                raise IntegrityError("matched pair is not an auxiliary edge")
            out[u] = (v, colors[0])
    return out


def _reduce_to_rainbow(
    aux: AuxiliaryGraph,
    matched: dict[int, tuple[int, int]],
    protected_right: int,
) -> dict[int, tuple[int, int]]:
    """Exchange reduction: protect the edge matched at ``protected_right``
    (its tag survives; its left partner may legally change), end with at most
    one helper edge per color.

    Invariant between steps: matched stays a perfect matching whose edge at
    the protected right vertex satisfies the caller's mode; every rewiring
    strictly increases overlap with the all-real matching, which
    bounds the loop by the side size.
    """
    mp = aux.real_pm
    mp_rev = aux.real_pm_reverse
    guard = 2 * aux.side_size + 4
    for _ in range(guard):
        # realign tags: prefer the real tag wherever the pair admits it
        for u, (v, tag) in list(matched.items()):
            if v != protected_right and tag != REAL and (u, v) in aux.real_pairs:
                matched[u] = (v, REAL)
        protected_left = next(
            u for u, (v, _) in matched.items() if v == protected_right
        )
        # cycle structure of matched vs mp over the left side
        seen: set[int] = set()
        cycles: list[list[int]] = []
        for u0 in aux.left:
            if u0 in seen:
                continue
            cyc = []
            u = u0
            while u not in seen:
                seen.add(u)
                cyc.append(u)
                u = mp_rev[matched[u][0]]
            if len(cyc) > 1:
                cycles.append(cyc)
        # realign every cycle avoiding the protected edge onto mp (all real)
        progressed = False
        for cyc in cycles:
            if protected_left in cyc:
                continue
            for u in cyc:
                matched[u] = (mp[u], REAL)
            progressed = True
        by_color: dict[int, list[int]] = {}
        for u, (v, tag) in matched.items():
            if tag != REAL:
                by_color.setdefault(tag, []).append(u)
        dup_colors = sorted(c for c, us in by_color.items() if len(us) > 1)
        if not dup_colors:
            return matched
        if progressed:
            continue
        # all duplicates now lie on the single cycle through the protected edge
        cyc = next(c for c in cycles if protected_left in c)
        order = cyc[cyc.index(protected_left):] + cyc[: cyc.index(protected_left)]
        color = dup_colors[0]
        positions = sorted(order.index(u) for u in by_color[color])
        _exchange_on_cycle(aux, matched, order, positions, color)
    raise IntegrityError("rainbow reduction failed to terminate")


def _exchange_on_cycle(aux, matched, order, positions, color) -> None:
    """One rewiring step killing a duplicated color on the protected cycle.

    ``order`` lists the cycle's left vertices starting at the protected edge.
    Writing v_i for the matched partner of order[i], the cycle alternates
    matched pairs (u_i, v_i) with all-real pairs (u_{i+1}, v_i), so a segment
    can be slid onto the real side and closed with one color shortcut.
    """
    t = len(order)
    if positions[0] == 0:
        # the protected edge itself carries the color; hand the protected
        # right vertex to the other duplicate via the color shortcut
        p = positions[1]
        v0 = matched[order[0]][0]
        up = order[p]
        if not _has_helper(aux, up, v0, color):
            raise IntegrityError("missing color shortcut for protected exchange")
        new = {}
        for j in range(p, t):
            nxt = order[(j + 1) % t]
            new[nxt] = (matched[order[j]][0], REAL)  # slide onto real pairs
        new[up] = (v0, color)
        matched.update(new)
    else:
        p, q = positions[0], positions[1]
        up, vq = order[p], matched[order[q]][0]
        if not _has_helper(aux, up, vq, color):
            raise IntegrityError("missing color shortcut for exchange")
        new = {}
        for j in range(p, q):
            new[order[j + 1]] = (matched[order[j]][0], REAL)
        new[up] = (vq, color)
        matched.update(new)


def _has_helper(aux: AuxiliaryGraph, u: int, v: int, color: int) -> bool:
    return color in aux.helper_colors(u, v)


def _validate_rainbow(aux: AuxiliaryGraph, rm: RainbowMatching) -> None:
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
    if rm.forced not in rm.edges:
        raise IntegrityError("forced edge missing from rainbow matching")


def rainbow_pm_with_edge(
    aux: AuxiliaryGraph,
    *,
    forced_real: tuple[int, int] | None = None,
    partner_adjacent: tuple[int, int] | None = None,
) -> RainbowMatching | None:
    """Rainbow perfect matching satisfying one of two modes.

    ``forced_real=(u, v)``: the matching must contain the real edge uv.
    ``partner_adjacent=(v, color)``: the matched partner w of the right
    vertex v must have a neighbor in that color's component; the pair (w, v)
    is carried as the color's helper edge.

    Returns None exactly when no perfect matching (rainbow or not) satisfies
    the mode; when one exists the exchange reduction always lands on a
    rainbow witness.
    """
    if (forced_real is None) == (partner_adjacent is None):
        raise PreconditionError("exactly one mode must be given")
    if aux.side_size == 0:
        raise PreconditionError("empty auxiliary graph has no forced matching")
    aux.real_pm  # raises when the covers are not both minimum

    if forced_real is not None:
        u, v = forced_real
        if (u, v) not in aux.real_pairs:
            raise PreconditionError("forced edge must be a real auxiliary edge")
        rest = _perfect_pairing(aux, (u, v))
        if rest is None:
            return None
        pairing = dict(rest)
        pairing[u] = v
        matched = _assign_tags(aux, pairing, (u, v, REAL))
        matched = _reduce_to_rainbow(aux, matched, v)
        forced_edge = (u, v, REAL)
    else:
        v, color = partner_adjacent
        if v not in aux.right:
            raise PreconditionError("partner mode needs a right-side vertex")
        if not 0 <= color < len(aux.colors):
            raise PreconditionError("unknown color component")
        cmask = aux.color_masks[color]
        g = aux.graph
        if not g.adj_mask[v] & cmask:
            raise PreconditionError(
                "right vertex has no neighbor in the requested component"
            )
        candidates = [w for w in aux.left if g.adj_mask[w] & cmask]
        result = None
        for w in candidates:
            rest = _perfect_pairing(aux, (w, v))
            if rest is None:
                continue
            pairing = dict(rest)
            pairing[w] = v
            matched = _assign_tags(aux, pairing, (w, v, color))
            matched = _reduce_to_rainbow(aux, matched, v)
            result = matched
            break
        if result is None:
            return None
        matched = result
        forced_left = next(u for u, (vv, _) in matched.items() if vv == v)
        forced_edge = (forced_left, v, matched[forced_left][1])
    edges = tuple(sorted((u, vv, tag) for u, (vv, tag) in matched.items()))
    rm = RainbowMatching(edges=edges, forced=forced_edge)
    _validate_rainbow(aux, rm)
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


def rainbow_pm_bruteforce(
    aux: AuxiliaryGraph,
    *,
    forced_real: tuple[int, int] | None = None,
    partner_adjacent: tuple[int, int] | None = None,
) -> tuple[bool, bool]:
    """(mode-satisfiable at all, rainbow-and-mode-satisfiable) by enumeration."""
    g = aux.graph
    any_mode = False
    any_rainbow = False
    for pm in enumerate_tagged_pms(aux):
        if forced_real is not None:
            u, v = forced_real
            ok = any(e[0] == u and e[1] == v and e[2] == REAL for e in pm)
        else:
            v, color = partner_adjacent
            cmask = aux.color_masks[color]
            ok = any(e[1] == v and g.adj_mask[e[0]] & cmask for e in pm)
        if not ok:
            continue
        any_mode = True
        colors_used = [e[2] for e in pm if e[2] != REAL]
        if len(colors_used) == len(set(colors_used)):
            any_rainbow = True
            break
    return any_mode, any_rainbow


def matching_to_paths(
    g: Graph,
    aux: AuxiliaryGraph,
    rm: RainbowMatching,
    via: dict[tuple[int, int], int] | None = None,
) -> PathSystem:
    """Expand a rainbow matching into vertex-disjoint guard chains.

    Real edges become single steps; a helper edge of color i threads through
    H_i (shortest interior, lexicographic ties).  ``via`` may pin an interior
    vertex for specific pairs, which the defense scan uses to route the
    forced chain through the attacked cover vertex.
    """
    paths = []
    for u, v, tag in rm.edges:
        if tag == REAL:
            paths.append((u, v))
            continue
        cmask = aux.color_masks[tag]
        start_opts = g.adj_mask[u] & cmask
        end_opts = g.adj_mask[v] & cmask
        if not start_opts or not end_opts:
            raise IntegrityError("helper edge endpoints lost their component contact")
        through = via.get((u, v)) if via else None
        interior = _interior_path(g, cmask, start_opts, end_opts, through)
        paths.append((u, *interior, v))
    ps = PathSystem(
        paths=tuple(paths),
        sources=aux.left,
        sinks=aux.right,
        allowed_interior=aux.shared,
    )
    _validate_defense_paths(g, aux, ps)
    return ps


def _interior_path(
    g: Graph, cmask: int, start_opts: int, end_opts: int, through: int | None
) -> tuple[int, ...]:
    if through is not None:
        if not (cmask >> through & 1):
            raise PreconditionError("via vertex outside the color component")
        first = _bfs_inside(g, cmask, start_opts, 1 << through)
        if first is None:
            raise IntegrityError("no interior route to the via vertex")
        return first
    direct = _bfs_inside(g, cmask, start_opts, end_opts)
    if direct is None:
        raise IntegrityError("color component fails to connect the helper edge")
    return direct


def _bfs_inside(g, cmask: int, sources_mask: int, targets_mask: int):
    """Shortest path inside ``cmask`` from any source to any target, both
    given as masks of component vertices; lexicographic tie-breaks."""
    sources = [v for v in bits(sources_mask & cmask)]
    targets_mask &= cmask
    if not sources or not targets_mask:
        return None
    prev: dict[int, int | None] = {s: None for s in sources}
    frontier = sources
    while frontier:
        for v in frontier:
            if targets_mask >> v & 1:
                path = []
                cur: int | None = v
                while cur is not None:
                    path.append(cur)
                    cur = prev[cur]
                return tuple(reversed(path))
        nxt = []
        for v in frontier:
            for w in bits(g.adj_mask[v] & cmask):
                if w not in prev:
                    prev[w] = v
                    nxt.append(w)
        frontier = sorted(nxt)
    return None


def _validate_defense_paths(g: Graph, aux: AuxiliaryGraph, ps: PathSystem) -> None:
    used: set[int] = set()
    dead = set(aux.dead_zone)
    for p in ps.paths:
        for a, b in zip(p, p[1:]):
            if not g.has_edge(a, b):
                raise IntegrityError("defense path uses a non-edge")
        for x in p:
            if x in used:
                raise IntegrityError("defense paths are not vertex-disjoint")
            used.add(x)
            if x in dead:
                raise IntegrityError("defense path enters the dead zone")


# -- the defense scan --------------------------------------------------------


@dataclass(frozen=True)
class Defense:
    target: tuple[int, ...]
    paths: PathSystem
    condition: int  # 1 = partner leaves, 2 = chain through the shared part
    matching: RainbowMatching


@dataclass(frozen=True)
class DefenseFailure:
    reasons: tuple[tuple[tuple[int, ...], str], ...]


@dataclass
class DefenseStats:
    """Optional instrumentation: reducer calls cross-checked by brute force."""

    verify_sides_cap: int = 10
    instances: int = 0
    mismatches: int = 0
    failures: list = field(default_factory=list)


class DefenseContext:
    """Caches, for the scans of one graph, each cover pair's auxiliary graph
    and the reducer's answer per (S, T, mode).

    Both are exact: the auxiliary graph (with the views it caches) is a pure
    function of (S, T), and ``rainbow_pm_with_edge`` a deterministic pure
    function of the auxiliary graph and the mode.  The partner mode names
    (v, color of u's shared component) and not the attacked guard u, so all
    guards of one shared component share its answer.  Guard chains are still
    expanded and checked per defense, since they route through u.
    """

    def __init__(self, g: Graph, stats: DefenseStats | None = None):
        self.g = g
        self.stats = stats
        self._aux: dict[tuple[tuple[int, ...], tuple[int, ...]], AuxiliaryGraph] = {}
        self._rainbow: dict[tuple, RainbowMatching | None] = {}

    def aux_for(self, s, t) -> AuxiliaryGraph:
        key = (s, t)
        if key not in self._aux:
            self._aux[key] = build_aux(self.g, s, t)
        return self._aux[key]

    def rainbow_for(self, s, t, mode) -> RainbowMatching | None:
        """``rainbow_pm_with_edge(aux_for(s, t), **{kind: arg})`` for
        ``mode = (kind, arg)``, computed once per (s, t, mode)."""
        key = (s, t, mode)
        if key not in self._rainbow:
            kind, arg = mode
            aux = self.aux_for(s, t)
            self._rainbow[key] = rainbow_pm_with_edge(aux, **{kind: arg})
        return self._rainbow[key]


def check_defense(
    g: Graph,
    s: tuple[int, ...],
    attacked: tuple[int, int],
    candidates,
    ctx: DefenseContext | None = None,
) -> Defense | DefenseFailure:
    """First candidate cover that defends the attacked edge from ``s``.

    The attack names an edge with exactly one endpoint in ``s``; attacks
    inside the cover are answered upstream by swapping the two guards.
    Candidates are scanned in their given (canonical) order.
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
    reasons = []
    for t in candidates:
        if v not in t:
            reasons.append((t, "attacked endpoint not in candidate"))
            continue
        outcome = _try_candidate(g, s, t, u, v, ctx)
        if isinstance(outcome, str):
            reasons.append((t, outcome))
            continue
        return outcome
    return DefenseFailure(reasons=tuple(reasons))


def _try_candidate(g, s, t, u, v, ctx: DefenseContext):
    aux = ctx.aux_for(s, t)
    if u not in t:
        mode = ("forced_real", (u, v))
        rm = ctx.rainbow_for(s, t, mode)
        _record_stats(ctx, aux, mode, rm)
        if rm is None:
            return "no perfect matching through the attacked edge"
        paths = matching_to_paths(g, aux, rm)
        return Defense(target=t, paths=paths, condition=1, matching=rm)
    # the attacked guard keeps its post: thread the chain through u's
    # component of the shared part
    color = next(i for i, comp in enumerate(aux.colors) if u in comp)
    mode = ("partner_adjacent", (v, color))
    rm = ctx.rainbow_for(s, t, mode)
    _record_stats(ctx, aux, mode, rm)
    if rm is None:
        return "no matching whose partner reaches the attacked component"
    fu, fv, ftag = rm.forced
    paths = matching_to_paths(g, aux, rm, via={(fu, fv): u})
    # the forced chain ends ...-> u -> v by construction of the via route
    return Defense(target=t, paths=paths, condition=2, matching=rm)


def _record_stats(ctx: DefenseContext, aux, mode, rm) -> None:
    stats = ctx.stats
    if stats is None or aux.side_size > stats.verify_sides_cap:
        return
    stats.instances += 1
    kind, arg = mode
    any_mode, _ = rainbow_pm_bruteforce(aux, **{kind: arg})
    if any_mode != (rm is not None):
        stats.mismatches += 1
        stats.failures.append((aux.cover_s, aux.cover_t, mode))
