"""Weakly/strongly good covers and configurations, plus the full necessary-condition battery.

A guard arrangement is *weakly good* when no subset T of the unoccupied
vertices leaves some component of G - T holding only exactly as many guards
as that component's cover number (the attacker could then drag a guard out of
the component and win).  *Strongly good* additionally demands that after the
forced exit of any frontier guard, the remaining guards inside the component
can still reach some cover of the component in a single simultaneous step.

One scan answers both questions: it walks the subsets T of the unoccupied
side (exhaustively, so sound but exponential; the side is capped and a
refusal is explicit) and the components of G - T, and stops once it holds
the first weakly bad and the first strongly bad witness.  ``g._memo`` keeps
the two verdicts with their certificates, keyed by the configuration's guard
count vector (multiset configurations share supports), so the battery and
the acceptance sweep scan each configuration once per graph.

Both questions take a connected graph and a guard count vector (one whole
number of at least 0 per vertex, as in ``reachability``); anything else is
refused.  On a disconnected graph a component that T does not touch may
hold exactly its cover number of guards with no attack able to drain it,
so the weak question loses its meaning there.

The replacement check answers True at once when the remaining guards
already cover every edge of the component: they are then one of the
targets, reached by every guard standing still.  Otherwise it reads the
question on covers, not on target configurations: the guards can regroup
exactly when some cover of the component with at most as many vertices as
guards can take a distinct guard on each vertex from the vertex's closed
neighbourhood, the other guards standing still (the proof is in
``_replacement_reachable``).  The covers are drawn lazily from the cover
search restricted to the component mask, and each is one augmenting-path
check (``reachability.fills``); drawing stops at the first filled one.
``revalidate_bad_set`` keeps no verdict and recomputes every claim.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .covers import (
    cover_configurations,
    enumerate_covers_up_to,
    enumerate_min_vcs,
    min_vc_containing,
    mvc_mask,
)
from .errors import PreconditionError, ResourceLimitError
from .graph import Graph, bits, is_connected, mask_components, mask_of, neighbors_of_set
from .matching import HallWitness, hall_check
from .reachability import _support_masks, counts_of, fills, layered

BAD_SET_SEARCH_CAP = 16  # max size of the unoccupied side we will enumerate
INDEPENDENT_SET_CAP = 18  # exhaustive non-maximal independent set scans


@dataclass(frozen=True)
class BadSetCertificate:
    """Evidence that a guard arrangement is not weakly/strongly good."""

    kind: str  # "weakly_bad" | "strongly_bad"
    support: tuple[int, ...]
    counts: tuple[int, ...]
    bad_set: tuple[int, ...]
    component: tuple[int, ...]
    exit_vertex: int | None = None


def _require_counts(g: Graph, counts) -> None:
    if (
        not isinstance(counts, tuple)
        or len(counts) != g.n
        or any(not isinstance(c, int) or c < 0 for c in counts)
    ):
        raise PreconditionError(
            f"a guard configuration is a tuple of {g.n} whole numbers of at "
            f"least 0, got {counts!r}"
        )


def _support(counts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v for v, c in enumerate(counts) if c)


def _require_cover_support(g: Graph, counts: tuple[int, ...]) -> int:
    sup = mask_of(_support(counts))
    for u, v in g.edges:
        if not (sup >> u & 1) and not (sup >> v & 1):
            raise PreconditionError(
                f"guard support leaves edge {g.labels[u]} {g.labels[v]} uncovered"
            )
    return sup


def _unoccupied_subsets(g: Graph, sup: int):
    """Non-empty subsets of the unoccupied side, by (size, lex) order."""
    free = [v for v in range(g.n) if not (sup >> v & 1)]
    if len(free) > BAD_SET_SEARCH_CAP:
        raise ResourceLimitError(
            f"bad-set search over {len(free)} unoccupied vertices exceeds the cap "
            f"({BAD_SET_SEARCH_CAP})"
        )
    for size in range(1, len(free) + 1):
        for combo in itertools.combinations(free, size):
            yield mask_of(combo)


def _guards_in(counts: tuple[int, ...], comp_mask: int) -> int:
    return sum(counts[v] for v in bits(comp_mask))


def is_weakly_good(
    g: Graph, counts: tuple[int, ...]
) -> tuple[bool, BadSetCertificate | None]:
    """No removable subset of unoccupied vertices pins a component at exactly
    its cover number of guards."""
    return _verdicts(g, counts)[0]


def is_strongly_good(
    g: Graph, counts: tuple[int, ...]
) -> tuple[bool, BadSetCertificate | None]:
    """No subset T of unoccupied vertices admits a component and a frontier
    guard whose forced exit strands the remaining guards (no one-step move to
    a cover of the component with one guard fewer).

    Strongly good implies weakly good on a connected graph; the scan
    re-asserts that implication as an internal cross-check.
    """
    return _verdicts(g, counts)[1]


def _verdicts(g: Graph, counts: tuple[int, ...]):
    """The weak and the strong verdict, kept per guard count vector."""
    _require_counts(g, counts)
    memo = g._memo.setdefault("goodness", {})
    got = memo.get(counts)
    if got is None:
        if not is_connected(g):
            raise PreconditionError("goodness expects a connected graph")
        got = memo[counts] = _bad_set_scan(g, counts)
    return got


def _bad_set_scan(g: Graph, counts: tuple[int, ...]):
    """Walk the subsets T of the unoccupied side in (size, lex) order and the
    components of G - T in mask order, recording the first weakly bad
    (T, component) and the first strongly bad (T, component, exit); stop as
    soon as both are found.  The graph is connected, so a pinned component
    meets T through a guarded vertex: the strong witness comes no later than
    the weak one and the scan ends at the weak witness."""
    sup = _require_cover_support(g, counts)
    weak = strong = None
    for t_mask in _unoccupied_subsets(g, sup):
        frontier = neighbors_of_set(g, t_mask) & sup
        for comp in mask_components(g, g.full_mask & ~t_mask):
            guards = _guards_in(counts, comp)
            need = mvc_mask(g, comp)
            assert guards >= need, "cover support cannot under-fill a component"
            if weak is None and guards == need:
                weak = _certificate("weakly_bad", counts, t_mask, comp)
            exits = frontier & comp
            if strong is None and exits:
                v = _stranding_exit(g, counts, comp, exits, guards, need)
                if v is not None:
                    strong = _certificate("strongly_bad", counts, t_mask, comp, v)
            if weak and strong:
                return (False, weak), (False, strong)
    if weak:
        raise AssertionError(
            "strongly good arrangement failed the weakly-good cross-check"
        )
    return (True, None), (strong is None, strong)


def _certificate(kind, counts, t_mask, comp, exit_vertex=None) -> BadSetCertificate:
    return BadSetCertificate(
        kind=kind,
        support=_support(counts),
        counts=counts,
        bad_set=tuple(bits(t_mask)),
        component=tuple(bits(comp)),
        exit_vertex=exit_vertex,
    )


def _stranding_exit(
    g: Graph, counts: tuple[int, ...], comp: int, exits: int, guards: int, need: int
) -> int | None:
    """The first frontier guard of the component whose forced exit leaves the
    others unable to regroup, or None."""
    if guards == need:
        # the exit leaves too few guards to cover the component at all
        return next(bits(exits))
    for v in bits(exits):
        residual = _residual(counts, comp, v)
        if not _replacement_reachable(g, comp, residual, guards - 1):
            return v
    return None


def _residual(counts, comp_mask: int, exit_vertex: int) -> tuple[int, ...]:
    """The guards inside the component once one has left ``exit_vertex``."""
    residual = [c if comp_mask >> w & 1 else 0 for w, c in enumerate(counts)]
    residual[exit_vertex] -= 1
    return tuple(residual)


def _replacement_reachable(
    g: Graph, comp_mask: int, residual: tuple[int, ...], guards_left: int
) -> bool:
    """Can ``residual`` (guards inside the component, one already gone) reach
    in one step some configuration of ``guards_left`` guards whose support
    covers the component?

    It can exactly when some cover C of the component with at most
    ``guards_left`` vertices is filled: each vertex of C takes its own
    residual guard from its closed neighbourhood, while the other guards
    stand still.  If C is filled, the guards land on C and on the posts of
    those standing still, all inside the component, so the support holds C
    and covers it.  Conversely, a reachable target's support C covers the
    component with at most ``guards_left`` vertices, all inside it, and
    each vertex of C receives a guard from its closed neighbourhood; one
    such guard per vertex fills C.  Whether a cover is filled is a matching
    question, decided by one augmenting-path check (``reachability.fills``;
    P. Hall, 1935).

    The answer is True at once when the residual already covers every edge
    of the component (it is then a target, every guard standing still).
    Otherwise the covers are drawn in ascending mask order from
    ``enumerate_covers_up_to`` and drawing stops at the first filled one;
    a cover holding a vertex that no guard can reach is skipped unrouted.
    """
    support1, near1 = _support_masks(g, residual)
    bare = comp_mask & ~support1
    adj = g.adj_mask
    if not any(adj[v] & bare for v in bits(bare)):
        # the residual is itself a target: every guard stands still
        return True
    slots = max((*residual, 1))
    guards = layered(residual, slots)
    for cover in enumerate_covers_up_to(g, guards_left, comp_mask):
        if cover & ~near1:
            continue  # some vertex of the cover is out of every guard's reach
        need = cover if slots == 1 else sum(1 << v * slots for v in bits(cover))
        if fills(g, need, guards, slots):
            return True
    return False


def revalidate_bad_set(g: Graph, cert: BadSetCertificate) -> bool:
    """Recompute everything a certificate claims, independently of the search."""
    counts = cert.counts
    _require_counts(g, counts)
    sup = mask_of(_support(counts))
    t_mask = mask_of(cert.bad_set)
    if t_mask & sup or not t_mask:
        return False
    comp_mask = mask_of(cert.component)
    if comp_mask not in mask_components(g, g.full_mask & ~t_mask):
        return False
    guards = _guards_in(counts, comp_mask)
    if cert.kind == "weakly_bad":
        return guards == mvc_mask(g, comp_mask)
    if cert.kind == "strongly_bad":
        v = cert.exit_vertex
        if v is None or not (comp_mask >> v & 1) or counts[v] < 1:
            return False
        if not (neighbors_of_set(g, t_mask) >> v & 1):
            return False
        residual = _residual(counts, comp_mask, v)
        return not _replacement_reachable(g, comp_mask, residual, guards - 1)
    return False


# -- the necessary-condition battery ---------------------------------------


CONFIG_ENUMERATION_LIMIT = 200_000
CONFIG_VERTEX_CAP = 10  # largest graph whose configurations are scanned at k > mvc


def count_configurations(g: Graph, k: int) -> int:
    """Number of k-guard configurations whose support is a vertex cover."""
    import math

    total = 0
    for cover_mask in enumerate_covers_up_to(g, k):
        s = cover_mask.bit_count()
        if 0 < s <= k:
            total += math.comb(k - 1, s - 1)
    return total


def necessary_conditions_report(g: Graph, k: int) -> dict:
    """Evaluate every necessary condition for the eternal vertex cover number
    to equal ``k``, with certificates for each failure.

    At ``k == mvc(g)`` this is the Spartan-mode battery.  Any failed condition
    is conclusive: the graph needs more than ``k`` guards.
    """
    from .graph import require_analysis_ready

    require_analysis_ready(g)
    if not is_connected(g):
        raise PreconditionError("the condition battery expects a connected graph")
    cs = enumerate_min_vcs(g)
    if k < cs.size:
        raise PreconditionError(f"k={k} is below the cover number {cs.size}")
    spartan_mode = k == cs.size
    conditions = []

    def add(
        cid,
        description,
        passed,
        certificate=None,
        partial=False,
        conclusive=True,
    ):
        # the first four conditions witness necessity only at k = mvc; above
        # that they stay informational (their failure does not bound evc by k)
        conditions.append(
            {
                "id": cid,
                "description": description,
                "passed": bool(passed),
                "partial": bool(partial),
                "conclusive_at_k": bool(conclusive),
                "certificate": certificate,
                "details": None,
            }
        )

    # (a) every vertex lies in some minimum cover
    failed_vertex = None
    for v in range(g.n):
        if min_vc_containing(g, v) is None:
            failed_vertex = v
            break
    add(
        "vertex-in-min-cover",
        "every vertex belongs to some minimum vertex cover",
        failed_vertex is None,
        certificate=None
        if failed_vertex is None
        else {"kind": "vertex_in_no_min_cover", "vertex": failed_vertex},
        conclusive=spartan_mode,
    )

    # (b) every maximum independent set is saturated into its complement
    sat_cert = None
    partial_b = cs.truncated
    for cover in cs.covers:
        ind = tuple(sorted(set(range(g.n)) - set(cover)))
        res = hall_check(g, ind, cover)
        if isinstance(res, HallWitness):
            _check_cover_claim(g, res, cs)
            sat_cert = {
                "kind": "hall_violator",
                "independent_set": ind,
                "violator": res.violator,
                "neighborhood": res.neighborhood,
            }
            break
    add(
        "independent-set-saturation",
        "every maximum independent set has a matching saturating it into its complement",
        sat_cert is None,
        certificate=sat_cert,
        partial=partial_b,
        conclusive=spartan_mode,
    )

    # (c) cover number at least half the vertex count
    ok_half = 2 * cs.size >= g.n
    add(
        "cover-at-least-half",
        "minimum vertex cover size is at least n/2",
        ok_half,
        certificate=None
        if ok_half
        else {"kind": "mvc_below_half", "mvc": cs.size, "n": g.n},
        conclusive=spartan_mode,
    )

    # (d) no non-maximal independent set with |N(I)| = |I|
    tight_cert = None
    partial_d = g.n > INDEPENDENT_SET_CAP
    if not partial_d:
        tight_cert = _find_tight_independent(g)
    add(
        "no-tight-non-maximal-independent-set",
        "no non-maximal independent set I has |N(I)| = |I|",
        tight_cert is None,
        certificate=tight_cert,
        partial=partial_d,
        conclusive=spartan_mode,
    )

    # (e)/(f) every vertex in the support of a weakly / strongly good k-config
    for cid, desc, checker in (
        ("weakly-good-coverage", "weakly good", is_weakly_good),
        ("strongly-good-coverage", "strongly good", is_strongly_good),
    ):
        cert = None
        partial = False
        if spartan_mode:
            for v in range(g.n):
                holding = [c for c in cs.covers if v in c]
                if not any(checker(g, counts_of(g, c))[0] for c in holding):
                    cert = {
                        "kind": f"no_{cid.replace('-', '_')}",
                        "k": k,
                        "vertex": v,
                        "covers_containing": holding,
                    }
                    break
            partial = cs.truncated
        else:
            if (
                g.n > CONFIG_VERTEX_CAP
                or count_configurations(g, k) > CONFIG_ENUMERATION_LIMIT
            ):
                partial = True
            else:
                covered = set()
                for counts in cover_configurations(g, k):
                    ok, _ = checker(g, counts)
                    if ok:
                        covered.update(_support(counts))
                        if len(covered) == g.n:
                            break
                missing = sorted(set(range(g.n)) - covered)
                if missing:
                    cert = {
                        "kind": f"no_{cid.replace('-', '_')}",
                        "k": k,
                        "vertex": missing[0],
                    }
        add(
            cid,
            f"every vertex is in the support of some {desc} {k}-guard configuration",
            cert is None,
            certificate=cert,
            partial=partial,
        )

    failed = [c for c in conditions if not c["passed"] and c["conclusive_at_k"]]
    return {
        "k": k,
        "mvc": cs.size,
        "spartan_mode": spartan_mode,
        "conditions": conditions,
        "verdict": "exceeds_k" if failed else "necessary_conditions_hold",
        "conclusive_failure": bool(failed),
    }


def _check_cover_claim(g: Graph, witness: HallWitness, cs) -> None:
    # with a deficient set X on the independent side, no minimum cover can
    # take more than |N(X)| vertices from X u N(X) (otherwise swapping the
    # X-part for N(X) would shrink it); a violation means the enumeration or
    # the Hall search is broken
    pool = set(witness.violator) | set(witness.neighborhood)
    bound = len(witness.neighborhood)
    for cover in cs.covers:
        if len(pool & set(cover)) > bound:
            raise AssertionError("minimum cover exceeds the deficiency ceiling")


def _find_tight_independent(g: Graph) -> dict | None:
    """Smallest non-empty, non-maximal independent set with |N(I)| = |I|,
    ties broken by sorted vertices; the independent sets are the
    complements of the covers."""
    found = []
    for cover in enumerate_covers_up_to(g, g.n):
        m = g.full_mask & ~cover
        nb = neighbors_of_set(g, m)
        # non-maximal: some vertex outside I u N(I) stays independent of I
        if m and g.full_mask & ~m & ~nb and nb.bit_count() == m.bit_count():
            found.append((m.bit_count(), tuple(bits(m)), tuple(bits(nb))))
    if not found:
        return None
    _, independent, neighborhood = min(found)
    return {
        "kind": "tight_independent_set",
        "independent_set": independent,
        "neighborhood": neighborhood,
    }
