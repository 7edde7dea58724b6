"""Top-level Spartan decision: component dispatch, Koenig fast path, fixpoint.

The defense family is the greatest fixpoint (the shared ``fixpoint`` engine)
over the complete set of minimum covers: a cover survives while every attack
on it is defended by some surviving cover.  A Koenig component (largest
matching = cover number) draws no cover list: its fixpoint, run on a
positive answer, is over the two sides.  The fixpoint is decided on the
alternating trees of each cover pair's auxiliary graph
(``DefenseContext.defends``), a yes/no answer with no witness; afterwards
each exported transition takes its guard paths from one
``DefenseContext.witness`` call, which reads the same cached tree and the
one entry per (cover pair, question) that holds the matching, and expands
that matching through the attacked guard.  A non-empty fixpoint *is* a
defender strategy; an empty one yields a deletion trace naming each
cover's indefensible edge.  Component verdicts speak the whole graph's
vertices.

Optional ``DefenseStats`` are recorded by ``DefenseContext.defends`` alone,
once per fixpoint ask; the witnesses of the export record nothing.  The
game solver is the independent route: ``method="game"`` decides each
component with it, and ``cross_check`` asks that route of each component
(with ``method="game"``, the lane's verdict is its answer).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .covers import DEFAULT_COVER_CAP, enumerate_min_vcs, mvc_mask
from .defense import DefenseContext, DefenseStats, GuardPaths
from .errors import IntegrityError, PreconditionError, ResourceLimitError
from .fixpoint import greatest_fixpoint, oriented_attacks
from .game import solve_guard_game
from .graph import (
    Graph,
    OddCycle,
    bipartition,
    connected_components,
    mask_of,
    require_analysis_ready,
)
from .matching import is_elementary, max_matching_size
from .reachability import counts_of, replay_moves
from .report import delabelize, labelize


@dataclass
class DefenseFamily:
    """Minimum covers closed under defended attacks, plus the transition table."""

    covers: tuple[tuple[int, ...], ...]
    transitions: dict[tuple[int, tuple[int, int]], tuple[int, GuardPaths]]


@dataclass(frozen=True)
class FixpointTrace:
    """Empty-fixpoint certificate: every deleted cover with its killer edge."""

    deletions: tuple[tuple[tuple[int, ...], tuple[int, int], int], ...]


@dataclass
class SpartanVerdict:
    spartan: bool
    method: str  # fixpoint | konig | gameOracle | perComponent
    family: DefenseFamily | None = None
    certificate: dict | None = None
    components: list["SpartanVerdict"] | None = None
    cross_check: dict | None = None
    mvc: int | None = None
    max_matching: int | None = None


def spartan_fixpoint(
    g: Graph,
    *,
    covers=None,
    stats: DefenseStats | None = None,
):
    """Greatest fixpoint of the defended-attack operator over minimum covers.

    Returns a :class:`DefenseFamily` (the graph is Spartan) whose transitions
    name each attack's first surviving defender, or a :class:`FixpointTrace`
    proving emptiness.
    """
    if covers is None:
        covers = _all_min_covers(g, DEFAULT_COVER_CAP)
    ctx = DefenseContext(g, stats=stats)
    holders = [[j for j, c in enumerate(covers) if v in c] for v in range(g.n)]
    alive, removals, answers = greatest_fixpoint(
        [oriented_attacks(g, mask_of(c)) for c in covers],
        lambda attack: holders[attack[1]],
        lambda i, attack, j: ctx.defends(covers[i], attack, covers[j]),
    )
    if not alive:
        return FixpointTrace(
            deletions=tuple((covers[i], attack, r) for i, attack, r in removals)
        )
    index = {i: pos for pos, i in enumerate(alive)}
    transitions = {}
    for (i, attack), j in answers.items():
        paths = ctx.witness(covers[i], attack, covers[j])
        if paths is None:
            raise IntegrityError(
                "the witness search misses a defense the yes/no answer allows"
            )
        transitions[(index[i], attack)] = (index[j], paths)
    return DefenseFamily(covers=tuple(covers[i] for i in alive), transitions=transitions)


def _all_min_covers(g: Graph, cap: int) -> tuple[tuple[int, ...], ...]:
    """Every minimum cover, or a refusal: a fixpoint over a truncated list
    could delete a cover that a missing one defends."""
    cs = enumerate_min_vcs(g, cap=cap)
    if cs.truncated:
        raise ResourceLimitError(
            f"more than {cap} minimum covers; the fixpoint needs them all"
        )
    return cs.covers


def _decide_component(
    g: Graph,
    *,
    method: str,
    cover_cap: int,
    stats: DefenseStats | None,
) -> SpartanVerdict:
    k = mvc_mask(g, g.full_mask)
    mm = max_matching_size(g)
    if method == "game":
        wins = solve_guard_game(g, k).defender_wins
        lost = {"kind": "game_attacker_win", "k": k, "component": tuple(range(g.n))}
        verdict = SpartanVerdict(
            spartan=wins, method="gameOracle", certificate=None if wins else lost
        )
    elif method != "fixpoint" and mm == k:
        verdict = _decide_konig(g, stats=stats)
    else:
        result = spartan_fixpoint(g, covers=_all_min_covers(g, cover_cap), stats=stats)
        if isinstance(result, DefenseFamily):
            verdict = SpartanVerdict(spartan=True, method="fixpoint", family=result)
        else:
            deletions = [
                {"cover": c, "attack": e, "round": r} for c, e, r in result.deletions
            ]
            verdict = SpartanVerdict(
                spartan=False,
                method="fixpoint",
                certificate={"kind": "empty_fixpoint", "deletions": deletions},
            )
    verdict.mvc = k
    verdict.max_matching = mm
    return verdict


def _decide_konig(g: Graph, *, stats: DefenseStats | None) -> SpartanVerdict:
    """Koenig component (max matching = cover number): Spartan iff bipartite
    and elementary.  On a positive answer the fixpoint runs over the two
    sides, the only minimum covers of a connected elementary bipartite graph,
    so that the verdict ships a defense family; no cover list is drawn."""
    res = bipartition(g)
    if isinstance(res, OddCycle):
        return SpartanVerdict(
            spartan=False,
            method="konig",
            certificate={"kind": "odd_cycle", "cycle": res.vertices},
        )
    ok, witness = is_elementary(g)
    if not ok:
        cert = {"kind": "non_elementary", "edge_in_no_perfect_matching": witness.edge}
        if witness.tight_set is not None:
            cert["tight_set"] = witness.tight_set.violator
            cert["tight_neighborhood"] = witness.tight_set.neighborhood
        if witness.deficiency is not None:
            cert["deficient_set"] = witness.deficiency.violator
            cert["deficient_neighborhood"] = witness.deficiency.neighborhood
        return SpartanVerdict(spartan=False, method="konig", certificate=cert)
    # a non-empty fixpoint over any cover list is a closed family, so the
    # answer does not rest on the sides being every minimum cover
    family = spartan_fixpoint(g, covers=tuple(sorted(res)), stats=stats)
    if not isinstance(family, DefenseFamily):
        raise IntegrityError(
            "bipartite elementary component produced an empty fixpoint"
        )
    return SpartanVerdict(spartan=True, method="konig", family=family)


def _decide_lifted(g: Graph, comp: tuple[int, ...], **kwargs) -> SpartanVerdict:
    """Decide the component ``comp`` of ``g``, speaking ``g``'s vertices."""
    sub = g.induced(comp)
    verdict = _decide_component(sub, **kwargs)

    def tr(vertices):
        return tuple(comp[v] for v in vertices)

    family = verdict.family
    if family is not None:
        verdict.family = DefenseFamily(
            covers=tuple(tr(c) for c in family.covers),
            transitions={
                (ci, tr(attack)): (ti, tuple(tr(p) for p in paths))
                for (ci, attack), (ti, paths) in family.transitions.items()
            },
        )
    if verdict.certificate is not None:
        # an induced subgraph keeps its labels, so label space carries the
        # certificate's vertex fields over
        verdict.certificate = delabelize(g, labelize(sub, verdict.certificate))
    return verdict


def is_spartan(
    g: Graph,
    *,
    method: str = "auto",
    cross_check: bool = False,
    cover_cap: int = DEFAULT_COVER_CAP,
    stats: DefenseStats | None = None,
) -> SpartanVerdict:
    """Decide whether ``g`` is Spartan (eternal vertex cover number equals
    minimum vertex cover number).

    Disconnected graphs are Spartan exactly when every component is; the
    verdict then carries per-component sub-verdicts.
    """
    if method not in ("auto", "fixpoint", "game"):
        raise PreconditionError(f"unknown method {method!r}")
    require_analysis_ready(g)
    t0 = time.perf_counter()
    comps = connected_components(g)
    if len(comps) == 1:
        verdict = _decide_component(
            g, method=method, cover_cap=cover_cap, stats=stats
        )
    else:
        subs = [
            _decide_lifted(g, comp, method=method, cover_cap=cover_cap, stats=stats)
            for comp in comps
        ]
        spartan = all(v.spartan for v in subs)
        first_bad = next((v for v in subs if not v.spartan), None)
        verdict = SpartanVerdict(
            spartan=spartan,
            method="perComponent",
            components=subs,
            certificate=None if spartan else first_bad.certificate,
            mvc=sum(v.mvc for v in subs),
            max_matching=sum(v.max_matching for v in subs),
        )
    decide_ms = (time.perf_counter() - t0) * 1000.0
    if cross_check:
        t1 = time.perf_counter()
        # the game lane's verdict is the oracle's answer; any other lane asks
        # the game of each component at the cover number its verdict holds,
        # stopping at the first loss, so that a component the game refuses
        # is not asked once the answer is known
        parts = verdict.components or [verdict]
        oracle = verdict.spartan if method == "game" else all(
            solve_guard_game(g.induced(c), part.mvc).defender_wins
            for c, part in zip(comps, parts)
        )
        oracle_ms = (time.perf_counter() - t1) * 1000.0
        # both routes are timed so the two paths can be compared empirically;
        # no structural conclusion is drawn from the numbers
        verdict.cross_check = {
            "game_oracle": oracle,
            "agrees": oracle == verdict.spartan,
            "decider_ms": round(decide_ms, 3),
            "oracle_ms": round(oracle_ms, 3),
        }
        if not verdict.cross_check["agrees"]:
            raise IntegrityError(
                "decider and game oracle disagree; this is a bug"
            )
    return verdict


def strategy_export(family: DefenseFamily, g: Graph) -> dict:
    """Serializable defender strategy: initial cover plus per-attack moves.

    Attacks on edges inside a cover are defended by swapping the two guards;
    those transitions are implicit and listed once as a rule.
    """
    labels = g.labels
    covers = [[labels[v] for v in c] for c in family.covers]
    initial = min(range(len(family.covers)), key=lambda i: family.covers[i])
    transitions = []
    for (ci, attack), (ti, paths) in sorted(family.transitions.items()):
        transitions.append(
            {
                "from": ci,
                "attack": [labels[attack[0]], labels[attack[1]]],
                "to": ti,
                "moves": [[labels[v] for v in p] for p in paths],
            }
        )
    return {
        "states": covers,
        "initial": initial,
        "internal_attacks": "swap the guards on the attacked edge; state unchanged",
        "transitions": transitions,
    }


def validate_defense_family(g: Graph, family: DefenseFamily) -> list[str]:
    """Replay-check every transition: a target index inside the family, and
    a legal simultaneous movement that crosses the attacked edge and lands
    exactly on the target cover.

    Returns the list of soundness violations (empty = fully valid).
    """
    problems = []
    counts = [counts_of(g, cover) for cover in family.covers]
    for ci, cover in enumerate(family.covers):
        # internal attacks swap; unguarded edges cannot exist
        for attack in oriented_attacks(g, mask_of(cover)):
            key = (ci, attack)
            if key not in family.transitions:
                problems.append(f"missing transition for cover {cover} edge {attack}")
                continue
            ti, paths = family.transitions[key]
            if not (type(ti) is int and 0 <= ti < len(family.covers)):
                problems.append(
                    f"transition of {cover} {attack} targets index {ti!r}, "
                    f"outside the family's {len(family.covers)} covers"
                )
                continue
            moves = tuple(step for p in paths for step in zip(p, p[1:]))
            if attack not in moves:
                problems.append(f"no guard crosses {attack} in {moves}")
                continue
            try:
                result = replay_moves(g, counts[ci], moves)
            except Exception as exc:  # illegal move shapes
                problems.append(f"replay failed for {cover} {attack}: {exc}")
                continue
            if result != counts[ti]:
                problems.append(
                    f"replay of {cover} {attack} landed on {result}, "
                    f"wanted {counts[ti]}"
                )
    return problems
