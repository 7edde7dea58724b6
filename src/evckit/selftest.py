"""The acceptance sweep: every cross-check the package promises, in one run.

The sweep walks a corpus (exhaustive small graphs plus seeded random ones)
and, per graph, compares the fixpoint decider against the game oracle,
checks the Koenig characterization against an independent cover-counting
route, verifies pairwise cover compatibility, replays every emitted defense,
cross-checks the decider's yes/no defense answers and rainbow witnesses
(both read one alternating tree) against an exhaustive matching search
(once per fixpoint ask), and runs the goodness implications.  Results
aggregate into one pass/fail line per criterion.  The report also keeps the
CPU seconds (``time.process_time``, summed over the workers) of each
criterion's checks, which ``evckit selftest --verbose`` prints on stderr.
A graph's checks run in a fixed order and share its memo, so a result that
several criteria read is charged to the first that computes it: goodness
verdicts to criterion 4 on the graphs it confirms, the minimum covers to
criterion 1.  Criterion 6's seconds are those of the decider's
cross-checks, taken out of criterion 1's.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import time
from dataclasses import dataclass, field

from .corpus import exhaustive_connected, fixtures, random_connected
from .covers import enumerate_min_vcs, mvc_mask
from .decider import is_spartan, validate_defense_family
from .defense import DefenseStats
from .game import evc, play_session
from .goodness import is_strongly_good, is_weakly_good, necessary_conditions_report
from .graph import Graph, OddCycle, bipartition, bits, cut_vertices, mask_of
from .matching import hopcroft_karp, max_matching_size
from .reachability import counts_of

DEFAULT_SEED = 20240
CRITERIA = range(1, 9)

_WORK_KEYS = (
    "graphs",
    "decider_oracle_mismatches",
    "konig_graphs",
    "konig_mismatches",
    "cover_pairs",
    "cover_pair_failures",
    "oracle_spartan",
    "battery_failures",
    "covers_checked",
    "sgwg_violations",
    "cut_violations",
    "replay_failures",
    "rainbow_instances",
    "rainbow_mismatches",
    "families_emitted",
)

# every criterion but 7 (``_fixed_values``): its number, its name, its
# detail over the summed counters, and the counters that must all read 0
_SUMMED_CRITERIA = (
    (
        1,
        "characterization equivalence (decider vs game oracle)",
        "{graphs} graphs, {decider_oracle_mismatches} mismatches",
        ("decider_oracle_mismatches",),
    ),
    (
        2,
        "Koenig characterization (bipartite + essentially elementary)",
        "{konig_graphs} Koenig graphs, {konig_mismatches} mismatches",
        ("konig_mismatches",),
    ),
    (
        3,
        "minimum-cover pairs joined by a direct perfect matching",
        "{cover_pairs} pairs, {cover_pair_failures} failures",
        ("cover_pair_failures",),
    ),
    (
        4,
        "necessary-condition battery on oracle-confirmed graphs",
        "{oracle_spartan} graphs confirmed by the game oracle, "
        "{battery_failures} battery failures",
        ("battery_failures",),
    ),
    (
        5,
        "strongly good implies weakly good; covers missing a cut vertex are "
        "not weakly good",
        "{covers_checked} covers, {sgwg_violations} implication violations, "
        "{cut_violations} cut-vertex violations",
        ("sgwg_violations", "cut_violations"),
    ),
    (
        6,
        "rainbow reducer agrees with exhaustive matching enumeration",
        "{rainbow_instances} instances, {rainbow_mismatches} mismatches",
        ("rainbow_mismatches",),
    ),
    (
        8,
        "defense replays are legal moves crossing the attacked edge",
        "{families_emitted} families + scripted sessions, "
        "{replay_failures} replay failures",
        ("replay_failures",),
    ),
)


def _elementary_by_cover_count(g: Graph) -> bool:
    """Independent route for the Koenig check: a connected bipartite component
    is elementary iff it has exactly two minimum covers (its sides)."""
    from .graph import connected_components

    for comp in connected_components(g):
        sub = g.induced(comp)
        sides = bipartition(sub)
        if isinstance(sides, OddCycle):
            return False
        cs = enumerate_min_vcs(sub)
        expected = {tuple(sides[0]), tuple(sides[1])}
        if set(cs.covers) != expected:
            return False
    return True


def min_covers_compatible_check(g: Graph) -> tuple[int, list]:
    """Every pair of minimum covers must admit a perfect matching between the
    difference sides (length-1 disjoint paths); returns the number of pairs
    checked and the pairs without one, whose presence would signal an
    implementation bug upstream."""
    covers = enumerate_min_vcs(g).covers
    failures = []
    for c1, c2 in itertools.combinations(covers, 2):
        m1, m2 = mask_of(c1), mask_of(c2)
        t1 = tuple(bits(m1 & ~m2))
        adj = {a: tuple(bits(g.adj_mask[a] & m2 & ~m1)) for a in t1}
        if len(hopcroft_karp(t1, adj)) != len(t1):
            failures.append((c1, c2))
    return math.comb(len(covers), 2), failures


def _examine_graph(payload) -> dict:
    labels, edges = payload
    g = Graph(labels, edges)
    out = {k: 0 for k in _WORK_KEYS}
    out["graphs"] = 1
    cpu = out["cpu_s"] = dict.fromkeys(CRITERIA, 0.0)
    start = time.process_time()

    def lap(number: int) -> None:
        # charge the CPU time since the last lap to the criterion
        nonlocal start
        now = time.process_time()
        cpu[number] += now - start
        start = now

    stats = DefenseStats()
    verdict = is_spartan(g, stats=stats)
    oracle = is_spartan(g, method="game").spartan
    out["rainbow_instances"] = stats.instances
    out["rainbow_mismatches"] = stats.mismatches
    if verdict.spartan != oracle:
        out["decider_oracle_mismatches"] = 1
    lap(1)
    cpu[1] -= stats.cpu_s
    cpu[6] = stats.cpu_s

    k = mvc_mask(g, g.full_mask)
    if max_matching_size(g) == k:
        out["konig_graphs"] = 1
        if verdict.spartan != _elementary_by_cover_count(g):
            out["konig_mismatches"] = 1
    lap(2)

    out["cover_pairs"], failures = min_covers_compatible_check(g)
    out["cover_pair_failures"] = len(failures)
    covers = enumerate_min_vcs(g).covers
    lap(3)

    if oracle:
        out["oracle_spartan"] = 1
        battery = necessary_conditions_report(g, k)
        if battery["conclusive_failure"]:
            out["battery_failures"] = 1
    lap(4)

    cut_set = set(cut_vertices(g))
    for cover in covers:
        out["covers_checked"] += 1
        counts = counts_of(g, cover)
        weak, _ = is_weakly_good(g, counts)
        strong, _ = is_strongly_good(g, counts)
        if strong and not weak:
            out["sgwg_violations"] += 1
        if cut_set - set(cover) and weak:
            out["cut_violations"] += 1
    lap(5)

    if verdict.spartan and verdict.family is not None:
        out["families_emitted"] = 1
        if validate_defense_family(g, verdict.family):
            out["replay_failures"] = 1
    lap(8)
    return out


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} [{status}] {self.name}: {self.detail}"


@dataclass
class SelftestReport:
    criteria: list[CriterionResult] = field(default_factory=list)
    corpus_size: int = 0
    seed: int = DEFAULT_SEED
    # criterion number -> CPU seconds of its checks
    cpu_s: dict[int, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.criteria]
        out.append(
            f"selftest: {'PASS' if self.passed else 'FAIL'} "
            f"({self.corpus_size} corpus graphs, seed {self.seed})"
        )
        return out

    def cpu_lines(self) -> list[str]:
        """The CPU seconds of each criterion's checks, one line each."""
        return [
            f"criterion {number}: {seconds:.3f} s CPU"
            for number, seconds in sorted(self.cpu_s.items())
        ]


def build_corpus(max_n: int, samples: int, seed: int):
    payloads = []
    for n in range(2, max_n + 1):
        for g in exhaustive_connected(n):
            payloads.append((g.labels, g.edges))
    for idx, n in enumerate((7, 8)):
        for g in random_connected(n, 0.4, samples, seed + idx):
            payloads.append((g.labels, g.edges))
    for g in fixtures().values():
        payloads.append((g.labels, g.edges))
    return payloads


def run_selftest(
    max_n: int = 6,
    samples: int = 300,
    seed: int = DEFAULT_SEED,
    jobs: int | None = None,
    progress=None,
) -> SelftestReport:
    payloads = build_corpus(max_n, samples, seed)
    totals = {k: 0 for k in _WORK_KEYS}
    cpu = dict.fromkeys(CRITERIA, 0.0)
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            results = pool.imap(_examine_graph, payloads, chunksize=256)
            _accumulate(results, totals, cpu, progress)
    else:
        _accumulate(map(_examine_graph, payloads), totals, cpu, progress)

    start = time.process_time()
    fixed = CriterionResult(7, "fixed solver values on the named graphs", *_fixed_values())
    cpu[7] = time.process_time() - start
    summed = [
        CriterionResult(
            number, name, all(totals[key] == 0 for key in failures), detail.format(**totals)
        )
        for number, name, detail, failures in _SUMMED_CRITERIA
    ]
    return SelftestReport(
        criteria=sorted([*summed, fixed], key=lambda c: c.number),
        corpus_size=len(payloads),
        seed=seed,
        cpu_s=cpu,
    )


def _accumulate(results, totals, cpu, progress) -> None:
    for i, rec in enumerate(results):
        for k in _WORK_KEYS:
            totals[k] += rec[k]
        for number, seconds in rec["cpu_s"].items():
            cpu[number] += seconds
        if progress is not None and (i + 1) % 2000 == 0:
            progress(i + 1)


def _fixed_values() -> tuple[bool, str]:
    fx = fixtures()
    checks = []
    checks.append(("evc(K2)=1", evc(fx["K2"]).value == 1))
    checks.append(("evc(P3)=2", evc(fx["P3"]).value == 2))
    checks.append(("evc(C4)=2", evc(fx["C4"]).value == 2))
    checks.append(("evc(C5)=3", evc(fx["C5"]).value == 3))
    foot = fx["footnote"]
    checks.append(
        (
            "footnote not Spartan, needs more than 2 guards",
            (not is_spartan(foot).spartan) and evc(foot).value > 2,
        )
    )
    checks.append(("P5 not Spartan", not is_spartan(fx["P5"]).spartan))
    # scripted session exercising a live defense replay (raises on violation)
    out = io.StringIO()
    play_session(fx["C4"], 2, io.StringIO("attack a b\nquit\n"), out)
    checks.append(("C4 session defends the first attack", "defense:" in out.getvalue()))
    failed = [name for name, ok in checks if not ok]
    if failed:
        return False, "failed: " + ", ".join(failed)
    return True, f"{len(checks)} fixed checks"
