"""Answer checks made apart from the program, with networkx.

Every check takes the graph as the benchmark generated it (labels and edge
list) and the program's output as text, and returns a list of problems
(empty when the answer holds).  None of them calls evckit.

Sources of the expected facts:

* minimum covers: complements of the maximum cliques of the complement graph;
* ``mvc <= evc <= 2 mvc``; trees: evc = internal vertices + 1; cycles
  ``ceil(n/2)``; ``K_n``: ``n - 1`` (Klostermeyer and Mynhardt, 2009);
* Koenig graphs (maximum matching = minimum cover) are Spartan exactly when
  they are bipartite and every edge of every component lies in a perfect
  matching (the paper's theorem with Misra and Nanoti, 2023);
* a Spartan answer is proved by replaying its strategy: mvc guards defend
  every attack forever when each state is a minimum cover and each attack
  has a legal move into another state.
"""

from __future__ import annotations

import json
import math
import re
import sys

import networkx as nx

# labeled connected graphs on 2, 3, 4 and 5 vertices (OEIS A001187)
CONNECTED_LABELED = {2: 1, 3: 4, 4: 38, 5: 728}
SELFTEST_FIXTURES = 10
SELFTEST_CRITERIA = 8


def nx_graph(labels, lines) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(labels)
    g.add_edges_from(lines)
    return g


def min_covers(g: nx.Graph):
    """Minimum vertex cover size and the set of all minimum covers."""
    if g.number_of_edges() == 0:
        return 0, {frozenset()}
    cliques = list(nx.find_cliques(nx.complement(g)))
    best = max(len(c) for c in cliques)
    nodes = frozenset(g)
    return len(nodes) - best, {nodes - frozenset(c) for c in cliques if len(c) == best}


def matching_number(g: nx.Graph) -> int:
    return len(nx.max_weight_matching(g, maxcardinality=True))


def _has_perfect_matching(g: nx.Graph) -> bool:
    if g.number_of_nodes() % 2:
        return False
    if g.number_of_nodes() == 0:
        return True
    colour = nx.bipartite.color(g)
    top = {v for v, c in colour.items() if c == 0}
    m = nx.bipartite.hopcroft_karp_matching(g, top_nodes=top)
    return len(m) == g.number_of_nodes()


def bipartite_spartan(g: nx.Graph) -> bool:
    """Bipartite and every edge of every component in a perfect matching."""
    if not nx.is_bipartite(g):
        return False
    for comp in nx.connected_components(g):
        h = g.subgraph(comp)
        for u, v in h.edges:
            rest = h.copy()
            rest.remove_nodes_from((u, v))
            if not _has_perfect_matching(rest):
                return False
    return True


def _expected_evc(kind: str, g: nx.Graph):
    n = g.number_of_nodes()
    if kind == "tree":
        return sum(1 for v in g if g.degree(v) > 1) + 1
    if kind in ("cycle", "refused_cycle"):
        return math.ceil(n / 2)
    if kind == "complete":
        return n - 1
    return None


def _input_problems(report, labels, lines):
    got = report.get("input", {})
    want_edges = {frozenset(e) for e in lines}
    got_edges = {frozenset(e) for e in got.get("edges", [])}
    if set(got.get("vertices", [])) != set(labels) or got_edges != want_edges:
        return ["the report's input does not match the graph"]
    return []


def check_evc(kind, labels, lines, text) -> list[str]:
    """Check one ``evckit evc --json`` answer."""
    g = nx_graph(labels, lines)
    try:
        report = json.loads(text)
        res = report["result"]
        value, mvc = res["evc"], res["mvc"]
        outcomes = {int(k): w for k, w in res["outcomes_by_guard_count"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable evc report: {exc!r}"]
    problems = _input_problems(report, labels, lines)
    want_mvc, _ = min_covers(g)
    if mvc != want_mvc:
        problems.append(f"mvc {mvc}, expected {want_mvc}")
    if not want_mvc <= value <= 2 * want_mvc:
        problems.append(f"evc {value} outside [mvc, 2 mvc] = [{want_mvc}, {2 * want_mvc}]")
    for k, wins in outcomes.items():
        if wins != (k >= value):
            problems.append(f"outcome for {k} guards is {wins}, but evc is {value}")
    if outcomes.get(value) is not True:
        problems.append(f"no winning outcome recorded at evc = {value}")
    expected = _expected_evc(kind, g)
    if expected is not None and value != expected:
        problems.append(f"evc {value} of a {kind} on {len(labels)} vertices, expected {expected}")
    if matching_number(g) == want_mvc:
        spartan = bipartite_spartan(g)
        if (value == want_mvc) != spartan:
            problems.append(
                f"Koenig graph with evc {value}, mvc {want_mvc}, but the "
                f"bipartite perfect-matching test says Spartan = {spartan}"
            )
    return problems


def _replay_strategy(g: nx.Graph, covers, strategy) -> list[str]:
    """A legal transition for every attack with one guarded endpoint."""
    problems = []
    try:
        states = [frozenset(s) for s in strategy["states"]]
        initial = strategy["initial"]
        table = {}
        for tr in strategy["transitions"]:
            table[(tr["from"], tuple(tr["attack"]))] = (tr["to"], tr["moves"])
    except (KeyError, TypeError) as exc:
        return [f"unreadable strategy: {exc!r}"]
    if not states or not 0 <= initial < len(states):
        problems.append("strategy has no valid initial state")
    for state in states:
        if state not in covers:
            problems.append(f"state {sorted(state)} is not a minimum cover")
    for i, state in enumerate(states):
        for a, b in g.edges:
            if (a in state) == (b in state):
                continue
            u, v = (a, b) if a in state else (b, a)
            entry = table.get((i, (u, v)))
            if entry is None:
                problems.append(f"no answer to attack {u}->{v} from state {i}")
                continue
            to, paths = entry
            if not isinstance(to, int) or not 0 <= to < len(states):
                problems.append(f"attack {u}->{v} from state {i} leads to no state")
                continue
            problems += _check_move(g, state, states[to], u, v, paths)
    return problems


def _check_move(g, state, target, u, v, paths) -> list[str]:
    moves = [(p[j], p[j + 1]) for p in paths for j in range(len(p) - 1)]
    where = f"attack {u}->{v} from {sorted(state)}"
    if (u, v) not in moves:
        return [f"{where}: no guard crosses the attacked edge"]
    sources = [x for x, _ in moves]
    if len(set(sources)) != len(sources):
        return [f"{where}: a guard moves twice"]
    counts = {x: 1 for x in state}
    for x, y in moves:
        if not g.has_edge(x, y):
            return [f"{where}: move {x}->{y} is not along an edge"]
        if x not in state:
            return [f"{where}: move {x}->{y} starts on an empty vertex"]
        counts[x] -= 1
        counts[y] = counts.get(y, 0) + 1
    landed = {x for x, c in counts.items() if c}
    if any(c not in (0, 1) for c in counts.values()) or landed != target:
        return [f"{where}: guards land on {sorted(landed)}, not on {sorted(target)}"]
    return []


def _check_deletions(g: nx.Graph, covers, cert) -> list[str]:
    """An empty fixpoint deletes each minimum cover once, on an edge with
    exactly one endpoint in it."""
    deleted = []
    problems = []
    for d in cert.get("deletions", []):
        try:
            cover = frozenset(d["cover"])
            a, b = d["attack"]
        except (KeyError, TypeError, ValueError) as exc:
            return [f"unreadable deletion: {exc!r}"]
        deleted.append(cover)
        if not g.has_edge(a, b) or (a in cover) == (b in cover):
            problems.append(f"cover {sorted(cover)} deleted on {a}-{b}, "
                            "which is not an edge with one endpoint in it")
    if len(deleted) != len(set(deleted)) or set(deleted) != covers:
        problems.append(f"deletions name {len(deleted)} covers, "
                        f"not each of the {len(covers)} minimum covers once")
    return problems


def _odd_cycle_problems(g: nx.Graph, cycle) -> list[str]:
    ok = (
        isinstance(cycle, list)
        and len(cycle) % 2 == 1
        and len(set(cycle)) == len(cycle) >= 3
        and all(g.has_edge(cycle[i - 1], cycle[i]) for i in range(len(cycle)))
    )
    return [] if ok else [f"certificate {cycle} is not an odd cycle of the graph"]


def check_spartan(kind, labels, lines, text) -> list[str]:
    """Check one ``evckit spartan --json`` answer."""
    g = nx_graph(labels, lines)
    try:
        report = json.loads(text)
        res = report["result"]
        spartan, mvc, mm = res["spartan"], res["mvc"], res["max_matching"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable spartan report: {exc!r}"]
    problems = _input_problems(report, labels, lines)
    want_mvc, covers = min_covers(g)
    want_mm = matching_number(g)
    if mvc != want_mvc:
        problems.append(f"mvc {mvc}, expected {want_mvc}")
    if mm != want_mm:
        problems.append(f"max matching {mm}, expected {want_mm}")
    if kind in ("odd_cycle", "complete") and spartan is not True:
        problems.append(f"{kind} on {len(labels)} vertices is Spartan, answer {spartan}")
    if want_mm == want_mvc:
        expected = bipartite_spartan(g)
        if spartan != expected:
            problems.append(f"Koenig graph: Spartan = {spartan}, characterisation says {expected}")
    cert = res.get("certificate")
    strategy = res.get("strategy")
    if spartan is True:
        if not isinstance(strategy, dict):
            problems.append("Spartan answer without a strategy")
        else:
            problems += _replay_strategy(g, covers, strategy)
            family = {frozenset(c) for c in res.get("family", [])}
            if family != {frozenset(s) for s in strategy.get("states", [])}:
                problems.append("family and strategy states differ")
    elif not isinstance(cert, dict):
        problems.append("negative answer without a certificate")
    elif cert.get("kind") == "empty_fixpoint":
        problems += _check_deletions(g, covers, cert)
    elif cert.get("kind") == "odd_cycle":
        problems += _odd_cycle_problems(g, cert.get("cycle"))
    elif cert.get("kind") == "non_elementary":
        if want_mm != want_mvc:
            problems.append("non_elementary certificate on a non-Koenig graph")
    else:
        problems.append(f"certificate kind {cert.get('kind')!r} is not checked")
    return problems


def expected_corpus_size(max_n: int, samples: int) -> int:
    return sum(CONNECTED_LABELED[n] for n in range(2, max_n + 1)) + 2 * samples + SELFTEST_FIXTURES


def corpus_cover_counts(corpus) -> tuple[int, int]:
    """Minimum covers, and pairs of minimum covers, summed over a corpus of
    ``(labels, edges)`` graphs with integer edge endpoints."""
    covers = pairs = 0
    for labels, edges in corpus:
        g = nx.Graph()
        g.add_nodes_from(range(len(labels)))
        g.add_edges_from(edges)
        count = len(min_covers(g)[1])
        covers += count
        pairs += count * (count - 1) // 2
    return covers, pairs


def _detail_count(criteria, number, noun):
    """The leading ``<count> <noun>,`` of a criterion's detail, or None."""
    for num, _, _, detail in criteria:
        match = re.match(rf"(\d+) {noun},", detail) if num == number else None
        if match:
            return int(match.group(1))
    return None


def check_sweep(params, report, corpus=None) -> list[str]:
    """Check one ``run_selftest`` report (as the worker recorded it).

    With the corpus the selftest examined, the minimum covers it reports
    for criteria 3 (cover pairs) and 5 (covers) must be the ones networkx
    counts.  A report whose details no longer carry these counts is only
    noted, so a change of wording does not read as a wrong answer.
    """
    if "exception" in report:
        return [f"run_selftest raised {report['exception']}"]
    problems = []
    criteria = report.get("criteria", [])
    if len(criteria) != SELFTEST_CRITERIA:
        problems.append(f"{len(criteria)} criteria, expected {SELFTEST_CRITERIA}")
    for number, passed, name, detail in criteria:
        if passed is not True:
            problems.append(f"criterion {number} failed: {name}: {detail}")
    if report.get("passed") is not True:
        problems.append("selftest did not pass")
    want = expected_corpus_size(params["max_n"], params["samples"])
    if report.get("corpus_size") != want:
        problems.append(f"corpus of {report.get('corpus_size')} graphs, expected {want}")
    if corpus is not None:
        covers, pairs = corpus_cover_counts(corpus)
        got_pairs = _detail_count(criteria, 3, "pairs")
        got_covers = _detail_count(criteria, 5, "covers")
        if got_pairs is None or got_covers is None:
            print("note: the selftest report carries no cover counts; "
                  "they were not cross-checked", file=sys.stderr)
        elif (got_pairs, got_covers) != (pairs, covers):
            problems.append(f"selftest examined {got_covers} minimum covers in {got_pairs} "
                            f"pairs; networkx counts {covers} in {pairs}")
    return problems
