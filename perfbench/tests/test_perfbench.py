"""Tests of the benchmark itself: each answer check must reject a corrupted
answer, and tracing must leave the program as it found it.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import copy
import importlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import graphs  # noqa: E402
import tracing  # noqa: E402

import evckit  # noqa: E402
from evckit import cli  # noqa: E402


def _write(tmp_path, graph):
    path = tmp_path / "g.json"
    path.write_text(graphs.graph_text(*graph))
    return path


def _answer(tmp_path, command, graph):
    path = _write(tmp_path, graph)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([command, str(path), "--json"]) == 0
    return json.loads(out.getvalue())


def _graph(kind, n, edges):
    labels = [f"v{i}" for i in range(n)]
    return labels, [(labels[u], labels[v]) for u, v in edges]


C4 = _graph("cycle", 4, graphs.cycle(4))
P5 = _graph("tree", 5, ((0, 1), (1, 2), (2, 3), (3, 4)))


def test_seeded_inputs_repeat_and_keep_structure():
    a = graphs.workload_inputs("spartan-decide", 7)
    b = graphs.workload_inputs("spartan-decide", 7)
    c = graphs.workload_inputs("spartan-decide", 8)
    assert a == b
    assert [x[1:] for x in a] != [x[1:] for x in c]
    assert sorted(x[0] for x in a) == sorted(x[0] for x in c)


def test_refused_cycles_do_not_depend_on_the_seed():
    tail = lambda seed: graphs.workload_inputs("evc-game", seed)[-4:]  # noqa: E731
    assert tail(1) == tail(2)
    assert [g[0][1] for g in tail(1)] == list(graphs.REFUSED_CYCLES)


def test_tree_cover_gap_matches_closed_form():
    # path on 5 vertices: 3 internal vertices, mvc 2 -> evc 4, gap 2
    assert graphs.tree_cover_gap(5, ((0, 1), (1, 2), (2, 3), (3, 4))) == 2
    # star K1,3: evc 2, mvc 1
    assert graphs.tree_cover_gap(4, ((0, 1), (0, 2), (0, 3))) == 1


def test_connected_labeled_counts():
    import itertools

    import networkx as nx

    for n, want in checks.CONNECTED_LABELED.items():
        pairs = list(itertools.combinations(range(n), 2))
        count = 0
        for sel in range(1 << len(pairs)):
            g = nx.Graph([pairs[i] for i in range(len(pairs)) if sel >> i & 1])
            count += g.number_of_nodes() == n and nx.is_connected(g)
        assert count == want


def test_evc_check_accepts_the_program_and_rejects_a_wrong_value(tmp_path):
    report = _answer(tmp_path, "evc", P5)
    text = json.dumps(report)
    assert checks.check_evc("tree", *P5, text) == []
    bad = copy.deepcopy(report)
    bad["result"]["evc"] = 3
    bad["result"]["outcomes_by_guard_count"] = {"2": False, "3": True}
    assert checks.check_evc("tree", *P5, json.dumps(bad))
    bad = copy.deepcopy(report)
    bad["result"]["mvc"] = 3
    assert checks.check_evc("tree", *P5, json.dumps(bad))


def test_evc_check_uses_the_koenig_characterisation():
    labels, lines = C4
    fake = {"input": {"vertices": labels, "edges": lines},
            "result": {"evc": 3, "mvc": 2, "outcomes_by_guard_count": {"2": False, "3": True}}}
    problems = checks.check_evc("gnp", labels, lines, json.dumps(fake))
    assert any("Koenig" in p for p in problems)


def test_strategy_replay_rejects_illegal_and_non_crossing_moves(tmp_path):
    report = _answer(tmp_path, "spartan", C4)
    assert report["result"]["spartan"] is True
    assert checks.check_spartan("cycle", *C4, json.dumps(report)) == []
    g = checks.nx_graph(*C4)

    def forged(edit):
        bad = copy.deepcopy(report)
        edit(bad["result"]["strategy"]["transitions"])
        return checks.check_spartan("cycle", *C4, json.dumps(bad))

    def along_a_non_edge(transitions):
        u, v = transitions[0]["attack"]
        opposite = next(x for x in C4[0] if x != u and not g.has_edge(u, x))
        transitions[0]["moves"] = [[u, v], [opposite, u]]

    assert forged(along_a_non_edge)
    assert forged(lambda trs: trs[0].update(moves=[]))
    assert forged(lambda trs: trs[0].update(moves=[trs[0]["attack"][::-1]]))
    assert forged(lambda trs: trs.pop(0))


# a triangle with a two-edge tail: not Koenig (matching 2, cover 3), not Spartan
TAILED = _graph("tailed_triangle", 5, ((0, 1), (0, 4), (1, 2), (1, 3), (2, 3)))


def test_forged_deletion_trace_is_rejected(tmp_path):
    report = _answer(tmp_path, "spartan", TAILED)
    cert = report["result"]["certificate"]
    assert report["result"]["spartan"] is False and cert["kind"] == "empty_fixpoint"
    assert checks.check_spartan("tailed_triangle", *TAILED, json.dumps(report)) == []

    def forged(edit):
        bad = copy.deepcopy(report)
        edit(bad["result"]["certificate"]["deletions"])
        return checks.check_spartan("tailed_triangle", *TAILED, json.dumps(bad))

    assert forged(lambda d: d.pop())
    assert forged(lambda d: d.append(copy.deepcopy(d[0])))

    def inside_edge(d):
        cover = d[0]["cover"]
        d[0]["attack"] = next([a, b] for a, b in TAILED[1] if a in cover and b in cover)

    assert forged(inside_edge)


def test_wrong_spartan_verdict_on_an_odd_cycle_is_rejected(tmp_path):
    c5 = _graph("odd_cycle", 5, graphs.cycle(5))
    report = _answer(tmp_path, "spartan", c5)
    assert checks.check_spartan("odd_cycle", *c5, json.dumps(report)) == []
    forged = copy.deepcopy(report)
    forged["result"]["spartan"] = False
    forged["result"]["certificate"] = {"kind": "odd_cycle", "cycle": ["v0", "v1", "v2"]}
    assert checks.check_spartan("odd_cycle", *c5, json.dumps(forged))


def test_sweep_check_rejects_a_wrong_corpus_count_or_failed_criterion():
    params = {"max_n": 5, "samples": 3}
    good = {"passed": True, "corpus_size": 1 + 4 + 38 + 728 + 6 + 10,
            "criteria": [[i, True, "c", "d"] for i in range(1, 9)]}
    assert checks.check_sweep(params, good) == []
    assert checks.check_sweep(params, dict(good, corpus_size=good["corpus_size"] - 1))
    failed = copy.deepcopy(good)
    failed["criteria"][3][1] = False
    assert checks.check_sweep(params, failed)
    assert checks.check_sweep(params, dict(good, criteria=good["criteria"][:7]))


def test_sweep_check_counts_minimum_covers_with_networkx():
    # C4 has 2 minimum covers (1 pair), the path a-b-c has 1
    corpus = [(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 3), (0, 3))),
              (("a", "b", "c"), ((0, 1), (1, 2)))]
    assert checks.corpus_cover_counts(corpus) == (3, 1)
    params = {"max_n": 5, "samples": 3}
    report = {"passed": True, "corpus_size": 1 + 4 + 38 + 728 + 6 + 10,
              "criteria": [[i, True, "c", "d"] for i in range(1, 9)]}
    report["criteria"][2][3] = "1 pairs, 0 failures"
    report["criteria"][4][3] = "3 covers, 0 implication violations"
    assert checks.check_sweep(params, report, corpus) == []
    report["criteria"][4][3] = "4 covers, 0 implication violations"
    assert checks.check_sweep(params, report, corpus)


def _evckit_attributes():
    mods = {n: m for n, m in sys.modules.items() if n == "evckit" or n.startswith("evckit.")}
    snap = {(n, a): v for n, m in mods.items() for a, v in vars(m).items()}
    snap[("Graph", "induced")] = vars(evckit.Graph)["induced"]
    return snap


def test_tracer_counts_calls_and_restores_every_attribute(tmp_path):
    path = _write(tmp_path, C4)
    for module, _ in tracing.LAYERS.values():
        importlib.import_module(f"evckit.{module}")
    before = _evckit_attributes()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert evckit.game.move_feasible_counts is not before[("evckit.game", "move_feasible_counts")]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["evc", str(path), "--json"])
    figures = tracer.take()
    after = _evckit_attributes()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert figures["cli.main.calls"] == 1
    assert figures["game.solve_guard_game.calls"] >= 1
    assert figures["reachability.move_feasible_counts.calls"] > 0
    assert figures["game.states"] > 0
    assert figures["defense.check_defense.calls"] == 0
    assert tracer.absent == []
    assert set(figures) == set(tracing.metric_names())


def test_tracer_self_time_excludes_traced_children(tmp_path):
    path = _write(tmp_path, C4)
    tracer = tracing.Tracer()
    with tracer.installed():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["spartan", str(path), "--json"])
    figures = tracer.take()
    total = sum(v for k, v in figures.items() if k.endswith(".self_ms"))
    assert all(v >= 0 for k, v in figures.items() if k.endswith(".self_ms"))
    assert figures["cli.main.self_ms"] < total


def test_a_deleted_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(evckit.covers, "mvc_mask")
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == ["covers.mvc_mask"]
    assert tracer.take()["covers.mvc_mask.calls"] == 0


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    import shutil
    import subprocess

    bench = tmp_path / "perfbench"
    shutil.copytree(BENCH, bench, ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", ["evc-game", "spartan-decide"])
def test_every_generated_graph_is_connected_and_simple(workload):
    for (kind, n, edges), labels, lines in graphs.workload_inputs(workload, 3):
        assert len(set(edges)) == len(edges) and all(u < v for u, v in edges)
        assert graphs._connected(n, edges)
        assert len(labels) == n and len(lines) == len(edges)
