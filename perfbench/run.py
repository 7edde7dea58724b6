"""Benchmark of evckit's ``evc`` and ``spartan`` commands and its acceptance sweep.

Run from the root of a checkout::

    python3 perfbench/run.py --workload evc-game --seed 1 --seconds 30 --trace 0

Workloads: ``evc-game`` (``evckit evc FILE --json``), ``spartan-decide``
(``evckit spartan FILE --json``), ``sweep`` (``run_selftest(jobs=1)``).
The program runs in a separate worker process (``worker.py``); this process
generates the inputs, measures set-up, checks every answer with networkx
after the timed work, and prints one JSON line as the last line of its
standard output.  It exits 1 when an answer is wrong and 2 when the program
cannot be run.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import graphs  # noqa: E402
from worker import REFERENCE_KERNEL_S  # noqa: E402

WORKLOADS = ("evc-game", "spartan-decide", "sweep")
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
# the sweep: the exhaustive corpus on 2..5 vertices plus SWEEP_SAMPLES seeded
# graphs on each of 7 and 8 vertices
SWEEP_MAX_N = 5
SWEEP_SAMPLES = 100


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def _worker(workload, jobfile, outfile, seconds, mode):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload,
           jobfile, outfile, str(seconds), mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran longer than {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    with open(outfile) as fh:
        result = json.load(fh)
    # perf_counter is CLOCK_MONOTONIC, shared by both processes
    result["setup_raw_s"] = result["t_first"] - t0
    result["setup_s"] = result["setup_raw_s"] * REFERENCE_KERNEL_S / result["kernel"][0]
    return result


def _write_inputs(workload, seed, family_seed, workdir):
    """Write the workload's inputs; returns (jobfile, items)."""
    jobfile = os.path.join(workdir, "jobs.txt")
    if workload == "sweep":
        params = {"max_n": SWEEP_MAX_N, "samples": SWEEP_SAMPLES,
                  "seed": family_seed, "jobs": 1}
        with open(jobfile, "w") as fh:
            json.dump(params, fh)
        return jobfile, params
    items = graphs.workload_inputs(workload, seed, family_seed)
    paths = []
    for i, (_, labels, lines) in enumerate(items):
        path = os.path.join(workdir, f"g{i:03d}.json")
        with open(path, "w") as fh:
            fh.write(graphs.graph_text(labels, lines))
        paths.append(path)
    with open(jobfile, "w") as fh:
        fh.write("".join(p + "\n" for p in paths))
    return jobfile, items


def _percentile(values, q):
    """q-th percentile (0 < q < 100) with statistics.quantiles' default rule."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _at_reference_speed(samples, kernel):
    """Each call's time scaled by the calibration kernel measured around it:
    ``t * REFERENCE_KERNEL_S / mean(kernel samples from before to after)``."""
    return [t * REFERENCE_KERNEL_S / statistics.fmean(kernel[before:after + 1])
            for t, before, after in samples]


def _cli_figures(times, kernel, answered):
    """A graph's time is the median over the run's passes."""
    per_graph = [statistics.median(_at_reference_speed(times[i], kernel)) for i in answered]
    ms = [t * 1000.0 for t in per_graph]
    return {
        "graphs_per_s": len(per_graph) / sum(per_graph),
        "graph_ms_p50": statistics.median(ms),
        "graph_ms_p90": _percentile(ms, 90),
    }


def _sweep_figures(times, kernel, corpus_size):
    """The sweep gives one time per call, so both percentiles read the
    median call's mean time per graph."""
    call = statistics.median(_at_reference_speed(times[0], kernel))
    per_graph_ms = call * 1000.0 / corpus_size
    return {
        "graphs_per_s": corpus_size / call,
        "graph_ms_p50": per_graph_ms,
        "graph_ms_p90": per_graph_ms,
    }


def _selftest_corpus(params):
    """The graphs ``run_selftest`` examines, from the program's own corpus
    builder (the answers about them come from networkx); None when the
    program no longer offers it."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from evckit.selftest import build_corpus

        return build_corpus(params["max_n"], params["samples"], params["seed"])
    except (ImportError, TypeError) as exc:
        print(f"note: no selftest corpus to cross-check ({exc})", file=sys.stderr)
        return None


def _check(workload, items, result):
    """Returns (answered indices, failed calls per pass, problems)."""
    import checks

    first = result["first"]
    problems = []
    if result["unstable"]:
        problems.append(f"{result['unstable']} calls gave another output than in the first pass")
    if workload == "sweep":
        problems += checks.check_sweep(items, first[0], _selftest_corpus(items))
        failed = 1 if "exception" in first[0] else 0
        return ([] if failed else [0]), failed, problems
    check = checks.check_evc if workload == "evc-game" else checks.check_spartan
    answered = []
    for i, ((kind, n, _), labels, lines) in enumerate(items):
        rc, out, err = first[i]
        if rc != 0:
            print(f"failed: {kind} n={n}: exit {rc}: {err.strip()}", file=sys.stderr)
            continue
        answered.append(i)
        problems += [f"{kind} n={n}: {p}" for p in check(kind, labels, lines, out)]
    return answered, len(items) - len(answered), problems


def run(workload, seed, seconds, trace, family_seed):
    if not os.path.isfile(os.path.join(ROOT, "src", "evckit", "__init__.py")):
        raise BenchError("no evckit source under src/evckit in this checkout")
    try:
        import networkx  # noqa: F401  (the checks need it; fail before any timing)
    except ImportError as exc:
        raise BenchError(f"the answer checks need networkx: {exc}") from None

    workdir = os.path.join(HERE, "out", f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        jobfile, items = _write_inputs(workload, seed, family_seed, workdir)
        probe_out = os.path.join(workdir, "probe.json")
        # the first start compiles the program's bytecode; it is not measured
        _worker(workload, jobfile, probe_out, 0, "probe")
        probes = [_worker(workload, jobfile, probe_out, 0, "probe")
                  for _ in range(SETUP_PROBES)]
        mode = "trace" if trace else "run"
        result = _worker(workload, jobfile, os.path.join(workdir, "result.json"),
                         seconds, mode)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probes.append(result)
    setups = [p["setup_s"] for p in probes]
    raw_setups = [p["setup_raw_s"] for p in probes]

    answered, failed_per_pass, problems = _check(workload, items, result)
    for p in problems:
        print(f"WRONG: {p}", file=sys.stderr)
    if not answered:
        raise BenchError("no operation succeeded, so nothing was timed")
    passes = result["passes"]
    slots = 1 if workload == "sweep" else len(items)
    out = {
        "correct": not problems,
        "attempted": passes * slots,
        "failed": passes * failed_per_pass,
    }

    def figures(times):
        if workload == "sweep":
            return _sweep_figures(times, result["kernel"], result["first"][0]["corpus_size"])
        return _cli_figures(times, result["kernel"], answered)

    if not trace:
        fig = figures(result["times"])
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "graphs_per_s": (fig["graphs_per_s"], "1/s"),
            "graph_ms_p50": (fig["graph_ms_p50"], "ms"),
            "graph_ms_p90": (fig["graph_ms_p90"], "ms"),
            "peak_rss_mb": (result["rss_kb"] / 1024.0, "MB"),
        }
        print(f"passes {passes}; kernel median {statistics.median(result['kernel']) * 1e3:.3f} ms "
              f"(reference {REFERENCE_KERNEL_S * 1e3:.3f} ms); unscaled setup median "
              f"{statistics.median(raw_setups):.4f} s", file=sys.stderr)
    else:
        import tracing

        plain = figures(result["times"])["graphs_per_s"]
        traced = figures(result["traced_times"])["graphs_per_s"]
        layers = result["layers"]
        values = {}
        for name in tracing.metric_names():
            unit = "ms" if name.endswith("_ms") else "count"
            values[name] = (statistics.median(p[name] for p in layers), unit)
        values["trace.graphs_per_s"] = (traced, "1/s")
        values["trace.untraced_graphs_per_s"] = (plain, "1/s")
        values["trace.overhead_pct"] = ((plain / traced - 1.0) * 100.0, "%")
        values["trace.absent"] = (len(result["absent"]), "count")
        for name in result["absent"]:
            print(f"trace: {name} is absent from the program", file=sys.stderr)
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1,
                    help="presentation seed: labels, edge order, list order")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--family-seed", type=int, default=graphs.DEFAULT_FAMILY_SEED,
                    help="picks the graphs (and the sweep's corpus seed)")
    args = ap.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, args.trace, args.family_seed)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
