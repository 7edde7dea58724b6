"""Timed half of the benchmark: one process that runs the program.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 worker.py ROOT WORKLOAD JOBFILE OUTFILE SECONDS MODE

``MODE`` is ``probe`` (stop at the first timed call and report the time),
``run`` (untimed set-up, then whole passes until SECONDS have elapsed) or
``trace`` (as ``run``, alternating plain and traced passes).

The worker imports evckit from ``ROOT/src`` and nothing of the checks: no
networkx and no parsing of the program's output happens here, so the peak
resident memory it reports is the program's.  It writes one JSON file.
"""

import io
import json
import random
import resource
import signal
import sys
import time

_perf = time.perf_counter
CALIBRATE_EVERY_S = 0.1
# the kernel's typical time on the reference machine (2-vCPU Xeon, 2.1 GHz,
# CPython 3.11); times are reported as if the machine ran at that speed
REFERENCE_KERNEL_S = 0.0013


class Calibrator:
    """A fixed pure-Python kernel, timed every CALIBRATE_EVERY_S seconds.

    The host's speed drifts by tens of percent for seconds to minutes at a
    time.  The kernel (breadth-first searches with dicts, lists and tuples,
    like the program's own inner loops) slows with it.  An interval timer
    runs it between the program's bytecodes, so every call, however long,
    is bracketed by kernel samples taken before, during and after it; the
    time the kernel takes inside a call is subtracted from the call.
    """

    def __init__(self):
        rng = random.Random(0)
        n = 120
        self.adj = [[] for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.05:
                    self.adj[u].append(v)
                    self.adj[v].append(u)
        self.took = []  # kernel time of each sample
        self.spent = 0.0  # time spent in samples, to subtract from calls

    def _kernel(self):
        adj = self.adj
        total = 0
        for s in range(0, len(adj), 8):
            dist = {s: 0}
            queue = [s]
            for x in queue:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        queue.append(y)
            total += len(tuple(sorted(dist.items())))
        return total

    def sample(self, *_signal_args):
        t0 = _perf()
        self._kernel()
        t1 = _perf()
        self.took.append(t1 - t0)
        self.spent += _perf() - t0

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()  # the sample after the last call


def _timed(cal, fn, *args):
    """Run ``fn``; returns (result, (seconds, first sample, last sample)).

    The samples from the last one before the call to the first one after
    it describe the machine's speed while the call ran.
    """
    before = len(cal.took) - 1
    spent = cal.spent
    t0 = _perf()
    try:
        result = fn(*args)
    except Exception as exc:  # an escaped error counts as a failed call
        result = exc
    t1 = _perf()
    return result, (t1 - t0 - (cal.spent - spent), before, len(cal.took))


def _cli_pass(main, argvs, times, first, cal):
    """One pass over the graph list through ``cli.main``; returns the
    number of calls whose output differs from the first pass."""
    unstable = 0
    real_out, real_err = sys.stdout, sys.stderr
    for i, argv in enumerate(argvs):
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        try:
            rc, sample = _timed(cal, main, argv)
        finally:
            sys.stdout, sys.stderr = real_out, real_err
        times[i].append(sample)
        if isinstance(rc, Exception):
            rc = f"exception: {type(rc).__name__}: {rc}"
        got = (rc, out.getvalue(), err.getvalue())
        if first[i] is None:
            first[i] = got
        elif first[i][:2] != got[:2]:
            unstable += 1
    return unstable


def _sweep_pass(run_selftest, params, times, first, cal):
    report, sample = _timed(cal, lambda: run_selftest(**params))
    times[0].append(sample)
    if isinstance(report, Exception):
        got = {"exception": f"{type(report).__name__}: {report}"}
    else:
        got = {
            "passed": report.passed,
            "corpus_size": report.corpus_size,
            "criteria": [[c.number, c.passed, c.name, c.detail] for c in report.criteria],
            "lines": report.lines(),
        }
    if first[0] is None:
        first[0] = got
        return 0
    return int(first[0] != got)


def main(argv):
    root, workload, jobfile, outfile, seconds, mode = argv
    seconds = float(seconds)
    sys.path.insert(0, root + "/src")
    if workload == "sweep":
        import evckit.selftest as entry

        with open(jobfile) as fh:
            params = json.load(fh)
        call = lambda: entry.run_selftest  # noqa: E731  (looked up per pass)
        jobs, do_pass, slots = params, _sweep_pass, 1
    else:
        import evckit.cli as entry

        command = {"evc-game": "evc", "spartan-decide": "spartan"}[workload]
        with open(jobfile) as fh:
            jobs = [[command, line.rstrip("\n"), "--json"] for line in fh if line.strip()]
        call = lambda: entry.main  # noqa: E731
        do_pass, slots = _cli_pass, len(jobs)
    t_first = _perf()
    cal = Calibrator()
    if mode == "probe":
        cal.sample()
        with open(outfile, "w") as fh:
            json.dump({"t_first": t_first, "kernel": cal.took}, fh)
        return 0

    tracer = None
    if mode == "trace":
        sys.path.insert(0, root + "/perfbench")
        import tracing

        tracer = tracing.Tracer()
    times = [[] for _ in range(slots)]
    traced_times = [[] for _ in range(slots)]
    first = [None] * slots
    passes = unstable = 0
    layer_passes = []
    cal.start()
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            with tracer.installed():
                unstable += do_pass(call(), jobs, traced_times, first, cal)
            layer_passes.append(tracer.take())
        else:
            unstable += do_pass(call(), jobs, times, first, cal)
        passes += 1
        if _perf() - t_first >= seconds and (tracer is None or layer_passes):
            break
    cal.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "t_first": t_first,
        "passes": passes,
        "rss_kb": rss_kb,
        "times": times,
        "kernel": cal.took,
        "first": first,
        "unstable": unstable,
    }
    if tracer is not None:
        result["traced_times"] = traced_times
        result["layers"] = layer_passes
        result["absent"] = tracer.absent
    with open(outfile, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
