"""Command-line surface.

Subcommands: mvc, evc, spartan, konig, certify, aux, play, selftest.
Exit codes: 0 success, 1 analysis refusal (budget or truncation), 2 input
error.  ``--json`` emits the byte-stable canonical report (it omits the
timing block, which is the only run-dependent field).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time
from pathlib import Path

from . import report as rpt
from .covers import DEFAULT_COVER_CAP, enumerate_min_vcs, mvc_mask
from .decider import is_spartan, strategy_export
from .defense import build_aux
from .errors import (
    EvckitError,
    GraphFormatError,
    IntegrityError,
    PreconditionError,
    ResourceLimitError,
    ValidationError,
)
from .game import evc, play_session
from .goodness import necessary_conditions_report
from .graph import Graph, OddCycle, bipartition, connected_components, load_graph_text
from .matching import is_essentially_elementary, max_matching_size


def _load(path: str) -> Graph:
    if path == "-":
        return load_graph_text(sys.stdin.read())
    return load_graph_text(Path(path).read_text())


@contextlib.contextmanager
def _phase(timings_ms: dict[str, float], name: str):
    """Record the block's wall time in ``timings_ms[name]``, in milliseconds."""
    t0 = time.perf_counter()
    yield
    timings_ms[name] = round((time.perf_counter() - t0) * 1000.0, 3)


def _emit(report_obj: dict, timings_ms: dict, json_mode: bool) -> None:
    if json_mode:
        text = rpt.canonical_json(report_obj)
    else:
        report_obj = dict(report_obj)
        report_obj["timings_ms"] = timings_ms
        text = rpt.pretty_json(report_obj)
    with _reader_may_leave():
        print(text, flush=True)


@contextlib.contextmanager
def _reader_may_leave():
    """Drop the rest of the block's standard output quietly when the reader
    closes the pipe (``| head``); the block must flush what it prints."""
    try:
        yield
    except BrokenPipeError:
        # point stdout at the null device so that the flush at exit cannot
        # fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cover_labels(g: Graph, covers) -> list[list[str]]:
    return [list(g.labels_of(c)) for c in covers]


def cmd_mvc(args) -> int:
    g = _load(args.file)
    timings_ms: dict[str, float] = {}
    with _phase(timings_ms, "enumerate"):
        cs = enumerate_min_vcs(g, cap=args.cap)
    out = rpt.base_report(g, "mvc")
    out["result"] = {
        "size": cs.size,
        "covers": _cover_labels(g, cs.covers),
        "truncated": cs.truncated,
        "cap": cs.cap,
    }
    _emit(out, timings_ms, args.json)
    return 0


def cmd_evc(args) -> int:
    if args.budget is not None and args.budget < 0:
        raise PreconditionError(f"--budget must be at least 0, got {args.budget}")
    g = _load(args.file)
    timings_ms: dict[str, float] = {}
    with _phase(timings_ms, "solve"):
        result = evc(g, budget=args.budget)
    out = rpt.base_report(g, "evc")
    out["result"] = {
        "evc": result.value,
        "mvc": result.mvc,
        "components": result.per_component,
        "outcomes_by_guard_count": {str(k): w for k, w in result.outcomes.items()},
    }
    _emit(out, timings_ms, args.json)
    return 0


def cmd_spartan(args) -> int:
    g = _load(args.file)
    timings_ms: dict[str, float] = {}
    with _phase(timings_ms, "decide"):
        verdict = is_spartan(
            g, method=args.method, cross_check=args.cross_check, cover_cap=args.cap
        )
    out = rpt.base_report(g, "spartan")
    payload = {
        "spartan": verdict.spartan,
        "method": verdict.method,
        "mvc": verdict.mvc,
        "max_matching": verdict.max_matching,
    }
    if verdict.family is not None:
        payload["family"] = _cover_labels(g, verdict.family.covers)
        payload["strategy"] = strategy_export(verdict.family, g)
    if verdict.certificate is not None:
        payload["certificate"] = rpt.labelize(g, verdict.certificate)
    if verdict.components is not None:
        payload["components"] = [
            {
                "spartan": v.spartan,
                "method": v.method,
                "mvc": v.mvc,
                "family": None
                if v.family is None
                else _cover_labels(g, v.family.covers),
                "certificate": None
                if v.certificate is None
                else rpt.labelize(g, v.certificate),
            }
            for v in verdict.components
        ]
    if verdict.cross_check is not None:
        cc = verdict.cross_check
        if args.json:
            cc = {k: v for k, v in cc.items() if not k.endswith("_ms")}
        payload["cross_check"] = cc
    out["result"] = payload
    _emit(out, timings_ms, args.json)
    return 0


def cmd_konig(args) -> int:
    g = _load(args.file)
    timings_ms: dict[str, float] = {}
    with _phase(timings_ms, "analyze"):
        mm = max_matching_size(g)
        k = mvc_mask(g, g.full_mask)
        konig = mm == k
        bip_ok = True
        odd = None
        for comp in connected_components(g):
            sub = g.induced(comp)
            res = bipartition(sub)
            if isinstance(res, OddCycle):
                bip_ok = False
                odd = list(sub.labels_of(res.vertices))
                break
        elem = bip_ok and is_essentially_elementary(g)
    out = rpt.base_report(g, "konig")
    out["result"] = {
        "max_matching": mm,
        "mvc": k,
        "konig": konig,
        "bipartite": bip_ok,
        "essentially_elementary": elem,
        "spartan_if_konig": (bip_ok and elem) if konig else None,
        "odd_cycle": odd,
    }
    _emit(out, timings_ms, args.json)
    return 0


def cmd_certify(args) -> int:
    g = _load(args.file)
    timings_ms: dict[str, float] = {}
    k = args.k if args.k is not None else mvc_mask(g, g.full_mask)
    with _phase(timings_ms, "battery"):
        battery = necessary_conditions_report(g, k)
    out = rpt.base_report(g, "certify")
    conditions = []
    for cond in battery["conditions"]:
        cond = dict(cond)
        if cond["certificate"] is not None:
            cond["certificate"] = rpt.labelize(g, cond["certificate"])
        conditions.append(cond)
    out["result"] = {
        "k": battery["k"],
        "mvc": battery["mvc"],
        "spartan_mode": battery["spartan_mode"],
        "verdict": battery["verdict"],
        "conditions": conditions,
    }
    _emit(out, timings_ms, args.json)
    return 0


def cmd_aux(args) -> int:
    g = _load(args.file)
    timings_ms: dict[str, float] = {}
    s = g.index_set(args.cover_s.split(","))
    t = g.index_set(args.cover_t.split(","))
    with _phase(timings_ms, "build"):
        aux = build_aux(g, s, t)
    out = rpt.base_report(g, "aux")
    out["result"] = {
        "left": list(g.labels_of(aux.left)),
        "right": list(g.labels_of(aux.right)),
        "dead_zone": list(g.labels_of(aux.dead_zone)),
        "colors": [list(g.labels_of(c)) for c in aux.colors],
        "real_edges": sorted(
            [g.labels[u], g.labels[v]] for u, v in aux.real_pairs
        ),
        "helper_edges": [
            {"edge": [g.labels[u], g.labels[v]], "color": c}
            for u, v, c in aux.helper_pairs
        ],
    }
    _emit(out, timings_ms, args.json)
    return 0


def cmd_play(args) -> int:
    g = _load(args.file)
    with _reader_may_leave():
        play_session(g, args.guards, sys.stdin, sys.stdout)
        sys.stdout.flush()
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    for flag, value, least in (
        ("--max-n", args.max_n, 0),
        ("--samples", args.samples, 0),
        ("--jobs", args.jobs, 1),
    ):
        if value is not None and value < least:
            raise PreconditionError(f"{flag} must be at least {least}, got {value}")
    report = run_selftest(
        max_n=args.max_n,
        samples=args.samples,
        seed=args.seed,
        jobs=args.jobs,
        progress=(lambda done: print(f"... {done} graphs", file=sys.stderr))
        if args.verbose
        else None,
    )
    with _reader_may_leave():
        print("\n".join(report.lines()), flush=True)
    if args.verbose:
        print("\n".join(report.cpu_lines()), file=sys.stderr)
    return 0 if report.passed else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="byte-stable JSON output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``parse_args`` leaves it as it
    was, so every call starts from the same defaults."""
    parser = argparse.ArgumentParser(
        prog="evckit",
        description="eternal vertex cover game solver and Spartan-graph decider",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mvc", help="minimum vertex cover size and all optima")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=DEFAULT_COVER_CAP)
    _add_common(p)
    p.set_defaults(fn=cmd_mvc)

    p = sub.add_parser("evc", help="exact eternal vertex cover number")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=None, help="max game states")
    _add_common(p)
    p.set_defaults(fn=cmd_evc)

    p = sub.add_parser("spartan", help="decide evc == mvc with certificates")
    p.add_argument("file")
    p.add_argument("--method", choices=["auto", "fixpoint", "game"], default="auto")
    p.add_argument("--cross-check", action="store_true")
    p.add_argument("--cap", type=int, default=DEFAULT_COVER_CAP)
    _add_common(p)
    p.set_defaults(fn=cmd_spartan)

    p = sub.add_parser("konig", help="Koenig / bipartite / elementary flags")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=cmd_konig)

    p = sub.add_parser("certify", help="necessary-condition battery for k guards")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("aux", help="print the defense graph for two covers")
    p.add_argument("file")
    p.add_argument("--cover-s", required=True, help="comma-separated labels")
    p.add_argument("--cover-t", required=True, help="comma-separated labels")
    _add_common(p)
    p.set_defaults(fn=cmd_aux)

    p = sub.add_parser("play", help="interactive attacker session")
    p.add_argument("file")
    p.add_argument("--guards", type=int, required=True)
    p.set_defaults(fn=cmd_play)

    p = sub.add_parser("selftest", help="run the acceptance suites")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--samples", type=int, default=300)
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (GraphFormatError, ValidationError, PreconditionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        msg = f"analysis refused: {exc}"
        if exc.bracket:
            msg += f" (known bounds: {exc.bracket[0]}..{exc.bracket[1]})"
        print(msg, file=sys.stderr)
        return 1
    except IntegrityError as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except EvckitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
