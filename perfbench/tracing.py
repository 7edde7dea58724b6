"""Per-layer tracing of evckit from outside: wrappers around public functions.

Nothing is changed in the program's source.  ``Tracer.installed()`` replaces
each traced function, in every loaded evckit module that binds it (modules
import functions by name), with a wrapper that counts calls and measures
self time: the span's time minus the time of the traced calls inside it.
Leaving the ``with`` block puts every replaced attribute back.  A traced name
that the program no longer has is listed in ``Tracer.absent`` and reads 0.

``graph.bits`` runs millions of times and is left alone; its cost shows in
its callers' self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

# metric name -> (module, attribute path inside that module)
LAYERS = {
    "reachability.move_feasible_counts": ("reachability", "move_feasible_counts"),
    "reachability.compatible_configs": ("reachability", "compatible_configs"),
    "game.solve_guard_game": ("game", "solve_guard_game"),
    "covers.enumerate_covers_up_to": ("covers", "enumerate_covers_up_to"),
    "covers.enumerate_min_vcs": ("covers", "enumerate_min_vcs"),
    "covers.mvc_mask": ("covers", "mvc_mask"),
    "defense.check_defense": ("defense", "check_defense"),
    "defense.rainbow_pm_with_edge": ("defense", "rainbow_pm_with_edge"),
    "defense.build_aux": ("defense", "build_aux"),
    "defense.matching_to_paths": ("defense", "matching_to_paths"),
    "matching.hopcroft_karp": ("matching", "hopcroft_karp"),
    "matching.max_matching_size": ("matching", "max_matching_size"),
    "matching.is_elementary": ("matching", "is_elementary"),
    "decider.spartan_fixpoint": ("decider", "spartan_fixpoint"),
    "decider.strategy_export": ("decider", "strategy_export"),
    "goodness.is_weakly_good": ("goodness", "is_weakly_good"),
    "goodness.is_strongly_good": ("goodness", "is_strongly_good"),
    "goodness.necessary_conditions_report": ("goodness", "necessary_conditions_report"),
    "graph.induced": ("graph", "Graph.induced"),
    "graph.mask_components": ("graph", "mask_components"),
    "graph.load_graph_text": ("graph", "load_graph_text"),
    "report.canonical_json": ("report", "canonical_json"),
    "corpus.exhaustive_connected": ("corpus", "exhaustive_connected"),
    "cli.main": ("cli", "main"),
    "selftest.run_selftest": ("selftest", "run_selftest"),
}

# work counters read from results and arguments, not from spans
COUNTERS = (
    "game.states",
    "game.removal_rounds",
    "game.lost_solves",
    "decider.covers",
    "decider.deleted_covers",
)


def _game_counts(counts, args, kwargs, result):
    counts["game.states"] += len(getattr(result, "states", ()))
    ranks = getattr(result, "ranks", None) or {}
    counts["game.removal_rounds"] += max(ranks.values()) + 1 if ranks else 0
    counts["game.lost_solves"] += not getattr(result, "defender_wins", True)


def _fixpoint_counts(counts, args, kwargs, result):
    covers = kwargs.get("covers")
    survivors = getattr(result, "covers", None)
    deletions = getattr(result, "deletions", None)
    if deletions is not None:
        counts["decider.covers"] += len(deletions)
        counts["decider.deleted_covers"] += len(deletions)
    elif covers is not None and survivors is not None:
        counts["decider.covers"] += len(covers)
        counts["decider.deleted_covers"] += len(covers) - len(survivors)


_RESULT_HOOKS = {
    "game.solve_guard_game": _game_counts,
    "decider.spartan_fixpoint": _fixpoint_counts,
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_ms"]
    return names + list(COUNTERS)


def _resolve(module, path):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Counts calls, self time and work counters while installed."""

    def __init__(self):
        self.absent: list[str] = []
        self._calls = dict.fromkeys(LAYERS, 0)
        self._self_s = dict.fromkeys(LAYERS, 0.0)
        self._counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[float] = []

    def take(self) -> dict:
        """Return the figures gathered since the last ``take`` and reset."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self._calls[layer]
            out[f"{layer}.self_ms"] = self._self_s[layer] * 1000.0
            self._calls[layer] = 0
            self._self_s[layer] = 0.0
        for name in COUNTERS:
            out[name] = self._counts[name]
            self._counts[name] = 0
        return out

    def _wrap(self, layer, fn):
        calls, self_s, stack = self._calls, self._self_s, self._stack
        perf = time.perf_counter
        hook = _RESULT_HOOKS.get(layer)
        counts = self._counts

        def close(t0):
            dur = perf() - t0
            self_s[layer] += dur - stack.pop()
            if stack:
                stack[-1] += dur

        if inspect.isgeneratorfunction(fn):
            # a generator's work happens in each resumption, so each one is
            # a span; the consumer's time between items is not counted
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[layer] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(t0)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(t0)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced function while the block runs."""
        replaced = []  # (owner, attribute, original)
        self.absent = []
        try:
            for layer, (mod_name, path) in LAYERS.items():
                try:
                    module = importlib.import_module(f"evckit.{mod_name}")
                except ImportError:
                    module = None
                fn = None if module is None else _resolve(module, path)
                if fn is None or not callable(fn):
                    self.absent.append(layer)
                    continue
                wrapper = self._wrap(layer, fn)
                if "." in path:  # a method: replace it on its class
                    owner_path, attr = path.rsplit(".", 1)
                    owner = _resolve(module, owner_path)
                    replaced.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)
                    continue
                for name, mod in list(sys.modules.items()):
                    if mod is None or not (name == "evckit" or name.startswith("evckit.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            replaced.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)
