"""Every layer the benchmark traces names a function the package still has.

``perfbench/tracing.py`` wraps functions by module and attribute path, and a
path it cannot resolve reads 0 calls (counted in ``trace.absent``).  This
test reads the tracer's table from that file and resolves each entry.
"""

import importlib
import importlib.util
import os

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "tracing.py",
)


def _traced_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    layers = _traced_layers()
    assert layers
    missing = []
    for layer, (module, path) in layers.items():
        obj = importlib.import_module(f"evckit.{module}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(layer)
    assert missing == []
