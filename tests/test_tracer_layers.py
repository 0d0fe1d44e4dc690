"""Every package module is owned by a layer of the benchmark's tracer.

``perfbench/tracer.py`` maps source files to layers by name; time spent in
a file it does not map falls into ``other`` and silently lowers the traced
coverage.  This test only reads the tracer.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "acceptcert")


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_module_maps_to_a_tracer_layer():
    tracer = _tracer()
    modules = []
    for folder, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py") and name not in ("__init__.py", "__main__.py"):
                modules.append(os.path.join(folder, name))
    assert modules
    unmapped = [path for path in modules if tracer._layer_of(path) not in tracer.LAYERS]
    assert not unmapped, "modules no tracer layer owns: %s" % unmapped
