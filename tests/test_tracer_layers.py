"""The benchmark's tracer still fits the package.

``perfbench/tracer.py`` maps source files to layers by name; time spent in
a file it does not map falls into ``other`` and silently lowers the traced
coverage.  It also reaches named functions of the package for its counts.
These tests read and run the tracer, and edit nothing under perfbench.
"""

import importlib.util
import json
import os
import subprocess
import sys

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


def test_traced_invocation_writes_every_figure(tmp_path):
    # a traced target renamed or deleted in the package stops the tracer
    # before it writes its figures
    tracer = _tracer()
    out = tmp_path / "figures.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src") + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "tracer.py"), str(out),
         "--", "verify", "su4_mod_center"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, encoding="utf-8") as fh:
        figures = json.load(fh)
    missing = [name for name in tracer.COUNT_METRICS + tracer.TIME_METRICS
               if name not in figures]
    assert not missing, "figures the tracer did not write: %s" % missing
