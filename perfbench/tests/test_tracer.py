"""The tracer's layer self times and descent counter, and the run's rounds.

Foreign (builtin, stdlib) time goes to the calling layer.

Run with ``python3 -m pytest perfbench/tests``.
"""

import os
import subprocess
import sys
import textwrap

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402

GRP = ("/r/src/acceptcert/grpcore.py", 10, "f")
CLI = ("/r/src/acceptcert/cli.py", 5, "main")
JSON = ("/usr/lib/python3.11/json/encoder.py", 1, "encode")
LEN = ("~", 0, "<built-in method builtins.len>")
TOP = ("/r/perfbench/tracer.py", 1, "main")


def _stats():
    # pstats layout: (cc, nc, tottime, cumtime, {caller: (nc, cc, tottime, cumtime)})
    return {
        GRP: (1, 1, 1.0, 2.0, {CLI: (1, 1, 1.0, 2.0)}),
        CLI: (1, 1, 0.3, 3.0, {}),
        JSON: (1, 1, 0.4, 0.9, {CLI: (1, 1, 0.4, 0.9)}),
        LEN: (2, 2, 1.0, 1.0, {GRP: (1, 1, 0.5, 0.5), JSON: (1, 1, 0.5, 0.5)}),
        TOP: (1, 1, 0.2, 0.2, {}),
    }


def test_foreign_time_follows_its_callers():
    got = tracer.layer_self_times(_stats())
    assert got["grpcore"] == pytest.approx(1.5)      # own 1.0 + its half of len
    assert got["cli"] == pytest.approx(1.2)          # own 0.3 + json 0.4 + json's len 0.5
    assert got["other"] == pytest.approx(0.2)        # the tracer's own frame
    assert sum(got.values()) == pytest.approx(sum(v[2] for v in _stats().values()))
    assert all(got[layer] == 0.0 for layer in tracer.LAYERS if layer not in ("grpcore", "cli"))


def test_kernel_files_count_as_cyclotomic():
    assert tracer._layer_of("/r/src/acceptcert/exactalg/_purekernel.py") == "cyclotomic"
    assert tracer._layer_of("/r/src/acceptcert/exactalg/linalg.py") == "linalg"
    assert tracer._layer_of("/r/src/acceptcert/__init__.py") is None
    assert tracer._layer_of("/usr/lib/python3.11/fractions.py") is None


def test_rounds_make_at_least_the_minimum():
    assert len(list(run.rounds(0))) == 1
    assert len(list(run.rounds(0, minimum=2))) == 2


# Runs in a child interpreter: the wrappers replace package functions for good.
DESCENTS = """
import collections, tracer
from acceptcert.exactalg.cyclotomic import cyc_i, cyc_zeta
sums = collections.defaultdict(int)
tracer._install_wrappers(sums, collections.defaultdict(float))
i, z8 = cyc_i(), cyc_zeta(8)

def falls(op):
    before = sums["cyclotomic.descents"]
    value = op()
    return value.n, sums["cyclotomic.descents"] - before

print(falls(lambda: i * i), falls(lambda: z8 * z8), falls(lambda: i + i),
      falls(lambda: z8 * i - z8 * i + 3))
"""


def test_descents_count_every_fall_of_the_conductor():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [HERE, os.path.join(os.path.dirname(HERE), "src")]))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(DESCENTS)], env=env,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    # i*i = -1 falls from 4 to Q; zeta_8^2 = i from 8 to 4; i+i stays at 4;
    # the difference of equal conductor-8 values is 0 (one fall), plus 3 (none)
    assert out.split() == "(1, 1) (4, 1) (4, 0) (1, 1)".split()
