"""Run one ``acceptcert`` CLI invocation under cProfile and write per-layer figures.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py FIGURES.json -- verify crit_3a1 ...

The profiler is switched on before ``import acceptcert.cli``, so each
module's import-time code counts toward its own layer.  Layers are the
package's modules.  A layer's self time is the cProfile ``tottime`` of the
functions defined in it, plus the ``tottime`` of the builtins and standard
library functions it calls, split over their callers by the per-caller
``tottime`` that cProfile records.  Time no layer owns (interpreter start,
importlib frames above the package, this script) is reported as ``other``.

Counters that are not call counts come from thin wrappers around a few
functions: ``CycNum._normalized``, ``fingrp.closure``, ``Hom.verify``,
``homcheck.decide_global``, ``scfcheck.decide_eq2`` and ``certsuite.run``.
The wrappers' own time falls into ``other``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
import time
from collections import defaultdict

LAYERS = ("cyclotomic", "linalg", "grpcore", "fingrp", "conjtest", "homcheck",
          "so3crit", "scfcheck", "certsuite", "cli")

# Source files of the package and the layer each belongs to.  The arithmetic
# kernel files are the inner loops of the cyclotomic scalar type.
_FILE_LAYER = {
    "exactalg/cyclotomic.py": "cyclotomic",
    "exactalg/_purekernel.py": "cyclotomic",
    "exactalg/_kernel.py": "cyclotomic",
    "exactalg/linalg.py": "linalg",
    "grpcore.py": "grpcore",
    "fingrp.py": "fingrp",
    "conjtest.py": "conjtest",
    "homcheck.py": "homcheck",
    "so3crit.py": "so3crit",
    "scfcheck.py": "scfcheck",
    "certsuite.py": "certsuite",
    "cli.py": "cli",
}

CERT_IDS = ("su4_mod_center", "sp1_diag", "psp3_via_sp1", "psu_odd_prime",
            "su4_power_d4", "crit_3a1", "scf_o_odd", "scf_so_odd",
            "sanity_acceptable")

# Per-layer metrics in report order: self times first, then counts and
# inclusive times.  Every name here is printed on every workload.
COUNT_METRICS = (
    "cyclotomic.mul", "cyclotomic.add", "cyclotomic.inverse", "cyclotomic.eq",
    "cyclotomic.normalize", "cyclotomic.descents",
    "linalg.matmul", "linalg.char_poly", "linalg.det", "linalg.rref", "linalg.commutant",
    "grpcore.ambient_mul", "grpcore.memo_calls", "grpcore.memo_misses",
    "grpcore.coset_rep", "grpcore.quat_eq",
    "fingrp.closure", "fingrp.closure_elements", "fingrp.hom_verify_pairs",
    "conjtest.elements_conjugate", "conjtest.invariant",
    "homcheck.decide_global", "homcheck.twist_seeds",
    "scfcheck.decide_eq2", "scfcheck.contains", "scfcheck.translates",
    "certsuite.runs",
)
# Counts kept by the wrappers of _install_wrappers, not by the profiler.
WRAPPED_COUNTS = ("cyclotomic.descents", "fingrp.closure_elements",
                  "fingrp.hom_verify_pairs", "homcheck.twist_seeds", "scfcheck.translates")
TIME_METRICS = (
    tuple("%s.self_s" % layer for layer in LAYERS)
    + ("linalg.matmul_s", "linalg.char_poly_s", "linalg.rref_s",
       "fingrp.hom_verify_s", "homcheck.decide_global_s", "homcheck.oracle_s",
       "so3crit.decide_criterion_s")
    + tuple("certsuite.%s_s" % cid for cid in CERT_IDS)
)


def _layer_of(filename):
    path = filename.replace(os.sep, "/")
    cut = path.rfind("/acceptcert/")
    if cut < 0:
        return None
    return _FILE_LAYER.get(path[cut + len("/acceptcert/"):])


def _key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _targets():
    """Profiler keys of the functions whose calls or inclusive times are reported."""
    from acceptcert import certsuite, conjtest, fingrp, grpcore, homcheck, scfcheck, so3crit
    from acceptcert.exactalg import cyclotomic, linalg

    cyc = cyclotomic.CycNum
    mat = linalg.ExactMatrix
    return {
        "cyclotomic.mul": [cyc.__mul__],
        # __radd__ is __add__, and __rsub__ hands over to __sub__, so every
        # addition and subtraction is one call of these two
        "cyclotomic.add": [cyc.__add__, cyc.__sub__],
        "cyclotomic.inverse": [cyc.inverse],
        "cyclotomic.eq": [cyc.__eq__],
        "cyclotomic.normalize": [cyc._normalized.__func__],
        "linalg.matmul": [mat.__mul__],
        "linalg.char_poly": [mat.char_poly],
        "linalg.det": [mat.det],
        "linalg.rref": [linalg.rref],
        "linalg.commutant": [linalg.commutant],
        "grpcore.ambient_mul": [grpcore.AmbientElement.__mul__],
        "grpcore.memo_calls": [grpcore._memo_mul],
        "grpcore.coset_rep": [grpcore.GroupSpec.coset_rep],
        "grpcore.quat_eq": [grpcore.Quat.__eq__],
        "fingrp.closure": [fingrp.closure],
        "conjtest.elements_conjugate": [conjtest.elements_conjugate],
        "conjtest.invariant": [conjtest.invariant],
        "homcheck.decide_global": [homcheck.decide_global],
        "scfcheck.decide_eq2": [scfcheck.decide_eq2],
        "scfcheck.contains": [scfcheck.SymPairFamily.contains],
        "certsuite.runs": [certsuite.run],
        "linalg.matmul_s": [mat.__mul__],
        "linalg.char_poly_s": [mat.char_poly],
        "linalg.rref_s": [linalg.rref],
        "fingrp.hom_verify_s": [fingrp.Hom.verify],
        "homcheck.decide_global_s": [homcheck.decide_global],
        "homcheck.oracle_s": [homcheck.abelian_weight_oracle],
        "so3crit.decide_criterion_s": [so3crit.decide_criterion],
        # a memo miss is the one place _memo_mul multiplies the factor parts
        "_memo_mul": [grpcore._memo_mul],
        "_part_mul": [grpcore.Quat.__mul__, mat.__mul__],
    }


def _install_wrappers(sums, cert_s):
    """Wrap the functions behind the non-call-count counters, in every module."""
    from acceptcert import certsuite, fingrp, homcheck, scfcheck
    from acceptcert.exactalg.cyclotomic import CycNum

    orig_normalized = CycNum._normalized.__func__
    orig_closure = fingrp.closure
    orig_verify = fingrp.Hom.verify
    orig_decide_global = homcheck.decide_global
    orig_decide_eq2 = scfcheck.decide_eq2
    orig_run = certsuite.run

    def normalized(cls, n, nums, den):
        value = orig_normalized(cls, n, nums, den)
        if value.n != n:  # the conductor fell, in one or more steps, maybe to 1
            sums["cyclotomic.descents"] += 1
        return value

    def closure(*args, **kwargs):
        group = orig_closure(*args, **kwargs)
        sums["fingrp.closure_elements"] += group.order
        return group

    def verify(self):
        sums["fingrp.hom_verify_pairs"] += self.src.order ** 2
        return orig_verify(self)

    def decide_global(*args, **kwargs):
        verdict = orig_decide_global(*args, **kwargs)
        sums["homcheck.twist_seeds"] += verdict.seeds_examined
        return verdict

    def decide_eq2(*args, **kwargs):
        verdict = orig_decide_eq2(*args, **kwargs)
        sums["scfcheck.translates"] += getattr(verdict, "translates_checked", None) or 0
        return verdict

    def run(cert_id, *args, **kwargs):
        start = time.perf_counter()
        try:
            return orig_run(cert_id, *args, **kwargs)
        finally:
            cert_s[cert_id] += time.perf_counter() - start

    CycNum._normalized = classmethod(normalized)
    fingrp.Hom.verify = verify
    swaps = {id(orig_closure): closure, id(orig_decide_global): decide_global,
             id(orig_decide_eq2): decide_eq2, id(orig_run): run}
    for name, module in list(sys.modules.items()):
        if name != "acceptcert" and not name.startswith("acceptcert."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in swaps:
                setattr(module, attr, swaps[id(value)])


def layer_self_times(stats):
    """Self seconds per layer (plus ``other``) from a pstats ``stats`` dict."""
    owners = {}

    def owner(key, active):
        if key in owners:
            return owners[key]
        layer = _layer_of(key[0])
        if layer is not None:
            return {layer: 1.0}
        if key in active:
            return {}
        callers = stats[key][4]
        total = sum(edge[2] for edge in callers.values())
        dist = defaultdict(float)
        if total > 0:
            active = active | {key}
            for caller, edge in callers.items():
                if caller not in stats:
                    continue
                for layer, share in owner(caller, active).items():
                    dist[layer] += share * edge[2] / total
        owners[key] = dict(dist)
        return owners[key]

    out = dict.fromkeys(LAYERS + ("other",), 0.0)
    for key, (_, _, tottime, _, _) in stats.items():
        dist = owner(key, frozenset())
        for layer, share in dist.items():
            out[layer] += tottime * share
        out["other"] += tottime * (1.0 - sum(dist.values()))
    return out


def figures(stats, targets, sums, cert_s):
    """Per-layer counts and seconds of one profiled invocation."""
    out = {}
    for name in COUNT_METRICS:
        if name in WRAPPED_COUNTS:
            out[name] = sums.get(name, 0)
        elif name == "grpcore.memo_misses":
            memo = _key(targets["_memo_mul"][0])
            out[name] = sum(stats[k][4][memo][0] for k in map(_key, targets["_part_mul"])
                            if k in stats and memo in stats[k][4])
        else:
            out[name] = sum(stats[k][1] for k in map(_key, targets[name]) if k in stats)
    for layer, seconds in layer_self_times(stats).items():
        out["%s.self_s" % layer] = seconds
    for name in TIME_METRICS:
        if name.startswith("certsuite.") and name != "certsuite.self_s":
            out[name] = cert_s.get(name[len("certsuite."):-2], 0.0)
        elif name in targets:
            out[name] = float(sum(stats[k][3] for k in map(_key, targets[name])
                                  if k in stats))
    return out


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py FIGURES.json -- CLI ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    sums = defaultdict(int)
    cert_s = defaultdict(float)
    profiler = cProfile.Profile()
    profiler.enable()
    from acceptcert import cli

    targets = _targets()
    _install_wrappers(sums, cert_s)
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(figures(stats, targets, sums, cert_s), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
