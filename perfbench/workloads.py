"""Workload definitions and the checkers that judge their reports.

A workload is a fixed list of ``acceptcert`` CLI invocations.  Each
invocation writes a JSON report (``--json --out``) that one checker reads.
Nothing here imports ``acceptcert``: every expected value is restated from
the mathematics (closed forms, independent recomputation from integer
root-of-unity exponents, or counts pinned from the stand-alone oracle
``tests/oracles/quat_triple_counts.py``), never read back from the program.

A checker returns a list of human-readable problems, empty when the report
is right.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

# Seeds of the two sanity batches in the registry's default grid; used when
# the benchmark runs without ``--seed``.
REGISTRY_SANITY_SEEDS = (20260819, 20260820)
SANITY_COUNT = 25

SCAN_DEFAULT_DENOMINATORS = (4, 6, 8)
SCAN_EXTRA_DENOMINATORS = (3, 5, 10, 12)

PSU_PRIMES = (3, 5, 7)

# Counts for crit_3a1 as printed by tests/oracles/quat_triple_counts.py,
# which closes the pinned generators under its own Q(sqrt 2) arithmetic:
# "image group order mod signs = 64", three factors with rotation centralizer
# order 2 (so 8 centralizer classes), "quotient order = 16" (elementary
# abelian, so 16 sign characters) and "preimage order in the quotient = 128",
# the source of the witness pair.
CRIT_ROTATION_ORDER = 64
CRIT_X_ORDER = 8
CRIT_QUOTIENT_ORDER = 16
CRIT_WITNESS_SOURCE_ORDER = 128


class Invocation:
    """One CLI call: its arguments, certificate runs, optional ``--params`` grid, checker."""

    __slots__ = ("label", "argv", "runs", "check", "params")

    def __init__(self, label, argv, runs, check, params=None):
        self.label = label
        self.argv = list(argv)
        self.runs = runs
        self.check = check
        self.params = params


# --- closed forms and independent recomputation --------------------------------


def scf_fails(kind: str, k: int, m: int) -> bool:
    """Closed-form classification of the two symmetric subgroup families.

    The reflection-fixed family ``o-odd`` fails the centralizer-translate
    membership exactly at the quarter and three-quarter turns; the
    last-vector stabilizer ``so-odd`` never fails.
    """
    return kind == "o-odd" and Fraction(k, m) in (Fraction(1, 4), Fraction(3, 4))


def _diag_classes_conjugate(f_exps, g_exps, order, center_shift, klass):
    """Whether every image pair of two diagonal maps is conjugate mod a center.

    ``f_exps``/``g_exps`` give, per source generator, the exponent vector of a
    root of unity of ``order`` in each slot; the source is the product of
    cyclic groups of ``order`` on those generators.  Two slot vectors are
    conjugate when ``klass`` (a conjugacy invariant of one vector) agrees,
    after adding some multiple of ``center_shift`` to every slot of one.
    """
    slots = len(f_exps[0])
    for coords in product(range(order), repeat=len(f_exps)):
        fx = [sum(c * e[s] for c, e in zip(coords, f_exps)) % order for s in range(slots)]
        gx = [sum(c * e[s] for c, e in zip(coords, g_exps)) % order for s in range(slots)]
        want = klass(fx)
        if not any(klass([(v + z) % order for v in gx]) == want
                   for z in range(0, order, center_shift)):
            return False
    return True


def su4_element_conjugate(copies: int) -> bool:
    """The SU(4) witness, ``copies`` times, mod the diagonal sign.

    Images are diagonal fourth roots of unity: a = diag(1, 1, i, -i) and
    b = diag(1, i, 1, -i), against their entrywise conjugates.  Diagonal
    special unitaries are conjugate iff their eigenvalue multisets agree, so
    one copy's invariant is its sorted exponent list.
    """
    a, b = (0, 0, 1, 3), (0, 1, 0, 3)
    f = (a * copies, b * copies)
    g = (tuple(-v % 4 for v in a) * copies, tuple(-v % 4 for v in b) * copies)

    def klass(vec):
        return tuple(tuple(sorted(vec[4 * c:4 * c + 4])) for c in range(copies))

    return _diag_classes_conjugate(f, g, 4, 2, klass)


def sp1_element_conjugate_images(im1, im2, im1p, im2p) -> bool:
    """Two maps Z4 x Z4 -> Sp(1)^m mod the all-minus-one center, by exponents.

    Each argument gives a generator's image as the exponent e of i**e in
    each slot, i the unit quaternion.  Unit quaternions are conjugate iff
    their real parts agree, and Re(i**e) is 1, 0, -1, 0 for e = 0, 1, 2, 3.
    """
    real_part = (1, 0, -1, 0)

    def klass(vec):
        return tuple(real_part[v] for v in vec)

    return _diag_classes_conjugate((im1, im2), (im1p, im2p), 4, 2, klass)


def sp1_element_conjugate(m: int, eps: int) -> bool:
    """The ``sp1_diag`` pair at (m, eps): images (1,..,1,i,i), (i,..,i,1,i)
    against (1,..,1,i,i), (e,..,e,1,-i) with e = i for eps = 1, else -i."""
    e = 1 if eps == 1 else 3
    im1 = (0,) * (m - 2) + (1, 1)
    return sp1_element_conjugate_images(im1, (1,) * (m - 2) + (0, 1),
                                        im1, (e,) * (m - 2) + (0, 3))


# --- checkers --------------------------------------------------------------------


def _results(report):
    if not isinstance(report, dict) or report.get("command") != "verify":
        raise ValueError("report is not a verify report")
    return report.get("results") or []


def _grid_key(cert_id, params):
    return (cert_id, tuple(sorted(params.items())))


def _check_grid(results, want_keys, problems):
    got = [_grid_key(r["id"], r["params"]) for r in results]
    if sorted(got, key=repr) != sorted(want_keys, key=repr):
        problems.append("runs %r differ from the expected grid %r" % (got, want_keys))


def _check_split(r, problems, oracle):
    """Element-conjugate, not globally conjugate, oracle agreeing where reported."""
    v = r["verdicts"]
    tag = "%s %r" % (r["id"], r["params"])
    if v.get("element_conjugate") is not True:
        problems.append("%s: not element-conjugate" % tag)
    if v.get("globally_conjugate") is not False:
        problems.append("%s: globally conjugate" % tag)
    if oracle and v.get("oracle_agrees") is not True:
        problems.append("%s: oracle verdict missing or disagreeing" % tag)


def sanity_seeds(seed):
    """The two sanity-batch seeds a benchmark ``--seed`` stands for."""
    if seed is None:
        return REGISTRY_SANITY_SEEDS
    rng = random.Random(seed)
    return (rng.randrange(1, 2 ** 31), rng.randrange(1, 2 ** 31))


def hompairs_params(seeds):
    return {"sanity_acceptable": [
        {"group": "su4", "count": SANITY_COUNT, "seed": seeds[0]},
        {"group": "sp1_cubed", "count": SANITY_COUNT, "seed": seeds[1]},
    ]}


def check_hompairs(report, seeds):
    results = _results(report)
    problems = []
    want = [_grid_key("su4_mod_center", {})]
    want += [_grid_key("sp1_diag", {"m": m, "eps": e}) for m in range(3, 9) for e in (1, -1)]
    want += [_grid_key("psp3_via_sp1", {"m": 3, "eps": e}) for e in (1, -1)]
    want += [_grid_key("su4_power_d4", {"k": k}) for k in (1, 2)]
    want += [_grid_key("crit_3a1", {})]
    want += [_grid_key("sanity_acceptable", p)
             for p in hompairs_params(seeds)["sanity_acceptable"]]
    _check_grid(results, want, problems)
    for r in results:
        cid, params, v, c = r["id"], r["params"], r["verdicts"], r["counts"]
        if cid == "su4_mod_center":
            _check_split(r, problems, oracle=True)
            if not su4_element_conjugate(1):
                problems.append("su4_mod_center: recomputation says not element-conjugate")
        elif cid in ("sp1_diag", "psp3_via_sp1"):
            _check_split(r, problems, oracle=True)
            if not sp1_element_conjugate(params["m"], params["eps"]):
                problems.append("%s %r: recomputation says not element-conjugate"
                                % (cid, params))
        elif cid == "su4_power_d4":
            _check_split(r, problems, oracle=False)
            if not su4_element_conjugate(params["k"]):
                problems.append("su4_power_d4 %r: recomputation says not "
                                "element-conjugate" % (params,))
        elif cid == "crit_3a1":
            pinned = {
                ("verdicts", "applicable"): True,
                ("verdicts", "x_order"): CRIT_X_ORDER,
                ("verdicts", "quotient_order"): CRIT_QUOTIENT_ORDER,
                ("verdicts", "y_order"): CRIT_QUOTIENT_ORDER,
                ("verdicts", "phi_surjective"): False,
                ("verdicts", "witness_element_conjugate"): True,
                ("verdicts", "witness_globally_conjugate"): False,
                ("counts", "rotation_group_order"): CRIT_ROTATION_ORDER,
                ("counts", "witness_source_order"): CRIT_WITNESS_SOURCE_ORDER,
            }
            for (part, key), want_value in pinned.items():
                if r[part].get(key) != want_value:
                    problems.append("crit_3a1: %s %s is %r, want %r"
                                    % (part, key, r[part].get(key), want_value))
        elif cid == "sanity_acceptable":
            if v.get("all_globally_conjugate") is not True:
                problems.append("sanity %r: a conjugated pair is not globally "
                                "conjugate" % (params,))
            if c.get("trials") != SANITY_COUNT:
                problems.append("sanity %r: %r trials" % (params, c.get("trials")))
    return problems


def psu_params():
    return {"psu_odd_prime": [{"p": p} for p in PSU_PRIMES]}


def check_psu_primes(report):
    results = _results(report)
    problems = []
    _check_grid(results, [_grid_key("psu_odd_prime", {"p": p}) for p in PSU_PRIMES],
                problems)
    for r in results:
        _check_split(r, problems, oracle=False)
        p, c = r["params"]["p"], r["counts"]
        want = {"source_order": p * p, "quotient_kernel_order": p,
                "pair_group_order": p ** 3, "twists_examined": p * p}
        for key, value in want.items():
            if c.get(key) != value:
                problems.append("psu_odd_prime p=%d: %s is %r, want %d"
                                % (p, key, c.get(key), value))
    return problems


def check_scan_verify(report):
    results = _results(report)
    problems = []
    _check_grid(results, [_grid_key(cid, {"n": n}) for cid in ("scf_o_odd", "scf_so_odd")
                          for n in (1, 2)], problems)
    angles = [(k, m) for m in SCAN_DEFAULT_DENOMINATORS for k in range(m)]
    for r in results:
        kind = "o-odd" if r["id"] == "scf_o_odd" else "so-odd"
        want = sorted([k, m] for k, m in angles if scf_fails(kind, k, m))
        got = sorted(r["verdicts"].get("failing", []))
        tag = "%s n=%r" % (r["id"], r["params"].get("n"))
        if got != want:
            problems.append("%s: failing set %r, closed form gives %r" % (tag, got, want))
        if r["verdicts"].get("undecided") != 0:
            problems.append("%s: %r undecided angles" % (tag, r["verdicts"].get("undecided")))
        c = r["counts"]
        if c.get("rows") != len(angles) or c.get("holds", 0) + c.get("fails", 0) != len(angles):
            problems.append("%s: row counts %r do not cover %d angles" % (tag, c, len(angles)))
    return problems


def check_scan_table(report, kind, n, denominators):
    if not isinstance(report, dict) or report.get("command") != "scan-scf":
        raise ValueError("report is not a scan-scf report")
    problems = []
    rows = report.get("rows") or []
    got = sorted((row["k"], row["m"]) for row in rows)
    want = sorted((k, m) for m in denominators for k in range(m))
    if got != want or report.get("family") != kind or report.get("n") != n:
        problems.append("scan %s n=%r covers the wrong angles" % (kind, report.get("n")))
    for row in rows:
        want_outcome = "fails" if scf_fails(kind, row["k"], row["m"]) else "holds"
        if row["outcome"] != want_outcome:
            problems.append("scan %s: k/m = %d/%d is %s, closed form says %s"
                            % (kind, row["k"], row["m"], row["outcome"], want_outcome))
    if report.get("matches_classification") is not True:
        problems.append("scan %s: program reports a mismatch" % (kind,))
    return problems


# --- workloads -------------------------------------------------------------------


def hompairs(seed):
    seeds = sanity_seeds(seed)
    return [Invocation(
        "verify hom pairs",
        ["verify", "su4_mod_center", "sp1_diag", "psp3_via_sp1", "su4_power_d4",
         "crit_3a1", "sanity_acceptable"],
        20, lambda report: check_hompairs(report, seeds),
        params=hompairs_params(seeds))]


def scans(seed):
    extra = ",".join(str(m) for m in SCAN_EXTRA_DENOMINATORS)
    return [
        Invocation("verify scans", ["verify", "scf_o_odd", "scf_so_odd"], 4,
                   check_scan_verify),
        Invocation("scan-scf o-odd", ["scan-scf", "o-odd", "1", "--denominators", extra], 1,
                   lambda report: check_scan_table(report, "o-odd", 1,
                                                   SCAN_EXTRA_DENOMINATORS)),
        Invocation("scan-scf so-odd", ["scan-scf", "so-odd", "1", "--denominators", extra], 1,
                   lambda report: check_scan_table(report, "so-odd", 1,
                                                   SCAN_EXTRA_DENOMINATORS)),
    ]


def psu_primes(seed):
    return [Invocation("verify psu primes", ["verify", "psu_odd_prime"],
                       len(PSU_PRIMES), check_psu_primes, params=psu_params())]


WORKLOADS = {"hompairs": hompairs, "scans": scans, "psu_primes": psu_primes}
