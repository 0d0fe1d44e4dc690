"""The benchmark's checkers accept right reports and reject each single defect.

Run with ``python3 -m pytest perfbench/tests``.  The reports here are built
from the closed forms, not captured from the program, so a checker that
passes a mutated report would hide a wrong verdict.
"""

import copy
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import workloads as w  # noqa: E402

SEEDS = (11, 12)


def _split_run(cert_id, params, oracle):
    verdicts = {"element_conjugate": True, "globally_conjugate": False}
    if oracle:
        verdicts["oracle_agrees"] = True
    return {"id": cert_id, "params": params, "verdicts": verdicts, "counts": {}}


def hompairs_report():
    results = [_split_run("su4_mod_center", {}, True)]
    results += [_split_run("sp1_diag", {"m": m, "eps": e}, True)
                for m in range(3, 9) for e in (1, -1)]
    results += [_split_run("psp3_via_sp1", {"m": 3, "eps": e}, True) for e in (1, -1)]
    results += [_split_run("su4_power_d4", {"k": k}, False) for k in (1, 2)]
    results.append({
        "id": "crit_3a1", "params": {},
        "verdicts": {"applicable": True, "x_order": 8, "quotient_order": 16,
                     "y_order": 16, "phi_surjective": False,
                     "witness_element_conjugate": True,
                     "witness_globally_conjugate": False},
        "counts": {"rotation_group_order": 64, "witness_source_order": 128}})
    for params in w.hompairs_params(SEEDS)["sanity_acceptable"]:
        results.append({"id": "sanity_acceptable", "params": params,
                        "verdicts": {"all_globally_conjugate": True},
                        "counts": {"trials": 25}})
    return {"command": "verify", "results": results}


def psu_report():
    return {"command": "verify", "results": [
        dict(_split_run("psu_odd_prime", {"p": p}, False),
             counts={"source_order": p * p, "quotient_kernel_order": p,
                     "pair_group_order": p ** 3, "twists_examined": p * p})
        for p in w.PSU_PRIMES]}


def scan_verify_report():
    results = []
    for cert_id, kind in (("scf_o_odd", "o-odd"), ("scf_so_odd", "so-odd")):
        failing = [[k, m] for m in (4, 6, 8) for k in range(m) if w.scf_fails(kind, k, m)]
        for n in (1, 2):
            results.append({"id": cert_id, "params": {"n": n},
                            "verdicts": {"failing": failing, "undecided": 0},
                            "counts": {"rows": 18, "holds": 18 - len(failing),
                                       "fails": len(failing)}})
    return {"command": "verify", "results": results}


def scan_table_report(kind):
    rows = [{"k": k, "m": m, "outcome": "fails" if w.scf_fails(kind, k, m) else "holds"}
            for m in w.SCAN_EXTRA_DENOMINATORS for k in range(m)]
    return {"command": "scan-scf", "family": kind, "n": 1, "rows": rows,
            "matches_classification": True}


def check_hompairs(report):
    return w.check_hompairs(report, SEEDS)


def check_table(kind):
    return lambda report: w.check_scan_table(report, kind, 1, w.SCAN_EXTRA_DENOMINATORS)


CASES = [
    (check_hompairs, hompairs_report),
    (w.check_psu_primes, psu_report),
    (w.check_scan_verify, scan_verify_report),
    (check_table("o-odd"), lambda: scan_table_report("o-odd")),
    (check_table("so-odd"), lambda: scan_table_report("so-odd")),
]


@pytest.mark.parametrize("check, make", CASES)
def test_right_report_passes(check, make):
    assert check(make()) == []


def _verdict_flips(make):
    """Every report that differs from make() in one boolean verdict."""
    base = make()
    for pos, run in enumerate(base["results"]):
        for key, value in run["verdicts"].items():
            if isinstance(value, bool):
                bad = copy.deepcopy(base)
                bad["results"][pos]["verdicts"][key] = not value
                yield "%s %r %s" % (run["id"], run["params"], key), bad


@pytest.mark.parametrize("check, make", CASES[:2])
def test_each_flipped_verdict_fails(check, make):
    flips = list(_verdict_flips(make))
    assert flips
    for label, bad in flips:
        assert check(bad), label


@pytest.mark.parametrize("check, make", CASES[:3])
def test_each_dropped_run_fails(check, make):
    base = make()
    for pos in range(len(base["results"])):
        bad = copy.deepcopy(base)
        del bad["results"][pos]
        assert check(bad), pos


def test_missing_oracle_verdict_fails():
    bad = hompairs_report()
    del bad["results"][0]["verdicts"]["oracle_agrees"]
    assert check_hompairs(bad)


@pytest.mark.parametrize("key", ["x_order", "quotient_order", "y_order"])
def test_crit_count_off_by_one_fails(key):
    bad = hompairs_report()
    crit = next(r for r in bad["results"] if r["id"] == "crit_3a1")
    crit["verdicts"][key] += 1
    assert check_hompairs(bad)


def test_sanity_seed_mismatch_fails():
    bad = hompairs_report()
    bad["results"][-1]["params"]["seed"] += 1
    assert check_hompairs(bad)


@pytest.mark.parametrize("key", ["source_order", "quotient_kernel_order",
                                 "pair_group_order", "twists_examined"])
def test_psu_count_off_fails(key):
    bad = psu_report()
    bad["results"][-1]["counts"][key] -= 1
    assert w.check_psu_primes(bad)


def test_dropped_failing_angle_fails_verify():
    base = scan_verify_report()
    for pos, run in enumerate(base["results"]):
        for drop in range(len(run["verdicts"]["failing"])):
            bad = copy.deepcopy(base)
            del bad["results"][pos]["verdicts"]["failing"][drop]
            assert w.check_scan_verify(bad)


def test_extra_failing_angle_fails_verify():
    bad = scan_verify_report()
    so_odd = next(r for r in bad["results"] if r["id"] == "scf_so_odd")
    so_odd["verdicts"]["failing"].append([1, 4])
    assert w.check_scan_verify(bad)


def test_undecided_angle_fails_verify():
    bad = scan_verify_report()
    bad["results"][0]["verdicts"]["undecided"] = 1
    assert w.check_scan_verify(bad)


@pytest.mark.parametrize("kind", ["o-odd", "so-odd"])
def test_each_flipped_scan_row_fails(kind):
    base = scan_table_report(kind)
    for pos, row in enumerate(base["rows"]):
        bad = copy.deepcopy(base)
        bad["rows"][pos]["outcome"] = "holds" if row["outcome"] == "fails" else "fails"
        assert check_table(kind)(bad), (row["k"], row["m"])


def test_dropped_scan_row_fails():
    bad = scan_table_report("o-odd")
    bad["rows"] = [r for r in bad["rows"] if (r["k"], r["m"]) != (3, 12)]
    assert check_table("o-odd")(bad)


def test_closed_form_failing_set():
    fails = {(k, m) for m in (4, 6, 8, 12) for k in range(m) if w.scf_fails("o-odd", k, m)}
    assert fails == {(1, 4), (3, 4), (2, 8), (6, 8), (3, 12), (9, 12)}
    assert not any(w.scf_fails("so-odd", k, m) for m in range(1, 13) for k in range(m))


def test_recomputed_element_conjugacy():
    assert w.su4_element_conjugate(1) and w.su4_element_conjugate(2)
    assert all(w.sp1_element_conjugate(m, e) for m in range(3, 9) for e in (1, -1))


def test_recomputation_detects_a_non_conjugate_pair():
    # fourth roots i and -1 in one slot, no center to absorb the difference
    assert not w._diag_classes_conjugate(((1,),), ((2,),), 4, 4, tuple)
    # with the sign center, i and -i have the same real part but 1 and i do not
    assert not w.sp1_element_conjugate_images((0, 0, 1), (0, 1, 1), (0, 0, 1), (1, 1, 1))


def test_sanity_seeds_follow_the_benchmark_seed():
    assert w.sanity_seeds(None) == w.REGISTRY_SANITY_SEEDS
    assert w.sanity_seeds(5) == w.sanity_seeds(5)
    assert w.sanity_seeds(5) != w.sanity_seeds(6)
