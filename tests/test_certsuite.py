"""Certificate registry: ids, expected outcomes, determinism, validation."""

import json

import pytest

from acceptcert import certsuite
from acceptcert.certsuite import (
    COVERAGE,
    CertParamError,
    registry,
    run,
    run_all,
)
from acceptcert.fingrp import ClosureCapError

EXPECTED_IDS = [
    "su4_mod_center",
    "sp1_diag",
    "psp3_via_sp1",
    "psu_odd_prime",
    "su4_power_d4",
    "crit_3a1",
    "scf_o_odd",
    "scf_so_odd",
    "sanity_acceptable",
]


def test_registry_ids_and_order():
    certs = registry()
    assert [c.id for c in certs] == EXPECTED_IDS
    assert all(c.param_grid for c in certs)
    assert all(c.claim for c in certs)


def test_registry_grids():
    by_id = {c.id: c for c in registry()}
    assert len(by_id["sp1_diag"].param_grid) == 12
    assert by_id["psu_odd_prime"].param_grid == ({"p": 3}, {"p": 5})
    assert by_id["su4_power_d4"].param_grid == ({"k": 1}, {"k": 2})
    assert by_id["scf_o_odd"].param_grid == ({"n": 1}, {"n": 2})


def test_coverage_table_names_real_certificates():
    ids = {c.id for c in registry()}
    for row in COVERAGE:
        if row["status"] == "covered":
            for cert_id in row["certificate"].split(" / "):
                assert cert_id in ids
        else:
            assert row["status"] == "out of scope"
            assert row["reason"]


def test_run_su4_witness():
    result = run("su4_mod_center")
    assert result.passed
    assert result.verdicts["element_conjugate"] is True
    assert result.verdicts["globally_conjugate"] is False
    assert result.verdicts["oracle_agrees"] is True
    assert result.counts["source_order"] == 16
    assert result.counts["twists_examined"] == 4


def test_run_alias_certificate():
    result = run("psp3_via_sp1", {"m": 3, "eps": -1})
    assert result.passed


def test_run_scan_certificates():
    o_odd = run("scf_o_odd", {"n": 1})
    assert o_odd.passed
    assert o_odd.verdicts["failing"] == [[1, 4], [3, 4], [2, 8], [6, 8]]
    assert o_odd.expected["failing"] == o_odd.verdicts["failing"]
    so_odd = run("scf_so_odd", {"n": 1})
    assert so_odd.passed
    assert so_odd.verdicts["failing"] == []
    other = run("scf_o_odd", {"n": 1, "denominators": [12, 3]})
    assert other.passed
    assert other.expected["failing"] == [[3, 12], [9, 12]]


def test_run_sanity_certificate():
    result = run("sanity_acceptable", {"group": "sp1_cubed", "count": 4,
                                       "seed": 11})
    assert result.passed


def test_param_validation():
    with pytest.raises(CertParamError, match="unknown certificate id 'no_such_certificate'"):
        run("no_such_certificate")
    with pytest.raises(CertParamError):
        run("sp1_diag", {"m": 2, "eps": 1})
    with pytest.raises(CertParamError):
        run("sp1_diag", {"m": 3, "eps": 0})
    with pytest.raises(CertParamError):
        run("psu_odd_prime", {"p": 4})
    with pytest.raises(CertParamError):
        run("psu_odd_prime", {"p": 9})
    with pytest.raises(CertParamError):
        run("su4_power_d4", {"k": 0})
    with pytest.raises(CertParamError):
        run("scf_o_odd", {"n": 0})
    with pytest.raises(CertParamError):
        run("sanity_acceptable", {"group": "so3", "count": 1, "seed": 1})


@pytest.mark.parametrize("cert_id, params", [
    ("sp1_diag", {"m": 4}),
    ("sp1_diag", {"m": 4, "eps": 1.0}),
    ("sp1_diag", {"m": True, "eps": 1}),
    ("sp1_diag", {"m": 4, "eps": 1, "typo": 1}),
    ("su4_mod_center", {"k": 1}),
    ("scf_o_odd", {"n": 1, "denominators": "ab"}),
    ("scf_o_odd", {"n": 1, "denominators": [4, "8"]}),
    ("scf_o_odd", {"n": 1, "denominators": []}),
    ("scf_so_odd", {"n": 1, "denominators": [0]}),
    ("sanity_acceptable", {"group": 4, "count": 1, "seed": 1}),
    ("sanity_acceptable", {"group": "su4", "count": 1}),
])
def test_param_schema(cert_id, params):
    with pytest.raises(CertParamError):
        run(cert_id, params)


def test_default_grids_fit_their_schemas():
    for cert in registry():
        for params in cert.param_grid:
            cert.check_params(params)


def drop_seconds(results):
    out = []
    for r in results:
        d = r.to_json()
        d.pop("seconds")
        out.append(d)
    return json.dumps(out, sort_keys=True)


def test_run_all_is_deterministic():
    first = drop_seconds(run_all("psu_*"))
    second = drop_seconds(run_all("psu_*"))
    assert first == second
    assert len(run_all("psu_*")) == 2


def test_run_all_grid_override():
    results = run_all("sp1_diag",
                      grid_overrides={"sp1_diag": [{"m": 4, "eps": 1}]})
    assert len(results) == 1
    assert results[0].params == {"m": 4, "eps": 1}
    assert results[0].passed


def test_run_all_runs_given_ids_in_order_through_the_module_run(monkeypatch):
    calls = []
    orig = certsuite.run

    def spy(cert_id, *args, **kwargs):
        calls.append(cert_id)
        return orig(cert_id, *args, **kwargs)

    monkeypatch.setattr(certsuite, "run", spy)
    results = run_all(cert_ids=["su4_power_d4", "su4_mod_center"])
    assert [r.id for r in results] == ["su4_power_d4", "su4_power_d4", "su4_mod_center"]
    assert calls == [r.id for r in results]
    assert [r.id for r in run_all("su4_m*", cert_ids=["su4_power_d4", "su4_mod_center"])] \
        == ["su4_mod_center"]


@pytest.mark.parametrize("kwargs", [
    {"cert_ids": ["su4_mod_center", "no_such_cert"]},
    {"grid_overrides": {"su4_mod_center": [{}], "no_such_cert": [{}]}},
    {"grid_overrides": {"sp1_diag": [{"m": 3, "eps": 1}, {"m": 3}]}},
])
def test_run_all_checks_every_input_before_anything_runs(monkeypatch, kwargs):
    def refuse(*args, **kwargs):
        raise AssertionError("a certificate ran")

    monkeypatch.setattr(certsuite, "run", refuse)
    with pytest.raises(CertParamError):
        run_all(**kwargs)


def test_every_certificate_honours_the_closure_cap():
    for cert in registry():
        with pytest.raises(ClosureCapError):
            run(cert.id, cap=1)


def test_result_json_shape():
    d = run("su4_mod_center").to_json()
    assert set(d) == {"id", "params", "claim", "expected", "verdicts",
                      "counts", "passed", "seconds"}
    assert isinstance(d["seconds"], float)
    encoded = json.dumps(d, sort_keys=True)
    assert json.loads(encoded) == d
