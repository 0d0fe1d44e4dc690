"""Certificate registry: ids, expected outcomes, determinism, validation."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

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
    # the neighbours of every bound
    ("sp1_diag", {"m": 2, "eps": 1}),
    ("psp3_via_sp1", {"m": certsuite.SP1_MAX_FACTORS + 1, "eps": 1}),
    ("sp1_diag", {"m": 3, "eps": 0}),
    ("sp1_diag", {"m": 3, "eps": True}),
    ("psu_odd_prime", {"p": 9}),
    ("psu_odd_prime", {"p": 241}),
    ("psu_odd_prime", {"p": True}),
    ("su4_power_d4", {"k": 0}),
    ("su4_power_d4", {"k": certsuite.D4_MAX_COPIES + 1}),
    ("su4_power_d4", {"k": True}),
    ("scf_o_odd", {"n": 0}),
    ("scf_so_odd", {"n": certsuite.SCAN_MAX_N + 1}),
    ("scf_so_odd", {"n": True}),
    ("scf_o_odd", {"n": 1, "denominators": [241]}),
    ("scf_o_odd", {"n": 1, "denominators": [True]}),
    ("sanity_acceptable", {"group": "su4", "count": 0, "seed": 1}),
    ("sanity_acceptable", {"group": "su4", "count": certsuite.SANITY_MAX_COUNT + 1,
                           "seed": 1}),
    ("sanity_acceptable", {"group": "su4", "count": True, "seed": 1}),
    ("sanity_acceptable", {"group": "su4", "count": 1, "seed": True}),
])
def test_param_schema(cert_id, params):
    with pytest.raises(CertParamError):
        run(cert_id, params)


@pytest.mark.parametrize("cert_id, params", [
    ("sp1_diag", {"m": 3, "eps": -1}),
    ("psp3_via_sp1", {"m": certsuite.SP1_MAX_FACTORS, "eps": 1}),
    ("psu_odd_prime", {"p": 3}),
    ("psu_odd_prime", {"p": 239}),
    ("su4_power_d4", {"k": certsuite.D4_MAX_COPIES}),
    ("scf_o_odd", {"n": certsuite.SCAN_MAX_N, "denominators": [1, 240]}),
    ("sanity_acceptable", {"group": "sp1_cubed", "count": certsuite.SANITY_MAX_COUNT,
                           "seed": -2 ** 70}),
])
def test_param_schema_accepts_its_bounds(cert_id, params):
    certsuite.certificate(cert_id).check_params(params)


def _is_prime(p):
    return p > 1 and all(p % d for d in range(2, p))


# The accepted values of every registry parameter, restated from the README
# table rather than read from the schema.
ACCEPTED = {
    "m": lambda v: 3 <= v <= 1000,
    "eps": lambda v: v in (1, -1),
    "p": lambda v: 3 <= v <= 240 and v % 2 == 1 and _is_prime(v),
    "k": lambda v: 1 <= v <= 100,
    "n": lambda v: 1 <= v <= 4,
    "count": lambda v: 1 <= v <= 1000,
    "seed": lambda v: True,
}


def accepted(key, value):
    if key == "group":
        return value in ("su4", "sp1_cubed")
    if key == "denominators":
        return (isinstance(value, (list, tuple)) and len(value) > 0
                and all(type(m) is int and m >= 1 and m * 4 // math.gcd(m, 4) <= 240
                        for m in value))
    return type(value) is int and ACCEPTED[key](value)


NEAR_BOUNDS = st.one_of(
    st.integers(-2, 6), st.integers(95, 105), st.integers(235, 245), st.integers(995, 1005),
    st.sampled_from(["su4", "sp1_cubed"]), st.lists(st.integers(-1, 245), max_size=3))
HOSTILE = st.one_of(
    st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.floats(allow_nan=True),
    st.text(max_size=4), st.none(),
    st.lists(st.one_of(NEAR_BOUNDS, st.booleans(), st.text(max_size=2)), max_size=3))
MISSING = object()


def drawn_params(cert):
    """Each declared key, and one undeclared, kept from the default grid, left
    out, or drawn near the bounds or from hostile values."""
    base = cert.param_grid[0]
    keys = sorted({**cert.params, **cert.optional}) + ["typo"]
    per_key = {key: st.one_of(st.just(base.get(key, MISSING)), st.just(MISSING),
                              NEAR_BOUNDS, HOSTILE) for key in keys}
    return st.fixed_dictionaries(per_key).map(
        lambda d: (cert, {k: v for k, v in d.items() if v is not MISSING}))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(registry()).flatmap(drawn_params))
def test_check_params_accepts_only_the_restated_bounds(drawn):
    cert, params = drawn
    try:
        cert.check_params(params)
    except CertParamError:
        return
    assert set(cert.params) <= set(params) <= set(cert.params) | set(cert.optional)
    for key, value in params.items():
        assert accepted(key, value), (cert.id, key, value)


def test_every_size_parameter_is_bounded():
    # a certificate added later cannot ship a size parameter without a maximum
    for cert in registry():
        for key in {**cert.params, **cert.optional}:
            if key == "seed":
                continue
            for huge in (10 ** 9, [10 ** 9]):
                params = dict(cert.param_grid[0], **{key: huge})
                with pytest.raises(CertParamError):
                    cert.check_params(params)


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
    {"grid_overrides": {"sp1_diag": []}},
    {"grid_overrides": {"sp1_diag": [{"m": 3, "eps": 1}, {"m": 2, "eps": 1}]}},
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
