"""Command line behavior: subcommands, exit codes, JSON reports."""

import json
import os
import re
import resource
import subprocess
import sys

import pytest

from acceptcert.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_json(capsys):
    code, out, err = run_cli(capsys, "list", "--json")
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "list"
    assert len(payload["certificates"]) == 9


def test_verify_single_certificate(capsys):
    code, out, err = run_cli(capsys, "verify", "su4_mod_center", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["results"][0]["id"] == "su4_mod_center"
    assert payload["results"][0]["verdicts"]["oracle_agrees"] is True


def test_verify_text_mode(capsys):
    code, out, err = run_cli(capsys, "verify", "--filter", "scf_so_odd")
    assert code == 0
    assert "PASS" in out
    assert "certificate runs passed" in out


def test_verify_unknown_id_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "no_such_cert")
    assert code == 2
    assert "unknown certificate id" in err


def test_verify_empty_filter_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--filter", "zzz*")
    assert code == 2
    assert "no certificates matched" in err


def test_verify_params_file(tmp_path, capsys):
    params = tmp_path / "grid.json"
    params.write_text(json.dumps({"sp1_diag": [{"m": 3, "eps": -1}]}))
    code, out, err = run_cli(capsys, "verify", "sp1_diag",
                             "--params", str(params), "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["results"]) == 1
    assert payload["results"][0]["params"] == {"m": 3, "eps": -1}


def test_verify_bad_params_file(tmp_path, capsys):
    params = tmp_path / "grid.json"
    params.write_text(json.dumps({"nonexistent": [{}]}))
    code, out, err = run_cli(capsys, "verify", "--params", str(params))
    assert code == 2


def test_scan_scf_json_roundtrip(capsys):
    code, out, err = run_cli(capsys, "scan-scf", "o-odd", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["matches_classification"] is True
    assert len(payload["rows"]) == 18
    fails = [(r["k"], r["m"]) for r in payload["rows"] if r["outcome"] == "fails"]
    assert sorted(fails) == [(1, 4), (2, 8), (3, 4), (6, 8)]
    assert json.loads(json.dumps(payload)) == payload


def test_scan_scf_rejects_bad_n(capsys):
    code, out, err = run_cli(capsys, "scan-scf", "o-odd", "0")
    assert code == 2


def test_scan_scf_rejects_bad_denominators(capsys):
    code, out, err = run_cli(capsys, "scan-scf", "so-odd", "1",
                             "--denominators", "4,zero")
    assert code == 2


def test_scan_scf_out_file(tmp_path, capsys):
    target = tmp_path / "scan.json"
    code, out, err = run_cli(capsys, "scan-scf", "so-odd", "1", "--json",
                             "--out", str(target))
    assert code == 0
    assert str(target) in out
    payload = json.loads(target.read_text())
    assert payload["family"] == "so-odd"
    assert payload["matches_classification"] is True


def surjective_generators(tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"generators": [
        [["0", "1", "0", "0"]] * 3,
        [["0", "0", "1", "0"]] * 3,
    ]}))
    return path


def test_crit3a1_small_family(tmp_path, capsys):
    path = surjective_generators(tmp_path)
    code, out, err = run_cli(capsys, "crit3a1", "--generators", str(path),
                             "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["applicable"] is True
    assert payload["rotation_group_order"] == 4
    assert payload["report"]["phi_surjective"] is True
    assert payload["witness_pair"] is None


def test_crit3a1_infinite_centralizer_exits_3(tmp_path, capsys):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"generators": [
        [["0", "1", "0", "0"]] * 3,
    ]}))
    code, out, err = run_cli(capsys, "crit3a1", "--generators", str(path),
                             "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["applicable"] is False
    assert "parallel" in payload["reason"]


def test_crit3a1_malformed_generators_exits_2(tmp_path, capsys):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"generators": [[["1", "0", "0"]] * 3]}))
    code, out, err = run_cli(capsys, "crit3a1", "--generators", str(path))
    assert code == 2

    path.write_text(json.dumps({"generators": [[["1", "1", "0", "0"]] * 3]}))
    code, out, err = run_cli(capsys, "crit3a1", "--generators", str(path))
    assert code == 2

    path.write_text("not json at all")
    code, out, err = run_cli(capsys, "crit3a1", "--generators", str(path))
    assert code == 2


def test_coordinate_sqrt_form(tmp_path, capsys):
    path = tmp_path / "gens.json"
    eta = ["1/2*sqrt(2)", "1/2*sqrt(2)", "0", "0"]
    jj = ["0", "0", "1", "0"]
    path.write_text(json.dumps({"generators": [
        [jj, eta, eta],
        [eta, jj, jj],
    ]}))
    code, out, err = run_cli(capsys, "crit3a1", "--generators", str(path),
                             "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["applicable"] is True


def test_max_closure_flag(capsys):
    code, out, err = run_cli(capsys, "crit3a1", "--max-closure", "2")
    assert code == 2
    code, out, err = run_cli(capsys, "crit3a1", "--max-closure", "-3")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("list",),
    ("verify", "su4_mod_center"),
    ("scan-scf", "o-odd", "1"),
])
def test_max_closure_is_checked_for_every_subcommand(capsys, argv):
    for bad in ("-5", "0"):
        code, out, err = run_cli(capsys, *argv, "--max-closure", bad)
        assert code == 2 and not out
        assert err == "error: --max-closure must be a positive integer\n"


def test_scans_stop_at_the_closure_cap(tmp_path, capsys, monkeypatch):
    # n = 4 scans 2^10 sign matrices per angle, over a default cap of 1000
    monkeypatch.setenv("ACCEPTCERT_MAX_CLOSURE", "1000")
    params = tmp_path / "grid.json"
    params.write_text(json.dumps({"scf_o_odd": [{"n": 4, "denominators": [4]}]}))
    for argv in (("scan-scf", "o-odd", "4", "--denominators", "4"),
                 ("verify", "scf_o_odd", "--params", str(params)),
                 ("scan-scf", "o-odd", "1", "--max-closure", "15"),
                 ("verify", "scf_o_odd", "--max-closure", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv
        assert "sign matrices, over the cap of" in err
    # n = 1 scans 2^4 = 16 sign matrices: a cap of 16 is enough
    code, out, err = run_cli(capsys, "scan-scf", "o-odd", "1", "--max-closure", "16")
    assert code == 0 and not err


@pytest.mark.parametrize("grid, needle", [
    ({"sp1_diag": [{"m": 4}]}, "'eps'"),
    ({"scf_o_odd": [{"n": 1, "denominators": "ab"}]}, "'denominators'"),
    ({"sp1_diag": [{"m": 4, "eps": 1.0}]}, "'eps'"),
    ({"sp1_diag": [{"m": 4, "eps": 1, "typo": 1}]}, "'typo'"),
])
def test_verify_params_schema_rejects_with_exit_2(tmp_path, capsys, grid, needle):
    params = tmp_path / "grid.json"
    params.write_text(json.dumps(grid))
    code, out, err = run_cli(capsys, "verify", *grid, "--params", str(params))
    assert code == 2
    assert err.startswith("error: ") and needle in err
    assert "Traceback" not in err and not out


def test_verify_scan_expectation_follows_denominators(tmp_path, capsys):
    params = tmp_path / "grid.json"
    params.write_text(json.dumps(
        {"scf_o_odd": [{"n": 1, "denominators": [3, 12]}]}))
    code, out, err = run_cli(capsys, "verify", "scf_o_odd", "--params", str(params),
                             "--json")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["expected"]["failing"] == [[3, 12], [9, 12]]
    assert result["verdicts"]["failing"] == [[3, 12], [9, 12]]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def limit_memory():
    # a regression that builds a huge grid fails with MemoryError, not a full box
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


_ENV_CASES = [(argv, {}, {"ACCEPTCERT_MAX_CLOSURE": value}, "ACCEPTCERT_MAX_CLOSURE")
              for value in ("abc", "1e3", "0")
              for argv in (("list",), ("verify",), ("scan-scf", "o-odd", "1"))]


@pytest.mark.parametrize("argv, files, env, needle", [
    (("scan-scf", "o-odd", "10000"), {}, {}, ""),
    (("verify", "scf_o_odd", "--params", "{grid}"),
     {"grid": {"scf_o_odd": [{"n": 10000}]}}, {}, ""),
    (("scan-scf", "o-odd", "1", "--denominators", "1000000000000"), {}, {}, ""),
    (("verify", "scf_so_odd", "--params", "{grid}"),
     {"grid": {"scf_so_odd": [{"n": 1, "denominators": [10 ** 12]}]}}, {}, ""),
    (("verify", "psu_odd_prime", "--params", "{grid}"),
     {"grid": {"psu_odd_prime": [{"p": 2 ** 61 - 1}]}}, {}, ""),
    (("verify", "--params", "{grid}"),
     {"grid": '{"sp1_diag": [{"m": %s, "eps": 1}]}' % ("9" * 5000,)}, {}, ""),
    (("crit3a1", "--generators", "{gens}"),
     {"gens": {"generators": [[["9" * 5000, "0", "0", "0"]] * 3]}}, {}, ""),
    (("verify", "sanity_acceptable", "--max-closure", "1"), {}, {}, ""),
    (("crit3a1", "--generators", "{gens}"),
     {"gens": {"generators": [[["1*sqrt(2305843009213693951)", "0", "0", "0"]] * 3]}},
     {}, ""),
    (("crit3a1", "--generators", "{gens}"),
     {"gens": {"generators": [[["3/5", "4/5", "0", "0"]] * 3]}}, {}, ""),
    # i and (3/5)i + (4/5)j have finite order, but generate an infinite group
    (("crit3a1", "--generators", "{gens}"),
     {"gens": {"generators": [[["0", "1", "0", "0"]] * 3,
                              [["0", "3/5", "4/5", "0"], ["0", "1", "0", "0"],
                               ["0", "1", "0", "0"]]]}},
     {}, "slot 1"),
    (("verify", "sanity_acceptable", "--params", "{grid}"),
     {"grid": {"sanity_acceptable": [{"group": "su4", "count": 10 ** 6, "seed": 1}]}},
     {}, "'count' must be an integer from 1 to 1000"),
    # refused before crit_3a1 runs, which would stop at the cap of 2
    (("verify", "crit_3a1", "sanity_acceptable", "--max-closure", "2",
      "--params", "{grid}"),
     {"grid": {"sanity_acceptable": [{"group": "bogus", "count": 1, "seed": 1}]}},
     {}, "'group' must be 'su4' or 'sp1_cubed'"),
    (("verify", "sp1_diag", "--params", "{grid}"),
     {"grid": {"sp1_diag": [{"m": 3000000, "eps": 1}]}}, {},
     "'m' must be an integer from 3 to 1000"),
    (("verify", "su4_power_d4", "--params", "{grid}"),
     {"grid": {"su4_power_d4": [{"k": 100000}]}}, {}, "'k' must be an integer from 1 to 100"),
    # one message for one bad value, from either subcommand
    (("verify", "scf_o_odd", "--params", "{grid}"),
     {"grid": {"scf_o_odd": [{"n": 5, "denominators": [4]}]}}, {},
     "scf_o_odd parameter 'n' must be an integer from 1 to 4, got 5"),
    (("scan-scf", "o-odd", "5", "--denominators", "4"), {}, {},
     "scf_o_odd parameter 'n' must be an integer from 1 to 4, got 5"),
    # a named certificate with an empty grid would silently not run
    (("verify", "sp1_diag", "su4_mod_center", "--params", "{grid}"),
     {"grid": {"sp1_diag": []}}, {}, "parameters for sp1_diag must be a non-empty list"),
    # each refused before crit_3a1 runs, which would stop at the cap of 2
    (("verify", "crit_3a1", "sp1_diag", "--max-closure", "2", "--params", "{grid}"),
     {"grid": {"sp1_diag": [{"m": 2, "eps": 1}]}}, {}, "'m' must be an integer from 3"),
    (("verify", "crit_3a1", "scf_so_odd", "--max-closure", "2", "--params", "{grid}"),
     {"grid": {"scf_so_odd": [{"n": 0}]}}, {}, "'n' must be an integer from 1 to 4"),
    (("verify", "crit_3a1", "psu_odd_prime", "--max-closure", "2", "--params", "{grid}"),
     {"grid": {"psu_odd_prime": [{"p": 9}]}}, {}, "'p' must be an odd prime at most 240"),
] + _ENV_CASES, ids=[
    "scan_huge_n", "verify_scan_huge_n", "scan_huge_denominator",
    "verify_scan_huge_denominator", "psu_huge_prime", "params_huge_integer",
    "generators_huge_coordinate", "sanity_over_cap", "generators_huge_prime_radicand",
    "generators_infinite_order", "generators_infinite_slot_group", "sanity_huge_count",
    "sanity_bogus_group", "sp1_huge_m", "d4_huge_k", "verify_scan_n5", "scan_n5",
    "empty_grid", "crit_then_sp1_m2", "crit_then_scan_n0", "crit_then_psu_p9",
] + ["env_%s_%s" % (env["ACCEPTCERT_MAX_CLOSURE"], argv[0]) for argv, _, env, _ in _ENV_CASES])
def test_bad_input_exits_2_with_a_message_and_no_traceback(tmp_path, argv, files, env,
                                                          needle):
    paths = {}
    for name, content in files.items():
        path = tmp_path / ("%s.json" % (name,))
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        paths[name] = str(path)
    proc_env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc_env.pop("ACCEPTCERT_MAX_CLOSURE", None)
    proc_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "acceptcert"] + [a.format(**paths) for a in argv],
        env=proc_env, capture_output=True, text=True, timeout=30,
        preexec_fn=limit_memory)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert needle in proc.stderr
    assert not proc.stdout


def test_crit3a1_json_is_byte_identical_across_hash_seeds():
    # element order, character rows and the witness must not depend on hashing
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        env.pop("ACCEPTCERT_MAX_CLOSURE", None)
        proc = subprocess.run([sys.executable, "-m", "acceptcert", "crit3a1", "--json"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        stripped, count = re.subn(r'"seconds": [^,\n]*', '"seconds": null', proc.stdout)
        assert count == 1
        outputs.append(stripped)
    assert outputs[0] == outputs[1]
