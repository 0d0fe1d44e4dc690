"""Command line front end.

Four subcommands: ``list`` prints the certificate registry, ``verify`` runs
certificates and compares every verdict against its pinned expectation,
``scan-scf`` runs one angle scan and compares the outcome table against the
closed-form classification, and ``crit3a1`` runs the rotation criterion on
pinned or user-supplied generators and cross-verifies the witness pair.

The subcommands only parse and report: ``verify`` hands its ids, filter and
parameter file to ``certsuite.run_all``, and ``scan-scf`` its family, n and
denominators to ``certsuite.scan``, which check every input before anything
runs.

Exit codes: 0 on success, 1 when a computation finished but a verdict
disagreed with the expected outcome, 2 on unknown ids or malformed input
(including files that do not parse, and integers past Python's digit limit
for int conversion), 3 when the criterion is not applicable because a
centralizer is infinite.

JSON reports carry ``"schema": 1`` and are deterministic except for the
timing fields.  Mathematical quantities appear as integers or exact
rational strings, never floats.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction

from .certsuite import CertParamError, registry, run_all, run_criterion, scan
from .exactalg import ExactAlgError, cyc_rational, sqrt_rational
from .fingrp import ClosureCapError, GroupStructureError, NotAHomomorphismError
from .grpcore import GroupError, Quat
from .scfcheck import KIND_O_ODD, KIND_SO_ODD, closed_form_outcome
from .so3crit import InfiniteCentralizer

_FAMILY_BY_NAME = {"o-odd": KIND_O_ODD, "so-odd": KIND_SO_ODD}

_COORD_RE = re.compile(
    r"^\s*(?P<rat>-?\d+(?:\s*/\s*\d+)?)\s*(?:\*\s*sqrt\(\s*(?P<rad>\d+)\s*\))?\s*$")


def _parse_coordinate(text):
    """One quaternion coordinate: 'a' or 'a*sqrt(b)' with a rational, b >= 0."""
    if not isinstance(text, str):
        raise CertParamError("coordinate must be a string, got %r" % (text,))
    match = _COORD_RE.match(text)
    if match is None:
        raise CertParamError(
            "coordinate %r is not of the form 'a' or 'a*sqrt(b)'" % (text,))
    try:
        value = cyc_rational(Fraction(match.group("rat").replace(" ", "")))
        radicand = match.group("rad")
        if radicand is not None:
            value = value * sqrt_rational(int(radicand))
    except ZeroDivisionError:
        raise CertParamError("coordinate %r has a zero denominator" % (text,))
    except ValueError as exc:
        raise CertParamError("coordinate has too many digits (%s)" % (exc,))
    return value


def _load_json(path):
    """The JSON in a file; CertParamError for bad text or a too-long integer."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise CertParamError("invalid JSON input (%s)" % (exc,))


def _load_generator_quats(path):
    data = _load_json(path)
    if not isinstance(data, dict) or "generators" not in data:
        raise CertParamError("generator file must be an object with a "
                             "'generators' key")
    gens = data["generators"]
    if not isinstance(gens, list) or not gens:
        raise CertParamError("'generators' must be a non-empty list")
    out = []
    for pos, triple in enumerate(gens):
        if not isinstance(triple, list) or len(triple) != 3:
            raise CertParamError("generator %d must be a list of 3 quaternions"
                                 % (pos,))
        quats = []
        for quat in triple:
            if not isinstance(quat, list) or len(quat) != 4:
                raise CertParamError("generator %d holds a quaternion that is "
                                     "not a list of 4 coordinates" % (pos,))
            quats.append(Quat.make(*[_parse_coordinate(c) for c in quat]))
        out.append(tuple(quats))
    return tuple(out)


def _load_grid_overrides(path):
    """The parameter file's grids; ``run_all`` checks their ids and parameters."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise CertParamError("parameter file must map certificate ids to "
                             "lists of parameter objects")
    for cert_id, grid in data.items():
        if not isinstance(grid, list):
            raise CertParamError("parameters for %r must be a list of objects"
                                 % (cert_id,))
    return data


def _emit(args, payload, lines) -> None:
    if args.json:
        content = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        content = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(content)
        print("wrote %s" % (args.out,))
    else:
        sys.stdout.write(content)


def _check_cap(args) -> None:
    """Refuse a closure cap below 1 from the flag or from the environment."""
    if args.max_closure is not None and args.max_closure < 1:
        raise CertParamError("--max-closure must be a positive integer")
    env = os.environ.get("ACCEPTCERT_MAX_CLOSURE")
    if env is not None:
        try:
            positive = int(env) >= 1  # the parse of fingrp.default_closure_cap
        except ValueError:
            positive = False
        if not positive:
            raise CertParamError("ACCEPTCERT_MAX_CLOSURE must be a positive integer")


# --- subcommands ---------------------------------------------------------------------


def _cmd_list(args) -> int:
    certs = registry()
    payload = {
        "schema": 1,
        "command": "list",
        "certificates": [
            {
                "id": c.id,
                "kind": c.kind,
                "claim": c.claim,
                "param_grid": [dict(p) for p in c.param_grid],
                "expected": c.expected_for(c.param_grid[0]),
            }
            for c in certs
        ],
    }
    lines = []
    for c in certs:
        lines.append("%-18s %-9s %d parameter set%s" %
                     (c.id, c.kind, len(c.param_grid),
                      "" if len(c.param_grid) == 1 else "s"))
        lines.append("    %s" % (c.claim,))
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    overrides = _load_grid_overrides(args.params) if args.params else {}
    start = time.perf_counter()
    results = run_all(args.filter, cap=args.max_closure, grid_overrides=overrides,
                      cert_ids=args.cert_ids or None)
    seconds = time.perf_counter() - start
    if not results:
        raise CertParamError("no certificates matched")
    n_pass = sum(1 for r in results if r.passed)
    payload = {
        "schema": 1,
        "command": "verify",
        "results": [r.to_json() for r in results],
        "passed": n_pass == len(results),
        "seconds": seconds,
    }
    lines = []
    for r in results:
        ptxt = " ".join("%s=%s" % kv for kv in sorted(r.params.items()))
        lines.append("%s  %-18s %-24s (%.2fs)" %
                     ("PASS" if r.passed else "FAIL", r.id, ptxt, r.seconds))
        if not r.passed:
            for key, want in sorted(r.expected.items()):
                got = r.verdicts.get(key)
                if got != want:
                    lines.append("      %s: expected %r, got %r" % (key, want, got))
    lines.append("%d/%d certificate runs passed" % (n_pass, len(results)))
    _emit(args, payload, lines)
    return 0 if payload["passed"] else 1


def _cmd_scan_scf(args) -> int:
    try:
        denominators = [int(part) for part in args.denominators.split(",")]
    except ValueError:
        raise CertParamError("--denominators must be comma-separated integers")
    kind = _FAMILY_BY_NAME[args.family]
    start = time.perf_counter()
    rows = scan(kind, args.n, denominators, cap=args.max_closure)
    seconds = time.perf_counter() - start
    mismatches = []
    for verdict in rows:
        want = closed_form_outcome(kind, verdict.angle.k, verdict.angle.m)
        if verdict.outcome != want:
            mismatches.append({"k": verdict.angle.k, "m": verdict.angle.m,
                               "got": verdict.outcome, "want": want})
    payload = {
        "schema": 1,
        "command": "scan-scf",
        "family": args.family,
        "n": args.n,
        "rows": [verdict.to_json() for verdict in rows],
        "matches_classification": not mismatches,
        "mismatches": mismatches,
        "seconds": seconds,
    }
    lines = ["family %s, n = %d, %d angles" % (args.family, args.n, len(rows))]
    for verdict in rows:
        if verdict.outcome == "holds":
            extra = verdict.route
        elif verdict.outcome == "fails":
            extra = "after %d translates" % (verdict.translates_checked,)
        else:
            extra = verdict.reason
        lines.append("  k/m = %d/%-2d  %-9s (%s)" %
                     (verdict.angle.k, verdict.angle.m, verdict.outcome, extra))
    if mismatches:
        for miss in mismatches:
            lines.append("MISMATCH at k/m = %d/%d: got %s, classification says %s" %
                         (miss["k"], miss["m"], miss["got"], miss["want"]))
    else:
        lines.append("table matches the classification")
    _emit(args, payload, lines)
    return 0 if not mismatches else 1


def _cmd_crit3a1(args) -> int:
    gens = _load_generator_quats(args.generators) if args.generators else None
    start = time.perf_counter()
    rotations, report, witness = run_criterion(gens, cap=args.max_closure)
    if isinstance(report, InfiniteCentralizer):
        payload = {
            "schema": 1,
            "command": "crit3a1",
            "applicable": False,
            "reason": report.reason,
            "seconds": time.perf_counter() - start,
        }
        _emit(args, payload, ["not applicable: %s" % (report.reason,)])
        return 3
    exit_code = 0
    if witness is not None and (not witness["element_conjugate"]
                                or witness["globally_conjugate"]):
        exit_code = 1
    payload = {
        "schema": 1,
        "command": "crit3a1",
        "applicable": True,
        "rotation_group_order": rotations.order,
        "report": report.to_json(),
        "witness_pair": witness,
        "seconds": time.perf_counter() - start,
    }
    lines = [
        "rotation group order        %d" % (rotations.order,),
        "centralizer class count     %d" % (report.x_order,),
        "liftable subgroup order     %d" % (report.liftable_order,),
        "mod-squares quotient order  %d" % (report.quotient_order,),
        "character group order       %d" % (report.y_order,),
        "character map injective     %s" % (report.phi_injective,),
        "character map surjective    %s" % (report.phi_surjective,),
    ]
    if witness is None:
        lines.append("every character is realised; no witness pair")
    else:
        lines.append("witness pair: source order %d, element-conjugate %s, "
                     "globally conjugate %s" %
                     (witness["source_order"], witness["element_conjugate"],
                      witness["globally_conjugate"]))
        if exit_code == 1:
            lines.append("INCONSISTENT: the witness pair verdicts contradict "
                         "the criterion")
    _emit(args, payload, lines)
    return exit_code


# --- parser --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write the report to PATH instead of stdout")
    common.add_argument("--max-closure", metavar="N", type=int, default=None,
                        help="cap on generated group sizes (default: env "
                             "ACCEPTCERT_MAX_CLOSURE or 100000)")

    parser = argparse.ArgumentParser(
        prog="acceptcert",
        description="Verify conjugacy certificates for homomorphism pairs "
                    "into compact classical groups, with exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", parents=[common],
                            help="print the certificate registry")
    p_list.set_defaults(func=_cmd_list)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run certificates and compare against "
                                   "expected outcomes")
    p_verify.add_argument("cert_ids", nargs="*", metavar="CERT_ID",
                          help="certificate ids to run (default: all)")
    p_verify.add_argument("--filter", metavar="GLOB", default="",
                          help="only run certificate ids matching this glob")
    p_verify.add_argument("--params", metavar="FILE", default=None,
                          help="JSON file mapping certificate ids to "
                               "replacement parameter lists")
    p_verify.set_defaults(func=_cmd_verify)

    p_scan = sub.add_parser("scan-scf", parents=[common],
                            help="scan one subgroup family over exact angles")
    p_scan.add_argument("family", choices=sorted(_FAMILY_BY_NAME),
                        help="which symmetric subgroup family to scan")
    p_scan.add_argument("n", type=int,
                        help="family size parameter (ambient dimension 2n+2)")
    p_scan.add_argument("--denominators", metavar="LIST", default="4,6,8",
                        help="comma-separated angle denominators "
                             "(default: 4,6,8)")
    p_scan.set_defaults(func=_cmd_scan_scf)

    p_crit = sub.add_parser("crit3a1", parents=[common],
                            help="run the rotation-centralizer character "
                                 "criterion")
    p_crit.add_argument("--generators", metavar="FILE", default=None,
                        help="JSON file with generating quaternion triples "
                             "(default: the pinned generators)")
    p_crit.set_defaults(func=_cmd_crit3a1)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_cap(args)
        return args.func(args)
    except (CertParamError, ClosureCapError, ExactAlgError, GroupError,
            GroupStructureError, NotAHomomorphismError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
