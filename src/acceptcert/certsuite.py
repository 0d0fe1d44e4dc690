"""Registry of named certificates with pinned expected outcomes.

Each certificate packages one finite computation: a homomorphism pair that
must come out element-conjugate but not globally conjugate, the rotation
criterion with its exact counts and verified witness, an angle scan with its
exact failing set, or a batch of conjugated sanity pairs that must come back
globally conjugate.  Expected outcomes are data on the certificate; only the
scans compute theirs, from the closed-form classification that ``scan-scf``
checks against, evaluated on the run's angles.  A failing run means either a
bug or a genuinely different answer, and the result records which
sub-verdict disagreed.

Every certificate declares its parameters and their JSON types (the sanity
batches also their ranges); a run whose parameters miss a key, add an
unknown one or give a value of the wrong type raises CertParamError before
any computation starts.

The registry is built once, at import.  Each certificate carries the runner
that computes it, so ``run`` (one certificate) and ``run_all`` (a list of
certificates over their grids, the only grid loop) are the one path from
input to verdict for the library and the CLI alike.  ``scan`` is the one
input check in front of the angle scans, for ``verify`` and ``scan-scf``.

Builders are deterministic in their parameters, including the randomized
sanity batches (fixed seeds).  ``run_all`` produces results in a fixed
order, so two invocations serialize identically except for wall times.
"""

from __future__ import annotations

import random
import time
from fnmatch import fnmatchcase

from .exactalg import (
    ExactMatrix,
    ONE,
    ZERO,
    check_conductor,
    cyc_half,
    cyc_i,
    cyc_rational,
    cyc_zeta,
    sqrt_rational,
)
from .fingrp import FormalGroupSpec, formal_group, hom_from_gens
from .grpcore import GroupSpec, Quat, QUAT_I, QUAT_J, QUAT_K, sp1_factor, su_factor
from .homcheck import (
    GloballyConjugate,
    HomPair,
    abelian_weight_oracle,
    decide_global,
    is_element_conjugate,
)
from .scfcheck import (
    KIND_O_ODD,
    KIND_SO_ODD,
    closed_form_outcome,
    scan_angles,
    scan_grid,
)
from .so3crit import (
    CRITERION_FIELDS,
    InfiniteCentralizer,
    build_witness_pair,
    decide_criterion,
    rotation_group_from_quats,
    standard_criterion_group,
)


class CertParamError(Exception):
    """Bad certificate id or parameters."""


# About 2 ms per pair on a 2-vCPU host, so a full batch stays near 2 s.
SANITY_MAX_COUNT = 1000

_INT = "an integer"
_INT_LIST = "a list of integers"
_SANITY_GROUP = "'su4' or 'sp1_cubed'"
_SANITY_COUNT = "an integer from 1 to %d" % (SANITY_MAX_COUNT,)

_TYPE_CHECKS = {
    _INT: lambda v: type(v) is int,
    _INT_LIST: lambda v: (isinstance(v, (list, tuple))
                          and all(type(x) is int for x in v)),
    _SANITY_GROUP: lambda v: v in ("su4", "sp1_cubed"),
    _SANITY_COUNT: lambda v: type(v) is int and 1 <= v <= SANITY_MAX_COUNT,
}


class Certificate:
    """One named computation with a parameter schema, a claim, and expected outcomes.

    ``params`` maps every required parameter to its type, ``optional`` every
    parameter a run may leave out.  ``expected`` is a dict of expected
    verdicts, or a function from the run's parameters to one.  ``runner``
    computes a run: ``runner(cert, params, cap) -> (verdicts, counts)``.
    Hom-pair certificates also carry ``build(params) -> (group, pair)``.
    ``kind`` is reported data only; nothing dispatches on it.
    """

    __slots__ = ("id", "kind", "claim", "param_grid", "params", "optional", "expected",
                 "runner", "build")

    def __init__(self, id: str, kind: str, claim: str, param_grid, expected, runner,
                 params=None, optional=None, build=None):
        self.id = id
        self.kind = kind
        self.claim = claim
        self.param_grid = tuple(param_grid)
        self.params = dict(params or {})
        self.optional = dict(optional or {})
        self.expected = expected
        self.runner = runner
        self.build = build

    def check_params(self, params) -> None:
        """Raise CertParamError unless ``params`` matches the declared schema."""
        if not isinstance(params, dict):
            raise CertParamError("parameters for %s must be an object" % (self.id,))
        for key in params:
            if key not in self.params and key not in self.optional:
                raise CertParamError(
                    "%s has no parameter %r (it takes: %s)"
                    % (self.id, key, ", ".join(sorted({**self.params, **self.optional}))
                       or "none"))
        for key in self.params:
            if key not in params:
                raise CertParamError("%s needs parameter %r" % (self.id, key))
        for key, value in params.items():
            kind = self.params.get(key) or self.optional[key]
            if not _TYPE_CHECKS[kind](value):
                raise CertParamError("%s parameter %r must be %s, got %r"
                                     % (self.id, key, kind, value))

    def expected_for(self, params) -> dict:
        exp = self.expected
        return dict(exp(params) if callable(exp) else exp)


class RunResult:
    """Verdicts of one certificate run compared against its expected data."""

    __slots__ = ("id", "params", "claim", "expected", "verdicts", "counts",
                 "passed", "seconds")

    def __init__(self, id, params, claim, expected, verdicts, counts, seconds):
        self.id = id
        self.params = dict(params)
        self.claim = claim
        self.expected = dict(expected)
        self.verdicts = dict(verdicts)
        self.counts = dict(counts)
        self.passed = all(self.verdicts.get(k) == v for k, v in self.expected.items())
        self.seconds = seconds

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "params": self.params,
            "claim": self.claim,
            "expected": self.expected,
            "verdicts": self.verdicts,
            "counts": self.counts,
            "passed": self.passed,
            "seconds": self.seconds,
        }


# --- pinned matrices and quaternions ----------------------------------------------


def _su4_witness_images():
    ii = cyc_i()
    a = ExactMatrix.diagonal([ONE, ONE, ii, -ii])
    b = ExactMatrix.diagonal([ONE, ii, ONE, -ii])
    return a, b


def _su4_mod_center_group(copies: int) -> GroupSpec:
    minus = ExactMatrix.identity(4).scaled(cyc_rational(-1))
    return GroupSpec(
        tuple(su_factor(4) for _ in range(copies)),
        center_gens=((minus,) * copies,),
    )


def eta_quat() -> Quat:
    """The unit quaternion (1 + i)/sqrt(2): an eighth turn about the first axis."""
    h = sqrt_rational(2) * cyc_half()
    return Quat.make(h, h, ZERO, ZERO)


def criterion_generator_quats() -> tuple:
    """The pinned generating quaternion triples for the rotation criterion."""
    e = eta_quat()
    i = QUAT_I
    j = QUAT_J
    return ((j, e, e), (e, j, e), (e, e, j), (i, i, i))


# --- builders ----------------------------------------------------------------------


def _build_sp1_diag(params):
    m = params["m"]
    eps = params["eps"]
    if m < 3:
        raise CertParamError("sp1_diag needs an integer m >= 3")
    if eps not in (1, -1):
        raise CertParamError("sp1_diag needs eps in {1, -1}")
    one = Quat.one()
    i = QUAT_I
    mi = -i
    ei = i if eps == 1 else mi
    g = GroupSpec(tuple(sp1_factor() for _ in range(m)),
                  center_gens=((-one,) * m,))
    src = formal_group(FormalGroupSpec.cyclic_product(4, 4))
    im1 = (one,) * (m - 2) + (i, i)
    im2 = (i,) * (m - 2) + (one, i)
    im2p = (ei,) * (m - 2) + (one, mi)
    f = hom_from_gens(src, src.gen_indices,
                      (g.wrap_parts(im1), g.wrap_parts(im2)), target=g)
    fp = hom_from_gens(src, src.gen_indices,
                       (g.wrap_parts(im1), g.wrap_parts(im2p)), target=g)
    return g, HomPair(f, fp)


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _build_psu_odd_prime(params):
    p = params["p"]
    check_conductor(p)  # first: trial division of a huge p would not finish
    if not _is_odd_prime(p):
        raise CertParamError("psu_odd_prime needs an odd prime p")
    w = cyc_zeta(p)
    shift = ExactMatrix.make(
        [[ONE if j == (i + 1) % p else ZERO for j in range(p)] for i in range(p)])
    diag = ExactMatrix.diagonal([w ** t for t in range(p)])
    g = GroupSpec((su_factor(p),),
                  center_gens=((ExactMatrix.identity(p).scaled(w),),))
    src = formal_group(FormalGroupSpec.cyclic_product(p, p))
    f = hom_from_gens(src, src.gen_indices,
                      (g.wrap_parts((shift,)), g.wrap_parts((diag,))), target=g)
    fp = hom_from_gens(src, src.gen_indices,
                       (g.wrap_parts((shift,)), g.wrap_parts((diag * diag,))), target=g)
    return g, HomPair(f, fp)


def _build_su4_power_d4(params):
    k = params["k"]
    if k < 1:
        raise CertParamError("su4_power_d4 needs an integer k >= 1")
    g = _su4_mod_center_group(k)
    src = formal_group(FormalGroupSpec.cyclic_product(4, 4))
    a, b = _su4_witness_images()
    f = hom_from_gens(src, src.gen_indices,
                      (g.wrap_parts((a,) * k), g.wrap_parts((b,) * k)), target=g)
    fp = hom_from_gens(src, src.gen_indices,
                       (g.wrap_parts((a.conj(),) * k), g.wrap_parts((b.conj(),) * k)),
                       target=g)
    return g, HomPair(f, fp)


# --- randomized sanity pairs --------------------------------------------------------


def _random_su4_diag(rng) -> ExactMatrix:
    ii = cyc_i()
    exps = [rng.randrange(4) for _ in range(3)]
    exps.append((-sum(exps)) % 4)
    return ExactMatrix.diagonal([ii ** e for e in exps])


def _random_su4_monomial(rng) -> ExactMatrix:
    perm = rng.sample(range(4), 4)
    phases = [rng.randrange(4) for _ in range(4)]
    inversions = sum(1 for x in range(4) for y in range(x + 1, 4)
                     if perm[x] > perm[y])
    adjust = (-sum(phases)) % 4
    if inversions % 2 == 1:
        adjust = (adjust + 2) % 4
    phases[0] = (phases[0] + adjust) % 4
    ii = cyc_i()
    entries = [[ZERO] * 4 for _ in range(4)]
    for col in range(4):
        entries[perm[col]][col] = ii ** phases[col]
    out = ExactMatrix.make(entries)
    if not out.is_unitary() or out.det() != ONE:
        raise CertParamError("monomial sample escaped the special unitary group")
    return out


_SLOT_UNITS = (QUAT_I, QUAT_J, QUAT_K)


def _quat_power(q: Quat, e: int) -> Quat:
    out = Quat.one()
    for _ in range(e):
        out = out * q
    return out


def _unit_quat_pool() -> tuple:
    """The 24 unit quaternions with half-integer or unit coordinates."""
    half = cyc_half()
    out = []
    for base in (Quat.one(), QUAT_I, QUAT_J, QUAT_K):
        out.append(base)
        out.append(-base)
    for sa in (half, -half):
        for sb in (half, -half):
            for sc in (half, -half):
                for sd in (half, -half):
                    out.append(Quat.make(sa, sb, sc, sd))
    return tuple(out)


def _run_sanity(cert: Certificate, params, cap):
    group_name = params["group"]
    count = params["count"]
    seed = params["seed"]
    rng = random.Random(seed)
    pool = _unit_quat_pool()
    all_ok = True
    for _ in range(count):
        if group_name == "su4":
            g = GroupSpec((su_factor(4),))
            src = formal_group(FormalGroupSpec.cyclic_product(4, 4))
            ims = (g.wrap_parts((_random_su4_diag(rng),)),
                   g.wrap_parts((_random_su4_diag(rng),)))
            conj = g.wrap_parts((_random_su4_monomial(rng),))
        else:
            g = GroupSpec((sp1_factor(), sp1_factor(), sp1_factor()))
            src = formal_group(FormalGroupSpec.cyclic_product(4, 4))
            units = [rng.choice(_SLOT_UNITS) for _ in range(3)]
            ims = tuple(
                g.wrap_parts(tuple(_quat_power(u, rng.randrange(4)) for u in units))
                for _ in range(2))
            conj = g.wrap_parts(tuple(rng.choice(pool) for _ in range(3)))
        f = hom_from_gens(src, src.gen_indices, ims, target=g)
        inv = conj.inverse()
        fp = hom_from_gens(
            src, src.gen_indices,
            tuple((conj * im) * inv for im in ims), target=g)
        verdict = decide_global(HomPair(f, fp), cap=cap)
        if not isinstance(verdict, GloballyConjugate):
            all_ok = False
            break
    return {"all_globally_conjugate": all_ok, "trials": count}, {"trials": count}


# --- runners ---------------------------------------------------------------------------


def _decide_pair(pair: HomPair, cap):
    """Both deciders on one pair: (element_conjugate, globally_conjugate, verdict)."""
    ec, _ = is_element_conjugate(pair)
    verdict = decide_global(pair, cap=cap)
    return ec, isinstance(verdict, GloballyConjugate), verdict


def _run_hompair(cert: Certificate, params, cap):
    g, pair = cert.build(params)
    ec, gc, verdict = _decide_pair(pair, cap)
    verdicts = {"element_conjugate": ec, "globally_conjugate": gc}
    counts = {
        "source_order": pair.src.order,
        "quotient_kernel_order": len(g.z_subgroup),
        "pair_group_order": verdict.p_order,
        "twists_examined": verdict.seeds_examined,
    }
    if "oracle_agrees" in cert.expected_for(params):
        verdicts["oracle_agrees"] = abelian_weight_oracle(pair) == gc
    return verdicts, counts


def run_criterion(gens=None, cap: int | None = None):
    """The rotation criterion on Sp(1)^3 mod the sign pairs, with its witness pair.

    ``gens`` are generating quaternion triples (default: the pinned ones).
    Returns ``(rotations, report, witness)``: the closed rotation group, the
    ``decide_criterion`` report (an InfiniteCentralizer when the criterion
    does not apply) and, when some character is missed, the generic
    deciders' verdicts on the witness pair, else None.
    """
    if gens is None:
        gens = criterion_generator_quats()
    g = standard_criterion_group()
    gbar = rotation_group_from_quats(gens, cap=cap)
    report = decide_criterion(g, gbar, cap=cap)
    if isinstance(report, InfiniteCentralizer) or report.phi_surjective:
        return gbar, report, None
    pair = build_witness_pair(report, g, gbar, cap=cap)
    ec, gc, verdict = _decide_pair(pair, cap)
    witness = {
        "element_conjugate": ec,
        "globally_conjugate": gc,
        "source_order": pair.src.order,
        "twists_examined": verdict.seeds_examined,
    }
    return gbar, report, witness


def _run_criterion(cert: Certificate, params, cap):
    gbar, report, witness = run_criterion(cap=cap)
    if isinstance(report, InfiniteCentralizer):
        return {"applicable": False, "reason": report.reason}, {}
    verdicts = {"applicable": True}
    verdicts.update((name, getattr(report, name)) for name in CRITERION_FIELDS)
    counts = {"rotation_group_order": gbar.order}
    if witness is not None:
        verdicts["witness_element_conjugate"] = witness["element_conjugate"]
        verdicts["witness_globally_conjugate"] = witness["globally_conjugate"]
        counts["witness_source_order"] = witness["source_order"]
        counts["witness_twists_examined"] = witness["twists_examined"]
    return verdicts, counts


SCAN_DENOMINATORS = (4, 6, 8)


def scan(kind: str, n: int, denominators, cap: int | None = None) -> list:
    """``scan_angles`` behind the input checks that every scan goes through.

    Raises CertParamError unless n >= 1 and the denominators are a non-empty
    list of positive integers; ``scan_angles`` then refuses a scan over the
    closure cap or a denominator over the conductor cap before any angle is
    decided.
    """
    if n < 1:
        raise CertParamError("scan needs an integer n >= 1")
    if not denominators or any(m < 1 for m in denominators):
        raise CertParamError("scan denominators must be a non-empty list of "
                             "positive integers")
    return scan_angles(kind, n, denominators, cap=cap)


_SCAN_KINDS = {"scf_o_odd": KIND_O_ODD, "scf_so_odd": KIND_SO_ODD}


def _run_scan(cert: Certificate, params, cap):
    rows = scan(_SCAN_KINDS[cert.id], params["n"],
                params.get("denominators", SCAN_DENOMINATORS), cap=cap)
    failing = [[v.angle.k, v.angle.m] for v in rows if v.outcome == "fails"]
    undecided = sum(1 for v in rows if v.outcome == "undecided")
    verdicts = {"failing": failing, "undecided": undecided}
    counts = {
        "rows": len(rows),
        "holds": sum(1 for v in rows if v.outcome == "holds"),
        "fails": len(failing),
    }
    return verdicts, counts


def _scan_expected(cert_id: str):
    """Expected scan verdicts: the closed form's failing angles, nothing undecided."""
    kind = _SCAN_KINDS[cert_id]

    def expected(params):
        grid = scan_grid(params.get("denominators", SCAN_DENOMINATORS))
        failing = [[k, m] for k, m in grid if closed_form_outcome(kind, k, m) == "fails"]
        return {"failing": failing, "undecided": 0}

    return expected


# --- registry ------------------------------------------------------------------------


_EC_NOT_GC = {"element_conjugate": True, "globally_conjugate": False}
_EC_NOT_GC_ORACLE = {"element_conjugate": True, "globally_conjugate": False,
                     "oracle_agrees": True}

_SP1_PARAMS = {"m": _INT, "eps": _INT}
_SCAN_PARAMS = {"n": _INT}
_SCAN_OPTIONAL = {"denominators": _INT_LIST}

_REGISTRY = (
    Certificate(
        id="su4_mod_center",
        kind="hompair", runner=_run_hompair,
        build=lambda params: _build_su4_power_d4({"k": 1}),
        claim=("Commuting diagonal fourth-root images and their entrywise "
               "conjugates into SU(4) mod its sign scalar: conjugate element "
               "by element, never by one global conjugator."),
        param_grid=({},),
        expected=_EC_NOT_GC_ORACLE,
    ),
    Certificate(
        id="sp1_diag",
        kind="hompair", runner=_run_hompair, build=_build_sp1_diag,
        claim=("Diagonal quaternion-unit pairs into the m-fold Sp(1) product "
               "mod the all-minus-one center: element-conjugate but not "
               "globally conjugate for every m >= 3 and either sign."),
        param_grid=tuple({"m": m, "eps": e} for m in range(3, 9) for e in (1, -1)),
        expected=_EC_NOT_GC_ORACLE,
        params=_SP1_PARAMS,
    ),
    Certificate(
        id="psp3_via_sp1",
        kind="hompair", runner=_run_hompair, build=_build_sp1_diag,
        claim=("The three-factor quotient by the diagonal sign, reached as "
               "the m = 3 diagonal pair: same split verdict."),
        param_grid=({"m": 3, "eps": 1}, {"m": 3, "eps": -1}),
        expected=_EC_NOT_GC_ORACLE,
        params=_SP1_PARAMS,
    ),
    Certificate(
        id="psu_odd_prime",
        kind="hompair", runner=_run_hompair, build=_build_psu_odd_prime,
        claim=("Cyclic shift against two root-of-unity diagonals into SU(p) "
               "mod its full scalar center, p an odd prime: element-conjugate "
               "but not globally conjugate."),
        param_grid=({"p": 3}, {"p": 5}),
        expected=_EC_NOT_GC,
        params={"p": _INT},
    ),
    Certificate(
        id="su4_power_d4",
        kind="hompair", runner=_run_hompair, build=_build_su4_power_d4,
        claim=("The SU(4) witness copied diagonally into a k-fold product mod "
               "the diagonal sign center keeps the same split verdict."),
        param_grid=({"k": 1}, {"k": 2}),
        expected=_EC_NOT_GC,
        params={"k": _INT},
    ),
    Certificate(
        id="crit_3a1",
        kind="criterion", runner=_run_criterion,
        claim=("On Sp(1)^3 mod the sign pairs, the pinned rotation group has "
               "eight centralizer classes against sixteen characters; a missed "
               "character builds a pair that is element-conjugate and not "
               "globally conjugate."),
        param_grid=({},),
        expected={
            "applicable": True,
            "z_centralizer_order": 8,
            "liftable_order": 1,
            "x_order": 8,
            "quotient_order": 16,
            "y_order": 16,
            "phi_injective": True,
            "phi_surjective": False,
            "witness_element_conjugate": True,
            "witness_globally_conjugate": False,
        },
    ),
    Certificate(
        id="scf_o_odd",
        kind="scan", runner=_run_scan,
        claim=("The reflection-fixed odd orthogonal subgroup of SO(2n+2) "
               "fails the centralizer-translate membership exactly at the "
               "quarter and three-quarter turns."),
        param_grid=({"n": 1}, {"n": 2}),
        expected=_scan_expected("scf_o_odd"),
        params=_SCAN_PARAMS,
        optional=_SCAN_OPTIONAL,
    ),
    Certificate(
        id="scf_so_odd",
        kind="scan", runner=_run_scan,
        claim=("The last-vector stabilizer SO(2n+1) passes the "
               "centralizer-translate membership at every scanned angle."),
        param_grid=({"n": 1}, {"n": 2}),
        expected=_scan_expected("scf_so_odd"),
        params=_SCAN_PARAMS,
        optional=_SCAN_OPTIONAL,
    ),
    Certificate(
        id="sanity_acceptable",
        kind="sanity", runner=_run_sanity,
        claim=("A pair made of a homomorphism and its conjugate by a fixed "
               "element must always come back globally conjugate."),
        param_grid=({"group": "su4", "count": 25, "seed": 20260819},
                    {"group": "sp1_cubed", "count": 25, "seed": 20260820}),
        expected={"all_globally_conjugate": True},
        params={"group": _SANITY_GROUP, "count": _SANITY_COUNT, "seed": _INT},
    ),
)

_BY_ID = {cert.id: cert for cert in _REGISTRY}


def registry() -> list:
    """All certificates in fixed order with their default parameter grids."""
    return list(_REGISTRY)


def certificate(cert_id: str) -> Certificate:
    """The registry certificate with this id; CertParamError if there is none."""
    cert = _BY_ID.get(cert_id)
    if cert is None:
        raise CertParamError("unknown certificate id %r" % (cert_id,))
    return cert


def run(cert_id: str, params=None, cap: int | None = None) -> RunResult:
    """Run one certificate at the given (or first default) parameters."""
    cert = certificate(cert_id)
    if params is None:
        params = dict(cert.param_grid[0]) if cert.param_grid else {}
    cert.check_params(params)
    start = time.perf_counter()
    verdicts, counts = cert.runner(cert, params, cap)
    seconds = time.perf_counter() - start
    return RunResult(cert.id, params, cert.claim, cert.expected_for(params), verdicts,
                     counts, seconds)


def run_all(filter_pattern: str = "", cap: int | None = None,
            grid_overrides=None, cert_ids=None) -> list:
    """Certificates over their parameter grids, in fixed order.

    ``cert_ids`` lists the certificates to run, in that order (default: the
    whole registry); ``filter_pattern`` is a glob that further selects ids.
    ``grid_overrides`` maps certificate id to a replacement list of parameter
    dicts (the CLI loads it from a JSON file).  Every id and every override
    parameter set is checked before anything runs.  Each run goes through
    the module's ``run``.
    """
    certs = _REGISTRY if cert_ids is None else [certificate(i) for i in cert_ids]
    overrides = grid_overrides or {}
    for cert_id, grid in overrides.items():
        cert = certificate(cert_id)
        for params in grid:
            cert.check_params(params)
    out = []
    for cert in certs:
        if filter_pattern and not fnmatchcase(cert.id, filter_pattern):
            continue
        for params in overrides.get(cert.id, cert.param_grid):
            out.append(run(cert.id, dict(params), cap=cap))
    return out


# --- coverage of the source constructions ---------------------------------------------

# Constructions intentionally absent, with the reason.  Everything listed as
# covered has a certificate above; everything out of scope needs machinery
# (full unitary factors, higher symplectic groups, spin double covers,
# exceptional groups) that this package does not model.
COVERAGE = (
    {"construction": "SU(4) mod center witness pair", "status": "covered",
     "certificate": "su4_mod_center"},
    {"construction": "m-fold Sp(1) mod diagonal sign diagonal pairs (m >= 3)",
     "status": "covered", "certificate": "sp1_diag"},
    {"construction": "three-factor Sp(1) quotient by the diagonal sign",
     "status": "covered", "certificate": "psp3_via_sp1"},
    {"construction": "SU(p) mod full center shift/diagonal pairs, p odd prime",
     "status": "covered", "certificate": "psu_odd_prime"},
    {"construction": "k-fold diagonal copies of the SU(4) witness",
     "status": "covered", "certificate": "su4_power_d4"},
    {"construction": "character-count criterion on Sp(1)^3 mod sign pairs",
     "status": "covered", "certificate": "crit_3a1"},
    {"construction": "odd orthogonal subgroups of SO(2n+2), both embeddings",
     "status": "covered", "certificate": "scf_o_odd / scf_so_odd"},
    {"construction": "conjugated-pair sanity batches in SU(4) and Sp(1)^3",
     "status": "covered", "certificate": "sanity_acceptable"},
    {"construction": "witness families built on full unitary U(n) factors",
     "status": "out of scope",
     "reason": "only special unitary factors are modeled; the unitary route "
               "is a reduction device, not a distinct finite witness"},
    {"construction": "quotients of higher symplectic groups Sp(n), n >= 2",
     "status": "out of scope",
     "reason": "no exact model for symplectic matrices beyond Sp(1)"},
    {"construction": "spin and pin double covers (including the rank-7 case)",
     "status": "out of scope",
     "reason": "needs Clifford algebra arithmetic"},
    {"construction": "the exceptional subgroup of SO(7) and exceptional "
                     "symmetric pairs",
     "status": "out of scope",
     "reason": "needs restricted-root and octonion machinery"},
)
