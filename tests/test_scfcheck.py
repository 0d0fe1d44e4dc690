"""Symmetric-pair membership scans over exact rotation angles.

Intersection dimensions, component counts, and centralizer sizes are pinned
from tests/oracles/symmetric_pair_samples.py and commutant_dims.py.
"""

import pytest

from acceptcert.exactalg import ExactMatrix, ONE, ZERO, Subspace, cyc_half, flatten_matrix
from acceptcert import scfcheck
from acceptcert.exactalg import ConductorCapError
from acceptcert.fingrp import ClosureCapError
from acceptcert.grpcore import GroupError
from acceptcert.scfcheck import (
    Angle,
    Eq2Verdict,
    KIND_O_ODD,
    KIND_SO_ODD,
    NotSignPattern,
    SubgroupDescriptor,
    SymPairFamily,
    build_g_theta,
    centralizer_of_descriptor,
    decide_eq2,
    intersection_descriptor,
    scan_angles,
    scan_grid,
)

O_ODD_1 = SymPairFamily(KIND_O_ODD, 1)
SO_ODD_1 = SymPairFamily(KIND_SO_ODD, 1)


def test_angle_exactness():
    quarter = Angle.make(1, 4)
    assert quarter.cos.is_zero() and quarter.sin == ONE
    sixth = Angle.make(1, 6)
    assert sixth.cos == cyc_half()
    assert sixth.sin * sixth.sin == cyc_half() * cyc_half() * (ONE + ONE + ONE)
    half = Angle.make(2, 4)
    assert half.cos == -ONE and half.sin.is_zero()
    for k in range(8):
        ang = Angle.make(k, 8)
        assert ang.cos * ang.cos + ang.sin * ang.sin == ONE
    assert Angle.make(5, 4).cos == Angle.make(1, 4).cos


def test_angle_refinement():
    coarse = Angle.make(1, 4)
    fine = Angle.make(2, 8)
    assert coarse.cos == fine.cos and coarse.sin == fine.sin


def test_rotation_block_matrix():
    fam = O_ODD_1
    g0 = build_g_theta(fam, Angle.make(0, 4))
    assert g0.is_identity()
    g = build_g_theta(fam, Angle.make(1, 6))
    assert g.is_orthogonal() and g.det() == ONE
    assert g * build_g_theta(fam, Angle.make(5, 6)) == ExactMatrix.identity(4)


def test_family_membership():
    refl = O_ODD_1.reflection()
    assert not O_ODD_1.contains(refl)
    flip = ExactMatrix.diagonal([-ONE, -ONE, ONE, ONE])
    assert O_ODD_1.contains(flip)
    assert SO_ODD_1.contains(ExactMatrix.diagonal([-ONE, -ONE, ONE, ONE]))
    assert not SO_ODD_1.contains(ExactMatrix.diagonal([-ONE, ONE, ONE, -ONE]))
    assert not O_ODD_1.contains(build_g_theta(O_ODD_1, Angle.make(1, 6)))


def test_intersection_dims_pinned():
    cases = [
        (O_ODD_1, Angle.make(0, 4), 3, 8),
        (O_ODD_1, Angle.make(1, 6), 1, 4),
        (O_ODD_1, Angle.make(1, 4), 1, 8),
        (SO_ODD_1, Angle.make(1, 6), 1, 2),
    ]
    for fam, ang, lie_dim, comp_count in cases:
        d = intersection_descriptor(fam, ang)
        assert d.lie.dim == lie_dim
        assert len(d.components) == comp_count


def test_centralizer_counts_pinned():
    quarter = intersection_descriptor(O_ODD_1, Angle.make(1, 4))
    assert len(centralizer_of_descriptor(quarter)) == 4
    generic = centralizer_of_descriptor(
        intersection_descriptor(O_ODD_1, Angle.make(1, 6)))
    assert isinstance(generic, NotSignPattern)
    assert generic.commutant_dim == 6


def test_centralizer_of_full_rotation_algebra():
    basis = []
    for i in range(4):
        for j in range(i + 1, 4):
            rows = [[ZERO] * 4 for _ in range(4)]
            rows[i][j] = ONE
            rows[j][i] = -ONE
            basis.append(ExactMatrix.make(rows))
    lie = Subspace.from_vectors([flatten_matrix(m) for m in basis], 16)
    d = SubgroupDescriptor(4, lie, (ExactMatrix.identity(4),))
    cz = centralizer_of_descriptor(d)
    assert len(cz) == 2
    assert any(m.is_identity() for m in cz)


def test_eq2_routes_pinned():
    v = decide_eq2(O_ODD_1, Angle.make(1, 6))
    assert v.outcome == "holds" and "centralizes" in v.route
    v = decide_eq2(O_ODD_1, Angle.make(2, 4))
    assert v.outcome == "holds" and "lies in the subgroup" in v.route
    v = decide_eq2(O_ODD_1, Angle.make(1, 4))
    assert v.outcome == "fails" and v.translates_checked == 4
    v = decide_eq2(SO_ODD_1, Angle.make(2, 4))
    assert v.outcome == "holds" and v.translates_checked == 2


def test_eq2_verdict_json_keys():
    base = {"family", "n", "condition", "k", "m", "outcome"}
    held = decide_eq2(O_ODD_1, Angle.make(1, 6)).to_json()
    assert set(held) == base | {"route"}
    failed = decide_eq2(O_ODD_1, Angle.make(1, 4)).to_json()
    assert set(failed) == base | {"route", "translates_checked"}
    assert failed["route"] == "translate-scan" and failed["translates_checked"] == 4
    undecided = Eq2Verdict(O_ODD_1, Angle.make(1, 4), "undecided", reason="why").to_json()
    assert set(undecided) == base | {"reason"} and undecided["outcome"] == "undecided"


def test_angle_reflection_symmetry():
    for m in (4, 6, 8):
        for k in range(m):
            a = decide_eq2(O_ODD_1, Angle.make(k, m))
            b = decide_eq2(O_ODD_1, Angle.make(m - k, m))
            assert a.outcome == b.outcome


def failing_fractions(rows):
    return sorted((v.angle.k, v.angle.m) for v in rows if v.outcome == "fails")


def test_scan_pinned_failing_sets():
    for n in (1, 2):
        rows = scan_angles(KIND_O_ODD, n, (4, 6, 8))
        assert failing_fractions(rows) == [(1, 4), (2, 8), (3, 4), (6, 8)]
        assert all(v.outcome != "undecided" for v in rows)
        rows = scan_angles(KIND_SO_ODD, n, (4, 6, 8))
        assert failing_fractions(rows) == []
        assert all(v.outcome == "holds" for v in rows)


def test_scan_refinement_consistency():
    coarse = {(v.angle.k, v.angle.m): v.outcome
              for v in scan_angles(KIND_O_ODD, 1, (4,))}
    fine = {(v.angle.k, v.angle.m): v.outcome
            for v in scan_angles(KIND_O_ODD, 1, (8,))}
    for (k, m), outcome in coarse.items():
        assert fine[(2 * k, 2 * m)] == outcome


def test_scan_refuses_sign_enumerations_over_the_cap(monkeypatch):
    # SO(2n+2) has 2^(2n+2) diagonal sign matrices: 16 at n = 1
    with pytest.raises(ClosureCapError, match="16 sign matrices"):
        scan_angles(KIND_O_ODD, 1, (4,), cap=15)
    assert len(scan_angles(KIND_SO_ODD, 1, (4,), cap=16)) == 4

    def refuse(fam, ang):
        raise AssertionError("an angle was scanned")

    monkeypatch.setattr(scfcheck, "decide_eq2", refuse)
    monkeypatch.delenv("ACCEPTCERT_MAX_CLOSURE", raising=False)
    with pytest.raises(ClosureCapError, match="1048576 sign matrices"):
        scan_angles(KIND_O_ODD, 9, (4,))


def test_scans_refuse_huge_inputs_before_building_anything():
    with pytest.raises(ConductorCapError, match="conductor 964 exceeds the cap 240"):
        scan_grid([4, 241])
    with pytest.raises(ConductorCapError):
        scan_grid([10 ** 12])
    assert scan_grid([240, 1])[:2] == [(0, 1), (0, 240)]
    # 2^(2n+2) is never formed: it would have over 6000 digits here
    with pytest.raises(ClosureCapError, match=r"2\^\(2n\+2\) sign matrices"):
        scan_angles(KIND_O_ODD, 10000, (4,))
    with pytest.raises(ClosureCapError, match="16 sign matrices, over the cap of -100000"):
        scan_angles(KIND_O_ODD, 1, (4,), cap=-100000)


def test_family_validation():
    with pytest.raises(GroupError):
        SymPairFamily("no_such_kind", 1)
    with pytest.raises(GroupError):
        SymPairFamily(KIND_O_ODD, 0)
