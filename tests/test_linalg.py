"""Exact matrices: pinned characteristic polynomials, commutants, subspaces.

The pinned coefficient lists and commutant dimensions were computed
independently with sympy (tests/oracles/charpoly_tables.py and
tests/oracles/commutant_dims.py) and copied here.

The zero-skipping kernels (product, elimination det, row reduction,
commutant assembly) are cross-checked against textbook dense versions kept
in this file, on sparse and dense inputs alike.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acceptcert.exactalg import (
    ExactAlgError,
    ExactMatrix,
    ONE,
    Subspace,
    ZERO,
    commutant,
    cyc_i,
    cyc_rational,
    cyc_sqrt2,
    cyc_zeta,
    flatten_matrix,
    nullspace,
    rref,
    subspace_intersect,
    unflatten_matrix,
)

I4 = cyc_i()


def rat(q):
    return cyc_rational(Fraction(q))


def diag(*values):
    return ExactMatrix.diagonal(list(values))


def cyclic_shift(n):
    return ExactMatrix.make(
        [[ONE if j == (i + 1) % n else ZERO for j in range(n)] for i in range(n)])


def root_diag(n):
    w = cyc_zeta(n)
    return ExactMatrix.diagonal([w ** k for k in range(n)])


QUARTER_TURN = ExactMatrix.make([
    [ONE, ZERO, ZERO],
    [ZERO, ZERO, -ONE],
    [ZERO, ONE, ZERO],
])


def coeffs(m):
    return [c.rational() if c.is_rational() else c for c in m.char_poly()]


def test_charpoly_pinned_diagonals():
    a = diag(ONE, ONE, I4, -I4)
    b = diag(ONE, I4, ONE, -I4)
    want = [1, -2, 2, -2, 1]
    assert coeffs(a) == want
    assert coeffs(b) == want
    prod = a * b
    assert prod.char_poly() == (ONE, rat(-2) * I4, rat(-2), rat(2) * I4, ONE)


def test_charpoly_pinned_shift_matrices():
    assert coeffs(cyclic_shift(3)) == [1, 0, 0, -1]
    assert coeffs(cyclic_shift(5)) == [1, 0, 0, 0, 0, -1]
    for p in (3, 5):
        shifted = cyclic_shift(p) * root_diag(p)
        assert coeffs(shifted) == coeffs(cyclic_shift(p))


def test_charpoly_pinned_quarter_turn():
    assert coeffs(QUARTER_TURN) == [1, -1, 1, -1]
    assert QUARTER_TURN.is_orthogonal()
    assert QUARTER_TURN.det() == ONE


def test_commutant_dims_pinned():
    a = diag(ONE, ONE, I4, -I4)
    b = diag(ONE, I4, ONE, -I4)
    assert commutant([a]).dim == 6
    assert commutant([a, b]).dim == 4
    half = diag(-ONE, ONE, -ONE)
    assert commutant([QUARTER_TURN, half]).dim == 2

    so4 = []
    for i in range(4):
        for j in range(i + 1, 4):
            rows = [[ZERO] * 4 for _ in range(4)]
            rows[i][j] = ONE
            rows[j][i] = -ONE
            so4.append(ExactMatrix.make(rows))
    assert commutant(so4).dim == 1

    rows = [[ZERO] * 4 for _ in range(4)]
    rows[0][1] = ONE
    rows[1][0] = -ONE
    rot12 = ExactMatrix.make(rows)
    assert commutant([rot12]).dim == 6

    signs = [diag(*[rat(s) for s in p]) for p in (
        (1, 1, 1, 1), (1, 1, -1, -1), (-1, -1, 1, 1), (-1, -1, -1, -1),
        (-1, 1, -1, 1), (-1, 1, 1, -1), (1, -1, -1, 1), (1, -1, 1, -1))]
    span = commutant([rot12] + signs)
    assert span.dim == 3
    indicators = [unflatten_matrix(v, 4) for v in span.basis]
    assert indicators[0] == diag(ONE, ONE, ZERO, ZERO)
    assert indicators[1] == diag(ZERO, ZERO, ONE, ZERO)
    assert indicators[2] == diag(ZERO, ZERO, ZERO, ONE)


def test_commutant_rejects_empty_input():
    with pytest.raises(ExactAlgError):
        commutant([])


def test_flatten_roundtrip():
    m = ExactMatrix.make([[ONE, I4], [ZERO, -ONE]])
    assert unflatten_matrix(flatten_matrix(m), 2) == m


def test_rref_drops_zero_rows():
    basis, pivots = rref([(ONE, rat(2)), (rat(2), rat(4)), (ZERO, ZERO)])
    assert basis == ((ONE, rat(2)),)
    assert pivots == (0,)


def test_nullspace_rank_nullity():
    # one relation among three columns
    m = ExactMatrix.make([[ONE, ONE, rat(2)], [ZERO, ONE, ONE]])
    kernel = nullspace(m)
    assert kernel.dim == 1
    x, y, z = kernel.basis[0]
    for i in range(m.rows):
        row = m.row(i)
        total = row[0] * x + row[1] * y + row[2] * z
        assert total.is_zero()


def test_subspace_membership_and_intersection():
    e1 = (ONE, ZERO, ZERO)
    e2 = (ZERO, ONE, ZERO)
    e3 = (ZERO, ZERO, ONE)
    xy = Subspace.from_vectors([e1, e2], 3)
    yz = Subspace.from_vectors([e2, e3], 3)
    assert xy.dim == 2
    assert xy.contains((ONE, rat(-5), ZERO))
    assert not xy.contains(e3)
    line = subspace_intersect(xy, yz)
    assert line.dim == 1
    assert line.contains(e2)
    assert subspace_intersect(xy, xy) == xy


small_entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def matrices(n):
    return st.lists(
        st.lists(small_entries, min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(lambda rows: ExactMatrix.make(
        [[cyc_rational(v) for v in row] for row in rows]))


def _inverse(m):
    """Inverse of an invertible square matrix: Gauss-Jordan on [M | I]."""
    n = m.rows
    ident = ExactMatrix.identity(n)
    rows, pivots = rref([m.row(i) + ident.row(i) for i in range(n)])
    assert pivots == tuple(range(n))
    return ExactMatrix.make([row[n:] for row in rows])


@settings(max_examples=60, deadline=None)
@given(matrices(2), matrices(2))
def test_det_is_multiplicative(a, b):
    assert (a * b).det() == a.det() * b.det()


@settings(max_examples=60, deadline=None)
@given(matrices(3), matrices(3))
def test_transpose_and_trace_laws(a, b):
    assert a.transpose().transpose() == a
    assert (a * b).transpose() == b.transpose() * a.transpose()
    assert (a * b).trace() == (b * a).trace()


@settings(max_examples=40, deadline=None)
@given(matrices(3))
def test_cayley_hamilton(m):
    poly = m.char_poly()
    acc = ExactMatrix.zeros(3, 3)
    for coeff in poly:
        acc = acc * m + ExactMatrix.identity(3).scaled(coeff)
    assert acc.is_zero()


@settings(max_examples=40, deadline=None)
@given(matrices(3), matrices(3))
def test_charpoly_is_conjugation_invariant(m, p):
    if p.det().is_zero():
        return
    conjugated = (p * m) * _inverse(p)
    assert conjugated.char_poly() == m.char_poly()


@settings(max_examples=30, deadline=None)
@given(st.lists(matrices(3), min_size=1, max_size=3))
def test_commutant_members_commute(mats):
    span = commutant(mats)
    for vec in span.basis:
        candidate = unflatten_matrix(vec, 3)
        for m in mats:
            assert candidate * m == m * candidate


@settings(max_examples=40, deadline=None)
@given(matrices(3))
def test_charpoly_constant_term_is_signed_det(m):
    poly = m.char_poly()
    assert poly[0] == ONE
    # degree 3: det enters the constant coefficient with sign (-1)^3
    assert poly[-1] == -m.det()


# --- shape and size edge cases ---------------------------------------------------

RECT = ExactMatrix.make([[1, 2, 3], [4, 5, 6]])
EMPTY = ExactMatrix(0, 0, ())


@pytest.mark.parametrize("method", ["det", "char_poly", "trace"])
def test_square_only_methods_reject_rectangular_input(method):
    with pytest.raises(ExactAlgError, match="needs a square matrix"):
        getattr(RECT, method)()


def test_square_check_survives_optimized_mode():
    # the check must not be an assert, which python -O strips
    code = ("from acceptcert.exactalg import ExactMatrix, ExactAlgError\n"
            "m = ExactMatrix.make([[1, 2, 3], [4, 5, 6]])\n"
            "for name in ('det', 'char_poly', 'trace'):\n"
            "    try:\n"
            "        getattr(m, name)()\n"
            "    except ExactAlgError as exc:\n"
            "        assert 'needs a square matrix' in str(exc), exc\n"
            "    else:\n"
            "        raise SystemExit(name + ' accepted a 2x3 matrix')\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_entry_count_must_match_shape():
    with pytest.raises(ExactAlgError, match="a 2x2 matrix needs 4 entries, got 1"):
        ExactMatrix(2, 2, (ONE,))
    with pytest.raises(ExactAlgError, match="a 2x2 matrix needs 4 entries, got 3"):
        unflatten_matrix([ONE, ONE, ONE], 2)


def test_empty_matrix_invariants():
    # det(x * I_0) is the empty product 1
    assert EMPTY.char_poly() == (ONE,)
    assert EMPTY.det() == ONE
    assert EMPTY.trace() == ZERO
    assert EMPTY * EMPTY == EMPTY


def test_det_does_not_use_char_poly(monkeypatch):
    def refuse(self):
        raise AssertionError("det went through char_poly")

    monkeypatch.setattr(ExactMatrix, "char_poly", refuse)
    m = ExactMatrix.make([[ZERO, ONE, rat(2)], [rat(3), ZERO, ONE], [ONE, ONE, ZERO]])
    assert m.det() == rat(7)


def test_det_sign_of_row_swaps():
    swap = ExactMatrix.make([[ZERO, ONE], [ONE, ZERO]])
    assert swap.det() == -ONE
    cycle = cyclic_shift(3)
    assert cycle.det() == ONE
    assert cyclic_shift(4).det() == -ONE


# --- dense references -------------------------------------------------------------


def dense_product(a, b):
    """Textbook triple loop, no zero skipping."""
    return ExactMatrix(a.rows, b.cols, tuple(
        sum((a[i, t] * b[t, j] for t in range(a.cols)), ZERO)
        for i in range(a.rows) for j in range(b.cols)))


def reference_det(m):
    """det(M) = (-1)^n times the constant term of det(xI - M)."""
    last = m.char_poly()[-1]
    return last if m.rows % 2 == 0 else -last


def dense_rref(vectors):
    """Gauss-Jordan that updates every coordinate of every row."""
    work = [list(v) for v in vectors]
    width = len(work[0]) if work else 0
    pivots = []
    rank = 0
    for col in range(width):
        piv = next((r for r in range(rank, len(work)) if not work[r][col].is_zero()), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = work[rank][col].inverse()
        work[rank] = [inv * v for v in work[rank]]
        for r in range(len(work)):
            if r != rank:
                f = work[r][col]
                work[r] = [v - f * w for v, w in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
    return tuple(tuple(row) for row in work[:rank]), tuple(pivots)


def dense_commutant(mats):
    """Every linear form of XM - MX written out over all N*N coordinates."""
    n = mats[0].rows
    rows = []
    for m in mats:
        for i in range(n):
            for j in range(n):
                row = [ZERO] * (n * n)
                for b in range(n):
                    row[i * n + b] = row[i * n + b] + m[b, j]
                for a in range(n):
                    row[a * n + j] = row[a * n + j] - m[i, a]
                rows.append(row)
    return nullspace(ExactMatrix.make(rows))


# --- sparse and dense matrix strategies -----------------------------------------

# entries of conductors 1, 3, 4, 5 and 8 (lcm 120, within the conductor cap)
NONZERO_SCALARS = [ONE, -ONE, rat(2), rat(Fraction(-1, 3)), I4, -I4, cyc_zeta(3),
                   cyc_zeta(5) + ONE, cyc_sqrt2()]
scalars = st.sampled_from([ZERO] * 3 + NONZERO_SCALARS)
nonzero_scalars = st.sampled_from(NONZERO_SCALARS)


@st.composite
def dense_matrices(draw, rows, cols):
    return ExactMatrix.make([[draw(scalars) for _ in range(cols)] for _ in range(rows)])


@st.composite
def monomial_matrices(draw, n, signed_only=False):
    """One nonzero per row and column: diagonal, shift and (signed) permutation."""
    perm = draw(st.permutations(range(n)))
    values = st.sampled_from([ONE, -ONE]) if signed_only else nonzero_scalars
    rows = [[ZERO] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = draw(values)
    return ExactMatrix.make(rows)


@st.composite
def with_zero_line(draw, base):
    """A matrix with one row or one column set to zero."""
    m = draw(base)
    rows = [list(m.row(i)) for i in range(m.rows)]
    k = draw(st.integers(0, min(m.rows, m.cols) - 1))
    if draw(st.booleans()):
        rows[k] = [ZERO] * m.cols
    else:
        for row in rows:
            row[k] = ZERO
    return ExactMatrix.make(rows)


@st.composite
def singular_matrices(draw, n):
    """Last row a combination of the others, so the rank is below n."""
    m = draw(dense_matrices(n, n))
    rows = [list(m.row(i)) for i in range(n)]
    coeffs = draw(st.lists(scalars, min_size=n - 1, max_size=n - 1))
    rows[-1] = [sum((c * row[j] for c, row in zip(coeffs, rows)), ZERO) for j in range(n)]
    return ExactMatrix.make(rows)


def square_matrices(n):
    return st.one_of(
        dense_matrices(n, n),
        st.lists(scalars, min_size=n, max_size=n).map(ExactMatrix.diagonal),
        monomial_matrices(n),
        monomial_matrices(n, signed_only=True),
        with_zero_line(dense_matrices(n, n)),
        singular_matrices(n),
    )


sizes = st.integers(1, 4)


@st.composite
def chained_pairs(draw):
    n, k, m = draw(sizes), draw(sizes), draw(sizes)
    if n == k == m:
        return draw(square_matrices(n)), draw(square_matrices(n))
    left = draw(st.one_of(dense_matrices(n, k), with_zero_line(dense_matrices(n, k))))
    right = draw(st.one_of(dense_matrices(k, m), with_zero_line(dense_matrices(k, m))))
    return left, right


@settings(max_examples=80, deadline=None)
@given(chained_pairs())
def test_product_matches_dense_triple_loop(pair):
    a, b = pair
    assert a * b == dense_product(a, b)


@settings(max_examples=80, deadline=None)
@given(sizes.flatmap(square_matrices))
def test_det_matches_char_poly_reference(m):
    assert m.det() == reference_det(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: monomial_matrices(n, signed_only=True)))
def test_signed_permutation_det_is_sign_times_parity(m):
    n = m.rows
    perm = [next(j for j in range(n) if not m[i, j].is_zero()) for i in range(n)]
    inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
    sign = ONE
    for i in range(n):
        sign = sign * m[i, perm[i]]
    want = sign if inversions % 2 == 0 else -sign
    assert m.det() == want == reference_det(m)


@st.composite
def vector_families(draw):
    rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    m = draw(st.one_of(dense_matrices(rows, width),
                       with_zero_line(dense_matrices(rows, width)),
                       monomial_matrices(width) if rows == width else dense_matrices(rows, width)))
    return [m.row(i) for i in range(m.rows)]


@settings(max_examples=80, deadline=None)
@given(vector_families())
def test_rref_matches_dense_elimination(vectors):
    assert rref(vectors) == dense_rref(vectors)


@settings(max_examples=60, deadline=None)
@given(vector_families(), st.data())
def test_contains_matches_dense_rank(vectors, data):
    width = len(vectors[0])
    space = Subspace.from_vectors(vectors, width)
    coeffs = data.draw(st.lists(scalars, min_size=len(vectors), max_size=len(vectors)))
    inside = tuple(sum((c * v[j] for c, v in zip(coeffs, vectors)), ZERO)
                   for j in range(width))
    candidate = tuple(data.draw(st.lists(scalars, min_size=width, max_size=width)))
    assert space.contains(inside)
    base_rank = len(dense_rref(vectors)[0])
    assert space.contains(candidate) == (len(dense_rref(vectors + [candidate])[0]) == base_rank)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(square_matrices(n), min_size=1, max_size=2)))
def test_commutant_matches_dense_assembly(mats):
    assert commutant(mats) == dense_commutant(mats)
