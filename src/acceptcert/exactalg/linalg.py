"""Exact matrices over cyclotomic scalars, plus subspace machinery.

Everything here is elementary row-reduction style linear algebra done with
:class:`~acceptcert.exactalg.cyclotomic.CycNum` entries, so results are exact.
Matrices are stored densely, but the kernels skip exact zeros structurally:
the product walks only the nonzero entries of each row of the right factor,
``commutant`` assembles its constraints from the nonzero entries only, and
determinants and row reductions update a row only at the nonzero columns of
the pivot row.  Since ``v + 0*w = v`` exactly, skipping a zero changes no
value, so sparse inputs (diagonal, monomial and signed-permutation matrices)
cost in proportion to their nonzeros while dense ones cost what they did.

Determinants use Gaussian elimination (O(n^3)).  Characteristic polynomials
use the Faddeev-LeVerrier recurrence (division-free apart from rational
scalar divisions).

Subspaces of an ambient coordinate space are stored by their reduced row
echelon basis, which is unique, so two Subspace objects are equal iff they
describe the same space.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycNum, ExactAlgError, ZERO, ONE, cyc_rational, _coerce


def _as_cyc(value) -> CycNum:
    out = _coerce(value)
    if out is NotImplemented:
        raise ExactAlgError("cannot use %r as an exact scalar" % (value,))
    return out


class ExactMatrix:
    """Immutable dense matrix with exact cyclotomic entries (row-major)."""

    __slots__ = ("rows", "cols", "entries", "_key", "_hash")

    def __init__(self, rows: int, cols: int, entries: tuple):
        if len(entries) != rows * cols:
            raise ExactAlgError("a %dx%d matrix needs %d entries, got %d"
                                % (rows, cols, rows * cols, len(entries)))
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._key = None
        self._hash = None

    @classmethod
    def make(cls, data) -> "ExactMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = []
        for row in data:
            if len(row) != cols:
                raise ExactAlgError("ragged matrix data")
            entries.extend(_as_cyc(v) for v in row)
        return cls(rows, cols, tuple(entries))

    @classmethod
    def identity(cls, k: int) -> "ExactMatrix":
        entries = [ZERO] * (k * k)
        for i in range(k):
            entries[i * k + i] = ONE
        return cls(k, k, tuple(entries))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag) -> "ExactMatrix":
        diag = [_as_cyc(v) for v in diag]
        k = len(diag)
        entries = [ZERO] * (k * k)
        for i, v in enumerate(diag):
            entries[i * k + i] = v
        return cls(k, k, tuple(entries))

    def __getitem__(self, pos):
        i, j = pos
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    # --- arithmetic -------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ExactAlgError("matrix shapes %dx%d and %dx%d do not chain"
                                % (self.rows, self.cols, other.rows, other.cols))
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        # columns of the nonzero entries in each row of the right factor, found
        # once (a loop, not a nested comprehension: pstats keys code objects by
        # file, line and name, so two comprehensions on one line collide)
        b_support = []
        for t in range(k):
            base = t * m
            b_support.append([j for j in range(m) if not b[base + j].is_zero()])
        out = []
        for i in range(n):
            acc = [None] * m
            for t in range(k):
                av = a[i * k + t]
                if av.is_zero():
                    continue
                base = t * m
                for j in b_support[t]:
                    term = av * b[base + j]
                    cur = acc[j]
                    acc[j] = term if cur is None else cur + term
            out.extend(ZERO if v is None else v for v in acc)
        return ExactMatrix(n, m, tuple(out))

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._same_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           tuple(x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._same_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           tuple(x - y for x, y in zip(self.entries, other.entries)))

    def __neg__(self):
        return ExactMatrix(self.rows, self.cols, tuple(-x for x in self.entries))

    def scaled(self, scalar) -> "ExactMatrix":
        c = _as_cyc(scalar)
        return ExactMatrix(self.rows, self.cols, tuple(c * x for x in self.entries))

    def _require_square(self, what: str):
        if self.rows != self.cols:
            raise ExactAlgError("%s needs a square matrix, got %dx%d"
                                % (what, self.rows, self.cols))

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ExactAlgError("matrix shape mismatch")

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows,
                           tuple(self.entries[j * self.cols + i]
                                 for i in range(self.cols) for j in range(self.rows)))

    def conj(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, tuple(x.conj() for x in self.entries))

    def conj_transpose(self) -> "ExactMatrix":
        return self.transpose().conj()

    def trace(self) -> CycNum:
        self._require_square("trace")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.entries[i * self.cols + i]
        return acc

    # --- polynomial invariants ---------------------------------------------

    def char_poly(self) -> tuple:
        """Coefficients of det(xI - M), descending, starting with the monic 1."""
        self._require_square("char_poly")
        n = self.rows
        coeffs = [ONE]
        if n == 0:
            return tuple(coeffs)
        mk = self
        ident = ExactMatrix.identity(n)
        ck = -mk.trace()
        coeffs.append(ck)
        for k in range(2, n + 1):
            mk = self * (mk + ident.scaled(ck))
            ck = -(mk.trace() * cyc_rational(Fraction(1, k)))
            coeffs.append(ck)
        return tuple(coeffs)

    def det(self) -> CycNum:
        """Determinant by exact Gaussian elimination over the entries' field.

        Soundness: the entries lie in a field, so every nonzero pivot is
        invertible.  Subtracting a multiple of the pivot row from a lower row
        leaves det unchanged, and swapping two rows negates it; so ``result``
        times det of the remaining lower-right block is det(M) throughout.
        After the last column the rows are upper triangular and det is the
        product of the pivots, with the sign flipped once per swap.  If no
        row at or below the diagonal has a nonzero entry in column ``col``,
        the lower-right block has a zero first column, so det(M) = 0.

        Only the lower-right block is ever read again, so a row is updated
        only at the pivot row's nonzero columns right of the pivot
        (``v - f*0 = v``); the entries left of the block, which are zero in
        the matrix the loop stands for, are not written.
        """
        self._require_square("det")
        n = self.rows
        work = [list(self.entries[i * n : (i + 1) * n]) for i in range(n)]
        result = ONE
        for col in range(n):
            piv = None
            for r in range(col, n):
                if not work[r][col].is_zero():
                    piv = r
                    break
            if piv is None:
                return ZERO
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                result = -result
            prow = work[col]
            p = prow[col]
            result = result * p
            support = [(j, prow[j]) for j in range(col + 1, n) if not prow[j].is_zero()]
            if not support:
                continue
            inv = p.inverse()
            for r in range(col + 1, n):
                row = work[r]
                v = row[col]
                if v.is_zero():
                    continue
                f = v * inv
                for j, w in support:
                    row[j] = row[j] - f * w
        return result

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(self.cols):
                want = ONE if i == j else ZERO
                if self.entries[i * self.cols + j] != want:
                    return False
        return True

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.entries)

    def is_unitary(self) -> bool:
        return (self.conj_transpose() * self).is_identity()

    def is_orthogonal(self) -> bool:
        return (self.transpose() * self).is_identity()

    def is_real(self) -> bool:
        return all(v.is_real() for v in self.entries)

    def commutes_with(self, other: "ExactMatrix") -> bool:
        # entries are canonical, so AB - BA = 0 exactly when AB == BA entrywise
        return self * other == other * self

    # --- canonical order and equality ------------------------------------

    def sort_key(self):
        key = self._key
        if key is None:
            key = (self.rows, self.cols, tuple(v.sort_key() for v in self.entries))
            self._key = key
        return key

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.entries))
            self._hash = h
        return h

    def __repr__(self):
        return "ExactMatrix(%dx%d)" % (self.rows, self.cols)


def char_poly(m: ExactMatrix) -> tuple:
    return m.char_poly()


# --- row reduction and subspaces ---------------------------------------------


def rref(vectors) -> tuple:
    """Reduced row echelon form of a list of row vectors (tuples of CycNum).

    Returns (rows, pivot_columns); zero rows are dropped.  The output is the
    unique RREF basis of the span, so it can be compared across computations.
    """
    work = [list(v) for v in vectors]
    if not work:
        return (), ()
    width = len(work[0])
    pivots = []
    rank = 0
    for col in range(width):
        piv = None
        for r in range(rank, len(work)):
            if not work[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = work[rank][col].inverse()
        prow = [inv * v for v in work[rank]]
        work[rank] = prow
        # eliminate only where the pivot row is nonzero: v - f*0 = v
        support = [(j, w) for j, w in enumerate(prow) if not w.is_zero()]
        for r in range(len(work)):
            if r == rank:
                continue
            row = work[r]
            f = row[col]
            if f.is_zero():
                continue
            for j, w in support:
                row[j] = row[j] - f * w
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(row) for row in work[:rank]), tuple(pivots)


class Subspace:
    """A linear subspace of an ambient coordinate space, in canonical RREF form."""

    __slots__ = ("ambient", "basis", "pivots", "_supports")

    def __init__(self, ambient: int, basis: tuple, pivots: tuple):
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots
        self._supports = None

    @classmethod
    def from_vectors(cls, vectors, ambient: int) -> "Subspace":
        vectors = [tuple(_as_cyc(v) for v in vec) for vec in vectors]
        for vec in vectors:
            if len(vec) != ambient:
                raise ExactAlgError("vector length does not match ambient dimension")
        basis, pivots = rref(vectors)
        return cls(ambient, basis, pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector) -> bool:
        vec = [_as_cyc(v) for v in vector]
        if len(vec) != self.ambient:
            raise ExactAlgError("vector length does not match ambient dimension")
        supports = self._supports
        if supports is None:
            # nonzero (column, value) pairs of each basis row, built once
            supports = []
            for row in self.basis:
                supports.append(tuple((j, w) for j, w in enumerate(row) if not w.is_zero()))
            supports = self._supports = tuple(supports)
        for support, piv in zip(supports, self.pivots):
            c = vec[piv]
            if not c.is_zero():
                for j, w in support:
                    vec[j] = vec[j] - c * w
        return all(v.is_zero() for v in vec)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient)


def subspace_intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if s1.ambient != s2.ambient:
        raise ExactAlgError("ambient dimensions differ")
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.from_vectors([], s1.ambient)
    r1, r2 = s1.dim, s2.dim
    # columns: r1 coefficients for s1's basis, then r2 for s2's, rows: ambient
    data = []
    for i in range(s1.ambient):
        row = [s1.basis[j][i] for j in range(r1)]
        row += [-s2.basis[j][i] for j in range(r2)]
        data.append(row)
    stacked = ExactMatrix.make(data)
    combos = nullspace(stacked)
    vectors = []
    for combo in combos.basis:
        vec = [ZERO] * s1.ambient
        for j in range(r1):
            c = combo[j]
            if c.is_zero():
                continue
            for i in range(s1.ambient):
                vec[i] = vec[i] + c * s1.basis[j][i]
        vectors.append(tuple(vec))
    return Subspace.from_vectors(vectors, s1.ambient)


def nullspace(m: ExactMatrix) -> Subspace:
    """Kernel {x : M x = 0} as a Subspace of dimension m.cols."""
    return _kernel([m.row(i) for i in range(m.rows)], m.cols)


def _kernel(rows, width: int) -> Subspace:
    """Vectors x of length ``width`` with sum_j row[j] * x[j] = 0 for every row."""
    basis, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(width) if j not in pivot_set]
    vectors = []
    for f in free:
        vec = [ZERO] * width
        vec[f] = ONE
        for row, piv in zip(basis, pivots):
            vec[piv] = -row[f]
        vectors.append(tuple(vec))
    return Subspace.from_vectors(vectors, width)


def commutant(mats) -> Subspace:
    """Matrices X (flattened row-major, ambient N*N) with XM = MX for all inputs.

    Entry (i, j) of XM - MX is the linear form
    sum_b m[b, j] X[i, b] - sum_a m[i, a] X[a, j], so each constraint row is
    assembled from the nonzero entries of column j and row i of m only.
    Rows that come out zero constrain nothing and are left out.
    """
    mats = list(mats)
    if not mats:
        raise ExactAlgError("commutant of an empty family is the full space; pass [I]")
    n = mats[0].rows
    for m in mats:
        if m.rows != n or m.cols != n:
            raise ExactAlgError("commutant needs square matrices of one size")
    constraint_rows = []
    for m in mats:
        row_support = [[] for _ in range(n)]
        col_support = [[] for _ in range(n)]
        for flat, v in enumerate(m.entries):
            if not v.is_zero():
                r, c = divmod(flat, n)
                row_support[r].append((c, v))
                col_support[c].append((r, v))
        for i in range(n):
            for j in range(n):
                form = {i * n + b: v for b, v in col_support[j]}
                for a, v in row_support[i]:
                    pos = a * n + j
                    form[pos] = form[pos] - v if pos in form else -v
                if any(not v.is_zero() for v in form.values()):
                    row = [ZERO] * (n * n)
                    for pos, v in form.items():
                        row[pos] = v
                    constraint_rows.append(tuple(row))
    return _kernel(constraint_rows, n * n)


def flatten_matrix(m: ExactMatrix) -> tuple:
    return m.entries


def unflatten_matrix(vec, n: int) -> ExactMatrix:
    return ExactMatrix(n, n, tuple(_as_cyc(v) for v in vec))
