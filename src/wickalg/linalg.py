"""Exact linear algebra over the complex rationals.

A :class:`Matrix` stores its :class:`~wickalg.scalars.Scalar` entries densely
but does arithmetic on nonzero entries only: sums and products visit the
nonzeros of the right operand, and elimination runs on ``{col: Scalar}`` row
dicts, so a pivot row reaches only the rows with an entry in its column.
A basis is a matrix of columns (:meth:`Matrix.kernel_basis`); an empty
one has 0 columns and passes through ``kron``, products, ``adjoint`` and
the 0×0 ``inverse`` like any other.  Floating point enters only through
:meth:`Matrix.to_complex`, the view consumed by the spectral routines.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .scalars import ONE, ZERO, Scalar

__all__ = ["Matrix", "identity", "kron", "zeros"]


def _sparse_rows(data) -> list:
    """Each row as a ``{col: Scalar}`` dict of its nonzeros (``ZERO`` skipped by identity)."""
    return [{c: x for c, x in enumerate(row) if x is not ZERO and x} for row in data]


def _product(arows, bnz: list, cols: int) -> list:
    """Dense rows of A·B from the rows of A and the ``_sparse_rows`` of B."""
    out = []
    for arow in arows:
        orow = [ZERO] * cols
        for a, brow in zip(arow, bnz):
            if a is not ZERO and a:
                for c, b in brow.items():
                    x = orow[c]
                    orow[c] = x + a * b if x else a * b
        out.append(orow)
    return out


def _subtract(row: dict, f: Scalar, pitems) -> None:
    """row -= f·prow in place, given the ``(col, Scalar)`` items of prow,
    dropping entries that cancel."""
    nf = -f
    for c, y in pitems:
        x = row.get(c)
        v = nf * y if x is None else x + nf * y
        if v:
            row[c] = v
        else:
            del row[c]


def _clear(a: list, p: int, col: int, rows) -> None:
    """Clear ``col`` from ``rows`` of ``a`` with the pivot row ``a[p]`` (pivot 1)."""
    for r in rows:
        f = a[r].get(col)
        if f is not None:
            _subtract(a[r], f, a[p].items())


def _hermitian_block(u: list, k: int) -> "Matrix":
    """The Hermitian matrix whose upper triangle is held by the rows ``u[k:]``
    of :meth:`Matrix.psd_rank`, with row and column k renumbered 0."""
    m = len(u) - k
    data = [[ZERO] * m for _ in range(m)]
    for r, row in enumerate(u[k:]):
        for c, x in row.items():
            data[r][c - k] = x
            data[c - k][r] = x.conjugate()
    return Matrix._of(data, m, m)


def _consistent(a: list, pivots: list) -> bool:
    """True iff the augment columns of the echelon rows ``a`` lie in the span of the rest."""
    return not any(a[len(pivots):])


class Matrix:
    """A matrix of exact complex-rational scalars, stored densely."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        self.data = [[Scalar.coerce(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def _of(data: list, rows: int, cols: int) -> "Matrix":
        """Wrap rows of Scalars without copying or coercing them."""
        m = Matrix.__new__(Matrix)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    def copy(self) -> "Matrix":
        return Matrix._of([row[:] for row in self.data], self.rows, self.cols)

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        out = [row[:] for row in self.data]
        for orow, brow in zip(out, _sparse_rows(other.data)):
            for c, y in brow.items():
                x = orow[c]
                orow[c] = (x + y or ZERO) if x else y
        return Matrix._of(out, self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return self.scale(-ONE)

    def scale(self, s) -> "Matrix":
        s = Scalar.coerce(s)
        if not s:
            return zeros(self.rows, self.cols)
        data = [[s * x if x else ZERO for x in row] for row in self.data]
        return Matrix._of(data, self.rows, self.cols)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} x {other.shape}")
        out = _product(self.data, _sparse_rows(other.data), other.cols)
        return Matrix._of(out, self.rows, other.cols)

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    def adjoint(self) -> "Matrix":
        m = self.transpose()
        m.data = [[x.conjugate() if x.im else x for x in row] for row in m.data]
        return m

    def transpose(self) -> "Matrix":
        data = [[row[c] for row in self.data] for c in range(self.cols)]
        return Matrix._of(data, self.cols, self.rows)

    # -- inspection ---------------------------------------------------------------
    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __getitem__(self, rc):
        r, c = rc
        return self.data[r][c]

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def is_hermitian(self) -> bool:
        return self.rows == self.cols and self.data == self.adjoint().data

    def diagonal(self) -> list:
        return [self.data[r][r] for r in range(min(self.rows, self.cols))]

    # -- elimination-based queries ---------------------------------------------
    def _echelon(self, augment: Optional[List[List[Scalar]]] = None):
        """Row echelon form of copies of the rows, each extended by its row
        of ``augment`` in the columns after ``self.cols``, as ``{col: Scalar}``
        dicts.  The pivot of each column is the first row at or below the
        current one with an entry there; it is scaled to 1 and the rows below
        it are cleared.  Returns (rows, pivot columns)."""
        a = _sparse_rows(self.data if augment is None else
                         [row + aug for row, aug in zip(self.data, augment)])
        pivots = []
        for col in range(self.cols):
            p = len(pivots)
            sel = next((r for r in range(p, self.rows) if col in a[r]), None)
            if sel is None:
                continue
            a[sel], a[p] = a[p], a[sel]
            inv = ONE / a[p][col]
            if inv != ONE:
                a[p] = {c: inv * x for c, x in a[p].items()}
            _clear(a, p, col, range(p + 1, self.rows))
            pivots.append(col)
        return a, pivots

    def _reduced(self, augment: Optional[List[List[Scalar]]] = None):
        """The reduced row echelon form: :meth:`_echelon`, then each pivot
        column cleared above its pivot, last pivot first."""
        a, pivots = self._echelon(augment)
        for p in range(len(pivots) - 1, 0, -1):
            _clear(a, p, pivots[p], range(p))
        return a, pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def psd_rank(self) -> tuple:
        """(is_psd, rank) of a Hermitian matrix by an LDL* elimination of its
        upper triangle, kept as ``{col: Scalar}`` rows of the columns at or
        right of the diagonal.  The diagonal pivots are taken in order and never
        scaled: a pivot d > 0 in row k updates only the upper triangle of the
        Schur complement, row j by conj(x)/d times the part of row k at or right
        of column j, x = U[k][j]; a zero diagonal with an empty row is skipped.
        A pivot d < 0, or a zero diagonal whose row is not empty (a 2×2 minor
        −|x|²), shows the matrix is not PSD; the rank of the Schur complement
        left at that point is then taken by :meth:`_echelon` on it in full."""
        if not self.is_hermitian():
            raise ValueError("psd_rank requires an exactly Hermitian matrix")
        u = [{c: x for c, x in enumerate(row[r:], r) if x is not ZERO and x}
             for r, row in enumerate(self.data)]
        rank = 0
        for k, row in enumerate(u):
            d = row.get(k)
            if d is None and not row:
                continue
            if d is None or d.re < 0:
                return False, rank + _hermitian_block(u, k).rank()
            rank += 1
            inv = ONE / d
            items = sorted(row.items())  # items[0] is the pivot (k, d)
            for i in range(1, len(items)):
                j, x = items[i]
                _subtract(u[j], x.conjugate() * inv, items[i:])
        return True, rank

    def kernel_basis(self) -> "Matrix":
        """Basis of the right null space, as the columns of a ``cols × k``
        Matrix (``k = 0`` for a trivial kernel).  Column j belongs to the j-th
        free column f of the reduced row echelon form: 1 in row f and, in the
        row of each pivot column, minus that pivot row's entry in column f."""
        a, pivots = self._reduced()
        pset = set(pivots)
        free = [c for c in range(self.cols) if c not in pset]
        data = [[ZERO] * len(free) for _ in range(self.cols)]
        for j, fc in enumerate(free):
            data[fc][j] = ONE
            for prow, pcol in enumerate(pivots):
                x = a[prow].get(fc)
                if x is not None:
                    data[pcol][j] = -x
        return Matrix._of(data, self.cols, len(free))

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.cols
        a, pivots = self._reduced(augment=identity(n).data)
        if len(pivots) != n:
            raise ValueError("matrix is singular")
        return Matrix._of([[row.get(n + c, ZERO) for c in range(n)] for row in a], n, n)

    def solve(self, rhs: Sequence) -> list:
        """Solve A x = rhs exactly; raises ValueError if inconsistent or
        underdetermined (non-unique)."""
        x = self._solve_impl(rhs, require_unique=True)
        if x is None:
            raise ValueError("system is inconsistent")
        return x

    def solve_consistent(self, rhs: Sequence) -> bool:
        """True iff A x = rhs has at least one exact solution."""
        return self._solve_impl(rhs, require_unique=False) is not None

    def solve_any(self, rhs: Sequence):
        """One exact solution of A x = rhs (free variables set to 0), or None."""
        return self._solve_impl(rhs, require_unique=False)

    def _solve_impl(self, rhs: Sequence, require_unique: bool):
        rhs_col = [[Scalar.coerce(x)] for x in rhs]
        if len(rhs_col) != self.rows:
            raise ValueError("rhs length mismatch")
        a, pivots = self._reduced(augment=rhs_col)
        if not _consistent(a, pivots):
            return None
        if require_unique and len(pivots) != self.cols:
            raise ValueError("system is underdetermined")
        x = [ZERO] * self.cols
        for prow, pcol in enumerate(pivots):
            x[pcol] = a[prow].get(self.cols, ZERO)
        return x

    # -- views -----------------------------------------------------------------
    def to_complex(self):
        """Dense complex128 numpy view of the matrix."""
        out = np.zeros((self.rows, self.cols), dtype=np.complex128)
        for r, row in enumerate(self.data):
            for c, x in enumerate(row):
                if x is not ZERO and x:
                    out[r, c] = x.to_complex()
        return out

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix._of([[ZERO] * cols for _ in range(rows)], rows, cols)


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m.data[i][i] = ONE
    return m


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product a ⊗ b (row-major block layout)."""
    out = zeros(a.rows * b.rows, a.cols * b.cols)
    bnz = _sparse_rows(b.data)
    for ra, arow in enumerate(a.data):
        orows = out.data[ra * b.rows:(ra + 1) * b.rows]
        for ca, s in enumerate(arow):
            if s:
                coff = ca * b.cols
                for orow, brow in zip(orows, bnz):
                    for cb, v in brow.items():
                        orow[coff + cb] = s * v
    return out
