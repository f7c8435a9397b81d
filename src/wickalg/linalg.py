"""Exact dense linear algebra over the complex rationals.

Everything here is exact: rank, kernel, inverse, and solving are done by
fraction-free-enough Gaussian elimination on :class:`~wickalg.scalars.Scalar`
entries.  Floating point enters only through :meth:`Matrix.to_complex`, the
view consumed by the spectral routines.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from .scalars import ONE, ZERO, Scalar

__all__ = ["Matrix", "identity", "kron", "zeros"]


class Matrix:
    """A dense matrix of exact complex-rational scalars."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        self.data = [[Scalar.coerce(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def from_function(rows: int, cols: int, f: Callable[[int, int], Scalar]) -> "Matrix":
        m = Matrix.__new__(Matrix)
        m.rows, m.cols = rows, cols
        m.data = [[Scalar.coerce(f(r, c)) for c in range(cols)] for r in range(rows)]
        return m

    @staticmethod
    def column(vec: Sequence) -> "Matrix":
        return Matrix([[x] for x in vec])

    def copy(self) -> "Matrix":
        m = Matrix.__new__(Matrix)
        m.rows, m.cols = self.rows, self.cols
        m.data = [row[:] for row in self.data]
        return m

    def _same_shape(self, other: "Matrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix.from_function(
            self.rows, self.cols, lambda r, c: self.data[r][c] + other.data[r][c]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix.from_function(
            self.rows, self.cols, lambda r, c: self.data[r][c] - other.data[r][c]
        )

    def __neg__(self) -> "Matrix":
        return Matrix.from_function(self.rows, self.cols, lambda r, c: -self.data[r][c])

    def scale(self, s) -> "Matrix":
        s = Scalar.coerce(s)
        return Matrix.from_function(self.rows, self.cols, lambda r, c: s * self.data[r][c])

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} x {other.shape}")
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        bdata = other.data
        for r in range(self.rows):
            arow = self.data[r]
            orow = out[r]
            for k in range(self.cols):
                a = arow[k]
                if not a:
                    continue  # skip zero entries: operands are usually sparse
                brow = bdata[k]
                for c in range(other.cols):
                    b = brow[c]
                    if b:
                        orow[c] = orow[c] + a * b
        m = Matrix.__new__(Matrix)
        m.rows, m.cols = self.rows, other.cols
        m.data = out
        return m

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    def adjoint(self) -> "Matrix":
        return Matrix.from_function(
            self.cols, self.rows, lambda r, c: self.data[c][r].conjugate()
        )

    def transpose(self) -> "Matrix":
        return Matrix.from_function(self.cols, self.rows, lambda r, c: self.data[c][r])

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
        if self.rows != self.cols:
            return False
        for r in range(self.rows):
            for c in range(r, self.cols):
                if self.data[r][c] != self.data[c][r].conjugate():
                    return False
        return True

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        t = ZERO
        for r in range(self.rows):
            t = t + self.data[r][r]
        return t

    def diagonal(self) -> list:
        return [self.data[r][r] for r in range(min(self.rows, self.cols))]

    # -- elimination-based queries ---------------------------------------------
    def _echelon(self, augment: Optional[List[List[Scalar]]] = None):
        """Row echelon form in place on a copy; returns (rows, pivots, aug)."""
        a = [row[:] for row in self.data]
        aug = [row[:] for row in augment] if augment is not None else None
        pivots = []
        prow = 0
        for col in range(self.cols):
            sel = -1
            for r in range(prow, self.rows):
                if a[r][col]:
                    sel = r
                    break
            if sel < 0:
                continue
            if sel != prow:
                a[sel], a[prow] = a[prow], a[sel]
                if aug is not None:
                    aug[sel], aug[prow] = aug[prow], aug[sel]
            inv = ONE / a[prow][col]
            a[prow] = [inv * x for x in a[prow]]
            if aug is not None:
                aug[prow] = [inv * x for x in aug[prow]]
            for r in range(self.rows):
                if r != prow and a[r][col]:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[prow])]
                    if aug is not None:
                        aug[r] = [x - f * y for x, y in zip(aug[r], aug[prow])]
            pivots.append(col)
            prow += 1
            if prow == self.rows:
                break
        return a, pivots, aug

    def rank(self) -> int:
        _, pivots, _ = self._echelon()
        return len(pivots)

    def kernel_basis(self) -> list:
        """Basis of the right null space, as a list of column Scalar lists."""
        a, pivots, _ = self._echelon()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [ZERO] * self.cols
            v[fc] = ONE
            for prow, pcol in enumerate(pivots):
                v[pcol] = -a[prow][fc]
            basis.append(v)
        return basis

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        eye = [[ONE if r == c else ZERO for c in range(self.cols)] for r in range(self.rows)]
        a, pivots, aug = self._echelon(augment=eye)
        if len(pivots) != self.cols:
            raise ValueError("matrix is singular")
        m = Matrix.__new__(Matrix)
        m.rows = m.cols = self.cols
        m.data = aug
        return m

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
        a, pivots, aug = self._echelon(augment=rhs_col)
        for r in range(len(pivots), self.rows):
            if aug[r][0]:
                return None  # inconsistent
        if require_unique and len(pivots) != self.cols:
            raise ValueError("system is underdetermined")
        x = [ZERO] * self.cols
        for prow, pcol in enumerate(pivots):
            x[pcol] = aug[prow][0]
        return x

    # -- views -----------------------------------------------------------------
    def to_complex(self):
        """Dense complex128 numpy view of the matrix."""
        out = np.empty((self.rows, self.cols), dtype=np.complex128)
        for r, row in enumerate(self.data):
            for c, x in enumerate(row):
                out[r, c] = x.to_complex()
        return out

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def zeros(rows: int, cols: int) -> Matrix:
    m = Matrix.__new__(Matrix)
    m.rows, m.cols = rows, cols
    m.data = [[ZERO] * cols for _ in range(rows)]
    return m


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m.data[i][i] = ONE
    return m


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product a ⊗ b (row-major block layout)."""
    out = zeros(a.rows * b.rows, a.cols * b.cols)
    for ra in range(a.rows):
        arow = a.data[ra]
        for ca in range(a.cols):
            s = arow[ca]
            if not s:
                continue
            roff, coff = ra * b.rows, ca * b.cols
            for rb in range(b.rows):
                brow = b.data[rb]
                orow = out.data[roff + rb]
                for cb in range(b.cols):
                    v = brow[cb]
                    if v:
                        orow[coff + cb] = s * v
    return out
