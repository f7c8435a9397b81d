"""Exact linear algebra over the complex rationals.

A :class:`Matrix` stores its :class:`~wickalg.scalars.Scalar` entries densely
but does arithmetic on nonzero entries only: sums and products visit the
nonzeros of the right operand.  Below it the one sparse form is ``(rows, den)``:
``{col: numerator}`` dicts of ints or Gaussian integers over one int den > 0.
Only this module knows how a Matrix is stored: every other module goes from a
Matrix to its rows by :func:`_to_rows`, once per query, and from rows over one
den, or one den per row, to a Matrix by :func:`_from_rows`.  A query that
reads each row only up to scale puts each row over its own lcm (:func:`_each_scaled`).
Every elimination runs through one row update (:func:`_update`) that never
scales a pivot, so a pivot row reaches only the rows with an entry in its
column.  The echelon form reads each row up to scale, and a Scalar is made
only at output.  Every exact solve (a null space, an inverse, a solution) is
one forward :func:`_echelon` and one back substitution :func:`_back` of all
its solution columns over one denominator; the Hermitian LDL*
:func:`_psd_rank` keeps one denominator per row.  A basis is a matrix of columns
(:meth:`Matrix.kernel_basis`); an empty one has 0 columns and passes through
``kron``, products, ``adjoint`` and the 0×0 ``inverse`` like any other.
Floating point enters only through :func:`_float_view`, the view consumed by
the spectral routines and by :func:`_certify_pd`, whose float Cholesky proposes a
proof of positive definiteness that :func:`_pd_check` accepts or not in integers;
numpy is imported on the first such call, so exact work never loads it.
"""

from __future__ import annotations

from math import ceil, floor, frexp, gcd, lcm, log2
from typing import Sequence

from .scalars import ONE, ZERO, Scalar, _content, _denominator, _numerator, _over, _quotient

__all__ = ["Matrix", "identity", "kron", "zeros"]


def _sparse_rows(data) -> list:
    """Each row as a ``{col: Scalar}`` dict of its nonzeros (``ZERO`` skipped by identity)."""
    return [{c: x for c, x in enumerate(row) if x is not ZERO and x} for row in data]


def _to_rows(m: "Matrix") -> tuple:
    """(the ``{col: numerator}`` rows of m, den): each nonzero entry times den, the lcm
    of all their denominators (:func:`~wickalg.scalars._numerator`)."""
    rows = _sparse_rows(m.data)
    den = _denominator(x for row in rows for x in row.values())
    return [{c: _numerator(x, den) for c, x in row.items()} for row in rows], den


def _from_rows(rows: list, cols: int, den) -> "Matrix":
    """The Matrix of the ``{col: numerator}`` rows over den, an int > 0 or a list of one
    per row: each nonzero made once by :func:`~wickalg.scalars._over`."""
    dens = den if type(den) is list else [den] * len(rows)
    out = [[ZERO] * cols for _ in rows]
    for orow, row, d in zip(out, rows, dens):
        for c, x in row.items():
            orow[c] = _over(x, d)
    return Matrix._of(out, len(rows), cols)


def _each_scaled(rows) -> list:
    """The ``{col: numerator}`` rows of ``{col: Scalar}`` rows, each over the lcm of
    its own denominators (:func:`_to_rows` of that row alone): for an elimination,
    which reads each row only up to scale, so that no row carries another's denominators."""
    out = []
    for row in rows:
        den = _denominator(row.values())
        out.append({c: _numerator(x, den) for c, x in row.items()})
    return out


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


def _sparse_product(arows, brows) -> list:
    """The ``{col: numerator}`` rows of A·B from those of A and B, entries that cancel dropped."""
    out = []
    for arow in arows:
        orow = {}
        for k, a in arow.items():
            for c, b in brows[k].items():
                x = orow.get(c)
                orow[c] = a * b if x is None else x + a * b
        out.append({c: x for c, x in orow.items() if x})
    return out


def _shifted(rows: list, s) -> list:
    """The ``{col: numerator}`` rows of X + s·I from those of a square X, no zero kept."""
    out = [dict(row) for row in rows]
    for r, row in enumerate(out):
        row[r] = row.get(r, 0) + s
        if not row[r]:
            del row[r]
    return out


def _update(row: dict, a, b, pitems, den: int = 0) -> int:
    """The one row update of every elimination, in place, on ints or Gaussian
    integers: row ← a·row − b·prow and den ← a·den (a an int if den ≠ 0), a and b
    over their integer content and prow given by its ``(col, value)`` items,
    then row and den over the gcd of den and the row's values.  Returns den."""
    g = _content(0, (a, b))
    if g > 1:
        a, b = _quotient(a, g), _quotient(b, g)
    if a != 1:
        for c, v in row.items():
            row[c] = a * v
        den = a * den if den else 0
    nb = -b
    for c, y in pitems:
        x = row.get(c)
        v = nb * y if x is None else x + nb * y
        if v:
            row[c] = v
        else:
            del row[c]
    g = _content(den, row.values())
    if g > 1:
        for c, x in row.items():
            row[c] = x // g if type(x) is int else _quotient(x, g)
        den //= g
    return den


def _echelon(a: list, cols: int):
    """Row echelon form, in place, of the integer rows ``a`` (ints or Gaussian integers,
    each read up to scale) on the columns ``0 … cols−1``; augment columns ``≥ cols`` ride
    along unpivoted.  The pivot of each column is the first row at or below the current one
    with an entry there, and a row below it with x there becomes piv·row − x·prow
    (:func:`_update`).  Returns (rows, pivot columns); the augment columns lie in the span
    of the rest iff no row past the pivots keeps one."""
    pivots = []
    for col in range(cols):
        p = len(pivots)
        sel = next((r for r in range(p, len(a)) if col in a[r]), None)
        if sel is None:
            continue
        a[sel], a[p] = a[p], a[sel]
        piv, pitems = a[p][col], a[p].items()
        for r in range(p + 1, len(a)):
            x = a[r].get(col)
            if x is not None:
                _update(a[r], piv, x, pitems)
        pivots.append(col)
    return a, pivots


def _reciprocal(piv) -> tuple:
    """(m, r) with 1/piv = m/r, r > 0: (±1, |piv|) for an int, (conj(piv), |piv|²) otherwise."""
    if type(piv) is int:
        return (1, piv) if piv > 0 else (-1, -piv)
    return piv.conjugate(), piv.re._numerator ** 2 + piv.im._numerator ** 2


def _back(a: list, pivots: list, xs: list) -> int:
    """The one back substitution, in place, of all solution columns j through the :func:`_echelon`
    rows ``a`` and ``pivots``: ``xs[c]`` is ``{j: numerator}``, the nonzero values of variable c
    over one int D, given (D = 1) at the columns no pivot takes and empty at the pivots.  Last
    pivot row first, row p's pivot variable is −Σ_c a_pc·X_c over D·piv, i.e. −Σ_c a_pc·X_c·m
    over D·s with 1/piv = m/s (:func:`_reciprocal`), both over their content; D grows to its
    lcm with that denominator, every X scaled with it.  Returns D."""
    den = 1
    for p in range(len(pivots) - 1, -1, -1):
        row, t = a[p], {}
        for c, v in row.items():  # the pivot's own X is still empty
            x = xs[c]
            if x:
                for j, y in x.items():
                    y = t.get(j, 0) + v * y
                    if y:
                        t[j] = y
                    else:
                        del t[j]
        if not t:
            continue
        m, s = _reciprocal(row[pivots[p]])
        if type(m) is not int:
            t, m = {j: y * m for j, y in t.items()}, 1
        s *= den
        g = _content(s, t.values())
        if g > 1:
            t, s = {j: _quotient(y, g) for j, y in t.items()}, s // g
        f = s // gcd(den, s)
        if f > 1:
            for x in xs:
                for j in x:
                    x[j] *= f
            den *= f
        k = -m * (den // s)
        xs[pivots[p]] = {j: y * k for j, y in t.items()}
    return den


def _kernel(rows: list, cols: int):
    """(the ``{j: numerator}`` rows of a ``cols × k`` null space basis, den, k) of the
    integer rows (consumed): :func:`_back` through their :func:`_echelon` from a 1 in
    column j at the j-th free column, so column j is 1 there and 0 at the other free columns."""
    a, pivots = _echelon(rows, cols)
    xs = [{} for _ in range(cols)]
    for j, f in enumerate(sorted(set(range(cols)).difference(pivots))):
        xs[f] = {j: 1}
    return xs, _back(a, pivots, xs), cols - len(pivots)


def _solve(rows: list, cols: int):
    """(x, unique) for A x = b, from the integer rows (consumed) of [A | b], b in column
    ``cols``: :func:`_back` through their :func:`_echelon` from −1 at b, so x has every free
    variable 0; x is None if the system is inconsistent, and unique is whether no variable is free."""
    a, pivots = _echelon(rows, cols)
    if any(a[len(pivots):]):
        return None, len(pivots) == cols
    xs = [{} for _ in range(cols)] + [{0: -1}]
    den = _back(a, pivots, xs)
    return [_over(x[0], den) if x else ZERO for x in xs[:cols]], len(pivots) == cols


def _psd_rank(rows, den: int) -> tuple:
    """(is_psd, rank) of Hermitian ``{col: numerator}`` rows over the int den > 0 (ints, or
    Gaussian-integer Scalars for complex entries) by an LDL* elimination of their upper
    triangle: row j of ``u`` holds the entries at or right of the diagonal over ``dens[j]``,
    den over its gcd with them.  The diagonal pivots are taken in order and never scaled.
    A pivot N_k[k] > 0 updates only the rows it reaches, x = N_k[j] ≠ 0, by :func:`_update`:
    N_j ← a·N_j − b·N_k[j:] and d_j ← a·d_j, with a = N_k[k]·d_k and
    b = d_j·conj(x) over their content, then the row over the gcd of d_j and
    its numerators.  A zero diagonal with an empty row is skipped.  A pivot
    < 0, or a zero diagonal whose row is not empty (a 2×2 minor −|x|²), shows
    the matrix is not PSD; the rank of the Schur complement left at that point
    is then taken by :func:`_echelon` on its full rows over lcm(dens[k:]),
    each upper-triangle entry mirrored by its conjugate."""
    u = [{c: x for c, x in row.items() if c >= r} for r, row in enumerate(rows)]
    rank, dens = 0, [_update(upper, 1, 0, (), den) for upper in u]
    for k, row in enumerate(u):
        p = row.get(k)
        if p is None and not row:
            continue
        if type(p) is Scalar:  # a Gaussian integer, real on the diagonal
            p = p.re._numerator
        if p is None or p < 0:
            den = lcm(*dens[k:])
            rows = [{} for _ in range(len(u) - k)]
            for r, (urow, d) in enumerate(zip(u[k:], dens[k:])):
                for c, x in urow.items():
                    rows[r][c - k] = x = den // d * x
                    rows[c - k][r] = x.conjugate()
            return False, rank + len(_echelon(rows, len(rows))[1])
        rank += 1
        pd = p * dens[k]
        items = sorted(row.items())  # items[0] is the pivot (k, p)
        for i in range(1, len(items)):
            j, x = items[i]
            dens[j] = _update(u[j], pd, dens[j] * x.conjugate(), items[i:], dens[j])
    return True, rank


def _hermitian(rows) -> bool:
    """Whether each nonzero of the ``{col: numerator}`` rows of a square matrix
    (ints or Gaussian integers) has a mirror equal to its conjugate."""
    for r, row in enumerate(rows):
        for c, x in row.items():
            if rows[c].get(r, 0) != (x if type(x) is int else x.conjugate()):
                return False
    return True


def _psd_rank_over(rows, den: int) -> tuple:
    """:func:`_psd_rank` of the ``{col: numerator}`` rows over the int den > 0, proved Hermitian first."""
    if not _hermitian(rows):
        raise ValueError("psd_rank requires an exactly Hermitian matrix")
    return _psd_rank(rows, den)


def _certify_pd(rows, den: int, a, lam_min: float) -> bool:
    """Whether the real symmetric ``{col: numerator}`` rows over den are proved positive definite by
    Rump's certificate (BIT 46, 2006) from a, their float view (consumed), and lam_min, its least eigenvalue:
    a blocked float Cholesky LLᵀ of a − cI, c = 2^e ≤ lam_min/2, in place, and :func:`_pd_check` of rint(L·2^s),
    s = log2(n·√max|a|/c) − 2 (2 bits past the least that passed on the catalog levels), 4^s·max|a| < 2^60."""
    import numpy as np

    if a.dtype.kind == "c" or not lam_min > 0:
        return False
    n, e, top = len(a), floor(log2(lam_min)) - 1, log2(max(a.max(), -a.min()))
    s = max(0, min(ceil(log2(n) + top / 2) - e - 2, floor((60 - top) / 2)))
    a.flat[::n + 1] -= 2.0**e
    try:
        for j in range(0, n, 256):
            J, K = slice(j, j + 256), slice(j + 256, None)
            a[j:, J] -= a[j:, :j] @ a[J, :j].T
            a[J, J] = np.linalg.cholesky(a[J, J])
            if j + 256 < n:
                a[K, J], a[J, K] = np.linalg.solve(a[J, J], a[K, J].T).T, 0
    except np.linalg.LinAlgError:
        return False
    a *= 2.0**s
    return _pd_check(rows, den, np.rint(a, out=a), s)


def _pd_check(rows, den: int, l, s: int) -> bool:
    """Whether l, a float64 array of integers, proves P = N/D of the real symmetric ``{col: numerator}`` rows
    over den positive definite: diag(l) > 0 and, with G = l·lᵀ and R = ⌊2^{2s}·N/D⌋ on the nonzeros of N, each
    row of M = R − G has M_ii > Σ_{j≠i} (|M_ij| + [N_ij ≠ 0]); then 2^{2s}·P − l·lᵀ is strictly diagonally
    dominant.  G is exact by rows of 256: a float product's partial sums stay below ‖x_i‖·‖y_j‖ < 2^52 while
    max ‖l_i‖² < 2^52; up to 2^61 a block is split into limbs h·2^b + lo, 0 ≤ lo < 2^b, summed in int64."""
    import numpy as np

    n, big = len(rows), float(np.einsum("ij,ij->i", l, l).max(initial=0.0))
    if not (big < 2.0**61 and (l.diagonal() > 0).all()):
        return False
    b = max(0, frexp(big)[1] - 51)
    for i in range(0, n, 256):
        blk, x = rows[i:i + 256], l[i:i + 256]
        m, lo = np.zeros((len(blk), n), np.int64), np.mod(x, 2.0**b)
        try:  # R, refused past 2^61 or with a Gaussian integer
            m.ravel()[[r * n + c for r, row in enumerate(blk) for c in row]] = [
                (v << 2 * s) // den for row in blk for v in row.values()]
        except (TypeError, OverflowError):
            return False
        if np.abs(m).max() >> 61:
            return False
        for sh, y in ((b, (x - lo) / 2.0**b), (0, lo)) if b else ((0, x),):
            m -= (y @ l.T).astype(np.int64) << sh  # wraps, but |R − G| < 2^62 comes out exact
        ab, diag = np.abs(m), m.diagonal(i)
        if int(ab.max()) >> (62 - n.bit_length()) or not (  # row sums below 2^62
                diag > ab.sum(axis=1) - abs(diag) + [len(row) - (i + r in row) for r, row in enumerate(blk)]).all():
            return False
    return True


def _float_view(rows, shape: tuple, den: int):
    """The numpy array of the ``{col: numerator}`` rows (ints or Gaussian
    integers) over the int den > 0: each part its exact ratio rounded once by
    int / int; float64 unless an entry has a nonzero imaginary part."""
    import numpy as np

    vals = np.array([x / den if type(x) is int
                     else complex(x.re._numerator / den, x.im._numerator / den) if x.im._numerator
                     else x.re._numerator / den
                     for row in rows for x in row.values()])
    a = np.zeros(shape[0] * shape[1], vals.dtype)
    a[[r * shape[1] + c for r, row in enumerate(rows) for c in row]] = vals
    return a.reshape(shape)


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
        """Square, each nonzero the conjugate of its mirror (:func:`_hermitian` of its numerators)."""
        return self.rows == self.cols and _hermitian(_to_rows(self)[0])

    # -- elimination-based queries ---------------------------------------------
    def rank(self) -> int:
        return len(_echelon(_each_scaled(_sparse_rows(self.data)), self.cols)[1])

    def psd_rank(self) -> tuple:
        """(is_psd, rank) of a Hermitian matrix: :func:`_psd_rank_over` of its :func:`_to_rows`."""
        if self.rows != self.cols:
            raise ValueError("psd_rank requires an exactly Hermitian matrix")
        return _psd_rank_over(*_to_rows(self))

    def kernel_basis(self) -> "Matrix":
        """Basis of the right null space, as the columns of a ``cols × k``
        Matrix (``k = 0`` for a trivial kernel): :func:`_from_rows` of :func:`_kernel`."""
        rows, den, k = _kernel(_each_scaled(_sparse_rows(self.data)), self.cols)
        return _from_rows(rows, k, den)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.cols
        # Each row of [A | I] over its own lcm; [A | I]·(x, −e_c) = 0 puts column c of A⁻¹ in x
        a, pivots = _echelon(_each_scaled([{**row, n + r: ONE}
                                           for r, row in enumerate(_sparse_rows(self.data))]), n)
        if len(pivots) != n:
            raise ValueError("matrix is singular")
        xs = [{} for _ in range(n)] + [{c: -1} for c in range(n)]
        den = _back(a, pivots, xs)
        return _from_rows(xs[:n], n, den)

    def solve(self, rhs: Sequence) -> list:
        """Solve A x = rhs exactly (:func:`_solve`); raises ValueError if
        inconsistent or underdetermined (non-unique)."""
        x, unique = _solve(self._augmented(rhs), self.cols)
        if x is None or not unique:
            raise ValueError(f"system is {'inconsistent' if x is None else 'underdetermined'}")
        return x

    def solve_consistent(self, rhs: Sequence) -> bool:
        """True iff A x = rhs has at least one exact solution."""
        return self.solve_any(rhs) is not None

    def solve_any(self, rhs: Sequence):
        """One exact solution of A x = rhs, every free variable 0 (:func:`_solve`), or None."""
        return _solve(self._augmented(rhs), self.cols)[0]

    def _augmented(self, rhs: Sequence) -> list:
        rhs = [Scalar.coerce(x) for x in rhs]
        if len(rhs) != self.rows:
            raise ValueError("rhs length mismatch")
        return _each_scaled(_sparse_rows([row + [x] for row, x in zip(self.data, rhs)]))

    # -- views -----------------------------------------------------------------
    def to_complex(self):
        """Dense numpy view of the matrix (:func:`_float_view` of its :func:`_to_rows`)."""
        rows, den = _to_rows(self)
        return _float_view(rows, self.shape, den)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix._of([[ZERO] * cols for _ in range(rows)], rows, cols)


def identity(n: int) -> Matrix:
    return _from_rows([{i: 1} for i in range(n)], n, 1)


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
