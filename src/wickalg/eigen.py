"""Hermitian eigenvalues one support component at a time.

The spectral routines in this package never call an external eigensolver;
this module holds their one kernel.  It splits the matrix into the connected
components of its support.  A 1×1 component is its own eigenvalue and a 2×2
one has a closed form.  A larger block is reduced to a real symmetric
tridiagonal matrix by Householder reflections, whose eigenvalues come from
implicit-shift QL (Wilkinson and Reinsch, *Handbook for Automatic
Computation II*, 1971: the scheme of LAPACK's ``zhetrd`` and ``dsterf``).
When QL runs out of iterations on an eigenvalue, ``eigvalsh`` raises
``ArithmeticError``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["eigvalsh", "singular_values", "operator_norm", "USING_NUMBA"]

_MAX_QL_ITERATIONS = 30  # implicit QL steps allowed per eigenvalue
_EPS = float(np.finfo(np.float64).eps)


def _components(a: np.ndarray) -> list:
    """The connected components of the support of ``a`` as sorted index lists
    (union-find over its upper triangle)."""
    blocks = {i: [i] for i in range(a.shape[0])}  # root -> members
    root = list(range(a.shape[0]))
    rows, cols = np.nonzero(a)
    upper = rows < cols
    for i, j in zip(rows[upper].tolist(), cols[upper].tolist()):
        if root[i] != root[j]:
            moved = blocks.pop(root[j])
            blocks[root[i]] += moved
            for k in moved:
                root[k] = root[i]
    return [sorted(block) for block in blocks.values()]


def _tridiagonal(a: np.ndarray) -> tuple:
    """Diagonal and off-diagonal (as float lists) of a real symmetric
    tridiagonal matrix unitarily similar to the Hermitian ``a`` (b ≥ 3), whose
    entries are at most 1 in modulus.  Step k reflects column k below the
    subdiagonal onto it; the off-diagonal keeps the moduli, which a diagonal
    unitary similarity leaves the spectrum of."""
    a = a.copy()
    b = a.shape[0]
    off = []
    for k in range(b - 2):
        x = a[k + 1:, k]
        norm = math.sqrt(float(np.vdot(x, x).real))
        off.append(norm)
        alpha = x[0]
        h = norm * (norm + abs(alpha))  # v*v / 2 for v = x + phase(alpha)·|x|·e1
        if not h or not x[1:].any():  # already tridiagonal in this column
            continue
        v = x.copy()
        v[0] += norm * (alpha / abs(alpha) if alpha else 1.0)
        rest = a[k + 1:, k + 1:]
        p = rest @ v / h
        w = p - (float(np.vdot(v, p).real) / (2.0 * h)) * v
        rest -= np.outer(v, w.conj())
        rest -= np.outer(w, v.conj())
    off.append(abs(a.item(b - 1, b - 2)))
    return np.real(np.diagonal(a)).tolist(), off


def _ql(d: list, e: list) -> list:
    """Eigenvalues (unsorted) of the symmetric tridiagonal matrix with
    diagonal ``d`` and off-diagonal ``e``, by implicit QL with Wilkinson
    shifts, in place on plain floats.  Raises ``ArithmeticError`` when an
    eigenvalue takes more than ``_MAX_QL_ITERATIONS`` steps."""
    n = len(d)
    e = e + [0.0]
    hypot, eps = math.hypot, _EPS
    for l in range(n):
        for it in range(_MAX_QL_ITERATIONS + 1):
            m = l
            while m < n - 1 and abs(e[m]) > eps * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if it == _MAX_QL_ITERATIONS:
                raise ArithmeticError(
                    f"implicit QL did not converge in {_MAX_QL_ITERATIONS} iterations "
                    f"on eigenvalue {l + 1} of {n}"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = hypot(f, g)
                e[i + 1] = r
                if not r:  # the chase split the block: deflate and search again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


def _block_eigenvalues(a: np.ndarray, block: list) -> list:
    """Eigenvalues of the Hermitian block of ``a`` on the indices ``block``.
    A larger block is taken in units of the power of two just above its
    max|a| so that no norm or square overflows."""
    if len(block) == 1:
        return [a.item(block[0], block[0]).real]
    if len(block) == 2:
        i, j = block
        x, z, y = a.item(i, i).real, a.item(j, j).real, abs(a.item(i, j))
        m, r = x / 2 + z / 2, math.hypot(x / 2 - z / 2, y)
        return [m - r, m + r]
    b = a[np.ix_(block, block)]
    unit = math.ldexp(1.0, math.frexp(float(np.max(np.abs(b))))[1])
    return [unit * ev for ev in _ql(*_tridiagonal(b / unit))]


# No kernel here is JIT-compiled; kept because benchmark reports read it.
USING_NUMBA = False


def _as_complex_array(mat) -> np.ndarray:
    """The float view of ``mat``; an inf or nan entry raises ``ValueError``."""
    a = mat.to_complex() if hasattr(mat, "to_complex") else np.asarray(mat, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def eigvalsh(mat) -> np.ndarray:
    """Eigenvalues (ascending, real) of a Hermitian matrix.

    Accepts an exact :class:`~wickalg.linalg.Matrix` or any array-like; a
    non-square, non-Hermitian or non-finite one raises ``ValueError``.
    """
    a = _as_complex_array(mat)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if a.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    herm_defect = np.max(np.abs(a - a.conj().T))
    scale = max(1.0, float(np.max(np.abs(a))))
    if herm_defect > 1e-9 * scale:
        raise ValueError("matrix is not Hermitian")
    a = (a + a.conj().T) / 2.0
    if not a.imag.any():
        a = a.real
    ev = []
    for block in _components(a):
        ev += _block_eigenvalues(a, block)
    return np.sort(np.array(ev))


def singular_values(mat) -> np.ndarray:
    """Singular values (descending) via the eigenvalues of A†A, with A taken
    in units of max|a| so that forming A†A neither overflows nor underflows
    at that scale."""
    a = _as_complex_array(mat)
    unit = float(np.max(np.abs(a), initial=0.0)) or 1.0
    a = a / unit
    ev = eigvalsh(a.conj().T @ a)
    return unit * np.sqrt(np.clip(ev, 0.0, None))[::-1]


def operator_norm(mat) -> float:
    """Largest singular value."""
    sv = singular_values(mat)
    return float(sv[0]) if sv.size else 0.0
