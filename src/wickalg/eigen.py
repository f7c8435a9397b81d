"""Hermitian eigenvalues via cyclic Jacobi rotations.

The spectral routines in this package never call an external eigensolver;
this module holds the one complex-Hermitian Jacobi kernel they use,
vectorised with numpy.  When the sweeps run out before the off-diagonal
part is negligible, ``eigvalsh`` raises ``ArithmeticError`` rather than
return an unconverged diagonal.
"""

from __future__ import annotations

import numpy as np

__all__ = ["eigvalsh", "singular_values", "operator_norm", "USING_NUMBA"]

_MAX_SWEEPS = 60


def _jacobi_kernel(a: np.ndarray, max_sweeps: int) -> np.ndarray:
    """Diagonalize the Hermitian complex matrix ``a`` in place by cyclic
    Jacobi sweeps (rows and columns rotated as numpy slices); returns the
    unsorted real diagonal.  Raises ``ArithmeticError`` when ``max_sweeps``
    sweeps leave the off-diagonal mass above the stop level."""
    n = a.shape[0]
    stop = 1e-28 * (float(np.sum(np.abs(a) ** 2)) + 1.0)
    pair_stop = stop / (n * n)
    for sweep in range(max_sweeps + 1):
        off = float(np.sum(np.abs(np.triu(a, 1)) ** 2))
        if off <= stop:
            break
        if sweep == max_sweeps:
            raise ArithmeticError(
                f"Jacobi did not converge in {max_sweeps} sweeps "
                f"(off-diagonal norm {off ** 0.5:.3g})"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = a[p, q]
                absg = abs(g)
                if absg * absg <= pair_stop:
                    continue
                phase = g / absg
                tau = (a[q, q].real - a[p, p].real) / (2.0 * absg)
                t = 1.0 / (abs(tau) + np.sqrt(tau * tau + 1.0))
                if tau < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :]
                a[p, :] = c * rp - s * phase * rq
                a[q, :] = s * rp + c * phase * rq
                cp = a[:, p].copy()
                cq = a[:, q]
                a[:, p] = c * cp - s * np.conj(phase) * cq
                a[:, q] = s * cp + c * np.conj(phase) * cq
    return np.real(np.diagonal(a)).copy()


# The Jacobi kernel is never JIT-compiled; kept because benchmark reports read it.
USING_NUMBA = False


def _as_complex_array(mat) -> np.ndarray:
    if hasattr(mat, "to_complex"):
        return mat.to_complex()
    return np.asarray(mat, dtype=np.complex128)


def eigvalsh(mat) -> np.ndarray:
    """Eigenvalues (ascending, real) of a Hermitian matrix.

    Accepts an exact :class:`~wickalg.linalg.Matrix` or any array-like.
    """
    a = _as_complex_array(mat).copy()
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if a.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    herm_defect = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    scale = max(1.0, float(np.max(np.abs(a))))
    if herm_defect > 1e-9 * scale:
        raise ValueError("matrix is not Hermitian")
    a = (a + a.conj().T) / 2.0
    diag = _jacobi_kernel(a, _MAX_SWEEPS)
    return np.sort(diag)


def singular_values(mat) -> np.ndarray:
    """Singular values (descending) via the eigenvalues of A†A."""
    a = _as_complex_array(mat)
    gram = a.conj().T @ a
    ev = eigvalsh(gram)
    ev = np.clip(ev, 0.0, None)
    return np.sqrt(ev)[::-1]


def operator_norm(mat) -> float:
    """Largest singular value."""
    sv = singular_values(mat)
    return float(sv[0]) if sv.size else 0.0
