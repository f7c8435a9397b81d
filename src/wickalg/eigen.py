"""Hermitian eigenvalues via parallel Jacobi rotations.

The spectral routines in this package never call an external eigensolver;
this module holds their one complex-Hermitian Jacobi kernel.  A sweep visits
the connected components of the matrix's support in round-robin rounds of
disjoint pairs (Brent and Luk, SIAM J. Sci. Stat. Comput. 6, 1985), and each
round is rotated in one numpy step.  When the sweeps run out before the
off-diagonal part is negligible, ``eigvalsh`` raises ``ArithmeticError``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["eigvalsh", "singular_values", "operator_norm", "USING_NUMBA"]

_MAX_SWEEPS = 60


def _round_robin(a: np.ndarray) -> list:
    """The rounds of one parallel Jacobi sweep as ``(P, Q)`` index arrays: round
    r joins round r of the circle-method pairing of each connected component
    of the support of ``a`` (union-find over its upper triangle)."""
    blocks = {i: [i] for i in range(a.shape[0])}  # root -> members
    root = list(range(a.shape[0]))
    for i, j in np.argwhere(np.triu(a, 1)).tolist():
        if root[i] != root[j]:
            moved = blocks.pop(root[j])
            blocks[root[i]] += moved
            for k in moved:
                root[k] = root[i]
    rounds = {}
    for block in blocks.values():
        block += [None] * (len(block) % 2)  # an odd block leaves one index out a round
        for r in range(len(block) - 1):
            pairs = zip(block[:len(block) // 2], block[::-1])
            rounds.setdefault(r, []).extend(pq for pq in pairs if None not in pq)
            block.insert(1, block.pop())
    return [tuple(map(np.array, zip(*pairs))) for pairs in rounds.values() if pairs]


def _jacobi_kernel(a: np.ndarray, max_sweeps: int) -> np.ndarray:
    """Diagonalize the Hermitian complex matrix ``a`` in place, rotating the
    disjoint pairs of each round at once; returns the unsorted real diagonal.
    Raises ``ArithmeticError`` when ``max_sweeps`` sweeps leave the
    off-diagonal mass above the stop level.  Masses are taken in units of
    max|a|, so that squaring an entry as large as 1e300 cannot overflow."""
    unit = float(np.max(np.abs(a))) or 1.0
    stop = 1e-28 * (float(np.sum((np.abs(a) / unit) ** 2)) + 1.0 / unit / unit)
    pair_stop = unit * (stop ** 0.5 / a.shape[0])  # |a[p, q]| at or below it is left alone
    for sweep in range(max_sweeps + 1):
        off = float(np.sum((np.abs(np.triu(a, 1)) / unit) ** 2))
        if off <= stop:
            break
        if sweep == max_sweeps:
            raise ArithmeticError(
                f"Jacobi did not converge in {max_sweeps} sweeps "
                f"(off-diagonal norm {unit * off ** 0.5:.3g})"
            )
        if not sweep:  # a diagonal input needs no schedule
            rounds = _round_robin(a)
        for p, q in rounds:
            absg = np.abs(a[p, q])
            live = absg > pair_stop
            if not np.count_nonzero(live):
                continue
            p, q, absg = p[live], q[live], absg[live]
            phase = a[p, q] / absg
            tau = (a[q, q].real - a[p, p].real) / (2.0 * absg)
            t = np.copysign(1.0 / (np.abs(tau) + np.sqrt(tau * tau + 1.0)), tau)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            rp, rq = a[p, :], a[q, :]
            a[p, :] = c[:, None] * rp - (s * phase)[:, None] * rq
            a[q, :] = s[:, None] * rp + (c * phase)[:, None] * rq
            cp, cq = a[:, p], a[:, q]
            a[:, p] = c * cp - s * np.conj(phase) * cq
            a[:, q] = s * cp + c * np.conj(phase) * cq
    return np.real(np.diagonal(a)).copy()


# The Jacobi kernel is never JIT-compiled; kept because benchmark reports read it.
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
