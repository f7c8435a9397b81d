"""Hermitian eigenvalues through LAPACK.

The spectral routines in this package take their floats from one kernel,
numpy's ``linalg.eigvalsh``: LAPACK's ``dsyevd`` for a real input and
``zheevd`` for a complex one (Anderson et al., *LAPACK Users' Guide*, SIAM
1999).  :func:`eigvalsh` checks its input, symmetrises it and hands a matrix
with no imaginary part to LAPACK as real; when LAPACK reports that it did
not converge, it raises ``ArithmeticError``.  A caller holding an exact
matrix already proved exactly Hermitian may skip the Hermitian check and the
symmetrisation, which change nothing on its float view (each part of an
entry is rounded on its own, so the view is exactly mirrored, and (a + a*)/2
of it is a): it hands the view (``_as_array`` of a Matrix, or
:func:`~wickalg.linalg._float_view` of integer rows) to ``_lapack_eigvalsh``.

numpy is imported inside these routines, not when the package loads: the exact
paths never make a float, so ``import wickalg`` and every subcommand but
``positivity`` run without it, and the first float view of a process pays its
import (later calls find it in ``sys.modules``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["eigvalsh", "singular_values", "operator_norm", "USING_NUMBA"]

# No kernel here is JIT-compiled; kept because benchmark reports read it.
USING_NUMBA = False


def _as_array(mat) -> np.ndarray:
    """The float view of ``mat`` (float64 for a real Matrix, else complex128);
    an inf or nan entry raises ``ValueError``."""
    import numpy as np

    a = mat.to_complex() if hasattr(mat, "to_complex") else np.asarray(mat, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _lapack_eigvalsh(a: np.ndarray) -> np.ndarray:
    """LAPACK's ascending eigenvalues of a finite Hermitian array, taken as
    real when it has no imaginary part; ``ArithmeticError`` when LAPACK
    does not converge."""
    import numpy as np

    if a.dtype.kind == "c" and not a.imag.any():
        a = a.real
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        n = a.shape[0]
        raise ArithmeticError(f"LAPACK eigvalsh did not converge on a {n}x{n} matrix") from exc


def eigvalsh(mat) -> np.ndarray:
    """Eigenvalues (ascending, real) of a Hermitian matrix.

    Accepts an exact :class:`~wickalg.linalg.Matrix` or any array-like; a
    non-square, non-Hermitian or non-finite one raises ``ValueError``, and
    one on which LAPACK does not converge raises ``ArithmeticError``.
    """
    import numpy as np

    a = _as_array(mat)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if a.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    herm_defect = np.max(np.abs(a - a.conj().T))
    scale = max(1.0, float(np.max(np.abs(a))))
    if herm_defect > 1e-9 * scale:
        raise ValueError("matrix is not Hermitian")
    return _lapack_eigvalsh((a + a.conj().T) / 2.0)


def singular_values(mat) -> np.ndarray:
    """Singular values (descending) via the eigenvalues of A†A, with A taken
    in units of max|a| so that forming A†A neither overflows nor underflows
    at that scale."""
    import numpy as np

    a = _as_array(mat)
    unit = float(np.max(np.abs(a), initial=0.0)) or 1.0
    a = a / unit
    ev = eigvalsh(a.conj().T @ a)
    return unit * np.sqrt(np.clip(ev, 0.0, None))[::-1]


def operator_norm(mat) -> float:
    """Largest singular value."""
    sv = singular_values(mat)
    return float(sv[0]) if sv.size else 0.0
