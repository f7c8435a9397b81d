"""Twisted derivatives and twists, constant-coefficient differential-form
dimensions, and the differential *-algebra existence predicate."""

from __future__ import annotations

from .algebra import CoeffTensor, Polynomial
from .linalg import Matrix, identity, kron
from .rewrite import rewriter_for
from .tensorops import DEFAULT_DIM_CAP, _check_cap, braid_check, embed, t_matrix

__all__ = [
    "d_and_twist",
    "form_space_dim",
    "wick_diff_star_algebra_exists",
]


def d_and_twist(f: Polynomial, T: CoeffTensor) -> dict:
    """Twisted derivatives D_i(f) and twists Θ_i^ℓ(f) of a generator-only f,
    defined by moving an annihilator through f:

        a_i†·f = D_i(f) + Σ_ℓ Θ_i^ℓ(f)·a_ℓ†.

    So D_i is the Fock annihilator, and by the Wick relation

        D_i(1) = 0,  Θ_i^ℓ(1) = δ_iℓ·1,
        D_i(x_j f') = δ_ij·f' + Σ_ℓ Θ_i^ℓ(x_j)·D_ℓ(f'),
        Θ_i^ℓ(x_j f') = Σ_k Θ_i^k(x_j)·Θ_k^ℓ(f'),
        Θ_i^ℓ(x_j) = Σ_k T_{ij}^{ℓk}·x_k.

    Returns {"D": [d polynomials], "Theta": d×d nested list of polynomials};
    all generator-only.
    """
    d = T.d
    rw = rewriter_for(T)
    zero = Polynomial.zero()
    D, Theta = [], []
    for i in range(1, d + 1):
        parts = rw.split(i, f)
        D.append(parts.get(0, zero))
        Theta.append([parts.get(l, zero) for l in range(1, d + 1)])
    return {"D": D, "Theta": Theta}


def form_space_basis(T: CoeffTensor, p: int, cap: int = DEFAULT_DIM_CAP) -> Matrix:
    """Exact basis (as columns) of the constant-coefficient p-form space
    ∩_{r=1}^{p−1} H^{⊗(r−1)} ⊗ ker(I+T) ⊗ H^{⊗(p−r−1)}."""
    d = T.d
    if p < 0:
        raise ValueError("p must be >= 0")
    _check_cap(d, max(p, 1), cap)
    if p == 0:
        return identity(1)
    it = identity(d * d) + t_matrix(T)
    # Ω^m = (H ⊗ Ω^{m−1}) ∩ ker((I+T) on slots (1,2)): the columns of
    # cand = I ⊗ B span H ⊗ Ω^{m−1}, and those of cand·K, K the kernel basis
    # of the constraint restricted to them, span Ω^m.
    B = identity(d)
    for m in range(2, p + 1):
        cand = kron(identity(d), B)
        B = cand * (embed(it, 1, m, cap) * cand).kernel_basis()
    return B


def form_space_dim(T: CoeffTensor, p: int, cap: int = DEFAULT_DIM_CAP) -> int:
    """dim Ω^p_0 (1 for p=0, d for p=1, exact kernel intersection beyond)."""
    return form_space_basis(T, p, cap).cols


def wick_diff_star_algebra_exists(T: CoeffTensor) -> dict:
    """Existence of the differential *-calculus: requires the two-slot
    operator to be invertible and braided; then S = T and R = T⁻¹."""
    tm = t_matrix(T)
    try:
        inv = tm.inverse()
        invertible = True
    except ValueError:
        inv = None
        invertible = False
    braided = braid_check(T)
    exists = invertible and braided
    return {
        "exists": exists,
        "invertible": invertible,
        "braid": braided,
        "S": tm if exists else None,
        "R": inv if exists else None,
    }
