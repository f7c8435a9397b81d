"""Twisted derivatives and twists, constant-coefficient differential-form
dimensions, and the differential *-algebra existence predicate."""

from __future__ import annotations

from .algebra import CoeffTensor, Polynomial
from .linalg import Matrix, identity, kron
from .rewrite import _add, _check_generator_words, rewriter_for
from .tensorops import DEFAULT_DIM_CAP, _check_cap, braid_check, embed, t_matrix

__all__ = [
    "d_and_twist",
    "form_levels",
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
    all generator-only.  Each a_i†·f is one contraction of the memo
    :meth:`~wickalg.rewrite.Rewriter.through`: its term c·a_g·a_m† goes to
    Θ_i^m(f), a contracted term (m = 0) to D_i(f).
    """
    d = T.d
    _check_generator_words(f.terms, d)
    through = rewriter_for(T).through
    D, Theta = [], []
    for i in range(1, d + 1):
        parts = [{} for _ in range(d + 1)]  # parts[m]: D_i(f) at m = 0, else Θ_i^m(f)
        for w, c in f.terms.items():
            for (g, m), v in through(i, w).items():
                _add(parts[m], g, c * v)
        D.append(Polynomial._of(parts[0]))
        Theta.append([Polynomial._of(p) for p in parts[1:]])
    return {"D": D, "Theta": Theta}


def form_levels(T: CoeffTensor, p_max: int, cap: int = DEFAULT_DIM_CAP):
    """Yield exact bases (as columns) of the constant-coefficient form spaces
    Ω^0, …, Ω^{p_max}, Ω^p = ∩_{r=1}^{p−1} H^{⊗(r−1)} ⊗ ker(I+T) ⊗ H^{⊗(p−r−1)},
    by B_m = (I ⊗ B_{m−1})·ker(embed(I+T, 1, m)·(I ⊗ B_{m−1})).  The levels after
    an empty one are empty, and none of them builds an embed or a kernel.
    p_max < 0 and d^p_max > ``cap`` are refused before any level is built."""
    d = T.d
    if p_max < 0:
        raise ValueError("p must be >= 0")
    _check_cap(d, max(p_max, 1), cap)
    it = identity(d * d) + t_matrix(T)
    B = identity(1)
    for m in range(p_max + 1):
        if m:  # the columns of I ⊗ B_{m−1} span H ⊗ Ω^{m−1}
            B = kron(identity(d), B)
        if m > 1 and B.cols:
            B = B * (embed(it, 1, m, cap) * B).kernel_basis()
        yield B


def form_space_basis(T: CoeffTensor, p: int, cap: int = DEFAULT_DIM_CAP) -> Matrix:
    """Exact basis (as columns) of Ω^p, the last level of :func:`form_levels`."""
    for B in form_levels(T, p, cap):
        pass
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
