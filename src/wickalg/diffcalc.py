"""Twisted derivatives and twists, constant-coefficient differential-form
dimensions, and the differential *-algebra existence predicate."""

from __future__ import annotations

from .algebra import CoeffTensor, Polynomial
from .linalg import Matrix, _from_rows, _kernel, _shifted, _sparse_product
from .rewrite import _check_generator_words, rewriter_for
from .scalars import _content, _over, _quotient
from .tensorops import DEFAULT_DIM_CAP, _check_cap, _t_rows, braid_check, t_matrix

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
    all generator-only, made from :func:`_dagger_parts`.
    """
    parts, den = _dagger_parts(f, T)
    wrap = [[Polynomial._of({g: _over(c, den) for g, c in p.get(m, {}).items()})
             for m in range(T.d + 1)] for p in parts]
    return {"D": [w[0] for w in wrap], "Theta": [w[1:] for w in wrap]}


def _dagger_parts(f: Polynomial, T: CoeffTensor) -> tuple:
    """([a_1†·f, …, a_d†·f], den), each a_k†·f one :meth:`~wickalg.rewrite.Rewriter.dagger` step
    on f as {m: {g: numerator}} over the int den: c·a_g·a_m† at m, contracted at m = 0."""
    _check_generator_words(f.terms, T.d)
    rw = rewriter_for(T)
    scaled = rw.scaled({(w, ()): c for w, c in f.terms.items()})
    out = []
    for k in range(1, T.d + 1):
        parts = {}
        terms, den = rw.dagger(k, scaled)
        for (g, h), c in terms.items():
            parts.setdefault(-h[0] if h else 0, {})[g] = c
        out.append(parts)
    return out, den


def _form_kernels(T: CoeffTensor, p_max: int, cap: int = DEFAULT_DIM_CAP):
    """Yield (k_m, the rows of C_m, den) for m = 0, …, p_max, where B_m = (I_d ⊗ B_{m−1})·C_m is a
    basis of Ω^m = ∩_{r=1}^{m−1} H^{⊗(r−1)} ⊗ ker(I+T) ⊗ H^{⊗(m−r−1)}, B_0 = 1, C_1 = I_d.  As
    (I+T)₁₂ commutes past I ⊗ I ⊗ B_{m−2}, whose columns are independent, C_m = ker(((I+T) ⊗ I_{k_{m−2}})·
    (I_d ⊗ C_{m−1})): ``linalg._kernel`` of d²·k_{m−2} integer rows, its den the den of C_m, and no row
    of H^{⊗m} is made.  Levels after an empty one take no kernel.  Refused first: p_max < 0, d^p_max > ``cap``."""
    d = T.d
    if p_max < 0:
        raise ValueError("p must be >= 0")
    _check_cap(d, max(p_max, 1), cap)
    it = _shifted(*_t_rows(T))  # the rows of δ·(I+T)
    C, den, lo, k = [{0: 1}], 1, 1, 1  # the rows of C_m over den, k_{m−1} and k_m
    for m in range(p_max + 1):
        if m == 1:
            C, k = [{b: 1} for b in range(d)], d
        elif m > 1 and k:  # the rows of (I+T) ⊗ I_{k_{m−2}} and of I_d ⊗ C_{m−1}
            x = [{c * lo + j: v for c, v in row.items()} for row in it for j in range(lo)]
            shifted = [{c + b * k: v for c, v in row.items()} for b in range(d) for row in C]
            lo, (C, den, k) = k, _kernel(_sparse_product(x, shifted), d * k)
        elif m > 1:
            C = []
        yield k, C, den


def form_levels(T: CoeffTensor, p_max: int, cap: int = DEFAULT_DIM_CAP):
    """Yield exact bases (as columns) of the constant-coefficient form spaces Ω^0, …, Ω^{p_max}:
    B_m = (I ⊗ B_{m−1})·C_m on integer rows over den_m, C_m from :func:`_form_kernels` (a row of
    I ⊗ B_{m−1} is a shifted row of B_{m−1}), B_m and den_m = den_{m−1}·den over their gcd, each
    yielded by ``linalg._from_rows``.  Refused as :func:`_form_kernels` is, before anything is built."""
    d = T.d
    B, den = [{0: 1}], 1  # the rows of B_m over den
    for m, (k, C, cden) in enumerate(_form_kernels(T, p_max, cap)):
        if not k:
            B, den = [{}] * d**m, 1
        elif m:
            kk = len(C) // d  # C_m has d·k_{m−1} rows
            B = [{c + b * kk: x for c, x in row.items()} for b in range(d) for row in B]
            B, den = _sparse_product(B, C), den * cden
            g = _content(den, [x for row in B for x in row.values()])  # B_m and den_m over their gcd
            B, den = [{c: _quotient(x, g) for c, x in row.items()} for row in B], den // g
        yield _from_rows(B, k, den)


def form_space_basis(T: CoeffTensor, p: int, cap: int = DEFAULT_DIM_CAP) -> Matrix:
    """Exact basis (as columns) of Ω^p, the last level of :func:`form_levels`."""
    for B in form_levels(T, p, cap):
        pass
    return B


def form_space_dim(T: CoeffTensor, p: int, cap: int = DEFAULT_DIM_CAP) -> int:
    """dim Ω^p_0 (1 for p=0, d for p=1, exact kernel intersection beyond): k_p of
    :func:`_form_kernels`, with no basis built."""
    return [k for k, _, _ in _form_kernels(T, p, cap)][-1]


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
