"""Quadratic Wick-ideal conditions, the −1-eigenprojection, generator
commutation coefficients on H^{⊗4}, the general rewriting-based ideal
condition, and coherent-annihilation checks."""

from __future__ import annotations

from .algebra import CoeffTensor, hermiticity_check
from .diffcalc import d_and_twist
from .linalg import Matrix, identity
from .rewrite import _check_generator_words, _in_ideal_span
from .states import CoherentParam, _normal_value
from .tensorops import DEFAULT_DIM_CAP, _check_cap, _check_h3_cap, embed, t_matrix

__all__ = [
    "minus_one_eigenprojection",
    "is_projection",
    "quadratic_ideal_check",
    "ideal_generator_relations",
    "wick_ideal_condition_check",
    "coherent_annihilation_check",
]


def minus_one_eigenprojection(T: CoeffTensor) -> Matrix:
    """Orthogonal projection onto ker(I + T) on H⊗H, exact.

    Computed as P = B(B*B)⁻¹B* from the exact kernel basis B (its columns),
    which avoids irrational normalization; an empty kernel gives P = 0
    through the 0-column B and the 0×0 inverse.
    """
    if not hermiticity_check(T):
        raise ValueError("minus_one_eigenprojection requires a hermitian tensor")
    B = (identity(T.d**2) + t_matrix(T)).kernel_basis()
    Bs = B.adjoint()
    return B * (Bs * B).inverse() * Bs


def is_projection(P: Matrix) -> bool:
    """Exact test P = P† = P²."""
    return P.rows == P.cols and P == P.adjoint() and P * P == P


def quadratic_ideal_check(T: CoeffTensor, P: Matrix) -> dict:
    """The two conditions for P(H⊗H) to generate a quadratic Wick ideal:

    linear:    (I + T)·P = 0                       on H⊗H
    quadratic: (I⊗(I−P))·(T⊗I)(I⊗T)·(P⊗I) = 0     on H^{⊗3}

    Both exact, refused past the default cap.  Returns
    {"linear": bool, "quadratic": bool}.
    """
    d = T.d
    if P.rows != d * d:
        raise ValueError("P must act on H⊗H")
    if not is_projection(P):
        raise ValueError("P is not an orthogonal projection")
    _check_h3_cap(d, "quadratic-ideal check")
    tm = t_matrix(T)
    eye2 = identity(d * d)
    linear = ((eye2 + tm) * P).is_zero()
    lhs = embed(eye2 - P, 2, 3) * embed(tm, 1, 3) * embed(tm, 2, 3) * embed(P, 1, 3)
    quadratic = lhs.is_zero()
    return {"linear": linear, "quadratic": quadratic}


def ideal_generator_relations(
    T: CoeffTensor, P: Matrix, cap: int = DEFAULT_DIM_CAP
) -> Matrix:
    """The coefficient operator P₁P₃·T₂T₁T₃T₂·P₃P₁ on H^{⊗4}.

    Its matrix elements ⟨k₁k₂r₁r₂| · |i₁i₂s₁s₂⟩ give the commutation
    relations A†_{k₁k₂} A_{i₁i₂} = Σ coeff · A_{r₁r₂} A†_{s₁s₂} for the
    quadratic generators A_{ij} = P(i⊗j).
    """
    _check_cap(T.d, 4, cap)
    check = quadratic_ideal_check(T, P)
    if not (check["linear"] and check["quadratic"]):
        raise ValueError("P does not define a quadratic Wick ideal")
    tm = t_matrix(T)
    p1 = embed(P, 1, 4, cap)
    p3 = embed(P, 3, 4, cap)
    t = {i: embed(tm, i, 4, cap) for i in (1, 2, 3)}
    return p1 * p3 * t[2] * t[1] * t[3] * t[2] * p3 * p1


def wick_ideal_condition_check(
    T: CoeffTensor, gens, max_deg: int
) -> bool:
    """True iff the two-sided ideal generated by ``gens`` in the
    generator-only subalgebra absorbs left multiplication by annihilators:
    for every g and k, a_k†·g = D_k(g) + Σ_m Θ_k^m(g)·a_m† with every D_k(g)
    and Θ_k^m(g) of :func:`~wickalg.diffcalc.d_and_twist` in the
    (degree-truncated) ideal."""
    gens = list(gens)
    if not gens:
        return True
    for g in gens:
        if not g.is_generator_only() or not g.is_homogeneous():
            raise ValueError("generators must be generator-only and homogeneous")
    if max_deg < max(g.max_word_len() for g in gens) + 1:
        raise ValueError("max_deg must exceed the longest generator")
    parts = []
    for g in gens:
        dt = d_and_twist(g, T)
        parts += [q for D, row in zip(dt["D"], dt["Theta"]) for q in (D, *row)]
    return _in_ideal_span(parts, gens, max_deg, T.d)


def coherent_annihilation_check(gens, phi: CoherentParam) -> bool:
    """True iff the multiplicative extension of a_i ↦ conj(φ_i) kills every
    generator."""
    prefix = {}
    for g in gens:
        _check_generator_words(g.terms, phi.d)
        if _normal_value(g, phi, prefix):
            return False
    return True
