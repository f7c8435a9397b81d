"""Quadratic Wick-ideal conditions, the −1-eigenprojection, generator
commutation coefficients on H^{⊗4}, the general rewriting-based ideal
condition, and coherent-annihilation checks."""

from __future__ import annotations

from .algebra import CoeffTensor, Polynomial, hermiticity_check
from .linalg import Matrix, identity, zeros
from .rewrite import ideal_membership, wick_order
from .states import CoherentParam, _check_generator_words, _normal_value
from .tensorops import DEFAULT_DIM_CAP, _check_cap, embed, t_matrix

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

    Computed as P = B(B*B)⁻¹B* from an exact kernel basis B, which avoids
    irrational normalization.
    """
    if not hermiticity_check(T):
        raise ValueError("minus_one_eigenprojection requires a hermitian tensor")
    d = T.d
    tm = t_matrix(T)
    basis = (identity(d * d) + tm).kernel_basis()
    if not basis:
        return zeros(d * d, d * d)
    B = Matrix([[vec[r] for vec in basis] for r in range(d * d)])
    Bs = B.adjoint()
    return B * (Bs * B).inverse() * Bs


def is_projection(P: Matrix) -> bool:
    """Exact test P = P† = P²."""
    return P.rows == P.cols and P == P.adjoint() and P * P == P


def quadratic_ideal_check(T: CoeffTensor, P: Matrix) -> dict:
    """The two conditions for P(H⊗H) to generate a quadratic Wick ideal:

    linear:    (I + T)·P = 0                       on H⊗H
    quadratic: (I⊗(I−P))·(T⊗I)(I⊗T)·(P⊗I) = 0     on H^{⊗3}

    Both exact.  Returns {"linear": bool, "quadratic": bool}.
    """
    d = T.d
    if P.rows != d * d:
        raise ValueError("P must act on H⊗H")
    if not is_projection(P):
        raise ValueError("P is not an orthogonal projection")
    tm = t_matrix(T)
    eye2 = identity(d * d)
    linear = ((eye2 + tm) * P).is_zero()
    cap = d**3
    lhs = (embed(eye2 - P, 2, 3, cap) * embed(tm, 1, 3, cap)
           * embed(tm, 2, 3, cap) * embed(P, 1, 3, cap))
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


def _split_by_dag(p: Polynomial):
    """Split a wick-ordered polynomial into (dag-free part,
    {j: coefficient polynomial of the trailing a_j†}, higher-dag residue)."""
    free = {}
    single: dict = {}
    higher = False
    for w, c in p.terms.items():
        ndag = sum(1 for x in w if x < 0)
        if ndag == 0:
            free[w] = c
        elif ndag == 1:
            j = -w[-1]
            if w[-1] >= 0:
                raise AssertionError("wick-ordered word with interior dag letter")
            single.setdefault(j, {})[w[:-1]] = c
        else:
            higher = True
    p0 = Polynomial.__new__(Polynomial)
    p0.terms = free
    singles = {}
    for j, terms in single.items():
        q = Polynomial.__new__(Polynomial)
        q.terms = terms
        singles[j] = q
    return p0, singles, higher


def wick_ideal_condition_check(
    T: CoeffTensor, gens, max_deg: int
) -> bool:
    """True iff the two-sided ideal generated by ``gens`` in the
    generator-only subalgebra absorbs left multiplication by annihilators:
    for every g and k, the Wick ordering of a_k†·g splits into a dag-free
    part and single-dag parts whose coefficient polynomials all lie in the
    (degree-truncated) ideal."""
    gens = list(gens)
    if not gens:
        return True
    for g in gens:
        if not g.is_generator_only() or not g.is_homogeneous():
            raise ValueError("generators must be generator-only and homogeneous")
    if max_deg < max(g.max_word_len() for g in gens) + 1:
        raise ValueError("max_deg must exceed the longest generator")
    d = T.d
    for g in gens:
        for k in range(1, d + 1):
            q = wick_order(Polynomial.adjoint_generator(k) * g, T)
            p0, singles, higher = _split_by_dag(q)
            if higher:
                return False
            if not ideal_membership(p0, gens, max_deg, d=d):
                return False
            for poly in singles.values():
                if not ideal_membership(poly, gens, max_deg, d=d):
                    return False
    return True


def coherent_annihilation_check(gens, phi: CoherentParam) -> bool:
    """True iff the multiplicative extension of a_i ↦ conj(φ_i) kills every
    generator."""
    for g in gens:
        _check_generator_words(g.terms, phi.d)
        if _normal_value(g, phi):
            return False
    return True
