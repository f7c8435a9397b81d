"""Quadratic Wick-ideal conditions, the −1-eigenprojection, generator
commutation coefficients on H^{⊗4}, the general rewriting-based ideal
condition, and coherent-annihilation checks, on integer ``(rows, den)`` from the
input (P converted once by ``linalg._to_rows``, δ·T) to the verdict, with no ``Scalar`` between."""

from __future__ import annotations

from functools import reduce

from .algebra import CoeffTensor, hermiticity_check
from .diffcalc import _dagger_parts
from .linalg import Matrix, _from_rows, _hermitian, _kernel, _shifted, _sparse_product, _to_rows
from .rewrite import _check_generator_words, _in_ideal_span
from .states import CoherentParam, _normal_value
from .tensorops import DEFAULT_DIM_CAP, _check_cap, _check_h3_cap, _slot_rows, _t_rows

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
    which avoids irrational normalization, on integer rows: B and then the
    first k rows of ker[B*B | −B*] = ((B*B)⁻¹B*; I) by ``_kernel``, whose
    scales cancel, and one Matrix at the end; an empty kernel gives P = 0.
    """
    if not hermiticity_check(T):
        raise ValueError("minus_one_eigenprojection requires a hermitian tensor")
    n = T.d**2
    B, _, k = _kernel(_shifted(*_t_rows(T)), n)
    bs = [{r: x if type(x := row[j]) is int else x.conjugate() for r, row in enumerate(B) if j in row}
          for j in range(k)]  # the rows of B*
    aug = [{**g, **{k + c: -x for c, x in b.items()}} for g, b in zip(_sparse_product(bs, B), bs)]
    X, den, _ = _kernel(aug, k + n)  # [B*B | −B*]
    return _from_rows(_sparse_product(B, X[:k]), n, den)


def _projection_rows(P: Matrix):
    """(the ``_to_rows`` of P, den) if P = P* = P², else None: P's rows times
    themselves are den times P's."""
    pr, den = _to_rows(P)
    den_p = [{c: den * x for c, x in row.items()} for row in pr]
    square = P.rows == P.cols and _hermitian(pr) and _sparse_product(pr, pr) == den_p
    return (pr, den) if square else None


def is_projection(P: Matrix) -> bool:
    """Exact test P = P† = P²."""
    return _projection_rows(P) is not None


def quadratic_ideal_check(T: CoeffTensor, P: Matrix) -> dict:
    """The two conditions for P(H⊗H) to generate a quadratic Wick ideal:

    linear:    (I + T)·P = 0                       on H⊗H
    quadratic: (I⊗(I−P))·(T⊗I)(I⊗T)·(P⊗I) = 0     on H^{⊗3}

    Both exact on the integer rows of den·P and δ·T (the quadratic one on their ``_slot_rows``),
    zero at any scale, refused past the default cap.  Returns {"linear": bool, "quadratic": bool}.
    """
    d = T.d
    if P.rows != d * d:
        raise ValueError("P must act on H⊗H")
    proj = _projection_rows(P)
    if proj is None:
        raise ValueError("P is not an orthogonal projection")
    _check_h3_cap(d, "quadratic-ideal check")
    (pr, den), (tn, delta) = proj, _t_rows(T)
    linear = not any(_sparse_product(_shifted(tn, delta), pr))
    ip = _shifted([{c: -x for c, x in row.items()} for row in pr], den)
    rows = [_slot_rows(x, s, 3) for x, s in [(ip, 2), (tn, 1), (tn, 2), (pr, 1)]]
    quadratic = not any(reduce(_sparse_product, rows))
    return {"linear": linear, "quadratic": quadratic}


def ideal_generator_relations(
    T: CoeffTensor, P: Matrix, cap: int = DEFAULT_DIM_CAP
) -> Matrix:
    """The coefficient operator P₁P₃·T₂T₁T₃T₂·P₃P₁ on H^{⊗4}.

    Its matrix elements ⟨k₁k₂r₁r₂| · |i₁i₂s₁s₂⟩ give the commutation
    relations A†_{k₁k₂} A_{i₁i₂} = Σ coeff · A_{r₁r₂} A†_{s₁s₂} for the
    quadratic generators A_{ij} = P(i⊗j).  The factors are multiplied as the ``_slot_rows``
    of the integer rows of δ·T and den_P·P, and the product made dense once over (den_P·δ)^4.
    """
    _check_cap(T.d, 4, cap)
    check = quadratic_ideal_check(T, P)
    if not (check["linear"] and check["quadratic"]):
        raise ValueError("P does not define a quadratic Wick ideal")
    tn, delta = _t_rows(T)
    pr, den = _to_rows(P)
    p1, p3 = _slot_rows(pr, 1, 4), _slot_rows(pr, 3, 4)
    t = {i: _slot_rows(tn, i, 4) for i in (1, 2, 3)}
    rows = reduce(_sparse_product, [p1, p3, t[2], t[1], t[3], t[2], p3, p1])
    return _from_rows(rows, T.d**4, (den * delta) ** 4)


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
    # membership reads a column only up to scale, so the den of the parts is dropped
    targets = [q for g in gens for parts in _dagger_parts(g, T)[0] for q in parts.values()]
    return _in_ideal_span(targets, gens, max_deg)


def coherent_annihilation_check(gens, phi: CoherentParam) -> bool:
    """True iff the multiplicative extension of a_i ↦ conj(φ_i) kills every
    generator."""
    prefix = {}
    for g in gens:
        _check_generator_words(g.terms, phi.d)
        if _normal_value(g, phi, prefix):
            return False
    return True
