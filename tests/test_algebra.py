"""Words, polynomials, coefficient tensors, relation systems."""

import pytest
from hypothesis import given

from conftest import polynomials, scalars
from wickalg import (
    CoeffTensor,
    Polynomial,
    RelationSystem,
    Scalar,
    adjoint_word,
    dag,
    gen,
    hermiticity_check,
    word_str,
)


def test_letter_codes():
    assert gen(3) == 3 and dag(3) == -3
    with pytest.raises(ValueError):
        gen(0)
    with pytest.raises(ValueError):
        dag(-1)


def test_word_helpers():
    w = (1, -2, 3)
    assert adjoint_word(w) == (-3, 2, -1)
    assert adjoint_word(adjoint_word(w)) == w
    assert word_str(()) == "1"
    assert word_str((1, -2)) == "a1 a2*"


def test_polynomial_basics():
    p = Polynomial.generator(1)
    q = Polynomial.adjoint_generator(2)
    assert (p * q).terms == {(1, -2): Scalar(1)}
    assert (p - p).is_zero
    assert Polynomial.unit().constant_term == 1
    assert Polynomial.monomial((1,), 0).is_zero
    r = p + p
    assert r.terms[(1,)] == Scalar(2)
    assert p.scale(0).is_zero


def test_polynomial_adjoint_example():
    i = Scalar(0, 1)
    p = Polynomial.monomial((1, 2), i) + Polynomial.monomial((-1,), 2)
    pa = p.adjoint()
    assert pa.terms[(-2, -1)] == Scalar(0, -1)
    assert pa.terms[(1,)] == Scalar(2)


def test_polynomial_inspection():
    p = Polynomial.monomial((1, 2, -3)) + Polynomial.unit()
    assert p.max_word_len() == 3
    assert not p.is_generator_only()
    assert not p.is_homogeneous()
    assert Polynomial.monomial((1, 2)).is_generator_only()
    assert set(p.terms) == {(), (1, 2, -3)}


@given(polynomials(2), polynomials(2), polynomials(2))
def test_polynomial_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (q + r) * p == q * p + r * p
    assert p - p == Polynomial.zero()


@given(polynomials(2), polynomials(2), scalars)
def test_polynomial_involution(p, q, c):
    assert (p * q).adjoint() == q.adjoint() * p.adjoint()
    assert (p + q).adjoint() == p.adjoint() + q.adjoint()
    assert p.adjoint().adjoint() == p
    assert p.scale(c).adjoint() == p.adjoint().scale(c.conjugate())


def test_coeff_tensor_validation():
    T = CoeffTensor(2, {(1, 2, 1, 2): Scalar(1), (1, 1, 1, 1): 0})
    assert (1, 1, 1, 1) not in T.entries  # zero entries are dropped
    assert T.get(1, 2, 1, 2) == Scalar(1)
    assert T.get(2, 1, 2, 1) == Scalar(0)
    assert T.row(1, 2) == [(1, 2, Scalar(1))]
    assert T.row(2, 2) == []
    with pytest.raises(ValueError):
        CoeffTensor(2, {(1, 3, 1, 1): Scalar(1)})
    with pytest.raises(ValueError):
        CoeffTensor(2, {(3, 1, 1, 1): 0})  # a zero entry is range-checked too
    with pytest.raises(ValueError):
        CoeffTensor(0)


def test_hermiticity_check():
    herm = CoeffTensor(2, {(1, 2, 1, 2): Scalar(0, 1), (2, 1, 2, 1): Scalar(0, -1)})
    assert hermiticity_check(herm)
    assert not hermiticity_check(CoeffTensor(2, {(1, 2, 1, 2): Scalar(1)}))
    # mirror entry present but with the wrong value
    bad = CoeffTensor(2, {(1, 2, 1, 2): Scalar(1), (2, 1, 2, 1): Scalar(2)})
    assert not hermiticity_check(bad)


def test_relation_system_rejects_mixed_generators():
    T = CoeffTensor(2)
    with pytest.raises(ValueError):
        RelationSystem(T, [Polynomial.monomial((1, -2))])
    rs = RelationSystem(T, [Polynomial.monomial((1, 2))], "x", {})
    assert rs.d == 2
