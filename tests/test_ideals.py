"""Quadratic and general Wick ideals, generator relations, coherent kernels."""

import pytest

import wickalg.tensorops as tensorops
from wickalg import (
    CoeffTensor,
    CoherentParam,
    DimensionCapExceeded,
    Matrix,
    Polynomial,
    Scalar,
    braid_check,
    coherent_annihilation_check,
    d_and_twist,
    identity,
    ideal_generator_relations,
    ideal_membership,
    make_preset,
    minus_one_eigenprojection,
    quadratic_ideal_check,
    rational,
    t_matrix,
    wick_ideal_condition_check,
    wick_order,
    word_to_index,
)
from wickalg.ideals import is_projection


def test_is_projection():
    assert is_projection(identity(3))
    assert is_projection(Matrix([[1, 0], [0, 0]]))
    assert not is_projection(Matrix([[1, 1], [0, 0]]))  # not self-adjoint
    half = Scalar(rational(1, 2))
    assert is_projection(Matrix([[half, half], [half, half]]))


def test_eigenprojection_twisted_ccr():
    T = make_preset("twisted_ccr", 2, mu="1/2").tensor
    P = minus_one_eigenprojection(T)
    assert is_projection(P)
    assert P.rank() == 1  # ker(I+T) is the one twisted-antisymmetric vector
    tm = t_matrix(T)
    assert ((identity(4) + tm) * P).is_zero()


def test_eigenprojection_trivial_and_full():
    # qccr at generic q has no -1 eigenvalue: P = 0.
    assert minus_one_eigenprojection(
        make_preset("qccr", 2, q="1/2").tensor).is_zero()
    # degenerate has T = -I: P = I.
    assert minus_one_eigenprojection(
        make_preset("degenerate", 2).tensor) == identity(4)


def test_eigenprojection_requires_hermitian():
    from wickalg import CoeffTensor

    with pytest.raises(ValueError):
        minus_one_eigenprojection(CoeffTensor(2, {(1, 2, 1, 2): Scalar(1)}))


def test_quadratic_ideal_check_examples():
    ccr = make_preset("twisted_ccr", 2, mu="1/2").tensor
    got = quadratic_ideal_check(ccr, minus_one_eigenprojection(ccr))
    assert got == {"linear": True, "quadratic": True}
    # tlw at q = -1/d has a -1 eigenvector but fails the cubic condition.
    tlw = make_preset("tlw", 2, q="-1/2").tensor
    P = minus_one_eigenprojection(tlw)
    assert P.rank() == 1
    got = quadratic_ideal_check(tlw, P)
    assert got == {"linear": True, "quadratic": False}


def test_quadratic_ideal_check_validation():
    T = make_preset("twisted_ccr", 2, mu="1/2").tensor
    with pytest.raises(ValueError):
        quadratic_ideal_check(T, Matrix([[1, 1], [0, 0]]))
    with pytest.raises(ValueError):
        quadratic_ideal_check(T, identity(2))  # wrong size


def test_quadratic_ideal_check_refused_past_the_default_cap(monkeypatch):
    # The quadratic condition lives on H^{⊗3}: 17^3 = 4913 > 4096 rows.
    def built(*args, **kwargs):
        raise AssertionError("built before the d^3 cap check")

    T = make_preset("qccr", 17, q="1/2").tensor
    P = identity(17**2)
    for name in ("kron", "identity"):
        monkeypatch.setattr(tensorops, name, built)
    with pytest.raises(DimensionCapExceeded, match="4913"):
        quadratic_ideal_check(T, P)


def test_braided_hermitian_presets_pass_quadratic_check():
    for name, d, params in [
        ("qccr", 2, {"q": "1/2"}),
        ("twisted_ccr", 2, {"mu": "1/3"}),
        ("twisted_car", 2, {"mu": "1/3"}),
        ("degenerate", 2, {}),
    ]:
        T = make_preset(name, d, **params).tensor
        assert braid_check(T)
        got = quadratic_ideal_check(T, minus_one_eigenprojection(T))
        assert got == {"linear": True, "quadratic": True}, name


def test_generator_relation_coefficient_matrix():
    # A = a2 a1 - mu a1 a2 in the twisted commutation algebra satisfies
    # A† A = mu^6 A A†, both symbolically and through the coefficient
    # operator on H^(x4).
    mu = Scalar(rational(1, 2))
    T = make_preset("twisted_ccr", 2, mu="1/2").tensor
    A = Polynomial.monomial((2, 1)) - Polynomial.monomial((1, 2), mu)
    lhs = wick_order(A.adjoint() * A, T)
    rhs = wick_order((A * A.adjoint()).scale(mu**6), T)
    assert lhs == rhs

    P = minus_one_eigenprojection(T)
    M = ideal_generator_relations(T, P)
    v = [Scalar(0)] * 4
    v[word_to_index((2, 1), 2)] = Scalar(1)
    v[word_to_index((1, 2), 2)] = -mu
    vv = [a * b for a in v for b in v]  # v (x) v on H^(x4)
    col = Matrix([[x] for x in vv])
    val = (col.adjoint() * M * col)[0, 0]
    norm2 = Scalar(1) + mu * mu  # v†v
    assert val == mu**6 * norm2 * norm2
    assert val == Scalar(rational(25, 1024))


def test_ideal_generator_relations_requires_quadratic_ideal():
    tlw = make_preset("tlw", 2, q="-1/2").tensor
    with pytest.raises(ValueError):
        ideal_generator_relations(tlw, minus_one_eigenprojection(tlw))


def test_wick_ideal_condition_check_positive():
    rs = make_preset("twisted_ccr", 2, mu="1/2")
    assert wick_ideal_condition_check(rs.tensor, rs.ideal_generators, max_deg=3)
    rs = make_preset("twisted_car", 2, mu="1/2")
    assert wick_ideal_condition_check(rs.tensor, rs.ideal_generators, max_deg=4)


def test_wick_ideal_condition_check_negative():
    T = make_preset("qccr", 2, q="1/2").tensor
    # a1 a2 alone does not absorb annihilators in the q-commutation algebra.
    assert not wick_ideal_condition_check(T, [Polynomial.monomial((1, 2))], max_deg=3)


def test_wick_ideal_condition_check_one_part_outside():
    # a_k† a_k = 1 + q a_k a_k† and a_j† a_k = a_k a_j† (j ≠ k): for g = a_k a_k,
    # a_k†·g = (1+q)·a_k + q²·a_k a_k·a_k† and a_j†·g = a_k a_k·a_j†.  Of the
    # three nonzero parts D_i(g), Θ_i^m(g) only D_k(g) = (1+q)·a_k lies outside
    # the ideal, first (k=1) or last (k=2) in the order of i.
    q = Scalar(rational(1, 2))
    for k, j in ((1, 2), (2, 1)):
        T = CoeffTensor(2, {(k, k, k, k): q, (j, k, j, k): Scalar(1)})
        g = Polynomial.monomial((k, k))
        dt = d_and_twist(g, T)
        parts = [p for D, row in zip(dt["D"], dt["Theta"]) for p in (D, *row) if not p.is_zero]
        inside = [ideal_membership(p, [g], max_deg=3, d=2) for p in parts]
        assert sorted(inside) == [False, True, True]
        assert not wick_ideal_condition_check(T, [g], max_deg=3)


def test_wick_ideal_condition_check_validation():
    T = make_preset("qccr", 2, q="1/2").tensor
    assert wick_ideal_condition_check(T, [], max_deg=2)
    with pytest.raises(ValueError):
        wick_ideal_condition_check(T, [Polynomial.monomial((-1,))], max_deg=2)
    with pytest.raises(ValueError):
        wick_ideal_condition_check(T, [Polynomial.monomial((1, 2))], max_deg=2)


def test_coherent_annihilation_check():
    mu = Scalar(rational(1, 2))
    g_comm = Polynomial.monomial((1, 2)) - Polynomial.monomial((2, 1), mu)
    fock = CoherentParam.zero(2)
    ones = CoherentParam((1, 1))
    assert coherent_annihilation_check([g_comm], fock)
    assert not coherent_annihilation_check([g_comm], ones)  # 1 - mu != 0
    g_diff = Polynomial.generator(1) - Polynomial.generator(2)
    assert coherent_annihilation_check([g_diff], ones)
    for bad in ((-1,), (3,), (0,)):
        with pytest.raises(ValueError):
            coherent_annihilation_check([Polynomial.monomial(bad)], fock)
