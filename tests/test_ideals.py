"""Quadratic and general Wick ideals, generator relations, coherent kernels."""

import sys

import pytest

import wickalg.ideals as ideals
import wickalg.linalg as linalg
import wickalg.scalars as scalars
import wickalg.tensorops as tensorops
from conftest import (
    dense_eigenprojection,
    dense_generator_relations,
    dense_ideal_membership,
    dense_is_projection,
    dense_quadratic_ideal_check,
)
from wickalg import (
    CoeffTensor,
    CoherentParam,
    DimensionCapExceeded,
    Matrix,
    Polynomial,
    Scalar,
    braid_check,
    coherent_annihilation_check,
    hermiticity_check,
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
    for module, name in [(tensorops, "_slot_rows"), (tensorops, "identity"), (ideals, "_slot_rows"),
                         (ideals, "_t_rows"), (ideals, "_shifted")]:
        monkeypatch.setattr(module, name, built)
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


@pytest.mark.parametrize("family, d, param", [
    ("twisted_car", 2, {"mu": "1/2"}), ("twisted_car", 3, {"mu": "2/5"}),
    ("twisted_ccr", 2, {"mu": "1/3"}), ("twisted_ccr", 3, {"mu": "3/4"}),
])
def test_ideal_generator_relations_equal_the_dense_chain(family, d, param):
    T = make_preset(family, d, **param).tensor
    P = minus_one_eigenprojection(T)
    M = ideal_generator_relations(T, P)
    assert not M.is_zero() and M == dense_generator_relations(T, P)


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
        inside = [ideal_membership(p, [g], max_deg=3) for p in parts]
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


# -- oracles: the row paths against their definitions and dense references ----------


def _wick_by_definition(T, gens, max_deg):
    """The Wick condition as it is defined: every D_k(g) and Θ_k^m(g) of the public
    d_and_twist lies in the ideal by the public ideal_membership."""
    for g in gens:
        dt = d_and_twist(g, T)
        for q in [q for D, row in zip(dt["D"], dt["Theta"]) for q in (D, *row)]:
            if not ideal_membership(q, gens, max_deg):
                return False
    return True


def _mutated(g):
    """g with the coefficient of its second term doubled."""
    w = list(g.terms)[1]
    return Polynomial({**g.terms, w: g.terms[w] * 2})


@pytest.mark.parametrize("family, d, mu", [
    (family, d, mu) for family in ("twisted_ccr", "twisted_car") for d in (2, 3)
    for mu in ("1/3", "4/5", "5/7")])
def test_wick_ideal_condition_check_equals_its_definition(family, d, mu):
    # The declared generators hold; a generator with a mutated coefficient does not.
    rs = make_preset(family, d, mu=mu)
    T, gens = rs.tensor, rs.ideal_generators
    max_deg = max(g.max_word_len() for g in gens) + 1
    assert wick_ideal_condition_check(T, gens, max_deg) is _wick_by_definition(T, gens, max_deg) is True
    k = next(i for i, g in enumerate(gens) if len(g.terms) > 1)
    bad = gens[:k] + [_mutated(gens[k])] + gens[k + 1:]
    assert wick_ideal_condition_check(T, bad, max_deg) is _wick_by_definition(T, bad, max_deg) is False


def test_wick_ideal_condition_check_equals_its_definition_over_gaussian_integers():
    # q_ij with q11 = −1 and |q12| = 1: a1 a1 and a2 a1 − q21 a1 a2 (q21 = conj(q12))
    # generate a Wick ideal; their coefficients and T's are Gaussian integers over 5.
    T = make_preset("q_ij", 2, q11="-1", q22="1/3", q12="3/5", q12_im="4/5",
                    q21="3/5", q21_im="-4/5").tensor
    q21 = Scalar(rational(3, 5), rational(-4, 5))
    for c, holds in ((q21, True), (q21.conjugate(), False), (q21 * 2, False)):
        gens = [Polynomial.monomial((1, 1)), Polynomial({(2, 1): Scalar(1), (1, 2): -c})]
        for max_deg in (3, 4):
            assert wick_ideal_condition_check(T, gens, max_deg) is _wick_by_definition(T, gens, max_deg) is holds


def test_ideal_membership_of_twisted_parts_with_an_inhomogeneous_generator():
    # The Wick check refuses an inhomogeneous generator, as it did; the membership of
    # its parts decides all word lengths as one grade, and equals the dense rank.
    T = make_preset("twisted_ccr", 2, mu="1/3").tensor
    g = Polynomial({(2, 1): Scalar(1), (1, 2): Scalar(rational(-1, 3)), (1,): Scalar(rational(2, 7))})
    with pytest.raises(ValueError, match="homogeneous"):
        wick_ideal_condition_check(T, [g], 3)
    dt = d_and_twist(g, T)
    parts = [q for D, row in zip(dt["D"], dt["Theta"]) for q in (D, *row)]
    got = [ideal_membership(q, [g], 3) for q in parts]
    assert got == [dense_ideal_membership(q, [g], 3, 2) for q in parts]
    assert True in got and False in got


def test_wick_ideal_condition_check_makes_no_scalar(monkeypatch):
    # The dagger parts and the word rows stay integers: no Scalar is made from
    # numerators (scalars._over) and no row is put on integers twice (_each_scaled,
    # or linalg._to_rows, the one way from a Matrix to integer rows).
    calls = []
    for fn in (scalars._over, linalg._each_scaled, linalg._to_rows):
        def spy(*args, _fn=fn):
            calls.append(_fn.__name__)
            return _fn(*args)
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "wickalg"]:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, spy)
    for family, d in (("twisted_ccr", 3), ("twisted_car", 3)):
        rs = make_preset(family, d, mu="2/5")
        assert wick_ideal_condition_check(rs.tensor, rs.ideal_generators, 4)
        assert calls == [], family
    d_and_twist(rs.ideal_generators[-1], rs.tensor)  # the spy sees the public wrapper's Scalars
    assert "_over" in calls


_PRESETS = [
    (name, d, params) for d in (2, 3) for name, params in [
        ("qccr", {"q": "1/2"}), ("qccr", {"q": "-1"}), ("tlw", {"q": f"-1/{d}"}),
        ("twisted_ccr", {"mu": "1/3"}), ("twisted_ccr", {"mu": "5/7"}),
        ("twisted_car", {"mu": "1/3"}), ("twisted_car", {"mu": "4/5"}),
        ("q_ij", {"q11": "-1", "q12": "3/5", "q12_im": "4/5", "q21": "3/5", "q21_im": "-4/5",
                  **({"q13": "1/2", "q13_im": "-1/3", "q31": "1/2", "q31_im": "1/3"} if d == 3 else {})}),
        ("degenerate", {}), ("usym", {"q": "1/2", "lam": "1/3"}),
        ("bp_ce", {"lam": "1/2", "eps": "1/3"}),
    ]] + [("snu2", None, {"nu": "1/2"}), ("snu2", None, {"nu": "-2"}), ("bs_ce", None, {"tau": "1/2"}),
          ("aklt", None, {"lam": "4/3"}), ("aklt", None, {"lam": "2"})]


@pytest.mark.parametrize("name, d, params", _PRESETS, ids=lambda x: str(x))
def test_eigenprojection_and_quadratic_check_equal_the_dense_reference(name, d, params):
    T = make_preset(name, d, **params).tensor
    if not hermiticity_check(T):
        with pytest.raises(ValueError, match="hermitian"):
            minus_one_eigenprojection(T)
        return
    P = minus_one_eigenprojection(T)
    assert P == dense_eigenprojection(T) and is_projection(P)
    assert quadratic_ideal_check(T, P) == dense_quadratic_ideal_check(T, P)


def test_the_preset_oracle_covers_complex_and_nonempty_kernels():
    hermitian = [make_preset(name, d, **params).tensor for name, d, params in _PRESETS]
    hermitian = [T for T in hermitian if hermiticity_check(T)]
    assert any(not c.is_real for T in hermitian for c in T.entries.values())
    ranks = {minus_one_eigenprojection(T).rank() for T in hermitian}
    assert 0 in ranks and len(ranks) > 2
    assert {tuple(quadratic_ideal_check(T, minus_one_eigenprojection(T)).values())
            for T in hermitian} >= {(True, True), (True, False)}


@pytest.mark.parametrize("rows, hermitian, idempotent", [
    ([[1, 1, 0, 0], [1, 1, 0, 0], [0] * 4, [0] * 4], True, False),
    ([[1, 1, 0, 0], [0] * 4, [0] * 4, [0] * 4], False, True),
    ([[1, Scalar(0, 1), 0, 0], [Scalar(0, -1), 1, 0, 0], [0] * 4, [0] * 4], True, False),
    ([[rational(1, 2), Scalar(0, rational(1, 2)), 0, 0], [Scalar(0, rational(-1, 2)), rational(1, 2), 0, 0],
      [0] * 4, [0, 0, 0, 1]], True, True),
])
def test_projection_refusals_equal_the_dense_reference(rows, hermitian, idempotent):
    # Hermitian but not idempotent, idempotent but not Hermitian, and complex cases.
    P = Matrix(rows)
    assert (P == P.adjoint()) is hermitian and (P * P == P) is idempotent
    assert is_projection(P) is dense_is_projection(P) is (hermitian and idempotent)
    T = make_preset("twisted_ccr", 2, mu="1/2").tensor
    if not (hermitian and idempotent):
        with pytest.raises(ValueError, match="not an orthogonal projection"):
            quadratic_ideal_check(T, P)
    else:
        assert quadratic_ideal_check(T, P) == dense_quadratic_ideal_check(T, P)
