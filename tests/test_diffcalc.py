"""Twisted derivatives, constant-coefficient form spaces, star-calculus."""

from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import gen_polynomials, kron_form_levels, sample_tensors, tensors
from wickalg import (
    CoherentParam,
    DimensionCapExceeded,
    Polynomial,
    Scalar,
    annihilator_apply,
    d_and_twist,
    diffcalc,
    embed,
    form_levels,
    form_space_dim,
    identity,
    kron,
    make_preset,
    rational,
    t_matrix,
    wick_diff_star_algebra_exists,
)
from wickalg.diffcalc import form_space_basis
from wickalg.rewrite import _wick_order_strategy
from wickalg.scalars import _denominator

QCCR = make_preset("qccr", 2, q="1/3").tensor
TCCR = make_preset("twisted_ccr", 2, mu="1/2").tensor


def test_d_and_twist_base_cases():
    out = d_and_twist(Polynomial.unit(), QCCR)
    assert all(p.is_zero for p in out["D"])
    for i in range(2):
        for l in range(2):
            expect = Polynomial.unit() if i == l else Polynomial.zero()
            assert out["Theta"][i][l] == expect
    out = d_and_twist(Polynomial.generator(1), QCCR)
    assert out["D"][0] == Polynomial.unit()
    assert out["D"][1].is_zero


def test_twist_on_letters_matches_tensor_rows():
    out = d_and_twist(Polynomial.generator(2), TCCR)
    # Theta_i^l(x_j) = sum_k T_ij^{lk} x_k
    for i in range(1, 3):
        for l in range(1, 3):
            expect = Polynomial.zero()
            for (lu, k, c) in TCCR.row(i, 2):  # c = T_i2^{lu k}
                if lu == l:
                    expect = expect + Polynomial.monomial((k,), c)
            assert out["Theta"][i - 1][l - 1] == expect


# The sample spread plus a complex q_ij.
CROSS_TENSORS = sample_tensors() + [make_preset(
    "q_ij", 2, q11="1/3", q22="1/4", q12="1/2", q12_im="1/2",
    q21="1/2", q21_im="-1/2").tensor]


@settings(max_examples=40, deadline=None)
@given(gen_polynomials(2, max_len=3, max_terms=3), st.sampled_from(CROSS_TENSORS))
def test_annihilator_splits_into_derivative_and_twists(f, T):
    # a_i†·f = D_i(f) + sum_l Theta_i^l(f)·a_l†, against the one-step
    # rewriter; D_i is the Fock annihilator.
    out = d_and_twist(f, T)
    fock = CoherentParam.zero(2)
    for i in range(1, 3):
        expect = out["D"][i - 1]
        for l in range(1, 3):
            expect = expect + out["Theta"][i - 1][l - 1] * Polynomial.adjoint_generator(l)
        got = _wick_order_strategy(Polynomial.adjoint_generator(i) * f, T, "leftmost")
        assert got == expect
        assert out["D"][i - 1] == annihilator_apply(i, f, fock, T)


def test_d_and_twist_rejects_dag_letters():
    with pytest.raises(ValueError):
        d_and_twist(Polynomial.monomial((-1,)), QCCR)


@settings(max_examples=40, deadline=None)
@given(
    gen_polynomials(2, max_len=3, max_terms=2),
    gen_polynomials(2, max_len=3, max_terms=2),
    st.sampled_from([QCCR, TCCR]),
)
def test_twisted_leibniz_rule(f, g, T):
    d = T.d
    fg = d_and_twist(f * g, T)
    df, dg = d_and_twist(f, T), d_and_twist(g, T)
    for i in range(d):
        expect = df["D"][i] * g
        for l in range(d):
            expect = expect + df["Theta"][i][l] * dg["D"][l]
        assert fg["D"][i] == expect
        for l in range(d):
            tw = Polynomial.zero()
            for k in range(d):
                tw = tw + df["Theta"][i][k] * dg["Theta"][k][l]
            assert fg["Theta"][i][l] == tw


def test_form_dims_low_degrees():
    assert form_space_dim(QCCR, 0) == 1
    assert form_space_dim(QCCR, 1) == 2
    # generic qccr has trivial ker(I+T): no higher forms
    assert form_space_dim(QCCR, 2) == 0
    assert form_space_dim(QCCR, 3) == 0


@pytest.mark.parametrize("p", range(5))
def test_form_dims_twisted_families(p):
    ccr = make_preset("twisted_ccr", 2, mu="1/2").tensor
    assert form_space_dim(ccr, p) == comb(2, p)
    car = make_preset("twisted_car", 2, mu="1/2").tensor
    assert form_space_dim(car, p) == comb(2 + p - 1, p)


def test_form_dims_other_presets():
    tlw = make_preset("tlw", 2, q="-1/2").tensor
    assert form_space_dim(tlw, 2) == 1 and form_space_dim(tlw, 3) == 0
    deg = make_preset("degenerate", 2).tensor
    assert [form_space_dim(deg, p) for p in range(4)] == [1, 2, 4, 8]


def test_form_basis_lies_in_every_kernel():
    T = make_preset("twisted_car", 2, mu="1/2").tensor
    p = 3
    B = form_space_basis(T, p)
    it = identity(4) + t_matrix(T)
    d = T.d
    for r in range(1, p):
        M = kron(identity(d ** (r - 1)), kron(it, identity(d ** (p - r - 1))))
        assert (M * B).is_zero()


# Presets with their dimension laws dim Ω^p for p = 0..5.
FORM_LAWS = [
    (make_preset("twisted_ccr", 3, mu="1/3").tensor, [comb(3, p) for p in range(6)]),
    (make_preset("twisted_car", 2, mu="1/2").tensor, [comb(p + 1, p) for p in range(6)]),
    (make_preset("degenerate", 2).tensor, [2**p for p in range(6)]),
    (make_preset("tlw", 2, q="-1/2").tensor, [1, 2, 1, 0, 0, 0]),
    (QCCR, [1, 2, 0, 0, 0, 0]),
    # |q12| = 1: complex bases from level 2 on, so every run meets a Gaussian pivot
    (make_preset("q_ij", 2, q11="-1", q22="-1", q12="3/5", q12_im="4/5", q21="3/5",
                 q21_im="-4/5").tensor, [1, 2, 3, 4, 5, 6]),
]


@pytest.mark.parametrize("T, dims", FORM_LAWS)
def test_form_levels_lie_in_every_kernel(T, dims):
    d = T.d
    it = identity(d * d) + t_matrix(T)
    levels = list(form_levels(T, 5))
    assert [B.cols for B in levels] == dims
    for p, B in enumerate(levels):
        assert B.rows == d**p
        for r in range(1, p):
            assert (embed(it, r, p) * B).is_zero()
        assert B == form_space_basis(T, p)
    assert levels == list(kron_form_levels(T, 5))


@settings(max_examples=60, deadline=None)
@given(T=tensors())
def test_form_levels_match_the_dense_kron_build(T):
    # Every basis, column order and entries included, equals the dense build
    # with kron, embed and Matrix products, on every level with d^p <= 81.
    p_max = {1: 6, 2: 6, 3: 4}[T.d]
    assert list(form_levels(T, p_max)) == list(kron_form_levels(T, p_max))


def test_form_levels_stop_building_past_an_empty_level(monkeypatch):
    # twisted_ccr at d=3 has dims 1, 3, 3, 1, 0, 0: levels 2, 3 and 4 take one
    # system product and one kernel each, and the empty level 5 takes neither.
    # form_levels adds one basis product at each nonempty level from 1 on.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(diffcalc, "_sparse_product", counted("sparse_product", diffcalc._sparse_product))
    monkeypatch.setattr(diffcalc, "_kernel", counted("kernel", diffcalc._kernel))
    T = make_preset("twisted_ccr", 3, mu="1/3").tensor
    assert [k for k, _, _ in diffcalc._form_kernels(T, 5)] == [1, 3, 3, 1, 0, 0]
    assert calls == {"sparse_product": 3, "kernel": 3}
    calls.clear()
    assert [B.cols for B in form_levels(T, 5)] == [1, 3, 3, 1, 0, 0]
    assert calls == {"sparse_product": 6, "kernel": 3}


def _dims_agree(T, p_max, cap):
    dims = [B.cols for B in form_levels(T, p_max, cap)]
    assert [k for k, _, _ in diffcalc._form_kernels(T, p_max, cap)] == dims
    assert [form_space_dim(T, p, cap) for p in range(p_max + 1)] == dims


@pytest.mark.parametrize("T, dims", FORM_LAWS)
def test_form_dims_equal_the_basis_column_counts(T, dims):
    _dims_agree(T, 8, T.d**8)


@settings(max_examples=40, deadline=None)
@given(T=tensors())
def test_form_dims_equal_the_basis_column_counts_on_any_tensor(T):
    _dims_agree(T, {1: 8, 2: 8, 3: 7}[T.d], 4096)  # 3^8 is past the default cap


@pytest.mark.parametrize("T, p", [(make_preset("twisted_car", 3, mu="10/13").tensor, 7),
                                  (FORM_LAWS[-1][0], 11)])
def test_form_dims_solve_systems_of_d2_k_rows(monkeypatch, T, p):
    # The dims path makes no row of H^{⊗m}: every product and kernel it asks for
    # has at most d²·max k_m rows, 324 against 3^7 rows for twisted_car and 48
    # against 2^11 for the |q12| = 1 law.
    k_max = max(k for k, _, _ in diffcalc._form_kernels(T, p))
    lengths = []

    def spy(fn):
        def wrapper(*args):
            lengths.extend(len(x) for x in args if type(x) is list)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(diffcalc, "_sparse_product", spy(diffcalc._sparse_product))
    monkeypatch.setattr(diffcalc, "_kernel", spy(diffcalc._kernel))
    form_space_dim(T, p)
    assert len(lengths) == 3 * (p - 1)  # two products' inputs and one kernel per level from 2 on
    assert max(lengths) <= T.d**2 * k_max < T.d**p


@pytest.mark.parametrize("T, p_max", [(make_preset("twisted_car", 3, mu="10/13").tensor, 5),
                                      (FORM_LAWS[-1][0], 8)])
def test_form_levels_carry_each_basis_over_its_least_denominator(monkeypatch, T, p_max):
    # B_m and den_m are divided by their gcd at every level, so the den that reaches
    # linalg._from_rows is the lcm of the denominators of the level's entries.  Carried
    # without it, den_8 of the |q12| = 1 law has 2255 bits, 2218 of them common.
    dens = []
    from_rows = diffcalc._from_rows

    def spy(rows, cols, den):
        dens.append(den)
        return from_rows(rows, cols, den)

    monkeypatch.setattr(diffcalc, "_from_rows", spy)
    levels = list(form_levels(T, p_max))
    assert dens == [_denominator([x for row in B.data for x in row]) for B in levels]


def test_form_levels_refused_before_anything_is_built(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(diffcalc, "_t_rows", fail)
    monkeypatch.setattr(diffcalc, "_sparse_product", fail)
    monkeypatch.setattr(diffcalc, "_kernel", fail)
    with pytest.raises(ValueError, match=">= 0"):
        next(form_levels(QCCR, -1))
    with pytest.raises(DimensionCapExceeded):
        next(form_levels(QCCR, 13))  # 2^13 > the default cap 4096
    with pytest.raises(DimensionCapExceeded):
        next(form_levels(QCCR, 4, cap=8))
    with pytest.raises(DimensionCapExceeded):
        form_space_dim(QCCR, 13)


def test_star_algebra_existence():
    rec = wick_diff_star_algebra_exists(QCCR)
    assert rec["exists"] and rec["invertible"] and rec["braid"]
    # R = q^{-1} * flip for the q-commutation family
    q_inv = Scalar(3)
    flip = identity(4).scale(0)
    from wickalg import word_to_index

    for i in (1, 2):
        for j in (1, 2):
            flip.data[word_to_index((j, i), 2)][word_to_index((i, j), 2)] = Scalar(1)
    assert rec["R"] == flip.scale(q_inv)
    assert rec["S"] == t_matrix(QCCR)


def test_star_algebra_failure_modes():
    # tlw: two-slot operator is rank one, never invertible
    rec = wick_diff_star_algebra_exists(make_preset("tlw", 2, q="1/3").tensor)
    assert not rec["invertible"] and not rec["exists"] and rec["R"] is None
    # snu2: singular two-slot operator
    rec = wick_diff_star_algebra_exists(make_preset("snu2", nu="1/2").tensor)
    assert not rec["invertible"] and not rec["exists"]
    # bs_ce: invertible but not braided
    rec = wick_diff_star_algebra_exists(make_preset("bs_ce", tau="3/5").tensor)
    assert rec["invertible"] and not rec["braid"] and not rec["exists"]
    # twisted families support the full calculus
    for name in ("twisted_ccr", "twisted_car"):
        rec = wick_diff_star_algebra_exists(make_preset(name, 2, mu="1/2").tensor)
        assert rec["exists"]
