"""End-to-end acceptance checks.

Each test prints one pass/fail line (pytest -v adds PASSED/FAILED per test);
runtime budgets are asserted where a criterion carries one.
"""

import random
import time
from math import comb

import pytest

from test_catalog import REPRESENTATIVES
from wickalg import (
    CoeffTensor,
    CoherentParam,
    KmsEvaluator,
    Matrix,
    Polynomial,
    Scalar,
    annihilator_apply,
    braid_check,
    coherent_functional,
    gram_matrix,
    identity,
    ideal_generator_relations,
    index_to_word,
    make_preset,
    minus_one_eigenprojection,
    p_n,
    p_n_by_permutations,
    parse_expression,
    positivity_report,
    print_polynomial,
    quadratic_ideal_check,
    rational,
    spectral_summary,
    t_matrix,
    verify_identity,
    wick_diff_star_algebra_exists,
    wick_ideal_condition_check,
    wick_order,
    word_to_index,
)
from wickalg.diffcalc import form_space_dim
from wickalg.rewrite import _wick_order_strategy


def _line(n, ok, desc):
    print(f"acceptance {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, desc


def test_criterion_01_level2_identity():
    t0 = time.perf_counter()
    for name, d, params in REPRESENTATIVES:
        T = make_preset(name, d, **params).tensor
        assert p_n(T, 2) == identity(T.d * T.d) + t_matrix(T), name
    elapsed = time.perf_counter() - t0
    _line(1, elapsed < 1.0,
          f"P_2 = I + T exactly on all {len(REPRESENTATIVES)} presets "
          f"({elapsed:.2f}s < 1s)")


def test_criterion_02_triple_oracle():
    t0 = time.perf_counter()
    cases = [
        make_preset("qccr", 2, q="1/2"),
        make_preset("tlw", 3, q="1/3"),
        make_preset("twisted_ccr", 3, mu="1/2"),
        make_preset("twisted_car", 3, mu="1/2"),
    ]
    for rs in cases:
        T, d = rs.tensor, rs.d
        fock = CoherentParam.zero(d)
        for n in range(1, 5):
            words = [index_to_word(i, d, n) for i in range(d**n)]
            route_a = gram_matrix(words, fock, T)
            route_b = p_n(T, n)
            # route c: iterated annihilators, then the vacuum component
            data = []
            for wa in words:
                row = []
                for wb in words:
                    y = Polynomial.monomial(wb)
                    for letter in wa:
                        y = annihilator_apply(letter, y, fock, T)
                    row.append(y.constant_term)
                data.append(row)
            route_c = Matrix(data)
            assert route_a.data == route_b.data == route_c.data, (rs.name, n)
    elapsed = time.perf_counter() - t0
    _line(2, elapsed < 30.0,
          f"Gram/recursion/annihilator oracles identical, d<=3, n<=4 "
          f"({elapsed:.1f}s < 30s)")


def test_criterion_03_positivity_frontier():
    # (a) q-commutation at d=2: every level PSD via the braid criterion
    for q in ("1/2", "-1/2", "9/10", "-9/10"):
        T = make_preset("qccr", 2, q=q).tensor
        s = spectral_summary(t_matrix(T))
        assert braid_check(T) and s.norm <= 1.0 + 1e-9
        for n in range(2, 7):
            assert spectral_summary(p_n(T, n)).is_psd, (q, n)
    # (b) counterexamples: no criterion fires / negative witness
    rep = positivity_report(make_preset("bs_ce", tau="3/5").tensor, 3)
    crit = next(c for c in rep.checks if c["name"] == "sufficient_criteria")
    assert not crit["any_fires"]
    rep = positivity_report(
        make_preset("bp_ce", 2, lam="12", eps="-1/10").tensor, 3)
    p3 = next(c for c in rep.checks if c["name"] == "p_3")
    wit = next(c for c in rep.checks if c["name"] == "p3_diagonal_witness")
    assert not p3["is_psd"] and p3["eig_min"] < 0
    assert wit["value"] == "-3/130"  # 1/13 - 1/10, exact
    # (c) rank-one family inside the norm <= 1/2 window
    T = make_preset("tlw", 2, q="-1/5").tensor
    assert spectral_summary(t_matrix(T)).norm <= 0.5 + 1e-9
    for n in range(2, 7):
        assert spectral_summary(p_n(T, n)).is_psd, n
    _line(3, True, "positivity frontier: PSD windows, counterexample witness "
                   "-3/130 at word [1,2,2]")


def test_criterion_04_rank_series():
    t0 = time.perf_counter()

    def ranks(T, n_max=4):
        return [1] + [p_n(T, n).rank() for n in range(1, n_max + 1)]

    assert ranks(make_preset("twisted_ccr", 2, mu="1/2").tensor) == [1, 2, 3, 4, 5]
    car = ranks(make_preset("twisted_car", 3, mu="1/2").tensor)
    assert car == [1, 3, 3, 1, 0]
    assert ranks(make_preset("qccr", 3, q="-1").tensor) == car
    elapsed = time.perf_counter() - t0
    _line(4, elapsed < 60.0,
          f"level rank series {{1,2,3,4,5}} and {{1,3,3,1,0}} exact "
          f"({elapsed:.1f}s < 60s)")


def test_criterion_05_braid_machinery():
    rng = random.Random(7)

    def rat():
        return rational(rng.randint(-3, 3), rng.randint(4, 7))

    re12, im12 = rat(), rat()
    braided = [
        make_preset("qccr", 2, q="1/3").tensor,
        make_preset("q_ij", 2, q11=rat(), q22=rat(), q12=re12, q12_im=im12,
                    q21=re12, q21_im=-im12).tensor,
        make_preset("twisted_ccr", 2, mu="1/2").tensor,
        make_preset("twisted_car", 2, mu="1/2").tensor,
        make_preset("degenerate", 2).tensor,
    ]
    for T in braided:
        assert braid_check(T)
        for n in range(1, 5):
            assert p_n_by_permutations(T, n) == p_n(T, n)
    assert not braid_check(make_preset("tlw", 2, q="1/3").tensor)
    _line(5, True, "braid relation detected correctly; permutation sums "
                   "reproduce every level operator for n<=4")


def test_criterion_06_ideal_suite():
    # quadratic ideal conditions
    ccr = make_preset("twisted_ccr", 2, mu="1/2").tensor
    assert quadratic_ideal_check(ccr, minus_one_eigenprojection(ccr)) == {
        "linear": True, "quadratic": True}
    tlw = make_preset("tlw", 2, q="-1/2").tensor
    assert quadratic_ideal_check(tlw, minus_one_eigenprojection(tlw)) == {
        "linear": True, "quadratic": False}
    # cubic generator family of the twisted anti-commutation algebra, d=3
    t0 = time.perf_counter()
    rs = make_preset("twisted_car", 3, mu="1/3")
    assert wick_ideal_condition_check(rs.tensor, rs.ideal_generators, max_deg=4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    # generator commutation relation: A†A = mu^6 AA†, both routes
    mu = Scalar(rational(1, 2))
    A = Polynomial.monomial((2, 1)) - Polynomial.monomial((1, 2), mu)
    assert wick_order(A.adjoint() * A, ccr) == wick_order(
        (A * A.adjoint()).scale(mu**6), ccr)
    M = ideal_generator_relations(ccr, minus_one_eigenprojection(ccr))
    v = [Scalar(0)] * 4
    v[word_to_index((2, 1), 2)] = Scalar(1)
    v[word_to_index((1, 2), 2)] = -mu
    col = Matrix([[a * b] for a in v for b in v])
    norm2 = Scalar(1) + mu * mu
    assert (col.adjoint() * M * col)[0, 0] == mu**6 * norm2 * norm2
    _line(6, True, f"ideal suite: quadratic conditions, degree-3 generator "
                   f"family ({elapsed:.1f}s < 300s), leading coefficient mu^6")


def test_criterion_07_quantum_su2_identities():
    for nu_s in ("1/2", "1/3"):
        nu = Scalar(rational(nu_s))
        T = make_preset("snu2", nu=nu_s).tensor
        alpha = Polynomial.adjoint_generator(1)
        gamma = Polynomial.adjoint_generator(2)
        C = alpha * gamma - (gamma * alpha).scale(nu)
        R = Polynomial.unit() - alpha.adjoint() * alpha - gamma.adjoint() * gamma
        assert verify_identity(C.adjoint() * C, R * (Polynomial.unit() - R), T)
        rhs = (R * (Polynomial.unit() + R.scale(nu * nu))).scale(-(nu * nu))
        assert verify_identity(C * C.adjoint(), rhs, T)
        fock = CoherentParam.zero(2)
        got = coherent_functional(C * C.adjoint(), fock, T)
        assert got == -(nu * nu) * (Scalar(1) + nu * nu)
    _line(7, True, "defect operator identities hold at nu in {1/2, 1/3}; "
                   "vacuum value -nu^2(1+nu^2) exact")


def test_criterion_08_differential_calculus():
    ccr3 = make_preset("twisted_ccr", 3, mu="1/2").tensor
    car3 = make_preset("twisted_car", 3, mu="1/2").tensor
    for p in range(5):
        assert form_space_dim(ccr3, p) == comb(3, p)
        assert form_space_dim(car3, p) == comb(3 + p - 1, p)
    tlw = make_preset("tlw", 2, q="-1/2").tensor
    assert form_space_dim(tlw, 2) == 1 and form_space_dim(tlw, 3) == 0
    aklt = make_preset("aklt", lam="1").tensor
    for p in range(2, 6):
        assert form_space_dim(aklt, p) == 4
    deg = make_preset("degenerate", 2).tensor
    for p in range(5):
        assert form_space_dim(deg, p) == 2**p
    q = rational(1, 3)
    rec = wick_diff_star_algebra_exists(make_preset("qccr", 2, q=q).tensor)
    assert rec["exists"]
    flip = identity(4).scale(0)
    for i in (1, 2):
        for j in (1, 2):
            flip.data[word_to_index((j, i), 2)][word_to_index((i, j), 2)] = Scalar(1)
    assert rec["R"] == flip.scale(Scalar(1) / Scalar(q))
    _line(8, True, "form dimensions match binomial laws, the spin-chain "
                   "preset gives 4, and R = q^-1 flip")


def test_criterion_09_kms_evaluator():
    lam = Scalar(rational(1, 2))
    free = CoeffTensor(2)
    for i in (1, 2):
        for j in (1, 2):
            expect = lam if i == j else Scalar(0)
            assert kms_value(free, lam, (i, -j)) == expect
    qccr3 = make_preset("qccr", 3, q="1/3").tensor
    for w in [(1,), (-2,), (1, 1, -2), (2, -1, -1)]:
        assert kms_value(qccr3, lam, w) == Scalar(0)
    lam = Scalar(rational(1, 3))
    for T in (qccr3, make_preset("twisted_car", 2, mu="1/2").tensor):
        rng = random.Random(0)
        ev = KmsEvaluator(T, lam)
        d = T.d
        for _ in range(100):
            n, m = rng.randint(0, 2), rng.randint(0, 2)
            w = tuple(rng.randint(1, d) for _ in range(n)) + tuple(
                -rng.randint(1, d) for _ in range(m))
            X = Polynomial.monomial(w)
            k = Polynomial.generator(rng.randint(1, d))
            assert ev.evaluate(k * X) == lam * ev.evaluate(X * k)
            assert ev.evaluate(X * k.adjoint()) == lam * ev.evaluate(k.adjoint() * X)
    _line(9, True, "KMS functional: lambda*delta at T=0, degree vanishing, "
                   "200 random exchange identities exact")


def kms_value(T, lam, w):
    return KmsEvaluator(T, lam).evaluate(Polynomial.monomial(w))


def test_criterion_10_property_suites():
    rng = random.Random(2024)
    tensors = [
        make_preset("qccr", 2, q="1/2").tensor,
        make_preset("twisted_car", 2, mu="1/2").tensor,
        make_preset("snu2", nu="1/2").tensor,
    ]

    def rand_scalar():
        return Scalar(rational(rng.randint(-4, 4), rng.randint(1, 3)),
                      rational(rng.randint(-2, 2), rng.randint(1, 3)))

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.choice([1, 2, -1, -2])
                      for _ in range(rng.randint(0, 4)))
            terms[w] = rand_scalar()
        return Polynomial(terms)

    for trial in range(500):
        p = rand_poly()
        T = tensors[trial % len(tensors)]
        left = wick_order(p, T)
        assert _wick_order_strategy(p, T, "rightmost") == left
        assert _wick_order_strategy(p, T, "random", random.Random(trial)) == left
        # involution compatibility (all three tensors are hermitian)
        assert wick_order(p.adjoint(), T) == left.adjoint()
        # parser round-trip
        assert parse_expression(print_polynomial(p), 2) == p
    _line(10, True, "500 random polynomials: strategy-independent normal "
                    "forms, involution compatibility, parser round-trip")
