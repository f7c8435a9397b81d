"""Gauge-KMS functionals: rank series, evaluator, and a Gibbs-trace oracle."""

import random

import numpy as np
import pytest

import wickalg.kms as kms
from wickalg import (
    CoeffTensor,
    CoherentParam,
    DimensionCapExceeded,
    KmsEvaluator,
    KmsNonUniquenessError,
    Matrix,
    Polynomial,
    Scalar,
    annihilator_apply,
    gram_levels,
    index_to_word,
    kms_evaluate,
    kms_series,
    make_preset,
    p_n,
    rational,
    word_to_index,
)

TCAR = make_preset("twisted_car", 2, mu="1/2").tensor
QCCR3 = make_preset("qccr", 3, q="1/3").tensor
LAM = Scalar(rational(1, 3))


def test_kms_series_free_tensor():
    out = kms_series(CoeffTensor(2), rational(1, 2), 3)
    assert out["ranks"] == [1, 2, 4, 8]
    assert out["partial_sums"][-1] == Scalar(4)  # 1 + 1 + 1 + 1


def test_kms_series_twisted_car():
    out = kms_series(TCAR, LAM, 4)
    assert out["ranks"] == [1, 2, 1, 0, 0]
    assert out["partial_sums"][-1] == Scalar(rational(16, 9))  # 1 + 2/3 + 1/9


def test_kms_series_level_zero():
    out = kms_series(TCAR, LAM, 0)
    assert out["ranks"] == [1]
    assert out["partial_sums"] == [Scalar(1)]


# Presets whose level Gram operators are not PSD, so psd_rank finishes their
# ranks by the echelon of an indefinite Schur complement.
INDEFINITE = [("tlw", 2, {"q": "-1"}, 5), ("snu2", None, {"nu": "-2"}, 5),
              ("aklt", None, {"lam": "2"}, 4)]


@pytest.mark.parametrize("family, d, params, n_max", INDEFINITE)
def test_kms_series_ranks_on_indefinite_levels(family, d, params, n_max):
    T = make_preset(family, d, **params).tensor
    levels = list(gram_levels(T, n_max))
    assert not all(p.psd_rank()[0] for p in levels)
    assert any(p.rank() < p.rows for p in levels)
    assert kms_series(T, LAM, n_max)["ranks"] == [1] + [p.rank() for p in levels]


def test_kms_series_takes_no_general_rank(monkeypatch):
    def refuse(self):
        raise AssertionError("Matrix.rank called")

    monkeypatch.setattr(Matrix, "rank", refuse)
    assert kms_series(make_preset("tlw", 2, q="-1").tensor, LAM, 4)["ranks"] == [1, 2, 4, 6, 9]


def test_kms_series_validation():
    with pytest.raises(ValueError):
        kms_series(TCAR, rational(-1, 2), 2)
    with pytest.raises(ValueError):
        kms_series(CoeffTensor(2, {(1, 2, 1, 2): Scalar(1)}), rational(1, 2), 2)


def test_free_tensor_values():
    T = CoeffTensor(2)
    lam = Scalar(rational(1, 2))
    for i in (1, 2):
        for j in (1, 2):
            got = kms_evaluate(Polynomial.monomial((i, -j)), lam, T)
            assert got == (lam if i == j else Scalar(0))
    assert kms_evaluate(Polynomial.unit(), lam, T) == Scalar(1)


def test_unbalanced_words_vanish():
    lam = Scalar(rational(1, 2))
    for w in [(1,), (-2,), (1, 1, -2), (1, -1, -2)]:
        assert kms_evaluate(Polynomial.monomial(w), lam, QCCR3) == Scalar(0)


def test_twisted_car_exact_values():
    ev = KmsEvaluator(TCAR, LAM)
    assert ev.evaluate(Polynomial.monomial((1, -1))) == Scalar(rational(1, 4))
    assert ev.evaluate(Polynomial.monomial((2, -2))) == Scalar(rational(13, 64))
    # the functional is normalized and linear
    p = Polynomial.monomial((1, -1)) + Polynomial.monomial((2, -2))
    assert ev.evaluate(p) == Scalar(rational(29, 64))


def test_matches_gibbs_trace_oracle():
    # Independent route: the normalized trace of lambda^N X over the level
    # quotient spaces.  The twisted anti-commutation ranks vanish at n >= 3,
    # so the trace is a finite sum and Z = (1 + lambda)^2.
    T, d, lam = TCAR, 2, float(LAM.to_complex().real)
    fock = CoherentParam.zero(d)
    n_max = 2
    z = 0.0
    traces = {(i, j): 0.0 for i in (1, 2) for j in (1, 2)}
    for n in range(n_max + 1):
        dim = d**n
        pn = np.eye(1) if n == 0 else p_n(T, n).to_complex()
        evals, evecs = np.linalg.eigh(pn)
        keep = evecs[:, evals > 1e-9]
        q = keep @ keep.conj().T  # projection onto the level-n quotient
        z += lam**n * keep.shape[1]
        for (i, j) in traces:
            m = np.zeros((dim, dim), dtype=complex)
            for col in range(dim):
                w = index_to_word(col, d, n) if n else ()
                y = annihilator_apply(j, Polynomial.monomial(w), fock, T)
                for v, c in y.terms.items():
                    m[word_to_index((i,) + v, d), col] += c.to_complex()
            traces[(i, j)] += lam**n * np.trace(m @ q).real
    ev = KmsEvaluator(T, LAM)
    for (i, j), tr in traces.items():
        got = float(ev.evaluate(Polynomial.monomial((i, -j))).to_complex().real)
        assert got == pytest.approx(tr / z, abs=1e-9), (i, j)


@pytest.mark.parametrize("T,lam", [(QCCR3, LAM), (TCAR, LAM)])
def test_exchange_self_consistency(T, lam):
    rng = random.Random(0)
    ev = KmsEvaluator(T, lam)
    d = T.d
    for _ in range(20):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        w = tuple(rng.randint(1, d) for _ in range(n)) + tuple(
            -rng.randint(1, d) for _ in range(m)
        )
        X = Polynomial.monomial(w)
        k = Polynomial.generator(rng.randint(1, d))
        assert ev.evaluate(k * X) == lam * ev.evaluate(X * k)
        assert ev.evaluate(X * k.adjoint()) == lam * ev.evaluate(k.adjoint() * X)


def test_singular_fugacities_raise():
    # lambda = 1/q makes the balanced (1,1) block singular for qccr.
    T = make_preset("qccr", 2, q="1/2").tensor
    with pytest.raises(KmsNonUniquenessError):
        kms_evaluate(Polynomial.monomial((1, -1)), Scalar(2), T)
    # lambda = 1 keeps unbalanced words alive and the (1,0) block singular.
    with pytest.raises(KmsNonUniquenessError):
        kms_evaluate(Polynomial.monomial((1,)), Scalar(1), T)


def test_bidegree_cap():
    with pytest.raises(ValueError):
        kms_evaluate(Polynomial.monomial((1,) * 5 + (-1,) * 5), LAM, TCAR, cap=1023)


def test_bidegree_system_refused_before_anything_is_built(monkeypatch):
    # The (n, m) system has d^(n+m) unknowns: (5,5) at d = 2 has 2^10 = 1024,
    # one past cap 1023, and neither it nor a lower bidegree is built.
    def built(*args, **kwargs):
        raise AssertionError("built before the d^(n+m) cap check")

    monkeypatch.setattr(kms, "identity", built)
    monkeypatch.setattr(KmsEvaluator, "_bidegree_words", built)
    ev = KmsEvaluator(TCAR, LAM, cap=1023)
    with pytest.raises(DimensionCapExceeded, match="1024"):
        ev.evaluate(Polynomial.monomial((1,) * 5 + (-1,) * 5))
    assert ev._solved == {(0, 0)}
    monkeypatch.undo()
    X = Polynomial.monomial((1, 2, -2, -1))  # (2,2): 2^4 = 16 unknowns
    with pytest.raises(DimensionCapExceeded, match="16"):
        KmsEvaluator(TCAR, LAM, cap=15).evaluate(X)
    assert KmsEvaluator(TCAR, LAM, cap=16).evaluate(X) == kms_evaluate(X, LAM, TCAR)


def test_complex_lambda_rejected():
    with pytest.raises(ValueError):
        KmsEvaluator(TCAR, Scalar(0, 1))
