"""Gauge-KMS functionals: rank series, evaluator, and a Gibbs-trace oracle."""

import random
import re
from itertools import product

import numpy as np
import pytest

import wickalg.kms as kms
from conftest import DenseKmsEvaluator
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
    wick_order,
    word_to_index,
)
from wickalg.rewrite import TermBudgetExceeded, rewriter_for
from wickalg.scalars import _over

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
    # one past cap 1023, and neither it, a lower bidegree nor a tree is built.
    def built(*args, **kwargs):
        raise AssertionError("built before the d^(n+m) cap check")

    monkeypatch.setattr(kms, "_solve", built)
    monkeypatch.setattr(kms, "_exchanged_forms", built)
    monkeypatch.setattr(KmsEvaluator, "_bidegree_words", built)
    ev = KmsEvaluator(TCAR, LAM, cap=1023)
    with pytest.raises(DimensionCapExceeded, match="1024"):
        ev.evaluate(Polynomial.monomial((1,) * 5 + (-1,) * 5))
    assert ev._solved == {(0, 0)} and ev._trees == {}
    monkeypatch.undo()
    X = Polynomial.monomial((1, 2, -2, -1))  # (2,2): 2^4 = 16 unknowns
    with pytest.raises(DimensionCapExceeded, match="16"):
        KmsEvaluator(TCAR, LAM, cap=15).evaluate(X)
    assert KmsEvaluator(TCAR, LAM, cap=16).evaluate(X) == kms_evaluate(X, LAM, TCAR)


@pytest.mark.parametrize("lam", [LAM, Scalar(1)])
@pytest.mark.parametrize("w", [(-1, 1), (3, -3), (0,), (1, 0, -1)])
def test_value_of_a_word_not_normal_refused_before_anything_is_built(monkeypatch, lam, w):
    # A creator before an annihilator, a letter past d = 2, or a letter 0 names the
    # word in a ValueError, at λ ≠ 1 as at λ = 1, and no system is built for it.
    def built(*args, **kwargs):
        raise AssertionError("built for a word that is not normal")

    ev = KmsEvaluator(TCAR, lam)
    monkeypatch.setattr(ev, "_ensure", built)
    with pytest.raises(ValueError, match=re.escape(str(w))):
        ev.value_of_word(w)
    assert ev._solved == {(0, 0)} and ev._trees == {}


@pytest.mark.parametrize("lam", [LAM, Scalar(rational(2, 5))])
@pytest.mark.parametrize("w", [(1, -1), (2, 1, -1, -2), (1, 2, -1), ()])
def test_value_of_a_word_given_as_a_list_equals_the_tuple(lam, w):
    # value_of_word reads any sequence as a tuple: a list is no unhashable key.
    assert KmsEvaluator(TCAR, lam).value_of_word(list(w)) == KmsEvaluator(TCAR, lam).value_of_word(w)


def test_complex_lambda_rejected():
    with pytest.raises(ValueError):
        KmsEvaluator(TCAR, Scalar(0, 1))


def test_negative_lambda_refused_like_the_series():
    # At λ = −1/2 the (1,1) system of qccr d=2 q=1/2 solves to κ(a1 a1*) = −2/5,
    # a negative value of a positive element; the evaluator refuses λ < 0 with
    # the message of kms_series.
    T = make_preset("qccr", 2, q="1/2").tensor
    lam = Scalar(rational(-1, 2))
    message = "lambda must be a nonnegative real rational"
    with pytest.raises(ValueError, match=message):
        kms_evaluate(Polynomial.monomial((1, -1)), lam, T)
    with pytest.raises(ValueError, match=message):
        kms_series(T, lam, 2)
    assert kms_evaluate(Polynomial.monomial((1, -1)), Scalar(0), T) == Scalar(0)


QIJ = make_preset("q_ij", 2, q11="1/3", q22="1/4", q12="1/2", q12_im="1/2",
                  q21="1/2", q21_im="-1/2").tensor
SYSTEMS = [make_preset("qccr", 2, q="1/2").tensor, make_preset("twisted_ccr", 2, mu="1/3").tensor,
           TCAR, QIJ]


AKLT = make_preset("aklt", None, lam="4/3").tensor


@pytest.mark.parametrize("T", SYSTEMS + [AKLT, QCCR3])
@pytest.mark.parametrize("lam", [LAM, Scalar(rational(3, 2)), Scalar(1), Scalar(2)])
def test_bidegree_values_match_the_dense_evaluator(T, lam):
    # Every (n, m) block up to (3,3), (2,2) for aklt, solves to exactly the values
    # of the dense build (identity matrix, one wick_order per n-letter exchanged word
    # a_J†·a_I, Matrix.solve), or both refuse it with the same message: λ = 1/q = 2
    # makes the (1,1) block of qccr q=1/2 singular, and λ = 1 every unbalanced block.
    ev, ref = KmsEvaluator(T, lam), DenseKmsEvaluator(T, lam)
    top = 3 if T is not AKLT else 2
    singular = set()
    for n in range(top + 1):
        for m in range(top + 1) if lam == 1 else [n]:
            try:
                ref._ensure(n, m)
            except KmsNonUniquenessError as exc:
                singular.add((n, m))
                with pytest.raises(KmsNonUniquenessError, match=re.escape(str(exc))):
                    ev._ensure(n, m)
                continue
            ev._ensure(n, m)
    assert ev.known == ref.known and ev._solved == ref._solved
    if T is SYSTEMS[0] and lam == 2:
        assert (1, 1) in singular


def _phi(T, n: int, m: int):
    """Φ of the (n, m) block as a float matrix: row a_i a_{I'} a_J† holds the (n, m)
    words of a_{I'}·a_J†a_i, each normal-ordered by wick_order."""
    words = KmsEvaluator(T, LAM)._bidegree_words(n, m)
    idx = {w: a for a, w in enumerate(words)}
    phi = np.zeros((len(words), len(words)), dtype=complex)
    for a, w in enumerate(words):
        nf = wick_order(Polynomial.monomial(w[1:] + w[:1]), T)
        for v, c in nf.terms.items():
            if len(v) == n + m:
                phi[a, idx[v]] += c.to_complex()
    return phi


@pytest.mark.parametrize("family, params, lam", [("qccr", {"q": "-1/2"}, 4),
                                                  ("twisted_car", {"mu": "1/2"}, 2)])
def test_negative_eigenvalue_of_phi_refused_as_before(family, params, lam):
    # λΦ has the eigenvalue −1 at (2,2), which alone makes the n-letter system
    # I − λ²Φ² singular; it has +1 as well, so the one-letter system I − λΦ refuses
    # (2,2) too, with the same message.
    T = make_preset(family, 2, **params).tensor
    spectrum = np.linalg.eigvals(lam * _phi(T, 2, 2))
    assert min(abs(spectrum + 1)) < 1e-9 and min(abs(spectrum - 1)) < 1e-9
    ev, ref = KmsEvaluator(T, Scalar(lam)), DenseKmsEvaluator(T, Scalar(lam))
    message = f"bidegree (2,2) system is singular at lambda={lam}"
    for evaluator in (ref, ev):
        with pytest.raises(KmsNonUniquenessError, match=re.escape(message)):
            evaluator._ensure(2, 2)
    assert ev.known == ref.known


@pytest.mark.parametrize("lam", [LAM, Scalar(1)])
def test_one_tree_per_letter_shared_by_every_bidegree(monkeypatch, lam):
    # _exchanged_forms is asked only for one-letter words a_i, and for each letter
    # at most once per adjoint word J over all bidegrees up to (3,3).
    asked = []

    def recording(T, gen, dags, tree=None):
        asked.extend((gen, J) for J in dags)
        return exchanged(T, gen, dags, tree)

    exchanged = kms._exchanged_forms
    monkeypatch.setattr(kms, "_exchanged_forms", recording)
    ev = KmsEvaluator(SYSTEMS[1], lam)
    for n, m in [(3, 3)] if lam != 1 else product(range(4), repeat=2):
        try:
            ev._ensure(n, m)
        except KmsNonUniquenessError:
            continue
    assert (3, 3) in ev._solved and all(len(gen) == 1 for gen, _ in asked)
    assert len(asked) == len(set(asked))


@pytest.mark.parametrize("T", SYSTEMS + [QCCR3])
def test_shared_suffix_normal_forms_match_wick_order(T):
    for n, m in [(0, 2), (1, 2), (2, 2), (3, 1), (2, 3)]:
        words = KmsEvaluator(T, LAM)._bidegree_words(n, m)
        dags = [w[n:] for w in words[:T.d**m]]
        for gen in {w[:n] for w in words}:
            got = list(kms._exchanged_forms(T, gen, dags))
            assert [J for J, _ in got] == dags
            for J, (terms, den) in got:
                nf = {g + h: _over(c, den) for (g, h), c in terms.items()}
                assert nf == wick_order(Polynomial.monomial(J + gen), T).terms


def _parent_work(T, gen, dags) -> int:
    """The largest term budget one wick_order of an exchanged word spends."""
    work = 0
    for J in dags:
        wick_order(Polynomial.monomial(J + gen), T)
        work = max(work, rewriter_for(T)._work)
    return work


def test_shared_suffix_budget_counts_each_word_along_its_path(monkeypatch):
    # The tree spends per word what wick_order spends on it: a budget equal to
    # the largest per-word spend passes, one less is refused.
    T = make_preset("twisted_ccr", 2, mu="1/3").tensor
    dags = [w[2:] for w in KmsEvaluator(T, LAM)._bidegree_words(2, 3)[:8]]
    for gen in [(1, 2), (2, 2, 1)]:
        work = _parent_work(T, gen, dags)
        assert work > 10
        monkeypatch.setattr(kms, "DEFAULT_TERM_CAP", work)
        assert len(list(kms._exchanged_forms(T, gen, dags))) == len(dags)
        monkeypatch.setattr(kms, "DEFAULT_TERM_CAP", work - 1)
        with pytest.raises(TermBudgetExceeded, match=f"cap={work - 1}"):
            list(kms._exchanged_forms(T, gen, dags))
    # a_J† alone is already normal and spends nothing, as in wick_order
    assert _parent_work(T, (), dags) == 0
    monkeypatch.setattr(kms, "DEFAULT_TERM_CAP", 0)
    assert len(list(kms._exchanged_forms(T, (), dags))) == len(dags)
    with pytest.raises(TermBudgetExceeded):
        KmsEvaluator(T, LAM).evaluate(Polynomial.monomial((1, -1)))
