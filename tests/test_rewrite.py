"""Normal ordering: correctness, confluence, involution, ideal membership."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import gen_polynomials, polynomials, sample_tensors, tensors
from wickalg import (
    CoeffTensor,
    Matrix,
    Polynomial,
    Scalar,
    ideal_membership,
    is_normal,
    make_preset,
    rational,
    verify_identity,
    wick_order,
)
from wickalg import rewrite
from wickalg.rewrite import TermBudgetExceeded, _wick_order_strategy
from wickalg.scalars import ONE, ZERO

TENSORS = sample_tensors()


def test_is_normal():
    assert is_normal(())
    assert is_normal((1, 2, -1, -2))
    assert not is_normal((-1, 1))
    assert not is_normal((1, -1, 2))


def test_single_relation_examples():
    q = rational(1, 2)
    T = make_preset("qccr", 2, q=q).tensor
    # a1† a1 = 1 + q a1 a1†
    out = wick_order(Polynomial.monomial((-1, 1)), T)
    assert out == Polynomial.unit() + Polynomial.monomial((1, -1), Scalar(q))
    # a1† a2 = q a2 a1†
    out = wick_order(Polynomial.monomial((-1, 2)), T)
    assert out == Polynomial.monomial((2, -1), Scalar(q))

    T = make_preset("tlw", 2, q=q).tensor
    # a1† a2 = q a1 a2†
    out = wick_order(Polynomial.monomial((-1, 2)), T)
    assert out == Polynomial.monomial((1, -2), Scalar(q))


def test_normal_words_are_fixed_points():
    T = TENSORS[1]
    p = Polynomial.monomial((1, 2, -1)) + Polynomial.unit().scale(3)
    assert wick_order(p, T) == p


def test_zero_tensor_annihilates_crossings():
    T = CoeffTensor(2)
    assert wick_order(Polynomial.monomial((-1, 2)), T).is_zero
    assert wick_order(Polynomial.monomial((-1, 1)), T) == Polynomial.unit()


def test_result_is_always_normal():
    for T in TENSORS:
        out = wick_order(Polynomial.monomial((-1, 2, -2, 1)), T)
        assert all(is_normal(w) for w in out.terms)


def test_index_out_of_range():
    T = CoeffTensor(2)
    with pytest.raises(ValueError):
        wick_order(Polynomial.monomial((3,)), T)
    # Letter code 0 names no generator; both engines refuse it.
    qccr = make_preset("qccr", 2, q="1/2").tensor
    for engine in (wick_order, lambda p, T: _wick_order_strategy(p, T, "leftmost")):
        with pytest.raises(ValueError):
            engine(Polynomial.monomial((-1, 0, 1)), qccr)
    # An unknown strategy is refused even when the input has no redex.
    for w in ((-1, 1), (1, -1)):
        with pytest.raises(ValueError, match="unknown strategy 'middle'"):
            _wick_order_strategy(Polynomial.monomial(w), qccr, "middle")


def test_term_budget():
    T = make_preset("qccr", 2, q=2).tensor
    big = Polynomial.monomial((-1, -2, -1, 1, 2, 1))
    with pytest.raises(TermBudgetExceeded):
        wick_order(big, T, cap=2)
    with pytest.raises(TermBudgetExceeded):
        _wick_order_strategy(big, T, "rightmost", cap=2)


# Denominators 2, 3, 5 and 7 in one tensor: the memo's δ is 210.
COPRIME = CoeffTensor(2, {
    (1, 1, 1, 1): rational(1, 2), (1, 2, 1, 2): rational(-2, 3),
    (2, 1, 2, 1): rational(-2, 3), (2, 2, 1, 1): rational(3, 5),
    (1, 1, 2, 2): rational(3, 5), (2, 2, 2, 2): rational(-4, 7),
})


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.sampled_from(TENSORS + [COPRIME]), tensors()).flatmap(
        lambda T: st.tuples(st.just(T), polynomials(T.d, max_len=4, max_terms=3))),
    st.integers(min_value=0, max_value=2**16),
)
def test_confluence_strategies_agree(tp, seed):
    # The sample spread, the coprime-denominator tensor and drawn tensors:
    # complex, non-Hermitian, d ≤ 3.
    T, p = tp
    left = wick_order(p, T)
    assert _wick_order_strategy(p, T, "leftmost") == left
    assert _wick_order_strategy(p, T, "rightmost") == left
    assert _wick_order_strategy(p, T, "random", random.Random(seed)) == left


def test_coprime_denominators_normal_order_exactly():
    # Every word of length 4 over a_1, a_2 and their adjoints: the integer
    # numerators over δ^E come back as the one-step rewriter's Scalars.
    assert rewrite.Rewriter(COPRIME).delta == 210
    for w in product((1, 2, -1, -2), repeat=4):
        p = Polynomial.monomial(w)
        assert wick_order(p, COPRIME) == _wick_order_strategy(p, COPRIME, "leftmost")


@settings(max_examples=60, deadline=None)
@given(
    polynomials(2, max_len=4, max_terms=3),
    st.integers(min_value=0, max_value=len(TENSORS) - 1),
)
def test_involution_compatibility(p, ti):
    # All sample tensors are hermitian, so normal ordering commutes with *.
    T = TENSORS[ti]
    assert wick_order(p.adjoint(), T) == wick_order(p, T).adjoint()


@settings(max_examples=40, deadline=None)
@given(
    polynomials(2, max_len=3, max_terms=2),
    polynomials(2, max_len=3, max_terms=2),
    st.integers(min_value=0, max_value=len(TENSORS) - 1),
)
def test_order_is_ring_homomorphism_on_normal_forms(p, q, ti):
    # Normalizing a product equals normalizing the product of normal forms.
    T = TENSORS[ti]
    assert wick_order(p * q, T) == wick_order(wick_order(p, T) * wick_order(q, T), T)


def test_verify_identity():
    mu = rational(1, 2)
    T = make_preset("twisted_ccr", 2, mu=mu).tensor
    # a1† a2 = mu a2 a1† holds in the twisted algebra
    lhs = Polynomial.monomial((-1, 2))
    rhs = Polynomial.monomial((2, -1), Scalar(mu))
    assert verify_identity(lhs, rhs, T)
    assert not verify_identity(lhs, rhs.scale(2), T)


def test_non_hermitian_inline_tensor_identity():
    # A deliberately non-hermitian two-generator relation family where
    # a1†(a1† - a2†)(a1 - a2)a1 collapses to the constant 1 - mu.
    for mu in (rational(1, 2), rational(1, 3)):
        T = CoeffTensor(2, {(1, 2, 1, 1): Scalar(mu), (2, 1, 1, 1): Scalar(1)})
        a1d = Polynomial.adjoint_generator(1)
        a2d = Polynomial.adjoint_generator(2)
        a1 = Polynomial.generator(1)
        a2 = Polynomial.generator(2)
        p = a1d * (a1d - a2d) * (a1 - a2) * a1
        expect = Polynomial.unit().scale(Scalar(1) - Scalar(mu))
        assert wick_order(p, T) == expect


# -- ideal membership -----------------------------------------------------------


def test_ideal_membership_examples():
    mu = Scalar(rational(1, 2))
    g = Polynomial.monomial((1, 2)) - Polynomial.monomial((2, 1), mu)
    a1 = Polynomial.generator(1)
    a2 = Polynomial.generator(2)
    assert ideal_membership(a1 * g + g * a2, [g], max_deg=3)
    assert ideal_membership(g.scale(Scalar(0, 3)), [g], max_deg=2)
    assert not ideal_membership(Polynomial.monomial((1, 2)), [g], max_deg=2)
    assert not ideal_membership(a1, [g], max_deg=3)
    assert ideal_membership(Polynomial.zero(), [g], max_deg=2)
    # The letters of p and the generators decide: u = a3 is in the span.
    assert ideal_membership(Polynomial.monomial((3,)) * g, [g], max_deg=3)
    assert ideal_membership(Polynomial.monomial((2, 2)), [a2], max_deg=2)


def test_ideal_membership_inhomogeneous_generators():
    # g = a1 a1 a2 + a1 mixes word lengths, so membership is decided over all
    # lengths at once.
    a1 = Polynomial.generator(1)
    a2 = Polynomial.generator(2)
    g = Polynomial.monomial((1, 1, 2)) + a1
    h = Polynomial.monomial((2, 2))
    assert ideal_membership(g.scale(Scalar(2, 1)), [g], max_deg=3)
    assert not ideal_membership(a1, [g], max_deg=3)
    assert not ideal_membership(Polynomial.monomial((1, 1, 2)), [g], max_deg=3)
    # At degree 4 the span is {g, a_i·g, g·a_i}: a1·g − g·a1 is in it, the
    # shared lower part a1 a1 alone is not.
    assert ideal_membership(a1 * g - g * a1, [g], max_deg=4)
    assert ideal_membership(a2 * g + g * a2.scale(3), [g], max_deg=4)
    assert not ideal_membership(Polynomial.monomial((1, 1)), [g], max_deg=4)
    # Together with the homogeneous generator a2 a2.
    assert ideal_membership(g + a1 * h, [g, h], max_deg=3)
    assert ideal_membership(h * a1 - g.scale(Scalar(0, 1)), [h, g], max_deg=3)
    assert not ideal_membership(a1 + h, [g, h], max_deg=3)
    assert not ideal_membership(a1 * h + a2, [g, h], max_deg=3)


def test_ideal_membership_validation():
    g = Polynomial.monomial((1, 2))
    with pytest.raises(ValueError):
        ideal_membership(Polynomial.monomial((-1,)), [g], max_deg=2)
    with pytest.raises(ValueError):
        ideal_membership(Polynomial.monomial((1, 1, 1)), [g], max_deg=2)


@settings(max_examples=30, deadline=None)
@given(
    gen_polynomials(2, max_len=1, max_terms=2),
    gen_polynomials(2, max_len=1, max_terms=2),
)
def test_ideal_membership_closed_under_multiplication(u, v):
    # u·g·v is in the ideal by construction.
    g = Polynomial.monomial((1, 1)) - Polynomial.monomial((2, 2))
    p = u * g * v
    assert ideal_membership(p, [g], max_deg=4)


def _two_rank_membership(p, gens, max_deg, d):
    """Reference decision: p lies in the span of {u·g·v} iff, grade by grade,
    appending p's part to the span vectors keeps their rank."""
    gens = [g for g in gens if g]
    homogeneous = all(g.is_homogeneous() for g in gens)
    grades: dict = {}
    for w, c in p.terms.items():
        grades.setdefault(len(w) if homogeneous else 0, {})[w] = c
    for grade, target in grades.items():
        vecs = []
        for g in gens:
            glen = g.max_word_len()
            for n in range(max_deg - glen + 1):
                if homogeneous and n + glen != grade:
                    continue
                for a in range(n + 1):
                    for u in product(range(1, d + 1), repeat=a):
                        for v in product(range(1, d + 1), repeat=n - a):
                            vecs.append({u + w + v: c for w, c in g.terms.items()})
        words = sorted({w for q in vecs + [target] for w in q})
        rows = [[q.get(w, ZERO) for w in words] for q in vecs + [target]]
        if Matrix(rows).rank() != Matrix(rows[:-1]).rank():
            return False
    return True


def _random_poly(rng, lengths, terms, d=2):
    """A nonzero polynomial of at most ``terms`` words with the given lengths."""
    return Polynomial({
        tuple(rng.randint(1, d) for _ in range(rng.choice(lengths))):
            Scalar(rational(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)),
                   rational(rng.choice([0, 0, 1]), 2))
        for _ in range(terms)
    })


@pytest.mark.parametrize("seed", range(6))
def test_ideal_membership_matches_two_rank_reference(seed):
    # Members (sums of u·g·v), non-members (random words) and mixtures, for
    # homogeneous, inhomogeneous and mixed generator lists at d=2.
    rng = random.Random(seed)
    answers = []
    for gens in ([_random_poly(rng, [2], 2)],
                 [_random_poly(rng, [2], 2), _random_poly(rng, [1], 1)],
                 [_random_poly(rng, [1, 2], 2)],
                 [_random_poly(rng, [2], 2), _random_poly(rng, [1, 3], 2)]):
        gens = [g for g in gens if g]
        max_deg = max(g.max_word_len() for g in gens) + rng.randint(0, 1)
        for _ in range(6):
            member = Polynomial.zero()
            for g in gens:
                room = max_deg - g.max_word_len()
                a = rng.randint(0, room)
                u = _random_poly(rng, [a], 1)
                v = _random_poly(rng, [rng.randint(0, room - a)], 1)
                member = member + u * g * v
            stray = _random_poly(rng, range(max_deg + 1), rng.randint(1, 2))
            for p in (member, stray, member + stray):
                got = ideal_membership(p, gens, max_deg)
                assert got == _two_rank_membership(p, gens, max_deg, 2)
                assert got == _two_rank_membership(p, gens, max_deg, 3)
                answers.append(got)
    assert True in answers and False in answers


def test_ideal_membership_one_echelon_per_grade(monkeypatch):
    calls = []
    echelon = rewrite._echelon

    def counted(rows, cols):
        calls.append((len(rows), cols))
        return echelon(rows, cols)

    monkeypatch.setattr(rewrite, "_echelon", counted)
    a1 = Polynomial.generator(1)
    a2 = Polynomial.generator(2)
    g = Polynomial.monomial((1, 2)) - Polynomial.monomial((2, 1))
    # Homogeneous g: the parts of word length 2 and 3 are two grades.
    assert ideal_membership(g + a1 * g - g * a2, [g], max_deg=3)
    assert len(calls) == 2
    # An inhomogeneous generator puts every length in one grade.
    calls.clear()
    h = g + a1
    assert ideal_membership(h.scale(3) + a2 * h, [h], max_deg=3)
    assert len(calls) == 1


def test_long_word_normal_orders():
    # a1* a1^n = [n]_q a1^(n−1) + qⁿ a1ⁿ a1* at d=1, for a word three times
    # longer than the default recursion limit.
    n, q = 3000, Scalar(rational(1, 2))
    T = make_preset("qccr", 1, q="1/2").tensor
    nf = wick_order(Polynomial.monomial((-1,) + (1,) * n), T)
    assert nf.terms == {(1,) * (n - 1): sum((q**i for i in range(n)), ZERO),
                        (1,) * n + (-1,): q**n}


def _recursive_through(memo, T, k, g):
    """a_k†·a_g in Scalars by the recursion a_k†·a_j a_h = δ_kj·a_h +
    Σ T_{kj}^{k'l} a_l·(a_{k'}†·a_h), memoized in ``memo`` by (k, suffix of g)."""
    if (k, g) not in memo:
        out = {((), k): ONE}
        if g:
            out = {(g[1:], 0): ONE} if g[0] == k else {}
            for kk, l, c in T.row(k, g[0]):
                for (h, m), v in _recursive_through(memo, T, kk, g[1:]).items():
                    rewrite._add(out, ((l,) + h, m), c * v)
        memo[(k, g)] = out
    return memo[(k, g)]


def _unscaled_entry(rw, k, g):
    """δ^{−|g|}·(the memo entry of a_k†·a_g), as Scalars."""
    scale = Scalar(rw.delta) ** len(g)
    return {key: Scalar.coerce(v) / scale for key, v in rw.through(k, g).items()}


# The sample spread, the coprime-denominator tensor and a complex q_ij.
MEMO_TENSORS = TENSORS + [COPRIME, make_preset(
    "q_ij", 2, q11="1/3", q22="1/4", q12="1/2", q12_im="1/2",
    q21="1/2", q21_im="-1/2").tensor]


@pytest.mark.parametrize("ti", range(len(MEMO_TENSORS)))
def test_through_fills_the_memo_of_the_recursion(ti):
    # The values of the recursion, scaled by δ^{|g|}; the memo holds the
    # nonempty prefixes of the asked words, every asked nonempty word among
    # them, and for a real tensor its numerators are ints.
    T, rng = MEMO_TENSORS[ti], random.Random(ti)
    fast, memo = rewrite.Rewriter(T), {}
    asked = set()
    for _ in range(30):
        k = rng.randint(1, T.d)
        g = tuple(rng.randint(1, T.d) for _ in range(rng.randint(0, 6)))
        assert _unscaled_entry(fast, k, g) == _recursive_through(memo, T, k, g)
        asked.add((k, g))
        prefixes = {(kk, gg[:n]) for kk, gg in asked for n in range(1, len(gg) + 1)}
        assert fast._cache.keys() <= prefixes
        assert {(kk, gg) for kk, gg in asked if gg} <= fast._cache.keys()
    if all(c.is_real for c in T.entries.values()):
        assert all(type(v) is int for entry in fast._cache.values() for v in entry.values())


@pytest.mark.parametrize("ti", range(len(MEMO_TENSORS)))
def test_through_extends_a_prefix_by_one_entry(ti):
    # One new entry, which holds δ^{|h|}·a_k†·a_h.
    T, rng = MEMO_TENSORS[ti], random.Random(ti)
    for _ in range(20):
        rw = rewrite.Rewriter(T)
        k = rng.randint(1, T.d)
        g = tuple(rng.randint(1, T.d) for _ in range(rng.randint(0, 5)))
        rw.through(k, g)
        before = set(rw._cache)
        h = g + (rng.randint(1, T.d),)
        assert _unscaled_entry(rw, k, h) == _recursive_through({}, T, k, h)
        assert set(rw._cache) - before == {(k, h)}
