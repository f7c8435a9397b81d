"""Coherent/Fock functionals, Gram matrices, the annihilator recursion."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import gen_polynomials, gen_words, sample_tensors, scalars, tensors
import wickalg.diffcalc as diffcalc
from wickalg import (
    CoherentParam,
    Polynomial,
    Scalar,
    annihilator_apply,
    coherent_functional,
    gram_matrix,
    index_to_word,
    inner_product,
    make_preset,
    p_n,
    rational,
    wick_order,
)
from wickalg.rewrite import Rewriter, _wick_order_strategy
from wickalg.states import _normal_value

TENSORS = sample_tensors()


def test_coherent_param():
    phi = CoherentParam((1, Scalar(0, 1)))
    assert phi.d == 2 and phi.component(2) == Scalar(0, 1)
    with pytest.raises(ValueError):
        coherent_functional(Polynomial.unit(), CoherentParam.zero(3), TENSORS[1])


def test_fock_values():
    T = make_preset("qccr", 2, q="1/2").tensor
    fock = CoherentParam.zero(2)
    assert coherent_functional(Polynomial.unit(), fock, T) == Scalar(1)
    # normal nonempty words vanish in the Fock state
    assert coherent_functional(Polynomial.monomial((1,)), fock, T) == Scalar(0)
    assert coherent_functional(Polynomial.monomial((1, -1)), fock, T) == Scalar(0)
    # a1† a1 -> 1 + q a1 a1† -> 1
    assert coherent_functional(Polynomial.monomial((-1, 1)), fock, T) == Scalar(1)


def test_coherent_values():
    T = make_preset("qccr", 2, q="1/2").tensor
    phi = CoherentParam((rational(1, 3), Scalar(0, 1)))
    # gen letter i contributes conj(phi_i), dag letter j contributes phi_j
    got = coherent_functional(Polynomial.monomial((2, -1)), phi, T)
    assert got == Scalar(0, -1) * Scalar(rational(1, 3))
    # eigenvalue relation: omega((f - <phi,f>)(f - <phi,f>)†) = 0 at f = a1
    f = Polynomial.generator(1) - Polynomial.monomial((), rational(1, 3))
    assert coherent_functional(f * f.adjoint(), phi, T) == Scalar(0)


# The sample spread plus a complex q_ij; Fock, real and complex φ.
CROSS_TENSORS = TENSORS + [make_preset(
    "q_ij", 2, q11="1/3", q22="1/4", q12="1/2", q12_im="1/2",
    q21="1/2", q21_im="-1/2").tensor]
PHIS = [
    CoherentParam.zero(2),
    CoherentParam((rational(1, 2), rational(-1, 3))),
    CoherentParam((Scalar(rational(1, 2), rational(1, 3)), Scalar(0, -1))),
]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(gen_words(2, max_len=3), max_size=4).map(lambda ws: [()] + ws),
    gen_polynomials(2, max_len=3, max_terms=3),
    gen_polynomials(2, max_len=3, max_terms=3),
    st.integers(min_value=0, max_value=len(CROSS_TENSORS) - 1),
    st.sampled_from(PHIS),
)
def test_annihilator_route_matches_rewriting(words, f, g, ti, phi):
    # Inner products and Gram entries, carried by the annihilator recursion,
    # equal the value of the one-step rewriter's normal form (the memoized
    # engine shares that recursion, so it is no independent reference).
    T = CROSS_TENSORS[ti]

    def ref(p):
        return _normal_value(_wick_order_strategy(p, T, "leftmost"), phi)

    assert inner_product(f, g, phi, T) == ref(f.adjoint() * g)
    gram = gram_matrix(words, phi, T)
    for a, wa in enumerate(words):
        for b, wb in enumerate(words):
            p = Polynomial.monomial(wa).adjoint() * Polynomial.monomial(wb)
            assert gram.data[a][b] == ref(p), (wa, wb)


def test_inner_product_examples():
    T = make_preset("qccr", 2, q="1/2").tensor
    fock = CoherentParam.zero(2)
    a1 = Polynomial.generator(1)
    a2 = Polynomial.generator(2)
    assert inner_product(a1, a1, fock, T) == Scalar(1)
    assert inner_product(a1, a2, fock, T) == Scalar(0)
    assert inner_product(a1 * a2, a2 * a1, fock, T) == Scalar(rational(1, 2))
    with pytest.raises(ValueError):
        inner_product(Polynomial.monomial((-1,)), a1, fock, T)


@settings(max_examples=30, deadline=None)
@given(
    gen_polynomials(2, max_len=3, max_terms=2),
    gen_polynomials(2, max_len=3, max_terms=2),
    st.integers(min_value=0, max_value=len(TENSORS) - 1),
)
def test_inner_product_is_hermitian_form(f, g, ti):
    T = TENSORS[ti]
    fock = CoherentParam.zero(2)
    assert inner_product(f, g, fock, T) == inner_product(g, f, fock, T).conjugate()


def test_fock_degree_orthogonality():
    # Words of different lengths are Fock-orthogonal.
    T = make_preset("twisted_ccr", 2, mu="1/2").tensor
    fock = CoherentParam.zero(2)
    assert inner_product(Polynomial.monomial((1,)),
                         Polynomial.monomial((1, 2)), fock, T) == Scalar(0)


@pytest.mark.parametrize("name,d,params", [
    ("qccr", 2, {"q": "1/2"}),
    ("twisted_car", 2, {"mu": "1/2"}),
])
def test_gram_matrix_equals_level_operator(name, d, params):
    T = make_preset(name, d, **params).tensor
    fock = CoherentParam.zero(d)
    for n in (1, 2, 3):
        words = [index_to_word(i, d, n) for i in range(d**n)]
        g = gram_matrix(words, fock, T)
        p = p_n(T, n)
        assert g.data == p.data


def test_gram_matrix_rejects_dag_words():
    T = TENSORS[1]
    fock = CoherentParam.zero(2)
    with pytest.raises(ValueError):
        gram_matrix([(1, -1)], fock, T)
    # letters outside 1..d, in a Gram word list or an inner-product factor
    for words in ([(3,), (1,)], [(1, 3)], [(0,)]):
        with pytest.raises(ValueError):
            gram_matrix(words, fock, T)
    a1, a3 = Polynomial.generator(1), Polynomial.generator(3)
    for f, g in ((a3, a3), (a1, a3), (a3, a1)):
        with pytest.raises(ValueError):
            inner_product(f, g, fock, T)


def test_annihilator_apply_base_cases():
    T = make_preset("qccr", 2, q="1/2").tensor
    phi = CoherentParam((rational(1, 3), 0))
    unit = Polynomial.unit()
    assert annihilator_apply(1, unit, phi, T) == Polynomial.monomial((), rational(1, 3))
    assert annihilator_apply(2, unit, phi, T).is_zero
    # lambda(1†)(a1) = 1 + q a1 lambda(1†)(1)
    got = annihilator_apply(1, Polynomial.generator(1), phi, T)
    expect = unit + Polynomial.monomial((1,), Scalar(rational(1, 2)) * Scalar(rational(1, 3)))
    assert got == expect
    with pytest.raises(ValueError):
        annihilator_apply(3, unit, phi, T)
    with pytest.raises(ValueError):
        annihilator_apply(1, Polynomial.monomial((-1,)), phi, T)


@settings(max_examples=30, deadline=None)
@given(
    gen_polynomials(2, max_len=3, max_terms=2),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=len(TENSORS) - 1),
)
def test_annihilator_consistent_with_rewriting(x, i, ti):
    # omega(a_i† x) computed via the annihilator recursion equals the direct
    # functional value, for the Fock state.
    T = TENSORS[ti]
    fock = CoherentParam.zero(2)
    lhs = annihilator_apply(i, x, fock, T)
    direct = wick_order(Polynomial.adjoint_generator(i) * x, T)
    # Compare Fock expectations against every left test word.
    for w in [(), (1,), (2,), (1, 2)]:
        left = Polynomial.monomial(w).adjoint()
        a = coherent_functional(left * lhs, fock, T)
        b = coherent_functional(left * direct, fock, T)
        assert a == b


def _trailing_dag_to_phi(p: Polynomial, phi: CoherentParam) -> Polynomial:
    """Each normal word g·a_m† of p becomes φ_m·g; words without a† stay."""
    out = Polynomial.zero()
    for w, c in p.terms.items():
        if w and w[-1] < 0:
            out = out + Polynomial.monomial(w[:-1], c * phi.component(-w[-1]))
        else:
            out = out + Polynomial.monomial(w, c)
    return out


@st.composite
def _annihilator_cases(draw):
    """(x, i, T, φ): T from the cross spread or drawn (complex, non-Hermitian,
    d ≤ 3), φ Fock, real or complex, x and i over T's generators."""
    T = draw(st.one_of(st.sampled_from(CROSS_TENSORS), tensors()))
    if T.d == 2 and draw(st.booleans()):
        phi = draw(st.sampled_from(PHIS + [CoherentParam((0, Scalar(rational(2, 3), rational(-1, 5))))]))
    else:
        phi = CoherentParam(tuple(draw(st.lists(st.one_of(st.just(0), scalars),
                                                min_size=T.d, max_size=T.d))))
    x = draw(gen_polynomials(T.d, max_len=3, max_terms=3))
    return x, draw(st.integers(min_value=1, max_value=T.d)), T, phi


@settings(max_examples=100, deadline=None)
@given(_annihilator_cases())
def test_annihilator_apply_matches_one_step_rewriter(case):
    # λ_φ(a_i†)x is the one-step rewriter's normal form of a_i†·x with each
    # trailing a_m† replaced by φ_m, as a polynomial, not only under ω_φ.
    x, i, T, phi = case
    normal = _wick_order_strategy(Polynomial.adjoint_generator(i) * x, T, "leftmost")
    assert all(c > 0 for w in normal.terms for c in w[:-1])  # at most a trailing a†
    assert annihilator_apply(i, x, phi, T) == _trailing_dag_to_phi(normal, phi)


def test_states_do_not_split(monkeypatch):
    # Gram entries, inner products and annihilators contract the memo of
    # Rewriter.through directly; diffcalc.d_and_twist, which splits a_k†·f by
    # its trailing a_m†, serves other callers.
    def refuse(f, T):
        raise AssertionError("d_and_twist called")

    monkeypatch.setattr(diffcalc, "d_and_twist", refuse)
    T = CROSS_TENSORS[-1]
    f = Polynomial.generator(1) * Polynomial.generator(2) + Polynomial.generator(2)
    g = Polynomial.generator(2) * Polynomial.generator(1)
    for phi in PHIS:
        ref = _normal_value(_wick_order_strategy(f.adjoint() * g, T, "leftmost"), phi)
        assert inner_product(f, g, phi, T) == ref
        normal = _wick_order_strategy(Polynomial.adjoint_generator(1) * g, T, "leftmost")
        assert annihilator_apply(1, g, phi, T) == _trailing_dag_to_phi(normal, phi)
    words = [index_to_word(k, 2, 2) for k in range(4)]
    assert gram_matrix(words, CoherentParam.zero(2), T).data == p_n(T, 2).data


# Word lists with mixed lengths, a repeated word and the empty word.
ORACLE_WORDS = {
    2: [(), (1,), (2, 1), (1, 2, 2), (2, 1), (2,), (1, 1)],
    3: [(), (3,), (1, 2), (2, 3, 1), (1, 2), (3, 3)],
}
COMPLEX_PHI = {
    2: CoherentParam((Scalar(rational(1, 2), rational(1, 3)), Scalar(0, -1))),
    3: CoherentParam((Scalar(0, 1), rational(-1, 2), Scalar(rational(1, 3), rational(2, 5)))),
}


@pytest.mark.parametrize("T", [CROSS_TENSORS[-1], make_preset("aklt", lam="3/2").tensor],
                         ids=["q_ij_complex", "aklt"])
@pytest.mark.parametrize("fock", [True, False], ids=["fock", "complex_phi"])
def test_states_match_one_step_rewriter(T, fock):
    # Every Gram entry, an inner product and the annihilators equal the
    # one-step rewriter's value of u†·v; T is Hermitian, so the Gram matrix
    # is Hermitian at every φ, complex ones included.
    words = ORACLE_WORDS[T.d]
    phi = CoherentParam.zero(T.d) if fock else COMPLEX_PHI[T.d]

    def ref(p):
        return _normal_value(_wick_order_strategy(p, T, "leftmost"), phi)

    gram = gram_matrix(words, phi, T)
    mono = [Polynomial.monomial(w) for w in words]
    for a, u in enumerate(mono):
        for b, v in enumerate(mono):
            assert gram.data[a][b] == ref(u.adjoint() * v), (words[a], words[b])
            assert gram.data[b][a] == gram.data[a][b].conjugate()
    coeffs = [Scalar(rational(1, 2), 1), Scalar(-2), Scalar(0, rational(1, 3))]
    F = mono[1] * Polynomial.monomial((), coeffs[0]) + mono[2] * Polynomial.monomial((), coeffs[1])
    G = mono[0] * Polynomial.monomial((), coeffs[2]) + mono[3] + mono[5] * Polynomial.monomial((), coeffs[1])
    assert inner_product(F, G, phi, T) == ref(F.adjoint() * G)
    for i in range(1, T.d + 1):
        normal = _wick_order_strategy(Polynomial.adjoint_generator(i) * G, T, "leftmost")
        assert annihilator_apply(i, G, phi, T) == _trailing_dag_to_phi(normal, phi)


def test_states_reject_bad_input():
    T = CROSS_TENSORS[-1]
    fock, wrong_length = CoherentParam.zero(2), CoherentParam.zero(3)
    a1 = Polynomial.generator(1)
    for bad in (Polynomial.monomial((-1,)), Polynomial.monomial((2, -1)),  # dagger letters
                Polynomial.monomial((3,)), Polynomial.monomial((1, 0))):  # out of range
        for call in (lambda: inner_product(bad, a1, fock, T),
                     lambda: inner_product(a1, bad, fock, T),
                     lambda: annihilator_apply(1, bad, fock, T)):
            with pytest.raises(ValueError):
                call()
    for i in (0, 3):
        with pytest.raises(ValueError):
            annihilator_apply(i, a1, fock, T)
    for call in (lambda: inner_product(a1, a1, wrong_length, T),
                 lambda: annihilator_apply(1, a1, wrong_length, T),
                 lambda: gram_matrix([(1,)], wrong_length, T)):
        with pytest.raises(ValueError):
            call()


def test_one_annihilator_per_prefix(monkeypatch):
    # gram_matrix carries every column through one chain: one
    # Rewriter.annihilate call per distinct nonempty prefix of its words
    # (3 + 9 + 27 = 39 for all 3³ words), however many columns it has.
    T = make_preset("twisted_ccr", 3, mu="1/3").tensor
    real, calls = Rewriter.annihilate, []

    def counting(self, k, scaled, phi):
        calls.append(k)
        return real(self, k, scaled, phi)

    monkeypatch.setattr(Rewriter, "annihilate", counting)
    words = [index_to_word(i, 3, 3) for i in range(27)]
    for ws in (words, words + words[::-1], words + [(), (2,), (3, 1)]):
        calls.clear()
        gram = gram_matrix(ws, CoherentParam.zero(3), T)
        assert len(calls) == 39, len(ws)
        assert [row[:27] for row in gram.data[:27]] == p_n(T, 3).data
    calls.clear()
    f = Polynomial.monomial((1, 2)) + Polynomial.monomial((1, 3)) + Polynomial.monomial((2,))
    inner_product(f, Polynomial.monomial((3, 2, 1)), COMPLEX_PHI[3], T)
    assert len(calls) == 4  # (1,), (1, 2), (1, 3), (2,)
