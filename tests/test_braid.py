"""Braid relation, reduced words, the permutation expansion of P_n."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import kron_gram_levels, rationals, tensors
import wickalg.braid as braid
import wickalg.tensorops as tensorops
from wickalg import (
    CoeffTensor,
    DimensionCapExceeded,
    Matrix,
    Scalar,
    braid_check,
    identity,
    kron,
    make_preset,
    p_n,
    p_n_by_permutations,
    rational,
    t_matrix,
    t_of_permutation,
)
from wickalg.braid import (
    _weak_order_products,
    compose,
    inverse,
    permutation_kernel_matrix,
    permutation_kernel_psd,
    permutation_length,
    reduced_word,
)
from wickalg.linalg import _from_rows, _sparse_rows
from wickalg.scalars import _denominator, _over
from wickalg.tensorops import embed

BRAIDED = [
    make_preset("qccr", 2, q="1/3").tensor,
    make_preset("twisted_ccr", 2, mu="1/2").tensor,
    make_preset("twisted_car", 2, mu="1/2").tensor,
    make_preset("degenerate", 2).tensor,
]


def test_braid_check():
    for T in BRAIDED:
        assert braid_check(T)
    assert not braid_check(make_preset("tlw", 2, q="1/3").tensor)


def test_braid_check_random_q_ij():
    rng = random.Random(12345)

    def rat():
        return rational(rng.randint(-3, 3), rng.randint(4, 7))

    for _ in range(5):
        re12, im12 = rat(), rat()
        rs = make_preset(
            "q_ij", 2,
            q11=rat(), q22=rat(),
            q12=re12, q12_im=im12, q21=re12, q21_im=-im12,
        )
        assert braid_check(rs.tensor)


def test_permutation_utilities():
    assert permutation_length((1, 2, 3)) == 0
    assert permutation_length((3, 2, 1)) == 3
    assert reduced_word((1, 2, 3)) == []
    rw = reduced_word((3, 1, 2))
    assert len(rw) == permutation_length((3, 1, 2))
    assert inverse((2, 3, 1)) == (3, 1, 2)
    assert compose((2, 3, 1), (3, 1, 2)) == (1, 2, 3)


@given(st.permutations(list(range(1, 5))))
def test_reduced_word_reconstructs_permutation(perm):
    perm = tuple(perm)
    rw = reduced_word(perm)
    assert len(rw) == permutation_length(perm)
    # multiply out s_{i1}...s_{ik} and compare
    acc = tuple(range(1, 5))
    for i in rw:
        s = list(range(1, 5))
        s[i - 1], s[i] = s[i], s[i - 1]
        acc = compose(acc, tuple(s))
    assert acc == perm


def test_t_of_permutation_requires_braid():
    with pytest.raises(ValueError):
        t_of_permutation(make_preset("tlw", 2, q="1/3").tensor, (2, 1))


def test_t_of_permutation_refused_before_anything_is_built(monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("built before the d^n cap check")

    for name in ("braid_check", "_slot_rows", "_t_rows"):
        monkeypatch.setattr(braid, name, built)
    with pytest.raises(DimensionCapExceeded, match="16384"):
        t_of_permutation(BRAIDED[0], tuple(range(1, 15)))  # 2^14 past the default cap 4096
    with pytest.raises(DimensionCapExceeded, match="8"):
        t_of_permutation(BRAIDED[0], (2, 1, 3), cap=7)  # 2^3 = 8


@pytest.mark.parametrize("perm", [(1, 1), (3, 1), (0, 1), (2, 2, 1)])
def test_t_of_permutation_refuses_a_non_permutation_first(monkeypatch, perm):
    # (1, 1) would give the identity and (3, 1) T_1; neither is T(π) of any π.
    def built(*args, **kwargs):
        raise AssertionError("built before the permutation check")

    for name in ("_check_cap", "braid_check", "_slot_rows", "_t_rows"):
        monkeypatch.setattr(braid, name, built)
    with pytest.raises(ValueError, match="not a permutation"):
        t_of_permutation(BRAIDED[0], perm)


def test_braid_check_refused_past_the_default_cap(monkeypatch):
    # H^{⊗3} at d = 17 has 4913 > 4096 rows, whatever cap a caller uses elsewhere.
    def built(*args, **kwargs):
        raise AssertionError("built before the d^3 cap check")

    T = make_preset("qccr", 17, q="1/2").tensor
    for name in ("_slot_rows", "identity"):
        monkeypatch.setattr(tensorops, name, built)
    with pytest.raises(DimensionCapExceeded, match="4913"):
        braid_check(T)


def test_t_of_permutation_examples():
    T = BRAIDED[0]
    d = T.d
    assert t_of_permutation(T, (1, 2, 3)) == identity(d**3)
    tm = t_matrix(T)
    assert t_of_permutation(T, (2, 1, 3)) == embed(tm, 1, 3)
    # two different reduced words of the same permutation give one matrix
    t1 = embed(tm, 1, 3)
    t2 = embed(tm, 2, 3)
    w0 = t_of_permutation(T, (3, 2, 1))  # longest element
    assert w0 == t1 * t2 * t1 == t2 * t1 * t2


def test_qccr_full_reversal_scales_reversal_permutation():
    # For T = q*flip, T(w0) on H^{(x)3} is q^3 times the order-reversal matrix.
    q = Scalar(rational(1, 3))
    T = BRAIDED[0]
    w0 = t_of_permutation(T, (3, 2, 1))
    from wickalg import index_to_word, word_to_index

    rev = identity(8).scale(0)
    for idx in range(8):
        w = index_to_word(idx, 2, 3)
        rev.data[word_to_index(tuple(reversed(w)), 2)][idx] = q * q * q
    assert w0 == rev


@pytest.mark.parametrize("ti", range(len(BRAIDED)))
def test_permutation_sum_equals_p_n(ti):
    T = BRAIDED[ti]
    for n in (1, 2, 3, 4):
        assert p_n_by_permutations(T, n) == p_n(T, n)


@settings(max_examples=60, deadline=None)
@given(st.one_of(tensors(), st.sampled_from(BRAIDED)))
def test_braid_check_agrees_with_dense_triple_products(T):
    tm = t_matrix(T)
    t1, t2 = kron(tm, identity(T.d)), kron(identity(T.d), tm)
    assert braid_check(T) == (t1 * t2 * t1 == t2 * t1 * t2)


@settings(max_examples=30, deadline=None)
@given(st.lists(rationals, min_size=4, max_size=4))
def test_permutation_sum_equals_the_kron_reference(q):
    # a diagonal braiding, real or complex, is braided whatever its entries
    T = make_preset("q_ij", 2, q11=q[0], q22=q[1], q12=q[2], q12_im=q[3],
                    q21=q[2], q21_im=-q[3]).tensor
    for n, pn in enumerate(kron_gram_levels(T, 4), 1):
        assert p_n_by_permutations(T, n) == p_n(T, n) == pn


def test_complex_q_ij_permutation_sum_over_large_denominators():
    # a complex diagonal braiding over the primes 1000003, 999983 and 2^31 − 1:
    # the weak-order walk weights each δ^ℓ(π)·T(π) by δ^(L−ℓ(π))
    T = make_preset("q_ij", 2, q11="2/1000003", q22="-5/999983", q12="3/7",
                    q12_im="-1/2147483647", q21="3/7", q21_im="1/2147483647").tensor
    assert braid_check(T)
    for n in (1, 2, 3, 4, 5):
        assert p_n_by_permutations(T, n) == p_n(T, n)
    assert not p_n(T, 3).data[3][5].is_real  # the words 011 and 101 meet through q12


@pytest.mark.parametrize("ti", range(len(BRAIDED)))
def test_weak_order_products_are_t_of_permutation(ti):
    # every key π holds the numerators of δ^ℓ(π)·T(π), not of T(π⁻¹): the
    # presets here tell them apart, and a real tensor's numerators are ints
    T = BRAIDED[ti]
    for n in (1, 2, 3, 4):
        delta, products = _weak_order_products(T, n)
        assert delta == _denominator(T.entries.values())
        assert sorted(products) == sorted(permutations(range(1, n + 1)))
        for perm, rows in products.items():
            assert all(type(x) is int for row in rows for x in row.values())
            den = delta ** permutation_length(perm)
            assert ([{c: _over(x, den) for c, x in row.items()} for row in rows]
                    == _sparse_rows(t_of_permutation(T, perm).data))


def test_permutation_kernel_blocks():
    T = BRAIDED[1]
    K = permutation_kernel_matrix(T, 3)
    perms = list(permutations(range(1, 4)))
    dim = T.d**3
    for a, pi in enumerate(perms):
        for b, sigma in enumerate(perms):
            block = t_of_permutation(T, compose(inverse(pi), sigma)).to_complex()
            assert (K[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] == block).all()


def test_permutation_kernel_refused_before_anything_is_built(monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("built before the n!·d^n cap check")

    for target, name in ((braid, "braid_check"), (braid, "_weak_order_products"),
                         (braid.Matrix, "_of"), (braid.Matrix, "to_complex"), (braid, "_float_view")):
        monkeypatch.setattr(target, name, built)
    T = BRAIDED[0]  # d = 2
    with pytest.raises(DimensionCapExceeded, match="3840"):
        permutation_kernel_matrix(T, 5, cap=3839)  # 5!·2^5 = 3840
    with pytest.raises(DimensionCapExceeded, match="46080"):
        permutation_kernel_matrix(T, 6)  # 6!·2^6 past the default cap 4096
    monkeypatch.undo()
    assert permutation_kernel_matrix(T, 3, cap=48).shape == (48, 48)  # 3!·2^3, at the cap


def test_permutation_sum_refused_before_anything_is_built(monkeypatch):
    # The walk holds all n! dense d^n × d^n matrices T(π): refused past the
    # entries of one cap × cap matrix, though d^n itself is under the cap.
    def built(*args, **kwargs):
        raise AssertionError("built before the n!·d^(2n) cap check")

    for target, name in ((braid, "braid_check"), (braid, "_weak_order_products"),
                         (braid.Matrix, "_of")):
        monkeypatch.setattr(target, name, built)
    T = BRAIDED[0]  # d = 2
    with pytest.raises(DimensionCapExceeded, match="82575360"):
        p_n_by_permutations(T, 7)  # 7!·2^14 past 4096², though 2^7 ≤ 4096
    with pytest.raises(DimensionCapExceeded, match="384"):
        p_n_by_permutations(T, 3, cap=19)  # 3!·2^6 = 384 > 19²
    monkeypatch.undo()
    assert p_n_by_permutations(T, 3, cap=20) == p_n(T, 3, cap=20)  # 384 ≤ 20²


def test_quasi_multiplicativity_when_lengths_add():
    # T(pi sigma) = T(pi) T(sigma) whenever l(pi sigma) = l(pi) + l(sigma).
    T = BRAIDED[1]
    for pi in permutations(range(1, 4)):
        for sigma in permutations(range(1, 4)):
            prod = compose(pi, sigma)
            if permutation_length(prod) == permutation_length(pi) + permutation_length(sigma):
                assert t_of_permutation(T, prod) == (
                    t_of_permutation(T, pi) * t_of_permutation(T, sigma)
                )


def test_permutation_kernel_psd():
    assert permutation_kernel_psd(BRAIDED[0], 2)
    assert permutation_kernel_psd(BRAIDED[0], 3)
    assert permutation_kernel_psd(BRAIDED[2], 3)  # twisted_car
    with pytest.raises(ValueError):
        permutation_kernel_psd(BRAIDED[0], 4)


def _kernel_matrix(T, n):
    """The block kernel K[(π,σ)] = T(π⁻¹σ) as a Matrix of the blocks t_of_permutation."""
    perms = list(permutations(range(1, n + 1)))
    rows = []
    for pi in perms:
        blocks = [t_of_permutation(T, compose(inverse(pi), sigma)).data for sigma in perms]
        rows += [sum((block[i] for block in blocks), []) for i in range(T.d**n)]
    return Matrix(rows)


_KERNEL_TENSORS = pytest.mark.parametrize("T", BRAIDED + [
    make_preset("qccr", 2, q="3/2").tensor,
    make_preset("q_ij", 2, q11="2/1000003", q22="-5/999983", q12="3/7", q12_im="-1/2147483647",
                q21="3/7", q21_im="1/2147483647").tensor,
    make_preset("q_ij", 2, q11="-1", q22="4", q12="1/2", q12_im="1/3", q21="1/2",
                q21_im="-1/3").tensor,
], ids=["qccr", "twisted_ccr", "twisted_car", "degenerate", "qccr-past-one",
        "q_ij-large-primes", "q_ij-q22=4"])


@_KERNEL_TENSORS
def test_permutation_kernel_psd_equals_the_matrix_path(T):
    # The kernel is decided on its integer rows over one power of δ; the
    # reference is psd_rank of the Matrix assembled from the blocks T(π⁻¹σ).
    for n in (1, 2, 3):
        assert permutation_kernel_psd(T, n) == _kernel_matrix(T, n).psd_rank()[0], n


@_KERNEL_TENSORS
def test_permutation_kernel_matrix_is_the_matrix_view_bit_for_bit(T):
    # The view is read off the integer rows; the reference makes the rows a
    # Matrix of N/δ^L Scalars first and takes its to_complex.
    for n in (1, 2, 3):
        rows, den = braid._kernel_rows(T, n, tensorops.DEFAULT_DIM_CAP)
        dim = len(rows)
        want = _from_rows(rows, dim, den).to_complex()
        got = permutation_kernel_matrix(T, n)
        assert got.dtype == want.dtype and got.shape == want.shape, n
        assert got.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("q", ["1000000000001/1000000000000", "-1000000000001/1000000000000"])
def test_permutation_kernel_psd_just_past_norm_one(q):
    T = make_preset("qccr", 2, q=q).tensor
    assert not permutation_kernel_psd(T, 2) and not permutation_kernel_psd(T, 3)


def test_permutation_kernel_psd_requires_hermitian():
    T = CoeffTensor(1, {(1, 1, 1, 1): Scalar(0, 1)})  # T = i·id: braided, not hermitian
    assert braid_check(T)
    with pytest.raises(ValueError):
        permutation_kernel_psd(T, 2)


def test_p_n_by_permutations_requires_braid():
    with pytest.raises(ValueError):
        p_n_by_permutations(make_preset("tlw", 2, q="1/3").tensor, 2)
