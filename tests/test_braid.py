"""Braid relation, reduced words, the permutation expansion of P_n."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from wickalg import (
    Scalar,
    braid_check,
    identity,
    make_preset,
    p_n,
    p_n_by_permutations,
    rational,
    t_matrix,
    t_of_permutation,
)
from wickalg.braid import (
    compose,
    inverse,
    permutation_kernel_psd,
    permutation_length,
    reduced_word,
)
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


def test_p_n_by_permutations_requires_braid():
    with pytest.raises(ValueError):
        p_n_by_permutations(make_preset("tlw", 2, q="1/3").tensor, 2)
