"""Jacobi eigensolver against numpy references."""

import warnings

import numpy as np
import pytest

import wickalg.eigen as eigen
from wickalg import (
    Matrix, Scalar, eigvalsh, make_preset, operator_norm, p_n, rational, singular_values,
)


def random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def hidden_blocks(sizes, rng):
    """A random Hermitian block-diagonal matrix, rows and columns shuffled."""
    a = np.zeros((sum(sizes),) * 2, dtype=np.complex128)
    at = 0
    for m in sizes:
        a[at:at + m, at:at + m] = random_hermitian(m, rng)
        at += m
    perm = rng.permutation(a.shape[0])
    return a[np.ix_(perm, perm)]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 20, 33])
def test_matches_numpy(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        a = random_hermitian(n, rng)
        assert np.allclose(eigvalsh(a), np.linalg.eigvalsh(a), atol=1e-10)


def test_hidden_blocks_match_numpy():
    rng = np.random.default_rng(11)
    for _ in range(3):
        a = hidden_blocks([1, 2, 3, 4, 1, 5, 2, 7], rng)
        rounds = eigen._round_robin(a)
        # a sweep pairs within the blocks only: 8 - 1 rounds for the 7-block
        assert len(rounds) == 7
        pairs = [frozenset(pq) for p, q in rounds for pq in zip(p.tolist(), q.tolist())]
        assert all(len(set(p.tolist() + q.tolist())) == 2 * p.size for p, q in rounds)
        support = {frozenset(pq) for pq in zip(*np.nonzero(np.triu(a, 1)))}
        assert len(pairs) == len(set(pairs)) == len(support) and set(pairs) == support
        assert np.allclose(eigvalsh(a), np.linalg.eigvalsh(a), atol=1e-10, rtol=0)


@pytest.mark.parametrize("family, d, params, n", [
    ("qccr", 2, {"q": "1/2"}, 6),
    ("tlw", 3, {"q": "1/3"}, 4),
    ("aklt", None, {"lam": "1"}, 4),
])
def test_gram_levels_match_numpy(family, d, params, n):
    a = p_n(make_preset(family, d, **params).tensor, n).to_complex()
    assert np.allclose(eigvalsh(a), np.linalg.eigvalsh(a), atol=1e-10, rtol=0)


def test_exact_matrix_input():
    m = Matrix([[2, 1], [1, 2]])
    assert np.allclose(eigvalsh(m), [1.0, 3.0])
    m = Matrix([[0, Scalar(0, -1)], [Scalar(0, 1), 0]])
    assert np.allclose(eigvalsh(m), [-1.0, 1.0])


def test_rejects_non_hermitian_and_non_square():
    with pytest.raises(ValueError):
        eigvalsh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eigvalsh(np.zeros((2, 3)))


def test_degenerate_and_trivial_spectra():
    assert np.allclose(eigvalsh(np.eye(5)), np.ones(5))
    assert np.allclose(eigvalsh(np.zeros((4, 4))), np.zeros(4))
    diag = np.diag([3.0, -1.0, 0.5, 2.0])
    assert eigen._round_robin(diag) == []
    assert np.array_equal(eigvalsh(diag), [-1.0, 0.5, 2.0, 3.0])
    assert eigvalsh(np.zeros((0, 0))).size == 0


def test_singular_values_and_norm():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert np.allclose(singular_values(a), [2.0, 0.0])
    assert abs(operator_norm(a) - 2.0) < 1e-12
    rng = np.random.default_rng(3)
    b = rng.normal(size=(4, 4))
    assert np.allclose(singular_values(b), np.linalg.svd(b, compute_uv=False),
                       atol=1e-10)


def test_unconverged_sweeps_raise(monkeypatch):
    rng = np.random.default_rng(6)
    # one block, and two: a block split must not hide a failure to converge
    for a in (random_hermitian(6, rng), hidden_blocks([6, 5], rng)):
        monkeypatch.setattr(eigen, "_MAX_SWEEPS", 1)
        with pytest.raises(ArithmeticError, match="did not converge in 1 sweeps"):
            eigvalsh(a)
        monkeypatch.setattr(eigen, "_MAX_SWEEPS", 60)
        assert np.allclose(eigvalsh(a), np.linalg.eigvalsh(a), atol=1e-10)


def test_exact_rational_spectrum_recovered():
    # Spectrum {3/2, 3/2, 3/2, 1/2} of a small exact Gram operator.
    half = rational(1, 2)
    m = Matrix([
        [Scalar(1 + half), 0, 0, 0],
        [0, 1, Scalar(half), 0],
        [0, Scalar(half), 1, 0],
        [0, 0, 0, Scalar(1 + half)],
    ])
    ev = eigvalsh(m)
    assert np.allclose(ev, [0.5, 1.5, 1.5, 1.5])


@pytest.mark.parametrize("s", [1e160, 1e300])
def test_huge_entries_keep_their_spectrum(s):
    # |entry|² overflows past about 1e154: the stop level and the pair test
    # must not, or the kernel stops at sweep 0 on the unrotated diagonal.
    rng = np.random.default_rng(7)
    big = random_hermitian(3, rng) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for a in ([[0, s], [s, 0]], [[0, -s], [-s, 0]]):
            assert np.allclose(eigvalsh(a), [-s, s], rtol=1e-12, atol=0)
        assert np.allclose(eigvalsh(big), np.linalg.eigvalsh(big), rtol=1e-12, atol=0)


def test_non_finite_entries_refused():
    # refused at once, not after 60 sweeps of nan
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bad in ([[0, np.inf], [np.inf, 0]], [[np.nan, 0], [0, 1]],
                    [[1, 0], [0, complex(0, -np.inf)]]):
            for f in (eigvalsh, singular_values):
                with pytest.raises(ValueError, match="non-finite"):
                    f(bad)


@pytest.mark.parametrize("s", [1e-200, 1e160, 1e300])
def test_singular_values_of_huge_and_tiny_entries(s):
    # A*A would overflow (or underflow) at this scale; A in units of max|a| does not.
    rng = np.random.default_rng(8)
    b = rng.normal(size=(4, 3)) * s
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.allclose(singular_values([[0, s], [s, 0]]), [s, s], rtol=1e-12, atol=0)
        assert np.allclose(singular_values(b), np.linalg.svd(b, compute_uv=False),
                           rtol=1e-10, atol=0)
        assert operator_norm([[0, s], [0, 0]]) == pytest.approx(s, rel=1e-12)
