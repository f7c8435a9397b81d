"""The LAPACK-backed eigensolver: its input checks, its error path, numpy
references, and exact trace identities of the Gram operators P_n."""

import warnings

import numpy as np
import pytest

import wickalg.eigen as eigen
from wickalg import (
    Matrix, Scalar, eigvalsh, gram_levels, make_preset, operator_norm, p_n, rational,
    singular_values,
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
        assert np.allclose(eigvalsh(a), np.linalg.eigvalsh(a), atol=1e-10, rtol=0)


Q_IJ_COMPLEX = {"q11": "1/3", "q22": "-1/4", "q12": "1/2", "q12_im": "1/3",
                "q21": "1/2", "q21_im": "-1/3"}
Q_IJ3_COMPLEX = dict(Q_IJ_COMPLEX, q33="1/5", q13="-1/3", q13_im="1/4", q31="-1/3",
                     q31_im="-1/4", q23="1/7", q23_im="-1/2", q32="1/7", q32_im="1/2")
GRAM_LEVELS = [
    ("qccr", 2, {"q": "1/2"}, 6),
    ("tlw", 3, {"q": "1/3"}, 4),
    ("aklt", None, {"lam": "1"}, 4),
    ("twisted_car", 3, {"mu": "1/2"}, 4),
    ("q_ij", 2, Q_IJ_COMPLEX, 6),
    ("usym", 2, {"q": "1/3", "lam": "1/5"}, 5),
]


@pytest.mark.parametrize("family, d, params, n", GRAM_LEVELS)
def test_gram_levels_match_numpy(family, d, params, n):
    a = p_n(make_preset(family, d, **params).tensor, n).to_complex()
    assert np.allclose(eigvalsh(a), np.linalg.eigvalsh(a), atol=1e-10, rtol=0)


def test_qccr_p8_matches_numpy():
    # dim 256 in blocks of C(8, k) words, up to 70
    a = p_n(make_preset("qccr", 2, q="1/2").tensor, 8).to_complex()
    ev, ref = eigvalsh(a), np.linalg.eigvalsh(a)
    assert np.allclose(ev, ref, atol=1e-12 * max(1.0, np.abs(ref).max()), rtol=0)


def test_complex_q_ij_blocks_match_numpy():
    # The blocks of P_4 for a complex q_ij at d=3 are letter contents of up to
    # 12 words with complex entries, so LAPACK takes the complex path.
    a = p_n(make_preset("q_ij", 3, **Q_IJ3_COMPLEX).tensor, 4).to_complex()
    assert np.abs(a.imag).max() > 0.1
    ev, ref = eigvalsh(a), np.linalg.eigvalsh(a)
    assert np.allclose(ev, ref, atol=1e-12 * max(1.0, np.abs(ref).max()), rtol=0)
    rng = np.random.default_rng(12)
    b = hidden_blocks([3, 9, 2, 6], rng)
    assert np.allclose(eigvalsh(b), np.linalg.eigvalsh(b), atol=1e-12, rtol=0)


@pytest.mark.parametrize("family, d, params, n", GRAM_LEVELS + [
    ("qccr", 2, {"q": "1/2"}, 8),
    ("q_ij", 3, Q_IJ3_COMPLEX, 4),
])
def test_gram_spectra_match_exact_traces(family, d, params, n):
    # An oracle independent of LAPACK: Σλ = tr P and Σλ² = tr P² = Σ|p_ij|²,
    # both exact over Scalar, and on a PSD level the count of eigenvalues
    # clear of zero is the exact rank from psd_rank.
    for level, p in enumerate(gram_levels(make_preset(family, d, **params).tensor, n), 1):
        ev = eigvalsh(p)
        top = max(1.0, float(np.abs(ev).max()))
        trace = sum((p.data[i][i] for i in range(p.rows)), Scalar(0))
        squares = sum(x.abs2() for row in p.data for x in row)
        assert trace.is_real
        assert abs(ev.sum() - float(trace.re)) <= 1e-10 * top**2, level
        assert abs((ev**2).sum() - float(squares)) <= 1e-10 * top**2, level
        is_psd, rank = p.psd_rank()
        if is_psd:
            assert int((ev > 1e-9 * top).sum()) == rank, level


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
    # LAPACK's LinAlgError comes out as ArithmeticError, for an array and for
    # an exact Matrix alike.
    def unconverged(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    a = random_hermitian(6, np.random.default_rng(6))
    monkeypatch.setattr(eigen.np.linalg, "eigvalsh", unconverged)
    for m in (a, Matrix([[2, 1], [1, 2]])):
        with pytest.raises(ArithmeticError, match="did not converge"):
            eigvalsh(m)


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
    # |entry|² overflows past about 1e154: the kernel's norms and squares
    # must not, or the spectrum comes out inf or nan.
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
