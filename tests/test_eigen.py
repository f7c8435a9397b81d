"""Jacobi eigensolver against numpy references."""

import numpy as np
import pytest

import wickalg.eigen as eigen
from wickalg import Matrix, Scalar, eigvalsh, operator_norm, rational, singular_values


def random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


@pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
def test_matches_numpy(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        a = random_hermitian(n, rng)
        assert np.allclose(eigvalsh(a), np.linalg.eigvalsh(a), atol=1e-10)


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
    a = random_hermitian(6, rng)
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
