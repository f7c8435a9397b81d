"""Exact dense linear algebra."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import scalars
from wickalg import (Matrix, Polynomial, Scalar, braid, diffcalc, ideal_membership, ideals, identity, kms,
                     kms_evaluate, kms_series, kron, linalg, make_preset, p_n, parse_expression,
                     positivity_report, rational, rewrite, states, t_matrix, t_of_permutation, tensorops,
                     wick_ideal_condition_check)
from wickalg.linalg import _echelon, _scaled_rows, _sparse_rows, zeros
from wickalg.scalars import ONE, ZERO, _content


def small_matrices(rows, cols):
    return st.lists(
        st.lists(scalars, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(Matrix)


def test_constructors_and_shape():
    m = Matrix([[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m[1, 0] == Scalar(3)
    assert zeros(2, 3).is_zero()
    assert identity(2) == Matrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


def test_arithmetic_examples():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a * b == Matrix([[2, 1], [4, 3]])
    assert a + b - b == a
    assert (-a) + a == zeros(2, 2)
    assert a.scale(rational(1, 2)) == Matrix(
        [[Scalar(rational(1, 2)), 1], [Scalar(rational(3, 2)), 2]]
    )
    assert 2 * a == a * 2 == a + a


def test_adjoint_and_hermitian():
    i = Scalar(0, 1)
    m = Matrix([[1, i], [-i, 2]])
    assert m.is_hermitian()
    assert m.adjoint() == m
    assert Matrix([[0, 1], [0, 0]]).transpose() == Matrix([[0, 0], [1, 0]])
    assert not Matrix([[0, 1], [0, 0]]).is_hermitian()


def test_is_hermitian_reads_every_upper_entry_and_its_mirror():
    i = Scalar(0, 1)
    m = Matrix([[1, 2, i], [2, 3, 4], [-i, 4, 5]])
    assert m.is_hermitian()
    bad_diagonal = m.copy()
    bad_diagonal.data[1][1] = Scalar(3, 1)
    shared = m.copy()
    shared.data[0][2] = shared.data[2][0] = i  # one object, its own mirror, not real
    cases = [bad_diagonal, shared]
    for r, c in [(1, 0), (2, 0), (2, 1)]:
        lower = m.copy()
        lower.data[r][c] = lower.data[r][c] + 1  # one lower entry off its mirror
        cases.append(lower)
    for bad in cases:
        assert not bad.is_hermitian()
        with pytest.raises(ValueError, match="exactly Hermitian"):
            bad.psd_rank()


def test_is_hermitian_wants_conjugate_complex_mirrors():
    z = Scalar(1, 2)
    assert Matrix([[1, z], [z.conjugate(), 3]]).is_hermitian()
    for mirror in [z, Scalar(2, -2), Scalar(1, -3), Scalar(rational(1, 2), -2)]:
        assert not Matrix([[1, z], [mirror, 3]]).is_hermitian()  # equal, or off in a part
    half = Scalar(1, rational(1, 2))
    assert not Matrix([[1, half], [Scalar(1, rational(-1, 3)), 3]]).is_hermitian()


def test_is_hermitian_reads_the_nonzeros_against_shared_zero_mirrors():
    # Only the nonzeros are read, so a nonzero whose mirror is the shared ZERO
    # must fail from either side of the diagonal; a zero that is not the
    # shared ZERO is still zero.  A non-square matrix is not Hermitian.
    for (r, c), x in [((0, 1), ONE), ((1, 0), ONE), ((0, 2), Scalar(0, 1)), ((2, 1), Scalar(1, 1))]:
        m = zeros(3, 3)
        m.data[r][c] = x
        assert m.data[c][r] is ZERO and not m.is_hermitian()
        with pytest.raises(ValueError, match="exactly Hermitian"):
            m.psd_rank()
    m = zeros(3, 3)
    m.data[0][1] = Scalar(0)
    assert m.data[0][1] is not ZERO and m.is_hermitian()
    for bad in (zeros(2, 3), Matrix([[1, 0, 0], [0, 1, 0]]), zeros(3, 0)):
        assert not bad.is_hermitian()


def test_rank_kernel_inverse():
    m = Matrix([[1, 2], [2, 4]])
    assert m.rank() == 1
    kb = m.kernel_basis()
    assert kb.shape == (2, 1)
    assert (m * kb).is_zero()
    inv = Matrix([[1, 1], [0, 1]]).inverse()
    assert inv == Matrix([[1, -1], [0, 1]])
    with pytest.raises(ValueError):
        m.inverse()


def test_zero_column_matrices():
    # A 0-column matrix (an empty basis) flows through the products that use
    # a basis, down to the 0×0 inverse.
    B = zeros(3, 0)
    assert B.shape == (3, 0) and B.adjoint().shape == (0, 3)
    assert kron(identity(2), B).shape == (6, 0)
    assert kron(B, identity(2)).shape == (6, 0)
    gram = B.adjoint() * B
    assert gram.shape == (0, 0) and gram.inverse() == identity(0)
    assert B * gram.inverse() * B.adjoint() == zeros(3, 3)
    assert identity(3) * B == B and (B * zeros(0, 2)).is_zero()


def test_solve():
    a = Matrix([[2, 0], [0, 3]])
    assert a.solve([2, 3]) == [ONE, ONE]
    singular = Matrix([[1, 1], [1, 1]])
    assert singular.solve_consistent([2, 2])
    assert not singular.solve_consistent([1, 2])
    with pytest.raises(ValueError, match="system is underdetermined"):
        singular.solve([2, 2])
    with pytest.raises(ValueError, match="system is inconsistent"):
        singular.solve([1, 2])
    x = singular.solve_any([2, 2])
    assert x is not None and (singular * Matrix([[c] for c in x])) == Matrix([[2], [2]])


def test_kron():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    k = kron(a, b)
    assert k.shape == (4, 4)
    assert k[0, 1] == Scalar(1) and k[0, 3] == Scalar(2)
    assert kron(identity(2), identity(3)) == identity(6)


@given(small_matrices(3, 3), small_matrices(3, 3), small_matrices(3, 3))
def test_matrix_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a * b).adjoint() == b.adjoint() * a.adjoint()
    assert a * identity(3) == a == identity(3) * a


@given(small_matrices(3, 2), small_matrices(2, 2))
def test_kron_mixed_product(a, b):
    c = Matrix([[1, 0], [Scalar(0, 1), 1]])
    d = Matrix([[2, 1], [0, 1]])
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


@given(small_matrices(3, 3))
def test_rank_plus_nullity(m):
    kb = m.kernel_basis()
    assert kb.shape[0] == 3 and m.rank() + kb.cols == 3
    assert (m * kb).is_zero()


@given(small_matrices(3, 3))
def test_inverse_round_trip(m):
    if m.rank() < 3:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        assert m * m.inverse() == identity(3)
        assert m.inverse() * m == identity(3)


def test_to_complex():
    m = Matrix([[Scalar(rational(1, 2), rational(-1, 3))]])
    z = m.to_complex()
    assert z.shape == (1, 1)
    assert abs(z[0, 0] - (0.5 - 1j / 3)) < 1e-15


# -- the sparse kernels against a plain dense reference -------------------------
# Entries are (re, im) Fraction pairs; the reference is textbook Gauss-Jordan
# with the first nonzero entry of a column as its pivot.

_Z = (Fraction(0), Fraction(0))


def _pair(x):
    return (Fraction(x.re), Fraction(x.im))


def _pairs(m):
    return [[_pair(x) for x in row] for row in m.data]


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def _ref_matmul(a, b, cols):
    return [[_dot(row, [brow[c] for brow in b]) for c in range(cols)] for row in a]


def _dot(u, v):
    out = _Z
    for x, y in zip(u, v):
        out = _add(out, _mul(x, y))
    return out


def _ref_rref(a, cols, aug):
    a = [row[:] for row in a]
    aug = [row[:] for row in aug]
    pivots = []
    for col in range(cols):
        p = len(pivots)
        sel = next((r for r in range(p, len(a)) if a[r][col] != _Z), None)
        if sel is None:
            continue
        a[sel], a[p] = a[p], a[sel]
        aug[sel], aug[p] = aug[p], aug[sel]
        inv = _inv(a[p][col])
        a[p] = [_mul(inv, x) for x in a[p]]
        aug[p] = [_mul(inv, x) for x in aug[p]]
        for r in range(len(a)):
            if r != p and a[r][col] != _Z:
                f = a[r][col]
                a[r] = [_sub(x, _mul(f, y)) for x, y in zip(a[r], a[p])]
                aug[r] = [_sub(x, _mul(f, y)) for x, y in zip(aug[r], aug[p])]
        pivots.append(col)
    return a, pivots, aug


zero_entries = st.one_of(
    st.just(ZERO), st.builds(Scalar, st.just(0)), scalars.map(lambda x: x - x)
)
sparse_entries = st.tuples(st.booleans(), scalars, zero_entries).map(
    lambda t: t[1] if t[0] else t[2]
)
dims = st.integers(min_value=1, max_value=5)


@st.composite
def sparse_matrices(draw, rows=dims, cols=dims):
    r, c = draw(rows), draw(cols)
    return Matrix([[draw(sparse_entries) for _ in range(c)] for _ in range(r)])


@given(sparse_matrices(), st.data())
def test_elimination_matches_dense_reference(m, data):
    a = _pairs(m)
    rref, pivots, _ = _ref_rref(a, m.cols, [[] for _ in a])
    assert m.rank() == len(pivots)
    kernel = []
    for fc in range(m.cols):
        if fc not in pivots:
            v = [_Z] * m.cols
            v[fc] = (Fraction(1), Fraction(0))
            for prow, pcol in enumerate(pivots):
                v[pcol] = _sub(_Z, rref[prow][fc])
            kernel.append(v)
    kb = m.kernel_basis()
    assert kb.shape == (m.cols, len(kernel))
    assert [[_pair(x) for x in v] for v in kb.transpose().data] == kernel

    x0 = data.draw(st.lists(sparse_entries, min_size=m.cols, max_size=m.cols))
    consistent_rhs = [row[0] for row in _ref_matmul(a, [[_pair(x)] for x in x0], 1)]
    other_rhs = [_pair(x) for x in data.draw(
        st.lists(sparse_entries, min_size=m.rows, max_size=m.rows))]
    for rhs in (consistent_rhs, other_rhs):
        _, _, aug = _ref_rref(a, m.cols, [[x] for x in rhs])
        consistent = all(row[0] == _Z for row in aug[len(pivots):])
        rhs_scalars = [Scalar(re, im) for re, im in rhs]
        assert m.solve_consistent(rhs_scalars) == consistent
        if consistent and len(pivots) == m.cols:
            x = [_Z] * m.cols
            for prow, pcol in enumerate(pivots):
                x[pcol] = aug[prow][0]
            assert [_pair(v) for v in m.solve(rhs_scalars)] == x
        else:
            with pytest.raises(ValueError):
                m.solve(rhs_scalars)

    if m.rows == m.cols:
        eye = _pairs(identity(m.rows))
        _, _, inv = _ref_rref(a, m.cols, eye)
        if len(pivots) == m.cols:
            assert _pairs(m.inverse()) == inv
        else:
            with pytest.raises(ValueError):
                m.inverse()


@given(sparse_matrices(), st.data())
def test_arithmetic_matches_dense_reference(m, data):
    a = _pairs(m)
    b_mat = data.draw(sparse_matrices(st.just(m.rows), st.just(m.cols)))
    b = _pairs(b_mat)
    assert (m - m).is_zero()
    assert _pairs(m + b_mat) == [[_add(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)]
    assert _pairs(m - b_mat) == [[_sub(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)]
    assert _pairs(-m) == [[_sub(_Z, x) for x in r] for r in a]
    s = data.draw(sparse_entries)
    assert _pairs(m.scale(s)) == [[_mul(_pair(s), x) for x in r] for r in a]
    assert _pairs(m.adjoint()) == [
        [(x[0], -x[1]) for x in col] for col in ([r[c] for r in a] for c in range(m.cols))
    ]
    right = data.draw(sparse_matrices(st.just(m.cols)))
    assert _pairs(m * right) == _ref_matmul(a, _pairs(right), right.cols)
    small = data.draw(sparse_matrices(st.integers(1, 3), st.integers(1, 3)))
    k = _pairs(small)
    assert _pairs(kron(m, small)) == [
        [_mul(a[ra][ca], k[rb][cb]) for ca in range(m.cols) for cb in range(small.cols)]
        for ra in range(m.rows) for rb in range(small.rows)
    ]


def _det(m, rows, cols):
    """Determinant of the rows × cols submatrix of ``m`` by cofactor expansion."""
    if not rows:
        return ONE
    total = ZERO
    for k, c in enumerate(cols):
        x = m[rows[0], c]
        if x:
            minor = _det(m, rows[1:], cols[:k] + cols[k + 1:])
            total = total + x * minor if k % 2 == 0 else total - x * minor
    return total


def _random_hermitian(rng, n):
    """B·B* for a random complex n×k B (k ≤ n, some rows zero), half the time
    plus a small Hermitian perturbation, then some rows and columns zeroed
    and the basis permuted."""
    k = rng.randint(0, n)
    b = [[Scalar(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(k)] for _ in range(n)]
    for r in rng.sample(range(n), rng.randint(0, n // 2)):
        b[r] = [ZERO] * k
    a = (Matrix(b) * Matrix(b).adjoint()).data
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        a[i][i] = a[i][i] + Fraction(rng.choice([-1, 1]), rng.choice([1, 3, 10**6]))
        if i != j:
            e = Scalar(rng.randint(-1, 1), rng.randint(-1, 1))
            a[i][j], a[j][i] = a[i][j] + e, a[j][i] + e.conjugate()
    for r in rng.sample(range(n), rng.randint(0, 1)):
        a[r] = [ZERO] * n
        for row in a:
            row[r] = ZERO
    perm = rng.sample(range(n), n)
    return Matrix([[a[p][q] for q in perm] for p in perm])


def test_psd_rank_matches_principal_minors():
    # Sylvester: a Hermitian matrix is PSD iff every principal minor is ≥ 0,
    # and its rank is the largest order of a nonzero principal minor.
    rng = random.Random(20261018)
    seen = set()
    for trial in range(400):
        m = _random_hermitian(rng, 1 + trial % 6)
        minors = {idx: _det(m, idx, idx) for s in range(m.rows + 1)
                  for idx in combinations(range(m.rows), s)}
        assert all(x.is_real for x in minors.values())
        is_psd = all(x.re >= 0 for x in minors.values())
        rank = max(len(idx) for idx, x in minors.items() if x)
        assert m.psd_rank() == (is_psd, rank) == (is_psd, m.rank()), (trial, m.data)
        seen.add((is_psd, rank < m.rows, any(not any(row) for row in m.data)))
    assert len(seen) >= 6  # PSD and not, full rank and not, with and without zero rows


def _ldl_hermitian(rng, n, last):
    """L·D·L* for a random complex unit lower triangular L and D = diag(positive,
    …, positive, last): its diagonal pivots in natural order are D's entries."""
    lower = [[ONE if r == c else Scalar(rng.randint(-1, 1), rng.randint(-1, 1)) if c < r
              else ZERO for c in range(n)] for r in range(n)]
    diag = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(n - 1)] + [last]
    ell = Matrix(lower)
    return ell * Matrix([[diag[r] if r == c else 0 for c in range(n)] for r in range(n)]) * ell.adjoint()


def _lone_corner(rng, n):
    """A PSD B·B* (B of n × k, k ≥ n/2) with row and column r < n − 1 cleared,
    then a nonzero entry put in row r's last column (and its conjugate in
    column r): the LDL* meets a zero diagonal whose row is nonzero only in its
    last column."""
    k = rng.randint(n // 2, n)
    b = [[Scalar(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(k)] for _ in range(n)]
    a = (Matrix(b) * Matrix(b).adjoint()).data
    r = rng.randrange(n - 1)
    a[r] = [ZERO] * n
    for row in a:
        row[r] = ZERO
    x = Scalar(rng.choice([-1, 1]), rng.randint(-1, 1))
    a[r][n - 1], a[n - 1][r] = x, x.conjugate()
    return Matrix(a)


def test_psd_rank_oracle_larger_matrices():
    # Sizes 7-40: rank against Matrix.rank, and PSD against the signs of
    # numpy's eigenvalues wherever the spectrum is clear of the 1e-9 band
    # (relative to max |λ|): the eigenvalues inside it are exactly as many
    # as the kernel's zeros, so every nonzero one lies outside.
    rng = random.Random(20261019)
    seen, clear = set(), 0
    for trial in range(48):
        n = rng.randint(7, 40)
        kind = ("B·B*", "L·D·L*", "lone corner")[trial % 3]
        if kind == "B·B*":
            m = _random_hermitian(rng, n)
        elif kind == "L·D·L*":
            last = rng.choice([Fraction(-1), Fraction(-1, 10**6), Fraction(0), Fraction(1, 7)])
            m = _ldl_hermitian(rng, n, last)
            assert m.psd_rank() == (last >= 0, n - (last == 0))
        else:
            m = _lone_corner(rng, n)
            assert not m.psd_rank()[0]
        is_psd, rank = m.psd_rank()
        assert rank == m.rank(), (trial, n)
        ev = np.linalg.eigvalsh(m.to_complex())
        small = np.abs(ev) < 1e-9 * max(1.0, float(np.abs(ev).max()))
        if np.count_nonzero(small) == n - rank:
            clear += 1
            assert is_psd == bool(np.all(ev[~small] > 0)), (trial, n)
        seen.add((kind, is_psd, rank < n))
        seen.add(("complex", any(x.im for row in m.data for x in row)))
        seen.add(("zero row", any(not any(row) for row in m.data)))
    assert clear >= 36
    assert {("complex", True), ("zero row", True), ("zero row", False),
            ("B·B*", True, True), ("B·B*", False, True),
            ("L·D·L*", True, False), ("L·D·L*", True, True), ("L·D·L*", False, False),
            ("lone corner", False, False), ("lone corner", False, True)} <= seen


@pytest.mark.parametrize("family, d, params, n", [
    ("qccr", 2, {"q": "1/2"}, 6),
    ("tlw", 3, {"q": "1/3"}, 4),
    ("q_ij", 2, {"q11": "1/2", "q12": "1/3", "q12_im": "1/4",
                 "q21": "1/3", "q21_im": "-1/4", "q22": "-1/3"}, 5),
])
def test_psd_rank_half_the_products_of_echelon(monkeypatch, family, d, params, n):
    # Both eliminations run on integer rows: a real P_n makes no Scalar product
    # at all, and on a complex one the LDL* updates only the upper triangle, so
    # it makes at most 0.6 of the Gaussian-integer products of the echelon form.
    m = p_n(make_preset(family, d, **params).tensor, n)
    rows = _scaled_rows(_sparse_rows(m.data))[0]
    mul, calls = Scalar.__mul__, []

    def counted(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    assert m.psd_rank() == (True, m.rows)
    ldl = len(calls)
    calls.clear()
    assert len(_echelon(rows, m.cols)[1]) == m.rows
    if all(x.is_real for row in m.data for x in row):
        assert ldl == 0 == len(calls)
    else:
        assert ldl <= 0.6 * len(calls)


_COPRIME = (10**6, 2**61 - 1)  # 2^61 − 1 is prime


def _coprime_hermitian(rng, n):
    """D·A·D for A from :func:`_random_hermitian` and D = diag(1/e_r), each e_r
    1, 10^6 or 2^61 − 1: a congruence, so the inertia is A's, while the entries
    of one row sit over coprime denominators."""
    a = _random_hermitian(rng, n)
    e = [rng.choice((1,) + _COPRIME) for _ in range(n)]
    return Matrix([[x / (e[r] * e[c]) if x else ZERO for c, x in enumerate(row)]
                   for r, row in enumerate(a.data)])


def test_psd_rank_matches_principal_minors_over_coprime_denominators():
    rng = random.Random(20261025)
    seen = set()
    for trial in range(150):
        m = _coprime_hermitian(rng, 1 + trial % 5)
        minors = {idx: _det(m, idx, idx) for s in range(m.rows + 1)
                  for idx in combinations(range(m.rows), s)}
        is_psd = all(x.re >= 0 for x in minors.values())
        rank = max(len(idx) for idx, x in minors.items() if x)
        assert m.psd_rank() == (is_psd, rank) == (is_psd, m.rank()), (trial, m.data)
        dens = {x.re.denominator for row in m.data for x in row} | {
            x.im.denominator for row in m.data for x in row}
        seen.add((is_psd, rank < m.rows, any(not any(row) for row in m.data),
                  any(x.im for row in m.data for x in row),
                  any(e in dens or e * e in dens for e in _COPRIME)))
    assert len({key[:3] for key in seen}) >= 6
    assert any(key[3] and key[4] for key in seen)  # complex entries over the big denominators


def _coprime_scalar(rng, complex_):
    """A random Scalar whose parts sit over 1, 10^6 or 2^61 − 1."""
    def part():
        return Fraction(rng.randint(-9, 9), rng.choice((1,) + _COPRIME))
    return Scalar(part(), part() if complex_ else 0)


def _coprime_system(rng, complex_):
    """(A, rhs): A of 1–5 × 1–5 sparse entries over coprime denominators, at
    times with a row in the span of two others or a zero row; rhs = A·x0 or a
    random vector."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    a = [[_coprime_scalar(rng, complex_) if rng.random() < 0.7 else ZERO for _ in range(cols)]
         for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.4:
        i, j, k = rng.sample(range(rows), 3)
        s, t = _coprime_scalar(rng, complex_), _coprime_scalar(rng, complex_)
        a[k] = [s * x + t * y for x, y in zip(a[i], a[j])]
    if rng.random() < 0.25:
        a[rng.randrange(rows)] = [ZERO] * cols
    if rng.random() < 0.5:
        x0 = [_coprime_scalar(rng, complex_) for _ in range(cols)]
        return Matrix(a), [sum((x * y for x, y in zip(row, x0)), ZERO) for row in a]
    return Matrix(a), [_coprime_scalar(rng, complex_) for _ in range(rows)]


def test_exact_queries_match_fraction_gauss_jordan_over_coprime_denominators():
    # rank, kernel_basis (entry for entry), inverse, solve, solve_any and
    # solve_consistent against _ref_rref on (re, im) Fraction pairs.
    rng = random.Random(20261027)
    seen = set()
    for trial in range(240):
        m, rhs = _coprime_system(rng, complex_=trial % 2 == 1)
        a = _pairs(m)
        rref, pivots, aug = _ref_rref(a, m.cols, [[_pair(x)] for x in rhs])
        rank = len(pivots)
        assert m.rank() == rank, (trial, m.data)
        kernel = []
        for fc in (c for c in range(m.cols) if c not in pivots):
            v = [_Z] * m.cols
            v[fc] = (Fraction(1), Fraction(0))
            for prow, pcol in enumerate(pivots):
                v[pcol] = _sub(_Z, rref[prow][fc])
            kernel.append(v)
        kb = m.kernel_basis()
        assert kb.shape == (m.cols, len(kernel))
        assert [[_pair(x) for x in v] for v in kb.transpose().data] == kernel, trial

        consistent = all(row[0] == _Z for row in aug[rank:])
        x = [_Z] * m.cols  # the solution with every free variable 0
        for prow, pcol in enumerate(pivots):
            x[pcol] = aug[prow][0]
        assert m.solve_consistent(rhs) == consistent
        some = m.solve_any(rhs)
        assert (None if some is None else [_pair(v) for v in some]) == (x if consistent else None)
        if consistent and rank == m.cols:
            kind = "unique"
            assert [_pair(v) for v in m.solve(rhs)] == x
        else:
            kind = "underdetermined" if consistent else "inconsistent"
            with pytest.raises(ValueError, match=kind):
                m.solve(rhs)

        if m.rows == m.cols:
            _, _, inv = _ref_rref(a, m.cols, _pairs(identity(m.rows)))
            if rank == m.cols:
                assert _pairs(m.inverse()) == inv
            else:
                with pytest.raises(ValueError, match="singular"):
                    m.inverse()
            seen.add(("inverse", rank == m.cols))
        dens = {part.denominator for row in m.data for x in row for part in (x.re, x.im)}
        seen |= {("complex", any(x.im for row in m.data for x in row)), ("solve", kind),
                 ("zero row", any(not any(row) for row in m.data)),
                 ("rank deficient", rank < min(m.shape)), ("2^61 - 1", (2**61 - 1) in dens)}
    assert seen == {(key, value) for key in ("complex", "zero row", "rank deficient", "inverse",
                                             "2^61 - 1") for value in (True, False)} | {
        ("solve", kind) for kind in ("unique", "underdetermined", "inconsistent")}


def _integer_system(rng, gaussian, kind):
    """(the integer rows of [L·A | b], b in column ``cols``, cols): A of 1–9 columns
    and up to two more rows, a quarter or 0.6 of its entries nonzero, ints or Gaussian
    integers in −9…9, and b = A·x0 for an integer x0, so that x0/L, each entry over a
    denominator among 1, 2, 3, 5, 7 of lcm L, solves it.  ``kind`` "singular" replaces a
    row of a square A by a combination of two others, with b consistent;
    "inconsistent" does the same with b moved off that combination."""
    cols = rng.randint(1, 9)
    rows = cols if kind != "nonsingular" else cols + rng.randint(0, 2)

    def entry():
        re, im = rng.randint(-9, 9), rng.randint(-9, 9) if gaussian else 0
        return Scalar(re, im) if im else re

    density = rng.choice((0.25, 0.6))
    a = [[entry() if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    dens = [rng.choice((1, 2, 3, 5, 7)) for _ in range(cols)]
    L = lcm(*dens)
    x0 = [entry() * (L // den) for den in dens]
    b = [sum((x * y for x, y in zip(row, x0)), 0) for row in a]
    a = [[x * L for x in row] for row in a]
    if kind != "nonsingular" and rows >= 3:
        i, j, k = rng.sample(range(rows), 3)
        s, t = entry() or 1, entry() or 1
        a[k] = [s * x + t * y for x, y in zip(a[i], a[j])]
        b[k] = s * b[i] + t * b[j] + (1 if kind == "inconsistent" else 0)
    elif kind != "nonsingular":
        a[-1] = [0] * cols
        b[-1] = 1 if kind == "inconsistent" else 0
    return [{c: x for c, x in enumerate(row + [y]) if x} for row, y in zip(a, b)], cols


def test_solve_matches_fraction_gauss_jordan_on_integer_rows():
    # _solve (forward echelon, then one back substitution over one denominator) gives
    # (x, unique): x the solution of _ref_rref with every free variable 0, None for an
    # inconsistent system, and unique whether every column has a pivot, on int and
    # Gaussian-integer rows.
    rng = random.Random(20261020)
    seen = set()
    for trial in range(300):
        gaussian = trial % 2 == 1
        kind = ("nonsingular", "singular", "inconsistent")[trial // 2 % 3]
        rows, cols = _integer_system(rng, gaussian, kind)
        a = [[_pair(Scalar.coerce(row.get(c, 0))) for c in range(cols)] for row in rows]
        _, pivots, aug = _ref_rref(a, cols, [[_pair(Scalar.coerce(row.get(cols, 0)))] for row in rows])
        consistent = all(row[0] == _Z for row in aug[len(pivots):])
        want = [_Z] * cols  # every free variable 0
        for prow, pcol in enumerate(pivots):
            want[pcol] = aug[prow][0]
        got, unique = linalg._solve([dict(row) for row in rows], cols)
        assert unique == (len(pivots) == cols), trial
        assert (None if got is None else [_pair(x) for x in got]) == (want if consistent else None), trial
        seen.add((gaussian, kind, consistent and unique))
        seen.add((gaussian, "singular consistent", consistent and not unique))
    assert {(g, "nonsingular", True) for g in (False, True)} <= seen
    assert {(g, kind, False) for g in (False, True) for kind in ("singular", "inconsistent")} <= seen
    assert {(g, "singular consistent", True) for g in (False, True)} <= seen


def test_kernel_den_is_the_least_common_denominator_of_its_entries():
    # _back puts each new value over its content and grows D only to the lcm, so the
    # den of a kernel is the lcm of the reduced denominators of its entries.
    rng = random.Random(20261034)
    for trial in range(120):
        rows, cols = _integer_system(rng, trial % 2 == 1, ("nonsingular", "singular", "inconsistent")[trial % 3])
        basis, den, k = linalg._kernel(rows, cols + 1)
        want = lcm(1, *(den // _content(den, (x,)) for row in basis for x in row.values()))
        assert den == want, trial


def test_every_exact_solve_is_one_echelon_and_one_back_substitution(monkeypatch):
    # solve (unique or underdetermined), solve_any, kernel_basis and inverse each run
    # _echelon once and _back once, and an inconsistent solve _echelon alone: no second
    # elimination names the kind of a refused system, and no answer is read another way.
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg, "_echelon", counted("echelon", linalg._echelon))
    monkeypatch.setattr(linalg, "_back", counted("back", linalg._back))
    m = Matrix([[1, 2, 0], [0, 1, 1], [1, 3, 1]])  # rank 2: its third row is the sum of the others
    for rhs, kind, want in (([1, 1, 1], "inconsistent", ["echelon"]),
                            ([1, 1, 2], "underdetermined", ["echelon", "back"])):
        with pytest.raises(ValueError, match=kind):
            m.solve(rhs)
        assert calls == want, kind
        calls.clear()
    square = Matrix([[2, 1], [1, 1]])
    for query in (lambda: square.solve([1, 2]), lambda: m.solve_any([1, 1, 2]), m.kernel_basis, square.inverse):
        query()
        assert calls == ["echelon", "back"]
        calls.clear()


def test_up_to_scale_eliminations_put_each_row_over_its_own_denominator(monkeypatch):
    # rank, kernel_basis, inverse, solve, solve_any and ideal membership read each
    # row only up to scale, so no row enters _echelon carrying the denominator of
    # another: row i of m has every entry over the prime p_i, and its numerators
    # are divisible by no other p_j.
    primes = [1000003, 1000033, 1000037]
    nums = [[2, -3, 5], [7, 0, 4], [-1, 6, 1]]
    m = Matrix([[rational(n, p) for n in row] for row, p in zip(nums, primes)])
    seen = []

    def spy(a, cols):
        seen.append([list(row.values()) for row in a])
        return _echelon(a, cols)

    monkeypatch.setattr(linalg, "_echelon", spy)
    monkeypatch.setattr(rewrite, "_echelon", spy)
    queries = [m.rank, m.kernel_basis, m.inverse, lambda: m.solve([1, 2, 3]),
               lambda: m.solve_any([1, 2, 3])]
    for query in queries:
        query()
        rows = seen.pop()
        for i, row in enumerate(rows[:3]):
            assert all(x % p for x in row for j, p in enumerate(primes) if j != i), row
    g = Polynomial({(1,): Scalar(rational(1, primes[0])), (2,): Scalar(rational(1, primes[1]))})
    ideal_membership(Polynomial({(1, 1): ONE, (2, 1): Scalar(rational(1, primes[1]))}), [g], 2)
    for row in seen.pop():  # a word's row: the entries of the span vectors and the target there
        assert not any(all(x % p == 0 for x in row) for p in primes), row


def test_ideal_membership_matches_fraction_rank_of_the_span():
    # p lies in the span of {u·g·v : |u|+|v|+maxlen(g) ≤ max_deg} iff adding p
    # to the span vectors leaves their rank (_ref_rref over all words) as it is.
    rng = random.Random(20261028)
    letters, max_deg, seen = (1, 2), 3, set()
    for trial in range(60):
        complex_ = trial % 2 == 1
        gens = [Polynomial({tuple(rng.choice(letters) for _ in range(rng.randint(1, 2))):
                            _coprime_scalar(rng, complex_) for _ in range(rng.randint(1, 3))})
                for _ in range(rng.randint(1, 2))]
        span = []
        for g in gens:
            glen = g.max_word_len()
            for n in range(max_deg - glen + 1):
                for k in range(n + 1):
                    for u in product(letters, repeat=k):
                        for v in product(letters, repeat=n - k):
                            span.append({u + w + v: c for w, c in g.terms.items()})
        terms = {}
        if trial % 4 < 2:  # a combination of two span vectors
            for q in rng.sample(span, min(2, len(span))):
                s = _coprime_scalar(rng, complex_)
                for w, c in q.items():
                    terms[w] = terms.get(w, ZERO) + s * c
        else:
            for _ in range(rng.randint(1, 3)):
                w = tuple(rng.choice(letters) for _ in range(rng.randint(1, max_deg)))
                terms[w] = _coprime_scalar(rng, complex_)
        p = Polynomial(terms)
        words = sorted({w for q in span + [p.terms] for w in q})

        def rank(vectors):
            a = [[_pair(q.get(w, ZERO)) for w in words] for q in vectors]
            return len(_ref_rref(a, len(words), [[] for _ in a])[1])

        want = rank(span + [p.terms]) == rank(span)
        assert ideal_membership(p, gens, max_deg) == want, trial
        seen.add((complex_, all(g.is_homogeneous() for g in gens), want))
    assert {(c, w) for c, _, w in seen} == {(c, w) for c in (True, False) for w in (True, False)}
    assert {h for _, h, _ in seen} == {True, False}


def test_psd_rank_is_invariant_under_scale_and_permutation():
    # (is_psd, rank) of s·Q·M·Q* for s > 0 and a permutation Q is that of M.
    rng = random.Random(20261026)
    q_ij = {"q11": "1/2", "q12": "1/3", "q12_im": "1/4", "q21": "1/3", "q21_im": "-1/4",
            "q22": "-1/3"}
    mats = [p_n(make_preset("qccr", 2, q="3/7").tensor, 4),
            p_n(make_preset("q_ij", 2, **q_ij).tensor, 4),
            p_n(make_preset("bp_ce", 2, lam="1", eps="-3/5").tensor, 3),
            p_n(make_preset("twisted_car", 2, mu="1/2").tensor, 3)]
    mats += [_random_hermitian(rng, rng.randint(1, 9)) for _ in range(12)]
    mats += [_ldl_hermitian(rng, 6, last) for last in (Fraction(-1, 3), Fraction(0), Fraction(2))]
    mats += [_lone_corner(rng, 7)]
    seen = set()
    for m in mats:
        want = m.psd_rank()
        seen.add(want[0])
        for s in (Fraction(7, 3), Fraction(1, 2**61 - 1), Fraction(10**6)):
            perm = rng.sample(range(m.rows), m.rows)
            moved = Matrix([[m.data[p][q] * s for q in perm] for p in perm])
            assert moved.psd_rank() == want
    assert seen == {True, False}


def test_psd_rank_examples():
    assert Matrix([[0, 0], [0, 1]]).psd_rank() == (True, 1)
    assert Matrix([[0, 1], [1, 0]]).psd_rank() == (False, 2)
    assert Matrix([[0, 1], [1, 1]]).psd_rank() == (False, 2)
    assert Matrix([[1, Scalar(0, 1)], [Scalar(0, -1), 1]]).psd_rank() == (True, 1)
    assert Matrix([[1, 2], [2, 1]]).psd_rank() == (False, 2)
    assert zeros(0, 0).psd_rank() == (True, 0)
    with pytest.raises(ValueError):
        Matrix([[1, 1], [0, 1]]).psd_rank()


_ROW_KERNELS = ("_sparse_product", "_echelon", "_back", "_kernel", "_solve", "_psd_rank",
                "_hermitian", "_float_view")
_GUARD_TENSORS = [
    make_preset("twisted_car", 2, mu="2/3").tensor,
    make_preset("q_ij", 2, q11="-1", q22="-1", q12="3/5", q12_im="4/5", q21="3/5",
                q21_im="-4/5").tensor,
]


def _is_integer(x) -> bool:
    return type(x) is int or (type(x) is Scalar and x.re.denominator == 1 == x.im.denominator)


@pytest.mark.parametrize("T", _GUARD_TENSORS, ids=["real", "complex"])
def test_row_kernels_take_integer_rows_only(monkeypatch, T):
    # Every row that reaches a row kernel, from any module that binds it, holds
    # ints or Gaussian integers: Scalar rows are converted before any kernel.
    seen = set()

    def checked(name, fn):
        def wrapper(*args):
            seen.add(name)
            for arg in args:
                for row in arg if type(arg) is list else ():
                    bad = [x for x in (row.values() if type(row) is dict else [row]) if not _is_integer(x)]
                    assert not bad, f"{name} got {bad[:3]}"
            return fn(*args)
        return wrapper

    for name in _ROW_KERNELS:
        fn = getattr(linalg, name)
        for mod in (linalg, tensorops, kms, diffcalc, braid, ideals, rewrite, states):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, checked(name, fn))
    x = parse_expression("2/3 a1 a2 a2* a1* + a1* a1 - 1/5 a2 a1 a2* a1*", T.d)
    kms_evaluate(x, rational(2, 5), T)
    kms_series(T, rational(1, 3), 3)
    positivity_report(T, 3)
    list(diffcalc.form_levels(T, 4))
    P = ideals.minus_one_eigenprojection(T)
    assert ideals.quadratic_ideal_check(T, P) == {"linear": True, "quadratic": True}
    ideals.ideal_generator_relations(T, P)
    t_of_permutation(T, (3, 1, 2))
    braid.permutation_kernel_psd(T, 2)
    gens = [parse_expression("a1 a1", T.d)]
    wick_ideal_condition_check(T, gens, 3)
    m = identity(4) + t_matrix(T).scale(rational(1, 3))
    m.rank(), m.psd_rank(), m.kernel_basis(), m.inverse(), m.is_hermitian(), m.to_complex()
    rhs = [rational(1, r + 2) for r in range(4)]
    m.solve(rhs), m.solve_any(rhs), m.solve_consistent(rhs)
    assert seen == set(_ROW_KERNELS)
