"""Shared strategies and helpers for the test suite."""

import random
from math import comb  # noqa: F401  (re-exported for tests)

from hypothesis import strategies as st

from wickalg import (
    CoeffTensor,
    KmsEvaluator,
    KmsNonUniquenessError,
    Polynomial,
    Scalar,
    embed,
    identity,
    kron,
    make_preset,
    rational,
    t_matrix,
    wick_order,
)
from wickalg.scalars import rational_str

# -- small exact scalars -------------------------------------------------------

rationals = st.builds(
    lambda n, d: rational(n, d),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)

scalars = st.builds(Scalar, rationals, rationals)
real_scalars = st.builds(Scalar, rationals)
nonzero_scalars = scalars.filter(bool)


def letters(d: int):
    """Signed letter codes for d generators."""
    return st.integers(min_value=1, max_value=d).flatmap(
        lambda i: st.sampled_from([i, -i])
    )


def words(d: int, max_len: int = 4):
    return st.lists(letters(d), min_size=0, max_size=max_len).map(tuple)


def polynomials(d: int, max_len: int = 4, max_terms: int = 4):
    return st.dictionaries(
        words(d, max_len), scalars, min_size=0, max_size=max_terms
    ).map(Polynomial)


def gen_words(d: int, max_len: int = 4):
    return st.lists(
        st.integers(min_value=1, max_value=d), min_size=0, max_size=max_len
    ).map(tuple)


def gen_polynomials(d: int, max_len: int = 4, max_terms: int = 4):
    return st.dictionaries(
        gen_words(d, max_len), scalars, min_size=0, max_size=max_terms
    ).map(Polynomial)


# -- sample tensors -----------------------------------------------------------


def sample_tensors() -> list:
    """A spread of small hermitian tensors for property tests."""
    return [
        CoeffTensor(2, {}),
        make_preset("qccr", 2, q="1/2").tensor,
        make_preset("qccr", 2, q="-1/2").tensor,
        make_preset("tlw", 2, q="1/3").tensor,
        make_preset("twisted_ccr", 2, mu="1/2").tensor,
        make_preset("twisted_car", 2, mu="1/2").tensor,
        make_preset("snu2", nu="1/2").tensor,
        make_preset("degenerate", 2).tensor,
    ]


@st.composite
def tensors(draw, d_max: int = 3):
    """A CoeffTensor on 1..d_max generators with a few entries, real or
    complex, made Hermitian or left as drawn."""
    d = draw(st.integers(min_value=1, max_value=d_max))
    index = st.integers(min_value=1, max_value=d)
    keys = st.tuples(index, index, index, index)
    entries = draw(st.dictionaries(keys, draw(st.sampled_from([real_scalars, scalars])),
                                   max_size=2 * d * d))
    if draw(st.booleans()):  # Hermitian: T_{ji}^{lk} = conj(T_{ij}^{kl})
        hermitian = {}
        for (i, j, k, l), c in entries.items():
            if (i, j, k, l) not in hermitian:
                hermitian[i, j, k, l] = c if (i, k) != (j, l) else Scalar(c.re)
                hermitian[j, i, l, k] = hermitian[i, j, k, l].conjugate()
        entries = hermitian
    return CoeffTensor(d, entries)


def kron_gram_levels(T, n_max: int):
    """P_1, …, P_{n_max} by P_{m+1} = (I ⊗ P_m)·A_m, A_m = I + T₁·(I ⊗ A_{m−1}),
    with every I ⊗ X and T₁ = T ⊗ I a dense Kronecker product: the reference
    the library's block-by-block recursion is tested against."""
    tm = t_matrix(T)
    p = a = eye = identity(T.d)
    for m in range(n_max):
        if m:
            t1 = kron(tm, identity(T.d ** (m - 1)))
            a = identity(T.d ** (m + 1)) + t1 * kron(eye, a)
            p = kron(eye, p) * a
        yield p


def kron_form_levels(T, p_max: int):
    """Ω^0, …, Ω^{p_max} by B_m = (I ⊗ B_{m−1})·ker(embed(I+T, 1, m)·(I ⊗ B_{m−1})),
    with I ⊗ B_{m−1} a dense Kronecker product, embed the dense d^m × d^m slot
    operator and every product a dense ``Matrix`` product: the reference the
    library's sparse-row build of the form spaces is tested against."""
    d = T.d
    it = identity(d * d) + t_matrix(T)
    B = identity(1)
    for m in range(p_max + 1):
        if m:
            B = kron(identity(d), B)
        if m > 1 and B.cols:
            B = B * (embed(it, 1, m) * B).kernel_basis()
        yield B


def dense_generator_relations(T, P):
    """P₁P₃·T₂T₁T₃T₂·P₃P₁ on H^{⊗4} as a chain of dense ``embed`` products."""
    tm = t_matrix(T)
    p1, p3 = embed(P, 1, 4), embed(P, 3, 4)
    t = {i: embed(tm, i, 4) for i in (1, 2, 3)}
    return p1 * p3 * t[2] * t[1] * t[3] * t[2] * p3 * p1


class DenseKmsEvaluator(KmsEvaluator):
    """The KMS evaluator with each bidegree system built densely: the identity
    matrix of all d^(n+m) words, one ``wick_order`` per exchanged word a_J†·a_I
    and one ``Matrix.solve``.  The reference for the sparse-row systems and the
    shared-suffix normal forms of :class:`~wickalg.KmsEvaluator`."""

    def _ensure(self, n: int, m: int) -> None:
        if (n, m) in self._solved:
            return
        if n > 0 and m > 0:
            self._ensure(n - 1, m - 1)
        words = self._bidegree_words(n, m)
        idx = {w: a for a, w in enumerate(words)}
        lam_n = self.lam ** n
        S = identity(len(words))  # becomes I − λⁿA, A the same-bidegree part
        b = [Scalar(0)] * len(words)
        for a, w in enumerate(words):
            nf = wick_order(Polynomial.monomial(w[n:] + w[:n]), self.T)
            for v, c in nf.terms.items():
                if sum(1 for x in v if x > 0) == n and len(v) == n + m:
                    S.data[a][idx[v]] -= lam_n * c
                else:
                    b[a] = b[a] + c * self.known[v]
        try:
            sol = S.solve([lam_n * x for x in b])
        except ValueError as exc:
            raise KmsNonUniquenessError(
                f"bidegree ({n},{m}) system is singular at lambda={rational_str(self.lam.re)}"
            ) from exc
        self.known.update(zip(words, sol))
        self._solved.add((n, m))


def random_gen_word(rng: random.Random, d: int, length: int) -> tuple:
    return tuple(rng.randrange(1, d + 1) for _ in range(length))
