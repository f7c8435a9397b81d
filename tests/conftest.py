"""Shared strategies and helpers for the test suite."""

import random
from itertools import product
from math import comb  # noqa: F401  (re-exported for tests)

from math import inf

from hypothesis import strategies as st

from wickalg import (
    CoeffTensor,
    KmsEvaluator,
    KmsNonUniquenessError,
    Matrix,
    Polynomial,
    Scalar,
    eigvalsh,
    embed,
    identity,
    index_to_word,
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


def entry_t_matrix(T):
    """T's operator on H⊗H written entry by entry from ``T.get``: ⟨ij| · |kl⟩ = T_{ik}^{lj}."""
    pairs = list(product(range(1, T.d + 1), repeat=2))
    return Matrix([[T.get(i, k, l, j) for k, l in pairs] for i, j in pairs])


def entry_ttilde_matrix(T):
    """The exchange operator on H⊗H entry by entry from ``T.get``: ⟨lk| · |ij⟩ = T_{ij}^{kl}."""
    pairs = list(product(range(1, T.d + 1), repeat=2))
    return Matrix([[T.get(i, j, k, l) for i, j in pairs] for l, k in pairs])


def dense_positivity_checks(T, n_max: int) -> dict:
    """The ``t_spectrum``, ``sufficient_criteria``, ``bounds`` and ``p3_diagonal_witness``
    checks of ``positivity_report(T, n_max)``, by name, from :func:`entry_t_matrix`: dense
    ``Matrix`` sums and scalings, ``psd_rank`` and ``eigvalsh``, the braid relation of dense
    Kronecker products, P_3 from :func:`kron_gram_levels` and the witness on H^{⊗3}."""
    tm, d = entry_t_matrix(T), T.d
    eye, t1, t2 = identity(d * d), kron(tm, identity(d)), kron(identity(d), tm)
    is_psd, rank = tm.psd_rank()
    ev = eigvalsh(tm)
    t_plus, t_minus = float(ev[-1]), float(ev[0])
    norm = max(abs(t_plus), abs(t_minus))
    plus, minus = (eye + tm).psd_rank(), (eye - tm).psd_rank()
    definite = plus == minus == (True, d * d)
    criteria = {
        "norm_le_half": definite and (eye + tm.scale(2)).psd_rank()[0] and (eye - tm.scale(2)).psd_rank()[0],
        "t_positive": is_psd,
        "braid_and_norm_le_one": t1 * t2 * t1 == t2 * t1 * t2 and plus[0] and minus[0],
    }
    bounds = {}
    if definite:
        bounds["operator_bound"] = 1.0 / (1.0 - norm) if norm < 1.0 else inf
    if minus == (True, d * d):
        bounds["collective_bound"] = 1.0 / (1.0 - t_plus) if t_plus < 1.0 else inf
    checks = {
        "t_spectrum": {"norm": norm, "t_plus": t_plus, "t_minus": t_minus, "rank": rank, "is_psd": is_psd,
                       "decided_by": "exact"},  # d² below tensorops.CERTIFY_MIN_DIM
        "sufficient_criteria": {**criteria, "any_fires": any(criteria.values())},
        "bounds": bounds,
    }
    if n_max >= 3 and not list(kron_gram_levels(T, 3))[-1].psd_rank()[0]:
        try:
            m = (identity(d**3) + t2).inverse() + t1
        except ValueError:
            return checks
        best, w = min((m[w, w].re, w) for w in range(d**3))
        checks["p3_diagonal_witness"] = {"value": rational_str(best), "value_float": float(best),
                                         "basis_word": list(index_to_word(w, d, 3)), "negative": best < 0}
    return checks


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


def dense_eigenprojection(T):
    """B(B*B)⁻¹B* on H⊗H, B the ``kernel_basis`` of the dense I + T and every
    product a dense ``Matrix`` product."""
    B = (identity(T.d**2) + t_matrix(T)).kernel_basis()
    Bs = B.adjoint()
    return B * (Bs * B).inverse() * Bs


def dense_is_projection(P):
    """P = P* = P² by dense ``Matrix`` equality and product."""
    return P.rows == P.cols and P == P.adjoint() and P * P == P


def dense_quadratic_ideal_check(T, P):
    """(I + T)·P = 0 and (I⊗(I−P))·(T⊗I)(I⊗T)·(P⊗I) = 0 as dense ``Matrix``
    products, each two-slot operator on H^{⊗3} a dense Kronecker product."""
    tm, eye, eye2 = t_matrix(T), identity(T.d), identity(T.d**2)
    chain = kron(eye, eye2 - P) * kron(tm, eye) * kron(eye, tm) * kron(P, eye)
    return {"linear": ((eye2 + tm) * P).is_zero(), "quadratic": chain.is_zero()}


def dense_ideal_membership(p, gens, max_deg: int, d: int) -> bool:
    """Whether p lies in the span of every u·g·v, u and v words in all the letters
    1..d with |u|+|v|+maxlen(g) ≤ max_deg, by the ranks of two dense ``Matrix``es
    over all words: the span vectors, and the span vectors with p."""
    vectors = []
    for g in gens:
        for n in range(max_deg - g.max_word_len() + 1):
            for a in range(n + 1):
                for u in product(range(1, d + 1), repeat=a):
                    for v in product(range(1, d + 1), repeat=n - a):
                        vectors.append({u + w + v: c for w, c in g.terms.items()})
    if not p.terms:
        return True
    words = sorted({w for q in vectors + [p.terms] for w in q})

    def rank(vs):
        return Matrix([[q.get(w, 0) for w in words] for q in vs]).rank() if vs else 0

    return rank(vectors + [p.terms]) == rank(vectors)


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
