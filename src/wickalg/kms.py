"""Gauge-KMS functionals: the rank series of the level Gram operators and
the inductive per-bidegree evaluator.

A normal word of bidegree (n, m) is a_{i₁}…a_{i_n} a_{j₁}†…a_{j_m}†.  The
KMS exchange moves the n generator letters past the trace, giving
κ_λ(X) = λⁿ·κ_λ(X̃) with X̃ the exchanged word; Wick ordering X̃ and
splitting off lower bidegrees yields one exact linear system per bidegree.
The (n, m) system has d^(n+m) unknowns, so it is refused, before it or any
lower bidegree is built, when d^(n+m) exceeds the same dense cap that bounds
the level Gram operators.
"""

from __future__ import annotations

from .algebra import CoeffTensor, Polynomial, hermiticity_check
from .linalg import identity
from .rewrite import wick_order
from .scalars import ONE, ZERO, Scalar, rational_str
from .tensorops import DEFAULT_DIM_CAP, _check_cap, gram_levels

__all__ = ["KmsNonUniquenessError", "kms_series", "KmsEvaluator", "kms_evaluate"]


class KmsNonUniquenessError(ValueError):
    """The per-bidegree linear system is singular at this λ: the functional
    value is not uniquely determined."""


def kms_series(T: CoeffTensor, lam, n_max: int, cap: int = DEFAULT_DIM_CAP) -> dict:
    """Exact ranks of the level Gram operators, each from the Hermitian
    elimination :meth:`~wickalg.linalg.Matrix.psd_rank`, and partial sums Σ λⁿ·rank.

    Returns {"ranks": [rank P_0, …, rank P_{n_max}],
             "partial_sums": [Scalar, …]} (both lists of length n_max+1).
    """
    lam = Scalar.coerce(lam)
    if lam.im or lam.re < 0:
        raise ValueError("lambda must be a nonnegative real rational")
    if not hermiticity_check(T):
        raise ValueError("kms_series requires a hermitian tensor")
    ranks = [1] + [p.psd_rank()[1] for p in gram_levels(T, n_max, cap)]
    partial_sums = []
    acc = ZERO
    lam_pow = ONE
    for n, r in enumerate(ranks):
        acc = acc + lam_pow * Scalar(r)
        partial_sums.append(acc)
        lam_pow = lam_pow * lam
    return {"ranks": ranks, "partial_sums": partial_sums}


def _bidegree(w) -> tuple:
    n = sum(1 for c in w if c > 0)
    return n, len(w) - n


class KmsEvaluator:
    """Evaluates the gauge-KMS functional κ_λ on Wick-ordered polynomials,
    solving each bidegree block once and caching the values.  A bidegree
    (n, m) with d^(n+m) past ``cap`` is refused before anything is built."""

    def __init__(self, T: CoeffTensor, lam, cap: int = DEFAULT_DIM_CAP):
        self.T = T
        self.cap = cap
        self.lam = Scalar.coerce(lam)
        if self.lam.im:
            raise ValueError("lambda must be real")
        self.known: dict = {(): ONE}
        self._solved = {(0, 0)}

    # -- internals -------------------------------------------------------------
    def _bidegree_words(self, n: int, m: int) -> list:
        d = self.T.d
        words = [()]
        for _ in range(n):
            words = [w + (i,) for w in words for i in range(1, d + 1)]
        for _ in range(m):
            words = [w + (-j,) for w in words for j in range(1, d + 1)]
        return words

    def _ensure(self, n: int, m: int) -> None:
        if (n, m) in self._solved:
            return
        _check_cap(self.T.d, n + m, self.cap)
        if n > 0 and m > 0:
            self._ensure(n - 1, m - 1)
        words = self._bidegree_words(n, m)
        idx = {w: a for a, w in enumerate(words)}
        lam_n = self.lam ** n
        S = identity(len(words))  # becomes I − λⁿA, A the same-bidegree part
        b = [ZERO] * len(words)
        for a, w in enumerate(words):
            exchanged = w[n:] + w[:n]  # dag group first, then the gen group
            nf = wick_order(Polynomial.monomial(exchanged), self.T)
            for v, c in nf.terms.items():
                if _bidegree(v) == (n, m):
                    S.data[a][idx[v]] -= lam_n * c
                else:
                    b[a] = b[a] + c * self.known[v]
        rhs = [lam_n * x for x in b]
        try:
            sol = S.solve(rhs)
        except ValueError as exc:
            raise KmsNonUniquenessError(
                f"bidegree ({n},{m}) system is singular at lambda={rational_str(self.lam.re)}"
            ) from exc
        for a, w in enumerate(words):
            self.known[w] = sol[a]
        self._solved.add((n, m))

    # -- public ------------------------------------------------------------------
    def value_of_word(self, w) -> Scalar:
        n, m = _bidegree(w)
        if n != m and self.lam != ONE:
            return ZERO  # gauge grading kills unbalanced words away from λ=1
        self._ensure(n, m)
        return self.known[w]

    def evaluate(self, X: Polynomial) -> Scalar:
        total = ZERO
        for w, c in wick_order(X, self.T).terms.items():
            total = total + c * self.value_of_word(w)
        return total


def kms_evaluate(X: Polynomial, lam, T: CoeffTensor, cap: int = DEFAULT_DIM_CAP) -> Scalar:
    """κ_λ(X) with κ_λ(1)=1, computed by induction on the bidegree."""
    return KmsEvaluator(T, lam, cap).evaluate(X)
