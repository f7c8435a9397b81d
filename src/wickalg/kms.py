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

from itertools import product

from .algebra import CoeffTensor, Polynomial, hermiticity_check
from .linalg import _psd_rank_over, _solve
from .rewrite import DEFAULT_TERM_CAP, TermBudgetExceeded, _add, rewriter_for, wick_order
from .scalars import ONE, ZERO, Scalar, _denominator, _numerator, rational_str
from .tensorops import DEFAULT_DIM_CAP, _check_cap, _gram_rows

__all__ = ["KmsNonUniquenessError", "kms_series", "KmsEvaluator", "kms_evaluate"]


class KmsNonUniquenessError(ValueError):
    """The per-bidegree linear system is singular at this λ: the functional
    value is not uniquely determined."""


def _fugacity(lam) -> Scalar:
    """λ as a Scalar; a KMS functional is positive, so λ < 0 is refused."""
    lam = Scalar.coerce(lam)
    if lam.im or lam.re < 0:
        raise ValueError("lambda must be a nonnegative real rational")
    return lam


def kms_series(T: CoeffTensor, lam, n_max: int, cap: int = DEFAULT_DIM_CAP) -> dict:
    """Exact ranks of the level Gram operators, each decided on the integer rows
    of :func:`~wickalg.tensorops._gram_rows`, and partial sums Σ λⁿ·rank.

    Returns {"ranks": [rank P_0, …, rank P_{n_max}],
             "partial_sums": [Scalar, …]} (both lists of length n_max+1).
    """
    lam = _fugacity(lam)
    if not hermiticity_check(T):
        raise ValueError("kms_series requires a hermitian tensor")
    ranks = [1] + [_psd_rank_over(rows, den)[1] for _, rows, den in _gram_rows(T, n_max, cap)]
    partial_sums = []
    acc = ZERO
    lam_pow = ONE
    for n, r in enumerate(ranks):
        acc = acc + lam_pow * Scalar(r)
        partial_sums.append(acc)
        lam_pow = lam_pow * lam
    return {"ranks": ranks, "partial_sums": partial_sums}


def _exchanged_forms(T: CoeffTensor, gen: tuple, dags: list):
    """Yield (J, normal form of a_J†·a_gen as scaled terms ({(g, h): c}, den)) for the
    adjoint words J of ``dags`` in order, from one tree of ``Rewriter.dagger`` steps keyed
    by the suffixes of J; the term budget is counted per word along its path."""
    rw = rewriter_for(T)
    tree = {(): (rw.scaled({(gen, ()): ONE}), 0)}  # suffix of J -> (scaled terms, work on its path)
    for J in dags:
        for s in range(len(J) - 1, -1, -1):
            if J[s:] not in tree:
                scaled, work = tree[J[s + 1:]]
                scaled = rw.dagger(-J[s], scaled)
                work += len(scaled[0]) if gen else 0  # a_J† alone is normal
                if work > DEFAULT_TERM_CAP:
                    raise TermBudgetExceeded(f"intermediate term count exceeded cap={DEFAULT_TERM_CAP}")
                tree[J[s:]] = scaled, work
        yield J, tree[J][0]


class KmsEvaluator:
    """Evaluates the gauge-KMS functional κ_λ (λ ≥ 0) on Wick-ordered polynomials,
    solving each bidegree block (I − λⁿA)x = λⁿb once by ``linalg._solve`` on integer rows:
    row a_I·a_J† is a_J†·a_I from the :func:`_exchanged_forms` of I, terms c over den, its
    (n, m) words in A and lower ones in b.  With λⁿ = p/q the row is q·den·(I − λⁿA), and a
    nonzero b of denominator e scales it by e, with p·e·b in the augment column.  Past
    ``cap``, d^(n+m) is refused before anything is built."""

    def __init__(self, T: CoeffTensor, lam, cap: int = DEFAULT_DIM_CAP):
        self.T = T
        self.cap = cap
        self.lam = _fugacity(lam)
        self.known: dict = {(): ONE}
        self._solved = {(0, 0)}

    # -- internals -------------------------------------------------------------
    def _bidegree_words(self, n: int, m: int) -> list:
        r = range(1, self.T.d + 1)
        return [g + tuple(-j for j in h) for g in product(r, repeat=n) for h in product(r, repeat=m)]

    def _ensure(self, n: int, m: int) -> None:
        if (n, m) in self._solved:
            return
        _check_cap(self.T.d, n + m, self.cap)
        if n > 0 and m > 0:
            self._ensure(n - 1, m - 1)
        words = self._bidegree_words(n, m)
        idx = {w: a for a, w in enumerate(words)}
        size, dm, lam_n = len(words), self.T.d**m, (self.lam ** n).re
        p, q, rows = lam_n._numerator, lam_n._denominator, []  # augment column ``size``
        for gen in (w[:n] for w in words[::dm]):
            for J, (terms, den) in _exchanged_forms(self.T, gen, [w[n:] for w in words[:dm]]):
                row, b = {len(rows): q * den}, ZERO
                for (g, h), c in terms.items() if p else ():  # λⁿ = 0: the diagonal alone
                    if len(g) == n and len(h) == m:
                        _add(row, idx[g + h], -p * c)
                    else:
                        b = b + c * self.known[g + h]
                if b:  # e·row, with p·e·b in the augment column
                    e = _denominator((b,))
                    row = {**{col: e * x for col, x in row.items()}, size: p * _numerator(b, e)}
                rows.append(row)
        sol = _solve(rows, size)
        if sol is None:
            raise KmsNonUniquenessError(f"bidegree ({n},{m}) system is singular at lambda="
                                        f"{rational_str(self.lam.re)}")
        self.known.update(zip(words, sol))
        self._solved.add((n, m))

    # -- public ------------------------------------------------------------------
    def value_of_word(self, w) -> Scalar:
        n = sum(1 for c in w if c > 0)
        m = len(w) - n
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
