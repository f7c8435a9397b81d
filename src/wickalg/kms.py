"""Gauge-KMS functionals: the rank series of the level Gram operators and
the inductive per-bidegree evaluator.

A normal word of bidegree (n, m) is a_{i₁}…a_{i_n} a_{j₁}†…a_{j_m}†.  The
KMS exchange moves one generator letter past the trace,
κ_λ(a_i·a_{I'}a_J†) = λ·κ_λ(a_{I'}·a_J†a_i); Wick ordering a_J†·a_i gives
(n, m) words a_{I'}a_l a_h†, the matrix Φ, and (n−1, m−1) words, whose values
are known, the vector b, so each bidegree is one exact system
(I − λΦ)x = λb.  The (n, m) system has d^(n+m) unknowns, so it is refused,
before it or any lower bidegree is built, when d^(n+m) exceeds the same
dense cap that bounds the level Gram operators.
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


def _exchanged_forms(T: CoeffTensor, gen: tuple, dags: list, tree: dict | None = None):
    """Yield (J, normal form of a_J†·a_gen as scaled terms ({(g, h): c}, den)) for the
    adjoint words J of ``dags`` in order, from one tree of ``Rewriter.dagger`` steps keyed
    by the suffixes of J; the term budget is counted per word along its path.  ``tree``
    (suffix -> (scaled terms, work on its path)), kept by the caller for one ``gen``, is
    extended in place, so a later call starts from the suffixes already there."""
    rw = rewriter_for(T)
    if tree is None:
        tree = {}
    if not tree:
        tree[()] = rw.scaled({(gen, ()): ONE}), 0
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
    solving each bidegree block (I − λΦ)x = λb once by ``linalg._solve`` on integer rows.
    Row a_i a_{I'} a_J† is a_J†·a_i, terms c over den, from the :func:`_exchanged_forms`
    tree of the letter i, which the evaluator keeps for every bidegree: its terms a_l a_h†
    put −c at the word a_{I'}a_l a_h† of Φ, its contracted terms a_h† put c·κ(a_{I'}a_h†)
    in b.  With λ = p/q the row is q·den·(I − λΦ), and a nonzero b of denominator e scales
    it by e, with p·e·b in the augment column.  At n = 0 no letter moves, so every row of
    the identity exchange is empty.  Past ``cap``, d^(n+m) is refused before anything is
    built."""

    def __init__(self, T: CoeffTensor, lam, cap: int = DEFAULT_DIM_CAP):
        self.T = T
        self.cap = cap
        self.lam = _fugacity(lam)
        self.known: dict = {(): ONE}
        self._solved = {(0, 0)}
        self._trees: dict = {}  # letter i -> the _exchanged_forms tree of a_J†·a_i

    # -- internals -------------------------------------------------------------
    def _bidegree_words(self, n: int, m: int) -> list:
        r = range(1, self.T.d + 1)
        return [g + tuple(-j for j in h) for g in product(r, repeat=n) for h in product(r, repeat=m)]

    def _forms(self, i: int, dags: list) -> dict:
        """The tree of letter i, holding a_J†·a_i for every J of ``dags``: each J asked
        of :func:`_exchanged_forms` once, and only if no bidegree has built it yet."""
        tree = self._trees.setdefault(i, {})
        for _ in _exchanged_forms(self.T, (i,), [J for J in dags if J not in tree], tree):
            pass
        return tree

    def _ensure(self, n: int, m: int) -> None:
        if (n, m) in self._solved:
            return
        _check_cap(self.T.d, n + m, self.cap)
        if n > 0 and m > 0:
            self._ensure(n - 1, m - 1)
        words = self._bidegree_words(n, m)
        size = len(words)  # the augment column
        rows = [{} for _ in words]  # n = 0: κ(a_J†) = κ(a_J†)
        if n:
            idx = {w: a for a, w in enumerate(words)}
            dags = [w[n:] for w in words[:self.T.d**m]]
            trees = {i: self._forms(i, dags) for i in range(1, self.T.d + 1)}
            p, q = self.lam.re._numerator, self.lam.re._denominator
            for a, w in enumerate(words):
                (terms, den), head = trees[w[0]][w[n:]][0], w[1:n]
                row, b = {a: q * den}, ZERO
                for (g, h), c in terms.items() if p else ():  # λ = 0: the diagonal alone
                    if g:
                        _add(row, idx[head + g + h], -p * c)
                    else:
                        b = b + c * self.known[head + h]
                if b:  # e·row, with p·e·b in the augment column
                    e = _denominator((b,))
                    row = {**{col: e * x for col, x in row.items()}, size: p * _numerator(b, e)}
                rows[a] = row
        sol, unique = _solve(rows, size)
        if not unique:
            raise KmsNonUniquenessError(f"bidegree ({n},{m}) system is singular at lambda="
                                        f"{rational_str(self.lam.re)}")
        self.known.update(zip(words, sol))
        self._solved.add((n, m))

    # -- public ------------------------------------------------------------------
    def value_of_word(self, w) -> Scalar:
        """κ_λ(a_w) of a normal word w (read as a tuple), its letters a_i (i > 0) before
        a_j† (−j < 0), 1 ≤ i, j ≤ d."""
        w = tuple(w)
        n = sum(1 for c in w if c > 0)
        if any(c > 0 for c in w[n:]) or not all(0 < abs(c) <= self.T.d for c in w):
            raise ValueError(f"{w} is not a normal word in letters ±1..±{self.T.d}")
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
