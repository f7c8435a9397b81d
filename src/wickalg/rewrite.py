"""Wick-ordering rewrite engine, identity verification, ideal membership.

The single rewrite rule replaces an adjacent pair ``a_i† a_j`` by
``δ_ij·1 + Σ_{k,l} T_{ij}^{kl} a_l a_k†``.  The rewriting system is confluent
(diamond property), so the normal form is independent of the substitution
order.  Two engines compute it:

- :class:`Rewriter`, the default, memoizes per tensor how ``a_k†`` passes a
  generator word and absorbs the letters of a word into its normal suffix
  from right to left;
- a one-step rewriter with leftmost, rightmost or random redex choice
  (``wick_order(..., strategy=...)``), the independent reference.

Membership in a degree-truncated two-sided ideal of the generator-only
subalgebra is exact linear algebra: the span of the words u·g·v is built
once per word length (once over all lengths if a generator is
inhomogeneous), and targets lie in it iff they leave its rank unchanged.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterable, Optional

from .algebra import CoeffTensor, Polynomial, Word
from .linalg import _echelon
from .scalars import ONE

__all__ = [
    "TermBudgetExceeded",
    "is_normal",
    "wick_order",
    "verify_identity",
    "ideal_membership",
    "Rewriter",
    "rewriter_for",
    "DEFAULT_TERM_CAP",
]

DEFAULT_TERM_CAP = 10**6


class TermBudgetExceeded(RuntimeError):
    """Raised when an intermediate rewrite exceeds the monomial budget."""


def is_normal(w: Word) -> bool:
    """True iff no Dag letter occurs to the left of any Gen letter."""
    seen_dag = False
    for c in w:
        if c < 0:
            seen_dag = True
        elif seen_dag:
            return False
    return True


def _redex_positions(w: Word) -> list:
    return [p for p in range(len(w) - 1) if w[p] < 0 and w[p + 1] > 0]


def _check_indices(p: Polynomial, d: int) -> None:
    for w in p.terms:
        for c in w:
            if not 1 <= abs(c) <= d:
                raise ValueError(f"generator index {abs(c)} out of range 1..{d}")


def _check_generator_words(words, d: int) -> None:
    """ValueError unless every word uses only the generator letters a_1..a_d."""
    for w in words:
        if not all(1 <= c <= d for c in w):
            raise ValueError(f"word {w} is not generator-only over a_1..a_{d}")


def _add(acc: dict, key, v) -> None:
    """acc[key] += v, keeping no zero value."""
    s = acc.get(key)
    s = v if s is None else s + v
    if s:
        acc[key] = s
    elif key in acc:
        del acc[key]


class Rewriter:
    """Memoized Wick normalizer of one tensor.

    Its memo ``_cache`` is the map (k, g) ↦ a_k†·a_g for generator words g
    (see :meth:`through`).  Normal ordering, the annihilators of
    ``states``, the twisted derivatives of ``diffcalc`` and the Wick-ideal
    check of ``ideals`` all read it.  ``cap`` bounds the terms one
    :meth:`wick_order` call makes; it is a per-call budget that
    :func:`wick_order` sets, not part of the memo.
    """

    def __init__(self, T: CoeffTensor):
        self.T = T
        self.cap = DEFAULT_TERM_CAP
        self._cache: dict = {}
        self._work = 0

    def through(self, k: int, g: Word) -> dict:
        """a_k†·a_g for a generator word g, as {(g', m): c} meaning
        Σ c·a_{g'}·a_m†, with m = 0 for a contracted term (no a†):

            a_k†·1 = a_k†,
            a_k†·a_j a_h = δ_kj·a_h + Σ_{k',l} T_{kj}^{k'l} a_l·(a_{k'}†·a_h).

        The returned dict is the memo entry; do not modify it.  A missing
        entry is filled without recursion, so a word of any length passes:
        an explicit stack holds the pairs (k', suffix of g) still to fill,
        and a pair is filled once every pair it needs is in the memo.  That
        fills the entries the recursion would, and no others.
        """
        cache = self._cache
        out = cache.get((k, g))
        if out is not None:
            return out
        row = self.T.row
        todo = [(k, g)]
        while todo:
            key = todo[-1]
            k2, h = key
            if h:
                j, rest = h[0], h[1:]
                r = row(k2, j)
                for kk, _, _ in r:
                    if (kk, rest) not in cache:
                        todo.append((kk, rest))
                if todo[-1] is not key:
                    continue  # fill the missing suffix entries first
                out = {(rest, 0): ONE} if j == k2 else {}
                for kk, l, c in r:
                    for (hh, m), v in cache[(kk, rest)].items():
                        _add(out, ((l,) + hh, m), c * v)
            else:
                out = {((), k2): ONE}
            cache[key] = out
            todo.pop()
            while todo and todo[-1] in cache:  # a pair pushed twice
                todo.pop()
        return out

    def normal_form_word(self, w: Word) -> dict:
        """Normal form of a single word as a dict Word -> Scalar.

        The longest normal suffix of ``w`` stays as it is; the letters before
        it are absorbed from right to left into terms a_g·a_h† (g generator,
        h adjoint letters): a generator letter is prepended to g, and a_k†
        passes g by :meth:`through`.
        """
        e = len(w)
        while e and w[e - 1] < 0:
            e -= 1
        s = e
        while s and w[s - 1] > 0:
            s -= 1
        terms = {(w[s:e], w[e:]): ONE}
        for x in reversed(w[:s]):
            if x > 0:
                terms = {((x,) + g, h): c for (g, h), c in terms.items()}
            else:
                out: dict = {}
                for (g, h), c in terms.items():
                    for (g2, m), v in self.through(-x, g).items():
                        _add(out, (g2, (-m,) + h if m else h), c * v)
                terms = out
            self._work += len(terms)
            if self._work > self.cap:
                raise TermBudgetExceeded(
                    f"intermediate term count exceeded cap={self.cap}"
                )
        return {g + h: c for (g, h), c in terms.items()}

    def wick_order(self, p: Polynomial) -> Polynomial:
        _check_indices(p, self.T.d)
        self._work = 0
        acc: dict = {}
        for w, c in p.terms.items():
            for sw, sc in self.normal_form_word(w).items():
                _add(acc, sw, c * sc)
        return Polynomial._of(acc)


def rewriter_for(T: CoeffTensor) -> Rewriter:
    """The memoizing rewriter of ``T``, made on first use and kept on ``T``."""
    if T._rewriter is None:
        T._rewriter = Rewriter(T)
    return T._rewriter


def _wick_order_strategy(
    p: Polynomial, T: CoeffTensor, strategy: str, rng, cap: int
) -> Polynomial:
    """One-step-at-a-time rewriting with a configurable redex choice.

    Used by the confluence property tests; not memoized.
    """
    _check_indices(p, T.d)
    pending = dict(p.terms)
    done: dict = {}
    steps = 0
    while pending:
        if strategy == "random":
            w = rng.choice(list(pending))
        else:
            w = next(iter(pending))
        c = pending.pop(w)
        positions = _redex_positions(w)
        if not positions:
            _add(done, w, c)
            continue
        if strategy == "leftmost":
            pos = positions[0]
        elif strategy == "rightmost":
            pos = positions[-1]
        elif strategy == "random":
            pos = rng.choice(positions)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        i, j = -w[pos], w[pos + 1]
        head, tail = w[:pos], w[pos + 2:]
        if i == j:
            _add(pending, head + tail, c)
        for (k, l, tc) in T.row(i, j):
            _add(pending, head + (l, -k) + tail, c * tc)
        steps += 1
        if len(pending) + len(done) > cap or steps > cap:
            raise TermBudgetExceeded(f"term count exceeded cap={cap}")
    return Polynomial._of(done)


def wick_order(
    p: Polynomial,
    T: CoeffTensor,
    strategy: Optional[str] = None,
    rng: Optional[random.Random] = None,
    cap: int = DEFAULT_TERM_CAP,
) -> Polynomial:
    """Normalize ``p`` modulo the Wick relations of ``T``.

    With no ``strategy`` this runs the memoized :class:`Rewriter` of ``T``;
    ``"leftmost"``, ``"rightmost"`` or ``"random"`` (redex and term drawn
    from ``rng``, default ``Random(0)``) run the one-step rewriter instead.
    The result contains only normal words and is independent of the engine
    (confluence).  ``cap`` bounds the intermediate terms of this call.
    """
    if strategy is None:
        rw = rewriter_for(T)
        rw.cap = cap
        return rw.wick_order(p)
    if rng is None:
        rng = random.Random(0)
    return _wick_order_strategy(p, T, strategy, rng, cap)


def verify_identity(p: Polynomial, q: Polynomial, T: CoeffTensor, cap: int = DEFAULT_TERM_CAP) -> bool:
    """True iff p = q in the Wick algebra of T (normal form of p−q is 0)."""
    return wick_order(p - q, T, cap=cap).is_zero


# ---------------------------------------------------------------------------
# Ideal membership in the generator-only subalgebra
# ---------------------------------------------------------------------------


def _in_ideal_span(targets, gens, max_deg: int, d: int) -> bool:
    """True iff every generator-only target lies in the span of
    {u·g·v : g in gens, u, v words in a_1..a_d, |u|+|v|+maxlen(g) ≤ max_deg}.

    With homogeneous generators every u·g·v is homogeneous, so each word
    length of the targets is a grade decided on its own; otherwise all
    lengths form one grade.  The span of a grade is built once, and the
    targets' parts of that grade lie in it iff one echelon of its word rows,
    the span vectors' columns followed by the targets' as augment columns,
    leaves no entry in a row past its pivots.
    """
    gens = [g for g in gens if g]
    homogeneous = all(g.is_homogeneous() for g in gens)
    parts: dict = {}
    for p in targets:
        comps: dict = {}
        for w, c in p.terms.items():
            comps.setdefault(len(w) if homogeneous else 0, {})[w] = c
        for grade, comp in comps.items():
            parts.setdefault(grade, []).append(comp)
    letters = range(1, d + 1)
    for grade, comps in parts.items():
        span: dict = {}
        for g in gens:
            glen = g.max_word_len()
            for n in range(max_deg - glen + 1):  # n = |u| + |v|
                if homogeneous and n + glen != grade:
                    continue
                for a in range(n + 1):
                    for u in product(letters, repeat=a):
                        for v in product(letters, repeat=n - a):
                            q = {u + w + v: c for w, c in g.terms.items()}
                            span.setdefault(frozenset(q.items()), q)
        rows: dict = {}  # word -> {col: Scalar}, the span vectors then the targets
        for col, q in enumerate([*span.values(), *comps]):
            for w, c in q.items():
                rows.setdefault(w, {})[col] = c
        a, pivots = _echelon(list(rows.values()), len(span))
        if any(a[len(pivots):]):
            return False
    return True


def ideal_membership(
    p: Polynomial,
    gens: Iterable[Polynomial],
    max_deg: int,
    d: Optional[int] = None,
) -> bool:
    """Degree-truncated membership of ``p`` in the two-sided ideal of the
    generator-only subalgebra generated by ``gens``.

    Decides whether p lies in the linear span of {u·g·v} with u, v words in
    the Gen letters and total length ≤ max_deg, by one exact elimination per
    word length of p (one over all lengths if a generator is inhomogeneous).
    """
    gens = list(gens)
    if not p.is_generator_only() or any(not g.is_generator_only() for g in gens):
        raise ValueError("ideal_membership requires generator-only polynomials")
    if p.max_word_len() > max_deg:
        raise ValueError("p has monomials longer than max_deg")
    if d is None:
        d = max([p.max_index()] + [g.max_index() for g in gens])
    return _in_ideal_span([p], gens, max_deg, d)
