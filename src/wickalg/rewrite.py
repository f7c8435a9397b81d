"""Wick-ordering rewrite engine, identity verification, ideal membership.

The single rewrite rule replaces an adjacent pair ``a_i† a_j`` by
``δ_ij·1 + Σ_{k,l} T_{ij}^{kl} a_l a_k†``.  The rewriting system is confluent
(diamond property), so the normal form is independent of the substitution
order.  :func:`wick_order` computes it with the :class:`Rewriter` of the
tensor, which memoizes how ``a_k†`` passes a generator word and absorbs the
letters of a word into its normal suffix from right to left.  It works on
integer numerators: with δ the lcm of the denominators of T's entries, the
memo holds δ^{|g|}·a_k†·a_g, a word's terms share one denominator δ^E, and
each output term becomes a Scalar once, at the end.  A one-step rewriter
with leftmost, rightmost or random redex choice, ``_wick_order_strategy``,
is the tests' independent reference.

Membership in a degree-truncated two-sided ideal of the generator-only
subalgebra is exact linear algebra: the span of the words u·g·v is built
once per word length (once over all lengths if a generator is
inhomogeneous), and targets lie in it iff they leave its rank unchanged.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterable

from .algebra import CoeffTensor, Polynomial, Word
from .linalg import _echelon, _update
from .scalars import ONE, _denominator, _numerator, _over

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
    """Memoized Wick normalizer of one tensor, on integer numerators.

    Let δ be the lcm of the denominators of T's entries, real and imaginary
    parts both, so that every δ·T_{ij}^{kl} is an integer: an int for a real
    entry, a Scalar with integer parts (a Gaussian integer) otherwise.  The
    memo ``_cache`` maps (k, g), for the nonempty prefixes g of the generator
    words asked of :meth:`through`, to the numerators of δ^{|g|}·a_k†·a_g;
    for a real T every value is an int.  Normal ordering, the annihilators of
    ``states``, the twisted derivatives of ``diffcalc`` and the exchanged
    words of ``kms`` all read it through the methods below, and hold *scaled
    terms* (terms, den): integer numerators over one common denominator,
    made from Scalars by :meth:`scaled`.  :meth:`dagger` acts on them;
    :meth:`annihilate` acts on scaled *columns* {g: {b: c}}, so that one
    chain of annihilators carries every column of a Gram matrix.  ``cap``
    bounds the terms one :meth:`wick_order` call makes; it is a per-call
    budget that :func:`wick_order` sets, not part of the memo.
    """

    def __init__(self, T: CoeffTensor):
        self.T = T
        self.cap = DEFAULT_TERM_CAP
        self.delta = delta = _denominator(T.entries.values())
        # _steps[m][j]: the (tail, k', factor) of a term c·a_h·a_m† meeting a_j,
        # which gives factor·c·a_{h+tail}·a_{k'}†: m = 0 (contracted) takes a_j,
        # m = j contracts, and each T_{mj}^{k'l} passes a_l with δ·T.
        d = T.d
        self._steps = [[[((j,), 0, delta)] for j in range(d + 1)]]
        self._steps += [[[((), 0, delta)] if m == j else [] for j in range(d + 1)]
                        for m in range(1, d + 1)]
        for (i, j, k, l), c in T.entries.items():
            self._steps[i][j].append(((l,), k, _numerator(c, delta)))
        self._cache: dict = {}
        self._work = 0

    def through(self, k: int, g: Word) -> dict:
        """The numerators of δ^{|g|}·a_k†·a_g for a generator word g, as
        {(g', m): c} meaning δ^{−|g|}·Σ c·a_{g'}·a_m†, with m = 0 for a
        contracted term (no a†).

        a_k†·1 = a_k†, and a_k† absorbs the letters of g from left to right:
        a live term c·a_h·a_m† meets a_j as

            δ_mj·c·a_h + Σ_{k',l} T_{mj}^{k'l}·c·a_h a_l·a_{k'}†,

        and a contracted term takes a_j as it is; on numerators the first and
        the last multiply by δ and a T-step by δ·T_{mj}^{k'l}.  The memo holds
        the entry of every nonempty prefix of an asked g, so a miss starts
        from the longest prefix already there.  The returned dict is the memo
        entry; do not modify it.  The loop does not recurse, so a word of any
        length passes.
        """
        cache = self._cache
        out = cache.get((k, g))
        if out is not None:
            return out
        for i in range(len(g) - 1, 0, -1):
            out = cache.get((k, g[:i]))
            if out is not None:
                break
        else:
            i, out = 0, {((), k): 1}
        steps = self._steps
        for n, j in enumerate(g[i:], i + 1):
            new: dict = {}
            for (h, m), c in out.items():
                for tail, kk, t in steps[m][j]:  # _add inlined (the hot loop); c·t ≠ 0
                    key = (h + tail, kk)
                    v = new.get(key)
                    if v is None:
                        new[key] = c * t
                    else:
                        v += c * t
                        if v:
                            new[key] = v
                        else:
                            del new[key]
            out = cache[(k, g[:n])] = new
        return out

    @staticmethod
    def scaled(terms: dict) -> tuple:
        """The scaled terms of {key: Scalar}: numerators over the lcm of its denominators."""
        den = _denominator(terms.values())
        return {key: _numerator(c, den) for key, c in terms.items()}, den

    def dagger(self, k: int, scaled: tuple) -> tuple:
        """a_k†·Σ c·a_g·a_h† for the scaled terms {(g, h): c}, g generator and
        h adjoint letters, as scaled terms of that form: a_k† passes g by
        :meth:`through`, after the term is lifted by δ^{L−|g|}, L the longest
        g, so that all of them land over den·δ^L."""
        terms, den = scaled
        top = max(len(g) for g, h in terms) if terms else 0
        out, through, delta = {}, self.through, self.delta
        for (g, h), c in terms.items():
            if len(g) < top:
                c = c * delta ** (top - len(g))
            for (g2, m), v in through(k, g).items():  # _add inlined, as in through
                key = (g2, (-m,) + h if m else h)
                s = out.get(key)
                if s is None:
                    out[key] = c * v
                else:
                    s += c * v
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        return out, den * delta ** top

    def annihilate(self, k: int, scaled: tuple, phi: tuple) -> tuple:
        """λ_φ(a_k†) of the generator-only scaled columns {g: {b: c}} (column b
        is Σ_g c·a_g): a_k†·a_g by :meth:`through`, read once per g for all
        columns, with each trailing a_m† replaced by φ_m, for φ the scaled terms
        {m: numerator of φ_m} of its nonzero components over their denominator
        ε.  A contracted term is lifted by ε; a term with φ_m = 0 is never formed."""
        terms, den = scaled
        nums, eps = phi
        top = max(map(len, terms)) if terms else 0
        out, through, delta = {}, self.through, self.delta
        emptied = False
        for g, col in terms.items():
            lift = delta ** (top - len(g)) if len(g) < top else 1
            lift_eps = lift * eps
            for (v, m), t in through(k, g).items():
                if m:
                    if m not in nums:
                        continue
                    t = t * nums[m] if lift == 1 else t * nums[m] * lift
                elif lift_eps != 1:
                    t = t * lift_eps
                acc = out.get(v)
                if acc is None:  # c·t ≠ 0
                    out[v] = acc = {}
                    for b, c in col.items():
                        acc[b] = c * t
                    continue
                for b, c in col.items():  # _add inlined, as in through
                    s = acc.get(b)
                    if s is None:
                        acc[b] = c * t
                    else:
                        s += c * t
                        if s:
                            acc[b] = s
                        else:
                            del acc[b]
                            emptied = True
        if emptied:
            out = {v: acc for v, acc in out.items() if acc}
        return out, den * delta ** top * eps

    def normal_form_word(self, w: Word) -> dict:
        """Normal form of a single word as a dict Word -> Scalar.

        The longest normal suffix of ``w`` stays as it is; the letters before
        it are absorbed from right to left into scaled terms a_g·a_h† (g
        generator, h adjoint letters): a generator letter is prepended to g,
        and a_k† passes g by :meth:`dagger`.  Each term becomes one Scalar at
        the end.
        """
        e = len(w)
        while e and w[e - 1] < 0:
            e -= 1
        s = e
        while s and w[s - 1] > 0:
            s -= 1
        terms, den = {(w[s:e], w[e:]): 1}, 1
        for x in reversed(w[:s]):
            if x > 0:
                terms = {((x,) + g, h): c for (g, h), c in terms.items()}
            else:
                terms, den = self.dagger(-x, (terms, den))
            self._work += len(terms)
            if self._work > self.cap:
                raise TermBudgetExceeded(
                    f"intermediate term count exceeded cap={self.cap}"
                )
        return {g + h: _over(c, den) for (g, h), c in terms.items()}

    def wick_order(self, p: Polynomial) -> Polynomial:
        _check_indices(p, self.T.d)
        self._work = 0
        acc: dict = {}
        for w, c in p.terms.items():
            for sw, sc in self.normal_form_word(w).items():
                _add(acc, sw, sc if c is ONE else c * sc)
        return Polynomial._of(acc)


def rewriter_for(T: CoeffTensor) -> Rewriter:
    """The memoizing rewriter of ``T``, made on first use and kept on ``T``."""
    if T._rewriter is None:
        T._rewriter = Rewriter(T)
    return T._rewriter


def _wick_order_strategy(
    p: Polynomial, T: CoeffTensor, strategy: str, rng=None, cap: int = DEFAULT_TERM_CAP
) -> Polynomial:
    """One-step-at-a-time rewriting, not memoized: the tests' reference for
    :func:`wick_order`.  ``strategy`` picks the redex: ``"leftmost"``,
    ``"rightmost"`` or ``"random"`` (redex and term drawn from ``rng``,
    default ``Random(0)``).
    """
    if strategy not in ("leftmost", "rightmost", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    _check_indices(p, T.d)
    if rng is None:
        rng = random.Random(0)
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
        else:
            pos = rng.choice(positions)
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


def wick_order(p: Polynomial, T: CoeffTensor, cap: int = DEFAULT_TERM_CAP) -> Polynomial:
    """Normalize ``p`` modulo the Wick relations of ``T`` with the memoized
    :class:`Rewriter` of ``T``.  The result contains only normal words.
    ``cap`` bounds the intermediate terms of this call."""
    rw = rewriter_for(T)
    rw.cap = cap
    return rw.wick_order(p)


def verify_identity(p: Polynomial, q: Polynomial, T: CoeffTensor, cap: int = DEFAULT_TERM_CAP) -> bool:
    """True iff p = q in the Wick algebra of T (normal form of p−q is 0)."""
    return wick_order(p - q, T, cap=cap).is_zero


# ---------------------------------------------------------------------------
# Ideal membership in the generator-only subalgebra
# ---------------------------------------------------------------------------


def _in_ideal_span(targets, gens, max_deg: int) -> bool:
    """True iff every generator-only target column {word: numerator}, read up to scale, lies in
    the span of {u·g·v : g in gens, u, v generator words, |u|+|v|+maxlen(g) ≤ max_deg}.

    Words over the letters of the targets and generators decide it: the
    projection onto those words maps each u·g·v to itself or to 0.

    With homogeneous generators every u·g·v is homogeneous, so each word
    length of the targets is a grade decided on its own; otherwise all
    lengths form one grade.  The span of a grade is built once, from the integer
    generators, and the targets' parts of that grade lie in it iff one echelon
    of its integer word rows, each over its content, the span vectors' columns
    followed by the targets' as augment columns, leaves every row past its pivots empty.
    """
    homogeneous = all(g.is_homogeneous() for g in gens)
    gens = [(g.max_word_len(), Rewriter.scaled(g.terms)[0]) for g in gens if g]
    parts: dict = {}
    for p in targets:
        comps: dict = {}
        for w, c in p.items():
            comps.setdefault(len(w) if homogeneous else 0, {})[w] = c
        for grade, comp in comps.items():
            parts.setdefault(grade, []).append(comp)
    letters = sorted({c for q in [*targets, *(g for _, g in gens)] for w in q for c in w})
    for grade, comps in parts.items():
        span: dict = {}
        for glen, g in gens:
            for n in range(max_deg - glen + 1):  # n = |u| + |v|
                if homogeneous and n + glen != grade:
                    continue
                for a in range(n + 1):
                    for u in product(letters, repeat=a):
                        for v in product(letters, repeat=n - a):
                            q = {u + w + v: c for w, c in g.items()}
                            span.setdefault(frozenset(q.items()), q)
        rows: dict = {}  # word -> {col: numerator}, the span vectors then the targets
        for col, q in enumerate([*span.values(), *comps]):
            for w, c in q.items():
                rows.setdefault(w, {})[col] = c
        for row in rows.values():
            _update(row, 1, 0, ())  # the row over its content
        a, pivots = _echelon(list(rows.values()), len(span))
        if any(a[len(pivots):]):
            return False
    return True


def ideal_membership(p: Polynomial, gens: Iterable[Polynomial], max_deg: int) -> bool:
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
    return _in_ideal_span([Rewriter.scaled(p.terms)[0]], gens, max_deg)
