"""Free *-algebra words and polynomials, coefficient tensors, relation systems.

Words are encoded internally as tuples of signed integers: ``+i`` is the
generator letter ``a_i`` and ``-i`` is the adjoint letter ``a_i†``.  The empty
tuple is the unit monomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .scalars import ONE, Scalar

__all__ = [
    "Word",
    "gen",
    "dag",
    "adjoint_word",
    "word_str",
    "Polynomial",
    "CoeffTensor",
    "RelationSystem",
    "hermiticity_check",
]

#: Encoded word type: tuple of signed generator indices.
Word = tuple


def gen(i: int) -> int:
    """Encoded generator letter a_i."""
    if i < 1:
        raise ValueError("generator index must be >= 1")
    return i


def dag(i: int) -> int:
    """Encoded adjoint letter a_i†."""
    if i < 1:
        raise ValueError("generator index must be >= 1")
    return -i


def adjoint_word(w: Word) -> Word:
    return tuple(-c for c in reversed(w))


def word_str(w: Word) -> str:
    if not w:
        return "1"
    return " ".join(f"a{c}" if c > 0 else f"a{-c}*" for c in w)


class Polynomial:
    """Finite map Word -> Scalar in canonical sparse form (no zero coeffs)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        if terms is None:
            terms = {}
        self.terms = {w: c for w, c in terms.items() if c}

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def _of(terms: dict) -> "Polynomial":
        """Wrap a zero-free ``{Word: Scalar}`` dict without copying or filtering it."""
        res = Polynomial.__new__(Polynomial)
        res.terms = terms
        return res

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def unit() -> "Polynomial":
        return Polynomial({(): ONE})

    @staticmethod
    def monomial(w: Word, coeff=ONE) -> "Polynomial":
        return Polynomial({tuple(w): Scalar.coerce(coeff)})

    @staticmethod
    def generator(i: int) -> "Polynomial":
        return Polynomial.monomial((gen(i),))

    @staticmethod
    def adjoint_generator(i: int) -> "Polynomial":
        return Polynomial.monomial((dag(i),))

    # -- ring operations --------------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s:
                out[w] = s
            elif w in out:
                del out[w]
        return Polynomial._of(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                s = out.get(w)
                s = c if s is None else s + c
                if s:
                    out[w] = s
                elif w in out:
                    del out[w]
        return Polynomial._of(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Polynomial":
        c = Scalar.coerce(c)
        if not c:
            return Polynomial.zero()
        return Polynomial._of({w: c * v for w, v in self.terms.items()})

    def adjoint(self) -> "Polynomial":
        return Polynomial._of({adjoint_word(w): c.conjugate() for w, c in self.terms.items()})

    # -- inspection ---------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @property
    def constant_term(self) -> Scalar:
        return self.terms.get((), Scalar(0))

    def max_word_len(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def is_generator_only(self) -> bool:
        return all(c > 0 for w in self.terms for c in w)

    def is_homogeneous(self) -> bool:
        lengths = {len(w) for w in self.terms}
        return len(lengths) <= 1

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        parts = [f"({c.re}{'+' + str(c.im) + 'i' if c.im else ''})·{word_str(w)}"
                 for w, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))]
        return "Polynomial(" + " + ".join(parts) + ")"


class CoeffTensor:
    """Structure constants T_{ij}^{kl} of a Wick algebra on d generators.

    ``entries`` maps (i, j, k, l) to a nonzero Scalar; indices are 1-based.
    The relation reads  a_i† a_j = δ_ij·1 + Σ_{k,l} T_{ij}^{kl} a_l a_k†.
    """

    __slots__ = ("d", "entries", "_rows", "_rewriter")

    def __init__(self, d: int, entries: Optional[dict] = None):
        if d < 1:
            raise ValueError("d must be positive")
        self.d = d
        self.entries = {}
        if entries:
            for (i, j, k, l), c in entries.items():
                for idx in (i, j, k, l):
                    if not (1 <= idx <= d):
                        raise ValueError(f"tensor index {idx} out of range 1..{d}")
                c = Scalar.coerce(c)
                if c:
                    self.entries[(i, j, k, l)] = c
        self._rows = None
        self._rewriter = None

    def row(self, i: int, j: int) -> list:
        """All (k, l, coeff) with T_{ij}^{kl} != 0, for the rewrite a_i† a_j."""
        if self._rows is None:
            rows: dict = {}
            for (a, b, k, l), c in self.entries.items():
                rows.setdefault((a, b), []).append((k, l, c))
            self._rows = rows
        return self._rows.get((i, j), [])

    def get(self, i: int, j: int, k: int, l: int) -> Scalar:
        return self.entries.get((i, j, k, l), Scalar(0))

    def __eq__(self, other):
        if not isinstance(other, CoeffTensor):
            return NotImplemented
        return self.d == other.d and self.entries == other.entries

    def __repr__(self):
        return f"CoeffTensor(d={self.d}, {len(self.entries)} entries)"


def hermiticity_check(T: CoeffTensor) -> bool:
    """True iff T_{ji}^{lk} = conj(T_{ij}^{kl}) for all indices."""
    for (i, j, k, l), c in T.entries.items():
        if T.get(j, i, l, k) != c.conjugate():
            return False
    return True


@dataclass
class RelationSystem:
    """A coefficient tensor together with declared ideal generators and metadata."""

    tensor: CoeffTensor
    ideal_generators: list = field(default_factory=list)
    name: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for g in self.ideal_generators:
            if not g.is_generator_only():
                raise ValueError("ideal generators must contain Gen letters only")

    @property
    def d(self) -> int:
        return self.tensor.d
