"""Coherent and Fock functionals, inner products and Gram matrices.

Convention: a coherent parameter stores the components φ_i = ⟨i, φ⟩ of a
conjugate-linear functional φ, with ⟨f, φ⟩ = Σ_i conj(f_i)·φ_i.  Under the
functional ω_φ a normal word a_{i₁}…a_{i_n} a_{j₁}†…a_{j_m}† evaluates to
Π_k conj(φ_{i_k}) · Π_ℓ φ_{j_ℓ}; the all-zero φ is the Fock state.

Inner products and Gram matrices never rewrite: ⟨F, G⟩ = ω_φ(F†G) is
carried by the annihilator recursion λ_φ(a_i†) applied to G, one letter of
F at a time, and the product formula on the generator-only result.
:func:`coherent_functional` (Wick order, then the product formula) is the
independent rewriting route they are cross-checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import CoeffTensor, Polynomial
from .linalg import Matrix
from .rewrite import wick_order
from .scalars import Scalar

__all__ = [
    "CoherentParam",
    "coherent_functional",
    "inner_product",
    "gram_matrix",
    "annihilator_apply",
]


@dataclass(frozen=True)
class CoherentParam:
    """Components φ_i = ⟨i, φ⟩; all-zero is the Fock state."""

    phi: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "phi", tuple(Scalar.coerce(x) for x in self.phi)
        )

    @staticmethod
    def zero(d: int) -> "CoherentParam":
        return CoherentParam((Scalar(0),) * d)

    @property
    def d(self) -> int:
        return len(self.phi)

    def component(self, i: int) -> Scalar:
        return self.phi[i - 1]

    @property
    def is_fock(self) -> bool:
        return all(not x for x in self.phi)


def _check_phi(phi: CoherentParam, T: CoeffTensor) -> None:
    if phi.d != T.d:
        raise ValueError(f"coherent parameter has length {phi.d}, expected {T.d}")


def _normal_value(p: Polynomial, phi: CoherentParam) -> Scalar:
    """ω_φ of a Wick-ordered polynomial, by the product formula."""
    total = Scalar(0)
    for w, c in p.terms.items():
        v = c
        for x in w:
            v = v * (phi.component(x).conjugate() if x > 0 else phi.component(-x))
        total = total + v
    return total


def coherent_functional(p: Polynomial, phi: CoherentParam, T: CoeffTensor) -> Scalar:
    """ω_φ(p): Wick order, then apply the product formula to each normal word."""
    _check_phi(phi, T)
    return _normal_value(wick_order(p, T), phi)


def _check_generator_words(words, d: int) -> None:
    for w in words:
        if not all(1 <= c <= d for c in w):
            raise ValueError(f"word {w} is not generator-only over a_1..a_{d}")


def _annihilator_chains(words, x: Polynomial, phi: CoherentParam, T: CoeffTensor) -> dict:
    """{w: λ_φ(a_w†)x} for every prefix w of ``words``.

    a_w† = a_{w_n}†⋯a_{w_1}†, so w_1 acts first and each prefix is its
    parent plus one annihilator; words that share a prefix share its chain.
    """
    chain = {(): x}
    for w in words:
        for k in range(1, len(w) + 1):
            if w[:k] not in chain:
                chain[w[:k]] = annihilator_apply(w[k - 1], chain[w[:k - 1]], phi, T)
    return chain


def inner_product(
    F: Polynomial, G: Polynomial, phi: CoherentParam, T: CoeffTensor
) -> Scalar:
    """⟨F, G⟩ = ω_φ(F†G) = Σ_w conj(f_w)·ω_φ(λ_φ(a_w†)G) for generator-only F, G."""
    _check_phi(phi, T)
    _check_generator_words([*F.terms, *G.terms], T.d)
    chain = _annihilator_chains(F.terms, G, phi, T)
    total = Scalar(0)
    for w, c in F.terms.items():
        total = total + c.conjugate() * _normal_value(chain[w], phi)
    return total


def gram_matrix(words, phi: CoherentParam, T: CoeffTensor) -> Matrix:
    """G[a][b] = ⟨words[a], words[b]⟩, exact.

    When the word list is all of H^{⊗n} in index order this equals the
    level-n Gram operator of tensorops.p_n (at φ = 0).
    """
    _check_phi(phi, T)
    words = [tuple(w) for w in words]
    _check_generator_words(words, T.d)
    n = len(words)
    data = [[Scalar(0)] * n for _ in range(n)]
    for b, wb in enumerate(words):
        chain = _annihilator_chains(words, Polynomial.monomial(wb), phi, T)
        for a, wa in enumerate(words):
            data[a][b] = _normal_value(chain[wa], phi)
    return Matrix(data)


def annihilator_apply(
    i: int, x: Polynomial, phi: CoherentParam, T: CoeffTensor
) -> Polynomial:
    """λ_φ(a_i†) applied to a generator-only polynomial, by the recursion

        λ_φ(i†)·1 = φ_i·1,
        λ_φ(i†)(j ⊗ X) = δ_ij·X + Σ_{k,l} T_{ij}^{kl} · l ⊗ (λ_φ(k†)X).
    """
    if not x.is_generator_only():
        raise ValueError("annihilator_apply requires a generator-only polynomial")
    _check_phi(phi, T)
    if not (1 <= i <= T.d):
        raise ValueError(f"generator index {i} out of range 1..{T.d}")

    cache: dict = {}

    def on_word(k: int, w) -> Polynomial:
        key = (k, w)
        got = cache.get(key)
        if got is not None:
            return got
        if not w:
            res = Polynomial.monomial((), phi.component(k))
        else:
            j, rest = w[0], w[1:]
            res = Polynomial.monomial(rest) if j == k else Polynomial.zero()
            for (kk, ll, c) in T.row(k, j):
                sub = on_word(kk, rest)
                if sub:
                    res = res + Polynomial.monomial((ll,), c) * sub
        cache[key] = res
        return res

    out = Polynomial.zero()
    for w, c in x.terms.items():
        out = out + on_word(i, w).scale(c)
    return out
