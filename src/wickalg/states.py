"""Coherent and Fock functionals, inner products and Gram matrices.

Convention: a coherent parameter stores the components φ_i = ⟨i, φ⟩ of a
conjugate-linear functional φ, with ⟨f, φ⟩ = Σ_i conj(f_i)·φ_i.  Under the
functional ω_φ a normal word a_{i₁}…a_{i_n} a_{j₁}†…a_{j_m}† evaluates to
Π_k conj(φ_{i_k}) · Π_ℓ φ_{j_ℓ}; the all-zero φ is the Fock state.

Inner products and Gram matrices never rewrite a product: ⟨F, G⟩ = ω_φ(F†G)
is carried by the annihilators λ_φ(a_i†), applied to G one letter of F at a
time, and the product formula on the generator-only result.  Each
annihilator is one contraction of the tensor's memo of how a_i† passes a
generator word (:meth:`rewrite.Rewriter.through`): a term c·a_v·a_m† of
a_i†·a_u becomes c·φ_m·a_v, a contracted term (m = 0) stays c·a_v, and a
term with φ_m = 0 is never formed.  :func:`coherent_functional` is Wick
order, then the product formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import CoeffTensor, Polynomial
from .linalg import Matrix
from .rewrite import _add, _check_generator_words, rewriter_for, wick_order
from .scalars import ONE, ZERO, Scalar

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


def _check_phi(phi: CoherentParam, T: CoeffTensor) -> None:
    if phi.d != T.d:
        raise ValueError(f"coherent parameter has length {phi.d}, expected {T.d}")


def _normal_value(p: Polynomial, phi: CoherentParam, prefix=None) -> Scalar:
    """ω_φ of a Wick-ordered polynomial, by the product formula: each word
    prefix's letter product is formed once into the ``prefix`` memo (shareable
    across polynomials of one φ), and a zero factor ends the word."""
    prefix = {} if prefix is None else prefix
    total = ZERO
    for w, c in p.terms.items():
        v = ONE
        for k, x in enumerate(w, 1):
            if w[:k] not in prefix:
                z = phi.component(x).conjugate() if x > 0 else phi.component(-x)
                prefix[w[:k]] = v * z if k > 1 else z
            v = prefix[w[:k]]
            if not v:
                break
        if v:
            total = total + (c * v if w else c)
    return total


def coherent_functional(p: Polynomial, phi: CoherentParam, T: CoeffTensor) -> Scalar:
    """ω_φ(p): Wick order, then apply the product formula to each normal word."""
    _check_phi(phi, T)
    return _normal_value(wick_order(p, T), phi)


def _annihilator_chains(words, x: Polynomial, phi: CoherentParam, T: CoeffTensor) -> dict:
    """{w: λ_φ(a_w†)x} for every prefix w of ``words``; the caller has
    checked φ, the letters of ``words`` and that x is generator-only.

    a_w† = a_{w_n}†⋯a_{w_1}†, so w_1 acts first and each prefix is its
    parent plus one annihilator; words that share a prefix share its chain.
    """
    through = rewriter_for(T).through
    phis = (None,) + phi.phi  # phis[m] = φ_m for m ≥ 1
    chain = {(): x}
    for w in words:
        for k in range(1, len(w) + 1):
            if w[:k] not in chain:
                acc: dict = {}
                for u, c in chain[w[:k - 1]].terms.items():
                    for (v, m), t in through(w[k - 1], u).items():
                        if not m:
                            _add(acc, v, c * t)
                        elif phis[m]:
                            _add(acc, v, c * t * phis[m])
                chain[w[:k]] = Polynomial._of(acc)
    return chain


def inner_product(
    F: Polynomial, G: Polynomial, phi: CoherentParam, T: CoeffTensor
) -> Scalar:
    """⟨F, G⟩ = ω_φ(F†G) = Σ_w conj(f_w)·ω_φ(λ_φ(a_w†)G) for generator-only F, G."""
    _check_phi(phi, T)
    _check_generator_words([*F.terms, *G.terms], T.d)
    chain = _annihilator_chains(F.terms, G, phi, T)
    prefix = {}
    total = ZERO
    for w, c in F.terms.items():
        total = total + c.conjugate() * _normal_value(chain[w], phi, prefix)
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
    data = [[ZERO] * n for _ in range(n)]
    prefix = {}
    for b, wb in enumerate(words):
        chain = _annihilator_chains(words, Polynomial.monomial(wb), phi, T)
        for a, wa in enumerate(words):
            data[a][b] = _normal_value(chain[wa], phi, prefix)
    return Matrix._of(data, n, n)


def annihilator_apply(
    i: int, x: Polynomial, phi: CoherentParam, T: CoeffTensor
) -> Polynomial:
    """λ_φ(a_i†) applied to a generator-only polynomial: a_i†·x with each
    trailing a_m† replaced by φ_m, so that

        λ_φ(i†)·1 = φ_i·1,
        λ_φ(i†)(j ⊗ X) = δ_ij·X + Σ_{k,l} T_{ij}^{kl} · l ⊗ (λ_φ(k†)X).
    """
    _check_phi(phi, T)
    if not (1 <= i <= T.d):
        raise ValueError(f"generator index {i} out of range 1..{T.d}")
    _check_generator_words(x.terms, T.d)
    return _annihilator_chains([(i,)], x, phi, T)[(i,)]
