"""Coherent and Fock functionals, inner products and Gram matrices.

Convention: a coherent parameter stores the components φ_i = ⟨i, φ⟩ of a
conjugate-linear functional φ, with ⟨f, φ⟩ = Σ_i conj(f_i)·φ_i.  Under the
functional ω_φ a normal word a_{i₁}…a_{i_n} a_{j₁}†…a_{j_m}† evaluates to
Π_k conj(φ_{i_k}) · Π_ℓ φ_{j_ℓ}; the all-zero φ is the Fock state.

Inner products and Gram matrices never rewrite a product: ⟨F, G⟩ = ω_φ(F†G)
is carried by the annihilators λ_φ(a_i†), applied to G one letter of F at a
time along the prefix tree of F's words, and the product formula on the
generator-only result.  Each annihilator is one contraction of the tensor's
memo of how a_i† passes a generator word (:meth:`rewrite.Rewriter.annihilate`):
a term c·a_v·a_m† of a_i†·a_u becomes c·φ_m·a_v, a contracted term (m = 0)
stays c·a_v, and a term with φ_m = 0 is never formed.  The chains run on the
rewriter's scaled terms, integer numerators over one denominator (φ lifted
by the lcm of its denominators the same way), and only the values read turn
back into Scalars.  :func:`coherent_functional` is Wick order, then the
product formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import CoeffTensor, Polynomial
from .linalg import Matrix
from .rewrite import _check_generator_words, rewriter_for, wick_order
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


def _prefix_tree(words) -> tuple:
    """(links, node) for the nonempty prefixes of ``words``: node 0 is the
    empty prefix, node i ≥ 1 is its parent node plus one letter, given as
    links[i − 1] = (parent, letter), and node[w] is the node of prefix w."""
    node, links = {(): 0}, []
    for w in words:
        parent = 0
        for k in range(1, len(w) + 1):
            n = node.get(w[:k])
            if n is None:
                links.append((parent, w[k - 1]))
                n = node[w[:k]] = len(links)
            parent = n
    return links, node


def _annihilator_chains(links, x: Polynomial, phi: CoherentParam, rw) -> list:
    """The scaled terms of λ_φ(a_w†)x at every node w of the prefix tree
    ``links`` (see :func:`_prefix_tree`), by the rewriter ``rw`` of the
    tensor; the caller has checked φ, the letters and that x is generator-only.

    a_w† = a_{w_n}†⋯a_{w_1}†, so w_1 acts first and each node is its parent
    plus one annihilator; words that share a prefix share its chain.
    """
    phi = rw.scaled({m: c for m, c in enumerate(phi.phi, 1) if c})
    chain = [rw.scaled(x.terms)]
    for parent, letter in links:
        chain.append(rw.annihilate(letter, chain[parent], phi))
    return chain


def inner_product(
    F: Polynomial, G: Polynomial, phi: CoherentParam, T: CoeffTensor
) -> Scalar:
    """⟨F, G⟩ = ω_φ(F†G) = Σ_w conj(f_w)·ω_φ(λ_φ(a_w†)G) for generator-only F, G."""
    _check_phi(phi, T)
    _check_generator_words([*F.terms, *G.terms], T.d)
    rw = rewriter_for(T)
    links, node = _prefix_tree(F.terms)
    chain = _annihilator_chains(links, G, phi, rw)
    prefix = {}
    total = ZERO
    for w, c in F.terms.items():
        value = Polynomial._of(rw.unscaled(chain[node[w]]))
        total = total + c.conjugate() * _normal_value(value, phi, prefix)
    return total


def gram_matrix(words, phi: CoherentParam, T: CoeffTensor) -> Matrix:
    """G[a][b] = ⟨words[a], words[b]⟩, exact: one chain of annihilators per
    column, over the prefix tree of ``words`` built once.

    When the word list is all of H^{⊗n} in index order this equals the
    level-n Gram operator of tensorops.p_n (at φ = 0).
    """
    _check_phi(phi, T)
    words = [tuple(w) for w in words]
    _check_generator_words(words, T.d)
    rw = rewriter_for(T)
    links, node = _prefix_tree(words)
    rows = [node[w] for w in words]
    n = len(words)
    data = [[ZERO] * n for _ in range(n)]
    prefix = {}
    for b, wb in enumerate(words):
        chain = _annihilator_chains(links, Polynomial.monomial(wb), phi, rw)
        for a, i in enumerate(rows):
            if chain[i][0]:  # the scaled terms (terms, den) are not 0
                value = Polynomial._of(rw.unscaled(chain[i]))
                data[a][b] = _normal_value(value, phi, prefix)
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
    rw = rewriter_for(T)
    return Polynomial._of(rw.unscaled(_annihilator_chains([(0, i)], x, phi, rw)[1]))
