"""Coherent and Fock functionals, inner products and Gram matrices.

Convention: a coherent parameter stores the components φ_i = ⟨i, φ⟩ of a
conjugate-linear functional φ, with ⟨f, φ⟩ = Σ_i conj(f_i)·φ_i.  Under the
functional ω_φ a normal word a_{i₁}…a_{i_n} a_{j₁}†…a_{j_m}† evaluates to
Π_k conj(φ_{i_k}) · Π_ℓ φ_{j_ℓ}; the all-zero φ is the Fock state.

Inner products and Gram matrices never rewrite a product: ⟨F, G⟩ = ω_φ(F†G)
is carried by the annihilators λ_φ(a_i†), applied to G one letter of F at a
time along the prefixes of F's words, and the product formula on the
generator-only result; a Gram matrix carries all its columns through one such
chain.  Each annihilator is one contraction of the tensor's memo of how a_i†
passes a generator word (:meth:`rewrite.Rewriter.annihilate`), read once per
word for all columns: a term c·a_v·a_m† of a_i†·a_u becomes c·φ_m·a_v, a
contracted term (m = 0) stays c·a_v, and a term with φ_m = 0 is never formed.
All of it runs on integer numerators over one denominator (φ lifted by the
lcm of its denominators), and each value read becomes one Scalar.
:func:`coherent_functional` is Wick order, then the product formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import CoeffTensor, Polynomial
from .linalg import Matrix, _dense_over
from .rewrite import _add, _check_generator_words, rewriter_for, wick_order
from .scalars import ONE, ZERO, Scalar, _denominator, _numerator, _over

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


def _column(p: Polynomial) -> tuple:
    """p as one scaled column: ({g: {0: numerator}}, den)."""
    den = _denominator(p.terms.values())
    return {g: {0: _numerator(c, den)} for g, c in p.terms.items()}, den


def _rows(words, columns: tuple, phi: CoherentParam, rw):
    """Yield (w, the scaled row {b: ω_φ(λ_φ(a_w†)x_b)}) once per distinct word w
    of ``words``, for the scaled columns ``columns`` ({g: {b: c}} over one
    denominator, x_b = Σ_g c·a_g); the caller has checked φ and the letters.

    a_u† = a_{u_k}†⋯a_{u_1}†, so a prefix u is its parent plus one
    :meth:`rewrite.Rewriter.annihilate` for all columns.  A node is expanded,
    read (ω_φ(a_v) = Π_k conj(φ_{v_k}), on the integers) and dropped as it
    leaves a stack that holds only the unexpanded siblings along one path."""
    phi = nums, eps = rw.scaled({m: c for m, c in enumerate(phi.phi, 1) if c})
    conj = {m: c.conjugate() for m, c in nums.items()}  # int or Gaussian integer
    kids = {}  # prefix -> {next letter: None}, over the prefixes of longer words
    for w in words:
        for k in range(len(w)):
            kids.setdefault(w[:k], {})[w[k]] = None

    def row(terms, den):
        top = max(map(len, terms), default=0)
        acc = {}
        for v, col in terms.items():
            if all(x in conj for x in v):
                z = eps ** (top - len(v))
                for x in v:
                    z = z * conj[x]
                for b, c in col.items():
                    _add(acc, b, c * z)
        return acc, den * eps ** top

    words, stack = set(words), [((), columns)]
    while stack:
        u, state = stack.pop()
        if u in words:
            yield u, row(*state)
        for x in kids.get(u, ()):
            stack.append((u + (x,), rw.annihilate(x, state, phi)))


def inner_product(
    F: Polynomial, G: Polynomial, phi: CoherentParam, T: CoeffTensor
) -> Scalar:
    """⟨F, G⟩ = ω_φ(F†G) = Σ_w conj(f_w)·ω_φ(λ_φ(a_w†)G) for generator-only F, G."""
    _check_phi(phi, T)
    _check_generator_words([*F.terms, *G.terms], T.d)
    total = ZERO
    for w, (row, den) in _rows(F.terms, _column(G), phi, rewriter_for(T)):
        if row:
            total = total + F.terms[w].conjugate() * _over(row[0], den)
    return total


def gram_matrix(words, phi: CoherentParam, T: CoeffTensor) -> Matrix:
    """G[a][b] = ⟨words[a], words[b]⟩, exact: one chain of annihilators over
    the prefixes of ``words`` carries every column at once.

    When the word list is all of H^{⊗n} in index order this equals the
    level-n Gram operator of tensorops.p_n (at φ = 0).
    """
    _check_phi(phi, T)
    words = [tuple(w) for w in words]
    _check_generator_words(words, T.d)
    columns = {}
    for b, w in enumerate(words):
        columns.setdefault(w, {})[b] = 1
    n = len(words)
    data = [None] * n
    for w, (row, den) in _rows(words, (columns, 1), phi, rewriter_for(T)):
        dense, = _dense_over([row], n, den)
        for a in columns[w]:
            data[a] = dense[:]
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
    phi = rw.scaled({m: c for m, c in enumerate(phi.phi, 1) if c})
    terms, den = rw.annihilate(i, _column(x), phi)
    return Polynomial._of({v: _over(col[0], den) for v, col in terms.items()})
