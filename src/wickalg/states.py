"""Coherent and Fock functionals, inner products, Gram matrices, and the
annihilator recursion used as an independent cross-check.

Convention: a coherent parameter stores the components φ_i = ⟨i, φ⟩ of a
conjugate-linear functional φ, with ⟨f, φ⟩ = Σ_i conj(f_i)·φ_i.  Under the
functional ω_φ a normal word a_{i₁}…a_{i_n} a_{j₁}†…a_{j_m}† evaluates to
Π_k conj(φ_{i_k}) · Π_ℓ φ_{j_ℓ}; the all-zero φ is the Fock state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import CoeffTensor, Polynomial, adjoint_word
from .linalg import Matrix
from .rewrite import _first_redex, wick_order
from .scalars import ONE, Scalar

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


def _normal_word_value(w, phi: CoherentParam) -> Scalar:
    v = ONE
    for c in w:
        v = v * (phi.component(c).conjugate() if c > 0 else phi.component(-c))
    return v


def coherent_functional(p: Polynomial, phi: CoherentParam, T: CoeffTensor) -> Scalar:
    """ω_φ(p): Wick order, then apply the product formula to each normal word."""
    _check_phi(phi, T)
    q = wick_order(p, T)
    total = Scalar(0)
    for w, c in q.terms.items():
        total = total + c * _normal_word_value(w, phi)
    return total


class _OmegaEvaluator:
    """Scalar-memoized evaluation of ω_φ on single words.

    Follows exactly the leftmost rewriting recursion, but folds the linear
    functional in eagerly so only scalars are cached per word.  A property
    test pins this to coherent_functional.
    """

    def __init__(self, T: CoeffTensor, phi: CoherentParam):
        self.T = T
        self.phi = phi
        self._cache: dict = {}

    def value(self, w) -> Scalar:
        cached = self._cache.get(w)
        if cached is not None:
            return cached
        pos = _first_redex(w)
        if pos < 0:
            v = _normal_word_value(w, self.phi)
        else:
            i, j = -w[pos], w[pos + 1]
            head, tail = w[:pos], w[pos + 2:]
            v = Scalar(0)
            if i == j:
                v = v + self.value(head + tail)
            for (k, l, c) in self.T.row(i, j):
                v = v + c * self.value(head + (l, -k) + tail)
        self._cache[w] = v
        return v

    def of_polynomial(self, p: Polynomial) -> Scalar:
        total = Scalar(0)
        for w, c in p.terms.items():
            total = total + c * self.value(w)
        return total


def inner_product(
    F: Polynomial, G: Polynomial, phi: CoherentParam, T: CoeffTensor
) -> Scalar:
    """⟨F, G⟩ = ω_φ(F†G) for generator-only F, G."""
    if not (F.is_generator_only() and G.is_generator_only()):
        raise ValueError("inner_product requires generator-only polynomials")
    _check_phi(phi, T)
    return _OmegaEvaluator(T, phi).of_polynomial(F.adjoint() * G)


def gram_matrix(words, phi: CoherentParam, T: CoeffTensor) -> Matrix:
    """G[a][b] = ⟨words[a], words[b]⟩, exact.

    When the word list is all of H^{⊗n} in index order this equals the
    level-n Gram operator of tensorops.p_n (at φ = 0).
    """
    _check_phi(phi, T)
    words = [tuple(w) for w in words]
    for w in words:
        if any(c < 0 for c in w):
            raise ValueError("gram_matrix requires generator-only words")
    ev = _OmegaEvaluator(T, phi)
    n = len(words)
    data = [[Scalar(0)] * n for _ in range(n)]
    for a, wa in enumerate(words):
        wa_dag = adjoint_word(wa)
        for b, wb in enumerate(words):
            data[a][b] = ev.value(wa_dag + wb)
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
