"""Braid-relation detection and the permutation expansion P_n = Σ_π T(π).

Permutations are tuples of 1-based images: ``perm[p-1] = π(p)``.
"""

from __future__ import annotations

from itertools import permutations as _permutations

import numpy as np

from .algebra import CoeffTensor
from .eigen import eigvalsh
from .linalg import Matrix, identity
from .tensorops import DEFAULT_DIM_CAP, _check_cap, braid_check, embed, t_matrix

__all__ = [
    "braid_check",
    "reduced_word",
    "permutation_length",
    "compose",
    "inverse",
    "t_of_permutation",
    "p_n_by_permutations",
    "permutation_kernel_matrix",
    "permutation_kernel_psd",
]


# -- permutation utilities ----------------------------------------------------


def permutation_length(perm) -> int:
    """Number of inversions (= length of any reduced word)."""
    n = len(perm)
    return sum(
        1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
    )


def reduced_word(perm) -> list:
    """A reduced word [i₁, …, i_k] with π = s_{i₁}⋯s_{i_k} (bubble sort)."""
    seq = list(perm)
    n = len(seq)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                swaps.append(i + 1)
                changed = True
    # Sorting multiplies π on the right by each swap, so π is the swaps
    # read in reverse order.
    return list(reversed(swaps))


def compose(pi, sigma) -> tuple:
    """(π∘σ)(x) = π(σ(x))."""
    return tuple(pi[sigma[p] - 1] for p in range(len(pi)))


def inverse(perm) -> tuple:
    out = [0] * len(perm)
    for p, v in enumerate(perm):
        out[v - 1] = p + 1
    return tuple(out)


# -- T(π) and the permutation sum ---------------------------------------------


def t_of_permutation(
    T: CoeffTensor, perm, cap: int = DEFAULT_DIM_CAP
) -> Matrix:
    """T(π) = T_{i₁}⋯T_{i_k} over a reduced word of π; well defined only
    under the braid relation, which is checked first."""
    if not braid_check(T):
        raise ValueError("t_of_permutation requires a braided tensor")
    return _t_of_permutation_unchecked(T, perm, cap)


def _t_of_permutation_unchecked(T: CoeffTensor, perm, cap: int) -> Matrix:
    n = len(perm)
    tm = t_matrix(T)
    out = identity(T.d**n)
    for i in reduced_word(perm):
        out = out * embed(tm, i, n, cap)
    return out


def p_n_by_permutations(
    T: CoeffTensor, n: int, cap: int = DEFAULT_DIM_CAP
) -> Matrix:
    """Σ over all n! permutations of T(π), computed incrementally along the
    weak order (one matrix product per permutation)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = T.d
    _check_cap(d, n, cap)
    if not braid_check(T):
        raise ValueError("p_n_by_permutations requires a braided tensor")
    tm = t_matrix(T)
    ident = tuple(range(1, n + 1))
    known = {ident: identity(d**n)}
    frontier = [ident]
    total = known[ident]
    embeds = {i: embed(tm, i, n, cap) for i in range(1, n)}
    while frontier:
        nxt = []
        for perm in frontier:
            mat = known[perm]
            base_len = permutation_length(perm)
            for i in range(1, n):
                # right-multiply by the adjacent transposition s_i
                new = list(perm)
                new[i - 1], new[i] = new[i], new[i - 1]
                new = tuple(new)
                if permutation_length(new) != base_len + 1 or new in known:
                    continue
                prod = embeds[i] * mat
                known[new] = prod
                total = total + prod
                nxt.append(new)
        frontier = nxt
    return total


def permutation_kernel_matrix(T: CoeffTensor, n: int, cap: int = DEFAULT_DIM_CAP):
    """Float block matrix K[(π,σ)] = T(π⁻¹σ) of size n!·d^n."""
    if not braid_check(T):
        raise ValueError("kernel matrix requires a braided tensor")
    d = T.d
    perms = list(_permutations(range(1, n + 1)))
    dim = d**n
    cache = {}

    def t_of(perm):
        if perm not in cache:
            cache[perm] = _t_of_permutation_unchecked(T, perm, cap).to_complex()
        return cache[perm]

    size = len(perms) * dim
    K = np.zeros((size, size), dtype=np.complex128)
    for a, pi in enumerate(perms):
        inv_pi = inverse(pi)
        for b, sigma in enumerate(perms):
            K[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] = t_of(
                compose(inv_pi, sigma)
            )
    return K


def permutation_kernel_psd(T: CoeffTensor, n: int, tol: float = 1e-9) -> bool:
    """Numeric PSD test of the (π,σ) ↦ T(π⁻¹σ) block kernel (n ≤ 3)."""
    if n > 3:
        raise ValueError("kernel PSD test is limited to n <= 3")
    K = permutation_kernel_matrix(T, n)
    ev = eigvalsh(K)
    scale = max(1.0, float(abs(ev[-1])) if ev.size else 1.0)
    return bool(ev.size == 0 or ev[0] >= -tol * scale)
