"""Braid-relation detection and the permutation expansion P_n = Σ_π T(π).

Permutations are tuples of 1-based images: ``perm[p-1] = π(p)``.  Each T(π) is
a product of the integer rows of δ·T (:func:`~wickalg.tensorops._t_rows`) over
δ^{ℓ(π)}; the sum and the block kernel read all off one weak-order walk, T(π·s_i) = T(π)·T_i.
"""

from __future__ import annotations

from itertools import permutations as _permutations
from math import factorial

from .algebra import CoeffTensor
from .linalg import Matrix, _float_view, _from_rows, _psd_rank_over, _sparse_product
from .tensorops import DEFAULT_DIM_CAP, DimensionCapExceeded, _check_cap, _slot_rows, _t_rows, braid_check

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
    seq, swaps = list(perm), []
    for end in range(len(seq) - 1, 0, -1):
        for i in range(end):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                swaps.append(i + 1)
    # Sorting multiplies π on the right by each swap, so π is the swaps
    # read in reverse order.
    return swaps[::-1]


def compose(pi, sigma) -> tuple:
    """(π∘σ)(x) = π(σ(x))."""
    return tuple(pi[sigma[p] - 1] for p in range(len(pi)))


def inverse(perm) -> tuple:
    out = [0] * len(perm)
    for p, v in enumerate(perm):
        out[v - 1] = p + 1
    return tuple(out)


# -- T(π) and the permutation sum ---------------------------------------------


def t_of_permutation(T: CoeffTensor, perm, cap: int = DEFAULT_DIM_CAP) -> Matrix:
    """T(π) = T_{i₁}⋯T_{i_k} over a reduced word of π, a permutation of 1…n, as (δT)_{i₁}⋯(δT)_{i_k}
    over δ^k; well defined only under the braid relation, checked after d^n ≤ ``cap``."""
    n = len(perm)
    if set(perm) != set(range(1, n + 1)):
        raise ValueError(f"{tuple(perm)} is not a permutation of 1..{n}")
    _check_cap(T.d, n, cap)
    if not braid_check(T):
        raise ValueError("t_of_permutation requires a braided tensor")
    tn, delta = _t_rows(T)
    word, rows = reduced_word(perm), [{r: 1} for r in range(T.d**n)]
    for i in word:
        rows = _sparse_product(rows, _slot_rows(tn, i, n))
    return _from_rows(rows, T.d**n, delta ** len(word))


def _weak_order_products(T: CoeffTensor, n: int) -> tuple:
    """(δ, {π: the ``{col: numerator}`` rows of δ^{ℓ(π)}·T(π)}) over S_n for a
    braided T, one sparse product per permutation: walking up the weak order,
    δ^{ℓ+1}·T(π·s_i) = δ^ℓ·T(π)·(δT)_i when π(i) < π(i+1), with (δT)_i the
    :func:`_slot_rows` of :func:`_t_rows`."""
    tn, delta = _t_rows(T)
    t_rows = [_slot_rows(tn, i, n) for i in range(1, n)]
    ident = tuple(range(1, n + 1))
    known = {ident: [{r: 1} for r in range(T.d**n)]}
    order = [ident]
    for perm in order:  # grows as the walk goes
        for i in range(1, n):
            if perm[i - 1] < perm[i]:
                up = perm[:i - 1] + (perm[i], perm[i - 1]) + perm[i + 1:]
                if up not in known:
                    known[up] = _sparse_product(known[perm], t_rows[i - 1])
                    order.append(up)
    return delta, known


def _check_permutation_cap(d: int, n: int, cap: int) -> None:
    """Refuse a permutation sum at level n whose n! d^n × d^n matrices T(π)
    can hold more entries than one ``cap`` × ``cap`` matrix, or with d^n past
    ``cap``; both counts grow with n, so a check at n covers every level below."""
    _check_cap(d, n, cap)
    entries = factorial(n) * d ** (2 * n)
    if entries > cap * cap:
        raise DimensionCapExceeded(
            f"n!·d^(2n) = {entries} entries of the T(π) exceed cap² = {cap * cap}; "
            "raise the cap explicitly")


def p_n_by_permutations(
    T: CoeffTensor, n: int, cap: int = DEFAULT_DIM_CAP
) -> Matrix:
    """Σ over all n! permutations of T(π), the integer rows of each δ^{ℓ(π)}·T(π)
    formed once along the weak order, weighted by δ^{L−ℓ(π)} with L = n(n−1)/2
    and added into one ``{col: numerator}`` dict per row over δ^L; refused by
    :func:`_check_permutation_cap` before anything is built."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dim, top = T.d**n, n * (n - 1) // 2
    _check_permutation_cap(T.d, n, cap)
    if not braid_check(T):
        raise ValueError("p_n_by_permutations requires a braided tensor")
    delta, products = _weak_order_products(T, n)
    acc = [{} for _ in range(dim)]
    for perm, rows in products.items():
        w = delta ** (top - permutation_length(perm))
        for row, mrow in zip(acc, rows):
            for c, y in mrow.items():
                row[c] = row[c] + w * y if c in row else w * y
    return _from_rows(acc, dim, delta**top)


def _kernel_rows(T: CoeffTensor, n: int, cap: int) -> tuple:
    """(the ``{col: numerator}`` rows of the n!·d^n block matrix
    K[(π,σ)] = T(π⁻¹σ) over δ^L, L = n(n−1)/2: each δ^ℓ·T(π) of the weak-order
    walk weighted by δ^{L−ℓ}), refused past ``cap`` before anything is built."""
    if factorial(n) * T.d**n > cap:
        raise DimensionCapExceeded(f"n!·d^n = {factorial(n) * T.d**n} exceeds the dense cap {cap}")
    if not braid_check(T):
        raise ValueError("kernel matrix requires a braided tensor")
    dim, top = T.d**n, n * (n - 1) // 2
    delta, products = _weak_order_products(T, n)
    weight = {perm: delta ** (top - permutation_length(perm)) for perm in products}
    perms, out = list(_permutations(range(1, n + 1))), []
    for pi in perms:
        blocks = [(weight[p], products[p]) for p in (compose(inverse(pi), s) for s in perms)]
        out += [{s * dim + c: w * y for s, (w, rows) in enumerate(blocks) for c, y in rows[i].items()}
                for i in range(dim)]
    return out, delta**top


def permutation_kernel_matrix(T: CoeffTensor, n: int, cap: int = DEFAULT_DIM_CAP):
    """Float view of the block kernel K[(π,σ)] = T(π⁻¹σ), from its integer rows."""
    rows, den = _kernel_rows(T, n, cap)
    return _float_view(rows, (len(rows), len(rows)), den)


def permutation_kernel_psd(T: CoeffTensor, n: int) -> bool:
    """Exact PSD test of the block kernel (n ≤ 3), decided on its integer rows
    (:func:`~wickalg.linalg._psd_rank_over`); a non-Hermitian one raises ValueError."""
    if n > 3:
        raise ValueError("kernel PSD test is limited to n <= 3")
    return _psd_rank_over(*_kernel_rows(T, n, DEFAULT_DIM_CAP))[0]
