"""Twisted derivatives and twists, constant-coefficient differential-form
dimensions, and the differential *-algebra existence predicate."""

from __future__ import annotations

from .algebra import CoeffTensor, Polynomial
from .linalg import Matrix, identity, kron, zeros
from .scalars import ONE, Scalar
from .tensorops import DEFAULT_DIM_CAP, braid_check, t_matrix

__all__ = [
    "d_and_twist",
    "form_space_dim",
    "wick_diff_star_algebra_exists",
]


def d_and_twist(f: Polynomial, T: CoeffTensor) -> dict:
    """Twisted derivatives D_i(f) and twists Θ_i^ℓ(f), by the recursion

        D_i(1) = 0,  Θ_i^ℓ(1) = δ_iℓ·1,
        D_i(x_j f') = δ_ij·f' + Σ_ℓ Θ_i^ℓ(x_j)·D_ℓ(f'),
        Θ_i^ℓ(x_j f') = Σ_k Θ_i^k(x_j)·Θ_k^ℓ(f'),
        Θ_i^ℓ(x_j) = Σ_k T_{ij}^{ℓk}·x_k.

    Returns {"D": [d polynomials], "Theta": d×d nested list of polynomials};
    all generator-only.
    """
    if not f.is_generator_only():
        raise ValueError("d_and_twist requires a generator-only polynomial")
    d = T.d
    zero = Polynomial.zero()
    unit = Polynomial.unit()

    # Θ_i^ℓ(x_j) as a lookup table
    theta_letter = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            row = [Polynomial.zero() for _ in range(d)]
            for (k, l, c) in T.row(i, j):
                row[l - 1] = row[l - 1] + Polynomial.monomial((k,), c)
            theta_letter[(i, j)] = row

    cache: dict = {}

    def on_word(w):
        got = cache.get(w)
        if got is not None:
            return got
        if not w:
            D = [zero] * d
            Th = [[unit if i == l else zero for l in range(d)] for i in range(d)]
        else:
            j, rest = w[0], w[1:]
            D_rest, Th_rest = on_word(rest)
            rest_poly = Polynomial.monomial(rest)
            D = []
            Th = []
            for i in range(1, d + 1):
                theta_ij = theta_letter[(i, j)]
                di = rest_poly if i == j else zero
                for l in range(d):
                    if theta_ij[l] and D_rest[l]:
                        di = di + theta_ij[l] * D_rest[l]
                D.append(di)
                row = []
                for l in range(d):
                    acc = zero
                    for k in range(d):
                        if theta_ij[k] and Th_rest[k][l]:
                            acc = acc + theta_ij[k] * Th_rest[k][l]
                    row.append(acc)
                Th.append(row)
        cache[w] = (D, Th)
        return D, Th

    D_total = [zero] * d
    Th_total = [[zero] * d for _ in range(d)]
    for w, c in f.terms.items():
        D_w, Th_w = on_word(w)
        for i in range(d):
            if D_w[i]:
                D_total[i] = D_total[i] + D_w[i].scale(c)
            for l in range(d):
                if Th_w[i][l]:
                    Th_total[i][l] = Th_total[i][l] + Th_w[i][l].scale(c)
    return {"D": D_total, "Theta": Th_total}


def form_space_basis(T: CoeffTensor, p: int, cap: int = DEFAULT_DIM_CAP) -> Matrix:
    """Exact basis (as columns) of the constant-coefficient p-form space
    ∩_{r=1}^{p−1} H^{⊗(r−1)} ⊗ ker(I+T) ⊗ H^{⊗(p−r−1)}."""
    d = T.d
    if p < 0:
        raise ValueError("p must be >= 0")
    if d**max(p, 1) > cap:
        raise ValueError(f"d^p = {d**p} exceeds cap {cap}")
    if p == 0:
        return identity(1)
    if p == 1:
        return identity(d)
    it = identity(d * d) + t_matrix(T)
    # Build iteratively: Ω^m = (H ⊗ Ω^{m−1}) ∩ ker((I+T) on slots (1,2)).
    kb = it.kernel_basis()
    B = Matrix([[vec[r] for vec in kb] for r in range(d * d)]) if kb else None
    for m in range(3, p + 1):
        if B is None or B.cols == 0:
            B = None
            break
        cand = kron(identity(d), B)  # columns span H ⊗ Ω^{m−1}
        M = kron(it, identity(d ** (m - 2)))
        constrained = M * cand
        kb = constrained.kernel_basis()
        if not kb:
            B = None
            break
        K = Matrix([[vec[r] for vec in kb] for r in range(cand.cols)])
        B = cand * K
    if B is None:
        return zeros(d**p, 0)
    return B


def form_space_dim(T: CoeffTensor, p: int, cap: int = DEFAULT_DIM_CAP) -> int:
    """dim Ω^p_0 (1 for p=0, d for p=1, exact kernel intersection beyond)."""
    return form_space_basis(T, p, cap).cols


def wick_diff_star_algebra_exists(T: CoeffTensor) -> dict:
    """Existence of the differential *-calculus: requires the two-slot
    operator to be invertible and braided; then S = T and R = T⁻¹."""
    tm = t_matrix(T)
    try:
        inv = tm.inverse()
        invertible = True
    except ValueError:
        inv = None
        invertible = False
    braided = braid_check(T)
    exists = invertible and braided
    return {
        "exists": exists,
        "invertible": invertible,
        "braid": braided,
        "S": tm if exists else None,
        "R": inv if exists else None,
    }
