"""Matrix realizations on tensor powers: T, T̃, slot embeddings, the Fock
Gram operators P_n (every level in one pass of :func:`gram_levels`), spectra,
and positivity predicates.

Basis convention on H^{⊗n} (H = C^d): the word (i₁,…,i_n) with 1-based
letters sits at flat index Σ_k (i_k−1)·d^{n−k} (big-endian).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import inf, isqrt

from .algebra import CoeffTensor, hermiticity_check
from .eigen import _lapack_eigvalsh
from .linalg import (Matrix, _certify_pd, _float_view, _from_rows, _hermitian, _psd_rank, _psd_rank_over, _shifted,
                     _sparse_product, _to_rows, identity)
from .reports import Report
from .scalars import _denominator, _numerator, rational_str

__all__ = [
    "DimensionCapExceeded",
    "SpectralSummary",
    "DEFAULT_DIM_CAP",
    "word_to_index",
    "index_to_word",
    "t_matrix",
    "ttilde_matrix",
    "embed",
    "braid_check",
    "gram_levels",
    "p_n",
    "spectral_summary",
    "positivity_report",
    "cuntz_stability_predicate",
]

DEFAULT_DIM_CAP = 4096
CUNTZ_MARGIN = 1e-9  # goes when cuntz_stability_predicate is decided exactly
CERTIFY_MIN_DIM = 32  # measured: on the catalog levels of dim ≤ 27 the LDL* beats _certify_pd's numpy steps


class DimensionCapExceeded(ValueError):
    """Raised when a requested tensor power exceeds the dense-size cap."""


def word_to_index(w, d: int) -> int:
    idx = 0
    for i in w:
        idx = idx * d + (i - 1)
    return idx


def index_to_word(idx: int, d: int, n: int) -> tuple:
    out = []
    for _ in range(n):
        out.append(idx % d + 1)
        idx //= d
    return tuple(reversed(out))


def _check_cap(d: int, n: int, cap: int) -> None:
    if d**n > cap:
        raise DimensionCapExceeded(
            f"d^n = {d**n} exceeds the dense cap {cap}; raise the cap explicitly"
        )


# The H^{⊗3} checks (braid, quadratic ideal) build d³-row matrices under
# DEFAULT_DIM_CAP whatever cap their caller was given.
_H3_MAX_D = int(DEFAULT_DIM_CAP ** (1 / 3) + 1e-9)


def _check_h3_cap(d: int, check: str) -> None:
    if d**3 > DEFAULT_DIM_CAP:
        raise DimensionCapExceeded(
            f"the {check} builds H^{{⊗3}}: d^3 = {d**3} exceeds the dense cap "
            f"{DEFAULT_DIM_CAP}, which is fixed for the H^{{⊗3}} checks, so they need "
            f"d <= {_H3_MAX_D}"
        )


def t_matrix(T: CoeffTensor) -> Matrix:
    """The operator on H⊗H with ⟨ij| · |kl⟩ = T_{ik}^{lj}: the rows of :func:`_t_rows` over δ."""
    rows, delta = _t_rows(T)
    return _from_rows(rows, T.d**2, delta)


def ttilde_matrix(T: CoeffTensor) -> Matrix:
    """The exchange operator on H⊗H: column (i,j) ↦ Σ_{kl} T_{ij}^{kl} row (l,k), so its
    entry at ((l,k),(i,j)) is that of T at ((i,l),(j,k))."""
    (tn, delta), d = _t_rows(T), T.d
    rows = [{} for _ in tn]
    for r, row in enumerate(tn):
        for c, x in row.items():
            rows[r % d * d + c % d][r // d * d + c // d] = x
    return _from_rows(rows, d * d, delta)


def _t_rows(T: CoeffTensor) -> tuple:
    """(the ``{col: numerator}`` rows of δ·T on H⊗H, δ) from ``T.entries``, δ the lcm of their
    denominators: each numerator an int, or a Gaussian integer for a complex entry."""
    d, delta = T.d, _denominator(T.entries.values())
    rows = [{} for _ in range(d * d)]
    for (i, k, l, j), c in T.entries.items():
        rows[(i - 1) * d + (j - 1)][(k - 1) * d + (l - 1)] = _numerator(c, delta)
    return rows, delta


def _slot_rows(xrows: list, slot: int, n: int) -> list:
    """The rows of I ⊗ X ⊗ I on H^{⊗n}, from the d² ``{col: entry}`` rows of a
    two-slot operator X on the slots (slot, slot+1): X's entries are placed,
    none is multiplied."""
    d = isqrt(len(xrows))
    low = d ** (n - slot - 1)
    return [{base + c * low + lo: x for c, x in xrow.items()}
            for base in range(0, d**n, d * d * low) for xrow in xrows for lo in range(low)]


def embed(X: Matrix, slot: int, n: int, cap: int = DEFAULT_DIM_CAP) -> Matrix:
    """The two-slot operator X (d²×d², d read off its shape) acting on adjacent
    tensor slots (slot, slot+1) of H^{⊗n}: :func:`_slot_rows` of its integer rows."""
    d = isqrt(X.rows)
    if X.rows != d * d or X.cols != X.rows:
        raise ValueError(f"embed expects a d²×d² two-slot operator, got {X.rows}x{X.cols}")
    if not (1 <= slot <= n - 1):
        raise ValueError(f"slot {slot} out of range 1..{n - 1}")
    _check_cap(d, n, cap)
    rows, den = _to_rows(X)
    return _from_rows(_slot_rows(rows, slot, n), d**n, den)


def braid_check(T: CoeffTensor) -> bool:
    """Exact test of T₁T₂T₁ = T₂T₁T₂ on H^{⊗3}, refused past the default cap:
    three products of the integer rows of δ·T (:func:`_t_rows`), so both sides
    are δ³ times theirs, with T₁T₂ shared by both."""
    _check_h3_cap(T.d, "braid check")
    tn = _t_rows(T)[0]
    t1, t2 = _slot_rows(tn, 1, 3), _slot_rows(tn, 2, 3)
    t12 = _sparse_product(t1, t2)
    return _sparse_product(t12, t1) == _sparse_product(t2, t12)


def _gram_rows(T: CoeffTensor, n_max: int, cap: int = DEFAULT_DIM_CAP):
    """Yield (d^m, the ``{col: numerator}`` rows of N_m = D_m·P_m, D_m) for the
    Fock Gram operators P_1, …, P_{n_max}, each built from the level before by
    P_{m+1} = (I ⊗ P_m)·A_m, A_m = I + T₁·(I ⊗ A_{m−1}) and A_0 = P_1 = I, so
    that A_m = I + T₁ + T₁T₂ + … + T₁⋯T_m.  With δ·T from :func:`_t_rows`,
    the recursion carries δ^m·A_m = δ^m·I + (δT)₁·(I ⊗ δ^{m−1}·A_{m−1}) and
    N_{m+1} = (I ⊗ N_m)·δ^m·A_m, D_{m+1} = D_m·δ^m, so D_n = δ^{n(n−1)/2}.
    The numerators are nonzero ints, or Gaussian integers for a complex T;
    I ⊗ A is A's rows shifted, and block b of N_{m+1} is N_m times the rows of
    δ^m·A_m in block b: no Kronecker product is formed, and no yielded row is
    read again.  n_max < 0 and d^n_max > ``cap`` are refused first."""
    d = T.d
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _check_cap(d, n_max, cap)
    tn, delta = _t_rows(T)
    a, nrows, den = [{r: 1} for r in range(d)], [{r: 1} for r in range(d)], 1
    for m in range(n_max):
        dim = d ** (m + 1)
        if m:  # a = δ^m·A_m and nrows = N_{m+1} on H^{⊗(m+1)}
            dm, lift = d**m, delta**m
            shifted = [{c + b: x for c, x in row.items()} for b in range(0, dim, dm) for row in a]
            a = _sparse_product(_slot_rows(tn, 1, m + 1), shifted)
            for r, row in enumerate(a):  # a 0 left here drops out of the products
                row[r] = row.get(r, 0) + lift
            nrows = [row for b in range(0, dim, dm) for row in _sparse_product(nrows, a[b:b + dm])]
            den *= lift
        yield dim, nrows, den


def gram_levels(T: CoeffTensor, n_max: int, cap: int = DEFAULT_DIM_CAP):
    """Yield P_1, …, P_{n_max} as Matrices of the ``N/D`` Scalars of :func:`_gram_rows`."""
    for dim, rows, den in _gram_rows(T, n_max, cap):
        yield _from_rows(rows, dim, den)


def p_n(T: CoeffTensor, n: int, cap: int = DEFAULT_DIM_CAP) -> Matrix:
    """The level-n Fock Gram operator, the last level of :func:`gram_levels`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for p in gram_levels(T, n, cap):
        pass
    return p


@dataclass
class SpectralSummary:
    norm: float
    t_plus: float
    t_minus: float
    rank: int
    is_psd: bool
    decided_by: str  # "certified" by _certify_pd, or "exact" by the LDL*


def spectral_summary(X: Matrix) -> SpectralSummary:
    """:func:`_summary` of the :func:`~wickalg.linalg._to_rows` of a self-adjoint X."""
    if X.rows != X.cols:
        raise ValueError("psd_rank requires an exactly Hermitian matrix")
    return _summary(*_to_rows(X), X.rows)


def _summary(rows, den: int, dim: int) -> SpectralSummary:
    """Exact ``is_psd`` and ``rank`` of dim × dim rows over den, proved exactly Hermitian, and LAPACK's spectrum
    of their float view, which decides nothing: from ``CERTIFY_MIN_DIM`` on, its least eigenvalue proposes
    :func:`_certify_pd`, whose integer check decides (``certified``), else the LDL* :func:`_psd_rank` (``exact``)."""
    if not _hermitian(rows):
        raise ValueError("psd_rank requires an exactly Hermitian matrix")
    ev = _lapack_eigvalsh(a := _float_view(rows, (dim, dim), den))
    by = "certified" if dim >= CERTIFY_MIN_DIM and _certify_pd(rows, den, a, float(ev[0])) else "exact"
    del a  # the LDL* runs without the float view
    is_psd, rank = (True, dim) if by == "certified" else _psd_rank(rows, den)
    t_plus, t_minus = (float(ev[-1]), float(ev[0])) if ev.size else (0.0, 0.0)
    return SpectralSummary(max(abs(t_plus), abs(t_minus)), t_plus, t_minus, rank, is_psd, by)


def positivity_report(
    T: CoeffTensor, n_max: int, cap: int = DEFAULT_DIM_CAP
) -> Report:
    """Which sufficient positivity criteria apply, operator bounds, and the
    PSD/rank status of P_n up to n_max.  Each yes/no is exact: ½I ± T ⪰ 0, T ⪰ 0,
    braid with I ± T ⪰ 0, and each bound is present iff I ± T (resp. I − T) ≻ 0.
    Norms, bound values and ``eig_min`` are floats for information only.  T, I ± kT (½I ± T
    as I ± 2T) and each P_n, n ≥ 2, are decided on the integer rows of :func:`_t_rows`, shifted,
    and of :func:`_gram_rows`, with no Matrix of Scalars between."""
    if not hermiticity_check(T):
        raise ValueError("positivity_report requires a hermitian tensor")
    levels = _gram_rows(T, n_max, cap)
    next(levels, None)  # P_1 = I; taking it refuses an oversized n_max first
    t0 = time.perf_counter()
    report = Report(tool="positivity")
    tn, delta = _t_rows(T)
    ts = _summary(tn, delta, T.d**2)
    braided = braid_check(T)
    report.add_check("t_spectrum", **vars(ts))  # norm, t_plus, t_minus, rank, is_psd

    def psd_rank_of(k):  # of δ·(I + kT)
        return _psd_rank_over(_shifted([{c: x * k for c, x in row.items()} for row in tn], delta), delta)
    plus, minus = psd_rank_of(1), psd_rank_of(-1)
    definite = plus == minus == (True, T.d**2)  # I ± T ≻ 0, implied by ½I ± T ⪰ 0
    criteria = {
        "norm_le_half": definite and psd_rank_of(2)[0] and psd_rank_of(-2)[0],
        "t_positive": ts.is_psd,
        "braid_and_norm_le_one": braided and plus[0] and minus[0],
    }
    report.add_check("sufficient_criteria", **criteria,
                     any_fires=any(criteria.values()))
    bounds = {}
    if definite:  # inf where the float norm rounded up to 1
        bounds["operator_bound"] = 1.0 / (1.0 - ts.norm) if ts.norm < 1.0 else inf
    if minus == (True, T.d**2):
        bounds["collective_bound"] = 1.0 / (1.0 - ts.t_plus) if ts.t_plus < 1.0 else inf
    report.add_check("bounds", **bounds)

    p3_psd = True
    for n, (dim, rows, den) in enumerate(levels, 2):
        s = _summary(rows, den, dim)
        report.add_check(f"p_{n}", n=n, is_psd=s.is_psd, rank=s.rank, eig_min=s.t_minus, dim=dim,
                         decided_by=s.decided_by)
        if n == 3:
            p3_psd = s.is_psd

    if n_max >= 3 and not p3_psd:
        _add_diagonal_witness(report, T, t_matrix(T))

    report.timing["seconds"] = time.perf_counter() - t0
    return report


def _witness_diagonal(tm: Matrix, d: int):
    """The diagonal of (I+T₂)⁻¹ + T₁ on H^{⊗3} in word order, or None when
    I+T is singular.  (I+T₂)⁻¹ = I⊗(I+T)⁻¹ and T₁ = T⊗I, so the entry of
    the word ijk is (I+T)⁻¹ at jk plus T at ij: it takes d²×d² pieces only."""
    try:
        inv = (identity(d * d) + tm).inverse()
    except ValueError:
        return None
    return [inv[w % (d * d), w % (d * d)] + tm[w // d, w // d] for w in range(d**3)]


def _add_diagonal_witness(report: Report, T: CoeffTensor, tm: Matrix) -> None:
    """When P_3 fails PSD, report the most negative diagonal entry of
    (I+T₂)⁻¹ + T₁ on H^{⊗3}, an exact certificate against the monotone
    chain P_3 ≥ 1⊗P_2.  T is Hermitian, so the entries are real."""
    diag = _witness_diagonal(tm, T.d)
    if diag is None:
        return
    best, best_idx = min((c.re, idx) for idx, c in enumerate(diag))
    word = index_to_word(best_idx, T.d, 3)
    report.add_check(
        "p3_diagonal_witness",
        value=rational_str(best),
        value_float=float(best),
        basis_word=list(word),
        negative=best < 0,
    )


def cuntz_stability_predicate(T: CoeffTensor) -> bool:
    """True iff max{|t₊|,|t₋|}² < 1 − t₊ + t₋ on the spectrum of the
    two-slot operator: the one float predicate, read off t₊, t₋ with margin
    ``CUNTZ_MARGIN``."""
    if not hermiticity_check(T):
        raise ValueError("cuntz_stability_predicate requires a hermitian tensor")
    rows, delta = _t_rows(T)
    ev = _lapack_eigvalsh(_float_view(rows, (T.d**2, T.d**2), delta))
    t_plus, t_minus = float(ev[-1]), float(ev[0])
    return max(abs(t_plus), abs(t_minus)) ** 2 < 1.0 - t_plus + t_minus - CUNTZ_MARGIN
