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
from .eigen import eigvalsh
from .linalg import Matrix, identity, kron, zeros
from .reports import Report
from .scalars import rational_str

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
    """The operator on H⊗H with ⟨ij| · |kl⟩ = T_{ik}^{lj}."""
    d = T.d
    m = zeros(d * d, d * d)
    for (i, k, l, j), c in T.entries.items():
        m.data[(i - 1) * d + (j - 1)][(k - 1) * d + (l - 1)] = c
    return m


def ttilde_matrix(T: CoeffTensor) -> Matrix:
    """The exchange operator on H⊗H: column (i,j) ↦ Σ_{kl} T_{ij}^{kl} row (l,k)."""
    d = T.d
    m = zeros(d * d, d * d)
    for (i, j, k, l), c in T.entries.items():
        m.data[(l - 1) * d + (k - 1)][(i - 1) * d + (j - 1)] = c
    return m


def embed(X: Matrix, slot: int, n: int, cap: int = DEFAULT_DIM_CAP) -> Matrix:
    """The two-slot operator X (d²×d², d read off its shape) acting on
    adjacent tensor slots (slot, slot+1) of H^{⊗n}."""
    d = isqrt(X.rows)
    if X.rows != d * d or X.cols != X.rows:
        raise ValueError(f"embed expects a d²×d² two-slot operator, got {X.rows}x{X.cols}")
    if not (1 <= slot <= n - 1):
        raise ValueError(f"slot {slot} out of range 1..{n - 1}")
    _check_cap(d, n, cap)
    m = X
    if slot > 1:
        m = kron(identity(d ** (slot - 1)), m)
    if slot + 1 < n:
        m = kron(m, identity(d ** (n - slot - 1)))
    return m


def braid_check(T: CoeffTensor) -> bool:
    """Exact test of T₁T₂T₁ = T₂T₁T₂ on H^{⊗3}, refused past the default cap."""
    _check_h3_cap(T.d, "braid check")
    tm = t_matrix(T)
    t1 = embed(tm, 1, 3)
    t2 = embed(tm, 2, 3)
    return t1 * t2 * t1 == t2 * t1 * t2


def gram_levels(T: CoeffTensor, n_max: int, cap: int = DEFAULT_DIM_CAP):
    """Yield the Fock Gram operators P_1, …, P_{n_max}, each built from the
    level before by P_{m+1} = (I ⊗ P_m)·A_m, A_m = I + T₁·(I ⊗ A_{m−1}) and
    A_0 = P_1 = I, so that A_m = I + T₁ + T₁T₂ + … + T₁⋯T_m.  A level costs
    one embed, two krons and two products; the next level reads the yielded
    one, so modify only copies.  n_max < 0 and d^n_max > ``cap`` are refused
    before any level is built."""
    d = T.d
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _check_cap(d, n_max, cap)
    tm = t_matrix(T)
    p = a = eye = identity(d)
    for m in range(n_max):
        if m:  # a = A_m and p = P_{m+1} on H^{⊗(m+1)}
            a = identity(d ** (m + 1)) + embed(tm, 1, m + 1, cap) * kron(eye, a)
            p = kron(eye, p) * a
        yield p


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
    eig_min: float
    rank: int
    is_psd: bool


def spectral_summary(X: Matrix) -> SpectralSummary:
    """Exact ``is_psd`` and ``rank`` of a self-adjoint X from one :meth:`Matrix.psd_rank`;
    the float spectrum (:func:`~wickalg.eigen.eigvalsh`) is for information
    and decides nothing."""
    is_psd, rank = X.psd_rank()
    ev = eigvalsh(X)
    if ev.size == 0:
        return SpectralSummary(0.0, 0.0, 0.0, 0.0, 0, True)
    t_plus = float(ev[-1])
    t_minus = float(ev[0])
    norm = max(abs(t_plus), abs(t_minus))
    return SpectralSummary(norm, t_plus, t_minus, t_minus, rank, is_psd)


def positivity_report(
    T: CoeffTensor, n_max: int, cap: int = DEFAULT_DIM_CAP
) -> Report:
    """Which sufficient positivity criteria apply, operator bounds, and the
    PSD/rank status of P_n up to n_max.  Each yes/no is exact: ½I ± T ⪰ 0, T ⪰ 0,
    braid with I ± T ⪰ 0, and each bound is present iff I ± T (resp. I − T) ≻ 0.
    Norms, bound values and ``eig_min`` are floats for information only."""
    if not hermiticity_check(T):
        raise ValueError("positivity_report requires a hermitian tensor")
    levels = gram_levels(T, n_max, cap)
    next(levels, None)  # P_1 = I; taking it refuses an oversized n_max first
    t0 = time.perf_counter()
    report = Report(tool="positivity")
    tm = t_matrix(T)
    ts = spectral_summary(tm)
    braided = braid_check(T)
    report.add_check(
        "t_spectrum",
        norm=ts.norm,
        t_plus=ts.t_plus,
        t_minus=ts.t_minus,
        rank=ts.rank,
        is_psd=ts.is_psd,
    )
    eye, two_t = identity(tm.rows), tm.scale(2)
    plus, minus = (eye + tm).psd_rank(), (eye - tm).psd_rank()
    definite = plus == minus == (True, tm.rows)  # I ± T ≻ 0, implied by ½I ± T ⪰ 0
    criteria = {
        "norm_le_half": definite and (eye + two_t).psd_rank()[0] and (eye - two_t).psd_rank()[0],
        "t_positive": ts.is_psd,
        "braid_and_norm_le_one": braided and plus[0] and minus[0],
    }
    report.add_check("sufficient_criteria", **criteria,
                     any_fires=any(criteria.values()))
    bounds = {}
    if definite:  # inf where the float norm rounded up to 1
        bounds["operator_bound"] = 1.0 / (1.0 - ts.norm) if ts.norm < 1.0 else inf
    if minus == (True, tm.rows):
        bounds["collective_bound"] = 1.0 / (1.0 - ts.t_plus) if ts.t_plus < 1.0 else inf
    report.add_check("bounds", **bounds)

    p3_psd = True
    for n, pn in enumerate(levels, 2):
        s = spectral_summary(pn)
        report.add_check(f"p_{n}", n=n, is_psd=s.is_psd, rank=s.rank,
                         eig_min=s.eig_min, dim=pn.rows)
        if n == 3:
            p3_psd = s.is_psd

    if n_max >= 3 and not p3_psd:
        _add_diagonal_witness(report, T, tm)

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
    return [inv.data[w % (d * d)][w % (d * d)] + tm.data[w // d][w // d]
            for w in range(d**3)]


def _add_diagonal_witness(report: Report, T: CoeffTensor, tm: Matrix) -> None:
    """When P_3 fails PSD, report the most negative real diagonal entry of
    (I+T₂)⁻¹ + T₁ on H^{⊗3}, an exact certificate against the monotone
    chain P_3 ≥ 1⊗P_2."""
    diag = _witness_diagonal(tm, T.d)
    if diag is None:
        return
    best_idx, best = None, None
    for idx, c in enumerate(diag):
        if not c.is_real:
            continue
        if best is None or c.re < best:
            best, best_idx = c.re, idx
    if best is None:
        return
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
    ev = eigvalsh(t_matrix(T))
    t_plus, t_minus = float(ev[-1]), float(ev[0])
    return max(abs(t_plus), abs(t_minus)) ** 2 < 1.0 - t_plus + t_minus - CUNTZ_MARGIN
