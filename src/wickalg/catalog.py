"""Constructors for the named relation families.

Each preset returns a :class:`~wickalg.algebra.RelationSystem` whose tensor
encodes the family's coefficients exactly, together with the family's known
ideal generators where applicable.
"""

from __future__ import annotations

from itertools import product

from .algebra import CoeffTensor, Polynomial, RelationSystem
from .scalars import ONE, Scalar, rational

__all__ = ["make_preset", "preset_names"]


def _require_open_unit(name: str, v) -> None:
    if not (0 < v < 1):
        raise ValueError(f"parameter {name} must satisfy 0 < {name} < 1, got {v}")


# -- individual families -----------------------------------------------------


def _qccr(d: int, params: dict) -> RelationSystem:
    # a_i† a_j = δ_ij + q a_j a_i†
    q = rational(params.get("q", 0))
    entries = {(i, j, i, j): Scalar(q) for i in range(1, d + 1) for j in range(1, d + 1)}
    return RelationSystem(CoeffTensor(d, entries), [], "qccr", {"q": q})


def _tlw(d: int, params: dict) -> RelationSystem:
    # a_i† a_j = δ_ij + q a_i a_j†
    q = rational(params.get("q", 0))
    entries = {(i, j, j, i): Scalar(q) for i in range(1, d + 1) for j in range(1, d + 1)}
    return RelationSystem(CoeffTensor(d, entries), [], "tlw", {"q": q})


def _twisted_tail(entries: dict, d: int, mu) -> None:
    # the −(1−μ²)·Σ_{k<i} a_k a_k† tail on the diagonal rows
    tail = Scalar(mu * mu - 1)
    for i in range(1, d + 1):
        for k in range(1, i):
            entries[(i, i, k, k)] = tail


def _twisted_ccr(d: int, params: dict) -> RelationSystem:
    mu = rational(params.get("mu", 0))
    _require_open_unit("mu", mu)
    diag, off = Scalar(mu * mu), Scalar(mu)
    entries = {(i, j, i, j): diag if i == j else off
               for i in range(1, d + 1) for j in range(1, d + 1)}
    _twisted_tail(entries, d, mu)
    gens = [Polynomial._of({(i, j): ONE, (j, i): -off})
            for i in range(1, d + 1) for j in range(1, i)]
    return RelationSystem(CoeffTensor(d, entries), gens, "twisted_ccr", {"mu": mu})


def _mucar_cubic_generators(d: int, mu) -> list:
    """The four cubic generator families of the μCAR Wick ideal."""
    mu2, inv = mu * mu, 1 / mu
    minus, neg_mu, neg_mu2, tail = Scalar(-1), Scalar(-mu), Scalar(-mu2), Scalar(mu2 - 1)
    inv_s, gap, cubic = Scalar(inv), Scalar(inv - mu), Scalar(inv - mu + mu2 * mu)
    gens = []
    for i in range(2, d + 1):
        gens.append(Polynomial._of({(1, 1, i): ONE, (i, 1, 1): neg_mu2}))
        gens.append(Polynomial._of({(1, i, i): ONE, (i, 1, i): gap, (i, i, 1): minus}))
    for i in range(2, d + 1):
        for j in range(i + 1, d + 1):
            gens.append(Polynomial._of({(1, i, j): ONE, (i, 1, j): inv_s,
                                        (j, 1, i): neg_mu2, (j, i, 1): neg_mu}))
            gens.append(Polynomial._of({(1, j, i): ONE, (i, 1, j): neg_mu2, (i, j, 1): neg_mu,
                                        (j, 1, i): cubic, (j, i, 1): tail}))
    return gens


def _twisted_car(d: int, params: dict) -> RelationSystem:
    mu = rational(params.get("mu", 0))
    _require_open_unit("mu", mu)
    diag, off = Scalar(-1), Scalar(-mu)
    entries = {(i, j, i, j): diag if i == j else off
               for i in range(1, d + 1) for j in range(1, d + 1)}
    _twisted_tail(entries, d, mu)
    gens = [Polynomial.monomial((i, i)) for i in range(1, d + 1)]
    gens += [Polynomial._of({(i, j): ONE, (j, i): -off})
             for i in range(1, d + 1) for j in range(1, i)]
    gens += _mucar_cubic_generators(d, mu)
    return RelationSystem(CoeffTensor(d, entries), gens, "twisted_car", {"mu": mu})


def _snu2(d: int, params: dict) -> RelationSystem:
    nu = rational(params.get("nu", 0))
    if nu == 0:
        raise ValueError("parameter nu must be nonzero")
    entries = {
        (1, 1, 2, 2): Scalar(-nu * nu),
        (2, 2, 1, 1): Scalar(-1),
        (1, 2, 1, 2): Scalar(nu),
        (2, 1, 2, 1): Scalar(nu),
    }
    return RelationSystem(CoeffTensor(2, entries), [], "snu2", {"nu": nu})


def _q_ij(d: int, params: dict) -> RelationSystem:
    # a_i† a_j = δ_ij + q_ji a_j a_i†, with q_ji = conj(q_ij);
    # parameters: rational keys "qIJ" plus optional "qIJ_im" imaginary parts.
    coeffs = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            re = params.get(f"q{i}{j}", 0)
            im = params.get(f"q{i}{j}_im", 0)
            coeffs[(i, j)] = Scalar(rational(re), rational(im))
    for i in range(1, d + 1):
        if coeffs[(i, i)].im:
            raise ValueError("diagonal q_ii must be real")
        for j in range(1, d + 1):
            if coeffs[(j, i)] != coeffs[(i, j)].conjugate():
                raise ValueError(f"q{j}{i} must be the conjugate of q{i}{j}")
    entries = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            c = coeffs[(j, i)]
            if c:
                entries[(i, j, i, j)] = c
    pm = {}
    for (i, j), c in coeffs.items():
        if c.re:
            pm[f"q{i}{j}"] = c.re
        if c.im:
            pm[f"q{i}{j}_im"] = c.im
    return RelationSystem(CoeffTensor(d, entries), [], "q_ij", pm)


def _degenerate(d: int, params: dict) -> RelationSystem:
    # a_i† a_j = δ_ij (1 − Σ_k a_k a_k†)
    entries = {
        (i, i, k, k): Scalar(-1)
        for i in range(1, d + 1)
        for k in range(1, d + 1)
    }
    return RelationSystem(CoeffTensor(d, entries), [], "degenerate", {})


def _usym(d: int, params: dict) -> RelationSystem:
    # a_i† a_j = δ_ij + q a_j a_i† − λ δ_ij Σ_k a_k a_k†
    q = rational(params.get("q", 0))
    lam = rational(params.get("lam", 0))
    entries = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            entries[(i, j, i, j)] = Scalar(q)
    for i in range(1, d + 1):
        for k in range(1, d + 1):
            key = (i, i, k, k)
            c = entries.get(key, Scalar(0)) - Scalar(lam)
            if c:
                entries[key] = c
            elif key in entries:
                del entries[key]
    return RelationSystem(CoeffTensor(d, entries), [], "usym", {"q": q, "lam": lam})


def _aklt(d: int, params: dict) -> RelationSystem:
    # T_{ij}^{kl} = δ_ij δ_kl (λ−2)/2 + δ_ik δ_jl λ/2 − δ_il δ_jk λ/3
    lam = rational(params.get("lam", 1))
    pair, swap, flip = (lam - 2) / 2, lam / 2, -lam / 3
    # by (δ_ij δ_kl, δ_ik δ_jl, δ_il δ_jk); the only overlap is i = j = k = l
    values = {(True, False, False): pair, (False, True, False): swap,
              (False, False, True): flip, (True, True, True): pair + swap + flip}
    values = {key: Scalar(c) for key, c in values.items() if c}
    entries = {}
    for i, j, k, l in product(range(1, 4), repeat=4):
        c = values.get((i == j and k == l, i == k and j == l, i == l and j == k))
        if c is not None:
            entries[(i, j, k, l)] = c
    return RelationSystem(CoeffTensor(3, entries), [], "aklt", {"lam": lam})


def _bs_ce(d: int, params: dict) -> RelationSystem:
    # a_1† a_1 = 1 + τ(a_1a_1† − a_2a_2†); a_2† a_2 = 1 − τ(a_1a_1† − a_2a_2†);
    # cross rows vanish.
    tau = rational(params.get("tau", 0))
    entries = {
        (1, 1, 1, 1): Scalar(tau),
        (1, 1, 2, 2): Scalar(-tau),
        (2, 2, 1, 1): Scalar(tau),
        (2, 2, 2, 2): Scalar(-tau),
    }
    return RelationSystem(CoeffTensor(2, entries), [], "bs_ce", {"tau": tau})


def _bp_ce(d: int, params: dict) -> RelationSystem:
    # a_i† a_i = 1 + λ a_ia_i† + ε Σ_{k≠i} a_ka_k†; cross rows vanish.
    lam = rational(params.get("lam", 0))
    eps = rational(params.get("eps", 0))
    entries = {}
    for i in range(1, d + 1):
        for k in range(1, d + 1):
            c = lam if k == i else eps
            if c:
                entries[(i, i, k, k)] = Scalar(c)
    return RelationSystem(CoeffTensor(d, entries), [], "bp_ce", {"lam": lam, "eps": eps})


# family -> (builder, fixed d or None for a given d >= 1, accepted parameter names)
_FAMILIES = {
    "qccr": (_qccr, None, ("q",)),
    "tlw": (_tlw, None, ("q",)),
    "twisted_ccr": (_twisted_ccr, None, ("mu",)),
    "twisted_car": (_twisted_car, None, ("mu",)),
    "snu2": (_snu2, 2, ("nu",)),
    "q_ij": (_q_ij, None, None),
    "degenerate": (_degenerate, None, ()),
    "usym": (_usym, None, ("q", "lam")),
    "aklt": (_aklt, 3, ("lam",)),
    "bs_ce": (_bs_ce, 2, ("tau",)),
    "bp_ce": (_bp_ce, None, ("lam", "eps")),
}


def preset_names() -> list:
    return sorted(_FAMILIES)


def make_preset(family: str, d: int = None, **params) -> RelationSystem:
    """Build a preset relation system.

    Called as ``make_preset(family, d, key=value…)`` with rational parameter
    values (ints, Fractions, or strings like "1/3" or "0.5", read by
    :func:`~wickalg.scalars.rational`).  A parameter the family does not
    know raises ``ValueError``; a missing one takes its default:

    - ``qccr``, ``tlw``: ``q = 0`` (the free case);
    - ``twisted_ccr``, ``twisted_car``: ``mu``, required, 0 < mu < 1;
    - ``snu2`` (d = 2): ``nu``, required, nonzero;
    - ``q_ij`` (d <= 10): ``qIJ`` and ``qIJ_im`` for 1 <= I, J <= d, each 0;
    - ``degenerate``: none;
    - ``usym``: ``q = 0``, ``lam = 0``;
    - ``aklt`` (d = 3): ``lam = 1``;
    - ``bs_ce`` (d = 2): ``tau = 0``;
    - ``bp_ce``: ``lam = 0``, ``eps = 0``.

    ``snu2``, ``aklt`` and ``bs_ce`` take d as shown or left out; every other
    family needs d >= 1.
    """
    try:
        builder, fixed_d, names = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown preset family {family!r}; "
                         f"known: {', '.join(preset_names())}") from None
    if fixed_d is not None and d not in (None, fixed_d):
        raise ValueError(f"{family} is defined for d={fixed_d}")
    if fixed_d is None and (d is None or d < 1):
        raise ValueError(f"preset {family!r} requires a dimension d >= 1")
    if names is None:  # q_ij: the names depend on d; at d = 11, q111 names two pairs
        if d > 10:
            raise ValueError("preset 'q_ij' is defined for d <= 10, "
                             "where its parameter names qIJ are unambiguous")
        names = [f"q{i}{j}{part}" for i in range(1, d + 1)
                 for j in range(1, d + 1) for part in ("", "_im")]
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ValueError(f"unknown parameter {', '.join(unknown)} for preset "
                         f"{family!r}; accepted: {', '.join(names) or 'none'}")
    return builder(d, params)
