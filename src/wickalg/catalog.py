"""Constructors for the named relation families.

Each preset returns a :class:`~wickalg.algebra.RelationSystem` whose tensor
encodes the family's coefficients exactly, together with the family's known
ideal generators where applicable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import CoeffTensor, Polynomial, RelationSystem
from .scalars import Scalar, rational

__all__ = ["PresetSpec", "make_preset", "preset_names"]


@dataclass(frozen=True)
class PresetSpec:
    family: str
    d: int
    params: dict = field(default_factory=dict)


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
    tail = -(1 - mu * mu)
    for i in range(1, d + 1):
        for k in range(1, i):
            entries[(i, i, k, k)] = Scalar(tail)


def _twisted_ccr(d: int, params: dict) -> RelationSystem:
    mu = rational(params.get("mu", params.get("q", 0)))
    _require_open_unit("mu", mu)
    entries = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            entries[(i, j, i, j)] = Scalar(mu * mu if i == j else mu)
    _twisted_tail(entries, d, mu)
    gens = [
        Polynomial.monomial((i, j)) - Polynomial.monomial((j, i), Scalar(mu))
        for i in range(1, d + 1)
        for j in range(1, i)
    ]
    return RelationSystem(CoeffTensor(d, entries), gens, "twisted_ccr", {"mu": mu})


def _mucar_cubic_generators(d: int, mu) -> list:
    """The four cubic generator families of the μCAR Wick ideal."""
    mono = Polynomial.monomial
    sc = Scalar
    mu2 = mu * mu
    mu_inv = 1 / mu
    gens = []
    for i in range(2, d + 1):
        gens.append(mono((1, 1, i)) - mono((i, 1, 1), sc(mu2)))
        gens.append(
            mono((1, i, i))
            + mono((i, 1, i), sc(mu_inv - mu))
            - mono((i, i, 1))
        )
    for i in range(2, d + 1):
        for j in range(i + 1, d + 1):
            gens.append(
                mono((1, i, j))
                + mono((i, 1, j), sc(mu_inv))
                - mono((j, 1, i), sc(mu2))
                - mono((j, i, 1), sc(mu))
            )
            gens.append(
                mono((1, j, i))
                - mono((i, 1, j), sc(mu2))
                - mono((i, j, 1), sc(mu))
                - mono((j, 1, i), sc(-mu_inv + mu - mu2 * mu))
                - mono((j, i, 1), sc(1 - mu2))
            )
    return gens


def _twisted_car(d: int, params: dict) -> RelationSystem:
    mu = rational(params.get("mu", params.get("q", 0)))
    _require_open_unit("mu", mu)
    entries = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            entries[(i, j, i, j)] = Scalar(-1 if i == j else -mu)
    _twisted_tail(entries, d, mu)
    gens = [Polynomial.monomial((i, i)) for i in range(1, d + 1)]
    gens += [
        Polynomial.monomial((i, j)) + Polynomial.monomial((j, i), Scalar(mu))
        for i in range(1, d + 1)
        for j in range(1, i)
    ]
    gens += _mucar_cubic_generators(d, mu)
    return RelationSystem(CoeffTensor(d, entries), gens, "twisted_car", {"mu": mu})


def _snu2(d: int, params: dict) -> RelationSystem:
    if d not in (None, 2):
        raise ValueError("snu2 is defined for d=2")
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
    lam = rational(params.get("lam", params.get("lambda", 0)))
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
    if d not in (None, 3):
        raise ValueError("aklt is defined for d=3")
    lam = rational(params.get("lam", params.get("lambda", 1)))
    half = rational(1, 2)
    third = rational(1, 3)
    entries = {}
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                for l in range(1, 4):
                    c = rational(0)
                    if i == j and k == l:
                        c += (lam - 2) * half
                    if k == i and l == j:
                        c += lam * half
                    if l == i and k == j:
                        c -= lam * third
                    if c:
                        entries[(i, j, k, l)] = Scalar(c)
    return RelationSystem(CoeffTensor(3, entries), [], "aklt", {"lam": lam})


def _bs_ce(d: int, params: dict) -> RelationSystem:
    # a_1† a_1 = 1 + τ(a_1a_1† − a_2a_2†); a_2† a_2 = 1 − τ(a_1a_1† − a_2a_2†);
    # cross rows vanish.
    if d not in (None, 2):
        raise ValueError("bs_ce is defined for d=2")
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
    d = d or 2
    lam = rational(params.get("lam", params.get("lambda", 0)))
    eps = rational(params.get("eps", 0))
    entries = {}
    for i in range(1, d + 1):
        for k in range(1, d + 1):
            c = lam if k == i else eps
            if c:
                entries[(i, i, k, k)] = Scalar(c)
    return RelationSystem(CoeffTensor(d, entries), [], "bp_ce", {"lam": lam, "eps": eps})


# family -> (builder, needs d, accepted parameter names incl. aliases)
_FAMILIES = {
    "qccr": (_qccr, True, ("q",)),
    "tlw": (_tlw, True, ("q",)),
    "twisted_ccr": (_twisted_ccr, True, ("mu", "q")),
    "twisted_car": (_twisted_car, True, ("mu", "q")),
    "snu2": (_snu2, False, ("nu",)),
    "q_ij": (_q_ij, True, None),
    "degenerate": (_degenerate, True, ()),
    "usym": (_usym, True, ("q", "lam", "lambda")),
    "aklt": (_aklt, False, ("lam", "lambda")),
    "bs_ce": (_bs_ce, False, ("tau",)),
    "bp_ce": (_bp_ce, False, ("lam", "lambda", "eps")),
}


def preset_names() -> list:
    return sorted(_FAMILIES)


def make_preset(spec, d: int = None, **params) -> RelationSystem:
    """Build a preset relation system.

    Accepts either a :class:`PresetSpec` or ``make_preset(name, d, key=value…)``
    with rational parameter values (ints, Fractions, or strings like "1/3"
    or "0.5", read by :func:`~wickalg.scalars.rational`).  A parameter the
    family does not know raises ``ValueError``; a missing one takes its
    default:

    - ``qccr``, ``tlw``: ``q = 0`` (the free case);
    - ``twisted_ccr``, ``twisted_car``: ``mu`` (alias ``q``), required, 0 < mu < 1;
    - ``snu2`` (d = 2): ``nu``, required, nonzero;
    - ``q_ij``: ``qIJ`` and ``qIJ_im`` for 1 <= I, J <= d, each 0;
    - ``degenerate``: none;
    - ``usym``: ``q = 0``, ``lam = 0`` (alias ``lambda``);
    - ``aklt`` (d = 3): ``lam = 1`` (alias ``lambda``);
    - ``bs_ce`` (d = 2): ``tau = 0``;
    - ``bp_ce`` (d = 2 unless given): ``lam = 0`` (alias ``lambda``), ``eps = 0``.
    """
    if isinstance(spec, PresetSpec):
        family, d, params = spec.family, spec.d, dict(spec.params)
    else:
        family = spec
    try:
        builder, needs_d, names = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown preset family {family!r}; "
                         f"known: {', '.join(preset_names())}") from None
    if needs_d and (d is None or d < 1):
        raise ValueError(f"preset {family!r} requires a dimension d >= 1")
    if names is None:  # q_ij: the names depend on d
        names = [f"q{i}{j}{part}" for i in range(1, d + 1)
                 for j in range(1, d + 1) for part in ("", "_im")]
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ValueError(f"unknown parameter {', '.join(unknown)} for preset "
                         f"{family!r}; accepted: {', '.join(names) or 'none'}")
    return builder(d, params)
