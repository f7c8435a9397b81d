"""Preset relation families: hermiticity, spectra, parameter validation."""

from itertools import product

import numpy as np
import pytest

from wickalg import (
    Polynomial,
    Scalar,
    eigvalsh,
    hermiticity_check,
    make_preset,
    rational,
    t_matrix,
    ttilde_matrix,
    word_to_index,
)
from wickalg.catalog import preset_names

REPRESENTATIVES = [
    ("qccr", 2, {"q": "1/2"}),
    ("tlw", 2, {"q": "-1/5"}),
    ("twisted_ccr", 3, {"mu": "1/2"}),
    ("twisted_car", 3, {"mu": "1/2"}),
    ("snu2", None, {"nu": "1/2"}),
    ("q_ij", 2, {"q11": "1/3", "q22": "1/4", "q12": "1/2",
                 "q12_im": "1/2", "q21": "1/2", "q21_im": "-1/2"}),
    ("degenerate", 2, {}),
    ("usym", 2, {"q": "1/3", "lam": "1/5"}),
    ("aklt", None, {"lam": "1"}),
    ("bs_ce", None, {"tau": "3/5"}),
    ("bp_ce", 2, {"lam": "12", "eps": "-1/10"}),
]


def test_every_family_has_a_representative():
    assert sorted(name for name, _, _ in REPRESENTATIVES) == preset_names()


@pytest.mark.parametrize("name,d,params", REPRESENTATIVES)
def test_representatives_are_hermitian(name, d, params):
    rs = make_preset(name, d, **params)
    assert hermiticity_check(rs.tensor)
    assert rs.name == name
    for g in rs.ideal_generators:
        assert g.is_generator_only()


def test_qccr_spectrum_is_scaled_flip():
    q = rational(1, 2)
    tm = t_matrix(make_preset("qccr", 2, q=q).tensor)
    # T = q * flip, so the spectrum is {q (x3), -q}.
    assert sorted(np.round(eigvalsh(tm), 12)) == [-0.5, 0.5, 0.5, 0.5]
    i12 = word_to_index((1, 2), 2)
    i21 = word_to_index((2, 1), 2)
    assert tm[i12, i21] == Scalar(q) and tm[i12, i12] == Scalar(0)


def test_tlw_norm_and_exchange_matrix():
    q = rational(3, 10)
    d = 2
    T = make_preset("tlw", d, q=q).tensor
    ev = eigvalsh(t_matrix(T))
    assert abs(max(abs(ev)) - float(q) * d) < 1e-12  # ||T|| = |q| d
    # The exchange-operator realization is q times the identity.
    tt = ttilde_matrix(T)
    assert tt == __import__("wickalg").identity(d * d).scale(Scalar(q))


def test_twisted_families_spectra():
    mu = rational(1, 2)
    ev_ccr = sorted(np.round(eigvalsh(t_matrix(
        make_preset("twisted_ccr", 2, mu=mu).tensor)), 12))
    assert ev_ccr == [-1.0, 0.25, 0.25, 0.25]
    ev_car = sorted(np.round(eigvalsh(t_matrix(
        make_preset("twisted_car", 2, mu=mu).tensor)), 12))
    assert ev_car == [-1.0, -1.0, -1.0, 0.25]


def test_snu2_spectrum():
    nu = rational(1, 2)
    ev = sorted(np.round(eigvalsh(t_matrix(make_preset("snu2", nu=nu).tensor)), 12))
    assert ev == [-1.25, 0.0, 0.0, 0.0]  # {-(1+nu^2), 0, 0, 0}


def test_aklt_spectrum():
    for lam in (rational(1), rational(1, 2), rational(3)):
        ev = np.round(eigvalsh(t_matrix(make_preset("aklt", lam=lam).tensor)), 10)
        lo = [v for v in ev if abs(v + 1.0) < 1e-9]
        hi = [v for v in ev if abs(v - (float(lam) - 1.0)) < 1e-9]
        assert len(lo) == 4 and len(hi) == 5  # spin 0+1 at -1, spin 2 at lam-1


def test_q_ij_action():
    rs = make_preset("q_ij", 2, q11="1/3", q22="1/4", q12="1/2",
                     q12_im="1/2", q21="1/2", q21_im="-1/2")
    tm = t_matrix(rs.tensor)
    d = 2
    # T|ij> = q_ij |ji>
    q12 = Scalar(rational(1, 2), rational(1, 2))
    assert tm[word_to_index((2, 1), d), word_to_index((1, 2), d)] == q12
    assert tm[word_to_index((1, 2), d), word_to_index((2, 1), d)] == q12.conjugate()
    assert tm[word_to_index((1, 1), d), word_to_index((1, 1), d)] == Scalar(rational(1, 3))


def test_degenerate_is_minus_identity():
    from wickalg import identity

    tm = t_matrix(make_preset("degenerate", 3).tensor)
    assert tm == identity(9).scale(-1)


def test_twisted_generators_declared():
    rs = make_preset("twisted_ccr", 3, mu="1/2")
    assert len(rs.ideal_generators) == 3  # one commutation relation per pair
    rs = make_preset("twisted_car", 3, mu="1/2")
    # 3 squares + 3 pair relations + cubic families: 2*(d-1) + 2*C(d-1,2)
    assert len(rs.ideal_generators) == 3 + 3 + 4 + 2


def test_parameter_validation():
    with pytest.raises(ValueError):
        make_preset("twisted_ccr", 2, mu="3/2")
    with pytest.raises(ValueError):
        make_preset("twisted_car", 2, mu="0")
    with pytest.raises(ValueError):
        make_preset("snu2", nu="0")
    with pytest.raises(ValueError):
        make_preset("snu2", 3, nu="1/2")
    with pytest.raises(ValueError):
        make_preset("aklt", 2)
    with pytest.raises(ValueError):
        make_preset("bs_ce", 3, tau="1/2")
    with pytest.raises(ValueError):
        make_preset("q_ij", 2, q12="1/2", q21="1/3")  # not conjugate
    with pytest.raises(ValueError):
        make_preset("q_ij", 2, q11="0", q11_im="1")  # diagonal must be real
    with pytest.raises(ValueError):
        make_preset("nope", 2)
    with pytest.raises(ValueError):
        make_preset("qccr")  # d required


def test_dimension_rule():
    # bp_ce takes d >= 1 from the caller like qccr; it has no default d.
    for d in (0, None):
        with pytest.raises(ValueError, match="preset 'bp_ce' requires a dimension d >= 1"):
            make_preset("bp_ce", d, lam="1/2")
    with pytest.raises(ValueError, match="snu2 is defined for d=2"):
        make_preset("snu2", 3, nu="1/2")
    # q_ij names q_{1,10} and q_{10,1} apart up to d = 10; at d = 11,
    # q111 would name both q_{1,11} and q_{11,1}.
    T = make_preset("q_ij", 10, q110="1/2", q101="1/2").tensor
    assert T.entries == {(1, 10, 1, 10): Scalar(rational(1, 2)),
                         (10, 1, 10, 1): Scalar(rational(1, 2))}
    with pytest.raises(ValueError, match="'q_ij' is defined for d <= 10"):
        make_preset("q_ij", 11, q111="1/2")


def test_aliases_are_unknown_parameters():
    # Only the names mu and lam are read, so a second spelling is refused.
    with pytest.raises(ValueError, match="unknown parameter q for preset 'twisted_ccr'; accepted: mu"):
        make_preset("twisted_ccr", 2, mu="1/2", q="1/3")
    with pytest.raises(ValueError, match="unknown parameter lambda for preset 'usym'; accepted: q, lam"):
        make_preset("usym", 2, lam="1/2", **{"lambda": "1/3"})


def _reference_system(name, d, mu_or_lam):
    """The aklt, twisted_ccr and twisted_car tensors and generators, each entry
    and coefficient computed on its own by the defining formulas in Fraction
    arithmetic: the reference for the presets' precomputed constants."""
    x = rational(mu_or_lam)
    mono = Polynomial.monomial
    if name == "aklt":
        entries = {}
        for i, j, k, l in product(range(1, 4), repeat=4):
            c = rational(0)
            if i == j and k == l:
                c += (x - 2) / 2
            if k == i and l == j:
                c += x / 2
            if l == i and k == j:
                c -= x / 3
            if c:
                entries[(i, j, k, l)] = Scalar(c)
        return entries, []
    car = name == "twisted_car"
    entries = {(i, j, i, j): Scalar((-1 if i == j else -x) if car else (x * x if i == j else x))
               for i in range(1, d + 1) for j in range(1, d + 1)}
    for i in range(1, d + 1):
        for k in range(1, i):
            entries[(i, i, k, k)] = Scalar(-(1 - x * x))
    sign = 1 if car else -1
    gens = [mono((i, i)) for i in range(1, d + 1)] if car else []
    gens += [mono((i, j)) + mono((j, i), Scalar(sign * x))
             for i in range(1, d + 1) for j in range(1, i)]
    if car:
        for i in range(2, d + 1):
            gens.append(mono((1, 1, i)) - mono((i, 1, 1), Scalar(x * x)))
            gens.append(mono((1, i, i)) + mono((i, 1, i), Scalar(1 / x - x)) - mono((i, i, 1)))
        for i in range(2, d + 1):
            for j in range(i + 1, d + 1):
                gens.append(mono((1, i, j)) + mono((i, 1, j), Scalar(1 / x))
                            - mono((j, 1, i), Scalar(x * x)) - mono((j, i, 1), Scalar(x)))
                gens.append(mono((1, j, i)) - mono((i, 1, j), Scalar(x * x)) - mono((i, j, 1), Scalar(x))
                            - mono((j, 1, i), Scalar(-1 / x + x - x * x * x))
                            - mono((j, i, 1), Scalar(1 - x * x)))
    return entries, gens


@pytest.mark.parametrize("name,d,values", [
    ("aklt", None, ["1", "0", "2", "-1", "7/5", "1/2", "19/10", "3", "-2/3"]),
    ("twisted_ccr", 4, ["1/2", "1/3", "4/11", "9/10", "1/10"]),
    ("twisted_car", 4, ["1/2", "1/3", "4/11", "9/10", "1/10"]),
])
def test_precomputed_constants_match_the_formulas(name, d, values):
    # The presets compute each parameter constant once per build; every
    # entry, generator and their order equal those of the term-by-term formulas.
    pname = "lam" if name == "aklt" else "mu"
    for v in values:
        for dd in ([d] if d is None else range(1, d + 1)):
            rs = make_preset(name, dd, **{pname: v})
            entries, gens = _reference_system(name, dd, v)
            assert list(rs.tensor.entries.items()) == list(entries.items())
            assert [list(g.terms.items()) for g in rs.ideal_generators] == \
                [list(g.terms.items()) for g in gens]
