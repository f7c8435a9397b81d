"""Preset relation families: hermiticity, spectra, parameter validation."""

import numpy as np
import pytest

from wickalg import (
    PresetSpec,
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


def test_preset_spec_construction():
    rs = make_preset(PresetSpec("qccr", 2, {"q": rational(1, 2)}))
    assert rs.tensor.get(1, 2, 1, 2) == Scalar(rational(1, 2))
    assert rs.d == 2


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
