"""Tensor-power operators, the level Gram recursion, positivity reports."""

import pytest

from wickalg import tensorops
from wickalg import (
    CoeffTensor,
    CoherentParam,
    DimensionCapExceeded,
    Matrix,
    Scalar,
    cuntz_stability_predicate,
    embed,
    gram_levels,
    gram_matrix,
    identity,
    index_to_word,
    kms_series,
    kron,
    make_preset,
    minus_one_eigenprojection,
    p_n,
    positivity_report,
    rational,
    spectral_summary,
    t_matrix,
    word_to_index,
)


def test_index_word_round_trip():
    d, n = 3, 4
    for idx in range(d**n):
        w = index_to_word(idx, d, n)
        assert len(w) == n and all(1 <= i <= d for i in w)
        assert word_to_index(w, d) == idx
    assert word_to_index((1, 2), 3) == 1  # big-endian: (i1-1)*d + (i2-1)


def test_embed_shape_validation():
    # embed reads d off the operator, which must be square with d² rows.
    for rows, cols in [(3, 3), (8, 8), (1, 4)]:
        with pytest.raises(ValueError):
            embed(Matrix([[0] * cols for _ in range(rows)]), 1, 3)
    P = minus_one_eigenprojection(make_preset("twisted_car", 3, mu="1/3").tensor)
    assert not P.is_zero()
    assert embed(P, 1, 3) == kron(P, identity(3))


def test_embed_slots():
    T = make_preset("qccr", 2, q="1/2").tensor
    tm = t_matrix(T)
    t1 = embed(tm, 1, 3)
    t2 = embed(tm, 2, 3)
    assert t1 == kron(tm, identity(2))
    assert t2 == kron(identity(2), tm)
    with pytest.raises(ValueError):
        embed(tm, 3, 3)
    with pytest.raises(DimensionCapExceeded):
        embed(tm, 1, 13, cap=4096)


def test_p1_and_p2():
    for name, d, params in [("qccr", 2, {"q": "1/2"}),
                            ("twisted_car", 2, {"mu": "1/3"})]:
        T = make_preset(name, d, **params).tensor
        assert p_n(T, 1) == identity(d)
        assert p_n(T, 2) == identity(d * d) + t_matrix(T)


def test_p3_recursion_explicit():
    # P_3 = (I (x) P_2)(I + T_1 + T_1 T_2), checked against the closed form.
    T = make_preset("twisted_ccr", 2, mu="1/2").tensor
    tm = t_matrix(T)
    t1 = embed(tm, 1, 3)
    t2 = embed(tm, 2, 3)
    expected = kron(identity(2), identity(4) + tm) * (identity(8) + t1 + t1 * t2)
    assert p_n(T, 3) == expected


def test_p_n_zero_tensor_is_identity():
    T = CoeffTensor(2)
    for n in (1, 2, 3, 4):
        assert p_n(T, n) == identity(2**n)


def test_p_n_matches_fock_inner_products():
    # <w, v> for length-2 words of qccr: <ij, kl> = delta + q delta(swap).
    q = Scalar(rational(1, 2))
    T = make_preset("qccr", 2, q="1/2").tensor
    P = p_n(T, 2)
    i12, i21 = word_to_index((1, 2), 2), word_to_index((2, 1), 2)
    i11 = word_to_index((1, 1), 2)
    assert P[i12, i12] == Scalar(1) and P[i12, i21] == q
    assert P[i11, i11] == Scalar(1) + q


def test_gram_levels_match_fock_gram_matrices():
    # the annihilator route of states.gram_matrix is independent of the recursion
    T = make_preset("tlw", 2, q="1/3").tensor
    assert list(gram_levels(T, 0)) == []
    levels = list(gram_levels(T, 4))
    assert len(levels) == 4
    for n, pn in enumerate(levels, 1):
        words = [index_to_word(i, 2, n) for i in range(2**n)]
        assert pn == gram_matrix(words, CoherentParam.zero(2), T)


def test_degenerate_p_n_vanishes():
    T = make_preset("degenerate", 2).tensor
    for n in (2, 3):
        assert p_n(T, n).rank() == 0


def test_rank_sequences():
    mu = "1/2"
    ccr = make_preset("twisted_ccr", 2, mu=mu).tensor
    assert [p_n(ccr, n).rank() for n in (1, 2, 3)] == [2, 3, 4]
    car = make_preset("twisted_car", 2, mu=mu).tensor
    assert [p_n(car, n).rank() for n in (1, 2, 3)] == [2, 1, 0]


def test_dimension_cap():
    T = make_preset("qccr", 2, q="1/2").tensor
    with pytest.raises(DimensionCapExceeded):
        p_n(T, 4, cap=8)
    assert p_n(T, 4, cap=16).rows == 16
    with pytest.raises(DimensionCapExceeded):
        next(gram_levels(T, 20))  # refused before the first level


def test_negative_n_max_is_refused():
    # gram_levels(T, -1) used to yield no level, so the rank series and the
    # positivity report of a negative n_max came back as if it were valid.
    T = make_preset("qccr", 2, q="1/2").tensor
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        next(gram_levels(T, -1))
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        kms_series(T, rational(1, 3), -1)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        positivity_report(T, -1)
    assert kms_series(T, rational(1, 3), 0)["ranks"] == [1]


def test_spectral_summary():
    s = spectral_summary(Matrix([[2, 0], [0, -1]]))
    assert s.norm == 2.0 and s.t_plus == 2.0 and s.t_minus == -1.0
    assert s.rank == 2 and not s.is_psd
    s = spectral_summary(identity(3))
    assert s.is_psd and s.rank == 3 and s.eig_min == pytest.approx(1.0)
    with pytest.raises(ValueError):
        spectral_summary(Matrix([[0, 1], [0, 0]]))


def _check(report, name):
    return next(c for c in report.checks if c["name"] == name)


def test_positivity_report_criteria_and_levels():
    rep = positivity_report(make_preset("qccr", 2, q="9/10").tensor, 3)
    crit = _check(rep, "sufficient_criteria")
    assert crit["braid_and_norm_le_one"] and crit["any_fires"]
    assert not crit["norm_le_half"]
    for n in (2, 3):
        assert _check(rep, f"p_{n}")["is_psd"]
    bounds = _check(rep, "bounds")
    assert bounds["operator_bound"] == pytest.approx(10.0)
    assert rep.timing["seconds"] >= 0


def test_positivity_report_negative_case_with_witness():
    T = make_preset("bp_ce", 2, lam="12", eps="-1/10").tensor
    rep = positivity_report(T, 3)
    assert not _check(rep, "p_3")["is_psd"]
    wit = _check(rep, "p3_diagonal_witness")
    assert wit["value"] == "-3/130" and wit["negative"]
    assert wit["basis_word"] == [1, 2, 2]


@pytest.mark.parametrize("family, d, params", [
    ("bp_ce", 2, {"lam": "12", "eps": "-1/10"}),
    ("qccr", 2, {"q": "1/2"}),
    ("tlw", 3, {"q": "1/3"}),
    ("aklt", None, {"lam": "2"}),
    ("q_ij", 2, {"q11": "1/2", "q12": "1/3", "q12_im": "1/4",
                 "q21": "1/3", "q21_im": "-1/4", "q22": "-1/3"}),
    ("twisted_car", 3, {"mu": "1/2"}),
    ("snu2", None, {"nu": "1/2"}),
    ("usym", 2, {"q": "1/2", "lam": "1/3"}),
])
def test_witness_diagonal_matches_h3(family, d, params):
    # The P_3 witness from d²×d² pieces against (I+T₂)⁻¹ + T₁ built on H^{⊗3};
    # both are None where I+T is singular (aklt, twisted_car).
    T = make_preset(family, d, **params).tensor
    tm, d = t_matrix(T), T.d
    try:
        oracle = ((identity(d**3) + embed(tm, 2, 3)).inverse() + embed(tm, 1, 3)).diagonal()
    except ValueError:
        oracle = None
    assert tensorops._witness_diagonal(tm, d) == oracle
    assert (oracle is None) == (family in ("aklt", "twisted_car"))


# Reports pinned before the spectra came from the parallel Jacobi kernel: the
# four criteria, per level (dim, rank, is_psd, eig_min, ‖P_n‖ to 4 digits), and
# the P_3 diagonal witness or None.
CRITERIA = ("norm_le_half", "t_positive", "braid_and_norm_le_one", "any_fires")
PINNED_REPORTS = [
    (("qccr", 2, {"q": "1/2"}, 6), (True, False, True, True), [
        (4, 4, True, 0.4999999999999999, 1.5),
        (8, 8, True, 0.37499999999999994, 2.625),
        (16, 16, True, 0.21598571037125344, 4.922),
        (32, 32, True, 0.15478668227440862, 9.536),
        (64, 64, True, 0.09232195496120744, 18.77),
    ], None),
    (("tlw", 3, {"q": "1/3"}, 4), (False, True, False, True), [
        (9, 9, True, 0.9999999999999998, 2.0),
        (27, 27, True, 0.999999999999999, 2.854),
        (81, 81, True, 0.9999999999999986, 5.939),
    ], None),
    (("tlw", 2, {"q": "-1/2"}, 5), (False, False, False, False), [
        (4, 3, True, 0.0, 1.0),
        (8, 6, True, 0.0, 1.0),
        (16, 12, True, -6.037868363332873e-17, 1.0),
        (32, 24, True, -3.7279704146265734e-17, 1.0),
    ], None),
    (("twisted_car", 3, {"mu": "1/2"}, 4), (False, False, True, True), [
        (9, 3, True, 0.0, 1.25),
        (27, 1, True, -2.495169308853617e-18, 1.641),
        (81, 0, True, 0.0, 0.0),
    ], None),
    (("twisted_ccr", 2, {"mu": "1/2"}, 5), (False, False, True, True), [
        (4, 3, True, 0.0, 1.25),
        (8, 4, True, 0.0, 1.641),
        (16, 5, True, -2.884112944763125e-17, 2.179),
        (32, 6, True, -5.066136571198401e-17, 2.902),
    ], None),
    (("snu2", None, {"nu": "1/2"}, 5), (False, False, False, False), [
        (4, 4, False, -0.24999999999999997, 1.0),
        (8, 6, False, -0.31249999999999994, 1.0),
        (16, 9, False, -0.3281250000000001, 1.0),
        (32, 12, False, -0.3320312500000006, 1.0),
    ], {"value": "-13/4", "value_float": -3.25, "basis_word": [1, 2, 1], "negative": True}),
    (("usym", 2, {"q": "1/2", "lam": "1/3"}, 5), (False, False, False, False), [
        (4, 4, True, 0.1666666666666666, 1.167),
        (8, 8, True, 0.13457892461583854, 1.394),
        (16, 16, True, 0.029148577624325402, 1.671),
        (32, 32, True, 0.020953877437787465, 2.005),
    ], None),
    (("aklt", None, {"lam": "1"}, 4), (False, False, False, False), [
        (9, 5, True, 0.0, 1.0),
        (27, 15, True, -1.1200647955065673e-16, 1.0),
        (81, 45, True, -5.823592369147216e-17, 1.0),
    ], None),
    (("bp_ce", 2, {"lam": "12", "eps": "-1/10"}, 3), (False, False, False, False), [
        (4, 4, True, 0.9, 13.0),
        (8, 8, False, -3.9, 2041.0),
    ], {"value": "-3/130", "value_float": -0.023076923076923078, "basis_word": [1, 2, 2],
        "negative": True}),
]


@pytest.mark.parametrize("case", PINNED_REPORTS,
                         ids=lambda c: "{}-d{}-n{}".format(c[0][0], c[0][1], c[0][3]))
def test_positivity_report_pinned(case):
    (family, d, params, n_max), criteria, levels, witness = case
    rep = positivity_report(make_preset(family, d, **params).tensor, n_max)
    crit = _check(rep, "sufficient_criteria")
    assert tuple(crit[k] for k in CRITERIA) == criteria
    assert [c["name"] for c in rep.checks if c["name"].startswith("p_")] == [
        f"p_{n}" for n in range(2, n_max + 1)]
    for n, (dim, rank, is_psd, eig_min, norm) in enumerate(levels, 2):
        lev = _check(rep, f"p_{n}")
        assert (lev["dim"], lev["rank"], lev["is_psd"]) == (dim, rank, is_psd), n
        assert abs(lev["eig_min"] - eig_min) <= 1e-12 * max(1.0, norm), n
    wit = next((c for c in rep.checks if c["name"] == "p3_diagonal_witness"), None)
    assert wit == (None if witness is None else {"name": "p3_diagonal_witness", **witness})


# qccr d=2 with ‖T‖ = |q| a hair past 1 or 1/2: the float spectra sit within
# 10⁻¹¹ of the boundary, and only the exact pivots see which side it is on.
Q_PAST_ONE = "1000000000001/1000000000000"


@pytest.mark.parametrize("q", [Q_PAST_ONE, "-" + Q_PAST_ONE])
def test_positivity_report_just_past_norm_one(q):
    rep = positivity_report(make_preset("qccr", 2, q=q).tensor, 3)
    assert not _check(rep, "p_2")["is_psd"] and not _check(rep, "p_3")["is_psd"]
    assert not _check(rep, "sufficient_criteria")["any_fires"]
    assert _check(rep, "bounds") == {"name": "bounds"}
    if q == Q_PAST_ONE:
        wit = _check(rep, "p3_diagonal_witness")
        assert wit["value"] == "-1000000000000000000000000/2000000000001"
        assert wit["basis_word"] == [1, 2, 1] and wit["negative"]


def test_positivity_report_just_past_norm_half():
    crit = _check(positivity_report(
        make_preset("qccr", 2, q="500000000001/1000000000000").tensor, 2), "sufficient_criteria")
    assert not crit["norm_le_half"] and crit["braid_and_norm_le_one"]


def test_positivity_report_at_norm_one():
    rep = positivity_report(make_preset("qccr", 2, q="1").tensor, 4)
    assert all(_check(rep, f"p_{n}")["is_psd"] for n in (2, 3, 4))
    assert _check(rep, "sufficient_criteria")["braid_and_norm_le_one"]
    bounds = _check(rep, "bounds")
    assert "operator_bound" not in bounds and "collective_bound" not in bounds


def test_positivity_report_bound_past_float_resolution():
    # ‖T‖ = 1 − 10⁻²⁰ < 1 exactly, but the float spectrum reads 1.0
    q = "99999999999999999999/100000000000000000000"
    rep = positivity_report(make_preset("qccr", 2, q=q).tensor, 2)
    assert _check(rep, "t_spectrum")["norm"] == 1.0
    bounds = _check(rep, "bounds")
    assert bounds["operator_bound"] == bounds["collective_bound"] == float("inf")


def test_positivity_report_requires_hermitian():
    with pytest.raises(ValueError):
        positivity_report(CoeffTensor(2, {(1, 2, 1, 2): Scalar(1)}), 2)


def test_cuntz_stability_predicate():
    assert cuntz_stability_predicate(make_preset("qccr", 2, q="2/5").tensor)
    assert not cuntz_stability_predicate(make_preset("qccr", 2, q="21/50").tensor)
    assert cuntz_stability_predicate(make_preset("tlw", 2, q="3/10").tensor)
    assert cuntz_stability_predicate(CoeffTensor(2))
