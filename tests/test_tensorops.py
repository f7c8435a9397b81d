"""Tensor-power operators, the level Gram recursion, positivity reports."""

import pytest

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


def test_positivity_report_requires_hermitian():
    with pytest.raises(ValueError):
        positivity_report(CoeffTensor(2, {(1, 2, 1, 2): Scalar(1)}), 2)


def test_cuntz_stability_predicate():
    assert cuntz_stability_predicate(make_preset("qccr", 2, q="2/5").tensor)
    assert not cuntz_stability_predicate(make_preset("qccr", 2, q="21/50").tensor)
    assert cuntz_stability_predicate(make_preset("tlw", 2, q="3/10").tensor)
    assert cuntz_stability_predicate(CoeffTensor(2))
