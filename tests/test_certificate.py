"""Positive definite levels certified by a float Cholesky checked in integers.

The exact LDL* (``linalg._psd_rank_over``) is the oracle: every level the
certificate decides must get the verdict the LDL* gives, and every certificate
that is corrupted, or cannot be made, must leave the level to the LDL*."""

from math import floor, inf, log2

import numpy as np
import pytest

from test_catalog import REPRESENTATIVES
from test_tensorops import _COMPLEX_Q_IJ, _hermitian_large_prime_tensor
from wickalg import Matrix, kms_series, linalg, make_preset, p_n, positivity_report, rational, tensorops


def _level(T, n):
    *_, (dim, rows, den) = tensorops._gram_rows(T, n)
    return dim, rows, den


QCCR = make_preset("qccr", 2, q="1/2").tensor


def _cholesky_int(rows, den, dim, s):
    """rint(L·2^s) for LLᵀ = a − cI as _certify_pd takes it, by numpy's unblocked Cholesky."""
    a = linalg._float_view(rows, (dim, dim), den)
    lam = float(np.linalg.eigvalsh(a)[0])
    return np.rint(np.linalg.cholesky(a - 2.0 ** (floor(log2(lam)) - 1) * np.eye(dim)) * 2.0**s)


def _pd_check_reference(rows, den, l, s):
    """The integer check of _pd_check in Python ints, row by row, with no float product."""
    L = [[int(x) for x in row] for row in l.tolist()]
    if any(L[i][i] <= 0 for i in range(len(L))):
        return False
    for i, row in enumerate(rows):
        m = [(row.get(j, 0) << 2 * s) // den - sum(x * y for x, y in zip(L[i], L[j])) for j in range(len(L))]
        if not m[i] > sum(abs(x) + (j in row) for j, x in enumerate(m) if j != i):
            return False
    return True


def test_pd_check_equals_the_integer_reference_in_one_float_product_and_in_two_limbs():
    # P_5 of qccr q=1/2 (32 × 32, max entry 9.5): s ≤ 24 keeps max ‖l_i‖² below 2^52 (one
    # float product), s = 25 … 28 takes the two-limb split, and a small s fails the check.
    dim, rows, den = _level(QCCR, 5)
    limbs, verdicts = set(), set()
    for s in range(2, 29):
        l = _cholesky_int(rows, den, dim, s)
        limbs.add(float(np.einsum("ij,ij->i", l, l).max()) >= 2.0**52)
        want = _pd_check_reference(rows, den, l, s)
        assert linalg._pd_check(rows, den, l.copy(), s) == want, s
        verdicts.add(want)
        bad = l.copy()
        bad[dim - 1, dim - 1] *= 2
        assert not linalg._pd_check(rows, den, bad, s) and not _pd_check_reference(rows, den, bad, s)
    assert limbs == verdicts == {False, True}


def test_certificate_blocks_span_rows_of_256(monkeypatch):
    # P_9 (512 × 512) takes two row blocks in the Cholesky and in the check: a corrupted
    # entry of the second block is seen, and the blocked L matches numpy's to a unit or two.
    dim, rows, den = _level(QCCR, 9)
    a = linalg._float_view(rows, (dim, dim), den)
    lam = float(np.linalg.eigvalsh(a)[0])
    got, check = [], linalg._pd_check
    monkeypatch.setattr(linalg, "_pd_check", lambda rows, den, l, s: got.append((l.copy(), s)) or check(rows, den, l, s))
    assert linalg._certify_pd(rows, den, a, lam)
    (l, s), = got
    assert np.abs(l - _cholesky_int(rows, den, dim, s)).max() <= 2
    bad = l.copy()
    bad[300, 300] *= 2
    assert not check(rows, den, bad, s)


def _double_last_pivot(rows, den, l, s):
    l[-1, -1] *= 2
    return rows, den, l, s


def _wrong_r_entry(rows, den, l, s):
    # N_rc grows by N_rr, so R_rc by 2^{2s}·P_rr ≥ 2^{2s}·2c: row r is no longer dominant
    r, c = next((r, c) for r, row in enumerate(rows) for c in row if c != r)
    rows = [dict(row) for row in rows]
    rows[r][c] += rows[r][r]
    return rows, den, l, s


def _overflowing_limb(rows, den, l, s):
    l[-1, 0] = 2.0**31  # ‖l_i‖² ≥ 2^62: no product of limbs is exact in int64
    return rows, den, l, s


@pytest.mark.parametrize("corrupt", ["perturbed L_int", "c above lambda_min", "wrong R entry", "overflowing limb"])
def test_corrupted_certificates_fall_back_to_the_exact_verdict(monkeypatch, corrupt):
    dim, rows, den = _level(QCCR, 5)
    assert tensorops._summary(rows, den, dim).decided_by == "certified"
    calls = []
    if corrupt == "c above lambda_min":  # c ≥ 2·λ_min: the float Cholesky of a − cI fails
        certify = tensorops._certify_pd
        monkeypatch.setattr(tensorops, "_certify_pd",
                            lambda rows, den, a, lam: calls.append(lam) or certify(rows, den, a, 8 * lam))
    else:
        change = {"perturbed L_int": _double_last_pivot, "wrong R entry": _wrong_r_entry,
                  "overflowing limb": _overflowing_limb}[corrupt]
        check = linalg._pd_check
        monkeypatch.setattr(linalg, "_pd_check", lambda *args: calls.append(1) or check(*change(*args)))
    s = tensorops._summary(rows, den, dim)
    assert calls and s.decided_by == "exact"
    assert (s.is_psd, s.rank) == linalg._psd_rank_over(rows, den) == (True, dim)


def test_singular_indefinite_and_complex_levels_fall_back():
    # λ_min ≤ 0 or a complex view decides nothing; a float λ_min > 0 on a singular level
    # cannot pass the integer check, which only a positive definite matrix passes.
    dim, rows, den = _level(make_preset("twisted_ccr", 2, mu="1/2").tensor, 6)
    a = linalg._float_view(rows, (dim, dim), den)
    assert not linalg._certify_pd(rows, den, a.copy(), 1e-15)
    assert not linalg._certify_pd(rows, den, a.copy(), 0.0)
    dim, rows, den = _level(make_preset("q_ij", 2, **_COMPLEX_Q_IJ).tensor, 5)
    a = linalg._float_view(rows, (dim, dim), den)
    assert a.dtype.kind == "c" and not linalg._certify_pd(rows, den, a, 1.0)


def test_kms_series_and_matrix_psd_rank_keep_the_ldl(monkeypatch):
    def refused(*args):
        raise AssertionError("the certificate was tried")

    for mod in (linalg, tensorops):
        monkeypatch.setattr(mod, "_certify_pd", refused)
    monkeypatch.setattr(linalg, "_pd_check", refused)
    assert kms_series(QCCR, rational(1, 3), 6)["ranks"] == [2**n for n in range(7)]
    assert p_n(QCCR, 6).psd_rank() == (True, 64)
    assert Matrix([[2, 1], [1, 2]]).psd_rank() == (True, 2)


# Every catalog preset and the test tensors, up to P_8 at d = 2 and P_5 at d = 3; the
# tensors over the large primes only to P_6 and P_5, where their LDL* takes seconds (the
# Hermitian large-prime P_5 is complex, so it keeps its exact verdict).
AGREEMENT_CASES = [(name, T, 8 if T.d == 2 else 5) for name, T in (
    (name, make_preset(name, d, **params).tensor) for name, d, params in REPRESENTATIVES)] + [
    ("q_ij-large-primes", make_preset("q_ij", 2, **_COMPLEX_Q_IJ).tensor, 6),
    ("large-primes", _hermitian_large_prime_tensor(), 5),
]


@pytest.mark.parametrize("T, n_max", [c[1:] for c in AGREEMENT_CASES], ids=[c[0] for c in AGREEMENT_CASES])
def test_reports_equal_the_exact_path_apart_from_decided_by(monkeypatch, T, n_max):
    rep, least = positivity_report(T, n_max).checks, tensorops.CERTIFY_MIN_DIM
    monkeypatch.setattr(tensorops, "CERTIFY_MIN_DIM", inf)
    exact = positivity_report(T, n_max).checks

    def strip(checks):
        return [{k: v.hex() if type(v) is float else v for k, v in c.items() if k != "decided_by"} for c in checks]

    assert strip(rep) == strip(exact)
    assert {c["decided_by"] for c in exact if "decided_by" in c} == {"exact"}
    certified = [c for c in rep if c.get("decided_by") == "certified"]
    assert all(c["is_psd"] and c["rank"] == c["dim"] >= least for c in certified)


def test_q_nine_tenths_reaches_p_10():
    # Every level of qccr at |q| < 1 is positive definite (Bożejko–Speicher).  At q = 9/10 the
    # certificate holds on the first levels it is tried on; from P_8 on (λ_min < 10⁻⁵, max entry
    # above 10⁴) it needs more bits than int64 gives, and the LDL* decides.
    rep = positivity_report(make_preset("qccr", 2, q="9/10").tensor, 10)
    levels = [c for c in rep.checks if c["name"].startswith("p_")]
    assert [(c["n"], c["is_psd"], c["rank"]) for c in levels] == [(n, True, 2**n) for n in range(2, 11)]
    by = [c["decided_by"] for c in levels]
    assert by[:3] == ["exact"] * 3 and by[3] == "certified" and by[6:] == ["exact"] * 3
