"""The benchmark's three workloads: seeded op lists with exact answer checks.

Each workload builder takes a ``random.Random`` and returns a list of
:class:`Op`.  An op is one user-level call into ``wickalg`` (a positivity
report, one normal ordering, one CLI invocation, ...).  Its ``check`` returns
``None`` for a correct answer and a one-line reason otherwise; ``corrupts``
turn a correct answer into wrong ones, which ``selftest.py`` feeds back to
``check`` to show that every checker notices.

Every op builds its relation system inside ``run``, so a tensor's rewrite
memo starts empty on every call, as it does for each CLI invocation.  The
expected answers come from facts the acceptance tests pin (rank series,
PSD windows, the bp_ce witness, the form-dimension laws, ...) or from an
oracle computed once during set-up.

Library functions are looked up on the module at call time (``W.p_n``), so
the traced run sees the wrappers that ``tracing.py`` installs.
"""

from __future__ import annotations

import contextlib
import copy
import io
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, List, Optional

import wickalg as W
from wickalg import cli as W_cli
from wickalg import reports as W_reports
from wickalg.algebra import adjoint_word, word_str

__all__ = ["Op", "WORKLOADS", "p_column"]


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    corrupts: List[Callable[[object], object]] = field(default_factory=list)


# -- seeded inputs ---------------------------------------------------------------


def draw_rat(rng, lo, hi, den: int) -> Fraction:
    """A seeded nonzero rational p/den in [lo, hi].

    Coefficient bit length drives the cost of exact arithmetic.  Each op slot
    has its own fixed denominator, the slots of a workload use varied ones,
    and the numerator is drawn among those of the largest bit length the
    window allows: the seed changes the values and signs, not the cost
    profile of a run.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    choices = [p for p in range(int(lo * den) - 1, int(hi * den) + 2)
               if p and lo <= Fraction(p, den) <= hi]
    bits = max(abs(p).bit_length() for p in choices)
    return Fraction(rng.choice([p for p in choices if abs(p).bit_length() == bits]), den)


def balanced_word(rng, d: int, k: int) -> tuple:
    """A seeded arrangement of the letter multiset {1, 2, ..., d, 1, 2, ...}
    of length k.  Fixing the letter content keeps the rewrite cost of a word
    pair within a narrow band (fully random words vary by 100x), and makes
    P_k[I, J] nonzero for the content-preserving families."""
    base = [(i % d) + 1 for i in range(k)]
    rng.shuffle(base)
    return tuple(base)


# -- small helpers for checks --------------------------------------------------------


def _checks(report) -> dict:
    return {c["name"]: c for c in report.checks}


def _scalar_eq(x, value: Fraction) -> bool:
    return not x.im and x.re == value


def _frac(obj) -> Fraction:
    """A JSON scalar {"re": "p/q", "im": "0"} as a Fraction (real part only
    when the imaginary part is zero; raises otherwise)."""
    if Fraction(obj["im"]) != 0:
        raise ValueError(f"unexpected complex value {obj}")
    return Fraction(obj["re"])


def _bump_matrix(m):
    out = m.copy()
    out.data[0][0] = out.data[0][0] + 1
    return out


def _bump_check(name: str, key: str, fn):
    def corrupt(report):
        bad = copy.deepcopy(report)
        for c in bad.checks:
            if c["name"] == name:
                c[key] = fn(c[key])
        return bad

    return corrupt


# -- the P_k column oracle ---------------------------------------------------------


def _t_columns(T) -> dict:
    """(k, l) -> [(i, j, c)]: the two-slot operator T sends |k l> to
    sum c |i j> (tensorops.t_matrix puts entry (i, k, l, j) at row (i, j),
    column (k, l))."""
    cols: dict = {}
    for (i, k, l, j), c in T.entries.items():
        cols.setdefault((k, l), []).append((i, j, c))
    return cols


def _apply_slot(vec: dict, cols: dict, slot: int) -> dict:
    """T acting on tensor slots (slot, slot + 1) of a sparse vector."""
    out: dict = {}
    for w, c in vec.items():
        for (i, j, t) in cols.get((w[slot - 1], w[slot]), ()):
            nw = w[: slot - 1] + (i, j) + w[slot + 1:]
            v = out.get(nw)
            out[nw] = t * c if v is None else v + t * c
    return {w: c for w, c in out.items() if c}


def _apply_p(vec: dict, cols: dict, k: int) -> dict:
    """P_k vec, by P_k = (I ⊗ P_{k-1}) R_k with R_k = I + T_1 + T_1T_2 + ...,
    evaluated as v + T_1(v + T_2(v + ...)) on sparse vectors."""
    if k <= 1 or not vec:
        return dict(vec)
    u = dict(vec)
    for slot in range(k - 1, 0, -1):
        t = _apply_slot(u, cols, slot)
        u = dict(vec)
        for w, c in t.items():
            v = u.get(w)
            u[w] = c if v is None else v + c
    by_head: dict = {}
    for w, c in u.items():
        if c:
            by_head.setdefault(w[0], {})[w[1:]] = c
    out: dict = {}
    for a, sub in by_head.items():
        for w, c in _apply_p(sub, cols, k - 1).items():
            out[(a,) + w] = c
    return out


def p_column(T, J: tuple) -> dict:
    """Column J of the level Gram operator P_{len J}, as {word I: P[I, J]}.

    An independent sparse-vector evaluation of the paper's recursion that
    never builds the d^k x d^k matrix.
    """
    return _apply_p({tuple(J): W.Scalar(1)}, _t_columns(T), len(J))


# ======================================================================================
# levels: P_n builds, exact rank, spectra, braid permutation sums
# ======================================================================================


def _positivity_op(family, d, params, nmax, criterion, rank_of) -> Op:
    def run():
        T = W.make_preset(family, d, **params).tensor
        return W.positivity_report(T, nmax)

    def check(report):
        c = _checks(report)
        if not c["sufficient_criteria"][criterion]:
            return f"criterion {criterion} did not fire"
        for n in range(2, nmax + 1):
            got = c[f"p_{n}"]
            if got["dim"] != d**n:
                return f"P_{n} has dim {got['dim']}"
            if not got["is_psd"]:
                return f"P_{n} reported not PSD inside the window"
            if got["rank"] != rank_of(n):
                return f"rank P_{n} = {got['rank']}, expected {rank_of(n)}"
        return None

    return Op(
        f"positivity {family} d={d} {params} nmax={nmax}",
        run,
        check,
        [_bump_check(f"p_{nmax}", "rank", lambda r: r + 1),
         _bump_check(f"p_{nmax}", "is_psd", lambda b: not b)],
    )


def _rank_series_op(family, d, params, nmax, expected, lam) -> Op:
    def run():
        T = W.make_preset(family, d, **params).tensor
        return W.kms_series(T, W.Scalar(lam), nmax)

    def check(series):
        if series["ranks"] != expected:
            return f"ranks {series['ranks']} != {expected}"
        acc = Fraction(0)
        for n, r in enumerate(expected):
            acc += lam**n * r
            if not _scalar_eq(series["partial_sums"][n], acc):
                return f"partial sum {n} is {series['partial_sums'][n]}"
        return None

    def bump_rank(series):
        return {**series, "ranks": series["ranks"][:-1] + [series["ranks"][-1] + 1]}

    return Op(f"rank series {family} d={d} {params} nmax={nmax}", run, check, [bump_rank])


def _witness_op(lam: int, eps: Fraction) -> Op:
    expected = Fraction(1, 1 + lam) + eps  # the diagonal of (I+T_2)^-1 + T_1

    def run():
        T = W.make_preset("bp_ce", 2, lam=str(lam), eps=str(eps)).tensor
        return W.positivity_report(T, 3)

    def check(report):
        c = _checks(report)
        if c["p_3"]["is_psd"]:
            return "P_3 reported PSD"
        wit = c.get("p3_diagonal_witness")
        if wit is None or Fraction(wit["value"]) != expected or not wit["negative"]:
            return f"witness {wit} != {expected}"
        return None

    return Op(
        f"witness bp_ce lam={lam} eps={eps}",
        run,
        check,
        [_bump_check("p3_diagonal_witness", "value", lambda v: str(Fraction(v) - 1)),
         _bump_check("p_3", "is_psd", lambda b: not b)],
    )


def _no_criterion_op() -> Op:
    def run():
        return W.positivity_report(W.make_preset("bs_ce", tau="3/5").tensor, 3)

    def check(report):
        return "a sufficient criterion fired" if _checks(report)["sufficient_criteria"]["any_fires"] else None

    return Op("criteria bs_ce tau=3/5", run, check,
              [_bump_check("sufficient_criteria", "any_fires", lambda b: not b)])


def _perm_sum_op(family, d, params, n) -> Op:
    expected = W.p_n(W.make_preset(family, d, **params).tensor, n)

    def run():
        return W.p_n_by_permutations(W.make_preset(family, d, **params).tensor, n)

    def check(m):
        return None if m == expected else "permutation sum differs from P_n"

    return Op(f"permutation sum {family} d={d} {params} n={n}", run, check, [_bump_matrix])


def _braid_op(family, d, params, expected: bool) -> Op:
    def run():
        return W.braid_check(W.make_preset(family, d, **params).tensor)

    def check(b):
        return None if b == expected else f"braid_check returned {b}"

    return Op(f"braid {family} d={d} {params}", run, check, [lambda b: not b])


def _level2_op(family, d, params) -> Op:
    T = W.make_preset(family, d, **params).tensor
    dd = T.d
    expected = {(r, r): Fraction(1) for r in range(dd * dd)}
    expected_im: dict = {}
    for (i, k, l, j), c in T.entries.items():
        rc = ((i - 1) * dd + (j - 1), (k - 1) * dd + (l - 1))
        expected[rc] = expected.get(rc, Fraction(0)) + c.re
        expected_im[rc] = c.im

    def run():
        return W.p_n(W.make_preset(family, d, **params).tensor, 2)

    def check(m):
        for r in range(dd * dd):
            for col in range(dd * dd):
                x = m.data[r][col]
                if x.re != expected.get((r, col), 0) or x.im != expected_im.get((r, col), 0):
                    return f"P_2[{r},{col}] = {x} differs from (I + T)"
        return None

    return Op(f"P_2 = I + T {family} d={dd} {params}", run, check, [_bump_matrix])


def levels(rng) -> List[Op]:
    F = Fraction
    q6 = draw_rat(rng, F(-9, 10), F(9, 10), 11)
    q5 = draw_rat(rng, F(-9, 10), F(9, 10), 7)
    tlw2 = draw_rat(rng, F(-1, 4), F(1, 4), 13)
    tlw3 = draw_rat(rng, F(-1, 6), F(1, 6), 13)
    mu = {den: draw_rat(rng, F(1, 10), F(9, 10), den) for den in (3, 5, 7, 11, 13)}
    lam = draw_rat(rng, F(1, 5), F(1, 2), 11)
    bp_lam = rng.randint(8, 15)
    bp_eps = -F(1, rng.randint(2, bp_lam))

    def full(d):
        return lambda n: d**n

    # The largest levels are P_6 at d=2 (rank and eigvalsh of 64x64) and P_4
    # at d=3 with full rank 81; a pass stays near 3 s so that a run holds
    # enough passes for best-of timing (see worker.py).
    braided = "braid_and_norm_le_one"
    ops = [
        _positivity_op("qccr", 2, {"q": str(q6)}, 6, braided, full(2)),
        _positivity_op("tlw", 3, {"q": str(tlw3)}, 4, "norm_le_half", full(3)),
        _positivity_op("twisted_car", 2, {"mu": str(mu[3])}, 6, braided, lambda n: comb(2, n)),
        _positivity_op("qccr", 2, {"q": str(q5)}, 4, braided, full(2)),
        _positivity_op("tlw", 2, {"q": str(tlw2)}, 5, "norm_le_half", full(2)),
        _positivity_op("twisted_ccr", 2, {"mu": str(mu[5])}, 5, braided, lambda n: n + 1),
        _positivity_op("degenerate", 2, {}, 5, braided, lambda n: 0),
        _positivity_op("twisted_ccr", 3, {"mu": str(mu[11])}, 3, braided, lambda n: comb(n + 2, n)),
        _positivity_op("twisted_car", 3, {"mu": str(mu[13])}, 3, braided, lambda n: comb(3, n)),
        _positivity_op("degenerate", 3, {}, 3, braided, lambda n: 0),
        _rank_series_op("qccr", 3, {"q": "-1"}, 4, [1, 3, 3, 1, 0], lam),
        _rank_series_op("twisted_ccr", 2, {"mu": str(mu[11])}, 4, [1, 2, 3, 4, 5], lam),
        _rank_series_op("twisted_car", 3, {"mu": str(mu[5])}, 3, [1, 3, 3, 1], lam),
        _witness_op(12, F(-1, 10)),
        _witness_op(bp_lam, bp_eps),
        _no_criterion_op(),
        _perm_sum_op("qccr", 2, {"q": str(q6)}, 4),
        _perm_sum_op("qccr", 2, {"q": str(q5)}, 4),
        _perm_sum_op("twisted_ccr", 2, {"mu": str(mu[5])}, 4),
        _perm_sum_op("twisted_car", 2, {"mu": str(mu[7])}, 4),
        _perm_sum_op("degenerate", 2, {}, 4),
        _perm_sum_op("q_ij", 2, _q_ij_params(rng), 4),
        _braid_op("tlw", 2, {"q": str(tlw2)}, False),
        _braid_op("twisted_car", 3, {"mu": str(mu[13])}, True),
    ]
    for family, d, params in [
        ("qccr", 2, {"q": str(q6)}),
        ("tlw", 3, {"q": str(tlw3)}),
        ("twisted_ccr", 3, {"mu": str(mu[11])}),
        ("twisted_car", 3, {"mu": str(mu[13])}),
        ("snu2", None, {"nu": str(mu[3])}),
        ("q_ij", 2, _q_ij_params(rng)),
        ("degenerate", 3, {}),
        ("usym", 2, {"q": str(q5), "lam": str(lam)}),
        ("aklt", None, {"lam": str(lam)}),
        ("bs_ce", None, {"tau": "3/5"}),
        ("bp_ce", 2, {"lam": str(bp_lam), "eps": str(bp_eps)}),
    ]:
        ops.append(_level2_op(family, d, params))
    rng.shuffle(ops)
    return ops


def _q_ij_params(rng) -> dict:
    """Hermitian q_ij at d = 2 with a complex off-diagonal pair."""
    lo, hi = Fraction(-3, 4), Fraction(3, 4)
    re, im = draw_rat(rng, lo, hi, 5), draw_rat(rng, lo, hi, 7)
    return {"q11": str(draw_rat(rng, lo, hi, 3)), "q22": str(draw_rat(rng, lo, hi, 11)),
            "q12": str(re), "q12_im": str(im), "q21": str(re), "q21_im": str(-im)}


# ======================================================================================
# words: cold normal ordering, Fock Gram matrices, annihilator chains, identities
# ======================================================================================


def _word_op(family, d, params, T_oracle, I, J) -> Op:
    w = adjoint_word(I) + J
    entry = p_column(T_oracle, J).get(I)
    expected = (Fraction(0), Fraction(0)) if entry is None else (entry.re, entry.im)

    def run():
        T = W.make_preset(family, d, **params).tensor
        return W.wick_order(W.Polynomial.monomial(w), T)

    def check(nf):
        for v in nf.terms:
            if not W.is_normal(v):
                return f"word {v} is not normal"
        c = nf.constant_term
        if (c.re, c.im) != expected:
            return f"constant term {c} != P_k[I,J] = {expected}"
        return None

    def bump_constant(nf):
        return nf + W.Polynomial.unit()

    def add_redex(nf):
        return nf + W.Polynomial.monomial((-1, 1))

    return Op(f"normal order {family} k={len(I)} {word_str(w)}", run, check,
              [bump_constant, add_redex])


def _gram_op(family, d, params, n) -> Op:
    T0 = W.make_preset(family, d, **params).tensor
    expected = W.p_n(T0, n)
    words = [W.index_to_word(i, T0.d, n) for i in range(T0.d**n)]

    def run():
        T = W.make_preset(family, d, **params).tensor
        return W.gram_matrix(words, W.CoherentParam.zero(T.d), T)

    def check(g):
        return None if g.data == expected.data else "Fock Gram matrix differs from P_n"

    return Op(f"gram {family} d={d} {params} n={n}", run, check, [_bump_matrix])


def _annihilator_op(family, d, params, T_oracle, I, J) -> Op:
    entry = p_column(T_oracle, J).get(I)
    expected = (Fraction(0), Fraction(0)) if entry is None else (entry.re, entry.im)

    def run():
        T = W.make_preset(family, d, **params).tensor
        fock = W.CoherentParam.zero(d)
        y = W.Polynomial.monomial(J)
        for letter in I:
            y = W.annihilator_apply(letter, y, fock, T)
        return y

    def check(y):
        c = y.constant_term
        return None if (c.re, c.im) == expected else f"vacuum part {c} != {expected}"

    return Op(f"annihilators {family} {I} on {J}", run, check,
              [lambda y: y + W.Polynomial.unit()])


def _su2_identity_ops(nu: Fraction) -> List[Op]:
    """The quantum SU(2) defect identities C†C = R(1-R) and
    CC† = -nu^2 R(1 + nu^2 R), and one deliberately false identity."""
    P = W.Polynomial
    nu_s = W.Scalar(nu)
    alpha, gamma = P.adjoint_generator(1), P.adjoint_generator(2)
    C = alpha * gamma - (gamma * alpha).scale(nu_s)
    R = P.unit() - alpha.adjoint() * alpha - gamma.adjoint() * gamma
    cases = [
        ("C*C = R(1-R)", C.adjoint() * C, R * (P.unit() - R), True),
        ("CC* = -nu^2 R(1+nu^2 R)", C * C.adjoint(),
         (R * (P.unit() + R.scale(nu_s * nu_s))).scale(-(nu_s * nu_s)), True),
        ("C*C = R", C.adjoint() * C, R, False),
    ]
    ops = []
    for label, lhs, rhs, truth in cases:
        def run(lhs=lhs, rhs=rhs):
            return W.verify_identity(lhs, rhs, W.make_preset("snu2", nu=str(nu)).tensor)

        def check(b, truth=truth):
            return None if b is truth else f"verify_identity returned {b}"

        ops.append(Op(f"identity snu2 nu={nu} {label}", run, check, [lambda b: not b]))
    return ops


# (family, d, parameter name, window, denominator, {k: words per pass}); d=None
# means the family's own dimension.  Every word gets its own parameter.  At
# d=3 the words stop at k=5 and aklt at k=2: a twisted k=6 word costs 0.3-1 s
# and an aklt k=3 word 0.07-0.3 s depending on its arrangement, which would
# put seed-dependent words among the Gram matrices that hold the tail.
WORD_FAMILIES = [
    ("qccr", 2, "q", (Fraction(-9, 10), Fraction(9, 10)), 11, {3: 6, 4: 8, 5: 12, 6: 14}),
    ("snu2", None, "nu", (Fraction(1, 10), Fraction(9, 10)), 7, {3: 6, 4: 8, 5: 12, 6: 14}),
    ("twisted_ccr", 3, "mu", (Fraction(1, 10), Fraction(9, 10)), 5, {3: 6, 4: 10, 5: 12}),
    ("twisted_car", 3, "mu", (Fraction(1, 10), Fraction(9, 10)), 13, {3: 6, 4: 10, 5: 12}),
    ("aklt", None, "lam", (Fraction(1, 2), Fraction(19, 10)), 3, {2: 14}),
]

# Fock Gram matrices over all words of length 3 at d=3, two parameters per
# family: the heaviest ops of the workload (they hold its tail), with costs
# that depend on the parameter only.
GRAM_FAMILIES = [
    ("tlw", 3, "q", (Fraction(-1, 6), Fraction(1, 6)), (7, 13)),
    ("twisted_car", 3, "mu", (Fraction(1, 10), Fraction(9, 10)), (11, 3)),
    ("twisted_ccr", 3, "mu", (Fraction(1, 10), Fraction(9, 10)), (3, 7)),
    ("qccr", 3, "q", (Fraction(-9, 10), Fraction(9, 10)), (5, 11)),
    ("aklt", None, "lam", (Fraction(1, 2), Fraction(19, 10)), (13, 5)),
]


def words(rng) -> List[Op]:
    ops: List[Op] = []
    for family, d, pname, (lo, hi), den, counts in WORD_FAMILIES:
        for k, count in counts.items():
            for _ in range(count):
                params = {pname: str(draw_rat(rng, lo, hi, den))}
                T = W.make_preset(family, d, **params).tensor
                I, J = balanced_word(rng, T.d, k), balanced_word(rng, T.d, k)
                ops.append(_word_op(family, d, params, T, I, J))
    for family, pname, den in (("twisted_ccr", "mu", 7), ("twisted_car", "mu", 11)):
        for _ in range(6):
            params = {pname: str(draw_rat(rng, Fraction(1, 10), Fraction(9, 10), den))}
            T = W.make_preset(family, 3, **params).tensor
            I, J = balanced_word(rng, 3, 4), balanced_word(rng, 3, 4)
            ops.append(_annihilator_op(family, 3, params, T, I, J))
    for family, d, pname, (lo, hi), dens in GRAM_FAMILIES:
        for den in dens:
            ops.append(_gram_op(family, d, {pname: str(draw_rat(rng, lo, hi, den))}, 3))
    ops += _su2_identity_ops(draw_rat(rng, Fraction(1, 10), Fraction(9, 10), 11))
    rng.shuffle(ops)
    return ops


# ======================================================================================
# solve: in-process CLI calls with JSON reports (KMS systems, ideals, forms, identity)
# ======================================================================================


@dataclass
class CliResult:
    code: int
    report: object
    stdout: str


def _cli(argv: list, out_path: str) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = W_cli.main(argv + ["--json", out_path])
    return CliResult(code, W_reports.load_report(out_path), buf.getvalue())


def _report_problem(res: CliResult, tool: str, code: int) -> Optional[str]:
    if res.code != code:
        return f"exit code {res.code}, expected {code}"
    if res.report.tool != tool:
        return f"report tool {res.report.tool!r}"
    if res.report.schema_version != W_reports.SCHEMA_VERSION:
        return f"report schema {res.report.schema_version}"
    return None


def _preset_args(family, d, params) -> list:
    args = ["--preset", family]
    if d is not None:
        args += ["--param", f"d={d}"]
    for k, v in params.items():
        args += ["--param", f"{k}={v}"]
    return args


def _with_code(res: CliResult, code: int) -> CliResult:
    return CliResult(code, res.report, res.stdout)


def _kms_pair_op(tmp, tag, family, d, params, lam, X, i, nmax, ranks) -> Op:
    """kappa(a_i X) = lam * kappa(X a_i), each side one `wickalg kms` call."""
    base = ["kms"] + _preset_args(family, d, params) + ["--nmax", str(nmax), "--lam", str(lam)]
    left, right = f"a{i} {word_str(X)}", f"{word_str(X)} a{i}"

    def run():
        return (_cli(base + [left], os.path.join(tmp, f"{tag}-l.json")),
                _cli(base + [right], os.path.join(tmp, f"{tag}-r.json")))

    def check(pair):
        for res in pair:
            bad = _report_problem(res, "kms", 0)
            if bad:
                return bad
            if _checks(res.report)["series"]["ranks"] != ranks:
                return f"rank series {_checks(res.report)['series']['ranks']} != {ranks}"
        kl = _frac(_checks(pair[0].report)["evaluate"]["value"])
        kr = _frac(_checks(pair[1].report)["evaluate"]["value"])
        return None if kl == lam * kr else f"kappa(kX) = {kl} != lam * kappa(Xk) = {lam * kr}"

    def bump_value(pair):
        bad = copy.deepcopy(pair[0].report)
        ev = _checks(bad)["evaluate"]
        ev["value"] = {"re": str(_frac(ev["value"]) + 1), "im": "0"}
        return (CliResult(0, bad, pair[0].stdout), pair[1])

    return Op(f"kms {family} d={d} {params} lam={lam} X={word_str(X)} k=a{i}", run, check,
              [bump_value, lambda pair: (_with_code(pair[0], 1), pair[1])])


def _kms_word(rng, d: int, n: int, i: int) -> tuple:
    """A seeded word X with n generators and n+1 daggers whose dagger content
    is its generator content plus {i}, so that a_i X is gauge balanced and
    its KMS value is not forced to vanish."""
    gens = [rng.randint(1, d) for _ in range(n)]
    letters = gens + [-c for c in gens + [i]]
    rng.shuffle(letters)
    return tuple(letters)


def _ideal_op(tmp, tag, family, d, params, p_rank, quadratic, wick) -> Op:
    argv = ["ideal-check"] + _preset_args(family, d, params)

    def run():
        return _cli(argv, os.path.join(tmp, f"{tag}.json"))

    def check(res):
        bad = _report_problem(res, "ideal-check", 0)
        if bad:
            return bad
        c = _checks(res.report)
        if c["eigenprojection"]["rank"] != p_rank:
            return f"-1 eigenprojection rank {c['eigenprojection']['rank']} != {p_rank}"
        got = {"linear": c["quadratic_ideal"]["linear"], "quadratic": c["quadratic_ideal"]["quadratic"]}
        if got != quadratic:
            return f"quadratic ideal conditions {got} != {quadratic}"
        if wick is None:
            return "unexpected wick_ideal check" if "wick_ideal" in c else None
        return None if c["wick_ideal"]["holds"] is wick else "wick ideal answer differs"

    return Op(f"ideal-check {family} d={d} {params}", run, check,
              [_cli_bump("eigenprojection", "rank", lambda r: r + 1),
               _cli_bump("quadratic_ideal", "quadratic", lambda b: not b)])


def _cli_bump(name, key, fn):
    bump = _bump_check(name, key, fn)
    return lambda res: CliResult(res.code, bump(res.report), res.stdout)


def _forms_op(tmp, tag, family, d, params, pmax, law, star) -> Op:
    argv = ["forms"] + _preset_args(family, d, params) + ["--nmax", str(pmax)]
    expected = [law(p) for p in range(pmax + 1)]

    def run():
        return _cli(argv, os.path.join(tmp, f"{tag}.json"))

    def check(res):
        bad = _report_problem(res, "forms", 0)
        if bad:
            return bad
        c = _checks(res.report)
        if c["form_dims"]["dims"] != expected:
            return f"form dimensions {c['form_dims']['dims']} != {expected}"
        if star is not None and c["star_algebra"]["exists"] is not star:
            return "differential *-algebra answer differs"
        return None

    return Op(f"forms {family} d={d} {params} p<={pmax}", run, check,
              [_cli_bump("form_dims", "dims", lambda ds: ds[:-1] + [ds[-1] + 1])])


def _relation_rhs(T, i: int, j: int, shift: int = 0) -> str:
    """The right side of a_i* a_j = delta_ij + sum T_ij^kl a_l a_k*, as text."""
    out = "0"
    const = (1 if i == j else 0) + shift
    if const:
        out += f" + {const}"
    for (k, l, c) in T.row(i, j):
        v = c.re
        out += f" {'-' if v < 0 else '+'} {abs(v)} a{l} a{k}*"
    return out


def _identity_cli_op(tmp, tag, family, d, params, lhs: str, rhs: str, equal: bool) -> Op:
    argv = ["identity"] + _preset_args(family, d, params) + [lhs, rhs]

    def run():
        return _cli(argv, os.path.join(tmp, f"{tag}.json"))

    def check(res):
        bad = _report_problem(res, "identity", 0 if equal else 1)
        if bad:
            return bad
        return None if _checks(res.report)["identity"]["equal"] is equal else "identity answer differs"

    return Op(f"identity {family} {params} {lhs} = {rhs}", run, check,
              [lambda res: _with_code(res, 1 - res.code)])


def solve(rng, tmp: str) -> List[Op]:
    F = Fraction
    ops: List[Op] = []

    def mu(den):
        return str(draw_rat(rng, F(1, 10), F(9, 10), den))

    def q(den):
        return str(draw_rat(rng, F(-1, 2), F(1, 2), den))

    def lam(den):
        return draw_rat(rng, F(1, 5), F(1, 2), den)

    d2 = {"qccr": [1, 2, 4, 8], "twisted_ccr": [1, 2, 3, 4], "twisted_car": [1, 2, 1, 0]}
    d3 = {"qccr": [1, 3, 9], "twisted_ccr": [1, 3, 6], "twisted_car": [1, 3, 3]}
    # (family, d, params, generators in X, lam).  The largest systems are
    # bidegree (3,3) at d=2 (64 unknowns) and (2,2) at d=3 (81 unknowns).
    pairs = [
        ("qccr", 2, {"q": q(5)}, 2, lam(7)),
        ("twisted_ccr", 2, {"mu": mu(7)}, 2, lam(3)),
        ("twisted_car", 3, {"mu": mu(7)}, 1, lam(5)),
        ("twisted_car", 2, {"mu": mu(11)}, 1, lam(5)),
        ("qccr", 2, {"q": q(3)}, 1, lam(11)),
        ("qccr", 2, {"q": q(7)}, 1, lam(13)),
        ("qccr", 2, {"q": q(13)}, 1, lam(3)),
        ("twisted_ccr", 2, {"mu": mu(5)}, 1, lam(7)),
        ("twisted_ccr", 2, {"mu": mu(11)}, 1, lam(11)),
        ("twisted_car", 2, {"mu": mu(13)}, 1, lam(7)),
        ("twisted_car", 2, {"mu": mu(3)}, 1, lam(13)),
        ("qccr", 3, {"q": q(5)}, 0, lam(5)),
        ("qccr", 3, {"q": q(7)}, 0, lam(3)),
        ("twisted_ccr", 3, {"mu": mu(3)}, 0, lam(11)),
        ("twisted_car", 3, {"mu": mu(11)}, 0, lam(3)),
    ]
    for n, (family, d, params, gens, lam_v) in enumerate(pairs):
        i = rng.randint(1, d)
        ops.append(_kms_pair_op(tmp, f"kms{n}", family, d, params, lam_v, _kms_word(rng, d, gens, i),
                                i, 3 if d == 2 else 2, (d2 if d == 2 else d3)[family]))
    both = {"linear": True, "quadratic": True}
    ops += [
        _ideal_op(tmp, "ideal0", "twisted_car", 3, {"mu": mu(5)}, 6, both, True),
        _ideal_op(tmp, "ideal1", "twisted_ccr", 2, {"mu": mu(7)}, 1, both, True),
        _ideal_op(tmp, "ideal2", "tlw", 2, {"q": "-1/2"}, 1,
                  {"linear": True, "quadratic": False}, None),
        _forms_op(tmp, "forms0", "twisted_ccr", 3, {"mu": mu(11)}, 5, lambda p: comb(3, p), True),
        _forms_op(tmp, "forms1", "twisted_car", 3, {"mu": mu(13)}, 5,
                  lambda p: comb(p + 2, p), True),
        _forms_op(tmp, "forms2", "degenerate", 2, {}, 5, lambda p: 2**p, True),
        _forms_op(tmp, "forms3", "aklt", None, {"lam": str(draw_rat(rng, F(1, 2), F(19, 10), 5))},
                  5, lambda p: [1, 3][p] if p < 2 else 4, False),
    ]
    nu = draw_rat(rng, F(1, 10), F(9, 10), 7)
    nu2 = nu * nu
    # alpha = a1*, gamma = a2*, C = alpha gamma - nu gamma alpha,
    # R = 1 - a1 a1* - a2 a2*
    C = f"(a1* a2* - {nu} a2* a1*)"
    Cd = f"(a2 a1 - {nu} a1 a2)"
    R = "(1 - a1 a1* - a2 a2*)"
    ops += [
        _identity_cli_op(tmp, "id0", "snu2", None, {"nu": str(nu)}, f"{Cd} {C}", f"{R} (1 - {R})", True),
        _identity_cli_op(tmp, "id1", "snu2", None, {"nu": str(nu)}, f"{C} {Cd}",
                         f"0 - {nu2} {R} (1 + {nu2} {R})", True),
        _identity_cli_op(tmp, "id2", "snu2", None, {"nu": str(nu)}, f"{Cd} {C}", R, False),
    ]
    # the defining relations themselves, and each off by one
    for n, (family, d, params) in enumerate([
        ("qccr", 2, {"q": q(11)}), ("tlw", 2, {"q": q(13)}), ("twisted_ccr", 3, {"mu": mu(3)}),
        ("twisted_car", 3, {"mu": mu(5)}), ("snu2", None, {"nu": mu(13)}),
    ]):
        T = W.make_preset(family, d, **params).tensor
        a, b = rng.randint(1, T.d), rng.randint(1, T.d)
        for shift in (0, 1):
            ops.append(_identity_cli_op(tmp, f"rel{n}-{shift}", family, d, params, f"a{a}* a{b}",
                                        _relation_rhs(T, a, b, shift), shift == 0))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "levels": lambda rng, tmp: levels(rng),
    "words": lambda rng, tmp: words(rng),
    "solve": solve,
}
