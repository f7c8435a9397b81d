"""Command-line surface: certificates and tables over relation systems.

Every subcommand accepts a relation source (``--relations FILE`` or
``--preset NAME --param k=v``) and only the options it reads.  All but
``preset`` print a human-readable table and can mirror the same data to
JSON with ``--json OUT``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import NoReturn

from .algebra import Polynomial, RelationSystem, hermiticity_check, word_str
from .braid import _check_permutation_cap, p_n_by_permutations
from .catalog import make_preset, preset_names
from .diffcalc import _form_kernels, wick_diff_star_algebra_exists
from .exprparse import parse_expression, print_polynomial
from .ideals import (
    minus_one_eigenprojection,
    quadratic_ideal_check,
    wick_ideal_condition_check,
)
from .kms import KmsNonUniquenessError, kms_evaluate, kms_series
from .reports import Report, load_relations, save_relations, save_report, scalar_to_json
from .rewrite import TermBudgetExceeded, verify_identity, wick_order
from .scalars import Scalar, rational, rational_str
from .states import CoherentParam, gram_matrix
from .tensorops import (
    DEFAULT_DIM_CAP,
    _check_cap,
    braid_check,
    gram_levels,
    index_to_word,
    positivity_report,
)

__all__ = ["main", "build_parser"]


_OPTIONS = {
    "nmax": dict(type=int, default=3, metavar="N",
                 help="maximum tensor level / degree (default 3)"),
    "phi": dict(metavar="C1,C2,…", help="coherent parameter components (default Fock)"),
    "json": dict(metavar="OUT", help="write the JSON report here"),
    "cap": dict(type=int, default=DEFAULT_DIM_CAP, metavar="N",
                help=f"dense dimension cap d^n (default {DEFAULT_DIM_CAP})"),
}


def _add_common(p: argparse.ArgumentParser, *options: str) -> None:
    """The relation-source options, then the named ``_OPTIONS`` the
    subcommand reads."""
    p.add_argument("--relations", metavar="FILE", help="relation-system JSON file")
    p.add_argument("--preset", metavar="NAME",
                   help="catalog preset (%s)" % ", ".join(preset_names()))
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="preset parameter (repeatable), e.g. q=1/2 or d=3")
    for name in options:
        p.add_argument("--" + name, **_OPTIONS[name])


def _usage_error(msg: str) -> NoReturn:
    """One stderr line and exit code 2, as argparse does for its own errors."""
    print(f"wickalg: error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _option_value(opt: str, text: str, parse):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        _usage_error(f"bad {opt} value {text!r}")


def _relation_system(args) -> RelationSystem:
    if args.relations and args.preset:
        _usage_error("use either --relations or --preset, not both")
    if args.relations:
        return load_relations(
            args.relations, warn=lambda m: print(f"warning: {m}", file=sys.stderr)
        )
    if args.preset:
        params = {}
        for kv in args.param:
            if "=" not in kv:
                _usage_error(f"bad --param {kv!r}, expected K=V")
            k, v = kv.split("=", 1)
            if k in params:
                _usage_error(f"--param {k} given twice")
            params[k] = _option_value(f"--param {k}", v, int if k == "d" else rational)
        return make_preset(args.preset, **params)
    _usage_error("a relation source is required: --relations FILE or --preset NAME")


def _phi(args, d: int):
    if not args.phi:
        return CoherentParam.zero(d)
    comps, start = [], 0
    for chunk in args.phi.split(","):
        if "a" in chunk:  # a generator, whatever its index
            _usage_error(f"--phi component {chunk!r} is not a scalar")
        # Blanks for the text before the chunk make parse positions count in
        # the whole option; no generator is left for d = 0 to refuse.
        comps.append(parse_expression(" " * start + chunk, 0).constant_term)
        start += len(chunk) + 1
    if len(comps) != d:
        _usage_error(f"--phi needs {d} components, got {len(comps)}")
    return CoherentParam(tuple(comps))


# -- subcommand bodies: (args, relation system) -> (exit code, report) ---------


def _cmd_order(args, rs: RelationSystem) -> tuple:
    p = parse_expression(args.expr, rs.d)
    q = wick_order(p, rs.tensor)
    print(print_polynomial(q))
    report = Report(tool="order")
    report.add_check("order", input=args.expr, output=print_polynomial(q))
    return 0, report


def _cmd_identity(args, rs: RelationSystem) -> tuple:
    lhs = parse_expression(args.lhs, rs.d)
    rhs = parse_expression(args.rhs, rs.d)
    equal = verify_identity(lhs, rhs, rs.tensor)
    print("equal" if equal else "different")
    report = Report(tool="identity")
    report.add_check("identity", lhs=args.lhs, rhs=args.rhs, equal=equal)
    return (0 if equal else 1), report


def _cmd_gram(args, rs: RelationSystem) -> tuple:
    d = rs.d
    n = args.nmax
    _check_cap(d, n, args.cap)
    words = [index_to_word(i, d, n) for i in range(d**n)]
    phi = _phi(args, d)
    g = gram_matrix(words, phi, rs.tensor)
    labels = [word_str(w) for w in words]
    print(f"Gram matrix over all {len(words)} length-{n} words:")
    for r, lab in enumerate(labels):
        entries = (print_polynomial(Polynomial.monomial((), g[r, c])) for c in range(g.cols))
        print(f"  {lab}: " + "  ".join(entries))
    report = Report(tool="gram")
    report.add_check(
        "gram",
        n=n,
        words=labels,
        matrix=[[scalar_to_json(g[r, c]) for c in range(g.cols)] for r in range(g.rows)],
    )
    return 0, report


def _cmd_positivity(args, rs: RelationSystem) -> tuple:
    report = positivity_report(rs.tensor, args.nmax, cap=args.cap)
    for check in report.checks:
        fields = ", ".join(f"{k}={v}" for k, v in check.items() if k != "name")
        print(f"{check['name']}: {fields}")
    return 0, report


def _cmd_braid(args, rs: RelationSystem) -> tuple:
    if args.nmax >= 2:  # refuse the whole --nmax before any level is built or printed
        _check_permutation_cap(rs.d, args.nmax, args.cap)
    braided = braid_check(rs.tensor)
    print(f"braid relation: {'holds' if braided else 'fails'}")
    report = Report(tool="braid")
    report.add_check("braid", holds=braided)
    if braided and args.nmax >= 2:
        levels = gram_levels(rs.tensor, args.nmax, args.cap)
        next(levels)  # P_1 = I
        for n, pn in enumerate(levels, 2):
            same = p_n_by_permutations(rs.tensor, n, cap=args.cap) == pn
            print(f"permutation sum equals level-{n} Gram operator: {same}")
            report.add_check("permutation_sum", n=n, equals_p_n=same)
    return (0 if braided else 1), report


def _cmd_ideal_check(args, rs: RelationSystem) -> tuple:
    report = Report(tool="ideal-check")
    if hermiticity_check(rs.tensor):
        P = minus_one_eigenprojection(rs.tensor)
        qc = quadratic_ideal_check(rs.tensor, P)
        rank = int(sum(P[i, i].re for i in range(P.rows)))  # P is an orthogonal projection: tr P
        print(f"-1 eigenprojection rank: {rank}")
        print(f"quadratic ideal conditions: linear={qc['linear']} "
              f"quadratic={qc['quadratic']}")
        report.add_check("eigenprojection", rank=rank)
        report.add_check("quadratic_ideal", **qc)
    gens = rs.ideal_generators
    if gens:
        max_deg = max(args.nmax, max(g.max_word_len() for g in gens) + 1)
        ok = wick_ideal_condition_check(rs.tensor, gens, max_deg)
        print(f"declared generators ({len(gens)}) form a Wick ideal "
              f"(degree <= {max_deg}): {ok}")
        report.add_check("wick_ideal", generators=len(gens),
                         max_deg=max_deg, holds=ok)
    else:
        print("no declared ideal generators")
    return 0, report


def _cmd_forms(args, rs: RelationSystem) -> tuple:
    report = Report(tool="forms")
    dims = [k for k, _, _ in _form_kernels(rs.tensor, args.nmax, args.cap)]
    # the braid check may refuse H^{⊗3}: decided before any line is printed
    rec = wick_diff_star_algebra_exists(rs.tensor) if hermiticity_check(rs.tensor) else None
    for p, dim in enumerate(dims):
        print(f"dim of constant-coefficient {p}-forms: {dim}")
    report.add_check("form_dims", dims=dims)
    if rec is not None:
        print(f"differential *-algebra exists: {rec['exists']} "
              f"(invertible={rec['invertible']}, braid={rec['braid']})")
        report.add_check(
            "star_algebra",
            exists=rec["exists"],
            invertible=rec["invertible"],
            braid=rec["braid"],
        )
    return 0, report


def _cmd_kms(args, rs: RelationSystem) -> tuple:
    lam = _option_value("--lam", args.lam, rational)
    report = Report(tool="kms")
    series = kms_series(rs.tensor, Scalar(lam), args.nmax, cap=args.cap)
    value = unique = None
    if args.expr:  # evaluated, or refused, before any line is printed
        try:
            value = kms_evaluate(
                parse_expression(args.expr, rs.d), Scalar(lam), rs.tensor, cap=args.cap
            )
            unique = True
        except KmsNonUniquenessError as exc:
            value, unique = exc, False
    print(f"ranks of level Gram operators: {series['ranks']}")
    sums = [rational_str(s.re) for s in series["partial_sums"]]
    print(f"partial sums of the lambda-rank series: {sums}")
    report.add_check("series", lam=rational_str(lam),
                     ranks=series["ranks"], partial_sums=sums)
    if unique:
        print(f"kms value of {args.expr!r}: {print_polynomial(Polynomial.monomial((), value))}")
        report.add_check("evaluate", expr=args.expr, value=scalar_to_json(value))
    elif unique is False:
        print(f"kms value of {args.expr!r}: not unique ({value})")
        report.add_check("evaluate", expr=args.expr, unique=False)
        return 1, report
    return 0, report


def _cmd_preset(args, rs: RelationSystem) -> tuple:
    save_relations(rs, args.out)
    print(f"wrote preset {rs.name!r} (d={rs.d}) to {args.out}")
    return 0, None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wickalg",
        description="Normal ordering, Gram positivity, braid/ideal/KMS "
                    "certificates for Wick algebras.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="Wick-order an expression")
    _add_common(p, "json")
    p.add_argument("expr", help="expression, e.g. 'a1* a2 - 1/2 a2 a1*'")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("identity", help="verify an identity in the algebra")
    _add_common(p, "json")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("gram", help="Gram matrix over all length-n words")
    _add_common(p, "nmax", "phi", "json", "cap")
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("positivity", help="positivity criteria and P_n spectra")
    _add_common(p, "nmax", "json", "cap")
    p.set_defaults(func=_cmd_positivity)

    p = sub.add_parser("braid", help="braid relation and permutation sums")
    _add_common(p, "nmax", "json", "cap")
    p.set_defaults(func=_cmd_braid)

    p = sub.add_parser("ideal-check", help="quadratic and general Wick-ideal checks")
    _add_common(p, "nmax", "json")
    p.set_defaults(func=_cmd_ideal_check)

    p = sub.add_parser("forms", help="differential-form dimensions")
    _add_common(p, "nmax", "json", "cap")
    p.set_defaults(func=_cmd_forms)

    p = sub.add_parser("kms", help="KMS rank series and functional values")
    _add_common(p, "nmax", "json", "cap")
    p.add_argument("--lam", default="1/2", metavar="RAT",
                   help="KMS parameter lambda (rational, default 1/2)")
    p.add_argument("expr", nargs="?", help="optional expression to evaluate")
    p.set_defaults(func=_cmd_kms)

    p = sub.add_parser("preset", help="emit a catalog preset to a relation file")
    _add_common(p)
    p.add_argument("out", help="output relation-file path")
    p.set_defaults(func=_cmd_preset)

    return ap


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand on the relation source and write its report to
    ``--json`` if asked.  Usage errors exit 2 (SystemExit); an error from
    the library (bad input, a cap or budget exceeded, no convergence) or an
    unreadable file prints one stderr line and returns 2, never a traceback."""
    args = _parser().parse_args(argv)
    if getattr(args, "nmax", 0) < 0:
        _usage_error(f"--nmax must be >= 0, got {args.nmax}")
    try:
        rs = _relation_system(args)
        code, report = args.func(args, rs)
        if report is not None and args.json:
            report.relation = {"name": rs.name, "d": rs.d,
                               "params": {k: rational_str(v) for k, v in rs.params.items()}}
            save_report(report, args.json)
        return code
    except (ValueError, TermBudgetExceeded, ArithmeticError, OSError) as exc:
        print(f"wickalg: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
