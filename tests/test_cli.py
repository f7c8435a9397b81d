"""Command-line interface: every subcommand, exit codes, JSON mirrors."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from wickalg import Matrix, cli, eigen, kms, parse_expression, tensorops
from wickalg.cli import main
from wickalg.reports import scalar_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_order(capsys):
    code, out = run(capsys, "order", "--preset", "qccr",
                    "--param", "d=2", "--param", "q=1/2", "a1* a1")
    assert code == 0
    assert out.strip() == "1 + 1/2 a1 a1*"


def test_decimal_param_read_exactly(capsys):
    code, out = run(capsys, "order", "--preset", "qccr",
                    "--param", "d=2", "--param", "q=0.5", "a1* a1")
    assert code == 0
    assert out.strip() == "1 + 1/2 a1 a1*"


def test_identity_exit_codes(capsys):
    args = ["identity", "--preset", "twisted_ccr",
            "--param", "d=2", "--param", "mu=1/2"]
    code, out = run(capsys, *args, "a1* a2", "1/2 a2 a1*")
    assert code == 0 and "equal" in out
    code, out = run(capsys, *args, "a1* a2", "a2 a1*")
    assert code == 1 and "different" in out


def test_gram(capsys, tmp_path):
    report = tmp_path / "gram.json"
    code, out = run(capsys, "gram", "--preset", "qccr", "--param", "d=2",
                    "--param", "q=1/2", "--nmax", "2", "--json", str(report))
    assert code == 0
    assert "a1 a1" in out
    payload = json.loads(report.read_text())
    assert payload["tool"] == "gram"
    matrix = payload["checks"][0]["matrix"]
    assert matrix[0][0] == {"re": "3/2", "im": "0"}  # <11,11> = 1 + q


def test_gram_with_phi(capsys):
    code, out = run(capsys, "gram", "--preset", "qccr", "--param", "d=2",
                    "--param", "q=1/2", "--nmax", "1", "--phi", "1/2, 1/3")
    assert code == 0


Q_IJ = ["--preset", "q_ij", "--param", "d=2", "--param", "q11=1/3", "--param", "q22=1/4",
        "--param", "q12=1/2", "--param", "q12_im=1/3",
        "--param", "q21=1/2", "--param", "q21_im=-1/3"]


def test_complex_scalars_print_as_expressions(capsys, tmp_path):
    # Complex Gram entries and KMS values print in the expression printer's
    # coefficient form, so each reads back to the scalar of the JSON report.
    report = tmp_path / "gram.json"
    code, out = run(capsys, "gram", *Q_IJ, "--nmax", "2", "--phi", "1/2, i",
                    "--json", str(report))
    assert code == 0
    rows = [line.split(": ", 1)[1].split("  ") for line in out.splitlines()[1:]]
    printed = [[parse_expression(e, 2).constant_term for e in row] for row in rows]
    matrix = json.loads(report.read_text())["checks"][0]["matrix"]
    assert printed == [[scalar_from_json(c) for c in row] for row in matrix]
    assert sum(1 for row in printed for c in row if c.im and c.re) == 12
    report = tmp_path / "kms.json"
    code, out = run(capsys, "kms", *Q_IJ, "--nmax", "2", "--json", str(report),
                    "a1 a2 a1* a2*")
    assert code == 0
    text = out.splitlines()[-1].split(": ", 1)[1]
    value = scalar_from_json(json.loads(report.read_text())["checks"][1]["value"])
    assert value.im and parse_expression(text, 2).constant_term == value


def test_positivity(capsys, tmp_path):
    report = tmp_path / "pos.json"
    code, out = run(capsys, "positivity", "--preset", "bp_ce", "--param", "d=2",
                    "--param", "lam=12", "--param", "eps=-1/10",
                    "--nmax", "3", "--json", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    names = [c["name"] for c in payload["checks"]]
    assert "p3_diagonal_witness" in names


def test_braid_exit_codes(capsys):
    code, _ = run(capsys, "braid", "--preset", "qccr", "--param", "d=2",
                  "--param", "q=1/2", "--nmax", "3")
    assert code == 0
    code, _ = run(capsys, "braid", "--preset", "tlw", "--param", "d=2",
                  "--param", "q=1/3")
    assert code == 1


def test_ideal_check(capsys):
    code, out = run(capsys, "ideal-check", "--preset", "twisted_ccr",
                    "--param", "d=2", "--param", "mu=1/2")
    assert code == 0
    assert "linear=True" in out and "quadratic=True" in out
    assert "form a Wick ideal" in out and "True" in out


def test_ideal_check_takes_no_general_rank(capsys, monkeypatch):
    # The −1-eigenprojection is ranked by the Hermitian psd_rank.
    def refuse(self):
        raise AssertionError("Matrix.rank called")

    monkeypatch.setattr(Matrix, "rank", refuse)
    code, out = run(capsys, "ideal-check", "--preset", "twisted_car",
                    "--param", "d=3", "--param", "mu=1/3")
    assert code == 0
    assert "-1 eigenprojection rank: 6" in out


def test_forms(capsys):
    code, out = run(capsys, "forms", "--preset", "twisted_car",
                    "--param", "d=2", "--param", "mu=1/2", "--nmax", "3")
    assert code == 0
    dims = [line.split(": ")[1] for line in out.splitlines()
            if line.startswith("dim")]
    assert dims == ["1", "2", "3", "4"]


def test_kms(capsys):
    code, out = run(capsys, "kms", "--preset", "twisted_car", "--param", "d=2",
                    "--param", "mu=1/2", "--lam", "1/3", "--nmax", "3",
                    "a1 a1*")
    assert code == 0
    assert "1/4" in out
    # singular fugacity exits nonzero
    code, out = run(capsys, "kms", "--preset", "qccr", "--param", "d=2",
                    "--param", "q=1/2", "--lam", "2", "--nmax", "2", "a1 a1*")
    assert code == 1
    assert "not unique" in out


@pytest.mark.parametrize("argv, last_line", [
    (["qccr", "--param", "d=2", "--param", "q=1/2", "--lam", "1", "a1"],
     "kms value of 'a1': not unique (bidegree (1,0) system is singular at lambda=1)"),
    (["snu2", "--param", "nu=-2", "--lam", "1/2", "--nmax", "2", "a1 a1*"],
     "kms value of 'a1 a1*': not unique (bidegree (1,1) system is singular at lambda=1/2)"),
])
def test_kms_non_unique_prints_lambda_as_rational(capsys, argv, last_line):
    code, out = run(capsys, "kms", "--preset", *argv)
    assert code == 1
    assert out.splitlines()[-1] == last_line


def test_preset_then_relations_file(capsys, tmp_path):
    path = tmp_path / "rel.json"
    code, _ = run(capsys, "preset", "--preset", "twisted_ccr", "--param", "d=2",
                  "--param", "mu=1/2", str(path))
    assert code == 0 and path.exists()
    code, out = run(capsys, "order", "--relations", str(path), "a1* a2")
    assert code == 0
    assert out.strip() == "1/2 a2 a1*"


def test_relation_source_required(capsys):
    with pytest.raises(SystemExit):
        main(["order", "a1"])
    with pytest.raises(SystemExit):
        main(["order", "--preset", "qccr", "--relations", "x.json", "a1"])


QCCR = ["--preset", "qccr", "--param", "d=2", "--param", "q=1/2"]


@pytest.mark.parametrize("argv", [
    ["order", "--preset", "qccr", "--param", "d=2", "--param", "q=abc", "a1"],
    ["order", "--preset", "qccr", "--param", "d=x", "--param", "q=1/2", "a1"],
    ["kms", *QCCR, "--lam", "x"],
    ["order", "--preset", "no_such_family", "--param", "d=2", "a1"],
    ["order", *QCCR, "a3* a1"],
    ["order", *QCCR, "--relations", "x.json", "a1"],
    ["order", *QCCR, "--param", "foo=1", "a1"],
    ["order", "--preset", "twisted_ccr", "--param", "d=2", "--param", "nu=1/2", "a1"],
    ["gram", *QCCR, "--nmax", "14", "--cap", "16"],
    ["order", "--preset", "qccr", "--param", "d=2", "--param", "q=1e10000000", "a1"],
    ["kms", *QCCR, "--lam", "1e-10000000"],
    ["gram", *QCCR, "--nmax", "-1"],
    ["forms", *QCCR, "--nmax", "-1"],
    ["positivity", *QCCR, "--nmax", "-1"],
    ["kms", *QCCR, "--nmax", "-1"],
    ["braid", *QCCR, "--nmax", "-1"],
    ["ideal-check", *QCCR, "--nmax", "-1"],
])
def test_bad_input_fails_clean(capsys, argv):
    # Exit code 2 and one stderr line, whether argument handling
    # (SystemExit) or the library (returned code) rejects the input.
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("wickalg: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["order", *QCCR, "--cap", "5", "a1"],
    ["identity", *QCCR, "--nmax", "2", "a1", "a1"],
])
def test_unread_options_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_phi_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["gram", "--preset", "qccr", "--param", "d=2", "--param", "q=1/2",
              "--nmax", "1", "--phi", "1/2"])


@pytest.mark.parametrize("command", ["positivity", "kms", "braid"])
def test_oversized_levels_refused_before_building(capsys, monkeypatch, command):
    # --nmax 20 at d=2 is past the default cap: one stderr line and exit 2,
    # before any level is built.  The real gram_levels runs its cap check.
    real_levels = tensorops.gram_levels

    def no_level(*args, **kwargs):
        for _ in real_levels(*args, **kwargs):
            raise AssertionError("a level was built")
        yield from ()

    def no_sum(*args, **kwargs):
        raise AssertionError("a permutation sum was built")

    for module in (cli, kms, tensorops):
        monkeypatch.setattr(module, "gram_levels", no_level)
    monkeypatch.setattr(cli, "p_n_by_permutations", no_sum)
    code = main([command, *QCCR, "--nmax", "20"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("wickalg: error: ") and err.count("\n") == 1


Q20 = ["--preset", "qccr", "--param", "d=20", "--param", "q=1/2"]


@pytest.mark.parametrize("argv", [
    ["positivity", *Q20, "--nmax", "1"],  # the braid check on H^{⊗3}: 20^3 = 8000
    ["forms", *Q20, "--nmax", "1"],
    ["braid", *Q20, "--nmax", "1"],
    ["ideal-check", *Q20, "--nmax", "1"],  # the quadratic condition on H^{⊗3}
    ["kms", "--preset", "qccr", "--param", "d=3", "--param", "q=1/2", "--nmax", "1",
     "a1 a1 a1 a1 a1* a1* a1* a1*"],  # the (4,4) system: 3^8 = 6561 unknowns
    ["kms", *Q20, "--nmax", "1", "a1 a2 a2* a1*"],  # (2,2): 20^4 = 160000
])
def test_over_cap_systems_refused_before_building(capsys, monkeypatch, argv):
    # Every dense H^{⊗k} and every KMS system goes through the d^k cap: no
    # kron or identity past the default cap 4096 is asked for.
    def guarded(build, size):
        def call(*args):
            if size(*args) > tensorops.DEFAULT_DIM_CAP:
                raise AssertionError(f"built {size(*args)} rows")
            return build(*args)
        return call

    monkeypatch.setattr(tensorops, "kron",
                        guarded(tensorops.kron, lambda a, b: a.rows * b.rows))
    for module in (tensorops, kms):
        monkeypatch.setattr(module, "identity", guarded(module.identity, lambda n: n))
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""  # refused before any line on stdout
    assert err.startswith("wickalg: error: ") and err.count("\n") == 1
    assert "exceeds the dense cap 4096" in err


def test_unconverged_spectrum_fails_clean(capsys, monkeypatch):
    # LAPACK's failure to converge is one stderr line and exit 2, not a traceback
    def unconverged(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(eigen.np.linalg, "eigvalsh", unconverged)
    code = main(["positivity", "--preset", "qccr", "--param", "d=2",
                 "--param", "q=1/2", "--nmax", "3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("wickalg: error: ") and err.count("\n") == 1
    assert "did not converge" in err


@pytest.mark.parametrize("argv, check", [
    (["positivity", *Q20, "--nmax", "1", "--cap", "10000"], "the braid check"),
    (["forms", *Q20, "--nmax", "1", "--cap", "10000"], "the braid check"),
    (["braid", *Q20, "--nmax", "1", "--cap", "10000"], "the braid check"),
    (["ideal-check", *Q20, "--nmax", "1"], "the quadratic-ideal check"),
])
def test_h3_refusal_names_its_fixed_limit(capsys, argv, check):
    # --cap does not raise the H^{⊗3} checks' cap: the one line says which
    # build refused and that they stop at d = 16, not "raise the cap".
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"wickalg: error: {check} builds H^{{⊗3}}")
    assert "d^3 = 8000" in err and "d <= 16" in err and "raise the cap" not in err


def test_braid_refuses_the_whole_nmax_up_front(capsys, monkeypatch):
    # 7!·2^14 entries of the T(π) exceed 4096², though 2^7 is under the cap:
    # refused before the braid check, any level, or any line on stdout.
    def built(*args, **kwargs):
        raise AssertionError("built before the permutation cap check")

    for name in ("braid_check", "gram_levels", "p_n_by_permutations"):
        monkeypatch.setattr(cli, name, built)
    code = main(["braid", *QCCR, "--nmax", "7"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("wickalg: error: ") and err.count("\n") == 1


def test_python_dash_m_wickalg():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-B", "-m", "wickalg", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0 and "positivity" in res.stdout
    res = subprocess.run([sys.executable, "-B", "-m", "wickalg", "positivity", *QCCR,
                          "--nmax", "-1"], env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 2
    assert res.stderr.startswith("wickalg: error: ") and res.stderr.count("\n") == 1


def test_parser_reused_without_sharing_param_lists(capsys, monkeypatch):
    # main builds its parser once; a second call must not see the --param
    # values that the first call appended.
    seen = []

    def spy(args):
        seen.append(args.param)
        raise ValueError("stop")

    monkeypatch.setattr(cli, "_relation_system", spy)
    assert main(["order", "--preset", "qccr", "--param", "q=1/2", "a1"]) == 2
    assert main(["order", "--preset", "qccr", "a1"]) == 2
    assert seen == [["q=1/2"], []]
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
