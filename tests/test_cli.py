"""Command-line interface: every subcommand, exit codes, JSON mirrors."""

import json

import pytest

from wickalg.cli import main


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


def test_bad_phi_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["gram", "--preset", "qccr", "--param", "d=2", "--param", "q=1/2",
              "--nmax", "1", "--phi", "1/2"])
