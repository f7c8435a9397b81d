"""JSON serialization of scalars, relation systems, and reports."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_catalog import REPRESENTATIVES
from wickalg import cli, reports
from wickalg import (
    Report,
    Scalar,
    load_relations,
    load_report,
    make_preset,
    rational,
    rational_str,
    save_relations,
    save_report,
)
from wickalg.reports import (
    SCHEMA_VERSION,
    relations_from_json,
    relations_to_json,
    scalar_from_json,
    scalar_to_json,
)


def test_rational_strings():
    assert rational_str(rational(3, 6)) == "1/2"
    assert rational_str(rational(-7)) == "-7"
    assert rational("1/2") == rational(1, 2)
    assert rational(" -7 ") == rational(-7)


def test_scalar_json_round_trip():
    for c in [Scalar(0), Scalar(rational(1, 3), rational(-2, 5)), Scalar(0, 1)]:
        assert scalar_from_json(scalar_to_json(c)) == c
    assert scalar_from_json("3/4") == Scalar(rational(3, 4))


@pytest.mark.parametrize("name,d,params", REPRESENTATIVES)
def test_relation_file_round_trip(tmp_path, name, d, params):
    rs = make_preset(name, d, **params)
    path = tmp_path / f"{name}.json"
    save_relations(rs, path)
    got = load_relations(path)
    assert got.tensor == rs.tensor
    assert got.name == rs.name
    assert got.params == rs.params
    assert got.ideal_generators == rs.ideal_generators
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["d"] == rs.d


def test_non_hermitian_load_warns_but_succeeds():
    obj = relations_to_json(make_preset("qccr", 2, q="1/2"))
    obj["entries"] = [{"i": 1, "j": 2, "k": 1, "l": 2, "re": "1", "im": "0"}]
    messages = []
    rs = relations_from_json(obj, warn=messages.append)
    assert rs.tensor.get(1, 2, 1, 2) == Scalar(1)
    assert messages == ["relation tensor is not hermitian"]


def test_duplicate_entry_rejected():
    obj = relations_to_json(make_preset("qccr", 2, q="1/2"))
    obj["entries"].append(dict(obj["entries"][0], re="3"))
    with pytest.raises(ValueError, match=r"duplicate relation entry .*\(1, 1, 1, 1\)"):
        relations_from_json(obj)


@pytest.mark.parametrize("bad", [None, "2", 2.0, True])
def test_missing_or_non_integer_d_rejected(bad):
    obj = relations_to_json(make_preset("qccr", 2, q="1/2"))
    if bad is None:
        del obj["d"]
    else:
        obj["d"] = bad
    with pytest.raises(ValueError, match='integer "d"'):
        relations_from_json(obj)


_INDICES = 'integer "i", "j", "k", "l"'


@pytest.mark.parametrize("field,bad,match", [
    *[(f, None, _INDICES) for f in "ijkl"],  # missing
    ("j", 1.7, _INDICES),
    ("j", "2", _INDICES),
    ("j", True, _INDICES),
    ("re", 0.5, '"re" must be a rational string such as "1/10"'),
    ("im", 1, '"im" must be a rational string such as "1/10"'),
    ("re", "abc", '"re" is not a rational string'),
    ("re", "1/0", '"re" is not a rational string'),
    ("re", "1e10000000", '"re" is not a rational string'),
])
def test_bad_entry_rejected(field, bad, match):
    obj = relations_to_json(make_preset("qccr", 2, q="1/2"))
    if bad is None:
        del obj["entries"][0][field]
    else:
        obj["entries"][0][field] = bad
    with pytest.raises(ValueError, match=match):
        relations_from_json(obj)


def test_out_of_range_zero_entry_rejected():
    # A zero coefficient is dropped, but only after its indices are checked.
    obj = relations_to_json(make_preset("qccr", 2, q="1/2"))
    obj["entries"].append({"i": 5, "j": 1, "k": 1, "l": 1, "re": "0", "im": "0"})
    with pytest.raises(ValueError, match="out of range"):
        relations_from_json(obj)


@pytest.mark.parametrize("key,bad", [
    ("entries", 5), ("params", [1]), ("ideal_generators", "a1 a2"), ("ideal_generators", [3]),
])
def test_bad_file_field_rejected(key, bad):
    obj = relations_to_json(make_preset("qccr", 2, q="1/2"))
    obj[key] = bad
    with pytest.raises(ValueError):
        relations_from_json(obj)
    with pytest.raises(ValueError, match="JSON object"):
        relations_from_json([obj])


def test_decimal_strings_read_exactly():
    obj = relations_to_json(make_preset("qccr", 2, q="1/2"))
    obj["params"] = {"q": "0.5"}
    obj["entries"] = [dict(e, re="0.5") for e in obj["entries"]]
    rs = relations_from_json(obj)
    assert rs.tensor == make_preset("qccr", 2, q="1/2").tensor
    assert rs.params == {"q": rational(1, 2)}


def test_report_round_trip(tmp_path):
    rep = Report(tool="demo", relation={"name": "qccr", "d": 2})
    rec = rep.add_check("something", value=3, flag=True)
    assert rec in rep.checks
    rep.timing["seconds"] = 0.25
    path = tmp_path / "report.json"
    save_report(rep, path)
    got = load_report(path)
    assert got.tool == "demo"
    assert got.checks == rep.checks
    assert got.relation == rep.relation
    assert got.timing == {"seconds": 0.25}
    assert got.schema_version == SCHEMA_VERSION


def _dumped(obj) -> bytes:
    """The bytes of ``json.dump(obj, fh, indent=2)`` then a newline, the streamed writer."""
    buf = io.StringIO()
    json.dump(obj, buf, indent=2)
    return (buf.getvalue() + "\n").encode("utf-8")


def test_reports_and_relations_written_in_one_write(tmp_path, monkeypatch):
    # A kms report, a positivity report and a relations file each reach the file in
    # one write, with the bytes the streamed json.dump wrote.
    writes = []

    class Counting(io.TextIOWrapper):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    def counting_open(path, mode="r", **kwargs):
        return Counting(io.FileIO(path, mode), **kwargs)

    monkeypatch.setattr(reports, "open", counting_open, raising=False)
    qccr = ["--preset", "qccr", "--param", "d=2", "--param", "q=1/2"]
    for argv in (["kms", *qccr, "--lam", "1/3", "--nmax", "2", "a1 a2 a2* a1*"],
                 ["positivity", *qccr, "--nmax", "3"]):
        path = tmp_path / f"{argv[0]}.json"
        writes.clear()
        assert cli.main([*argv, "--json", str(path)]) == 0
        assert len(writes) == 1
        assert path.read_bytes() == _dumped(load_report(path).to_json_dict())
    rs = make_preset("q_ij", 2, q11="1/3", q22="1/4", q12="1/2", q12_im="1/2",
                     q21="1/2", q21_im="-1/2")
    writes.clear()
    save_relations(rs, tmp_path / "rel.json")
    assert len(writes) == 1
    assert (tmp_path / "rel.json").read_bytes() == _dumped(relations_to_json(rs))


# JSON-like values: leaves of every JSON type plus strings the loader parses,
# nested in lists and objects.
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from(["1/2", "-3", "0", "1/0", "1e5", "1e-99999", "i", "a1 a2 - a2 a1", "(" * 400]),
)
_json = st.recursive(
    _leaves, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_entry = st.fixed_dictionaries({}, optional={f: st.integers(-1, 4) | _json for f in ("i", "j", "k", "l", "re", "im")})
relation_objects = st.fixed_dictionaries({}, optional={
    "d": st.integers(-1, 3) | _json,
    "entries": st.lists(_entry | _json, max_size=4) | _json,
    "ideal_generators": st.lists(st.text(max_size=12) | _json, max_size=3) | _json,
    "name": _json,
    "params": st.dictionaries(st.text(max_size=3), _json, max_size=3) | _json,
})


@settings(max_examples=300, deadline=None)
@given(relation_objects)
def test_relation_loader_fuzz_raises_only_value_errors(obj):
    try:
        relations_from_json(obj, warn=lambda message: None)
    except ValueError:  # ParseError is a ValueError
        pass


def test_deeply_nested_ideal_generator_refused():
    obj = relations_to_json(make_preset("qccr", 2, q="1/2"))
    obj["ideal_generators"] = ["(" * 5000 + "a1" + ")" * 5000]
    with pytest.raises(ValueError, match="nested deeper than"):
        relations_from_json(obj)
