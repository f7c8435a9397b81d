"""JSON serialization of scalars, relation systems, and reports."""

import json

import pytest

from test_catalog import REPRESENTATIVES
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
])
def test_bad_entry_rejected(field, bad, match):
    obj = relations_to_json(make_preset("qccr", 2, q="1/2"))
    if bad is None:
        del obj["entries"][0][field]
    else:
        obj["entries"][0][field] = bad
    with pytest.raises(ValueError, match=match):
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
