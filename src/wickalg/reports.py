"""Report objects and JSON serialization for relation systems and check results.

Rational scalars are serialized as exact strings ``"p/q"`` (or ``"p"``) by
:func:`~wickalg.scalars.rational_str` and read back by
:func:`~wickalg.scalars.rational`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .algebra import CoeffTensor, RelationSystem, hermiticity_check
from .exprparse import parse_expression, print_polynomial
from .scalars import Scalar, rational, rational_str

__all__ = [
    "SCHEMA_VERSION",
    "TOOL_VERSION",
    "Report",
    "scalar_to_json",
    "scalar_from_json",
    "relations_to_json",
    "relations_from_json",
    "save_relations",
    "load_relations",
    "save_report",
    "load_report",
]

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"


def scalar_to_json(c: Scalar) -> dict:
    return {"re": rational_str(c.re), "im": rational_str(c.im)}


def scalar_from_json(obj) -> Scalar:
    """Read ``"p/q"`` or ``{"re": "p/q", "im": "p/q"}`` (missing parts are 0).
    Anything else, a JSON number included, raises ``ValueError``."""
    if isinstance(obj, dict):
        return Scalar(_rational_from_json("re", obj.get("re", "0")),
                      _rational_from_json("im", obj.get("im", "0")))
    return Scalar(_rational_from_json("value", obj))


def _rational_from_json(key: str, text):
    if not isinstance(text, str):
        raise ValueError(f'"{key}" must be a rational string such as "1/10", got {text!r}')
    try:
        return rational(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f'"{key}" is not a rational string: {text!r}') from None


@dataclass
class Report:
    """A serializable record of one tool invocation's checks."""

    tool: str
    relation: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION
    tool_version: str = TOOL_VERSION

    def add_check(self, name: str, **fields) -> dict:
        rec = {"name": name, **fields}
        self.checks.append(rec)
        return rec

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "tool": self.tool,
            "relation": self.relation,
            "checks": self.checks,
            "timing": self.timing,
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "Report":
        return Report(
            tool=obj["tool"],
            relation=obj.get("relation", {}),
            checks=obj.get("checks", []),
            timing=obj.get("timing", {}),
            schema_version=obj.get("schema_version", SCHEMA_VERSION),
            tool_version=obj.get("tool_version", TOOL_VERSION),
        )


# ---------------------------------------------------------------------------
# Relation files
# ---------------------------------------------------------------------------


def relations_to_json(rs: RelationSystem) -> dict:
    entries = []
    for (i, j, k, l), c in sorted(rs.tensor.entries.items()):
        entries.append(
            {"i": i, "j": j, "k": k, "l": l,
             "re": rational_str(c.re), "im": rational_str(c.im)}
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "d": rs.d,
        "entries": entries,
        "ideal_generators": [print_polynomial(g) for g in rs.ideal_generators],
        "name": rs.name,
        "params": {k: rational_str(v) for k, v in rs.params.items()},
    }


def relations_from_json(obj: dict, warn=None) -> RelationSystem:
    if not isinstance(obj, dict):
        raise ValueError(f"relation file must hold a JSON object, got {obj!r}")
    d = obj.get("d")
    if type(d) is not int:
        raise ValueError(f'relation file needs an integer "d", got {d!r}')
    entries = {}
    for e in _field(obj, "entries", list, []):
        if not isinstance(e, dict):
            raise ValueError(f"relation entry must be an object, got {e!r}")
        key = tuple(e.get(f) for f in "ijkl")
        if any(type(idx) is not int for idx in key):
            raise ValueError(f'relation entry needs integer "i", "j", "k", "l", got {e!r}')
        if key in entries:
            raise ValueError(f"duplicate relation entry (i,j,k,l) = {key}")
        entries[key] = scalar_from_json(e)
    T = CoeffTensor(d, entries)
    if not hermiticity_check(T) and warn is not None:
        warn("relation tensor is not hermitian")
    gens = []
    for text in _field(obj, "ideal_generators", list, []):
        if not isinstance(text, str):
            raise ValueError(f"ideal generator must be an expression string, got {text!r}")
        gens.append(parse_expression(text, d))
    params = {k: _rational_from_json(k, v) for k, v in _field(obj, "params", dict, {}).items()}
    return RelationSystem(T, gens, obj.get("name", ""), params)


def _field(obj: dict, key: str, kind: type, default):
    value = obj.get(key, default)
    if not isinstance(value, kind):
        raise ValueError(f'relation file field "{key}" must be a JSON {kind.__name__}, got {value!r}')
    return value


def save_relations(rs: RelationSystem, path) -> None:
    text = json.dumps(relations_to_json(rs), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_relations(path, warn=None) -> RelationSystem:
    with open(path, encoding="utf-8") as fh:
        return relations_from_json(json.load(fh), warn=warn)


def save_report(report: Report, path) -> None:
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_report(path) -> Report:
    with open(path, encoding="utf-8") as fh:
        return Report.from_json_dict(json.load(fh))
