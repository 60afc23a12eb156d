"""Structured pass/fail records for identity and theorem checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from types import GeneratorType

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

SCHEMA_VERSION = 1


@dataclass
class CheckResult:
    """Outcome of one named check, with counterexample payloads on failure."""

    name: str
    status: str
    context: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "context": self.context,
            "details": self.details,
        }


def write_json(obj, out) -> None:
    """Write `obj` to `out` as `print(json.dumps(obj, indent=2, sort_keys=True))`
    would, in chunks as it goes. Takes dicts keyed by str or int, lists,
    tuples, str, int, bool and None, and raises TypeError on anything else,
    so the bytes cannot differ from json.dumps. A generator is written as
    the list of what it yields, item by item as it yields them."""
    chunks = []
    put = chunks.append

    def emit(value, pad):
        if isinstance(value, str):
            put(encode_basestring_ascii(value))
        elif value is None or isinstance(value, bool):
            put("null" if value is None else "true" if value else "false")
        elif isinstance(value, int):
            put(int.__repr__(value))
        elif isinstance(value, (dict, list, tuple, GeneratorType)):
            is_dict = isinstance(value, dict)
            put("{" if is_dict else "[")
            inner = pad + "  "
            i = -1  # stays -1 when there is no item
            for i, item in enumerate(sorted(value) if is_dict else value):
                put(",\n" + inner if i else "\n" + inner)
                if is_dict:
                    if isinstance(item, bool) or not isinstance(item, (str, int)):
                        raise TypeError(f"unsupported JSON key {item!r}")
                    key = item if isinstance(item, str) else int.__repr__(item)
                    put(encode_basestring_ascii(key) + ": ")
                    item = value[item]
                emit(item, inner)
                if len(chunks) > 4096:  # bound what a large report holds
                    out.write("".join(chunks))
                    chunks.clear()
            put(("\n" + pad if i >= 0 else "") + ("}" if is_dict else "]"))
        else:
            raise TypeError(f"unsupported JSON value {value!r}")

    emit(obj, "")
    out.write("".join(chunks) + "\n")
