"""Structured pass/fail records for identity and theorem checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

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


class VerificationReport:
    """An ordered collection of check results with stable JSON output."""

    def __init__(self, context=None):
        self.context = dict(context or {})
        self.entries: list[CheckResult] = []

    def add(self, result: CheckResult) -> CheckResult:
        merged = dict(self.context)
        merged.update(result.context)
        result.context = merged
        self.entries.append(result)
        return result

    @property
    def failures(self):
        return [e for e in self.entries if e.status == FAIL]

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "context": self.context,
            "checks": [e.to_dict() for e in self.entries],
        }

    def summary_lines(self):
        for e in self.entries:
            yield f"[{e.status.upper():7}] {e.name}"


def write_json(obj, out) -> None:
    """Write `obj` to `out` as `print(json.dumps(obj, indent=2, sort_keys=True))`
    would, in chunks as it goes. Takes dicts keyed by str or int, lists,
    tuples, str, int, bool and None, and raises TypeError on anything else,
    so the bytes cannot differ from json.dumps."""
    chunks = []
    put = chunks.append

    def emit(value, pad):
        if isinstance(value, str):
            put(encode_basestring_ascii(value))
        elif value is None or isinstance(value, bool):
            put("null" if value is None else "true" if value else "false")
        elif isinstance(value, int):
            put(int.__repr__(value))
        elif isinstance(value, (dict, list, tuple)):
            is_dict = isinstance(value, dict)
            put("{" if is_dict else "[")
            inner = pad + "  "
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
            put(("\n" + pad if value else "") + ("}" if is_dict else "]"))
        else:
            raise TypeError(f"unsupported JSON value {value!r}")

    emit(obj, "")
    out.write("".join(chunks) + "\n")
