"""Structured pass/fail records for identity and theorem checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from types import GeneratorType

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

SCHEMA_VERSION = 1

# Renderers by exact type: an item of one renders inline, and any other
# value, a subclass too, takes the isinstance path of `write_json`.
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null",
            bool: lambda value: "true" if value else "false"}


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
            sep, rest = "\n" + inner, ",\n" + inner  # sep is rest after an item
            for item in sorted(value) if is_dict else value:
                put(sep)
                sep = rest
                if is_dict:
                    key = item
                    if type(key) is not str:  # an exact str needs no check
                        if isinstance(key, bool) or not isinstance(key, (str, int)):
                            raise TypeError(f"unsupported JSON key {key!r}")
                        key = key if isinstance(key, str) else int.__repr__(key)
                    put(encode_basestring_ascii(key) + ": ")
                    item = value[item]
                render = _SCALARS.get(type(item))
                if render is None:
                    emit(item, inner)
                else:
                    put(render(item))
                if len(chunks) > 4096:  # bound what a large report holds
                    out.write("".join(chunks))
                    chunks.clear()
            put(("\n" + pad if sep is rest else "") + ("}" if is_dict else "]"))
        else:
            raise TypeError(f"unsupported JSON value {value!r}")

    emit(obj, "")
    out.write("".join(chunks) + "\n")
