"""Machine-readable reports: canonical JSON and a deterministic text form.

Canonicalization rules: keys sorted, compact separators, exact rationals as
"num/den" strings (never floats), reals rounded to 15 significant digits
before encoding; a non-finite real, or a nonzero one that underflows to
0.0 or a subnormal, is a NumericError, not a report.
Identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

from .errors import NumericError
from .scalars import QQi

TOOL_VERSION = "0.1.0"


def to_float(value):
    """A real (a Decimal or a float) as a double.  A nonzero value that becomes
    0.0 or a subnormal is a NumericError: like a non-finite one, it would be
    a silently wrong number."""
    x = float(value)
    if value and abs(x) < sys.float_info.min:
        raise NumericError(f"result {value} underflows the double range")
    return x


def _canon_float(value):
    if not math.isfinite(value):
        raise NumericError(f"result {value!r} is not a finite number")
    return float(format(value, ".15g"))


# the canonical form of a value by its type, or by the first of its bases listed
_CANON = {
    str: str, int: int, bool: bool, type(None): lambda v: v, float: _canon_float,
    Fraction: lambda v: f"{v.numerator}/{v.denominator}", QQi: QQi.serialize,
    Decimal: lambda v: _canon_float(to_float(v)),
    complex: lambda v: {"re": _canon_float(v.real), "im": _canon_float(v.imag)},
    dict: lambda v: {k if isinstance(k, str) else str(_canon(k)): _canon(x) for k, x in v.items()},
    list: lambda v: [_canon(x) for x in v], tuple: lambda v: [_canon(x) for x in v],
}


def _canon(value):
    canon = _CANON.get(type(value)) or next(
        (_CANON[t] for t in type(value).__mro__ if t in _CANON), None)
    return str(value) if canon is None else canon(value)


def input_hash(*chunks) -> str:
    try:  # CPython's own sha256, without loading hashlib's OpenSSL bindings
        from _sha256 import sha256
    except ImportError:  # Python 3.12+ and other interpreters
        from hashlib import sha256

    h = sha256()
    for chunk in chunks:
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8")
        h.update(chunk)
        h.update(b"\x00")
    return h.hexdigest()


class ReportDocument(namedtuple(
        "ReportDocument", "command arguments payload source_hash seed tool_version provenance",
        defaults=("", None, TOOL_VERSION, None))):
    __slots__ = ()

    def body(self):
        return {
            "tool_version": self.tool_version,
            "command": self.command,
            "arguments": _canon(self.arguments),
            "input_hash": self.source_hash,
            "seed": self.seed,
            "provenance": _canon(self.provenance or {}),
            "result": _canon(self.payload),
        }

    def to_json(self) -> bytes:
        return json.dumps(
            self.body(), sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")

    def to_text(self) -> str:
        lines = []

        def walk(prefix, value):
            if isinstance(value, dict):
                for k in sorted(value):
                    walk(f"{prefix}{k}." if prefix else f"{k}.", value[k])
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    walk(f"{prefix}{i}.", v)
            else:
                lines.append(f"{prefix.rstrip('.')} = {value}")

        walk("", self.body())
        return "\n".join(lines) + "\n"


def emit_report(report: ReportDocument, fmt="json") -> bytes:
    if fmt == "json":
        return report.to_json()
    if fmt == "text":
        return report.to_text().encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")
