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
from dataclasses import dataclass, field, is_dataclass, asdict
from fractions import Fraction

from .errors import NumericError
from .scalars import QQi

TOOL_VERSION = "0.1.0"


def to_float(value):
    """A real (an mpf or a float) as a double.  A nonzero value that becomes
    0.0 or a subnormal is a NumericError: like a non-finite one, it would be
    a silently wrong number."""
    x = float(value)
    if value and abs(x) < sys.float_info.min:
        raise NumericError(f"result {value} underflows the double range")
    return x


def _canon(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, QQi):
        return value.serialize()
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NumericError(f"result {value!r} is not a finite number")
        return float(format(value, ".15g"))
    if isinstance(value, complex):
        return {"re": _canon(value.real), "im": _canon(value.imag)}
    if isinstance(value, dict):
        return {str(_canon(k)) if not isinstance(k, str) else k: _canon(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if is_dataclass(value) and not isinstance(value, type):
        return _canon(asdict(value))
    if value is None or isinstance(value, str):
        return value
    if hasattr(value, "_mpf_") or hasattr(value, "_mpc_"):
        return _canon(complex(value)) if hasattr(value, "_mpc_") else _canon(to_float(value))
    return str(value)


def input_hash(*chunks) -> str:
    import hashlib

    h = hashlib.sha256()
    for chunk in chunks:
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8")
        h.update(chunk)
        h.update(b"\x00")
    return h.hexdigest()


@dataclass
class ReportDocument:
    command: str
    arguments: dict
    payload: dict
    source_hash: str = ""
    seed: object = None
    tool_version: str = TOOL_VERSION
    provenance: dict = field(default_factory=dict)

    def body(self):
        return {
            "tool_version": self.tool_version,
            "command": self.command,
            "arguments": _canon(self.arguments),
            "input_hash": self.source_hash,
            "seed": self.seed,
            "provenance": _canon(self.provenance),
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
