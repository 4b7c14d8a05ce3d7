"""Report documents: structured results plus JSON / CSV / table rendering.

A report is a plain mapping described by ``schemas/report.schema.json``
(``schema_version`` ``"1"``): provenance (tool, version, optional seed —
deliberately no timestamps, so identical inputs give byte-identical JSON),
an echo of the inputs, the computed outputs, and an optional ``oracle``
section comparing closed-form values against the simulation estimator.

Rendering rules:

* JSON uses sorted keys and two-space indentation; floats serialise via
  ``repr`` (shortest round-trip form), so JSON and CSV carry identical
  numeric values at full precision;
* CSV is a flat two-column ``field,value`` listing with dotted/indexed
  paths, sorted by path;
* the table format is for human eyes only: same rows as CSV, numbers
  shortened to 10 significant digits;
* every format refuses a non-finite number (``inf``, ``nan``) with a
  :class:`PricingError` naming its path, so a report never carries a
  value that strict JSON parsers reject or that the model cannot give.

Every interest rate in a report is an object ``{value, basis, ...}`` —
per-annum rates carry their ``day_count``, per-period rates their
``tenor_days`` — so a bare number can never be mistaken for the wrong
compounding basis.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Callable, Mapping

from . import __version__
from .errors import PricingError, ValidationError

REPORT_SCHEMA_VERSION = "1"

FORMATS = ("json", "csv", "table")


def rate_per_annum(value: float, day_count: int) -> dict[str, Any]:
    """Tag a per-annum simple rate with its day-count basis."""

    return {"value": float(value), "basis": "per_annum", "day_count": int(day_count)}


def rate_per_period(value: float, tenor_days: int) -> dict[str, Any]:
    """Tag a per-period simple rate with the period length in days."""

    return {"value": float(value), "basis": "per_period", "tenor_days": int(tenor_days)}


def build_report(
    *,
    command: str,
    inputs: Mapping[str, Any],
    outputs: Mapping[str, Any],
    oracle: Mapping[str, Any] | None = None,
    seed: int | None = None,
) -> dict[str, Any]:
    """Assemble a schema-version-1 report document."""

    provenance: dict[str, Any] = {
        "tool": "repo-options",
        "version": __version__,
        "command": command,
        "seed": seed,
    }
    doc: dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "provenance": provenance,
        "inputs": dict(inputs),
        "outputs": dict(outputs),
    }
    if oracle is not None:
        doc["oracle"] = dict(oracle)
    return doc


def _non_finite(path: str, value: float) -> PricingError:
    return PricingError(f"report value {path} is {value!r}, not a finite number")


def to_json(doc: Mapping[str, Any]) -> str:
    """Serialise a report deterministically (sorted keys, trailing newline)."""

    try:
        text = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)
    except ValueError:
        for path, value in _rows(doc):
            if isinstance(value, float) and not math.isfinite(value):
                raise _non_finite(path, value) from None
        raise
    return text + "\n"


def flatten(value: Any, prefix: str = "") -> list[tuple[str, Any]]:
    """Flatten nested dicts/lists into ``(dotted.path[index], scalar)`` rows."""

    if isinstance(value, Mapping):
        rows: list[tuple[str, Any]] = []
        for key in sorted(value):
            path = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(flatten(value[key], path))
        return rows
    if isinstance(value, (list, tuple)):
        rows = []
        for i, item in enumerate(value):
            rows.extend(flatten(item, f"{prefix}[{i}]"))
        return rows
    return [(prefix, value)]


def _rows(doc: Mapping[str, Any]) -> list[tuple[str, Any]]:
    return sorted(flatten(doc), key=lambda item: item[0])


def _cell(path: str, value: Any, none: str, number: Callable[[float], str]) -> str:
    """One rendered scalar; ``none`` and ``number`` are the format's text for None and floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return none
    if isinstance(value, float):
        if math.isfinite(value):
            return number(value)
        raise _non_finite(path, value)
    return str(value)


def to_csv(doc: Mapping[str, Any]) -> str:
    """Render a report as sorted ``field,value`` rows at full precision."""

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["field", "value"])
    for path, value in _rows(doc):
        writer.writerow([path, _cell(path, value, "", repr)])
    return buffer.getvalue()


def to_table(doc: Mapping[str, Any]) -> str:
    """Render a report as an aligned two-column table (human-readable)."""

    rows = _rows(doc)
    width = max((len(path) for path, _ in rows), default=0)
    number = "{:.10g}".format
    lines = [f"{path.ljust(width)}  {_cell(path, value, '-', number)}" for path, value in rows]
    return "\n".join(lines) + "\n"


def render(doc: Mapping[str, Any], fmt: str) -> str:
    """Render a report in one of the supported output formats."""

    if fmt == "json":
        return to_json(doc)
    if fmt == "csv":
        return to_csv(doc)
    if fmt == "table":
        return to_table(doc)
    raise ValidationError(f"unknown output format {fmt!r}; expected one of {FORMATS}")
