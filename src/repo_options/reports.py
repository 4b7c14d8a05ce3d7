"""Report documents: structured results plus JSON / CSV / table rendering.

A report is a plain mapping described by ``schemas/report.schema.json``
(``schema_version`` ``"1"``): provenance (tool, version, optional seed —
deliberately no timestamps, so identical inputs give byte-identical JSON),
an echo of the inputs, the computed outputs, and an optional ``oracle``
section comparing closed-form values against the simulation estimator.

Rendering rules:

* JSON uses sorted keys and two-space indentation; floats serialise via
  ``repr`` (shortest round-trip form), so JSON and CSV carry identical
  numeric values at full precision.  The text is written here, in one walk,
  and is byte-identical to ``json.dumps(sort_keys=True, indent=2,
  ensure_ascii=False)``, which falls back to ``json``'s slower pure-Python
  encoder whenever it indents;
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

import json
from collections.abc import Callable, Mapping
from math import isfinite
from operator import itemgetter
from typing import Any

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


_encode_str = json.encoder.encode_basestring
_float_repr = float.__repr__
_int_repr = int.__repr__


def _json_float(value: float) -> str:
    if isfinite(value):
        return _float_repr(value)
    raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")


def _json_key(key: Any) -> str:
    """A dict key as ``json`` coerces it: only str, float, bool, None and int."""
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, float):
        return _encode_str(_json_float(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _encode_str(_int_repr(key))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _write_dict(value: dict, out: list[str], newline: str) -> None:
    if not value:
        out.append("{}")
        return
    inner = newline + "  "
    sep = "{" + inner
    for key, item in sorted(value.items()):
        key = _encode_str(key) if type(key) is str else _json_key(key)
        cls = type(item)
        if cls is float and isfinite(item):
            out.append(f"{sep}{key}: {_float_repr(item)}")
        elif cls is str:
            out.append(f"{sep}{key}: {_encode_str(item)}")
        else:
            out.append(f"{sep}{key}: ")
            _write_json(item, out, inner)
        sep = "," + inner
    out.append(newline + "}")


def _write_list(value: list | tuple, out: list[str], newline: str) -> None:
    if not value:
        out.append("[]")
        return
    inner = newline + "  "
    sep = "[" + inner
    for item in value:
        out.append(sep)
        _write_json(item, out, inner)
        sep = "," + inner
    out.append(newline + "]")


def _write_json(value: Any, out: list[str], newline: str) -> None:
    """Append ``value``'s JSON text to ``out``; ``newline`` starts a line at its depth.

    The text is what ``json.dumps(sort_keys=True, indent=2, ensure_ascii=False,
    allow_nan=False)`` writes.  Exact types take the fast paths; any other value
    goes through ``json``'s own ``isinstance`` order, so subclasses render as
    they do there.
    """
    cls = type(value)
    if cls is float:
        out.append(_json_float(value))
    elif cls is str:
        out.append(_encode_str(value))
    elif cls is dict:
        _write_dict(value, out, newline)
    elif cls is list:
        _write_list(value, out, newline)
    elif isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(_int_repr(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        _write_list(value, out, newline)
    elif isinstance(value, dict):
        _write_dict(value, out, newline)
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def to_json(doc: Mapping[str, Any]) -> str:
    """Serialise a report deterministically (sorted keys, trailing newline)."""

    out: list[str] = []
    try:
        _write_json(doc, out, "\n")
    except ValueError:
        for path, value in _rows(doc):
            if isinstance(value, float) and not isfinite(value):
                raise _non_finite(path, value) from None
        raise
    out.append("\n")
    return "".join(out)


#: Leaf types ``flatten`` appends without a call of its own.
_SCALARS = frozenset((float, str, int, bool, type(None)))


def _flatten_into(value: Any, prefix: str, rows: list[tuple[str, Any]]) -> None:
    if type(value) is dict or isinstance(value, Mapping):
        items = [(f"{prefix}.{key}" if prefix else str(key), value[key]) for key in sorted(value)]
    elif isinstance(value, (list, tuple)):
        items = [(f"{prefix}[{i}]", item) for i, item in enumerate(value)]
    else:
        rows.append((prefix, value))
        return
    for path, item in items:
        if type(item) in _SCALARS:
            rows.append((path, item))
        else:
            _flatten_into(item, path, rows)


def flatten(value: Any, prefix: str = "") -> list[tuple[str, Any]]:
    """Flatten nested dicts/lists into ``(dotted.path[index], scalar)`` rows."""

    rows: list[tuple[str, Any]] = []
    _flatten_into(value, prefix, rows)
    return rows


def _rows(doc: Mapping[str, Any]) -> list[tuple[str, Any]]:
    rows = flatten(doc)
    rows.sort(key=itemgetter(0))
    return rows


def _cell(path: str, value: Any, none: str, number: Callable[[float], str]) -> str:
    """One rendered scalar; ``none`` and ``number`` are the format's text for None and floats."""
    if isinstance(value, float):
        if isfinite(value):
            return number(value)
        raise _non_finite(path, value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return none
    return str(value)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer(lineterminator="\\n")`` writes it: quoted, with ``"``
    doubled, when it holds ``,``, ``"`` or ``\\n``; ``\\r`` alone is not quoted."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def to_csv(doc: Mapping[str, Any]) -> str:
    """Render a report as sorted ``field,value`` rows at full precision."""

    lines = ["field,value"]
    lines += [f"{_csv_field(path)},{_csv_field(_cell(path, value, '', repr))}"
              for path, value in _rows(doc)]
    return "\n".join(lines) + "\n"


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
