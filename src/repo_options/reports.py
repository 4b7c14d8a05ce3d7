"""Report documents: structured results plus JSON / CSV / table rendering.

A report is a ``dict`` described by ``schemas/report.schema.json``
(``schema_version`` ``"1"``): provenance (tool, version, optional seed —
deliberately no timestamps, so identical inputs give byte-identical JSON),
an echo of the inputs, the computed outputs, and an optional ``oracle``
section comparing closed-form values against the simulation estimator.

Data model: a report holds str-keyed ``dict``, ``list``, ``str``, ``float``,
``int``, ``bool`` and ``None``, each of exactly that type, as decoded JSON
does.  Every format refuses the first value in path order that is anything
else (a tuple, a ``Mapping`` that is not a ``dict``, a numpy scalar, a
subclass) with ``TypeError``, or that is a non-finite float (``inf``,
``nan``) with :class:`PricingError`, naming its path; so a report never
carries a value that strict JSON parsers reject or that the model cannot give.
A ``dict`` holding a key that is not a ``str`` is refused with ``TypeError``
naming the dict's path, before any value is looked at.

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
  shortened to 10 significant digits.

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
from .errors import PricingError, ValidationError, short_repr

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
    """Assemble a schema-version-1 report document.

    The provenance ``seed`` is ``seed``, or else the ``oracle`` section's seed.
    """

    if seed is None and oracle is not None:
        seed = oracle.get("seed")
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


_encode_str = json.encoder.encode_basestring
_float_repr = float.__repr__
_int_repr = int.__repr__


def _write_dict(value: dict, out: list[str], newline: str) -> None:
    if not value:
        out.append("{}")
        return
    inner = newline + "  "
    sep = "{" + inner
    for key, item in sorted(value.items()):
        key = _encode_str(key)
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


def _write_list(value: list, out: list[str], newline: str) -> None:
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
    allow_nan=False)`` writes.  A non-finite float or a value outside the data
    model raises ``TypeError``; :func:`to_json` then finds and names it.
    """
    cls = type(value)
    if cls is float and isfinite(value):
        out.append(_float_repr(value))
    elif cls is str:
        out.append(_encode_str(value))
    elif cls is dict:
        _write_dict(value, out, newline)
    elif cls is list:
        _write_list(value, out, newline)
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif cls is int:
        out.append(_int_repr(value))
    else:
        raise TypeError(f"{cls.__name__} is not a finite report value")


def to_json(doc: dict[str, Any]) -> str:
    """Serialise a report deterministically (sorted keys, trailing newline).

    Refuses a value outside the data model with ``TypeError``, and a non-finite
    float with :class:`PricingError`, naming its path as CSV and table do.
    """

    out: list[str] = []
    try:
        _write_json(doc, out, "\n")
    except TypeError:
        for path, value in _rows(doc):
            _cell(path, value, "", repr)
        raise
    out.append("\n")
    return "".join(out)


#: Leaf types ``flatten`` appends without a call of its own.
_SCALARS = frozenset((float, str, int, bool, type(None)))


def _flatten_into(value: Any, prefix: str, rows: list[tuple[str, Any]]) -> None:
    cls = type(value)
    if cls is dict:
        head = prefix + "." if prefix else ""
        try:  # a key that is not a str fails the sort or the join
            items = [(head + key, value[key]) for key in sorted(value)]
        except TypeError:
            raise TypeError(f"report value {prefix} has a key that is not a str, "
                            "which a report cannot hold") from None
    elif cls is list:
        items = [(f"{prefix}[{i}]", item) for i, item in enumerate(value)]
    else:
        rows.append((prefix, value))
        return
    for path, item in items:
        if type(item) in _SCALARS:
            rows.append((path, item))
        else:
            _flatten_into(item, path, rows)


def flatten(value: Any) -> list[tuple[str, Any]]:
    """Flatten nested dicts/lists (exact types only) into ``(dotted.path[index], value)`` rows."""

    rows: list[tuple[str, Any]] = []
    _flatten_into(value, "", rows)
    return rows


def _rows(doc: dict[str, Any]) -> list[tuple[str, Any]]:
    rows = flatten(doc)
    rows.sort(key=itemgetter(0))
    return rows


def _cell(path: str, value: Any, none: str, number: Callable[[float], str]) -> str:
    """One rendered scalar; ``none`` and ``number`` are the format's text for None and
    floats.  A value outside the data model raises ``TypeError`` naming ``path``."""
    cls = type(value)
    if cls is float:
        if isfinite(value):
            return number(value)
        raise PricingError(f"report value {path} is {value!r}, not a finite number")
    if cls is str:
        return value
    if cls is int:
        return _int_repr(value)
    if cls is bool:
        return "true" if value else "false"
    if value is None:
        return none
    raise TypeError(f"report value {path} is of type {cls.__name__}, which a report cannot hold")


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it: quoted, with ``"`` doubled, when it
    holds ``,``, ``"``, ``\\n`` or ``\\r``."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def to_csv(doc: dict[str, Any]) -> str:
    """Render a report as sorted ``field,value`` rows at full precision."""

    lines = ["field,value"]
    lines += [f"{_csv_field(path)},{_csv_field(_cell(path, value, '', repr))}"
              for path, value in _rows(doc)]
    return "\n".join(lines) + "\n"


def to_table(doc: dict[str, Any]) -> str:
    """Render a report as an aligned two-column table (human-readable)."""

    rows = _rows(doc)
    width = max((len(path) for path, _ in rows), default=0)
    number = "{:.10g}".format
    lines = [f"{path.ljust(width)}  {_cell(path, value, '-', number)}" for path, value in rows]
    return "\n".join(lines) + "\n"


def render(doc: dict[str, Any], fmt: str) -> str:
    """Render a report in one of the supported output formats."""

    if fmt == "json":
        return to_json(doc)
    if fmt == "csv":
        return to_csv(doc)
    if fmt == "table":
        return to_table(doc)
    raise ValidationError(f"unknown output format {short_repr(fmt)}; expected one of {FORMATS}")
