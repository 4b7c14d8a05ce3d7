"""Scenario files: schema validation, parsing, and engine-input construction.

A scenario is a JSON document described by ``schemas/scenario.schema.json``
(``schema_version`` ``"1"``).  Loading checks it once and keeps the engine
input of its kind in ``Scenario.terms``.  Four kinds are supported:

``general``
    Collateralised lending against an uncertain forward value; ``terms``
    carries the repurchase price, either directly (``repurchase_price``)
    or as a multiple of the per-period forward standard deviation below
    the forward mean (``sigma_multiple``); loaded as the price.
``special_lender``
    Security-lender quote for a specific-collateral loan; same ``terms``
    shape as ``general``.
``special_relations``
    Algebraic consistency between general and special terms; ``terms``
    carries ``general_haircut``, ``general_rate`` and at least one of
    ``special_haircut`` / ``special_rate``; loaded as SpecialRepoRelations.
``dealer``
    Nine-step dealer financing ledger; ``terms`` carries the full set of
    dealer inputs, with ``fed_fee`` either a money amount or the string
    ``"max"`` (resolved to the largest fee the closing leg can absorb);
    loaded as a DealerScenario.

Conventions enforced here:

* every rate in a scenario file is **per annum**; engines work with
  per-period rates, so loading converts by ``tenor_days / day_count``;
* unknown fields are rejected at every level (schema
  ``additionalProperties: false``), so typos fail loudly instead of being
  silently ignored;
* an ``mc`` section (sampling size and seed for the simulation
  cross-check) is only meaningful for ``general`` and ``special_lender``
  scenarios and is rejected elsewhere.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .dealer import DealerScenario
from .errors import ParseError, ValidationError
from .general_repo import MarketParams, strike_from_sigma_multiple
from .special_repo import SpecialRepoRelations, build_special_relations, max_fed_fee

#: Relative tolerance for the dealer-market consistency check
#: ``spot_price == note_count * note_spot``.
MARKET_CONSISTENCY_RTOL = 1e-9


@cache
def _load_packaged_schema(name: str) -> Mapping[str, Any]:
    text = resources.files("repo_options").joinpath("schemas", name).read_text("utf-8")
    return json.loads(text)


def scenario_schema() -> Mapping[str, Any]:
    """Return the packaged scenario JSON schema (version 1)."""

    return _load_packaged_schema("scenario.schema.json")


def report_schema() -> Mapping[str, Any]:
    """Return the packaged report JSON schema (version 1)."""

    return _load_packaged_schema("report.schema.json")


@dataclass(frozen=True)
class McSettings:
    """Simulation cross-check settings from a scenario's ``mc`` section."""

    n: int
    seed: int


@dataclass(frozen=True)
class Scenario:
    """A checked scenario: typed market, engine input of its kind (per-period rates),
    optional MC settings, and the decoded document (``raw``) that reports echo."""

    kind: str
    market: MarketParams
    currency: str
    terms: float | SpecialRepoRelations | DealerScenario
    mc: McSettings | None
    raw: Mapping[str, Any]


# Validation interprets exactly the JSON Schema (Draft 2020-12) keywords the
# scenario schema uses, and refuses a schema with any other when it loads it.
_KEYWORDS = frozenset({
    "$schema", "$id", "title", "description", "$defs", "type", "enum", "const", "minimum",
    "maximum", "exclusiveMinimum", "exclusiveMaximum", "minLength", "required", "properties",
    "additionalProperties", "allOf", "anyOf", "oneOf", "not", "if", "then", "$ref"})
_TYPES = {"object": dict, "string": str, "number": (int, float), "integer": int}
_BOUNDS = {"minimum": operator.lt, "maximum": operator.gt,
           "exclusiveMinimum": operator.le, "exclusiveMaximum": operator.ge}


def _refuse_unsupported(schema: Any, defs: Mapping[str, Any]) -> None:
    if not isinstance(schema, dict):
        raise NotImplementedError(f"scenario schema: boolean subschema {schema!r}")
    unsupported = sorted(schema.keys() - _KEYWORDS)
    if str(schema.get("type", "object")) not in _TYPES:
        unsupported.append(f"type {schema['type']!r}")
    if schema.get("additionalProperties", False) is not False:
        unsupported.append("additionalProperties other than false")
    if "$ref" in schema and schema["$ref"] not in {f"#/$defs/{name}" for name in defs}:
        unsupported.append(f"$ref {schema['$ref']!r}")
    if unsupported:
        raise NotImplementedError(f"scenario schema uses unsupported {', '.join(unsupported)}")
    nested = [schema[key] for key in ("not", "if", "then") if key in schema]
    nested += [*schema.get("allOf", []), *schema.get("anyOf", []), *schema.get("oneOf", [])]
    nested += [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values()]
    for sub in nested:
        _refuse_unsupported(sub, defs)


@cache
def _checked_schema() -> Mapping[str, Any]:
    schema = scenario_schema()
    _refuse_unsupported(schema, schema.get("$defs", {}))
    return schema


def _is_type(x: Any, name: str) -> bool:
    # a bool is no number; an integral float such as 30.0 is an integer
    return not isinstance(x, bool) and (isinstance(x, _TYPES[name]) or (
        name == "integer" and isinstance(x, float) and x.is_integer()))


def _valid(schema: Mapping[str, Any], x: Any) -> bool:
    errors: list = []
    _walk(schema, x, (), errors)
    return all(keyword is None for _, keyword, _ in errors)


def _walk(schema: Mapping[str, Any], x: Any, path: tuple, out: list) -> None:
    """Append ``(path, keyword, message)`` for each way ``x`` breaks ``schema``, and
    keyword None for an integer no float can hold (the engines compute in floats)."""

    if type(x) is int and abs(x) > sys.float_info.max:
        out.append((path, None, "integer beyond the float range"))
    for key, value in schema.items():
        if key == "type":
            if not _is_type(x, value):
                out.append((path, key, f"{x!r} is not of type {value!r}"))
        elif key in ("enum", "const"):
            # JSON equality: 360.0 equals 360, but true is not 1
            options = value if key == "enum" else [value]
            if not any(x == v and isinstance(x, bool) == isinstance(v, bool) for v in options):
                out.append((path, key, f"{x!r} is not one of {options!r}"))
        elif key in _BOUNDS:
            if _is_type(x, "number") and _BOUNDS[key](x, value):
                out.append((path, key, f"{x!r} breaks {key} {value!r}"))
        elif key == "minLength":
            if isinstance(x, str) and len(x) < value:
                out.append((path, key, f"{x!r} is too short"))
        elif not isinstance(x, dict) and key in ("required", "properties", "additionalProperties"):
            continue
        elif key == "required":
            out += [(path, key, f"{k!r} is a required property") for k in value if k not in x]
        elif key == "properties":
            for k, sub in value.items():
                if k in x:
                    _walk(sub, x[k], (*path, k), out)
        elif key == "additionalProperties":
            extras = sorted((k for k in x if k not in schema.get("properties", ())), key=str)
            if extras:
                out.append((path, key, f"properties {', '.join(map(repr, extras))} not allowed"))
        elif key == "allOf":
            for sub in value:
                _walk(sub, x, path, out)
        elif key in ("anyOf", "oneOf"):
            passed = sum(_valid(sub, x) for sub in value)
            if passed == 0 or key == "oneOf" and passed > 1:
                out.append((path, key, f"{x!r} matches {passed} of its {key} schemas"))
        elif key == "not":
            if _valid(value, x):
                out.append((path, key, f"{x!r} should not be valid under {value!r}"))
        elif key == "if":
            if "then" in schema and _valid(value, x):
                _walk(schema["then"], x, path, out)
        elif key == "$ref":
            _walk(_checked_schema()["$defs"][value.removeprefix("#/$defs/")], x, path, out)


def validate_scenario_data(data: Any) -> None:
    """Validate a decoded scenario document against the packaged schema.

    Raises :class:`ValidationError` at the JSON pointer ``jsonschema.best_match``
    picks (shallowest, then greatest path, then not anyOf/oneOf); an integer
    no float can hold ranks below every schema violation.
    """

    errors: list = []
    _walk(_checked_schema(), data, (), errors)
    if errors:
        path, _, message = max(errors, key=lambda e: (
            e[1] is not None, -len(e[0]), e[0], e[1] not in ("anyOf", "oneOf")))
        raise ValidationError(f"scenario rejected at /{'/'.join(path)}: {message}")


def parse_scenario(data: Any) -> Scenario:
    """Validate a decoded JSON document and build a typed :class:`Scenario`."""

    validate_scenario_data(data)

    market_raw = data["market"]
    currency = market_raw.get("currency", "USD")
    market = MarketParams(
        spot_price=float(market_raw["spot_price"]),
        intrinsic_yield=float(market_raw["intrinsic_yield"]),
        volatility=float(market_raw["volatility"]),
        tenor_days=int(market_raw["tenor_days"]),
        risk_free_rate=float(market_raw["risk_free_rate"]),
        day_count=int(market_raw["day_count"]),
    )

    kind = data["kind"]
    mc = None
    if "mc" in data:
        if kind not in ("general", "special_lender"):
            raise ValidationError(
                "scenario rejected at /mc: simulation settings only apply to "
                "'general' and 'special_lender' scenarios"
            )
        mc = McSettings(n=int(data["mc"]["n"]), seed=int(data["mc"]["seed"]))

    return Scenario(
        kind=kind,
        market=market,
        currency=currency,
        terms=_engine_input(kind, market, data["terms"]),
        mc=mc,
        raw=data,
    )


def _engine_input(kind: str, market: MarketParams,
                  terms: Mapping[str, Any]) -> float | SpecialRepoRelations | DealerScenario:
    """The input the engine prices for ``kind``, with per-annum rates made per period."""

    if kind in ("general", "special_lender"):
        if "repurchase_price" in terms:
            return float(terms["repurchase_price"])
        return strike_from_sigma_multiple(market, float(terms["sigma_multiple"]))
    rates = {name: float(terms[name]) * market.period_years
             for name in ("general_rate", "special_rate") if name in terms}
    if kind == "special_relations":
        haircut = terms.get("special_haircut")
        return build_special_relations(
            market.spot_price, float(terms["general_haircut"]), rates["general_rate"],
            special_haircut=None if haircut is None else float(haircut),
            special_rate=rates.get("special_rate"))
    note_count = int(terms["note_count"])
    note_spot = float(terms["note_spot"])
    implied, spot = note_count * note_spot, market.spot_price
    if abs(spot - implied) > MARKET_CONSISTENCY_RTOL * max(abs(spot), abs(implied)):
        raise ValidationError(
            "scenario rejected at /market/spot_price: expected "
            f"note_count * note_spot = {implied!r}, got {spot!r}"
        )
    fee = terms["fed_fee"]
    special_haircut = float(terms["special_haircut"])
    return DealerScenario(
        note_count=note_count,
        note_spot=note_spot,
        intermediate_price=float(terms["intermediate_price"]),
        special_rate=rates["special_rate"],
        general_rate=rates["general_rate"],
        special_haircut=special_haircut,
        general_haircut=float(terms["general_haircut"]),
        fed_fee=max_fed_fee(implied, special_haircut, rates["general_rate"],
                            rates["special_rate"]) if fee == "max" else float(fee),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read, decode and validate a scenario file.

    File-system and JSON-syntax problems raise :class:`ParseError` (exit
    code 2); schema and semantic violations raise :class:`ValidationError`
    (exit code 3).
    """

    try:
        text = Path(path).read_text("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal longer than sys.get_int_max_str_digits()
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return parse_scenario(data)
