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
    ``"max"`` (resolved to the largest fee the closing leg can absorb, and
    refused when that is negative: a special rate above the general rate
    funds no fee); loaded as a DealerScenario.

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
from functools import cache
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

from .dealer import DealerScenario
from .errors import ParseError, ValidationError, capped_path, short_repr
from .general_repo import MarketParams, strike_from_sigma_multiple
from .special_repo import SpecialRepoRelations, build_special_relations, max_fed_fee

#: Relative tolerance for the dealer-market consistency check
#: ``spot_price == note_count * note_spot``.
MARKET_CONSISTENCY_RTOL = 1e-9


def _read_json(path: str | Path) -> Any:
    """Decode the JSON document in a UTF-8 file; every way that fails is a
    :class:`ParseError` naming ``path`` (``errors.capped_path``).  A string holding
    a lone surrogate (I-JSON, RFC 7493 section 2.1) is refused, since no format
    could print it."""

    name = capped_path(str(path))
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
        data = json.loads(text)
        if "\\u" in text:  # only a \u escape decodes to a surrogate; UTF-8 refuses a lone one
            json.dumps(data, ensure_ascii=False).encode("utf-8")
    except OSError as exc:  # its strerror, since str(exc) repeats the whole path
        raise ParseError(f"cannot read {name}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON in {name} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeEncodeError as exc:
        raise ParseError(
            f"invalid JSON in {name}: a string holds the lone surrogate {exc.object[exc.start]!r}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, an integer literal longer than
        # sys.get_int_max_str_digits(), or nesting past the recursion limit
        raise ParseError(f"invalid JSON in {name}: {exc}") from exc
    return data


@cache
def _load_packaged_schema(name: str) -> Mapping[str, Any]:
    return _read_json(Path(__file__).with_name("schemas") / name)


def scenario_schema() -> Mapping[str, Any]:
    """Return the packaged scenario JSON schema (version 1)."""

    return _load_packaged_schema("scenario.schema.json")


def report_schema() -> Mapping[str, Any]:
    """Return the packaged report JSON schema (version 1)."""

    return _load_packaged_schema("report.schema.json")


class McSettings(NamedTuple):
    """Simulation cross-check settings from a scenario's ``mc`` section."""

    n: int
    seed: int


class Scenario(NamedTuple):
    """A checked scenario: typed market, engine input of its kind (per-period rates),
    optional MC settings, and the decoded document (``raw``) that reports echo."""

    kind: str
    market: MarketParams
    currency: str
    terms: float | SpecialRepoRelations | DealerScenario
    mc: McSettings | None
    raw: Mapping[str, Any]


# Validation compiles the JSON Schema (Draft 2020-12) keywords the scenario schema uses
# into check closures, once per process; test_packaged_schema_uses_only_interpreted_keywords
# pins that set.  A check appends ``(path, keyword, message)`` for each way ``x`` breaks its
# subschema, in the subschema's key order, and keyword None for an integer no float can
# hold (the engines compute in floats).  A bool is no number; 30.0 is an integer.
_Check = Callable[[Any, tuple, list], None]
_TYPES = {"object": dict, "string": str, "number": (int, float), "integer": int}
_BOUNDS = {"minimum": operator.lt, "maximum": operator.gt,
           "exclusiveMinimum": operator.le, "exclusiveMaximum": operator.ge}


def _passes(check: _Check, x: Any) -> bool:
    errors: list = []
    check(x, (), errors)
    return not errors or all(keyword is None for _, keyword, _ in errors)


def _compile(schema: Mapping[str, Any], ref: Callable[[str], _Check]) -> _Check:
    """The check of ``schema``; ``ref(name)`` is the check of ``$defs`` entry ``name``."""

    checks: list[_Check] = []
    for key, value in schema.items():
        if key == "type":
            def check(x, path, out, cls=_TYPES[value], integral=value == "integer",
                      text=f" is not of type {value!r}"):
                if x is True or x is False or not (isinstance(x, cls) or integral
                                                   and isinstance(x, float) and x.is_integer()):
                    out.append((path, "type", short_repr(x) + text))
        elif key in ("enum", "const"):
            # JSON equality: 360.0 equals 360, but true is not 1
            options = value if key == "enum" else [value]

            def check(x, path, out, key=key, text=f" is not one of {options!r}",
                      bools=tuple(v for v in options if isinstance(v, bool)),
                      others=tuple(v for v in options if not isinstance(v, bool))):
                if x not in (bools if x is True or x is False else others):
                    out.append((path, key, short_repr(x) + text))
        elif key in _BOUNDS:
            def check(x, path, out, key=key, bound=value, breaks=_BOUNDS[key],
                      text=f" breaks {key} {value!r}"):
                if x is not True and x is not False and isinstance(x, (int, float)) \
                        and breaks(x, bound):
                    out.append((path, key, short_repr(x) + text))
        elif key == "minLength":
            def check(x, path, out, least=value):
                if isinstance(x, str) and len(x) < least:
                    out.append((path, "minLength", f"{short_repr(x)} is too short"))
        elif key == "required":
            def check(x, path, out, names=value, needed=frozenset(value)):
                if isinstance(x, dict) and not x.keys() >= needed:
                    out += [(path, "required", f"{k!r} is a required property")
                            for k in names if k not in x]
        elif key == "properties":
            def check(x, path, out, subs=[(k, _compile(s, ref)) for k, s in value.items()]):
                if isinstance(x, dict):
                    for k, sub in subs:
                        if k in x:
                            sub(x[k], (*path, k), out)
        elif key == "additionalProperties":
            def check(x, path, out, allowed=frozenset(schema.get("properties", ()))):
                if isinstance(x, dict) and not x.keys() <= allowed:
                    extras = sorted((k for k in x if k not in allowed), key=str)
                    out.append((path, "additionalProperties",
                                f"properties {', '.join(map(short_repr, extras))} not allowed"))
        elif key == "allOf":
            def check(x, path, out, subs=[_compile(s, ref) for s in value]):
                for sub in subs:
                    sub(x, path, out)
        elif key in ("anyOf", "oneOf"):
            def check(x, path, out, key=key, subs=[_compile(s, ref) for s in value]):
                passed = sum(_passes(sub, x) for sub in subs)
                if passed == 0 or key == "oneOf" and passed > 1:
                    out.append((path, key, f"{short_repr(x)} matches {passed} of its {key} "
                                           "schemas"))
        elif key == "not":
            def check(x, path, out, sub=_compile(value, ref),
                      text=f" should not be valid under {value!r}"):
                if _passes(sub, x):
                    out.append((path, "not", short_repr(x) + text))
        elif key == "if" and "then" in schema:
            def check(x, path, out, cond=_compile(value, ref), then=_compile(schema["then"], ref)):
                if _passes(cond, x):
                    then(x, path, out)
        elif key == "$ref":
            check = ref(value.removeprefix("#/$defs/"))
        else:  # "then" (read with "if"), "$defs" (through "$ref") and annotations
            continue
        checks.append(check)

    def node(x: Any, path: tuple, out: list, checks: tuple[_Check, ...] = tuple(checks)) -> None:
        if type(x) is int and abs(x) > sys.float_info.max:
            out.append((path, None, "integer beyond the float range"))
        for check in checks:
            check(x, path, out)

    return node


@cache
def _scenario_check() -> _Check:
    """The packaged scenario schema, compiled once; so is each ``$defs`` entry it references."""
    defs = scenario_schema()["$defs"]
    ref = cache(lambda name: _compile(defs[name], ref))
    return _compile(scenario_schema(), ref)


def validate_scenario_data(data: Any) -> None:
    """Validate a decoded scenario document against the packaged schema.

    Raises :class:`ValidationError` at the JSON pointer ``jsonschema.best_match``
    picks (shallowest, then greatest path, then not anyOf/oneOf); an integer
    no float can hold ranks below every schema violation.
    """

    errors: list = []
    _scenario_check()(data, (), errors)
    if errors:
        path, _, message = max(errors, key=lambda e: (
            e[1] is not None, -len(e[0]), e[0], e[1] not in ("anyOf", "oneOf")))
        raise ValidationError(f"scenario rejected at /{'/'.join(path)}: {message}")


def parse_scenario(data: Any) -> Scenario:
    """Validate a decoded JSON document and build a typed :class:`Scenario`.

    ``data`` is decoded JSON, and reports echo it as ``Scenario.raw``.  A value of
    a subclass, such as a numpy float, passes validation but is refused
    (``TypeError``) when the report is rendered.
    """

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
            float(terms["general_haircut"]), rates["general_rate"],
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
    special_haircut = float(terms["special_haircut"])
    fee = terms["fed_fee"]
    if fee == "max":
        fee = max_fed_fee(implied, special_haircut, rates["general_rate"], rates["special_rate"])
        if fee < 0.0:
            raise ValidationError(
                f'scenario rejected at /terms/fed_fee: "max" resolves to {fee!r}: special_rate '
                f'{float(terms["special_rate"])!r} is above general_rate '
                f'{float(terms["general_rate"])!r}, so no fee can be funded')
    return DealerScenario(
        note_count=note_count,
        note_spot=note_spot,
        intermediate_price=float(terms["intermediate_price"]),
        special_rate=rates["special_rate"],
        general_rate=rates["general_rate"],
        special_haircut=special_haircut,
        general_haircut=float(terms["general_haircut"]),
        fed_fee=float(fee),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read, decode and validate a scenario file.

    A file that cannot be read, is not UTF-8 text or is not JSON (a syntax
    error, nesting past the recursion limit, a string holding a lone
    surrogate) raises :class:`ParseError` (exit code 2); schema and semantic
    violations raise :class:`ValidationError` (exit code 3).
    """

    return parse_scenario(_read_json(path))
