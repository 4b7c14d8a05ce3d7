"""Scenario files: schema validation, parsing, and engine-input construction.

A scenario is a JSON document described by ``schemas/scenario.schema.json``
(``schema_version`` ``"1"``).  Four kinds are supported:

``general``
    Collateralised lending against an uncertain forward value; ``terms``
    carries the repurchase price, either directly (``repurchase_price``)
    or as a multiple of the per-period forward standard deviation below
    the forward mean (``sigma_multiple``).
``special_lender``
    Security-lender quote for a specific-collateral loan; same ``terms``
    shape as ``general``.
``special_relations``
    Algebraic consistency between general and special terms; ``terms``
    carries ``general_haircut``, ``general_rate`` and at least one of
    ``special_haircut`` / ``special_rate``.
``dealer``
    Nine-step dealer financing ledger; ``terms`` carries the full set of
    dealer inputs, with ``fed_fee`` either a money amount or the string
    ``"max"`` (resolve to the largest fee the closing leg can absorb).

Conventions enforced here:

* every rate in a scenario file is **per annum**; engines work with
  per-period rates, so this module converts by ``tenor_days / day_count``;
* unknown fields are rejected at every level (schema
  ``additionalProperties: false``), so typos fail loudly instead of being
  silently ignored;
* an ``mc`` section (sampling size and seed for the simulation
  cross-check) is only meaningful for ``general`` and ``special_lender``
  scenarios and is rejected elsewhere.

jsonschema is imported on the first validation, not at module level, so
commands that never read a scenario file do not pay for loading it.
"""

from __future__ import annotations

import json
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

SCENARIO_SCHEMA_VERSION = "1"

SCENARIO_KINDS = ("general", "special_lender", "special_relations", "dealer")

#: Relative tolerance for the dealer-market consistency check
#: ``spot_price == note_count * note_spot``.
MARKET_CONSISTENCY_RTOL = 1e-9

_SCHEMA_CACHE: dict[str, Any] = {}


def _load_packaged_schema(name: str) -> Mapping[str, Any]:
    if name not in _SCHEMA_CACHE:
        text = resources.files("repo_options").joinpath("schemas", name).read_text("utf-8")
        _SCHEMA_CACHE[name] = json.loads(text)
    return _SCHEMA_CACHE[name]


def scenario_schema() -> Mapping[str, Any]:
    """Return the packaged scenario JSON schema (version 1)."""

    return _load_packaged_schema("scenario.schema.json")


def report_schema() -> Mapping[str, Any]:
    """Return the packaged report JSON schema (version 1)."""

    return _load_packaged_schema("report.schema.json")


@cache
def _validator():
    """The scenario-schema validator, built once on first use."""

    import jsonschema

    return jsonschema.Draft202012Validator(scenario_schema())


@dataclass(frozen=True)
class McSettings:
    """Simulation cross-check settings from a scenario's ``mc`` section."""

    n: int
    seed: int


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: typed market, raw terms, optional MC settings."""

    kind: str
    market: MarketParams
    currency: str
    terms: Mapping[str, Any]
    mc: McSettings | None
    raw: Mapping[str, Any]


def _json_pointer(absolute_path) -> str:
    parts = [str(p) for p in absolute_path]
    return "/" + "/".join(parts) if parts else "/"


def validate_scenario_data(data: Any) -> None:
    """Validate a decoded scenario document against the packaged schema.

    Raises :class:`ValidationError` with a JSON-pointer location on the
    first (most relevant) schema violation.
    """

    import jsonschema

    errors = sorted(_validator().iter_errors(data), key=jsonschema.exceptions.relevance)
    if errors:
        best = jsonschema.exceptions.best_match(errors)
        raise ValidationError(
            f"scenario rejected at {_json_pointer(best.absolute_path)}: {best.message}"
        )


def _check_float_range(value: Any, pointer: str = "") -> None:
    """Reject integers no float can hold: the engines compute in floats.

    JSON and the schema put no bound on an integer's size, and ``float()``
    of one past ``sys.float_info.max`` raises ``OverflowError``.
    """

    if isinstance(value, dict):
        for key, item in value.items():
            _check_float_range(item, f"{pointer}/{key}")
    elif isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValidationError(f"scenario rejected at {pointer}: integer beyond the float range")


def parse_scenario(data: Any) -> Scenario:
    """Validate a decoded JSON document and build a typed :class:`Scenario`."""

    validate_scenario_data(data)
    _check_float_range(data)

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

    scenario = Scenario(
        kind=kind,
        market=market,
        currency=currency,
        terms=data["terms"],
        mc=mc,
        raw=data,
    )
    _check_semantics(scenario)
    return scenario


def _check_semantics(scenario: Scenario) -> None:
    if scenario.kind == "dealer":
        terms = scenario.terms
        implied = int(terms["note_count"]) * float(terms["note_spot"])
        spot = scenario.market.spot_price
        if abs(spot - implied) > MARKET_CONSISTENCY_RTOL * max(abs(spot), abs(implied)):
            raise ValidationError(
                "scenario rejected at /market/spot_price: expected "
                f"note_count * note_spot = {implied!r}, got {spot!r}"
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


def resolve_strike(scenario: Scenario) -> float:
    """Resolve the repurchase price for a ``general``/``special_lender`` scenario."""

    if scenario.kind not in ("general", "special_lender"):
        raise ValidationError(
            f"scenario kind {scenario.kind!r} does not define a repurchase price"
        )
    terms = scenario.terms
    if "repurchase_price" in terms:
        return float(terms["repurchase_price"])
    return strike_from_sigma_multiple(scenario.market, float(terms["sigma_multiple"]))


def annual_to_period(rate_pa: float, market: MarketParams) -> float:
    """Convert a per-annum simple rate to the scenario's period."""

    return rate_pa * market.period_years


def relations_from_scenario(scenario: Scenario) -> SpecialRepoRelations:
    """Build the general/special rate-and-haircut relations for a scenario.

    Rates in the file are per annum and are converted to the period implied
    by ``tenor_days / day_count`` before the algebra runs.
    """

    if scenario.kind != "special_relations":
        raise ValidationError(
            f"scenario kind {scenario.kind!r} is not a special_relations scenario"
        )
    terms = scenario.terms
    general_rate_pp = annual_to_period(float(terms["general_rate"]), scenario.market)
    special_rate_pp = (
        annual_to_period(float(terms["special_rate"]), scenario.market)
        if "special_rate" in terms
        else None
    )
    special_haircut = (
        float(terms["special_haircut"]) if "special_haircut" in terms else None
    )
    return build_special_relations(
        scenario.market.spot_price,
        float(terms["general_haircut"]),
        general_rate_pp,
        special_haircut=special_haircut,
        special_rate=special_rate_pp,
    )


def dealer_from_scenario(scenario: Scenario) -> DealerScenario:
    """Build the dealer ledger inputs for a ``dealer`` scenario.

    ``fed_fee: "max"`` resolves to the largest fee the closing leg can
    absorb given the per-period rates and the special haircut.
    """

    if scenario.kind != "dealer":
        raise ValidationError(f"scenario kind {scenario.kind!r} is not a dealer scenario")
    terms = scenario.terms
    market = scenario.market
    special_rate_pp = annual_to_period(float(terms["special_rate"]), market)
    general_rate_pp = annual_to_period(float(terms["general_rate"]), market)
    note_count = int(terms["note_count"])
    note_spot = float(terms["note_spot"])
    fee = terms["fed_fee"]
    if fee == "max":
        fee_value = max_fed_fee(
            note_count * note_spot,
            float(terms["special_haircut"]),
            general_rate_pp,
            special_rate_pp,
        )
    else:
        fee_value = float(fee)
    return DealerScenario(
        note_count=note_count,
        note_spot=note_spot,
        intermediate_price=float(terms["intermediate_price"]),
        special_rate=special_rate_pp,
        general_rate=general_rate_pp,
        special_haircut=float(terms["special_haircut"]),
        general_haircut=float(terms["general_haircut"]),
        fed_fee=fee_value,
    )
