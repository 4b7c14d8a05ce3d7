"""Scenario file loading: schema enforcement, typed parsing, unit handling."""

import copy
import json
import math
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repo_options import (
    ParseError,
    Scenario,
    ValidationError,
    load_scenario,
    max_fed_fee,
    parse_scenario,
    strike_from_sigma_multiple,
)
from repo_options import scenarios
from repo_options.scenarios import report_schema, scenario_schema, validate_scenario_data

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _market(**overrides) -> dict:
    base = {
        "spot_price": 100000.0,
        "intrinsic_yield": 0.03,
        "volatility": 0.19,
        "tenor_days": 1,
        "risk_free_rate": 0.0,
        "day_count": 360,
    }
    base.update(overrides)
    return base


def _general_doc(**market_overrides) -> dict:
    return {
        "schema_version": "1",
        "kind": "general",
        "market": _market(**market_overrides),
        "terms": {"sigma_multiple": 3.0},
    }


def _relations_doc() -> dict:
    return {
        "schema_version": "1",
        "kind": "special_relations",
        "market": _market(tenor_days=30),
        "terms": {
            "general_haircut": 0.02,
            "general_rate": 0.03,
            "special_rate": 0.01,
        },
    }


def _dealer_doc() -> dict:
    return {
        "schema_version": "1",
        "kind": "dealer",
        "market": _market(spot_price=100000.0),
        "terms": {
            "note_count": 100,
            "note_spot": 1000.0,
            "intermediate_price": 1000.0,
            "special_rate": 0.01,
            "general_rate": 0.03,
            "special_haircut": 0.0199,
            "general_haircut": 0.02,
            "fed_fee": 0.0,
        },
    }


def test_packaged_scenario_files_all_parse():
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(paths) >= 4
    kinds = {load_scenario(p).kind for p in paths}
    assert kinds == {"general", "special_lender", "special_relations", "dealer"}


def test_valid_document_parses_with_defaults():
    scenario = parse_scenario(_general_doc())
    assert isinstance(scenario, Scenario)
    assert scenario.kind == "general"
    assert scenario.currency == "USD"
    assert scenario.mc is None
    assert scenario.market.spot_price == 100000.0
    assert scenario.market.tenor_days == 1
    assert scenario.terms == strike_from_sigma_multiple(scenario.market, 3.0)


def test_currency_passthrough():
    scenario = parse_scenario(_general_doc(currency="EUR"))
    assert scenario.currency == "EUR"


def test_unknown_fields_rejected_at_each_level():
    doc = _general_doc()
    doc["surprise"] = 1
    with pytest.raises(ValidationError, match="scenario rejected at /"):
        parse_scenario(doc)

    doc = _general_doc()
    doc["market"]["surprise"] = 1
    with pytest.raises(ValidationError, match="/market"):
        parse_scenario(doc)

    doc = _general_doc()
    doc["terms"]["surprise"] = 1
    with pytest.raises(ValidationError, match="/terms"):
        parse_scenario(doc)


def test_strike_terms_are_exclusive():
    doc = _general_doc()
    doc["terms"] = {"sigma_multiple": 3.0, "repurchase_price": 97000.0}
    with pytest.raises(ValidationError, match="/terms"):
        parse_scenario(doc)
    doc["terms"] = {}
    with pytest.raises(ValidationError):
        parse_scenario(doc)


def test_missing_market_field_rejected():
    doc = _general_doc()
    del doc["market"]["volatility"]
    with pytest.raises(ValidationError, match="volatility"):
        parse_scenario(doc)


def test_day_count_restricted_to_360_and_365():
    assert parse_scenario(_general_doc(day_count=365)).market.day_count == 365
    with pytest.raises(ValidationError, match="/market/day_count"):
        parse_scenario(_general_doc(day_count=252))


def test_schema_version_and_kind_enforced():
    doc = _general_doc()
    doc["schema_version"] = "2"
    with pytest.raises(ValidationError, match="/schema_version"):
        parse_scenario(doc)
    doc = _general_doc()
    doc["kind"] = "swap"
    with pytest.raises(ValidationError, match="/kind"):
        parse_scenario(doc)


def test_mc_section_parsed_for_pricing_kinds():
    doc = _general_doc()
    doc["mc"] = {"n": 1000, "seed": 7}
    scenario = parse_scenario(doc)
    assert scenario.mc is not None
    assert (scenario.mc.n, scenario.mc.seed) == (1000, 7)


def test_mc_section_rejected_when_malformed():
    doc = _general_doc()
    doc["mc"] = {"n": 1, "seed": 7}  # below the minimum sample size
    with pytest.raises(ValidationError, match="/mc"):
        parse_scenario(doc)
    doc["mc"] = {"n": 1000, "seed": -1}
    with pytest.raises(ValidationError, match="/mc"):
        parse_scenario(doc)
    doc["mc"] = {"n": 1000}
    with pytest.raises(ValidationError, match="/mc"):
        parse_scenario(doc)


def test_mc_section_rejected_for_non_pricing_kinds():
    doc = _relations_doc()
    doc["mc"] = {"n": 1000, "seed": 7}
    with pytest.raises(ValidationError, match="simulation settings"):
        parse_scenario(doc)
    doc = _dealer_doc()
    doc["mc"] = {"n": 1000, "seed": 7}
    with pytest.raises(ValidationError, match="simulation settings"):
        parse_scenario(doc)


def test_validate_scenario_data_reports_json_pointer():
    doc = _general_doc()
    doc["market"]["volatility"] = -0.1
    with pytest.raises(ValidationError, match="/market/volatility"):
        validate_scenario_data(doc)


def test_load_scenario_reports_json_syntax_position(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"kind": "general",\n  "oops"\n}', encoding="utf-8")
    with pytest.raises(ParseError, match=r"line 3 column 1"):
        load_scenario(bad)


def test_load_scenario_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_scenario(tmp_path / "nope.json")


def test_strike_terms_load_as_the_repurchase_price_in_both_forms():
    direct = _general_doc()
    direct["terms"] = {"repurchase_price": 97003.92}
    assert parse_scenario(direct).terms == 97003.92

    implied = parse_scenario(_general_doc())
    expected = strike_from_sigma_multiple(implied.market, 3.0)
    assert implied.terms == expected


def test_relations_terms_load_with_rates_per_period():
    relations = parse_scenario(_relations_doc()).terms
    assert relations.general_rate == pytest.approx(0.03 * 30 / 360, rel=1e-15)
    assert relations.special_rate == pytest.approx(0.01 * 30 / 360, rel=1e-15)
    assert abs(relations.balance_residual()) <= 1e-12
    relations.validate()


def test_relations_terms_accept_haircut_side():
    doc = _relations_doc()
    doc["terms"] = {"general_haircut": 0.02, "general_rate": 0.03,
                    "special_haircut": 0.0}
    relations = parse_scenario(doc).terms
    assert relations.special_haircut == 0.0
    assert abs(relations.balance_residual()) <= 1e-12


def test_relations_requires_one_special_side():
    doc = _relations_doc()
    doc["terms"] = {"general_haircut": 0.02, "general_rate": 0.03}
    with pytest.raises(ValidationError, match="/terms"):
        parse_scenario(doc)


def test_dealer_terms_load_with_rates_per_period():
    dealer = parse_scenario(_dealer_doc()).terms
    assert dealer.note_count == 100
    assert dealer.note_spot == 1000.0
    assert dealer.special_rate == pytest.approx(0.01 / 360, rel=1e-15)
    assert dealer.general_rate == pytest.approx(0.03 / 360, rel=1e-15)
    assert dealer.fed_fee == 0.0


def test_dealer_fee_max_resolves_to_ceiling():
    doc = _dealer_doc()
    doc["terms"]["fed_fee"] = "max"
    dealer = parse_scenario(doc).terms
    expected = max_fed_fee(100000.0, 0.0199, 0.03 / 360, 0.01 / 360)
    assert dealer.fed_fee == expected
    assert dealer.fed_fee > 0.0


def test_dealer_fee_rejects_other_strings():
    doc = _dealer_doc()
    doc["terms"]["fed_fee"] = "huge"
    with pytest.raises(ValidationError, match="/terms/fed_fee"):
        parse_scenario(doc)


def test_dealer_spot_consistency_enforced():
    doc = _dealer_doc()
    doc["terms"]["note_spot"] = 999.0  # 100 * 999 != market spot
    with pytest.raises(ValidationError, match="/market/spot_price"):
        parse_scenario(doc)


def test_packaged_schemas_are_well_formed():
    jsonschema.Draft202012Validator.check_schema(scenario_schema())
    jsonschema.Draft202012Validator.check_schema(report_schema())


def test_scenario_files_validate_against_schema_directly():
    validator = jsonschema.Draft202012Validator(scenario_schema())
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        validator.validate(json.loads(path.read_text("utf-8")))


@pytest.mark.parametrize("where, addition", [
    (("properties", "market", "properties", "currency"), {"pattern": "^[A-Z]{3}$"}),
    (("properties", "terms"), {"type": "array"}),
    (("properties", "mc"), {"additionalProperties": {"type": "integer"}}),
    (("$defs", "dealer_terms"), {"$ref": "https://example.com/dealer.json"}),
])
def test_unsupported_schema_keyword_refused_at_load(monkeypatch, where, addition):
    schema = copy.deepcopy(scenario_schema())
    node = schema
    for key in where:
        node = node[key]
    node.update(addition)
    monkeypatch.setattr(scenarios, "scenario_schema", lambda: schema)
    scenarios._checked_schema.cache_clear()
    try:
        with pytest.raises(NotImplementedError, match="scenario schema"):
            validate_scenario_data(_general_doc())
    finally:
        scenarios._checked_schema.cache_clear()


_REFERENCE = jsonschema.Draft202012Validator(scenario_schema())
_BUNDLED = [json.loads(p.read_text("utf-8")) for p in sorted(SCENARIO_DIR.glob("*.json"))]
# What a mutation writes besides integers past the float range: other types
# (30.0 and true among them) and both sides of each bound in the schema (0, 1, 2, 1e8).
_VALUES = [30.0, 30, True, False, "x", "", "max", "1", None, [], {}, 360, 365.0, 0.5] + [
    v for b in (0, 1, 2, 100_000_000)
    for v in (b - 1, b, b + 1, float(b), -float(b), math.nextafter(b, -math.inf),
              math.nextafter(b, math.inf))
]
_MC = [{"n": 1000, "seed": 7}, {"n": 1}, {"seed": 3}, 5, {"n": 2, "seed": 0, "surprise": 1}]


def _key_paths(value, prefix=()):
    for key, item in value.items():
        yield (*prefix, key)
        if isinstance(item, dict):
            yield from _key_paths(item, (*prefix, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, draw):
    """Drop a key, add one, retype or re-bound a value, swap kind, or add or alter mc."""
    keys = list(_key_paths(doc))
    op = draw(st.sampled_from(["drop", "add", "set", "huge", "kind", "mc"]))
    value = copy.deepcopy(draw(st.sampled_from(_VALUES)))
    if op == "huge":
        op, value = "set", draw(st.sampled_from([10**400, -(10**400)]))
    if op == "drop" and keys:
        *parent, key = draw(st.sampled_from(keys))
        del _at(doc, parent)[key]
    elif op == "add":
        objects = [()] + [p for p in keys if isinstance(_at(doc, p), dict)]
        name = draw(st.sampled_from(["surprise", "n", "kind", "sigma_multiple", "special_rate"]))
        _at(doc, draw(st.sampled_from(objects)))[name] = value
    elif op == "set" and keys:
        *parent, key = draw(st.sampled_from(keys))
        _at(doc, parent)[key] = value
    elif op == "kind":
        doc["kind"] = draw(st.sampled_from(
            ["general", "special_lender", "special_relations", "dealer", "swap"]))
    elif op == "mc" and isinstance(doc.get("mc"), dict) and draw(st.booleans()):
        doc["mc"][draw(st.sampled_from(["n", "seed"]))] = value
    elif op == "mc":
        doc["mc"] = copy.deepcopy(draw(st.sampled_from(_MC)))


def _past_float_range(value) -> bool:
    if isinstance(value, dict):
        return any(_past_float_range(v) for v in value.values())
    return type(value) is int and abs(value) > sys.float_info.max


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(data=st.data())
def test_validation_agrees_with_jsonschema_on_mutated_scenarios(data):
    """Validation accepts what jsonschema accepts, bar integers past the float
    range, and rejects at the pointer of ``jsonschema.best_match``."""
    doc = copy.deepcopy(data.draw(st.sampled_from(_BUNDLED)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data.draw)
    best = jsonschema.exceptions.best_match(_REFERENCE.iter_errors(doc))
    try:
        validate_scenario_data(doc)
        where = message = None
    except ValidationError as exc:
        where, _, message = str(exc).removeprefix("scenario rejected at ").partition(": ")
    if best is not None:
        assert where == "/" + "/".join(map(str, best.absolute_path)), (best.message, message)
    elif _past_float_range(doc):
        assert message == "integer beyond the float range"
    else:
        assert where is None, message
