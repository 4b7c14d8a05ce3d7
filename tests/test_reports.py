"""Report documents: determinism, flattening, format parity, schema validity."""

import json

import jsonschema
import pytest

import repo_options
from repo_options import ValidationError
from repo_options.reports import (
    FORMATS,
    build_report,
    flatten,
    rate_per_annum,
    rate_per_period,
    render,
    to_csv,
    to_json,
    to_table,
)
from repo_options.scenarios import report_schema


def _sample_report() -> dict:
    return build_report(
        command="price-general",
        inputs={"kind": "general", "market": {"spot_price": 100000.0}},
        outputs={
            "repo_rate": rate_per_period(0.0014250607109102946, 1),
            "lender_rate": rate_per_annum(6.09294910400905e-06 * 360, 360),
            "haircut": 2996.4647794937852,
            "flags": [True, False],
            "note": None,
        },
        oracle={"z_mean": 1.0174817747561447},
        seed=42,
    )


def test_build_report_structure():
    doc = _sample_report()
    assert doc["schema_version"] == "1"
    assert doc["provenance"] == {
        "tool": "repo-options",
        "version": repo_options.__version__,
        "command": "price-general",
        "seed": 42,
    }
    assert "oracle" in doc
    assert "timestamp" not in json.dumps(doc)


def test_seed_defaults_to_null_and_oracle_is_optional():
    doc = build_report(command="x", inputs={}, outputs={})
    assert doc["provenance"]["seed"] is None
    assert "oracle" not in doc


def test_json_round_trip_and_byte_determinism():
    doc = _sample_report()
    text = to_json(doc)
    assert json.loads(text) == doc
    assert to_json(_sample_report()) == text  # same inputs, same bytes
    assert text.endswith("\n")
    # sorted keys: top-level order is alphabetical
    top = list(json.loads(text))
    assert top == sorted(top)


def test_rate_tags_carry_their_basis():
    pa = rate_per_annum(0.03, 365)
    assert pa == {"value": 0.03, "basis": "per_annum", "day_count": 365}
    pp = rate_per_period(0.0025, 30)
    assert pp == {"value": 0.0025, "basis": "per_period", "tenor_days": 30}


def test_flatten_paths_for_nested_structures():
    rows = flatten({"b": {"x": 1}, "a": [10, {"y": 2.5}]})
    assert rows == [("a[0]", 10), ("a[1].y", 2.5), ("b.x", 1)]


def test_flatten_of_scalar_keeps_empty_path():
    assert flatten(3.5) == [("", 3.5)]


def test_csv_and_json_carry_identical_numbers():
    doc = _sample_report()
    csv_rows = {
        line.split(",", 1)[0]: line.split(",", 1)[1]
        for line in to_csv(doc).splitlines()[1:]
    }
    # every float in the CSV parses back to the exact same binary value
    assert float(csv_rows["outputs.haircut"]) == doc["outputs"]["haircut"]
    assert float(csv_rows["outputs.repo_rate.value"]) == 0.0014250607109102946
    assert float(csv_rows["oracle.z_mean"]) == doc["oracle"]["z_mean"]
    # and the JSON text embeds the same shortest round-trip form
    assert repr(doc["outputs"]["haircut"]) in to_json(doc)


def test_csv_scalar_conventions():
    text = to_csv(_sample_report())
    lines = text.splitlines()
    assert lines[0] == "field,value"
    body = dict(line.split(",", 1) for line in lines[1:])
    assert body["outputs.flags[0]"] == "true"
    assert body["outputs.flags[1]"] == "false"
    assert body["outputs.note"] == ""
    assert body["provenance.seed"] == "42"
    # rows are sorted by field path
    assert list(body) == sorted(body)


def test_table_is_aligned_and_rounded():
    text = to_table(_sample_report())
    lines = text.splitlines()
    assert all("  " in line for line in lines)
    fields = [line.split()[0] for line in lines]
    assert fields == sorted(fields)
    haircut_line = next(line for line in lines if line.startswith("outputs.haircut"))
    assert "2996.464779" in haircut_line  # 10 significant digits
    note_line = next(line for line in lines if line.startswith("outputs.note"))
    assert note_line.rstrip().endswith("-")


def test_render_dispatch_and_unknown_format():
    doc = _sample_report()
    assert render(doc, "json") == to_json(doc)
    assert render(doc, "csv") == to_csv(doc)
    assert render(doc, "table") == to_table(doc)
    assert set(FORMATS) == {"json", "csv", "table"}
    with pytest.raises(ValidationError, match="unknown output format"):
        render(doc, "yaml")


def test_sample_report_validates_against_packaged_schema():
    jsonschema.Draft202012Validator(report_schema()).validate(_sample_report())


def test_report_schema_rejects_extra_provenance_fields():
    doc = _sample_report()
    doc["provenance"]["timestamp"] = "2026-01-01"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.Draft202012Validator(report_schema()).validate(doc)
