"""Report documents: determinism, flattening, format parity, schema validity."""

import csv
import io
import json
import math
import re
from collections.abc import Mapping
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repo_options
from repo_options import PricingError, ValidationError
from repo_options.cli import main
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


# Reference renderers: the standard library's json and csv modules, fed by the
# plain per-level walk and stable path sort that define the row order.


def _reference_walk(value, prefix=""):
    if isinstance(value, Mapping):
        for key in sorted(value):
            yield from _reference_walk(value[key], f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _reference_walk(item, f"{prefix}[{i}]")
    else:
        yield prefix, value


def _reference_rows(doc):
    return sorted(_reference_walk(doc), key=lambda row: row[0])


def _reference_cell(value, none, number):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return none
    if isinstance(value, float):
        return number(value)
    return str(value)


def _reference_render(doc, fmt):
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)
        return text + "\n"
    rows = _reference_rows(doc)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["field", "value"])
        for path, value in rows:
            writer.writerow([path, _reference_cell(value, "", repr)])
        return buffer.getvalue()
    width = max((len(path) for path, _ in rows), default=0)
    number = "{:.10g}".format
    lines = [f"{path.ljust(width)}  {_reference_cell(value, '-', number)}" for path, value in rows]
    return "\n".join(lines) + "\n"


class _Int(int):
    """An int subclass with its own text, which JSON must ignore and CSV must use."""

    def __repr__(self):
        return f"_Int({int(self)})"

    __str__ = __repr__


class _Str(str):
    """A str subclass, which every format must render as its text."""


class _Float(float):
    """A float subclass with its own repr, which JSON must ignore and CSV must use."""

    def __repr__(self):
        return f"_Float({float.__repr__(self)})"


_TRICKY_CHARS = '"\\,.[] \n\r\t\x00\x1f\x7f\u2028\u2029\u00e9\u20ac\U0001d11e'
_text = st.text(st.one_of(st.sampled_from(_TRICKY_CHARS), st.characters()), max_size=6)
_finite = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-7, 1e22, 0.1, -1.5e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**1000), 2**1000),
    _finite,
    _text,
    st.builds(_Str, _text),
    st.builds(_Int, st.integers()),
    st.builds(_Float, _finite),
)
_report_tree = st.dictionaries(
    _text,
    st.recursive(
        _leaf,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(_text, children, max_size=4),
        ),
        max_leaves=24,
    ),
    max_size=5,
)


def _dicts(value):
    """Every dict inside ``value``, outermost first."""
    if isinstance(value, dict):
        yield value
        values = value.values()
    elif isinstance(value, (list, tuple)):
        values = value
    else:
        return
    for item in values:
        yield from _dicts(item)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(doc=_report_tree, data=st.data())
def test_renderers_match_the_standard_library(doc, data):
    assert flatten(doc) == list(_reference_walk(doc))
    assert to_json(doc) == _reference_render(doc, "json")
    assert to_csv(doc) == _reference_render(doc, "csv")
    assert to_table(doc) == _reference_render(doc, "table")

    # plant non-finite numbers: every format names the first one in path order
    planted = data.draw(st.lists(
        st.tuples(st.sampled_from(list(_dicts(doc))), _text,
                  st.sampled_from([math.inf, -math.inf, math.nan, _Float("inf")])),
        min_size=1, max_size=3,
    ))
    for target, key, value in planted:
        target[key] = value
    path, value = next((path, value) for path, value in _reference_rows(doc)
                       if isinstance(value, float) and not math.isfinite(value))
    for fmt in FORMATS:
        with pytest.raises(PricingError) as excinfo:
            render(doc, fmt)
        assert str(excinfo.value) == f"report value {path} is {value!r}, not a finite number"


@pytest.mark.parametrize(
    "doc",
    [
        # paths that collide keep the per-level walk order: the sort is stable
        {"a.b": 1, "a": {"b": 2.5}, "a[0]": None, "c": [{"d": "x"}, "y"], "c[0].d": True},
        # keys json coerces to text, subclasses included
        {"keys": {1: "one", -2: "minus two", _Int(3): "three"}},
        {"keys": {1.5: 1, -0.0: 2, 5e-324: 3, _Float(2.5): 4}},
        {"keys": {True: 1, False: 2}, "none": {None: 0}},
        {"keys": {_Str("\u00e9\u2028"): 1, _Str('"'): 2}},
    ],
    ids=["colliding-paths", "int-keys", "float-keys", "bool-and-none-keys", "str-subclass-keys"],
)
def test_renderers_match_the_standard_library_on_edge_cases(doc):
    assert flatten(doc) == list(_reference_walk(doc))
    for fmt in FORMATS:
        assert render(doc, fmt) == _reference_render(doc, fmt)


@pytest.mark.parametrize(
    "doc, path",
    [
        # "rows[10]" sorts before "rows[2]", and "a-b" before "a.x"
        ({"rows": [1.0, 2.0, math.nan] + [0.0] * 7 + [math.inf]}, "rows[10]"),
        ({"a": {"x": math.inf}, "a-b": -math.inf}, "a-b"),
    ],
)
def test_every_format_names_the_first_non_finite_value_in_path_order(doc, path):
    for fmt in FORMATS:
        with pytest.raises(PricingError, match=rf"^report value {re.escape(path)} is "):
            render(doc, fmt)


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

_COMMAND_OF_KIND = {
    "general": "price-general",
    "special_lender": "price-special",
    "special_relations": "price-special",
    "dealer": "dealer-sim",
}


def _cli_cases():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        kind = json.loads(path.read_text("utf-8"))["kind"]
        argv = [_COMMAND_OF_KIND[kind], str(path)] + (["--no-strict"] if kind == "dealer" else [])
        yield pytest.param(argv, id=path.stem)
    yield pytest.param(["reproduce-examples"], id="reproduce-examples")
    strikes = ",".join(repr(90000.0 + 250.0 * i) for i in range(64))
    yield pytest.param(["compare-bs", str(SCENARIO_DIR / "general_3sigma.json"),
                        "--strikes", strikes], id="compare-bs")


@pytest.mark.parametrize("argv", _cli_cases())
def test_cli_output_matches_the_reference_renderers(capsys, argv):
    """All three formats of each bundled scenario, reproduce-examples and a ladder."""
    runs = {}
    for fmt in FORMATS:
        code = main(argv + ["--format", fmt])
        runs[fmt] = code, capsys.readouterr().out
    code, text = runs["json"]
    if code != 0:  # a refused ledger prints no report in any format
        assert runs == {fmt: (code, "") for fmt in FORMATS}
        return
    doc = json.loads(text)
    for fmt in FORMATS:
        assert runs[fmt] == (0, _reference_render(doc, fmt))
