"""Report documents: determinism, flattening, format parity, schema validity."""

import csv
import io
import json
import math
import re
from collections import OrderedDict
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repo_options
from repo_options import LiquidityError, PricingError, ValidationError
from repo_options.cli import _build_parser, _report, general_report, main
from repo_options.cli import reproduce_report, special_lender_report
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
from repo_options.scenarios import parse_scenario, report_schema


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


def test_seed_comes_from_the_oracle_section_unless_given():
    oracle = {"seed": 7, "n": 1000}
    assert build_report(command="x", inputs={}, outputs={},
                        oracle=oracle)["provenance"]["seed"] == 7
    assert build_report(command="x", inputs={}, outputs={}, oracle=oracle,
                        seed=42)["provenance"]["seed"] == 42
    assert build_report(command="x", inputs={}, outputs={},
                        oracle={"z_mean": 1.0})["provenance"]["seed"] is None


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
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _reference_walk(value[key], f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, list):
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


def _reference_csv_row(fields):
    """One row as ``csv.writer`` writes it, which quotes a field holding ``\\r`` or
    ``\\n``, without its line terminator."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(fields)
    return buffer.getvalue().removesuffix("\r\n")


def _reference_render(doc, fmt):
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)
        return text + "\n"
    rows = _reference_rows(doc)
    if fmt == "csv":
        lines = [_reference_csv_row(["field", "value"])]
        lines += [_reference_csv_row([path, _reference_cell(value, "", repr)])
                  for path, value in rows]
        return "\n".join(lines) + "\n"
    width = max((len(path) for path, _ in rows), default=0)
    number = "{:.10g}".format
    lines = [f"{path.ljust(width)}  {_reference_cell(value, '-', number)}" for path, value in rows]
    return "\n".join(lines) + "\n"


class _Int(int):
    """An int subclass, which no format may render."""


class _Str(str):
    """A str subclass: a key renders as its text, a value is refused."""


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
)
_report_tree = st.dictionaries(
    _text,
    st.recursive(
        _leaf,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
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
    elif isinstance(value, list):
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
                  st.sampled_from([math.inf, -math.inf, math.nan])),
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
        # a key of a str subclass renders as its text
        {"keys": {_Str("\u00e9\u2028"): 1, _Str('"'): 2}},
    ],
    ids=["colliding-paths", "str-subclass-keys"],
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


_OUTSIDE_THE_MODEL = [
    pytest.param((1.0, 2.0), id="tuple"),
    pytest.param(OrderedDict(a=1.0), id="OrderedDict"),
    pytest.param(np.float64(1.5), id="numpy-float64"),
    pytest.param(_Int(3), id="int-subclass"),
    pytest.param(_Str("x"), id="str-subclass"),
]


@pytest.mark.parametrize("value", _OUTSIDE_THE_MODEL)
def test_every_format_refuses_a_value_outside_the_data_model(value):
    cases = [
        ({"outputs": {"a": 1.0, "bad": value, "z": [1, "s"]}}, "outputs.bad"),
        # in a list, and before a non-finite value in path order
        ({"outputs": {"rows": [{"x": 1}, value]}, "z": math.inf}, "outputs.rows[1]"),
    ]
    for doc, path in cases:
        message = (f"^report value {re.escape(path)} is of type {type(value).__name__}, "
                   "which a report cannot hold$")
        for fmt in FORMATS:
            with pytest.raises(TypeError, match=message):
                render(doc, fmt)


@pytest.mark.parametrize("doc, path", [
    ({"outputs": {1: 2.0}}, "outputs"),
    ({"outputs": {1: 2.0, "a": 1.0}}, "outputs"),
    ({"outputs": {"rows": [{"a": 1.0}, {2: 3.0}]}}, "outputs.rows[1]"),
    ({1: {"a": 2.0}}, ""),
])
def test_every_format_refuses_a_key_that_is_not_a_string(doc, path):
    message = f"^report value {re.escape(path)} has a key that is not a str, which a report cannot hold$"
    for fmt in FORMATS:
        with pytest.raises(TypeError, match=message):
            render(doc, fmt)


def test_a_non_finite_value_first_in_path_order_is_named_before_a_refused_one():
    doc = {"a": -math.inf, "b": (1, 2)}
    for fmt in FORMATS:
        with pytest.raises(PricingError, match=r"^report value a is -inf, not a finite number$"):
            render(doc, fmt)


def test_a_numpy_float_in_a_parsed_document_is_refused_in_every_format():
    data = json.loads((SCENARIO_DIR / "general_3sigma.json").read_text("utf-8"))
    data["market"]["spot_price"] = np.float64(data["market"]["spot_price"])
    doc = general_report(parse_scenario(data))
    message = r"^report value inputs\.market\.spot_price is of type float64,"
    for fmt in FORMATS:
        with pytest.raises(TypeError, match=message):
            render(doc, fmt)


def test_csv_quotes_a_field_holding_a_carriage_return(tmp_path, capsys):
    data = json.loads((SCENARIO_DIR / "general_3sigma.json").read_text("utf-8"))
    data["market"]["currency"] = "A\rB"
    path = tmp_path / "cr.json"
    path.write_text(json.dumps(data), "utf-8")
    assert main(["price-general", str(path), "--format", "csv"]) == 0
    text = capsys.readouterr().out
    assert 'inputs.market.currency,"A\rB"\n' in text
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert ["inputs.market.currency", "A\rB"] in rows
    assert all(len(row) == 2 for row in rows)


def _assert_report_data_model(value, path="doc"):
    """Every value is an exact dict, list, str, float, int, bool or None; every key an exact str."""
    cls = type(value)
    if cls is dict:
        for key, item in value.items():
            assert type(key) is str, f"{path}: key {key!r} is of type {type(key).__name__}"
            _assert_report_data_model(item, f"{path}.{key}")
    elif cls is list:
        for i, item in enumerate(value):
            _assert_report_data_model(item, f"{path}[{i}]")
    else:
        assert cls in (str, float, int, bool, type(None)), f"{path} is of type {cls.__name__}"


def _cli_report(argv):
    try:
        return _report(_build_parser().parse_args(argv))
    except LiquidityError:  # a refused ledger builds no report
        return {}


def _oracle_report(build, data, n):
    doc = build(parse_scenario(dict(data, mc={"n": n, "seed": 3})), 7)
    assert (doc["oracle"]["n"], doc["oracle"]["seed"]) == (n, 7)
    return doc


def _engine_reports():
    for case in _cli_cases():
        yield pytest.param(lambda argv=case.values[0]: _cli_report(argv), id=case.id)
    yield pytest.param(lambda: reproduce_report(360, True, 42, 20_000), id="reproduce-mc")
    for name, build in (("general_3sigma", general_report),
                        ("special_lender_fail", special_lender_report)):
        data = json.loads((SCENARIO_DIR / f"{name}.json").read_text("utf-8"))
        # one chunk, and two chunks whose moments are pooled
        for chunks, n in ((1, 1_000), (2, 1_000_010)):
            yield pytest.param(lambda build=build, data=data, n=n: _oracle_report(build, data, n),
                               id=f"{name}-oracle-{chunks}-chunk")


@pytest.mark.parametrize("build", _engine_reports())
def test_engine_reports_hold_only_the_data_model(build):
    """The renderers refuse a numpy scalar or subclass; the engine must never hand them one."""
    _assert_report_data_model(build())
