"""Command-line interface: exit codes, formats, determinism, dispatch."""

import contextlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repo_options
from repo_options.cli import main
from repo_options.errors import CheckedRecord, ParseError, PricingError, capped_path
from repo_options.montecarlo import CHUNK_SIZE
from repo_options.reference import build_reference_rows
from repo_options.reports import FORMATS, render
from repo_options.scenarios import load_scenario, parse_scenario, validate_scenario_data

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"

GENERAL = str(SCENARIO_DIR / "general_3sigma.json")
GENERAL_MC = str(SCENARIO_DIR / "general_2sigma_mc.json")
SPECIAL = str(SCENARIO_DIR / "special_lender_fail.json")
RELATIONS = str(SCENARIO_DIR / "relations_normal.json")
RELATIONS_GD = str(SCENARIO_DIR / "relations_guaranteed_delivery.json")
DEALER_MAX = str(SCENARIO_DIR / "dealer_max_fee.json")
DEALER_GAIN = str(SCENARIO_DIR / "dealer_gain_funded.json")
DEALER_OVERDRAWN = str(SCENARIO_DIR / "dealer_overdrawn_fee.json")


def _run_json(capsys, argv) -> dict:
    code = main(argv + ["--format", "json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_price_general_outputs_quote(capsys):
    doc = _run_json(capsys, ["price-general", GENERAL])
    quote = doc["outputs"]["quote"]
    assert quote["haircut"] == pytest.approx(2996.4647794937852, rel=1e-12)
    assert quote["repo_rate"]["basis"] == "per_annum"
    assert quote["repo_rate"]["day_count"] == 360
    assert doc["outputs"]["benchmark"]["bs_haircut"] == pytest.approx(
        2996.410536949198, rel=1e-12
    )
    assert abs(doc["outputs"]["identity_residual"]) <= 1e-10
    assert doc["provenance"]["command"] == "price-general"
    assert doc["provenance"]["seed"] is None
    assert "oracle" not in doc


@pytest.mark.parametrize("argv", [
    ["price-general", GENERAL],
    ["price-special", SPECIAL],
    ["price-special", RELATIONS],
    ["dealer-sim", DEALER_MAX],
    ["compare-bs", GENERAL, "--strikes", "99000,100000"],
], ids=lambda argv: f"{argv[0]}-{Path(argv[1]).stem}")
def test_every_scenario_report_echoes_its_file_and_currency(capsys, tmp_path, argv):
    doc = json.loads(Path(argv[1]).read_text("utf-8"))
    doc["market"]["currency"] = "EUR"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report = _run_json(capsys, [argv[0], str(path), *argv[2:]])
    assert report["outputs"]["currency"] == "EUR"
    assert report["inputs"] == doc


def test_price_general_json_is_byte_identical(capsys):
    assert main(["price-general", GENERAL, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["price-general", GENERAL, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "timestamp" not in first


def test_out_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    assert main(["price-general", GENERAL, "--format", "json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["price-general", GENERAL, "--format", "json"]) == 0
    assert target.read_text("utf-8") == capsys.readouterr().out


def test_unwritable_out_file_is_exit_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    assert main(["price-general", GENERAL, "--format", "json", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write output file {capped_path(str(target))}: "
                            "No such file or directory\n")
    assert not target.parent.exists()


def test_csv_and_table_formats(capsys):
    assert main(["price-general", GENERAL, "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0] == "field,value"
    assert any(line.startswith("outputs.quote.haircut,") for line in csv_text.splitlines())

    assert main(["price-general", GENERAL]) == 0  # table is the default
    table_text = capsys.readouterr().out
    assert "outputs.quote.haircut" in table_text
    # CSV carries full precision; both formats agree on the value
    csv_value = next(
        line.split(",", 1)[1]
        for line in csv_text.splitlines()
        if line.startswith("outputs.quote.haircut,")
    )
    assert float(csv_value) == pytest.approx(2996.4647794937852, rel=1e-12)


def test_scenario_mc_section_enables_oracle(capsys):
    doc = _run_json(capsys, ["price-general", GENERAL_MC])
    oracle = doc["oracle"]
    assert (oracle["n"], oracle["seed"], oracle["mode"]) == (1000000, 42, "min")
    assert oracle["z_mean"] == pytest.approx(1.2384300482516966, rel=1e-9)
    assert oracle["z_sd"] == pytest.approx(-1.5003860414027095, rel=1e-9)
    assert doc["provenance"]["seed"] == 42


def test_seed_flag_enables_oracle_and_overrides(capsys):
    doc = _run_json(capsys, ["price-general", GENERAL, "--seed", "7"])
    assert (doc["oracle"]["n"], doc["oracle"]["seed"]) == (1000000, 7)
    assert abs(doc["oracle"]["z_mean"]) < 4.0
    # same seed, same bytes
    assert main(["price-general", GENERAL, "--seed", "7", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["price-general", GENERAL, "--seed", "7", "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_price_special_lender(capsys):
    doc = _run_json(capsys, ["price-special", SPECIAL])
    quote = doc["outputs"]["quote"]
    assert quote["premium"] == pytest.approx(403.69145786598175, rel=1e-12)
    assert quote["lent_amount"] == pytest.approx(100403.69145786598, rel=1e-12)
    assert quote["special_rate"]["value"] == pytest.approx(-1.4175666528305008, rel=1e-9)


def test_price_special_relations(capsys):
    doc = _run_json(capsys, ["price-special", RELATIONS])
    relations = doc["outputs"]["relations"]
    assert relations["regime"] == "normal"
    assert abs(relations["balance_residual"]) <= 1e-12
    assert relations["general_rate"]["basis"] == "per_period"
    assert relations["general_rate_pa"]["basis"] == "per_annum"
    doc = _run_json(capsys, ["price-special", RELATIONS_GD])
    assert doc["outputs"]["relations"]["regime"] == "guaranteed_delivery"


def test_dealer_sim_max_fee(capsys):
    doc = _run_json(capsys, ["dealer-sim", DEALER_MAX])
    outputs = doc["outputs"]
    assert outputs["strict"] is True
    assert len(outputs["steps"]) == 9
    assert abs(outputs["cashflow"]["total"]) <= 1e-4
    assert abs(outputs["cashflow"]["decomposition_gap"]) <= 1e-4


def test_dealer_sim_strict_gate(capsys):
    code = main(["dealer-sim", DEALER_GAIN])
    captured = capsys.readouterr()
    assert code == 5
    assert "closing_strict" in captured.err

    doc = _run_json(capsys, ["dealer-sim", DEALER_GAIN, "--no-strict"])
    assert doc["outputs"]["strict"] is False
    assert doc["outputs"]["cashflow"]["total"] == pytest.approx(
        94.55416666666666, rel=1e-9
    )


def test_dealer_sim_overdrawn_fee_names_step(capsys):
    code = main(["dealer-sim", DEALER_OVERDRAWN])
    captured = capsys.readouterr()
    assert code == 5
    assert "step 3" in captured.err
    code = main(["dealer-sim", DEALER_OVERDRAWN, "--no-strict"])
    assert main(["dealer-sim", DEALER_OVERDRAWN, "--no-strict"]) == code == 5


def test_reproduce_examples_default_green(capsys):
    doc = _run_json(capsys, ["reproduce-examples"])
    assert doc["outputs"]["all_within"] is True
    assert doc["outputs"]["failures"] == []
    assert len(doc["outputs"]["rows"]) == 19
    names = {row["name"] for row in doc["outputs"]["rows"]}
    assert "case1_forward_mean" in names
    assert "special_put_value_mean" in names


def test_reproduce_examples_day_count_365_fails_tolerances(capsys):
    code = main(["reproduce-examples", "--day-count", "365", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 4
    assert "tolerance failure" in captured.err
    doc = json.loads(captured.out)
    assert doc["outputs"]["all_within"] is False
    assert doc["outputs"]["failures"]


def test_reproduce_rows_with_too_few_samples_fail_typed():
    # n=10 at the 3-sigma strike: every draw is censored, so se_mean is 0
    with pytest.raises(PricingError, match=r"case1_revenue_mean_mc_z: the 10 simulated"):
        build_reference_rows(mc=True, n=10)


def test_compare_bs_rows(capsys):
    doc = _run_json(
        capsys, ["compare-bs", GENERAL, "--strikes", "97003.92,98005.39"]
    )
    rows = doc["outputs"]["rows"]
    assert [row["strike"] for row in rows] == [97003.92, 98005.39]
    for row in rows:
        assert row["gap"] == pytest.approx(row["haircut"] - row["bs_haircut"], abs=1e-12)
        assert abs(row["gap"]) < 0.01 * row["haircut"]


def test_compare_bs_bad_strikes(capsys):
    assert main(["compare-bs", GENERAL, "--strikes", "abc"]) == 2
    assert "cannot parse" in capsys.readouterr().err
    assert main(["compare-bs", GENERAL, "--strikes", ","]) == 2
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("strike", ["inf", "nan"])
def test_compare_bs_non_finite_strike_names_finiteness(capsys, strike):
    assert main(["compare-bs", GENERAL, f"--strikes={strike}", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"repurchase_price must be finite and > 0, got {strike}" in captured.err


_BS = repo_options.BsInputs(spot=100.0, strike=90.0, rate=0.01, vol=0.2, tenor=0.5)
_G = repo_options.GaussianParams(mean=100.0, sd=10.0)


@pytest.mark.parametrize("call, message", [
    (lambda: main(["compare-bs", GENERAL, "--strikes", "1," + "x" * 12000]),
     "cannot parse --strikes list '1," + "x" * 54 + "...: could not convert string to float: '"
     + "x" * 56 + "..."),
    (lambda: main(["compare-bs", GENERAL, "--strikes", "1, x"]),
     "cannot parse --strikes list '1, x': could not convert string to float: ' x'"),
    (lambda: main(["price-general", GENERAL, "--seed=-" + "9" * 4000]),
     "seed must be a non-negative integer, got -" + "9" * 56 + "..."),
    (lambda: repo_options.price_general_repo(repo_options.reference_market(), 10**400),
     "repurchase_price must be finite and > 0, got 1" + "0" * 56 + "..."),
    (lambda: repo_options.bs_prices(_BS, [10**400]), "strike must be > 0, got 1" + "0" * 56 + "..."),
    (lambda: repo_options.mc_sample_stats(100.0, _G, "2" * 100, 0, "min"),
     "need n >= 2 samples for a standard deviation, got '" + "2" * 56 + "..."),
    (lambda: repo_options.mc_sample_stats(100.0, _G, 2, 0, "m" * 100),
     "unknown mode '" + "m" * 56 + "...; expected one of ('min', 'put-payoff')"),
    (lambda: repo_options.MarketParams(100.0, 0.03, 0.19, 1, 0.0, day_count=10**5000),
     "day_count must be one of (360, 365), got <int of 16610 bits>"),
    (lambda: repo_options.MarketParams(100.0, 0.03, 0.19, 1, 0.0, day_count="x" * 200),
     "day_count must be one of (360, 365), got '" + "x" * 56 + "..."),
    (lambda: render({}, "y" * 200),
     "unknown output format '" + "y" * 56 + "...; expected one of ('json', 'csv', 'table')"),
], ids=["long-strikes", "short-strikes", "seed", "repurchase_price", "bs-strike", "n", "mode",
        "huge-day_count", "long-day_count", "format"])
def test_refusals_cap_the_values_they_echo(capsys, call, message):
    """A refusal echoes at most the first 60 characters of a value's repr
    (``errors.short_repr``), however long the value."""
    try:
        call()
    except repo_options.RepoOptionsError as exc:
        assert str(exc) == message
    else:
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, error", [
    (["price-general", GENERAL, "--format", "x" * 3000],
     "repo-options price-general: error: argument --format: invalid choice: '"
     + "x" * 56 + "... (choose from "),
    (["price-general", GENERAL, "--seed=-" + "9" * 5000],
     "repo-options price-general: error: argument --seed: invalid int value: '-"
     + "9" * 55 + "..."),
    (["y" * 3000], "repo-options: error: argument command: invalid choice: '"
     + "y" * 56 + "... (choose from "),
    (["price-general", GENERAL, "z" * 3000],
     "repo-options: error: unrecognized arguments: " + "z" * 57 + "..."),
], ids=["format", "seed", "command", "extra-argument"])
def test_usage_errors_cap_the_values_they_echo(capsys, argv, error):
    """argparse's own usage errors keep exit code 2, the usage and their wording
    (the choices list is argparse's), and echo at most 60 characters of a value."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repo-options")
    assert err.splitlines()[-1].startswith(error)
    assert len(err) < 400


def _write_scenario(tmp_path, base, edit) -> str:
    doc = json.loads(Path(base).read_text("utf-8"))
    edit(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_compare_bs_checks_the_files_own_terms(capsys, tmp_path):
    # the ladder replaces the file's strike, but the file must still be a valid scenario
    path = _write_scenario(tmp_path, GENERAL, lambda d: d.update(terms={"sigma_multiple": 1e6}))
    message = "sigma multiple 1000000.0 places the repurchase price at -1.00137e+09 <= 0"
    for argv in (["price-general", path], ["compare-bs", path, "--strikes", "97003.92"]):
        assert main([*argv, "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_compare_bs_checks_the_haircut_identity_as_price_general_does(capsys, tmp_path):
    # a rate so large that rounding alone breaks the identity gate, on every general path
    def edit(doc):
        doc["market"].update(risk_free_rate=6077489727937541.0, tenor_days=30)
        doc["terms"] = {"repurchase_price": 100250.0}
    path = _write_scenario(tmp_path, GENERAL, edit)
    message = ("per-period lender rate 3.338e+14 is outside the model's domain: rounding "
               "at that size alone exceeds the 1e-10 identity tolerance")
    for argv in (["price-general", path], ["compare-bs", path, "--strikes", "100250.0"]):
        assert main([*argv, "--format", "json"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_non_positive_simple_interest_factor_is_refused_on_every_command(capsys, tmp_path):
    # 1 + intrinsic_yield * t is -1.357, so the forward mean of a positive price is -70.02:
    # each command priced this market with exit 0 before MarketParams refused it
    def edit(doc):
        doc["market"].update(spot_price=51.59578095807105,
                             intrinsic_yield=-0.035314063277855176,
                             volatility=6.462607134789791e-07, tenor_days=24029,
                             risk_free_rate=0.07132613872912438, day_count=360)
        doc["terms"] = {"repurchase_price": 31.00170559389329}
    message = ("simple-interest factor 1 + intrinsic_yield * tenor_days / day_count must be "
               "> 0, got -1.3571156291766169")
    general = _write_scenario(tmp_path, GENERAL, edit)
    (tmp_path / "special").mkdir()
    special = _write_scenario(tmp_path / "special", SPECIAL, edit)
    for argv in (["price-general", general], ["compare-bs", general, "--strikes", "31,40"],
                 ["price-special", special]):
        assert main([*argv, "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_oracle_fourth_moment_underflow_is_typed_error(capsys, tmp_path):
    # put payoffs of sd ~1e-122: M2 ~1e-240 is positive but M2 * M2 underflows to 0
    def edit(doc):
        doc["market"].update(spot_price=7.895203018359541e-139, volatility=4.61092173381031e+16,
                             tenor_days=609, day_count=365,
                             intrinsic_yield=7.895203018359541e-139,
                             risk_free_rate=-7.835637468095666e-212)
        doc.update(terms={"repurchase_price": 3.947601509179771e-139},
                   mc={"n": 1796, "seed": 480389})

    path = _write_scenario(tmp_path, SPECIAL, edit)
    assert main(["price-special", path, "--format", "json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: oracle payoff sd 2.777e-122 is too small")


@pytest.mark.parametrize("sigmas, n, omitted", [(5.0, 1_000_000, ["z_sd"]),
                                               (8.0, 1_000_000, ["z_sd"]),
                                               (8.0, 1000, ["z_mean", "z_sd"])])
def test_oracle_omits_a_z_whose_standard_error_is_zero(capsys, tmp_path, sigmas, n, omitted):
    # far enough below the forward mean, no sample lands below the strike: every payoff
    # is the strike, so se_sd is 0, and se_mean too when the sample mean is exact
    path = _write_scenario(tmp_path, GENERAL_MC, lambda d: d.update(
        terms={"sigma_multiple": sigmas}, mc={"n": n, "seed": 7}))
    oracle = _run_json(capsys, ["price-general", path])["oracle"]
    assert sorted(oracle["z_omitted"]) == omitted
    for stat in ("mean", "sd"):
        z = f"z_{stat}"
        assert (z in oracle) == (z not in omitted) == (oracle["estimate"][f"se_{stat}"] > 0.0)
        if z in omitted:
            assert oracle["z_omitted"][z] == (
                f"se_{stat} is 0, so delta_{stat} cannot be measured in standard errors")
    assert main(["price-general", path, "--format", "csv"]) == 0
    assert "oracle.z_sd," not in capsys.readouterr().out


_ACCEPTED_KINDS = {
    "price-general": ("general",),
    "price-special": ("special_lender", "special_relations"),
    "dealer-sim": ("dealer",),
    "compare-bs": ("general",),
}
_FILE_OF_KIND = {"general": GENERAL, "special_lender": SPECIAL,
                 "special_relations": RELATIONS, "dealer": DEALER_MAX}


@pytest.mark.parametrize("command", sorted(_ACCEPTED_KINDS))
@pytest.mark.parametrize("kind", sorted(_FILE_OF_KIND))
def test_kind_dispatch_rejected(capsys, command, kind):
    extra = ["--strikes", "97003.92"] if command == "compare-bs" else []
    code = main([command, _FILE_OF_KIND[kind], *extra, "--format", "json"])
    captured = capsys.readouterr()
    accepted = _ACCEPTED_KINDS[command]
    if kind in accepted:
        assert code == 0, captured.err
        assert json.loads(captured.out)["provenance"]["command"] == command
    else:
        expected = " or ".join(repr(k) for k in accepted)
        assert code == 3
        assert captured.out == ""
        assert (f"scenario kind {kind!r} not supported by this command "
                f"(expected {expected})") in captured.err


def test_missing_file_is_exit_2(capsys):
    assert main(["price-general", "no/such/file.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


_LONG_DIR = "/".join(["d" * 199] * 15)  # 2,999 characters, each name under 255 bytes


@pytest.mark.parametrize("argv, refusal", [
    (["price-general", "a" * 2990 + "_name.json"],
     "cannot read " + "a" * 20 + "..." + "a" * 27 + "_name.json: File name too long"),
    (["price-general", _LONG_DIR + "/bad.json"], "invalid JSON in " + "d" * 20 + "..."
     + "d" * 28 + "/bad.json at line 1 column 2: Expecting property name enclosed in double quotes"),
    (["price-general", GENERAL, "--out", "o" * 2990 + "_name.json"],
     "cannot write output file " + "o" * 20 + "..." + "o" * 27 + "_name.json: File name too long"),
], ids=["cannot-read", "invalid-json", "cannot-write"])
def test_path_refusals_echo_the_path_once_capped(capsys, tmp_path, monkeypatch, argv, refusal):
    monkeypatch.chdir(tmp_path)
    (tmp_path / _LONG_DIR).mkdir(parents=True)
    (tmp_path / _LONG_DIR / "bad.json").write_text("{", encoding="utf-8")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refusal}\n"
    assert len(captured.err.encode()) < 200


def test_invalid_json_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["price-general", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_overlong_integer_literal_is_exit_2(capsys, tmp_path):
    # past CPython's 4300-digit limit on int-from-string, json.loads raises ValueError
    text = Path(GENERAL).read_text("utf-8")
    text = text.replace('"tenor_days": 1', '"tenor_days": 1' + "0" * 5000)
    bad = tmp_path / "overlong.json"
    bad.write_text(text, encoding="utf-8")
    assert main(["price-general", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def _general_with_currency(literal: str) -> str:
    return Path(GENERAL).read_text("utf-8").replace('"currency": "USD"', f'"currency": {literal}')


# Files that are not UTF-8 JSON text a report could print; each is a parse error
# (exit 2), not a traceback.
_NOT_JSON_TEXT = {
    "latin1-e-acute": _general_with_currency('"\xe9"').encode("latin-1"),
    "utf8-bom": b"\xef\xbb\xbf" + Path(GENERAL).read_bytes(),
    # past the decoder's depth on every supported Python (Python 3.13 decodes ~10,000 levels)
    "array-100000-deep": b"[" * 100_000 + b"]" * 100_000,
    "object-100000-deep": b'{"a":' * 100_000 + b"1" + b"}" * 100_000,
    # I-JSON (RFC 7493 section 2.1): no format can encode a lone surrogate
    "lone-surrogate": _general_with_currency('"\\ud800"').encode("ascii"),
    # Python's json reads these tokens, but JSON (RFC 8259) has no such number
    **{token: Path(GENERAL).read_text("utf-8").replace('"sigma_multiple": 3.0',
                                                        f'"sigma_multiple": {token}').encode()
       for token in ("NaN", "Infinity", "-Infinity")},
}


@pytest.mark.parametrize("name", list(_NOT_JSON_TEXT))
def test_a_file_that_is_not_json_text_is_exit_2(capsys, tmp_path, name):
    path = tmp_path / "scenario.json"
    path.write_bytes(_NOT_JSON_TEXT[name])
    with pytest.raises(ParseError, match="^invalid JSON in " + re.escape(capped_path(str(path)))):
        load_scenario(path)
    out = tmp_path / "report.txt"
    for fmt in FORMATS:
        for flags in ([], ["--out", str(out)]):
            assert main(["price-general", str(path), "--format", fmt, *flags]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert re.fullmatch("error: invalid JSON in [^\n]*\n", captured.err)
            assert not out.exists()


def test_a_value_nested_9000_deep_is_one_typed_error_on_every_python(capsys, tmp_path):
    """The decoder refuses 9,000 levels before Python 3.13 (exit 2), and from 3.13 decodes
    them, so the schema refuses the unknown key that holds them (exit 3)."""
    path = tmp_path / "scenario.json"
    path.write_text(Path(GENERAL).read_text("utf-8").replace(
        '"terms": {', '"terms": {"x": ' + "[" * 9_000 + "]" * 9_000 + ", ", 1), encoding="utf-8")
    expected = {2: "error: invalid JSON in ",
                3: "error: scenario rejected at /terms: properties 'x' not allowed\n"}
    for fmt in FORMATS:
        code = main(["price-general", str(path), "--format", fmt])
        captured = capsys.readouterr()
        assert code in expected and captured.err.startswith(expected[code])
        assert captured.out == "" and re.fullmatch("error: [^\n]*\n", captured.err)


def test_a_surrogate_pair_escape_prices_and_prints_its_character(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(_general_with_currency('"\\ud83d\\ude00"'), encoding="ascii")
    assert load_scenario(path).currency == "\N{GRINNING FACE}"
    for fmt in FORMATS:
        assert main(["price-general", str(path), "--format", fmt]) == 0
        assert "\N{GRINNING FACE}" in capsys.readouterr().out


# Arbitrary bytes, mixed with pieces of JSON, escapes, a BOM and bytes that are not UTF-8.
_FRAGMENTS = st.sampled_from([b"[", b"]", b"{", b"}", b'"', b":", b",", b"1", b'"a"', b"\\",
                              b"\\u", b"\\ud800", b"\\udc00", b"\\ud83d\\ude00",
                              b"\xe9", b"\xef\xbb\xbf", b"\xed\xa0\x80", b"[" * 1_000])
_FILE_BYTES = st.lists(st.one_of(st.binary(max_size=8), _FRAGMENTS)).map(b"".join)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(), _FILE_BYTES))
def test_no_file_ends_in_a_traceback(tmp_path_factory, data):
    """Whatever bytes a scenario file holds, the CLI exits 2 or 3 with one typed error."""
    folder = tmp_path_factory.mktemp("bytes")
    path, report = folder / "scenario.json", folder / "report.txt"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["price-general", str(path), "--out", str(report)])
    assert code in (2, 3), err.getvalue()
    assert out.getvalue() == "" and not report.exists()
    assert re.fullmatch("error: [^\n]*\n", err.getvalue())


def test_schema_violation_is_exit_3(capsys, tmp_path):
    doc = json.loads(Path(GENERAL).read_text("utf-8"))
    doc["market"]["surprise"] = 1
    bad = tmp_path / "unknown_field.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["price-general", str(bad)]) == 3
    assert "scenario rejected" in capsys.readouterr().err


def _nested_array(depth: int) -> list:
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


@pytest.mark.parametrize("command, base, edit, pointer", [
    ("price-general", GENERAL, lambda d: d["market"].update(currency=_nested_array(400)),
     "/market/currency"),
    ("dealer-sim", DEALER_MAX, lambda d: d["terms"].update(fed_fee="x" * 5000), "/terms/fed_fee"),
], ids=["nested_currency", "long_fed_fee"])
def test_a_validation_message_shows_at_most_60_characters_of_a_value(
        capsys, tmp_path, command, base, edit, pointer):
    assert main([command, _write_scenario(tmp_path, base, edit)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: scenario rejected at {pointer}: [^\n]{{1,140}}\n", err), err
    assert "..." in err


def test_mc_sample_budget_is_exit_3(capsys, tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("sampled despite an over-budget mc.n")

    monkeypatch.setattr("repo_options.cli.mc_sample_stats", never)
    doc = json.loads(Path(GENERAL_MC).read_text("utf-8"))
    doc["mc"]["n"] = 10**13
    path = tmp_path / "huge_mc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["price-general", str(path), "--format", "json"]) == 3
    assert "scenario rejected at /mc/n" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_non_finite_report_value_is_exit_4(capsys, tmp_path, fmt):
    # a subnormal spot underflows S/K: a finite premium over the spot overflows its rate
    doc = json.loads(Path(SPECIAL).read_text("utf-8"))
    doc["market"].update(spot_price=5e-324, volatility=1.0)
    doc["terms"] = {"repurchase_price": 2.0}
    path = tmp_path / "overflowing_premium_rate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["price-special", str(path), "--format", fmt]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: report value outputs.quote.premium_rate is inf")


def _finite_leaves(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_leaves(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_leaves(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@pytest.mark.parametrize(
    "command, base, market, terms, expected, err",
    [
        # forward sd underflows to 0.0: no lender-rate model
        ("price-general", "general_3sigma.json", {"spot_price": 1.0, "volatility": 5e-324},
         {"repurchase_price": 0.97}, 3, "forward standard deviation"),
        # subnormal forward sd, |c| past 1e154: the strike censors every draw,
        # so the quote is the deterministic one (loan = K, repo rate = risk-free)
        ("price-general", "general_3sigma.json", {"volatility": 5e-324},
         {"repurchase_price": 97000.0}, 0, None),
        # most of the Gaussian mass below zero: negative loan
        ("price-general", "general_3sigma.json", {"volatility": 5.0, "tenor_days": 365},
         {"repurchase_price": 1.0}, 4, "lent amount"),
        ("price-general", "general_3sigma.json", {"volatility": 1e-300},
         {"repurchase_price": 99000.0}, 0, None),
        # vol * sqrt(tenor) underflows: deterministic Black-Scholes branch
        ("price-special", "special_lender_fail.json", {"volatility": 5e-324}, {}, 0, None),
        # per-period rates so large that the repayments overflow: refused as out of
        # domain, not reported as a closing leg with NaN slack
        ("dealer-sim", "dealer_gain_funded.json", {},
         {"special_rate": 1e308, "general_rate": 1e308}, 3,
         "error: ledger amount client_repayment must be finite, got inf\n"),
        # haircuts so low that the loans overflow: refused before the fee, which
        # "max" makes inf as well
        ("dealer-sim", "dealer_max_fee.json", {},
         {"special_haircut": -1e308, "general_haircut": -1e308, "fed_fee": 0}, 3,
         "error: ledger amount client_loan must be finite, got inf\n"),
        ("dealer-sim", "dealer_max_fee.json", {},
         {"special_haircut": -1e308, "general_haircut": -1e308, "fed_fee": "max"}, 3,
         "error: ledger amount client_loan must be finite, got inf\n"),
        # e^{-rT} would overflow, but only past r*t < -709, where 1 + r*t is negative:
        # refused with the market
        ("price-special", "special_lender_fail.json",
         {"risk_free_rate": -94.0, "tenor_days": 2719}, {}, 3,
         "simple-interest factor 1 + risk_free_rate * tenor_days / day_count must be > 0"),
        # S/K underflows inside ln(S/K): finite premium, unbounded premium rate
        ("price-special", "special_lender_fail.json", {"spot_price": 5e-324, "volatility": 1.0},
         {"repurchase_price": 2.0}, 4, "outputs.quote.premium_rate is inf"),
        # JSON integers past the float range
        ("price-general", "general_3sigma.json", {"tenor_days": 10**400}, {}, 3,
         "/market/tenor_days: integer beyond the float range"),
        ("price-general", "general_3sigma.json", {"risk_free_rate": -(10**400)}, {}, 3,
         "/market/risk_free_rate: integer beyond the float range"),
        # rates so large that rounding alone breaks the 1e-10 identity gate:
        # refused as out of domain, not reported as a broken identity
        ("price-general", "general_3sigma.json",
         {"risk_free_rate": 6077489727937541.0, "tenor_days": 30}, {"sigma_multiple": 0}, 4,
         "per-period lender rate 3.338e+14 is outside the model's domain"),
        ("price-general", "general_3sigma.json",
         {"intrinsic_yield": -1.99e47, "tenor_days": 30}, {"repurchase_price": 1.0}, 3,
         "simple-interest factor 1 + intrinsic_yield * tenor_days / day_count must be > 0"),
        # a special rate above the general rate: "max" resolves to a negative fee
        ("dealer-sim", "dealer_gain_funded.json", {}, {"fed_fee": "max"}, 3,
         'scenario rejected at /terms/fed_fee: "max" resolves to -5.444546287809349: '
         "special_rate 0.05 is above general_rate 0.03, so no fee can be funded"),
        # two faults: the general rate, -2 per period, and the special rate derived from the
        # haircut, -2.96 per period; the given rate is refused at its pointer before any
        # side is derived from it
        ("price-special", "relations_guaranteed_delivery.json", {},
         {"general_rate": -24.0, "special_haircut": 0.5}, 3,
         "error: scenario rejected at /terms/general_rate: -24.0 per annum is -2.0 per period; "
         "a per-period rate must be finite and > -1\n"),
        # a per-annum rate that is <= -1 or overflows per period is refused at its pointer,
        # not blamed on the special haircut derived from it
        ("price-special", "relations_normal.json", {}, {"general_rate": -400}, 3,
         "error: scenario rejected at /terms/general_rate: -400.0 per annum is "
         "-33.33333333333333 per period; a per-period rate must be finite and > -1\n"),
        ("dealer-sim", "dealer_gain_funded.json", {}, {"general_rate": -400}, 3,
         "error: scenario rejected at /terms/general_rate: -400.0 per annum is "
         "-1.1111111111111112 per period; a per-period rate must be finite and > -1\n"),
        ("price-special", "relations_normal.json", {"tenor_days": 730},
         {"general_rate": 1e308}, 3,
         "error: scenario rejected at /terms/general_rate: 1e+308 per annum is inf per period; "
         "a per-period rate must be finite and > -1\n"),
        ("dealer-sim", "dealer_gain_funded.json", {"tenor_days": 730},
         {"general_rate": 1e308}, 3,
         "error: scenario rejected at /terms/general_rate: 1e+308 per annum is inf per period; "
         "a per-period rate must be finite and > -1\n"),
        # amounts the relations report computes from the spot, overflowed: refused by name,
        # not left to the renderers' finite-output check
        ("price-special", "relations_normal.json", {}, {"general_haircut": -1e306}, 3,
         "error: relations amount max_fee must be finite, got inf\n"),
        ("price-special", "relations_normal.json", {}, {"general_rate": 1e306}, 3,
         "error: relations amount max_fee must be finite, got inf\n"),
        # a near-zero strike over ten years at 50 %: the Black-Scholes haircut is the
        # whole spot, so the loan it implies is not positive
        ("price-general", "general_3sigma.json",
         {"intrinsic_yield": 0.5, "risk_free_rate": 0.5, "tenor_days": 3650},
         {"repurchase_price": 1e-9}, 4,
         "error: benchmark haircut 100000 >= spot 100000: implied loan is non-positive\n"),
        # 7.25 forward sds above the forward mean: the haircut, one ulp of the spot, is
        # rounding dust, not a price
        ("price-general", "general_3sigma.json", {}, {"repurchase_price": 107268.39579480325},
         4, "error: rounding-dust haircut 1.45519e-11: repurchase price 107268 sits too far "
         "above the forward mean for the implicit-call interpretation\n"),
    ],
)
def test_degenerate_inputs_fail_typed_or_stay_finite(
    capsys, tmp_path, command, base, market, terms, expected, err
):
    doc = json.loads((SCENARIO_DIR / base).read_text("utf-8"))
    doc["market"].update(market)
    doc["terms"].update(terms)
    if "repurchase_price" in terms:
        doc["terms"].pop("sigma_multiple")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert code == expected, captured.err
    if expected == 0:
        assert _finite_leaves(json.loads(captured.out))
    else:
        assert captured.err.startswith("error:")
        assert err is None or err in captured.err


def _json_number(typical, minimum=None, exclusive=False):
    """JSON numbers the schema accepts: typical floats half the time, else any float or integer.

    The typical range leaves out its lower end, which the full range covers.
    """
    return st.one_of(
        st.floats(*typical, exclude_min=True),
        st.one_of(
            st.floats(minimum, None, exclude_min=exclusive, allow_nan=False,
                      allow_infinity=False),
            st.integers(-(2**64) if minimum is None else minimum + exclusive, 2**64),
        ),
    )


_market = st.fixed_dictionaries(
    {
        "spot_price": _json_number((0, 1e9), 0, exclusive=True),
        "intrinsic_yield": _json_number((-0.1, 0.2)),
        "volatility": _json_number((0, 1), 0),
        "tenor_days": st.one_of(st.integers(1, 365), st.integers(1, 2**1000)),
        "risk_free_rate": _json_number((-0.05, 0.1)),
        "day_count": st.sampled_from([360, 365]),
    },
    optional={"currency": st.text(min_size=1)},
)


@st.composite
def _market_and_terms(draw):
    """A market and strike terms: any repurchase price or sigma multiple, or one near spot."""
    market = draw(_market)
    terms = draw(st.one_of(
        st.fixed_dictionaries({"repurchase_price": _json_number((0, 1e9), 0, exclusive=True)}),
        st.fixed_dictionaries({"sigma_multiple": _json_number((0, 4), 0)}),
        st.floats(0.5, 1.0).map(lambda f: {"repurchase_price": f * market["spot_price"]})
        .filter(lambda t: 0.0 < t["repurchase_price"] < math.inf),
    ))
    return market, terms


# Some documents get an integer past the float range (still a JSON number
# the schema accepts) in one market field.
_past_float_range = st.one_of(st.none(), st.sampled_from(
    ["spot_price", "intrinsic_yield", "volatility", "tenor_days", "risk_free_rate"]))
_COMMANDS = {"general": "price-general", "special_lender": "price-special"}


def _json_integer(minimum, maximum=None):
    """JSON numbers the schema's ``integer`` accepts: ints, and floats such as ``30.0``."""
    integers = st.integers(minimum, maximum)
    return st.one_of(integers, integers.filter(lambda i: i < 2**1023).map(float))


# Some documents ask for the oracle, over at most two chunks and any seed.
_mc = st.one_of(st.none(), st.fixed_dictionaries(
    {"n": _json_integer(2, 2 * CHUNK_SIZE), "seed": _json_integer(0)}))


def _reject_constant(token):
    raise AssertionError(f"non-standard JSON token {token}")


def _assert_in_domain(command, scenario, outputs):
    """The model's domain on an exit-0 report of a general quote, a ladder, a lender-fail
    quote, a relations tuple or a dealer ledger.  A slack of 4 ulps of the larger operand
    covers the rounding of the two products and the sum each bound compares (under 1 ulp in
    a 150,000-market sweep); for the relations, 4 ulps of max(1, |haircuts|, |fee_rate|);
    for the ledger's decomposition_gap, 4 ulps of its largest amount A.  Sweeps replacing
    each rate, haircut, intermediate price and fee half the time by +-10^U(-6, 12) measured
    at most 1.99 ulps of A over 6,211 exit-0 ledgers, 2.85 over 66,777 and 3.05 over 199,134."""
    m, ulps = scenario.market, 4 * sys.float_info.epsilon
    spot, r, y = m.spot_price, m.risk_free_rate, m.intrinsic_yield
    # haircut = spot - lent rounds to spot once the loan is below half an ulp of spot;
    # a haircut of at most 3 * epsilon * spot is rounding dust, which pricing refuses
    haircuts = [row["haircut"] for row in outputs["rows"]] if command == "compare-bs" else []
    if command == "price-general":
        q = outputs["quote"]
        haircuts.append(q["haircut"])
        assert q["lent_amount"] > 0.0 and q["forward_mean"] > 0.0
        assert q["revenue_mean"] <= min(q["repurchase_price"], q["forward_mean"])
        # r + (y - r) * ratio^2 with ratio in [0, 1]
        slack = ulps * max(abs(r), abs(y))
        assert min(r, y) - slack <= q["lender_rate"]["value"] <= max(r, y) + slack
    elif scenario.kind == "special_lender":
        q = outputs["quote"]
        # the European put's lower bound, K e^{-rT} - S
        discounted = q["repurchase_price"] * math.exp(-r * m.period_years)
        slack = ulps * max(discounted, spot)
        assert q["premium"] >= max(discounted - spot, 0.0) - slack
    elif scenario.kind == "special_relations":
        rel = outputs["relations"]
        g, s, fee = rel["general_haircut"], rel["special_haircut"], rel["fee_rate"]["value"]
        special_rate = rel["special_rate"]["value"]
        assert rel["general_rate"]["value"] > -1.0 and special_rate > -1.0
        assert g < 1.0 and s < 1.0
        # equal in real arithmetic (multiply through by 1 + special_rate); the gap is at
        # most 0.30 ulps of that scale over the property test's draws (17 exit-0 reports)
        # and 2.0 over 73,919 exit-0 reports of a random 200,000-document sweep
        gap = (g - s - fee) - rel["balance_residual"] / (1.0 + special_rate)
        assert abs(gap) <= ulps * max(1.0, abs(g), abs(s), abs(fee)), gap
    elif scenario.kind == "dealer":
        d, steps = scenario.terms, outputs["steps"]
        assert steps[-1]["notes"] == 0 and steps[-1]["collateral"] == 0.0
        assert all(step["cash"] >= -1e-9 * d.spot_value for step in steps[:6])
        assert all(c["satisfied"] for c in outputs["liquidity"] if c["enforced"])
        amounts = (d.spot_value, d.intermediate_value, d.client_loan, d.general_lend,
                   d.client_repayment, d.general_repayment, d.fed_fee)
        gap = outputs["cashflow"]["decomposition_gap"]
        assert abs(gap) <= ulps * max(map(abs, amounts)), gap
    assert all(3 * sys.float_info.epsilon * spot < h <= spot for h in haircuts), haircuts


def _run_main(tmp_path_factory, command, doc, flags):
    """Exit code, stdout and stderr of ``command`` on ``doc``; no warning is raised."""
    path = tmp_path_factory.mktemp("property") / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, str(path), *flags, "--format", "json"])
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


def _assert_finite_or_typed_error(tmp_path_factory, command, doc, huge_field, flags=()):
    """Run ``command`` on the schema-valid ``doc``: exit 0 with finite strict JSON, or a
    typed error (exit 3/4/5, ``error:`` on stderr, nothing on stdout); no warning either way.
    Then hold the run to the scale law (``_assert_scale_law``); returns the pairs skipped."""
    validate_scenario_data(doc)
    # the schema accepts any integer here; validation refuses one past the float range
    if huge_field is not None:
        doc["market"][huge_field] = 10**400
    code, out, err = _run_main(tmp_path_factory, command, doc, flags)
    report = None
    if code == 0:
        report = json.loads(out, parse_constant=_reject_constant)
        assert _finite_leaves(report)
        _assert_in_domain(command, parse_scenario(doc), report["outputs"])
    else:
        assert code in (3, 4, 5), err
        assert out == ""
        assert err.startswith("error: ")
    return sum(not _assert_scale_law(tmp_path_factory, command, doc, flags, code, report, factor)
               for factor in (2.0, 0.5))


#: The float leaves of each command's report that are money (a list index reads as
#: ``[]``): scaling every money input by a power of two scales these exactly and leaves
#: every other leaf of ``outputs`` and ``oracle`` bit-identical.
_ORACLE_MONEY = {"estimate.mean", "estimate.sd", "estimate.se_mean", "estimate.se_sd",
                 "closed_form.mean", "closed_form.sd", "delta_mean", "delta_sd"}
_MONEY_PATHS = {
    "price-general": {"quote.forward_mean", "quote.haircut", "quote.lent_amount",
                      "quote.option_value_mean", "quote.repurchase_price", "quote.revenue_mean",
                      "quote.revenue_sd_abs", "benchmark.bs_haircut", "benchmark.haircut_gap",
                      *_ORACLE_MONEY},
    "price-special": {"quote.lent_amount", "quote.premium", "quote.put_value_mean",
                      "quote.repurchase_price", "relations.general_lend", "relations.max_fee",
                      *_ORACLE_MONEY},
    "dealer-sim": {"resolved_fed_fee", "steps[].cash", "steps[].cash_delta", "steps[].collateral",
                   "steps[].collateral_delta", "liquidity[].slack", "cashflow.decomposition_gap",
                   "cashflow.interest_and_fees", "cashflow.ledger_cash", "cashflow.speculative",
                   "cashflow.total"},
    "compare-bs": {"rows[].strike", "rows[].haircut", "rows[].bs_haircut", "rows[].gap"},
}


def _money_terms(terms):
    """The money terms ``terms`` gives as numbers; a ``fed_fee`` of ``"max"`` is computed."""
    return [name for name in ("repurchase_price", "note_spot", "intermediate_price", "fed_fee")
            if name in terms and terms[name] != "max"]


def _keeps_bits(value, factor) -> bool:
    """Whether ``value`` and ``value * factor`` are both zero or normal floats."""
    return value == 0.0 or sys.float_info.min <= abs(value) and \
        sys.float_info.min <= abs(value * factor) <= sys.float_info.max


def _money_values(doc, strikes):
    """The money values a run of ``doc`` reads: the spot, the money terms, a ladder's finite
    strikes and, for a quote, the forward mean, spot * volatility and the forward sd, as
    ``forward_gaussian`` computes them.  An integer past the float range reads as inf; one
    in another market field leaves the forward out, since validation refuses it whatever
    the scale."""
    market = doc["market"]
    money = [market["spot_price"], *(doc["terms"][name] for name in _money_terms(doc["terms"]))]
    money = [float(v) if abs(v) < 2**1024 else math.inf for v in money]
    money += filter(math.isfinite, strikes)
    with contextlib.suppress(OverflowError):
        if doc["kind"] in ("general", "special_lender"):
            spot, y, vol = (float(market[k]) for k in ("spot_price", "intrinsic_yield",
                                                       "volatility"))
            t = market["tenor_days"] / market["day_count"]
            money += [spot * (1.0 + y * t), spot * vol, spot * vol * math.sqrt(t)]
    return money


def _leaves(value, path=""):
    """(path, leaf) pairs of a report section, a list index read as ``[]``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, path + "[]")
    else:
        yield path, value


def _assert_scale_law(tmp_path_factory, command, doc, flags, code, report, factor) -> bool:
    """Rerun ``doc`` with every money input times ``factor``, a power of two, and assert the
    same exit code; on exit 0, each float leaf of ``outputs`` and ``oracle`` is ``factor``
    times the first run's on a ``_MONEY_PATHS`` path and the first run's bits elsewhere.
    False, with nothing asserted, when a money value the runs read or a money leaf of
    either report is subnormal or overflows, so that scaling it rounds."""
    ladder = command == "compare-bs"
    strikes = [float(s) for s in flags[0].partition("=")[2].split(",")] if ladder else []
    if not all(_keeps_bits(v, factor) for v in _money_values(doc, strikes)):
        return False
    scaled = {**doc, "market": dict(doc["market"], spot_price=doc["market"]["spot_price"]
                                    * factor), "terms": dict(doc["terms"])}
    for name in _money_terms(doc["terms"]):
        scaled["terms"][name] *= factor
    if ladder:
        flags = ("--strikes=" + ",".join(repr(s * factor) for s in strikes),)
    scaled_code, out, err = _run_main(tmp_path_factory, command, scaled, flags)
    other = json.loads(out) if scaled_code == 0 else None
    sections = ("outputs", "oracle")
    for run, to_other in ((report, factor), (other, 1.0 / factor)):
        if run is not None and not all(
                _keeps_bits(v, to_other) for name in sections
                for path, v in _leaves(run.get(name)) if path in _MONEY_PATHS[command]):
            return False
    assert scaled_code == code, (factor, doc, flags, err)
    for name in sections if code == 0 else ():
        for (path, first), (scaled_path, second) in zip(
                _leaves(report.get(name)), _leaves(other.get(name)), strict=True):
            assert scaled_path == path and type(second) is type(first), (path, first, second)
            if isinstance(first, float):
                expected = first * factor if path in _MONEY_PATHS[command] else first
                assert second.hex() == expected.hex(), (factor, path, first, second)
            else:
                assert second == first, (path, first, second)
    return True


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_COMMANDS)), market_and_terms=_market_and_terms(),
       huge_field=_past_float_range, mc=_mc)
def test_schema_valid_quotes_are_finite_or_typed_errors(tmp_path_factory, kind,
                                                        market_and_terms, huge_field, mc):
    # Also the scale law at x2 and x0.5: 175 of the 400 pairs are checked, and 225 skipped
    # because a money value is subnormal or overflows (mostly the extreme floats hypothesis
    # favours, and a spot past the float range).  A comment, not a docstring, since
    # hypothesis derives a derandomized test's examples from its source without comments.
    market, terms = market_and_terms
    doc = {"schema_version": "1", "kind": kind, "market": market, "terms": terms}
    if mc is not None:
        doc["mc"] = mc
    _assert_finite_or_typed_error(tmp_path_factory, _COMMANDS[kind], doc, huge_field)


_rate = _json_number((-0.05, 0.2))
# haircuts: any number below 1 (exclusiveMaximum), typical ones half the time
_haircut = st.one_of(
    st.floats(0, 0.1),
    st.one_of(
        st.floats(None, 1, exclude_max=True, allow_nan=False, allow_infinity=False),
        st.integers(-(2**64), 0),
    ),
)


@st.composite
def _relations_case(draw):
    terms = draw(st.fixed_dictionaries(
        {"general_haircut": _haircut, "general_rate": _rate},
        optional={"special_haircut": _haircut, "special_rate": _rate},
    ).filter(lambda t: "special_haircut" in t or "special_rate" in t))
    return "price-special", "special_relations", draw(_market), terms, ()


_dealer_rates_and_fee = st.one_of(
    # all typical at once, so that some documents reach a funded ledger
    st.fixed_dictionaries({
        "special_rate": st.floats(-0.05, 0.2),
        "general_rate": st.floats(-0.05, 0.2),
        "special_haircut": st.floats(0, 0.1),
        "general_haircut": st.floats(0, 0.1),
        "fed_fee": st.one_of(st.just("max"), st.floats(0, 1e3)),
    }),
    st.fixed_dictionaries({
        "special_rate": _rate,
        "general_rate": _rate,
        "special_haircut": _haircut,
        "general_haircut": _haircut,
        "fed_fee": st.one_of(st.just("max"), _json_number((0, 1e3), 0)),
    }),
)


@st.composite
def _dealer_case(draw):
    """Dealer terms; three markets in four get the spot ``note_count * note_spot`` they must
    have, the rest keep a random one."""
    market = draw(_market)
    note_count = draw(st.one_of(st.integers(1, 1000), st.integers(1, 2**64)))
    note_spot = draw(_json_number((0, 1e4), 0, exclusive=True))
    terms = {
        "note_count": note_count,
        "note_spot": note_spot,
        "intermediate_price": draw(st.one_of(
            _json_number((0, 1e4), 0, exclusive=True),
            st.floats(0.9, 1.02).map(lambda f: f * note_spot)
            .filter(lambda p: 0.0 < p < math.inf),
        )),
        **draw(_dealer_rates_and_fee),
    }
    implied = note_count * float(note_spot)
    if draw(st.integers(0, 3)) and 0.0 < implied < math.inf:
        market["spot_price"] = implied
    flags = draw(st.sampled_from([(), ("--no-strict",)]))
    return "dealer-sim", "dealer", market, terms, flags


@st.composite
def _compare_bs_case(draw):
    """A general market and a ladder of 1-16 strikes: any number ``float`` parses,
    or one near spot."""
    market, terms = draw(_market_and_terms())
    strikes = draw(st.lists(st.one_of(
        st.floats(0.5, 1.0).map(lambda f: f * market["spot_price"]),
        st.floats(),
        st.integers(),
    ), min_size=1, max_size=16))
    # the "=" form, since a ladder may start with "-"
    return "compare-bs", "general", market, terms, ("--strikes=" + ",".join(map(repr, strikes)),)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=st.one_of(_relations_case(), _dealer_case(), _compare_bs_case()),
       huge_field=_past_float_range)
def test_schema_valid_relations_dealer_and_ladders_are_finite_or_typed_errors(
    tmp_path_factory, case, huge_field
):
    # Also the scale law at x2 and x0.5: 412 of the 800 pairs are checked, and 388 skipped
    # because a money value is subnormal or overflows.
    command, kind, market, terms, flags = case
    doc = {"schema_version": "1", "kind": kind, "market": market, "terms": terms}
    _assert_finite_or_typed_error(tmp_path_factory, command, doc, huge_field, flags)


@pytest.mark.parametrize("command, base, flags", [
    ("price-general", "general_3sigma.json", ("--seed", "3")),
    ("price-general", "general_2sigma_mc.json", ()),
    ("price-special", "special_lender_fail.json", ("--seed", "3")),
    ("price-special", "relations_normal.json", ()),
    ("price-special", "relations_guaranteed_delivery.json", ()),
    ("dealer-sim", "dealer_max_fee.json", ()),
    ("dealer-sim", "dealer_gain_funded.json", ("--no-strict",)),
    ("dealer-sim", "dealer_overdrawn_fee.json", ()),
    ("compare-bs", "general_3sigma.json", ("--strikes=90000,97003.92,98005.39,110000",)),
])
def test_bundled_reports_obey_the_scale_law(tmp_path_factory, command, base, flags):
    # oracle sections included; no bundled money value is near the float range's ends
    doc = json.loads((SCENARIO_DIR / base).read_text("utf-8"))
    assert _assert_finite_or_typed_error(tmp_path_factory, command, doc, None, flags) == 0


def test_argparse_errors_are_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["price-general", GENERAL, "--format", "yaml"]) == 2
    capsys.readouterr()
    assert main(["reproduce-examples", "--day-count", "252"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_main_runs_openblas_on_one_thread_unless_the_caller_chose(
        capsys, monkeypatch, preset, expected):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "unset")  # so teardown restores the original
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    assert main(["--version"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == expected


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "repo-options" in capsys.readouterr().out


# What users see of the parser, at 80 columns: the help of the top level (None) and
# of each command, and one usage error, so a change to how the parser is built
# cannot change them unnoticed.
_HELP = {
    None: """\
usage: repo-options [-h] [--version]
                    {price-general,price-special,dealer-sim,reproduce-examples,compare-bs}
                    ...

Price the options implicit in collateralised lending: general-repo haircuts,
lender-fail premiums, rate/haircut algebra, and the dealer financing ledger.

positional arguments:
  {price-general,price-special,dealer-sim,reproduce-examples,compare-bs}
    price-general       price a general-collateral loan and its implicit call
    price-special       price a lender-fail loan or check special/general rate
                        relations
    dealer-sim          run the nine-step dealer financing ledger
    reproduce-examples  recompute all bundled reference figures and check
                        tolerances
    compare-bs          compare pipeline haircuts against the option-pricing
                        benchmark

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    'price-general': """\
usage: repo-options price-general [-h] [--format {json,csv,table}]
                                  [--seed SEED] [--out PATH]
                                  scenario

positional arguments:
  scenario              path to a scenario JSON file (kind: general)

options:
  -h, --help            show this help message and exit
  --format {json,csv,table}
                        output format (default: table)
  --seed SEED           simulation seed; on pricing commands also enables the
                        oracle section
  --out PATH            write output to a file
""",
    'price-special': """\
usage: repo-options price-special [-h] [--format {json,csv,table}]
                                  [--seed SEED] [--out PATH]
                                  scenario

positional arguments:
  scenario              path to a scenario JSON file (kind: special_lender or
                        special_relations)

options:
  -h, --help            show this help message and exit
  --format {json,csv,table}
                        output format (default: table)
  --seed SEED           simulation seed; on pricing commands also enables the
                        oracle section
  --out PATH            write output to a file
""",
    'dealer-sim': """\
usage: repo-options dealer-sim [-h] [--format {json,csv,table}] [--seed SEED]
                               [--out PATH] [--no-strict]
                               scenario

positional arguments:
  scenario              path to a scenario JSON file (kind: dealer)

options:
  -h, --help            show this help message and exit
  --format {json,csv,table}
                        output format (default: table)
  --seed SEED           simulation seed; on pricing commands also enables the
                        oracle section
  --out PATH            write output to a file
  --no-strict           let the realized trading gain count toward funding the
                        closing leg
""",
    'reproduce-examples': """\
usage: repo-options reproduce-examples [-h] [--format {json,csv,table}]
                                       [--seed SEED] [--out PATH] [--mc]
                                       [--day-count {360,365}]

options:
  -h, --help            show this help message and exit
  --format {json,csv,table}
                        output format (default: table)
  --seed SEED           simulation seed; on pricing commands also enables the
                        oracle section
  --out PATH            write output to a file
  --mc                  add seeded simulation cross-check rows
  --day-count {360,365}
                        rate-year convention (reference values assume 360)
""",
    'compare-bs': """\
usage: repo-options compare-bs [-h] [--format {json,csv,table}] [--seed SEED]
                               [--out PATH] --strikes STRIKES
                               scenario

positional arguments:
  scenario              path to a scenario JSON file (kind: general)

options:
  -h, --help            show this help message and exit
  --format {json,csv,table}
                        output format (default: table)
  --seed SEED           simulation seed; on pricing commands also enables the
                        oracle section
  --out PATH            write output to a file
  --strikes STRIKES     comma-separated repurchase prices (currency units)
""",
}
if sys.version_info >= (3, 13):
    # argparse 3.13 wraps a usage between actions only, so the command choices keep
    # their "..." on one line; the other texts are the same on 3.10 to 3.13
    _HELP[None] = _HELP[None].replace("compare-bs}\n" + " " * 20 + "...", "compare-bs} ...", 1)

_MISSING_STRIKES = """\
usage: repo-options compare-bs [-h] [--format {json,csv,table}] [--seed SEED]
                               [--out PATH] --strikes STRIKES
                               scenario
repo-options compare-bs: error: the following arguments are required: --strikes
"""


@pytest.mark.parametrize("command", list(_HELP))
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"] if command is None else [command, "--help"]) == 0
    assert capsys.readouterr() == (_HELP[command], "")


def test_missing_required_option_prints_pinned_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["compare-bs", "x"]) == 2
    assert capsys.readouterr() == ("", _MISSING_STRIKES)


def _declared_scripts() -> dict:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (REPO_ROOT / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def test_console_script_installed(tmp_path):
    """The declared ``repo-options`` entry point works as an installed script.

    Checks the source tree, not whatever copy is on PATH: the spec in
    ``[project.scripts]`` must name ``cli.main``, and the launcher that
    installers generate for it must run a scenario to exit code 0.
    """
    scripts = _declared_scripts()
    assert "repo-options" in scripts, "repo-options missing from [project.scripts]"
    spec = scripts["repo-options"]
    assert pkgutil.resolve_name(spec) is main
    module, _, attr = spec.partition(":")
    launcher = tmp_path / "repo-options"
    launcher.write_text(
        f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n",
        encoding="utf-8",
    )
    package_root = str(Path(repo_options.__file__).resolve().parent.parent)
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    result = subprocess.run(
        [sys.executable, str(launcher), "price-general", GENERAL, "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)},
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["provenance"]["tool"] == "repo-options"


def test_bundled_outputs_match_golden():
    """Every bundled scenario and ``reproduce-examples --mc`` still prints its golden
    report (``perfbench/golden.py check``), so a change to a bundled number fails here."""
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / "golden.py"), "check"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


# Runs in a fresh interpreter because pytest has already imported numpy.
_HEAVY_IMPORT_PROBE = """
import contextlib, io, json, sys
import repo_options
bare = sorted(m for m in sys.modules if m.startswith("repo_options.") or m == "numpy")
from repo_options.cli import main

def loaded(*argv):
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(list(argv))
        if code != 0:
            sys.exit(f"{argv} exited {code}")
    return sorted(m for m in ("numpy", "jsonschema", "concurrent.futures", "dataclasses",
                              "inspect", "csv") if m in sys.modules)

general, general_mc, special, relations, dealer = sys.argv[1:]
print(json.dumps([
    bare,
    loaded(),
    loaded("reproduce-examples", "--format", "csv"),
    loaded("price-general", general, "--format", "json"),
    [loaded(*argv) for argv in (
        ("price-general", general, "--format", "csv"),
        ("compare-bs", general, "--strikes", "95000,99000", "--format", "csv"),
        ("price-special", special, "--format", "csv"),
        ("price-special", relations, "--format", "csv"),
        ("dealer-sim", dealer, "--format", "csv"),
    )],
    loaded("price-general", general_mc, "--format", "json"),
]))
"""


def test_heavy_imports_load_only_when_used():
    """numpy loads only for an oracle run, and jsonschema never loads: validation
    interprets the scenario schema itself.

    ``concurrent.futures`` (which pulls in ``logging``) loads only for an
    oracle run of more than one chunk, so the 1-chunk oracle run leaves it out.
    ``dataclasses`` never loads: the records are NamedTuples.  Nor does
    ``inspect`` without numpy (``import numpy`` loads it).  ``csv`` never loads:
    the CSV renderer quotes its fields itself, so no command pays for the module.
    ``import repo_options`` alone loads no submodule, nor numpy: each exported name
    loads its module on first use.
    """
    package_root = str(Path(repo_options.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", _HEAVY_IMPORT_PROBE, GENERAL, GENERAL_MC, SPECIAL, RELATIONS,
         DEALER_MAX],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert result.returncode == 0, result.stderr
    (bare, after_import, after_reproduce, after_price, after_csv,
     after_oracle) = json.loads(result.stdout)
    assert bare == []
    assert after_import == []
    assert after_reproduce == []
    assert after_price == []
    assert after_csv == [[]] * 5
    assert [m for m in after_oracle if m != "inspect"] == ["numpy"]


#: Every exported class but the errors is an immutable record.
_RECORDS = [name for name in repo_options.__all__
            if isinstance(getattr(repo_options, name), type)
            and not issubclass(getattr(repo_options, name), Exception)]

#: For the records that check their fields: valid fields, another valid value for one
#: field, and changes of one or more fields that the record refuses.
_CHECKED_RECORDS = {
    "BsInputs": (dict(spot=100.0, strike=90.0, rate=0.01, vol=0.2, tenor=0.5),
                 ("tenor", 1.0), [dict(vol=-0.2)]),
    "DealerScenario": (dict(note_count=10, note_spot=100.0, intermediate_price=99.0,
                            special_rate=0.001, general_rate=0.002, special_haircut=0.01,
                            general_haircut=0.02, fed_fee=0.5),
                       ("fed_fee", 0.25), [dict(note_count=0), dict(note_count=10**400)]),
    "GaussianParams": (dict(mean=1.0, sd=2.0), ("sd", 3.0), [dict(sd=-1.0)]),
    "MarketParams": (dict(spot_price=100.0, intrinsic_yield=0.03, volatility=0.19,
                          tenor_days=1, risk_free_rate=0.0, day_count=360),
                     ("day_count", 365), [dict(day_count=364), dict(tenor_days=10**400)]),
    # special_rate=1e-10 leaves a balance residual of 1e-10, within 1e-9; the second
    # change keeps the balance: (1 - 2)(1 - 2) = (1 + 0.25)(1 - 0.2)
    "SpecialRepoRelations": (dict(general_rate=0.25, special_rate=0.0, general_haircut=0.2,
                                  special_haircut=0.0),
                             ("special_rate", 1e-10),
                             [dict(special_haircut=0.01),
                              dict(special_rate=-2.0, special_haircut=2.0)]),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_exported_record_contract(name):
    """Each record is immutable, equal by fields and names its fields in its repr, and
    ``_replace`` and ``_make`` build it as the constructor does; one that checks its
    fields refuses each bad change, and a nan in any one field, on each of those three
    paths.  A relations record computes its fee rate and holds no derived field."""
    record = getattr(repo_options, name)
    assert (name in _CHECKED_RECORDS) == issubclass(record, CheckedRecord)
    if name in _CHECKED_RECORDS:
        fields, (field, other), bad_changes = _CHECKED_RECORDS[name]
        bad_changes = [*bad_changes, *({f: math.nan} for f in record._fields)]
    else:
        fields, bad_changes = dict.fromkeys(record._fields, 1.0), []
        field, other = record._fields[0], 2.0
    value = record(**fields)
    assert [getattr(value, f) for f in fields] == list(fields.values())
    assert value == record(**fields)
    assert value != record(**{**fields, field: other})
    for attr in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, attr, other)
    assert repr(value) == f"{name}({', '.join(f'{f}={v!r}' for f, v in fields.items())})"
    changed = {**fields, field: other}
    for built in (value._replace(**{field: other}), record._make(changed.values())):
        assert type(built) is record
        assert built == record(**changed)
    for bad in bad_changes:
        bad_fields = {**fields, **bad}
        for build in (lambda: record(**bad_fields), lambda: value._replace(**bad),
                      lambda: record._make(bad_fields.values())):
            with pytest.raises(repo_options.ValidationError):
                build()
    if name == "SpecialRepoRelations":
        for built in (value, value._replace(**{field: other}), record._make(changed.values())):
            fee = repo_options.fed_fee_rate(built.general_rate, built.special_rate,
                                            built.general_haircut)
            assert built.fee_rate.hex() == fee.hex()
        derived = dict(fee_rate=0.0, max_fee=-5.0, general_lend=1e9)
        for build in (lambda: record(**fields, **derived), lambda: value._replace(**derived),
                      lambda: record._make([*fields.values(), *derived.values()])):
            with pytest.raises((TypeError, ValueError)):
                build()


def test_each_export_is_its_defining_modules_own_object():
    """Each name of ``__all__`` resolves, on first use, to the very object its module
    defines; ``import *`` binds them all, a submodule still imports by name, and an
    unknown name raises AttributeError naming it."""
    for name in repo_options.__all__:
        module = repo_options._MODULE_OF.get(name)
        owner = importlib.import_module(f"repo_options.{module}") if module else repo_options
        assert getattr(repo_options, name) is getattr(owner, name), name
    assert set(repo_options.__all__) <= set(dir(repo_options))
    namespace: dict = {}
    exec("from repo_options import *", namespace)
    assert {name: namespace[name] for name in repo_options.__all__} == {
        name: getattr(repo_options, name) for name in repo_options.__all__}
    exec("from repo_options import errors", namespace)
    assert namespace["errors"] is importlib.import_module("repo_options.errors")
    with pytest.raises(AttributeError, match="'no_such_name'"):
        repo_options.no_such_name  # noqa: B018
