"""Command-line interface: exit codes, formats, determinism, dispatch."""

import contextlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repo_options
from repo_options.cli import main
from repo_options.errors import PricingError
from repo_options.montecarlo import CHUNK_SIZE
from repo_options.reference import build_reference_rows
from repo_options.scenarios import validate_scenario_data

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
    assert captured.err.startswith(f"error: cannot write output file {target}: ")
    assert captured.err.count("\n") == 1
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
        doc["market"].update(intrinsic_yield=-1.99e47, tenor_days=30)
        doc["terms"] = {"repurchase_price": 1.0}
    path = _write_scenario(tmp_path, GENERAL, edit)
    message = ("per-period lender rate -1.658e+46 is outside the model's domain: rounding "
               "at that size alone exceeds the 1e-10 identity tolerance")
    for argv in (["price-general", path], ["compare-bs", path, "--strikes", "1.0"]):
        assert main([*argv, "--format", "json"]) == 4
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


def test_schema_violation_is_exit_3(capsys, tmp_path):
    doc = json.loads(Path(GENERAL).read_text("utf-8"))
    doc["market"]["surprise"] = 1
    bad = tmp_path / "unknown_field.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["price-general", str(bad)]) == 3
    assert "scenario rejected" in capsys.readouterr().err


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
    # a per-annum general rate of 1e308 makes the largest fed fee overflow
    doc = json.loads(Path(RELATIONS).read_text("utf-8"))
    doc["terms"]["general_rate"] = 1e308
    path = tmp_path / "overflowing_fee.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["price-special", str(path), "--format", fmt]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: report value outputs.relations.max_fee is inf")


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
         "ledger amount client_repayment overflows to inf"),
        # haircuts so low that the loans overflow: refused before the fee, which
        # "max" makes inf as well
        ("dealer-sim", "dealer_max_fee.json", {},
         {"special_haircut": -1e308, "general_haircut": -1e308, "fed_fee": 0}, 3,
         "ledger amount client_loan overflows to inf"),
        ("dealer-sim", "dealer_max_fee.json", {},
         {"special_haircut": -1e308, "general_haircut": -1e308, "fed_fee": "max"}, 3,
         "ledger amount client_loan overflows to inf"),
        # e^{-rT} overflows: the Black-Scholes put, and so the loan, is unbounded
        ("price-special", "special_lender_fail.json",
         {"risk_free_rate": -94.0, "tenor_days": 2719}, {}, 4,
         "outputs.quote.lent_amount is inf"),
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
         {"intrinsic_yield": -1.99e47, "tenor_days": 30}, {"repurchase_price": 1.0}, 4,
         "per-period lender rate -1.658e+46 is outside the model's domain"),
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


def _assert_finite_or_typed_error(tmp_path_factory, command, doc, huge_field, flags=()):
    """Run ``command`` on the schema-valid ``doc``: exit 0 with finite strict JSON, or a
    typed error (exit 3/4/5, ``error:`` on stderr, nothing on stdout); no warning either way."""
    validate_scenario_data(doc)
    # the schema accepts any integer here; validation refuses one past the float range
    if huge_field is not None:
        doc["market"][huge_field] = 10**400
    path = tmp_path_factory.mktemp("property") / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, str(path), *flags, "--format", "json"])
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert _finite_leaves(json.loads(out.getvalue(), parse_constant=_reject_constant))
    else:
        assert code in (3, 4, 5), err.getvalue()
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_COMMANDS)), market_and_terms=_market_and_terms(),
       huge_field=_past_float_range, mc=_mc)
def test_schema_valid_quotes_are_finite_or_typed_errors(tmp_path_factory, kind,
                                                        market_and_terms, huge_field, mc):
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
    command, kind, market, terms, flags = case
    doc = {"schema_version": "1", "kind": kind, "market": market, "terms": terms}
    _assert_finite_or_typed_error(tmp_path_factory, command, doc, huge_field, flags)


def test_argparse_errors_are_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["price-general", GENERAL, "--format", "yaml"]) == 2
    capsys.readouterr()
    assert main(["reproduce-examples", "--day-count", "252"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "repo-options" in capsys.readouterr().out


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
from repo_options.cli import main

def loaded(*argv):
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(list(argv))
        if code != 0:
            sys.exit(f"{argv} exited {code}")
    return sorted(m for m in ("numpy", "jsonschema", "concurrent.futures", "dataclasses",
                              "inspect") if m in sys.modules)

general, general_mc = sys.argv[1:]
print(json.dumps([
    loaded(),
    loaded("reproduce-examples"),
    loaded("price-general", general, "--format", "json"),
    loaded("price-general", general_mc, "--format", "json"),
]))
"""


def test_heavy_imports_load_only_when_used():
    """numpy loads only for an oracle run, and jsonschema never loads: validation
    interprets the scenario schema itself.

    ``concurrent.futures`` (which pulls in ``logging``) loads only for an
    oracle run of more than one chunk, so the 1-chunk oracle run leaves it out.
    ``dataclasses`` never loads: the records are NamedTuples.  Nor does
    ``inspect`` without numpy (``import numpy`` loads it).
    """
    package_root = str(Path(repo_options.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", _HEAVY_IMPORT_PROBE, GENERAL, GENERAL_MC],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert result.returncode == 0, result.stderr
    after_import, after_reproduce, after_price, after_oracle = json.loads(result.stdout)
    assert after_import == []
    assert after_reproduce == []
    assert after_price == []
    assert [m for m in after_oracle if m != "inspect"] == ["numpy"]


#: Every exported class but the errors is an immutable record.
_RECORDS = [name for name in repo_options.__all__
            if isinstance(getattr(repo_options, name), type)
            and not issubclass(getattr(repo_options, name), Exception)]

#: For the records that check their fields: valid fields, another valid value for one
#: field, and a value the record refuses.
_CHECKED_RECORDS = {
    "BsInputs": (dict(spot=100.0, strike=90.0, rate=0.01, vol=0.2, tenor=0.5),
                 ("tenor", 1.0), ("vol", -0.2)),
    "DealerScenario": (dict(note_count=10, note_spot=100.0, intermediate_price=99.0,
                            special_rate=0.001, general_rate=0.002, special_haircut=0.01,
                            general_haircut=0.02, fed_fee=0.5),
                       ("fed_fee", 0.25), ("note_count", 0)),
    "GaussianParams": (dict(mean=1.0, sd=2.0), ("sd", 3.0), ("sd", -1.0)),
    "MarketParams": (dict(spot_price=100.0, intrinsic_yield=0.03, volatility=0.19,
                          tenor_days=1, risk_free_rate=0.0, day_count=360),
                     ("day_count", 365), ("day_count", 364)),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_exported_record_contract(name):
    """Each record is immutable, equal by fields and names its fields in its repr; one that
    checks its fields refuses a bad one when constructed directly."""
    record = getattr(repo_options, name)
    if name in _CHECKED_RECORDS:
        fields, (field, other), bad = _CHECKED_RECORDS[name]
    else:
        fields, bad = dict.fromkeys(record._fields, 1.0), None
        field, other = record._fields[0], 2.0
    value = record(**fields)
    assert [getattr(value, f) for f in fields] == list(fields.values())
    assert value == record(**fields)
    assert value != record(**{**fields, field: other})
    for attr in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, attr, other)
    assert repr(value) == f"{name}({', '.join(f'{f}={v!r}' for f, v in fields.items())})"
    if bad is not None:
        with pytest.raises(repo_options.ValidationError):
            record(**{**fields, bad[0]: bad[1]})
