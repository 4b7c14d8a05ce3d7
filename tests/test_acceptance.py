"""Acceptance suite: every tracked figure checked at its stated tolerance.

Criteria 1-9 read ``reference.build_reference_rows`` by row name, so each paper figure and
its tolerance is stated once, in ``reference.py``.  Criteria 10-14 hold the randomized
properties, each stated once; the module test files keep frozen values, edge cases and unit
checks.
Each test covers one numbered criterion, in its name or id, and prints one pass/fail line
(visible with ``pytest -s``); criteria 11, 12 and 13 have one test per property.
"""

import numpy as np
import pytest

from repo_options import (
    GaussianParams,
    LiquidityError,
    MarketParams,
    PricingError,
    build_reference_rows,
    build_special_relations,
    censored_min_mean,
    censored_min_sd,
    haircut_identity_residual,
    max_fed_fee,
    mc_sample_stats,
    price_general_repo,
    put_payoff_mean,
    run_dealer_scenario,
    strike_from_sigma_multiple,
)
from repo_options.dealer import DealerScenario, check_liquidity
from repo_options.special_repo import haircut_from_rates, rate_from_haircuts

#: Criterion number: its label and the names of the reference rows it checks.
FIGURES = {
    1: ("forward value mean", ["case1_forward_mean"]),
    2: ("repurchase price three sigma below forward", ["case1_repurchase_price"]),
    3: ("lender revenue mean, closed form vs simulation",
        ["case1_revenue_mean", "case1_revenue_mean_mc_z"]),
    4: ("revenue dispersion as percent of spot", ["case1_revenue_sd_pct_of_spot"]),
    5: ("haircut and option-pricing benchmark",
        ["case1_haircut", "case1_bs_haircut", "case1_haircut_gap_abs"]),
    6: ("implied repo rate", ["case1_repo_rate_pct_pa"]),
    7: ("two-sigma repurchase quote",
        ["case2_repurchase_price", "case2_revenue_mean", "case2_revenue_sd_pct_of_spot"]),
    8: ("two-sigma rates and haircut", ["case2_lender_rate_pct_pa", "case2_haircut",
                                        "case2_bs_haircut", "case2_repo_rate_pct_pa"]),
    9: ("lender-fail premium and return", ["special_premium", "special_lent_amount",
                                           "special_rate_pct_pa", "special_put_value_mean"]),
}

#: Rows held tighter here than in ``reference.py``: case 1's simulation z (seed 42,
#: 10M samples), which ``reproduce-examples --mc`` bounds at ``MC_Z_BOUND``.
TIGHTER = {"case1_revenue_mean_mc_z": 3.0}


def _criterion(num: int, label: str, checks) -> None:
    """Assert |computed - expected| <= tol for every check; print one line."""

    failures = []
    details = []
    for name, computed, expected, tol in checks:
        ok = abs(computed - expected) <= tol
        details.append(f"{name}={computed!r} (want {expected} ± {tol})")
        if not ok:
            failures.append(details[-1])
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d} [{status}] {label}: " + "; ".join(details))
    assert not failures, f"criterion {num} {label}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def reference_rows():
    """The ``mc=True`` rows by name, each at the tighter of its tolerance and ``TIGHTER``'s."""
    return {r.name: r._replace(tolerance=min(r.tolerance, TIGHTER.get(r.name, r.tolerance)))
            for r in build_reference_rows(mc=True)}


@pytest.mark.parametrize("num", FIGURES, ids="{:02d}".format)
def test_criterion(reference_rows, num):
    label, names = FIGURES[num]
    # a ReferenceRow starts with the (name, computed, expected, tolerance) of a check
    _criterion(num, label, [reference_rows[name][:4] for name in names])


def test_criterion_10_haircut_identity_randomized():
    rng = np.random.default_rng(1010)
    worst = 0.0
    quotes = 0
    attempts = 0
    while quotes < 1000 and attempts < 20_000:
        attempts += 1
        market = MarketParams(
            spot_price=float(rng.uniform(10.0, 1e6)),
            intrinsic_yield=float(rng.uniform(0.001, 0.15)),
            volatility=float(rng.uniform(0.01, 0.6)),
            tenor_days=int(rng.integers(1, 91)),
            risk_free_rate=float(rng.uniform(0.0, 0.05)),
            day_count=int(rng.choice([360, 365])),
        )
        scale = market.volatility * market.period_years ** 0.5
        k = float(rng.uniform(0.5, min(4.0, 0.9 / scale)))
        try:
            quote = price_general_repo(market, strike_from_sigma_multiple(market, k))
        except PricingError:  # a non-positive haircut is refused, not an identity case
            continue
        quotes += 1
        worst = max(worst, abs(haircut_identity_residual(quote, market)))
    assert quotes == 1000, f"only {quotes} quotes priced in {attempts} attempts"
    _criterion(10, "rate/haircut identity residual over 1000 random quotes", [
        ("worst_abs_residual", worst, 0.0, 1e-9),
    ])


def test_criterion_11_fee_forms_agree():
    rng = np.random.default_rng(1111)
    worst_form = worst_fee = 0.0
    for _ in range(1000):
        g_cut = float(rng.uniform(0.0, 0.1))
        g_rate = float(rng.uniform(-0.005, 0.02))
        s_rate = float(rng.uniform(-0.05, g_rate))
        rel = build_special_relations(g_cut, g_rate, special_rate=s_rate)
        forms = ((g_rate - s_rate) * (1.0 - g_cut) / (1.0 + s_rate),
                 (g_rate - s_rate) * (1.0 - rel.special_haircut) / (1.0 + g_rate),
                 g_cut - rel.special_haircut)
        worst_form = max(worst_form, max(forms) - min(forms))
        worst_fee = max(worst_fee, abs(rel.fee_rate - forms[0]))
    _criterion(11, "fee three-form agreement, 1000 tuples", [
        ("worst_form_spread", worst_form, 0.0, 1e-12),
        ("worst_fee_rate_vs_first_form", worst_fee, 0.0, 1e-15),
    ])


def test_criterion_11_haircut_rate_round_trips():
    rng = np.random.default_rng(1111)
    worst_round = 0.0
    for _ in range(1000):
        g_cut = float(rng.uniform(0.0, 0.1))
        g_rate = float(rng.uniform(-0.005, 0.02))
        # both ways round, the special rate on either side of the general rate
        s_rate = float(rng.uniform(-0.05, 0.02))
        s_cut = haircut_from_rates(g_cut, g_rate, s_rate)
        rate_back = rate_from_haircuts(g_cut, s_cut, g_rate)
        worst_round = max(worst_round, abs(rate_back - s_rate),
                          abs(haircut_from_rates(g_cut, g_rate, rate_back) - s_cut))
    _criterion(11, "haircut/rate round-trips, 1000 tuples", [
        ("worst_round_trip", worst_round, 0.0, 1e-12),
    ])


def _criterion_12_markets():
    """200 (haircut, general rate) pairs, one per market the three regimes share."""
    rng = np.random.default_rng(1212)
    for _ in range(200):
        rng.uniform(1e3, 1e6)  # a spot the relations do not use, drawn to keep the stream
        yield float(rng.uniform(0.0, 0.2)), float(rng.uniform(-0.005, 0.05))


def test_criterion_12_zero_special_haircut():
    worst = 0.0
    for g_cut, g_rate in _criterion_12_markets():
        # the special rate sinks by the haircut's carry
        rel = build_special_relations(g_cut, g_rate, special_haircut=0.0)
        worst = max(worst, abs(rel.special_rate - (g_rate - g_cut * (1.0 + g_rate))))
    _criterion(12, "limiting regime: zero special haircut", [
        ("zero_special_haircut", worst, 0.0, 1e-12),
    ])


def test_criterion_12_zero_special_rate():
    worst = 0.0
    for g_cut, g_rate in _criterion_12_markets():
        # the fee is the general rate on the lent fraction, and is the haircut gap
        rel = build_special_relations(g_cut, g_rate, special_rate=0.0)
        worst = max(worst, abs(rel.fee_rate - g_rate * (1.0 - g_cut)),
                    abs(g_cut - rel.special_haircut - rel.fee_rate))
    _criterion(12, "limiting regime: zero special rate", [
        ("zero_special_rate", worst, 0.0, 1e-12),
    ])


def test_criterion_12_zero_fee():
    worst = 0.0
    for g_cut, g_rate in _criterion_12_markets():
        # special and general rates coincide, and so do the haircuts, from either side
        rel = build_special_relations(g_cut, g_rate, special_haircut=g_cut)
        worst = max(worst, abs(rel.special_rate - g_rate), abs(rel.fee_rate))
        rel = build_special_relations(g_cut, g_rate, special_rate=g_rate)
        worst = max(worst, abs(rel.special_haircut - g_cut), abs(rel.fee_rate))
    _criterion(12, "limiting regime: zero fee", [
        ("zero_fee", worst, 0.0, 1e-12),
    ])


def test_criterion_13a_max_fee_binds():
    """At the maximum fee both enforced conditions bind exactly."""
    rng = np.random.default_rng(1313)
    worst_slack = 0.0
    for _ in range(300):
        spot = float(rng.uniform(10.0, 5000.0))
        count = int(rng.integers(1, 500))
        g_cut = float(rng.uniform(0.0, 0.08))
        g_rate = float(rng.uniform(-0.002, 0.01))
        s_rate = float(rng.uniform(-0.02, g_rate))
        s_cut = haircut_from_rates(g_cut, g_rate, s_rate)
        if s_cut < 0.0:
            continue
        s = DealerScenario(
            note_count=count, note_spot=spot, intermediate_price=spot,
            special_rate=s_rate, general_rate=g_rate,
            special_haircut=s_cut, general_haircut=g_cut,
            fed_fee=max_fed_fee(spot * count, s_cut, g_rate, s_rate),
        )
        named = {c.name: c for c in check_liquidity(s, strict=True)}
        tol_unit = abs(named["fee_funding"].slack) / s.spot_value
        worst_slack = max(worst_slack, tol_unit,
                          abs(named["closing_strict"].slack) / s.spot_value)
    _criterion(13, "dealer ledger: the maximum fee binds", [
        ("worst_slack_over_spot", worst_slack, 0.0, 1e-9),
    ])


def test_criterion_13b_ledger_decomposition():
    """Replaying the nine steps reproduces the closed-form cash total, and the report
    restates the final step and check_liquidity's slacks bit for bit."""
    rng = np.random.default_rng(1313)
    worst_gap = 0.0
    runs = restated_mismatches = 0
    for _ in range(500):
        spot = float(rng.uniform(10.0, 5000.0))
        count = int(rng.integers(1, 500))
        g_cut = float(rng.uniform(0.0, 0.08))
        s_cut = float(rng.uniform(0.0, g_cut)) if g_cut > 0 else 0.0
        g_rate = float(rng.uniform(-0.002, 0.01))
        s = DealerScenario(
            note_count=count, note_spot=spot,
            intermediate_price=spot * float(rng.uniform(0.9, 1.02)),
            special_rate=float(rng.uniform(-0.02, g_rate)), general_rate=g_rate,
            special_haircut=s_cut, general_haircut=g_cut,
            fed_fee=float(rng.uniform(0.0, spot * count * (g_cut - s_cut))) if g_cut > s_cut else 0.0,
        )
        try:
            steps, report = run_dealer_scenario(s, strict=False)
        except LiquidityError:
            continue
        runs += 1
        worst_gap = max(worst_gap, abs(report.decomposition_gap) / s.spot_value)
        slack = {c.name: c.slack for c in check_liquidity(s, strict=False)}
        restated_mismatches += (
            (steps[-1].notes, report.ledger_cash, report.interest_and_fees, report.total,
             report.speculative)
            != (0, steps[-1].cash, slack["closing_strict"], slack["closing_weak"],
                slack["note_repurchase"]))
    assert runs >= 300, f"only {runs} random ledgers completed"
    _criterion(13, "dealer ledger: cash decomposition", [
        ("worst_decomposition_gap_over_spot", worst_gap, 0.0, 1e-9),
        ("restated_mismatches", float(restated_mismatches), 0.0, 0.0),
    ])


def test_criterion_14_simulation_agreement_and_replay():
    rng = np.random.default_rng(1414)
    n = 1_000_000
    worst_z = 0.0
    replays_identical = True
    for i in range(50):
        mu = float(rng.uniform(10.0, 1e5))
        sigma = mu * float(rng.uniform(0.001, 0.3))
        g = GaussianParams(mean=mu, sd=sigma)
        strike = mu + float(rng.uniform(-2.0, 2.0)) * sigma

        est = mc_sample_stats(strike, g, n, 1000 + i, "min")
        z_mean = (censored_min_mean(strike, g) - est.mean) / est.se_mean
        z_sd = (censored_min_sd(strike, g) - est.sd) / est.se_sd
        worst_z = max(worst_z, abs(z_mean), abs(z_sd))

        est_put = mc_sample_stats(strike, g, n, 2000 + i, "put-payoff")
        z_put = (put_payoff_mean(strike, g) - est_put.mean) / est_put.se_mean
        worst_z = max(worst_z, abs(z_put))

        if i % 10 == 0:
            replay = mc_sample_stats(strike, g, n, 1000 + i, "min")
            replays_identical = replays_identical and replay == est

    _criterion(14, "closed forms vs simulation on 50 random sets", [
        ("worst_abs_z", worst_z, 0.0, 4.0),
        ("replays_bit_identical", float(replays_identical), 1.0, 0.0),
    ])
