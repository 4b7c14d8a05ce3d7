"""Acceptance suite: every tracked figure checked at its stated tolerance.

Each test covers one numbered criterion and prints a single pass/fail
line (visible with ``pytest -s``; ``pytest -v`` shows one verdict per
criterion through the test names as well).
"""

import numpy as np
import pytest

from repo_options import (
    GaussianParams,
    LiquidityError,
    MarketParams,
    bs_haircut,
    build_special_relations,
    censored_min_mean,
    censored_min_sd,
    forward_gaussian,
    haircut_identity_residual,
    max_fed_fee,
    mc_sample_stats,
    price_general_repo,
    price_lender_fail,
    put_payoff_mean,
    run_dealer_scenario,
    strike_from_sigma_multiple,
)
from repo_options.dealer import DealerScenario, check_liquidity
from repo_options.special_repo import haircut_from_rates, rate_from_haircuts

MARKET = MarketParams(
    spot_price=100_000.0,
    intrinsic_yield=0.03,
    volatility=0.19,
    tenor_days=1,
    risk_free_rate=0.0,
    day_count=360,
)

FORWARD = forward_gaussian(MARKET)
STRIKE_1 = strike_from_sigma_multiple(MARKET, 3.0)
STRIKE_2 = strike_from_sigma_multiple(MARKET, 2.0)
QUOTE_1 = price_general_repo(MARKET, STRIKE_1)
QUOTE_2 = price_general_repo(MARKET, STRIKE_2)
LENDER_FAIL = price_lender_fail(MARKET, FORWARD.mean)


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


def test_criterion_01_forward_value_mean():
    _criterion(1, "forward value mean", [
        ("forward_mean", FORWARD.mean, 100008.33, 0.01),
    ])


def test_criterion_02_three_sigma_repurchase_price():
    _criterion(2, "repurchase price three sigma below forward", [
        ("repurchase_price", STRIKE_1, 97003.92, 0.10),
    ])


def test_criterion_03_censored_revenue_mean_closed_form_and_simulation():
    est = mc_sample_stats(STRIKE_1, FORWARD, 10_000_000, 42, "min")
    z = (QUOTE_1.revenue_mean - est.mean) / est.se_mean
    _criterion(3, "lender revenue mean, closed form vs simulation", [
        ("revenue_mean", QUOTE_1.revenue_mean, 97003.53, 0.05),
        ("simulation_z", z, 0.0, 3.0),
    ])


def test_criterion_04_revenue_dispersion():
    _criterion(4, "revenue dispersion as percent of spot", [
        ("revenue_sd_pct", 100.0 * QUOTE_1.revenue_sd, 0.015, 0.002),
    ])


def test_criterion_05_haircut_vs_option_benchmark():
    benchmark = bs_haircut(MARKET, STRIKE_1)
    _criterion(5, "haircut and option-pricing benchmark", [
        ("haircut", QUOTE_1.haircut, 2996.47, 0.50),
        ("bs_haircut", benchmark, 2996.41, 1.00),
        ("haircut_gap_abs", abs(QUOTE_1.haircut - benchmark), 0.0, 1.5),
    ])


def test_criterion_06_repo_rate():
    _criterion(6, "implied repo rate", [
        ("repo_rate_pct_pa", 100.0 * QUOTE_1.repo_rate, 0.14, 0.02),
    ])


def test_criterion_07_two_sigma_quote():
    _criterion(7, "two-sigma repurchase quote", [
        ("repurchase_price", STRIKE_2, 98005.39, 0.10),
        ("revenue_mean", QUOTE_2.revenue_mean, 97996.89, 0.10),
        ("revenue_sd_pct", 100.0 * QUOTE_2.revenue_sd, 0.077, 0.004),
    ])


def test_criterion_08_two_sigma_rates_and_haircut():
    benchmark = bs_haircut(MARKET, STRIKE_2)
    _criterion(8, "two-sigma rates and haircut", [
        ("lender_rate_pct_pa", 100.0 * QUOTE_2.lender_rate, 0.018, 0.003),
        ("haircut", QUOTE_2.haircut, 2003.16, 0.50),
        ("bs_haircut", benchmark, 2002.76, 1.00),
        ("repo_rate_pct_pa", 100.0 * QUOTE_2.repo_rate, 3.1, 0.2),
    ])


def test_criterion_09_lender_fail_quote():
    _criterion(9, "lender-fail premium and return", [
        ("premium", LENDER_FAIL.premium, 403.69, 1.00),
        ("lent_amount", LENDER_FAIL.lent_amount, 100403.69, 1.00),
        ("special_rate_pct_pa", 100.0 * LENDER_FAIL.special_rate, -142.0, 2.0),
        ("put_value_mean", LENDER_FAIL.put_value_mean, 399.53, 0.50),
    ])


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
        except Exception:
            continue
        quotes += 1
        worst = max(worst, abs(haircut_identity_residual(quote, market)))
    assert quotes == 1000, f"only {quotes} quotes priced in {attempts} attempts"
    _criterion(10, "rate/haircut identity residual over 1000 random quotes", [
        ("worst_abs_residual", worst, 0.0, 1e-9),
    ])


def test_criterion_11_fee_forms_and_round_trips():
    rng = np.random.default_rng(1111)
    worst_form = 0.0
    worst_round = 0.0
    for _ in range(1000):
        spot = float(rng.uniform(1e3, 1e6))
        g_cut = float(rng.uniform(0.0, 0.1))
        g_rate = float(rng.uniform(-0.005, 0.02))
        s_rate = float(rng.uniform(-0.02, g_rate))
        rel = build_special_relations(spot, g_cut, g_rate, special_rate=s_rate)
        f1 = rel.fee_rate
        f2 = (g_rate - s_rate) * (1.0 - rel.special_haircut) / (1.0 + g_rate)
        f3 = g_cut - rel.special_haircut
        worst_form = max(worst_form, abs(f1 - f2), abs(f2 - f3), abs(f1 - f3))

        rate_back = rate_from_haircuts(g_cut, haircut_from_rates(g_cut, g_rate, s_rate), g_rate)
        worst_round = max(worst_round, abs(rate_back - s_rate))
        s_cut0 = float(rng.uniform(0.0, max(g_cut, 1e-12)))
        haircut_back = haircut_from_rates(g_cut, g_rate, rate_from_haircuts(g_cut, s_cut0, g_rate))
        worst_round = max(worst_round, abs(haircut_back - s_cut0))
    _criterion(11, "fee three-form agreement and round-trips, 1000 tuples", [
        ("worst_form_spread", worst_form, 0.0, 1e-12),
        ("worst_round_trip", worst_round, 0.0, 1e-12),
    ])


def test_criterion_12_regime_limits():
    rng = np.random.default_rng(1212)
    worst_gd = worst_stressed = worst_no_demand = 0.0
    for _ in range(200):
        spot = float(rng.uniform(1e3, 1e6))
        g_cut = float(rng.uniform(0.0, 0.2))
        g_rate = float(rng.uniform(-0.005, 0.05))
        # zero special haircut: special rate sinks by the haircut's carry
        rel = build_special_relations(spot, g_cut, g_rate, special_haircut=0.0)
        worst_gd = max(worst_gd, abs(rel.special_rate - (g_rate - g_cut * (1.0 + g_rate))))
        # zero special rate: the fee is the general rate on the lent fraction
        rel = build_special_relations(spot, g_cut, g_rate, special_rate=0.0)
        worst_stressed = max(worst_stressed, abs(rel.fee_rate - g_rate * (1.0 - g_cut)))
        # zero fee: special and general rates coincide
        rel = build_special_relations(spot, g_cut, g_rate, special_haircut=g_cut)
        worst_no_demand = max(
            worst_no_demand, abs(rel.special_rate - g_rate), abs(rel.fee_rate)
        )
    _criterion(12, "limiting regimes of the rate/haircut algebra", [
        ("zero_special_haircut", worst_gd, 0.0, 1e-12),
        ("zero_special_rate", worst_stressed, 0.0, 1e-12),
        ("zero_fee", worst_no_demand, 0.0, 1e-12),
    ])


def test_criterion_13_dealer_ledger_decomposition():
    rng = np.random.default_rng(1313)

    # (a) at the maximum fee both enforced conditions bind exactly
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

    # (b) replaying the nine steps reproduces the closed-form cash total
    worst_gap = 0.0
    runs = 0
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
            state, report = run_dealer_scenario(s, strict=False)
        except LiquidityError:
            continue
        runs += 1
        worst_gap = max(worst_gap, abs(report.decomposition_gap) / s.spot_value)
    assert runs >= 300, f"only {runs} random ledgers completed"
    _criterion(13, "dealer ledger: binding max fee and cash decomposition", [
        ("worst_slack_over_spot", worst_slack, 0.0, 1e-9),
        ("worst_decomposition_gap_over_spot", worst_gap, 0.0, 1e-9),
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
