"""Lender-fail pricing and the rate/haircut/fee algebra."""

import math

import numpy as np
import pytest

from repo_options import (
    MarketParams,
    SpecialRepoRelations,
    ValidationError,
    build_special_relations,
    classify_regime,
    fed_fee_rate,
    forward_gaussian,
    max_fed_fee,
    price_lender_fail,
)
from repo_options.special_repo import haircut_from_rates, rate_from_haircuts

MARKET = MarketParams(
    spot_price=100000.0,
    intrinsic_yield=0.03,
    volatility=0.19,
    tenor_days=1,
    risk_free_rate=0.0,
    day_count=360,
)


# --- lender-fail quote (premium convention) ---


def test_lender_fail_quote_frozen():
    quote = price_lender_fail(MARKET, forward_gaussian(MARKET).mean)
    assert quote.premium == pytest.approx(403.69145786598175, rel=1e-10)
    assert quote.lent_amount == pytest.approx(100403.69145786598, rel=1e-12)
    assert quote.special_rate == pytest.approx(-1.4175666528305008, rel=1e-9)
    assert quote.put_value_mean == pytest.approx(399.49598265319201, rel=1e-10)
    assert quote.trader_return == pytest.approx(-0.010392776787916481, rel=1e-8)
    assert quote.premium_rate == pytest.approx(quote.premium / MARKET.spot_price, rel=1e-12)


def test_lender_fail_premium_raises_loan_and_sinks_rate():
    strike = forward_gaussian(MARKET).mean
    quote = price_lender_fail(MARKET, strike)
    assert quote.lent_amount == MARKET.spot_price + quote.premium
    assert quote.lent_amount > MARKET.spot_price
    # repaying less than was lent: the special rate is deeply negative
    assert quote.repurchase_price < quote.lent_amount
    assert quote.special_rate < 0.0


def test_lender_fail_zero_premium_at_deep_otm_strike():
    # strike far below spot: the put is worthless, loan equals spot
    quote = price_lender_fail(MARKET, 50000.0)
    assert quote.premium == 0.0
    assert quote.lent_amount == MARKET.spot_price
    assert quote.trader_return == 0.0  # defined value when nothing is at risk


def test_lender_fail_rate_annualization():
    quote = price_lender_fail(MARKET, forward_gaussian(MARKET).mean)
    per_period = quote.repurchase_price / quote.lent_amount - 1.0
    assert quote.special_rate == pytest.approx(per_period * 360.0, rel=1e-12)


# --- fee forms and balance identity ---


def test_max_fed_fee_frozen():
    assert max_fed_fee(100000.0, 0.02, 2e-4, 1e-4) == pytest.approx(
        9.7980403919216157, rel=1e-12
    )


def test_fee_sign_follows_rate_spread():
    assert fed_fee_rate(2e-4, 1e-4, 0.02) > 0.0
    assert fed_fee_rate(1e-4, 2e-4, 0.02) < 0.0
    assert fed_fee_rate(1e-4, 1e-4, 0.02) == 0.0


def _random_consistent(rng) -> tuple[float, SpecialRepoRelations]:
    """A spot value and a consistent relations tuple."""
    spot = float(rng.uniform(1e3, 1e6))
    g_cut = float(rng.uniform(0.0, 0.1))
    g_rate = float(rng.uniform(-0.005, 0.02))  # per period
    s_rate = float(rng.uniform(-0.05, g_rate))  # special trades at or below general
    return spot, build_special_relations(g_cut, g_rate, special_rate=s_rate)


def test_three_fee_forms_agree_randomized():
    rng = np.random.default_rng(26)
    for _ in range(1000):
        _, rel = _random_consistent(rng)
        form_a = (
            (rel.general_rate - rel.special_rate)
            * (1.0 - rel.general_haircut)
            / (1.0 + rel.special_rate)
        )
        form_b = (
            (rel.general_rate - rel.special_rate)
            * (1.0 - rel.special_haircut)
            / (1.0 + rel.general_rate)
        )
        form_c = rel.general_haircut - rel.special_haircut
        assert abs(form_a - form_b) <= 1e-12
        assert abs(form_a - form_c) <= 1e-12
        assert rel.fee_rate == pytest.approx(form_a, abs=1e-15)


def test_haircut_rate_round_trips_randomized():
    rng = np.random.default_rng(27)
    for _ in range(1000):
        g_cut = float(rng.uniform(0.0, 0.1))
        g_rate = float(rng.uniform(-0.005, 0.02))
        s_rate = float(rng.uniform(-0.05, 0.02))
        s_cut = haircut_from_rates(g_cut, g_rate, s_rate)
        assert rate_from_haircuts(g_cut, s_cut, g_rate) == pytest.approx(s_rate, abs=1e-12)
        s_cut2 = haircut_from_rates(g_cut, g_rate, rate_from_haircuts(g_cut, s_cut, g_rate))
        assert s_cut2 == pytest.approx(s_cut, abs=1e-12)


def test_balance_residual_zero_for_built_relations():
    rng = np.random.default_rng(28)
    for _ in range(200):
        _, rel = _random_consistent(rng)
        assert abs(rel.balance_residual()) <= 1e-12


def test_max_fee_equals_fee_rate_times_spot_under_consistency():
    # on the consistency surface the quoted fee rate already is the maximum
    rng = np.random.default_rng(29)
    for _ in range(200):
        spot, rel = _random_consistent(rng)
        max_fee = max_fed_fee(spot, rel.special_haircut, rel.general_rate, rel.special_rate)
        assert max_fee == pytest.approx(rel.fee_rate * spot, rel=1e-9, abs=1e-9)


# --- regime limits (exact algebra at the boundary) ---


def test_regime_limit_guaranteed_delivery():
    # special_haircut = 0 forces special_rate = general_rate - g_cut (1 + general_rate)
    for g_cut, g_rate in [(0.0, 0.01), (0.02, 0.0025), (0.05, -0.001), (0.1, 0.02)]:
        s_rate = rate_from_haircuts(g_cut, 0.0, g_rate)
        assert abs(s_rate - (g_rate - g_cut * (1.0 + g_rate))) <= 1e-12


def test_regime_limit_stressed():
    # special_rate = 0 forces fee_rate = general_rate (1 - g_cut) and s_cut = g_cut - fee
    for g_cut, g_rate in [(0.0, 0.01), (0.02, 0.0025), (0.05, 0.015)]:
        fee = fed_fee_rate(g_rate, 0.0, g_cut)
        assert abs(fee - g_rate * (1.0 - g_cut)) <= 1e-12
        s_cut = haircut_from_rates(g_cut, g_rate, 0.0)
        assert abs((g_cut - s_cut) - fee) <= 1e-12


def test_regime_limit_no_demand():
    # fee = 0 forces special_rate = general_rate and equal haircuts
    for g_cut, g_rate in [(0.0, 0.01), (0.02, 0.0025), (0.05, 0.015)]:
        assert abs(fed_fee_rate(g_rate, g_rate, g_cut)) <= 1e-12
        assert abs(haircut_from_rates(g_cut, g_rate, g_rate) - g_cut) <= 1e-12


def test_classify_regimes():
    # guaranteed delivery: zero special haircut
    rel = build_special_relations(0.02, 0.0025, special_haircut=0.0)
    assert classify_regime(rel) == "guaranteed_delivery"
    # stressed: zero special rate with a positive fee
    rel = build_special_relations(0.02, 0.0025, special_rate=0.0)
    assert classify_regime(rel) == "stressed"
    # no demand: fee exactly zero (special = general)
    rel = build_special_relations(0.02, 0.0025, special_rate=0.0025)
    assert classify_regime(rel) == "no_demand"
    # normal: everything strictly between
    rel = build_special_relations(0.02, 0.0025, special_rate=0.001)
    assert classify_regime(rel) == "normal"


def test_classify_priority_guaranteed_delivery_beats_stressed():
    # s_cut = 0 and s_rate = 0 simultaneously (requires g_rate = g_cut / (1 - g_cut))
    g_cut = 0.02
    g_rate = g_cut / (1.0 - g_cut)
    rel = build_special_relations(g_cut, g_rate, special_rate=0.0)
    assert abs(rel.special_haircut) <= 1e-9
    assert classify_regime(rel) == "guaranteed_delivery"


def test_inconsistent_relations_rejected():
    # the tuple checks its balance when it is built, so no consumer holds a bad one
    with pytest.raises(ValidationError, match="^inconsistent special-repo relations: balance "
                                              "residual .* exceeds 1e-09$"):
        SpecialRepoRelations(
            general_rate=0.0025,
            special_rate=0.001,
            general_haircut=0.02,
            special_haircut=0.05,
        )


def test_build_relations_consistent_both_inputs():
    s_cut = haircut_from_rates(0.02, 0.0025, 0.001)
    rel = build_special_relations(
        0.02, 0.0025, special_haircut=s_cut, special_rate=0.001
    )
    assert rel.special_haircut == s_cut
    # both given but inconsistent -> rejected
    with pytest.raises(ValidationError):
        build_special_relations(
            0.02, 0.0025, special_haircut=s_cut + 1e-3, special_rate=0.001
        )


def test_validation_rejects_out_of_domain():
    with pytest.raises(ValidationError):
        build_special_relations(0.02, 0.0025)  # no special side at all
    with pytest.raises(ValidationError, match="^special_rate must be > -1, got -1.0$"):
        build_special_relations(0.02, 0.0025, special_rate=-1.0)
    with pytest.raises(ValidationError):
        fed_fee_rate(0.01, -1.0, 0.02)
    with pytest.raises(ValidationError, match="spot_price must be > 0"):
        max_fed_fee(0.0, 0.02, 0.01, 0.0)
    with pytest.raises(ValidationError):
        max_fed_fee(1e5, 1.0, 0.01, 0.0)
    with pytest.raises(ValidationError):
        max_fed_fee(1e5, 0.02, -1.0, 0.0)
    with pytest.raises(ValidationError):
        rate_from_haircuts(0.02, 1.0, 0.01)
    with pytest.raises(ValidationError):
        haircut_from_rates(0.02, math.nan, 0.001)
