"""General-repo pricing pipeline: frozen values, identities, properties."""

import math

import numpy as np
import pytest

from repo_options import (
    MarketParams,
    PricingError,
    ToleranceError,
    ValidationError,
    bs_haircut,
    censored_min_mean,
    forward_gaussian,
    general_repo,
    haircut_identity_residual,
    lender_rate_from_bs,
    price_general_repo,
    strike_from_sigma_multiple,
)

MARKET = MarketParams(
    spot_price=100000.0,
    intrinsic_yield=0.03,
    volatility=0.19,
    tenor_days=1,
    risk_free_rate=0.0,
    day_count=360,
)


def test_forward_gaussian_frozen():
    g = forward_gaussian(MARKET)
    assert g.mean == pytest.approx(100008.33333333333, rel=1e-12)
    assert g.sd == pytest.approx(1001.3879257199868, rel=1e-12)


def test_strike_from_sigma_multiple_frozen():
    assert strike_from_sigma_multiple(MARKET, 3.0) == pytest.approx(
        97003.919209191943, rel=1e-12
    )
    assert strike_from_sigma_multiple(MARKET, 2.0) == pytest.approx(
        98005.39058390574, rel=1e-12
    )
    assert strike_from_sigma_multiple(MARKET, 0.0) == pytest.approx(
        forward_gaussian(MARKET).mean, rel=1e-15
    )


def test_three_sigma_quote_frozen():
    quote = price_general_repo(MARKET, strike_from_sigma_multiple(MARKET, 3.0))
    assert quote.revenue_mean == pytest.approx(97003.536862277334, rel=1e-10)
    assert quote.revenue_sd_abs == pytest.approx(14.271035891659836, rel=1e-9)
    assert quote.lender_rate == pytest.approx(6.09294910400905e-06, rel=1e-9)
    assert quote.lent_amount == pytest.approx(97003.535220506215, rel=1e-10)
    assert quote.haircut == pytest.approx(2996.4647794937852, rel=1e-9)
    assert quote.repo_rate == pytest.approx(0.0014250607109102946, rel=1e-9)
    assert quote.option_value_mean == pytest.approx(
        100008.33333333333 - 97003.536862277334, rel=1e-9
    )
    assert quote.haircut_rate == pytest.approx(quote.haircut / MARKET.spot_price, rel=1e-12)


def test_two_sigma_quote_frozen():
    quote = price_general_repo(MARKET, strike_from_sigma_multiple(MARKET, 2.0))
    assert quote.revenue_mean == pytest.approx(97996.891893024776, rel=1e-10)
    assert quote.revenue_sd_abs == pytest.approx(75.562462548252781, rel=1e-9)
    assert quote.lender_rate == pytest.approx(1.7081608327048733e-04, rel=1e-9)
    assert quote.lent_amount == pytest.approx(97996.845394587823, rel=1e-10)
    assert quote.haircut == pytest.approx(2003.1546054121774, rel=1e-9)
    assert quote.repo_rate == pytest.approx(0.031391501859712699, rel=1e-9)


def test_bs_benchmark_frozen():
    assert bs_haircut(MARKET, strike_from_sigma_multiple(MARKET, 3.0)) == pytest.approx(
        2996.410536949198, rel=1e-10
    )
    assert bs_haircut(MARKET, strike_from_sigma_multiple(MARKET, 2.0)) == pytest.approx(
        2002.7602689752887, rel=1e-10
    )


def test_lender_rate_from_bs_frozen():
    # discounting with the benchmark haircut implies a slightly negative rate
    for k, frozen in ((3.0, -1.952121416660887e-04), (2.0, -0.0012778082354205541)):
        strike = strike_from_sigma_multiple(MARKET, k)
        benchmark = bs_haircut(MARKET, strike)
        rate = lender_rate_from_bs(MARKET, price_general_repo(MARKET, strike), benchmark)
        assert rate == pytest.approx(frozen, rel=1e-9)
        # the quote's revenue mean is the censored mean the rate discounts
        revenue_mean = censored_min_mean(strike, forward_gaussian(MARKET))
        assert rate == (revenue_mean / (MARKET.spot_price - benchmark) - 1.0) / MARKET.period_years


def test_revenue_moments_come_from_the_toolkit():
    # dual route: the pipeline's censored moments equal the toolkit's
    strike = strike_from_sigma_multiple(MARKET, 2.5)
    quote = price_general_repo(MARKET, strike)
    g = forward_gaussian(MARKET)
    assert quote.revenue_mean == pytest.approx(censored_min_mean(strike, g), rel=1e-14)


def test_lender_rate_is_scaled_by_variance_ratio():
    strike = strike_from_sigma_multiple(MARKET, 3.0)
    quote = price_general_repo(MARKET, strike)
    g = forward_gaussian(MARKET)
    ratio = quote.revenue_sd_abs / g.sd
    expected = MARKET.risk_free_rate + (
        MARKET.intrinsic_yield - MARKET.risk_free_rate
    ) * ratio * ratio
    assert quote.lender_rate == pytest.approx(expected, rel=1e-12)


def test_lent_amount_plus_haircut_is_spot():
    for k in (1.0, 2.0, 3.0, 4.0):
        quote = price_general_repo(MARKET, strike_from_sigma_multiple(MARKET, k))
        assert quote.lent_amount + quote.haircut == pytest.approx(
            MARKET.spot_price, abs=1e-9 * MARKET.spot_price
        )


def test_quote_ordering():
    # lent amount < repurchase price < forward mean, and positive haircut
    for k in (1.0, 2.0, 3.0):
        quote = price_general_repo(MARKET, strike_from_sigma_multiple(MARKET, k))
        assert quote.lent_amount < quote.repurchase_price < quote.forward_mean
        assert quote.haircut > 0.0
        assert quote.repo_rate > quote.lender_rate


def test_identity_residual_on_example_quotes():
    for k in (2.0, 3.0):
        quote = price_general_repo(MARKET, strike_from_sigma_multiple(MARKET, k))
        assert abs(haircut_identity_residual(quote, MARKET)) <= 1e-10


def test_pricing_checks_the_haircut_identity(monkeypatch):
    # per-period rates so large that rounding alone exceeds the gate: out of domain
    huge = MarketParams(spot_price=100000.0, intrinsic_yield=-1.99e47, volatility=0.19,
                        tenor_days=30, risk_free_rate=0.0, day_count=360)
    with pytest.raises(PricingError, match="per-period lender rate -1.658e[+]46 is outside"):
        price_general_repo(huge, 1.0)
    # a residual that rounding cannot explain is a computation fault
    monkeypatch.setattr(general_repo, "haircut_identity_residual", lambda q, m: 1.0)
    with pytest.raises(ToleranceError, match="haircut identity residual 1.000e[+]00 exceeds 1e-10"):
        price_general_repo(MARKET, strike_from_sigma_multiple(MARKET, 3.0))


def _random_market(rng) -> MarketParams:
    return MarketParams(
        spot_price=float(rng.uniform(10.0, 1e6)),
        intrinsic_yield=float(rng.uniform(0.001, 0.15)),
        volatility=float(rng.uniform(0.01, 0.6)),
        tenor_days=int(rng.integers(1, 91)),
        risk_free_rate=float(rng.uniform(0.0, 0.05)),
        day_count=int(rng.choice([360, 365])),
    )


def _feasible_multiple(rng, m: MarketParams, low: float) -> float:
    # keep k * vol * sqrt(t) < 0.9 so the strike stays positive
    cap = min(4.0, 0.9 / (m.volatility * math.sqrt(m.period_years)))
    return float(rng.uniform(low, max(low + 1e-6, cap)))


def test_identity_residual_randomized_thousand():
    rng = np.random.default_rng(18)
    checked = 0
    for _ in range(1000):
        m = _random_market(rng)
        strike = strike_from_sigma_multiple(m, _feasible_multiple(rng, m, 0.5))
        try:
            quote = price_general_repo(m, strike)
        except PricingError:
            # strong carry + high strike can push the haircut non-positive;
            # that rejection is correct behavior, not an identity case
            continue
        checked += 1
        assert abs(haircut_identity_residual(quote, m)) <= 1e-9
    assert checked >= 900


def test_repo_rate_never_below_lender_rate_randomized():
    # the borrower's rate discounts the full strike, the lender's only the
    # censored mean, and E[min(K, X)] <= K
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(300):
        m = _random_market(rng)
        strike = strike_from_sigma_multiple(m, _feasible_multiple(rng, m, 0.0))
        try:
            quote = price_general_repo(m, strike)
        except PricingError:
            continue
        checked += 1
        assert quote.repo_rate >= quote.lender_rate - 1e-12
    assert checked >= 250


def test_haircut_increases_with_sigma_multiple():
    haircuts = [
        price_general_repo(MARKET, strike_from_sigma_multiple(MARKET, k)).haircut
        for k in (1.0, 2.0, 3.0, 4.0)
    ]
    assert all(a < b for a, b in zip(haircuts, haircuts[1:]))


def test_haircut_tracks_bs_benchmark_within_one_percent():
    # pre-measured worst gap over this grid is 0.24%; band frozen at 1%
    for vol in (0.05, 0.19, 0.40):
        for k in (2.0, 3.0, 4.0):
            for tenor_days in (1, 7, 30):
                m = MarketParams(
                    spot_price=100000.0,
                    intrinsic_yield=0.03,
                    volatility=vol,
                    tenor_days=tenor_days,
                    risk_free_rate=0.0,
                    day_count=360,
                )
                strike = strike_from_sigma_multiple(m, k)
                haircut = price_general_repo(m, strike).haircut
                benchmark = bs_haircut(m, strike)
                assert abs(haircut - benchmark) <= 0.01 * benchmark


# --- error paths ---


def test_zero_volatility_rejected_with_ratio_message():
    flat = MarketParams(
        spot_price=100000.0,
        intrinsic_yield=0.03,
        volatility=0.0,
        tenor_days=1,
        risk_free_rate=0.0,
        day_count=360,
    )
    with pytest.raises(ValidationError, match="variance ratio"):
        price_general_repo(flat, 99000.0)


def test_non_positive_haircut_rejected():
    # strong carry, tiny volatility, strike at the forward mean: the
    # discounted revenue exceeds the spot and no consistent haircut exists
    m = MarketParams(
        spot_price=100000.0,
        intrinsic_yield=0.10,
        volatility=0.01,
        tenor_days=30,
        risk_free_rate=0.0,
        day_count=360,
    )
    with pytest.raises(PricingError, match="haircut"):
        price_general_repo(m, forward_gaussian(m).mean)


def test_bad_strike_rejected():
    with pytest.raises(ValidationError):
        price_general_repo(MARKET, 0.0)
    with pytest.raises(ValidationError):
        price_general_repo(MARKET, -100.0)
    with pytest.raises(ValidationError):
        strike_from_sigma_multiple(MARKET, -1.0)
    with pytest.raises(ValidationError):
        strike_from_sigma_multiple(MARKET, 1000.0)  # would place the strike below zero


def test_market_params_validation():
    good = dict(
        spot_price=100.0,
        intrinsic_yield=0.03,
        volatility=0.2,
        tenor_days=1,
        risk_free_rate=0.0,
        day_count=360,
    )
    for field, bad in [
        ("spot_price", 0.0),
        ("spot_price", -1.0),
        ("volatility", -0.2),
        ("tenor_days", 0),
        ("tenor_days", 1.5),
        ("tenor_days", True),
        ("day_count", 252),
        ("intrinsic_yield", math.nan),
        ("risk_free_rate", math.inf),
    ]:
        with pytest.raises(ValidationError):
            MarketParams(**{**good, field: bad})


def test_period_years():
    assert MARKET.period_years == pytest.approx(1.0 / 360.0, rel=1e-15)
    m365 = MarketParams(
        spot_price=100.0,
        intrinsic_yield=0.0,
        volatility=0.1,
        tenor_days=7,
        risk_free_rate=0.0,
        day_count=365,
    )
    assert m365.period_years == pytest.approx(7.0 / 365.0, rel=1e-15)
