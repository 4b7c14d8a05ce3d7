"""General-repo pricing pipeline: frozen values, identities, properties."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repo_options import (
    MarketParams,
    PricingError,
    RepoOptionsError,
    Scenario,
    ToleranceError,
    ValidationError,
    bs_haircut,
    bs_haircut_ladder,
    censored_min_mean,
    forward_gaussian,
    general_repo,
    haircut_identity_residual,
    lender_rate_from_bs,
    price_general_ladder,
    price_general_repo,
    reference_market,
    strike_from_sigma_multiple,
)
from repo_options.cli import compare_bs_report
from repo_options.scenarios import load_scenario

MARKET = reference_market()


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
    huge = MarketParams(spot_price=100000.0, intrinsic_yield=0.03, volatility=0.19,
                        tenor_days=30, risk_free_rate=6077489727937541.0, day_count=360)
    with pytest.raises(PricingError, match="per-period lender rate 3.338e[+]14 is outside"):
        price_general_repo(huge, 100250.0)
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


# --- strike ladders ---

#: float.hex of (haircut, bs_haircut, gap) of each row of ``compare-bs`` on
#: scenarios/general_3sigma.json at strikes 94000 + 100 i, i < 64, as the engine
#: gave them when every strike was priced on its own.
_LADDER_BITS = (
    "0x1.770000002a210p+12 0x1.770000000cf90p+12 0x1.d280000000000p-24",
    "0x1.70c000004ebd0p+12 0x1.70c0000019b00p+12 0x1.a868000000000p-23",
    "0x1.6a80000091c50p+12 0x1.6a800000324c0p+12 0x1.7de4000000000p-22",
    "0x1.644000010b500p+12 0x1.64400000615a0p+12 0x1.53ec000000000p-21",
    "0x1.5e000001e5900p+12 0x1.5e000000ba4a0p+12 0x1.2b46000000000p-20",
    "0x1.57c0000369b30p+12 0x1.57c0000160760p+12 0x1.049e800000000p-19",
    "0x1.51800006154c0p+12 0x1.5180000293620p+12 0x1.c0f5000000000p-19",
    "0x1.4b40000abdae0p+12 0x1.4b400004c3c80p+12 0x1.7e79800000000p-18",
    "0x1.45000012c97d0p+12 0x1.45000008b7620p+12 0x1.4243600000000p-17",
    "0x1.3ec000208d900p+12 0x1.3ec0000fc4c70p+12 0x1.0c8c900000000p-16",
    "0x1.38800037e0dc0p+12 0x1.3880001c367f0p+12 0x1.baa5d00000000p-16",
    "0x1.3240005f05bf0p+12 0x1.32400031ecb60p+12 0x1.68c8480000000p-15",
    "0x1.2c0000a015600p+12 0x1.2c00005761ca0p+12 0x1.22ce580000000p-14",
    "0x1.25c0010b2f830p+12 0x1.25c00097489e0p+12 0x1.cf9b940000000p-14",
    "0x1.1f8001b9cf1d0p+12 0x1.1f80010316dc0p+12 0x1.6d70820000000p-13",
    "0x1.194002d3cd9a0p+12 0x1.194001b6f4420p+12 0x1.1cd9580000000p-12",
    "0x1.13000496d81e0p+12 0x1.130002dfbe2c0p+12 0x1.b719f20000000p-12",
    "0x1.0cc0076166b50p+12 0x1.0cc004c419bd0p+12 0x1.4ea67c0000000p-11",
    "0x1.06800bc2aaca0p+12 0x1.068007d1f3bb0p+12 0x1.f85b878000000p-11",
    "0x1.004012916dd20p+12 0x1.00400cb252980p+12 0x1.77c6ce8000000p-10",
    "0x1.f4003a18ffc20p+11 0x1.f40028cc17a80p+11 0x1.14ce81a000000p-9",
    "0x1.e7805a104b100p+11 0x1.e78040dd8fc80p+11 0x1.932bb48000000p-9",
    "0x1.db008a59dff80p+11 0x1.db00661199520p+11 0x1.2242353000000p-8",
    "0x1.ce80d29b28520p+11 0x1.ce809ef691b60p+11 0x1.9d24b4e000000p-8",
    "0x1.c2013db5544a0p+11 0x1.c200f50ca1a40p+11 0x1.22a2ca9800000p-7",
    "0x1.b581daf96e680p+11 0x1.b58175eebf200p+11 0x1.942abd2000000p-7",
    "0x1.a902bfbce46c0p+11 0x1.a90234dddbbe0p+11 0x1.15be115c00000p-6",
    "0x1.9c8409657ae20p+11 0x1.9c834cc6e4280p+11 0x1.793d2d7400000p-6",
    "0x1.9005e0066ed80p+11 0x1.9004e2df6ea00p+11 0x1.fa4e007000000p-6",
    "0x1.838879aab1ec0p+11 0x1.838729f77c9c0p+11 0x1.4fb3355000000p-5",
    "0x1.770c1e69416e0p+11 0x1.770a66a005100p+11 0x1.b7c93c5e00000p-5",
    "0x1.6a912d6011b80p+11 0x1.6a8ef4457da80p+11 0x1.1c8d4a0800000p-4",
    "0x1.5e1822af4f940p+11 0x1.5e154b5a9dce0p+11 0x1.6baa58e300000p-4",
    "0x1.51a19e89383a0p+11 0x1.519e08a970800p+11 0x1.caefe3dd00000p-4",
    "0x1.452e6d61ee500p+11 0x1.4529f5d6d8240p+11 0x1.1de2c58b00000p-3",
    "0x1.38bf913e08ea0p+11 0x1.38ba13166ce40p+11 0x1.5f89e70180000p-3",
    "0x1.2c564c0ddd920p+11 0x1.2c4fa1f9de780p+11 0x1.aa84ffc680000p-3",
    "0x1.1ff42aeebcd00p+11 0x1.1fec312fd7240p+11 0x1.fe6fb96b00000p-3",
    "0x1.139b1212e27e0p+11 0x1.1391a8eb56160p+11 0x1.2d24f18d00000p-2",
    "0x1.074d48f58ede0p+11 0x1.0742578ea8d20p+11 0x1.5e2cdcc180000p-2",
    "0x1.f61b0cc7db6c0p+10 0x1.f601fc2c704c0p+10 0x1.9109b6b200000p-2",
    "0x1.ddbdf78de1cc0p+10 0x1.dda1b742ef880p+10 0x1.c404af2440000p-2",
    "0x1.c58abe00bbf40p+10 0x1.c56b6ebc27c80p+10 0x1.f4f44942c0000p-2",
    "0x1.ad89e43148a00p+10 0x1.ad67d00bdb8c0p+10 0x1.10a12b68a0000p-1",
    "0x1.95c50fdce6c40p+10 0x1.95a0b02d366c0p+10 0x1.22fd7d82c0000p-1",
    "0x1.7e470a2e76cc0p+10 0x1.7e210bd786240p+10 0x1.2ff2b78540000p-1",
    "0x1.671bb85661f80p+10 0x1.66f4fdee42040p+10 0x1.35d340ffa0000p-1",
    "0x1.505009a3c4e80p+10 0x1.5029aae53a5c0p+10 0x1.32f5f45460000p-1",
    "0x1.39f1da1d7f340p+10 0x1.39cd2035f6900p+10 0x1.25cf3c4520000p-1",
    "0x1.240fc90d95440p+10 0x1.23ee27860f6c0p+10 0x1.0d0c3c2ec0000p-1",
    "0x1.0eb903807b180p+10 0x1.0e9c0dba6ce40p+10 0x1.cf5c60e340000p-2",
    "0x1.f3fa06bc45f00p+9 0x1.f3ccbdc105180p+9 0x1.6a47da06c0000p-2",
    "0x1.cbd688e5ade00p+9 0x1.cbb931146cb80p+9 0x1.d57d141280000p-3",
    "0x1.a525e2dd00780p+9 0x1.a51ba9ccf4800p+9 0x1.4722017f00000p-4",
    "0x1.8005170a17100p+9 0x1.8010e2f4c8c00p+9 -0x1.797d563600000p-4",
    "0x1.5c8f1fc938380p+9 0x1.5cb369af5e600p+9 -0x1.224f313140000p-2",
    "0x1.3adc3d3302b80p+9 0x1.3b1aedf51f300p+9 -0x1.f58610e3c0000p-2",
    "0x1.1b014d5363600p+9 0x1.1b5ba0221e1c0p+9 -0x1.694b3aeaf0000p-1",
    "0x1.fa1e6ca9ec300p+8 0x1.fb0b4532baa80p+8 -0x1.d9b1119cf0000p-1",
    "0x1.c224d33f86c00p+8 0x1.c3492c0e42480p+8 -0x1.2458cebb88000p+0",
    "0x1.8e250bdd7c100p+8 0x1.8f7e8b53d7a80p+8 -0x1.597f765b98000p+0",
    "0x1.5e2439f762300p+8 0x1.5faeef18e8880p+8 -0x1.8ab5218658000p+0",
    "0x1.321d3f573af00p+8 0x1.33d3c5b84e600p+8 -0x1.b686611370000p+0",
    "0x1.0a00e376ac500p+8 0x1.0bdc994bfb100p+8 -0x1.dbb5d54ec0000p+0",
)


def _ladder_rows(scenario, strikes) -> list[str]:
    rows = compare_bs_report(scenario, strikes)["outputs"]["rows"]
    assert [row["strike"] for row in rows] == strikes
    return [f"{r['haircut'].hex()} {r['bs_haircut'].hex()} {r['gap'].hex()}" for r in rows]


def test_compare_bs_ladder_keeps_its_bits():
    scenario = load_scenario(Path(__file__).resolve().parent.parent / "scenarios"
                             / "general_3sigma.json")
    assert _ladder_rows(scenario, [94000.0 + 100.0 * i for i in range(64)]) == list(_LADDER_BITS)


def _alone(m: MarketParams, strike: float):
    """A ladder row's bits for one strike priced alone, or its error's (type, message)."""
    try:
        haircut, benchmark = price_general_repo(m, strike).haircut, bs_haircut(m, strike)
    except RepoOptionsError as exc:
        return type(exc), str(exc)
    return f"{haircut.hex()} {benchmark.hex()} {(haircut - benchmark).hex()}"


def _assert_ladder_matches_each_strike_alone(m: MarketParams, strikes: list[float]) -> None:
    alone = [_alone(m, strike) for strike in strikes]
    scenario = Scenario("general", m, "USD", strikes[0], None, {})
    refused = [row for row in alone if isinstance(row, tuple)]
    if not refused:
        assert _ladder_rows(scenario, strikes) == alone
        return
    with pytest.raises(RepoOptionsError) as caught:
        compare_bs_report(scenario, strikes)
    assert (type(caught.value), str(caught.value)) == refused[0]


# strike = forward mean + c forward sds; past c = 38 and once Phi(c) underflows to 0
# censored_min_sd takes its exact tails
_MULTIPLES = st.one_of(st.sampled_from([-1e3, -40.0, -38.6, -5.0, 0.0, 38.5, 40.0, 1e3]),
                       st.floats(-45.0, 45.0))
_TAIL_MARKET = MarketParams(spot_price=55.17, intrinsic_yield=-0.1163, volatility=0.2627,
                            tenor_days=87, risk_free_rate=0.1142, day_count=360)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=st.builds(MarketParams, spot_price=st.floats(1.0, 1e6),
                   intrinsic_yield=st.floats(-0.2, 0.3), volatility=st.floats(0.01, 1.0),
                   tenor_days=st.integers(1, 365), risk_free_rate=st.floats(-0.05, 0.2),
                   day_count=st.sampled_from([360, 365])),
       multiples=st.lists(_MULTIPLES, min_size=1, max_size=8))
@example(m=MARKET, multiples=[-50.0, -40.0, -3.0, 0.0])  # Phi(c) == 0, then priced
@example(m=_TAIL_MARKET, multiples=[40.0, -3.0, 38.5])  # c > 38 leaves a dust haircut
def test_ladder_rows_match_each_strike_alone(m, multiples):
    g = forward_gaussian(m)
    _assert_ladder_matches_each_strike_alone(m, [g.mean + c * g.sd for c in multiples])


def test_tail_examples_reach_both_exact_tails(monkeypatch):
    # what the two examples above stand for: pricing reaches each exact tail of
    # censored_min_sd.  Past c = 38 the haircut is rounding dust, which is refused.
    sds, censored_min_sd = [], general_repo.censored_min_sd
    monkeypatch.setattr(general_repo, "censored_min_sd",
                        lambda strike, g: sds.append(censored_min_sd(strike, g)) or sds[-1])
    g = forward_gaussian(MARKET)
    assert price_general_repo(MARKET, g.mean - 50.0 * g.sd).revenue_sd_abs == 0.0
    g = forward_gaussian(_TAIL_MARKET)
    with pytest.raises(PricingError, match="^rounding-dust haircut"):
        price_general_repo(_TAIL_MARKET, g.mean + 40.0 * g.sd)
    assert sds == [0.0, g.sd]


_LADDER = [99000.0 + 100.0 * i for i in range(16)]
# a forward sd ten times its mean: a low strike's censored mean is negative
_WIDE = MarketParams(spot_price=1.0, intrinsic_yield=0.0, volatility=10.0,
                     tenor_days=360, risk_free_rate=0.05, day_count=360)


@pytest.mark.parametrize("k", [0, 5, 15])
@pytest.mark.parametrize("m, ladder, bad, error", [
    (MARKET, _LADDER, math.inf, ValidationError),
    (MARKET, _LADDER, math.nan, ValidationError),
    (MARKET, _LADDER, -1.0, ValidationError),
    pytest.param(MARKET, _LADDER, 10**400, ValidationError, id="int-past-float-range"),
    (MARKET, _LADDER, 150000.0, PricingError),  # non-positive haircut
    # 7.25 forward sds above the forward mean: the haircut is one ulp of the spot
    (MARKET, _LADDER, 107268.39579480325, PricingError),
    (_WIDE, [25.0 + i for i in range(16)], 0.5, PricingError),  # non-positive lent amount
    (MARKET, _LADDER, None, ToleranceError),  # identity residual, planted below
])
def test_a_refused_strike_fails_the_ladder_as_it_fails_alone(monkeypatch, m, ladder, bad,
                                                            error, k):
    strikes = list(ladder)
    if bad is None:
        original = general_repo.haircut_identity_residual
        monkeypatch.setattr(general_repo, "haircut_identity_residual", lambda q, m: (
            1.0 if q.repurchase_price == strikes[k] else original(q, m)))
    else:
        strikes[k] = bad
    with pytest.raises(error) as alone:
        price_general_repo(m, strikes[k])

    priced, benchmarks = [], []
    mean, prices = general_repo.censored_min_mean, general_repo.bs_prices
    monkeypatch.setattr(general_repo, "censored_min_mean",
                        lambda strike, g: priced.append(strike) or mean(strike, g))
    monkeypatch.setattr(general_repo, "bs_prices",
                        lambda b, ks, put=False: benchmarks.append(ks) or prices(b, ks, put))
    scenario = Scenario("general", m, "USD", strikes[0], None, {})
    with pytest.raises(error) as ladder:
        compare_bs_report(scenario, strikes)
    assert type(ladder.value) is type(alone.value)
    assert str(ladder.value) == str(alone.value)
    # no strike after k was priced, nor any benchmark
    assert priced[:k] == strikes[:k] and priced[k:] in ([], [strikes[k]])
    assert benchmarks == []


def test_a_deterministic_forward_is_refused_after_the_first_strikes_own_check():
    flat = MARKET._replace(volatility=0.0)
    with pytest.raises(ValidationError, match="repurchase_price must be finite and > 0"):
        price_general_ladder(flat, [math.inf, 99000.0])
    with pytest.raises(ValidationError, match="variance ratio"):
        price_general_ladder(flat, [99000.0, math.inf])


def test_empty_ladders_price_nothing():
    assert price_general_ladder(MARKET, []) == []
    assert bs_haircut_ladder(MARKET, []) == []
