"""Lognormal benchmark pricer vs frozen values, quadrature, and parity."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats

from repo_options import BsInputs, ValidationError, bs_call, bs_prices, bs_put

# Worked-example market: one-day tenor on a 360-day year.
EXAMPLE = dict(spot=100000.0, rate=0.0, vol=0.19, tenor=1.0 / 360.0)


def test_call_frozen_values():
    # strikes of the two worked cases; frozen against 40-digit arithmetic
    assert bs_call(BsInputs(strike=97003.919209191943, **EXAMPLE)) == pytest.approx(
        2996.410536949198, rel=1e-10
    )
    assert bs_call(BsInputs(strike=98005.39058390574, **EXAMPLE)) == pytest.approx(
        2002.7602689752887, rel=1e-10
    )


def test_put_frozen_value():
    assert bs_put(BsInputs(strike=100008.33333333333, **EXAMPLE)) == pytest.approx(
        403.69145786598175, rel=1e-10
    )


def test_put_call_parity_frozen():
    b = BsInputs(spot=100.0, strike=100.0, rate=0.01, vol=0.2, tenor=0.5)
    assert bs_call(b) - bs_put(b) == pytest.approx(0.49875208073176866, rel=1e-12)


def test_zero_vol_branches():
    call = BsInputs(spot=100.0, strike=90.0, rate=0.05, vol=0.0, tenor=1.0)
    assert bs_call(call) == pytest.approx(14.389351794935739, rel=1e-14)
    assert bs_put(call) == 0.0
    put = BsInputs(spot=80.0, strike=90.0, rate=0.05, vol=0.0, tenor=1.0)
    assert bs_put(put) == pytest.approx(90.0 * math.exp(-0.05) - 80.0, rel=1e-14)
    assert bs_call(put) == 0.0


def test_overflowing_inputs_take_their_limits():
    # S/K underflows to 0: ln(S/K) comes from the difference of logs, and the
    # put is worth the strike
    tiny_spot = BsInputs(spot=5e-324, strike=2.0, rate=0.0, vol=1.0, tenor=1.0 / 360.0)
    assert bs_put(tiny_spot) == 2.0
    assert bs_call(tiny_spot) == 0.0
    # e^{-rT} overflows: K e^{-rT} is infinite, so the call is worthless and
    # the put unbounded
    deep_negative_rate = BsInputs(spot=1e5, strike=1e5, rate=-94.0, vol=0.19,
                                  tenor=2719.0 / 360.0)
    assert bs_call(deep_negative_rate) == 0.0
    assert bs_put(deep_negative_rate) == math.inf


# --- dual route: lognormal expectation by quadrature ---


def _quad_price(b: BsInputs, payoff) -> float:
    # X = S exp((r - vol^2/2) T + vol sqrt(T) Z); discounted expected payoff
    drift = (b.rate - 0.5 * b.vol * b.vol) * b.tenor
    scale = b.vol * math.sqrt(b.tenor)
    kink = (math.log(b.strike / b.spot) - drift) / scale

    def integrand(z):
        price = b.spot * math.exp(drift + scale * z)
        return payoff(price) * stats.norm.pdf(z)

    value, _ = integrate.quad(
        integrand,
        -14.0,
        14.0,
        points=[kink] if -14.0 < kink < 14.0 else None,
        limit=400,
    )
    return math.exp(-b.rate * b.tenor) * value


@pytest.mark.parametrize(
    "spot,strike,rate,vol,tenor",
    [
        (100.0, 100.0, 0.05, 0.2, 1.0),
        (100.0, 120.0, 0.01, 0.35, 0.25),
        (50.0, 45.0, 0.0, 0.5, 2.0),
        (100000.0, 97000.0, 0.0, 0.19, 1.0 / 360.0),
        (10.0, 30.0, 0.02, 0.4, 0.5),
    ],
)
def test_prices_match_lognormal_quadrature(spot, strike, rate, vol, tenor):
    b = BsInputs(spot=spot, strike=strike, rate=rate, vol=vol, tenor=tenor)
    call_quad = _quad_price(b, lambda s: max(s - strike, 0.0))
    put_quad = _quad_price(b, lambda s: max(strike - s, 0.0))
    assert bs_call(b) == pytest.approx(call_quad, rel=1e-9, abs=1e-12)
    assert bs_put(b) == pytest.approx(put_quad, rel=1e-9, abs=1e-12)


# --- properties ---


def test_put_call_parity_randomized():
    rng = np.random.default_rng(314159)
    for _ in range(1000):
        b = BsInputs(
            spot=float(rng.uniform(1.0, 1e5)),
            strike=float(rng.uniform(1.0, 1e5)),
            rate=float(rng.uniform(-0.02, 0.10)),
            vol=float(rng.uniform(0.0, 0.8)),
            tenor=float(rng.uniform(1.0 / 360.0, 3.0)),
        )
        parity = bs_call(b) - bs_put(b)
        forward = b.spot - b.strike * math.exp(-b.rate * b.tenor)
        assert abs(parity - forward) <= 1e-9 * b.spot


def test_call_monotone_decreasing_in_strike():
    strikes = np.linspace(50.0, 150.0, 26)
    prices = [
        bs_call(BsInputs(spot=100.0, strike=float(k), rate=0.03, vol=0.25, tenor=1.0))
        for k in strikes
    ]
    assert all(a >= b - 1e-12 for a, b in zip(prices, prices[1:]))


def test_call_increasing_in_vol_and_bounded():
    vols = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8]
    prices = [
        bs_call(BsInputs(spot=100.0, strike=110.0, rate=0.0, vol=v, tenor=1.0))
        for v in vols
    ]
    assert all(a <= b + 1e-12 for a, b in zip(prices, prices[1:]))
    for price in prices:
        assert 0.0 <= price <= 100.0  # call never exceeds spot


def test_validation_rejects_bad_inputs():
    good = dict(spot=100.0, strike=100.0, rate=0.0, vol=0.2, tenor=1.0)
    for field, bad in [
        ("spot", 0.0),
        ("spot", -5.0),
        ("strike", 0.0),
        ("vol", -0.1),
        ("tenor", 0.0),
        ("rate", math.nan),
        ("tenor", math.inf),
    ]:
        with pytest.raises(ValidationError):
            BsInputs(**{**good, field: bad})


@pytest.mark.parametrize("market", [
    dict(spot=100.0, rate=0.03, vol=0.25, tenor=0.5),
    dict(spot=100.0, rate=0.05, vol=0.0, tenor=1.0),  # deterministic
    dict(spot=1e5, rate=-94.0, vol=0.19, tenor=30.0 / 360.0),  # e^{-rT} overflows
    dict(spot=5e-324, rate=0.0, vol=1.0, tenor=1.0 / 360.0),  # S/K underflows
])
def test_a_ladder_prices_each_strike_as_alone(market):
    strikes = [1e-300, 0.5, 2.0, 80.0, 100.0, 120.0, 1e5, 1e300]
    b = BsInputs(strike=strikes[0], **market)
    for put, alone in ((False, bs_call), (True, bs_put)):
        ladder = bs_prices(b, strikes, put)
        assert [p.hex() for p in ladder] == [
            alone(BsInputs(strike=k, **market)).hex() for k in strikes]
    with pytest.raises(ValidationError, match="strike must be > 0, got inf"):
        bs_prices(b, [100.0, math.inf])
    with pytest.raises(ValidationError, match="strike must be > 0, got 10{56}\\.\\.\\.$"):
        bs_prices(b, [100.0, 10**400])  # an int past the float range
