"""Censored-moment closed forms vs frozen values and numerical quadrature."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats

from repo_options import (
    GaussianParams,
    ValidationError,
    censored_min_mean,
    censored_min_sd,
    put_payoff_mean,
)
from repo_options.stochastic import std_normal_cdf, std_normal_pdf

# Reference Gaussian used by the worked examples (rounded literal inputs).
EXAMPLE_G = GaussianParams(mean=100008.33, sd=1001.39)


# --- frozen spot values (independent 40-digit arithmetic, quadrature-checked) ---


def test_std_normal_pdf_frozen():
    assert std_normal_pdf(0.0) == pytest.approx(0.39894228040143268, rel=1e-14)
    assert std_normal_pdf(3.0) == pytest.approx(0.0044318484119380072, rel=1e-14)


def test_std_normal_cdf_frozen():
    assert std_normal_cdf(3.0) == pytest.approx(0.99865010196836991, rel=1e-14)
    assert std_normal_cdf(-3.0) == pytest.approx(0.0013498980316300945, rel=1e-13)
    # deep lower tail keeps relative accuracy (erfc form, no 1 - p cancellation)
    assert std_normal_cdf(-8.0) == pytest.approx(6.2209605742717841e-16, rel=1e-12)


def test_censored_min_mean_frozen():
    assert censored_min_mean(97003.92, EXAMPLE_G) == pytest.approx(
        97003.53763833655, rel=1e-12
    )
    assert censored_min_mean(98005.39, EXAMPLE_G) == pytest.approx(
        97996.891134637593, rel=1e-12
    )


def test_censored_min_sd_frozen():
    assert censored_min_sd(97003.92, EXAMPLE_G) == pytest.approx(
        14.27134230947157, rel=1e-10
    )
    assert censored_min_sd(98005.39, EXAMPLE_G) == pytest.approx(
        75.563377299606743, rel=1e-10
    )


def test_put_payoff_mean_frozen():
    assert put_payoff_mean(100008.33, EXAMPLE_G) == pytest.approx(
        399.49681017119067, rel=1e-12
    )


# float.hex of (censored_min_mean, censored_min_sd) at strike = mean + c * sd, for
# c from past the left tail where Phi(c) underflows, through the body, to past
# the right tail where the sd is g.sd exactly
_FROZEN_BITS = {
    -1e3: ("-0x1.b820b570a3d71p+19", "0x0.0p+0"),
    -40.0: ("0x1.d46175c28f5c3p+15", "0x0.0p+0"),
    -38.6: ("0x1.df555a1cac083p+15", "0x0.0p+0"),
    -8.0: ("0x1.675d35c28f5c3p+16", "0x1.1db55c1c5f03dp-18"),
    -5.0: ("0x1.731961442be54p+16", "0x1.1d3b6aef64a12p-3"),
    -3.0: ("0x1.7aebc6fe1512ap+16", "0x1.c8e373888a356p+3"),
    0.0: ("0x1.8518d54bedba2p+16", "0x1.2450c0a4dc7b1p+9"),
    3.0: ("0x1.86a7f28333cafp+16", "0x1.f411d24c50133p+9"),
    38.5: ("0x1.86a8547ae147bp+16", "0x1.f4b1eb851eb85p+9"),
    40.0: ("0x1.86a8547ae147bp+16", "0x1.f4b1eb851eb85p+9"),
}


@pytest.mark.parametrize("c", sorted(_FROZEN_BITS))
def test_censored_min_bits_frozen(c):
    strike = EXAMPLE_G.mean + c * EXAMPLE_G.sd
    got = (censored_min_mean(strike, EXAMPLE_G).hex(), censored_min_sd(strike, EXAMPLE_G).hex())
    assert got == _FROZEN_BITS[c]


# float.hex of put_payoff_mean, the special-repo payoff f(K - mu, sd), on the same grid
_FROZEN_PUT_BITS = {
    -1e3: "0x0.0p+0",
    -40.0: "0x0.0p+0",
    -38.6: "0x0.0p+0",
    -8.0: "0x1.548198b7c68c0p-44",
    -5.0: "0x1.c1179d21c6f00p-15",
    -3.0: "0x1.87deb5f303920p-2",
    0.0: "0x1.8f7f2ef38d959p+8",
    3.0: "0x1.7791af9986a22p+11",
    38.5: "0x1.2d3307ae147aep+15",
    40.0: "0x1.38ef333333332p+15",
}


@pytest.mark.parametrize("c", sorted(_FROZEN_PUT_BITS))
def test_put_payoff_mean_bits_frozen(c):
    strike = EXAMPLE_G.mean + c * EXAMPLE_G.sd
    assert put_payoff_mean(strike, EXAMPLE_G).hex() == _FROZEN_PUT_BITS[c]


def test_put_payoff_mean_deep_out_of_the_money():
    # ten sigmas below the mean the put mean is ~7.5e-22; float evaluation
    # cancels to a couple of digits, so only order of magnitude is asserted
    value = put_payoff_mean(EXAMPLE_G.mean - 10.0 * EXAMPLE_G.sd, EXAMPLE_G)
    assert 0.0 <= value < 1e-20


# --- dual route: numerical quadrature over the Gaussian density ---


def _quad(f, g: GaussianParams, strike: float) -> float:
    lo, hi = g.mean - 14.0 * g.sd, g.mean + 14.0 * g.sd
    value, _ = integrate.quad(
        lambda x: f(x) * stats.norm.pdf(x, g.mean, g.sd),
        lo,
        hi,
        points=[strike] if lo < strike < hi else None,
        limit=300,
    )
    return value


@pytest.mark.parametrize("offset", [-3.0, -2.0, -1.0, 0.0, 0.7, 2.5])
def test_censored_min_mean_matches_quadrature(offset):
    g = GaussianParams(mean=250.0, sd=40.0)
    strike = g.mean + offset * g.sd
    expected = _quad(lambda x: min(strike, x), g, strike)
    assert censored_min_mean(strike, g) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("offset", [-3.0, -1.0, 0.0, 1.0, 2.0])
def test_censored_min_sd_matches_quadrature(offset):
    g = GaussianParams(mean=77.0, sd=9.0)
    strike = g.mean + offset * g.sd
    mean = _quad(lambda x: min(strike, x), g, strike)
    second = _quad(lambda x: min(strike, x) ** 2, g, strike)
    expected = math.sqrt(second - mean * mean)
    assert censored_min_sd(strike, g) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("offset", [-2.0, 0.0, 1.0, 3.0])
def test_put_payoff_mean_matches_quadrature(offset):
    g = GaussianParams(mean=500.0, sd=60.0)
    strike = g.mean + offset * g.sd
    expected = _quad(lambda x: max(strike - x, 0.0), g, strike)
    assert put_payoff_mean(strike, g) == pytest.approx(expected, rel=1e-9, abs=1e-12)


# --- algebraic properties over randomized parameters ---


def test_put_complements_censored_min_randomized():
    # E[(K - X)^+] = K - E[min(K, X)] exactly
    rng = np.random.default_rng(7)
    for _ in range(500):
        g = GaussianParams(
            mean=float(rng.uniform(-500.0, 500.0)), sd=float(rng.uniform(0.01, 100.0))
        )
        strike = g.mean + float(rng.uniform(-5.0, 5.0)) * g.sd
        lhs = put_payoff_mean(strike, g)
        rhs = strike - censored_min_mean(strike, g)
        scale = abs(strike) + abs(g.mean) + g.sd
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_censored_min_mean_monotone_in_strike():
    g = GaussianParams(mean=10.0, sd=2.0)
    strikes = [g.mean + k * g.sd for k in np.linspace(-5.0, 5.0, 41)]
    values = [censored_min_mean(k, g) for k in strikes]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    # bounded above by both the strike and the mean
    for strike, value in zip(strikes, values):
        assert value <= min(strike, g.mean)


def test_censored_min_mean_rounding_stays_below_the_strike():
    # 164 sds below the mean, mu - (mu - K) gives back K + 1 ulp; the bound returns K
    g = GaussianParams(mean=4202.621051012061, sd=23.869430440293506)
    assert censored_min_mean(275.39296329004475, g) == 275.39296329004475


def test_censored_min_sd_bounds():
    rng = np.random.default_rng(11)
    for _ in range(500):
        g = GaussianParams(
            mean=float(rng.uniform(-100.0, 100.0)), sd=float(rng.uniform(0.01, 50.0))
        )
        strike = g.mean + float(rng.uniform(-8.0, 8.0)) * g.sd
        sd = censored_min_sd(strike, g)
        assert 0.0 <= sd <= g.sd * (1.0 + 1e-12)


def test_censored_min_sd_vanishes_when_fully_censored():
    g = GaussianParams(mean=1000.0, sd=10.0)
    assert censored_min_sd(g.mean - 8.0 * g.sd, g) < 1e-6 * g.sd


@pytest.mark.parametrize("c, expected", [(1e8, 1.0), (1e160, 1.0), (-1e160, 0.0)])
def test_censored_min_sd_exact_tail_limits(c, expected):
    # far right: nothing is censored, so the sd is the forward sd (the
    # cancelling variance difference gives 0); far left: everything is,
    # and c*c overflows (the difference gives NaN)
    assert censored_min_sd(c, GaussianParams(mean=0.0, sd=1.0)) == expected


# --- degenerate and zero-volatility behavior ---


def test_zero_sd_branches_exact():
    g = GaussianParams(mean=42.0, sd=0.0)
    assert censored_min_mean(50.0, g) == 42.0
    assert censored_min_mean(40.0, g) == 40.0
    assert censored_min_sd(50.0, g) == 0.0
    assert put_payoff_mean(50.0, g) == 8.0
    assert put_payoff_mean(40.0, g) == 0.0
    # mu - K rounds here, so the limit must not go through mu - (mu - K)^+
    assert censored_min_mean(1e-20, GaussianParams(mean=1.0, sd=0.0)) == 1e-20


@pytest.mark.parametrize("strike_scale", [0.7, 1.0, 1.3])
def test_tiny_sd_continuous_with_degenerate_limit(strike_scale):
    mean = 1234.5
    g = GaussianParams(mean=mean, sd=1e-8 * mean)
    strike = strike_scale * mean
    assert abs(censored_min_mean(strike, g) - min(strike, mean)) <= 1e-6 * mean
    assert abs(put_payoff_mean(strike, g) - max(strike - mean, 0.0)) <= 1e-6 * mean


# --- validation ---


def test_gaussian_params_rejects_bad_fields():
    with pytest.raises(ValidationError):
        GaussianParams(mean=math.nan, sd=1.0)
    with pytest.raises(ValidationError):
        GaussianParams(mean=0.0, sd=-1.0)
    with pytest.raises(ValidationError):
        GaussianParams(mean=math.inf, sd=1.0)
    with pytest.raises(ValidationError):
        GaussianParams(mean=0.0, sd=math.nan)
