"""General repo pricing: the haircut as an implicit European call.

The cash lender keeps min(repurchase_price, collateral_value) at the
closing leg, so the lent amount is the discounted mean of that censored
payoff and the haircut is the remainder of the spot value.  The discount
rate scales the excess return with the return variance, so

    lender_rate = risk_free + (intrinsic_yield - risk_free) * ratio^2

with ratio the censored-to-uncensored volatility ratio at matching
per-period, spot-relative normalization.

Rate conventions, applied uniformly:
* MarketParams rates are quoted per annum.
* A period is tenor_days/day_count years; per-period and per-annum
  rates convert by that factor (simple scaling, no compounding).
* The haircut identity residual uses per-period rates only; mixing in
  annualized rates breaks the exact algebra.

A ladder of repurchase prices (`price_general_ladder`, `bs_haircut_ladder`)
computes the market's terms once and gives each strike all of its own checks,
in order; a single quote is the ladder of one.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .blackscholes import BsInputs, bs_call, bs_prices
from .errors import (COUNT, FINITE, NON_NEGATIVE, POSITIVE, CheckedRecord, PricingError,
                     ToleranceError, ValidationError, require, short_repr)
from .stochastic import GaussianParams, censored_min_mean, censored_min_sd

VALID_DAY_COUNTS = (360, 365)

#: Identity residual beyond this is a computation fault, not rounding.
IDENTITY_TOLERANCE = 1e-10


class _MarketFields(NamedTuple):
    spot_price: float
    intrinsic_yield: float
    volatility: float
    tenor_days: int
    risk_free_rate: float
    day_count: int = 360


class MarketParams(CheckedRecord, _MarketFields):
    """Market state of the collateral over one repo period.

    spot_price: current price of the collateral (currency units)
    intrinsic_yield: per-annum yield implied by the forward mean
    volatility: per-annum relative volatility of the collateral price
    tenor_days: repo term in days (integer >= 1)
    risk_free_rate: per-annum risk-free rate
    day_count: days per year for rate scaling (360 or 365)

    Both simple-interest factors, 1 + intrinsic_yield * t and 1 + risk_free_rate * t
    with t = tenor_days / day_count, must be positive: the model has no meaning for
    one that is not.  A field that breaks a rule raises ValidationError on every
    construction path (the constructor, _make and _replace).
    """

    __slots__ = ()
    _rules = (("spot_price", POSITIVE), ("intrinsic_yield", FINITE),
              ("volatility", NON_NEGATIVE), ("tenor_days", COUNT), ("risk_free_rate", FINITE))

    def _check(self):
        if self.day_count not in VALID_DAY_COUNTS:
            raise ValidationError(f"day_count must be one of {VALID_DAY_COUNTS}, "
                                  f"got {short_repr(self.day_count)}")
        for name in ("intrinsic_yield", "risk_free_rate"):
            factor = 1.0 + getattr(self, name) * self.period_years
            if not factor > 0.0:
                raise ValidationError(f"simple-interest factor 1 + {name} * tenor_days / "
                                      f"day_count must be > 0, got {factor!r}")

    @property
    def period_years(self) -> float:
        """Length of the repo period as a fraction of the rate year."""
        return self.tenor_days / self.day_count


class GeneralRepoQuote(NamedTuple):
    """Full output of the general-repo pricing pipeline.

    Money fields are currency units.  repo_rate and lender_rate are per
    annum; option_yield is per period; revenue_sd is the per-period sd
    of the lender's censored revenue as a fraction of spot_price
    (revenue_sd_abs carries the same number in currency units).
    """

    repurchase_price: float
    lent_amount: float
    haircut: float
    haircut_rate: float
    repo_rate: float
    lender_rate: float
    revenue_mean: float
    revenue_sd: float
    revenue_sd_abs: float
    option_value_mean: float
    option_yield: float
    forward_mean: float


def forward_gaussian(m: MarketParams) -> GaussianParams:
    """Gaussian forward-price model over one period.

    mean = spot * (1 + intrinsic_yield * tenor/day_count)
    sd   = spot * volatility * sqrt(tenor/day_count)
    """
    t = m.period_years
    return GaussianParams(mean=m.spot_price * (1.0 + m.intrinsic_yield * t),
                          sd=m.spot_price * m.volatility * math.sqrt(t))


def strike_from_sigma_multiple(m: MarketParams, k: float) -> float:
    """Repurchase price k per-period sigmas below the forward mean.

    repurchase = (1 - k * volatility * sqrt(tenor/day_count)) * forward_mean
    """
    require(NON_NEGATIVE, sigma_multiple=k)
    strike = (1.0 - k * m.volatility * math.sqrt(m.period_years)) * forward_gaussian(m).mean
    if strike <= 0.0:
        raise ValidationError(f"sigma multiple {k} places the repurchase price at "
                              f"{strike:.6g} <= 0")
    return strike


def price_general_ladder(m: MarketParams, strikes: Iterable[float]) -> list[GeneralRepoQuote]:
    """Price the general repo and its implicit call for one period at each repurchase price.

    Forward Gaussian (once, after the first strike's check) -> censored revenue moments
    -> variance-scaled lender rate -> per-period discounting of the mean revenue ->
    haircut, repo rate and implicit-call yield -> haircut identity check.  A residual
    beyond IDENTITY_TOLERANCE raises PricingError when one per-period rate is so large
    that rounding alone explains it, ToleranceError otherwise.  The first refused
    strike raises what it raises alone, before any later strike is priced.

    A haircut of at most k * sys.float_info.epsilon * spot, k = 3 (3 to 6 ulps of the
    spot), raises PricingError: far above the forward mean, spot - lent_amount is
    rounding dust whose sign the model's own haircut need not share.  k = 3 is the
    smallest k that, over 20,000 random markets checked against a 60-digit twin, left
    no priced quote whose model haircut is <= 0.

    The lender rate L = r + (y - r) * ratio^2 with ratio in [0, 1] lies between the
    risk-free rate and the intrinsic yield, so 1 + L * t is positive, since
    MarketParams makes both of their simple-interest factors positive.
    """
    quotes = []
    for repurchase_price in strikes:
        if not POSITIVE.test(repurchase_price):
            raise ValidationError(
                f"repurchase_price must be finite and > 0, got {short_repr(repurchase_price)}")
        if not quotes:
            g = forward_gaussian(m)
            if g.sd == 0.0:
                cause = ("volatility must be > 0" if m.volatility == 0.0 else
                         f"the forward standard deviation spot * volatility * sqrt(tenor) "
                         f"underflows to 0 (volatility {m.volatility!r})")
                raise ValidationError(f"{cause}: the censored-to-uncensored variance ratio "
                                      "of the lender-rate model is undefined for a "
                                      "deterministic forward price")
            spot, t = m.spot_price, m.period_years
            dust = 3.0 * sys.float_info.epsilon * spot
            excess_rate = m.intrinsic_yield - m.risk_free_rate

        revenue_mean = censored_min_mean(repurchase_price, g)
        revenue_sd_abs = censored_min_sd(repurchase_price, g)
        # both vols per-period and spot-relative, so the ratio is scale-free
        ratio = revenue_sd_abs / g.sd
        lender_rate_pa = m.risk_free_rate + excess_rate * ratio * ratio

        lent_amount = revenue_mean / (1.0 + lender_rate_pa * t)
        if not lent_amount > 0.0:
            raise PricingError(f"lent amount {lent_amount:.6g} is not positive: the "
                               "Gaussian forward model cannot price this loan")
        haircut = spot - lent_amount
        if haircut <= dust:
            what = "non-positive haircut" if haircut <= 0.0 else "rounding-dust haircut"
            raise PricingError(f"{what} {haircut:.6g}: repurchase price "
                               f"{repurchase_price:.6g} sits too far above the forward "
                               "mean for the implicit-call interpretation")

        repo_rate_pa = (repurchase_price / lent_amount - 1.0) / t
        option_value_mean = g.mean - revenue_mean
        option_yield_pp = option_value_mean / haircut - 1.0
        # positional, in field order: keywords cost ~1 us a quote
        quote = GeneralRepoQuote(repurchase_price, lent_amount, haircut, haircut / spot,
                                 repo_rate_pa, lender_rate_pa, revenue_mean,
                                 revenue_sd_abs / spot, revenue_sd_abs, option_value_mean,
                                 option_yield_pp, g.mean)
        residual = haircut_identity_residual(quote, m)
        if not abs(residual) <= IDENTITY_TOLERANCE:
            terms = {"implicit-call yield": option_yield_pp,
                     "lender rate": revenue_mean / lent_amount - 1.0,
                     "intrinsic yield": g.mean / spot - 1.0}
            name, term = max(terms.items(), key=lambda item: abs(item[1]))
            if abs(term) * sys.float_info.epsilon > IDENTITY_TOLERANCE:
                raise PricingError(
                    f"per-period {name} {term:.3e} is outside the model's domain: rounding "
                    f"at that size alone exceeds the {IDENTITY_TOLERANCE:.0e} identity tolerance"
                )
            raise ToleranceError(
                f"haircut identity residual {residual:.3e} exceeds {IDENTITY_TOLERANCE:.0e}"
            )
        quotes.append(quote)
    return quotes


def price_general_repo(m: MarketParams, repurchase_price: float) -> GeneralRepoQuote:
    """Price the general repo and its implicit call for one period: the ladder of one."""
    return price_general_ladder(m, (repurchase_price,))[0]


def bs_inputs(m: MarketParams, strike: float) -> BsInputs:
    """The Black-Scholes inputs of an option on the collateral struck at ``strike``."""
    return BsInputs(spot=m.spot_price, strike=strike, rate=m.risk_free_rate,
                    vol=m.volatility, tenor=m.period_years)


def bs_haircut(m: MarketParams, repurchase_price: float) -> float:
    """Black-Scholes benchmark for the haircut: a call struck at the repurchase price."""
    return bs_call(bs_inputs(m, repurchase_price))


def bs_haircut_ladder(m: MarketParams, strikes: Sequence[float]) -> list[float]:
    """`bs_haircut` at each repurchase price; the market fields are checked once."""
    return bs_prices(bs_inputs(m, strikes[0]), strikes) if strikes else []


def lender_rate_from_bs(m: MarketParams, quote: GeneralRepoQuote, benchmark: float) -> float:
    """Lender rate implied by discounting with the Black-Scholes haircut.

    rate_pp = revenue_mean / (spot - bs_haircut) - 1, annualized, from a
    quote and its `bs_haircut` benchmark at the same repurchase price.
    Can be slightly negative when the benchmark haircut exceeds the
    pipeline's; reported as computed, no clamping.
    """
    if benchmark >= m.spot_price:
        raise PricingError(f"benchmark haircut {benchmark:.6g} >= spot "
                           f"{m.spot_price:.6g}: implied loan is non-positive")
    rate_pp = quote.revenue_mean / (m.spot_price - benchmark) - 1.0
    return rate_pp / m.period_years


def haircut_identity_residual(q: GeneralRepoQuote, m: MarketParams) -> float:
    """Residual of the haircut identity, all rates per period.

    haircut_rate * (option_yield - lender_rate) - (intrinsic_yield - lender_rate)
    is exactly zero in real arithmetic for any quote built from the
    definitions; the residual measures floating-point noise only.
    """
    lender_pp = q.revenue_mean / q.lent_amount - 1.0
    intrinsic_pp = q.forward_mean / m.spot_price - 1.0
    return q.haircut_rate * (q.option_yield - lender_pp) - (intrinsic_pp - lender_pp)
