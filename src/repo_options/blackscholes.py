"""Black-Scholes European call/put comparator.

Classical lognormal model, used as the benchmark the implicit-option
haircuts are compared against:

    d1 = [ln(S/K) + (r + vol^2/2) T] / (vol sqrt(T))
    d2 = d1 - vol sqrt(T)
    call = S Phi(d1) - K e^{-rT} Phi(d2)
    put  = K e^{-rT} Phi(-d2) - S Phi(-d1)

When vol sqrt(T) is 0 (vol = 0, or a vol so small that the product
underflows) both prices collapse to their deterministic discounted
intrinsic values.  So do they when K e^{-rT} overflows (a rate below
about -709 / T): the call is then worth 0 and the put is unbounded.  No
dividends, no American exercise.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ValidationError
from .stochastic import std_normal_cdf


class _BsFields(NamedTuple):
    spot: float
    strike: float
    rate: float
    vol: float
    tenor: float


class BsInputs(_BsFields):
    """Inputs of the lognormal pricer; tenor in years, rates per annum."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        # the NamedTuple's __new__ has set the fields from the arguments; check them
        if not (math.isfinite(self.spot) and self.spot > 0.0):
            raise ValidationError(f"spot must be > 0, got {self.spot!r}")
        if not (math.isfinite(self.strike) and self.strike > 0.0):
            raise ValidationError(f"strike must be > 0, got {self.strike!r}")
        if not math.isfinite(self.rate):
            raise ValidationError(f"rate must be finite, got {self.rate!r}")
        if not (math.isfinite(self.vol) and self.vol >= 0.0):
            raise ValidationError(f"vol must be >= 0, got {self.vol!r}")
        if not (math.isfinite(self.tenor) and self.tenor > 0.0):
            raise ValidationError(f"tenor must be > 0 years, got {self.tenor!r}")


def _discounted_strike(b: BsInputs) -> float:
    """K e^{-rT}; inf once e^{-rT} overflows (a rate below about -709 / T)."""
    try:
        return b.strike * math.exp(-b.rate * b.tenor)
    except OverflowError:
        return math.inf


def _d1_d2(b: BsInputs, srt: float) -> tuple[float, float]:
    ratio = b.spot / b.strike
    # ln(S/K) as the difference of logs only where S/K under- or overflows
    log_moneyness = (math.log(ratio) if 0.0 < ratio < math.inf
                     else math.log(b.spot) - math.log(b.strike))
    d1 = (log_moneyness + (b.rate + 0.5 * b.vol * b.vol) * b.tenor) / srt
    return d1, d1 - srt


def bs_call(b: BsInputs) -> float:
    """European call price; max(S - K e^{-rT}, 0) when vol * sqrt(T) = 0 or K e^{-rT} = inf."""
    discounted_strike = _discounted_strike(b)
    srt = b.vol * math.sqrt(b.tenor)
    if srt == 0.0 or discounted_strike == math.inf:
        return max(b.spot - discounted_strike, 0.0)
    d1, d2 = _d1_d2(b, srt)
    return max(b.spot * std_normal_cdf(d1) - discounted_strike * std_normal_cdf(d2), 0.0)


def bs_put(b: BsInputs) -> float:
    """European put price; max(K e^{-rT} - S, 0) when vol * sqrt(T) = 0 or K e^{-rT} = inf."""
    discounted_strike = _discounted_strike(b)
    srt = b.vol * math.sqrt(b.tenor)
    if srt == 0.0 or discounted_strike == math.inf:
        return max(discounted_strike - b.spot, 0.0)
    d1, d2 = _d1_d2(b, srt)
    return max(discounted_strike * std_normal_cdf(-d2) - b.spot * std_normal_cdf(-d1), 0.0)
