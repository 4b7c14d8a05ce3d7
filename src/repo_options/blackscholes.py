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
dividends, no American exercise.  `bs_prices` prices a ladder of strikes with
e^{-rT}, vol sqrt(T) and (r + vol^2/2) T computed once; `bs_call` and `bs_put`
are its ladders of one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

from .errors import FINITE, NON_NEGATIVE, POSITIVE, CheckedRecord, require
from .stochastic import std_normal_cdf


class _BsFields(NamedTuple):
    spot: float
    strike: float
    rate: float
    vol: float
    tenor: float


class BsInputs(CheckedRecord, _BsFields):
    """Inputs of the lognormal pricer; tenor in years, rates per annum.

    A field that breaks a rule raises ValidationError on every construction path.
    """

    __slots__ = ()
    _rules = (("spot", POSITIVE), ("strike", POSITIVE), ("rate", FINITE),
              ("vol", NON_NEGATIVE), ("tenor", POSITIVE))


def bs_prices(b: BsInputs, strikes: Iterable[float], put: bool = False) -> list[float]:
    """Call (or put) prices at each strike, at the spot, rate, vol and tenor of `b`.

    Each strike is checked as BsInputs checks its own.
    """
    try:
        discount = math.exp(-b.rate * b.tenor)
    except OverflowError:  # a rate below about -709 / T
        discount = math.inf
    srt = b.vol * math.sqrt(b.tenor)
    drift = (b.rate + 0.5 * b.vol * b.vol) * b.tenor
    spot, prices = b.spot, []
    for strike in strikes:
        if not POSITIVE.test(strike):
            require(POSITIVE, strike=strike)  # raises its refusal
        discounted_strike = strike * discount
        if srt == 0.0 or discounted_strike == math.inf:
            prices.append(max(discounted_strike - spot if put else spot - discounted_strike, 0.0))
            continue
        ratio = spot / strike
        # ln(S/K) as the difference of logs only where S/K under- or overflows
        log_moneyness = (math.log(ratio) if 0.0 < ratio < math.inf
                         else math.log(spot) - math.log(strike))
        d1 = (log_moneyness + drift) / srt
        d2 = d1 - srt
        prices.append(max(discounted_strike * std_normal_cdf(-d2) - spot * std_normal_cdf(-d1)
                          if put else
                          spot * std_normal_cdf(d1) - discounted_strike * std_normal_cdf(d2), 0.0))
    return prices


def bs_call(b: BsInputs) -> float:
    """European call price at b.strike."""
    return bs_prices(b, (b.strike,))[0]


def bs_put(b: BsInputs) -> float:
    """European put price at b.strike."""
    return bs_prices(b, (b.strike,), put=True)[0]
