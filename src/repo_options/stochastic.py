"""Gaussian forward-price toolkit: censored and option-payoff moments.

The forward price is modelled as X ~ Normal(mean, sd^2) in currency units.
Every closed form here is built on one kernel, the normal-model (Bachelier)
call mean

    f(a, s) = E[(a + s*Z)^+] = a * Phi(a/s) + s * phi(a/s),   Z ~ N(0, 1),

held once in ``_call_excess``:

    E[min(K, X)]  = mu - f(mu - K, sd)          (min(K, X) = X - (X - K)^+)
    E[(K - X)^+]  = f(K - mu, sd)
    Var[min(K,X)] = sd^2 * Var[min(c, Z)], c = (K - mu)/sd, whose first
                    partial moment E[(c - Z)^+] is f(c, 1); ``censored_min_sd``
                    reads it from its own Phi(c), phi(c), which it needs
                    for the second partial moment anyway

At sd = 0 each function returns its exact deterministic limit directly,
never through the kernel: mu - max(mu - K, 0) is not min(K, mu) once
mu - K rounds (mu = 1, K = 1e-20 gives 0.0).

The normal model admits negative prices; no truncation is applied.  That is
a deliberate model caveat, not an oversight.

All functions are pure and safe for unlimited concurrent callers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import FINITE, NON_NEGATIVE, CheckedRecord

SQRT_2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class _GaussianFields(NamedTuple):
    mean: float
    sd: float


class GaussianParams(CheckedRecord, _GaussianFields):
    """Mean and absolute standard deviation of the forward price.

    A field that breaks a rule raises ValidationError on every construction path.
    """

    __slots__ = ()
    _rules = (("mean", FINITE), ("sd", NON_NEGATIVE))


def std_normal_pdf(x: float) -> float:
    """Standard normal density phi(x) = exp(-x^2/2) / sqrt(2*pi)."""
    return INV_SQRT_2PI * math.exp(-0.5 * x * x)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc, accurate to well below 1e-12 absolute.

    Phi(x) = erfc(-x / sqrt(2)) / 2.  The erfc form keeps the lower tail
    accurate in relative terms instead of cancelling against 1: within 3.4e-13 / 8.8e-14 /
    1.4e-14 / 1.2e-15 / 1.1e-16 of 60-digit mpmath over the bands of ``_call_excess``.
    """
    return 0.5 * math.erfc(-x / SQRT_2)


def _call_excess(a: float, s: float) -> float:
    """Normal-model call mean f(a, s) = a * Phi(a/s) + s * phi(a/s), for s > 0; f(c, 1) for
    c in [-37, -20] / (-20, -8] / (-8, -3] / (-3, 3] / (3, 38] is within 4.6e-10 / 3.1e-11 /
    8.6e-13 / 6.6e-15 / 4.3e-16 relative error of 60-digit mpmath."""
    d = a / s
    # the payoff mean is >= 0 by definition; guard the floating-point dust
    return max(a * std_normal_cdf(d) + s * std_normal_pdf(d), 0.0)


def censored_min_mean(strike: float, g: GaussianParams) -> float:
    """E[min(strike, X)] for X ~ Normal(g.mean, g.sd^2): mu - f(mu - K, sd).

    Since min(K, X) + max(K, X) = K + X, E[max(K, X)] is K + mu minus this.
    The result is at most min(K, mu), as the model guarantees: once the strike
    censors almost every draw, mu - f(mu - K, sd) gives back K only up to rounding.
    The bound guards that dust, as _call_excess's max(., 0) does; it is not a clamp
    of a model value.
    """
    if g.sd == 0.0:
        return min(strike, g.mean)
    return min(g.mean - _call_excess(g.mean - strike, g.sd), strike, g.mean)


def censored_min_sd(strike: float, g: GaussianParams) -> float:
    """Standard deviation of min(strike, X).

    Standardize with c = (strike - mean) / sd and write
    min(c, Z) = c - (c - Z)^+.  The partial moments

        E[(c-Z)^+]     = c * Phi(c) + phi(c) = f(c, 1)
        E[((c-Z)^+)^2] = (1 + c^2) * Phi(c) + c * phi(c)

    give Var[min(c, Z)] as a difference of two small quantities, which
    stays accurate precisely in the heavily censored regime the repo
    pipeline lives in (strike several sigmas below the mean).

    Both tails return their exact limits instead: past c = 38 the strike
    censors nothing a double can resolve (Phi(-38) ~ 3e-316), so the sd
    is g.sd, not the 0 the cancelling difference gives; and once Phi(c)
    underflows to 0 almost every draw is the strike, so the sd is 0
    (c*c overflows there, and inf * 0 would be NaN).  At sd 1 and c in the bands of
    ``_call_excess`` it is within 1.5e-7 / 2.9e-9 / 1.3e-11 / 1.6e-14 / 1.0e-14 relative
    error of 60-digit mpmath.
    """
    if g.sd == 0.0:
        return 0.0
    c = (strike - g.mean) / g.sd
    if c > 38.0:
        return g.sd
    cdf = std_normal_cdf(c)
    if cdf == 0.0:
        return 0.0
    pdf = std_normal_pdf(c)
    first = max(c * cdf + pdf, 0.0)  # f(c, 1), as _call_excess(c, 1.0) computes it
    second = (1.0 + c * c) * cdf + c * pdf
    var = second - first * first
    # censoring can only shrink variance: clamp to [0, 1] against rounding
    var = min(max(var, 0.0), 1.0)
    return g.sd * math.sqrt(var)


def put_payoff_mean(strike: float, g: GaussianParams) -> float:
    """E[(strike - X)^+], the mean payoff of a put struck at `strike`: f(K - mu, sd).

    Its accuracy is ``_call_excess``'s, whose docstring states the bounds.
    """
    if g.sd == 0.0:
        return max(strike - g.mean, 0.0)
    return _call_excess(strike - g.mean, g.sd)
