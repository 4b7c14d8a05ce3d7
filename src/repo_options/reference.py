"""Bundled reference cases: recompute every published figure with tolerances.

The package ships one canonical market (spot 100000, intrinsic yield 3%
per annum, volatility 19% per annum, one-day term, zero risk-free rate,
day count 360) and three derived cases:

* case 1 — repurchase price three per-period sigmas below the forward
  mean (conservative general repo);
* case 2 — repurchase price two per-period sigmas below the forward mean;
* special — lender-fail pricing with the repurchase price at the forward
  mean (zero-sigma strike).

``build_reference_rows`` recomputes all nineteen tracked quantities
through the public pricing pipeline and compares each against its frozen
reference value at the stated tolerance.  With ``mc=True`` it adds
simulation cross-checks: the closed-form censored mean (both cases) and
the put-payoff mean must land within four standard errors of the seeded
estimator (distinct seeds per row keep the three streams independent).

Running with ``day_count=365`` demonstrates convention sensitivity: the
reference values assume a 360-day year, so several rows fall outside
tolerance by design.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import PricingError
from .general_repo import (
    MarketParams,
    bs_haircut,
    forward_gaussian,
    price_general_repo,
    strike_from_sigma_multiple,
)
from .montecarlo import mc_sample_stats
from .special_repo import price_lender_fail

#: Default sample size and seed for the simulation cross-check rows.
DEFAULT_MC_N = 10_000_000
DEFAULT_MC_SEED = 42

#: Standard-error multiple for the simulation cross-check rows.
MC_Z_BOUND = 4.0


class ReferenceRow(NamedTuple):
    """One tracked quantity: recomputed value vs frozen reference."""

    name: str
    computed: float
    expected: float
    tolerance: float
    units: str

    @property
    def within(self) -> bool:
        return abs(self.computed - self.expected) <= self.tolerance


def reference_market(day_count: int = 360) -> MarketParams:
    """The canonical one-day market behind all bundled reference cases."""

    return MarketParams(
        spot_price=100_000.0,
        intrinsic_yield=0.03,
        volatility=0.19,
        tenor_days=1,
        risk_free_rate=0.0,
        day_count=day_count,
    )


def build_reference_rows(
    day_count: int = 360,
    *,
    mc: bool = False,
    seed: int = DEFAULT_MC_SEED,
    n: int = DEFAULT_MC_N,
) -> list[ReferenceRow]:
    """Recompute all tracked reference quantities and compare to tolerance."""

    market = reference_market(day_count)
    forward = forward_gaussian(market)

    strike1 = strike_from_sigma_multiple(market, 3.0)
    strike2 = strike_from_sigma_multiple(market, 2.0)
    case1 = price_general_repo(market, strike1)
    case2 = price_general_repo(market, strike2)
    bs1 = bs_haircut(market, strike1)
    bs2 = bs_haircut(market, strike2)
    special = price_lender_fail(market, forward.mean)

    rows = [
        ReferenceRow("case1_forward_mean", case1.forward_mean, 100008.33, 0.01, "USD"),
        ReferenceRow("case1_repurchase_price", case1.repurchase_price, 97003.92, 0.10, "USD"),
        ReferenceRow("case1_revenue_mean", case1.revenue_mean, 97003.53, 0.05, "USD"),
        ReferenceRow(
            "case1_revenue_sd_pct_of_spot", 100.0 * case1.revenue_sd, 0.015, 0.002, "percent"
        ),
        ReferenceRow("case1_haircut", case1.haircut, 2996.47, 0.50, "USD"),
        ReferenceRow("case1_bs_haircut", bs1, 2996.41, 1.00, "USD"),
        ReferenceRow("case1_haircut_gap_abs", abs(case1.haircut - bs1), 0.0, 1.5, "USD"),
        ReferenceRow(
            "case1_repo_rate_pct_pa", 100.0 * case1.repo_rate, 0.14, 0.02, "percent_per_annum"
        ),
        ReferenceRow("case2_repurchase_price", case2.repurchase_price, 98005.39, 0.10, "USD"),
        ReferenceRow("case2_revenue_mean", case2.revenue_mean, 97996.89, 0.10, "USD"),
        ReferenceRow(
            "case2_revenue_sd_pct_of_spot", 100.0 * case2.revenue_sd, 0.077, 0.004, "percent"
        ),
        ReferenceRow(
            "case2_lender_rate_pct_pa",
            100.0 * case2.lender_rate,
            0.018,
            0.003,
            "percent_per_annum",
        ),
        ReferenceRow("case2_haircut", case2.haircut, 2003.16, 0.50, "USD"),
        ReferenceRow("case2_bs_haircut", bs2, 2002.76, 1.00, "USD"),
        ReferenceRow(
            "case2_repo_rate_pct_pa", 100.0 * case2.repo_rate, 3.1, 0.2, "percent_per_annum"
        ),
        ReferenceRow("special_premium", special.premium, 403.69, 1.00, "USD"),
        ReferenceRow("special_lent_amount", special.lent_amount, 100403.69, 1.00, "USD"),
        ReferenceRow(
            "special_rate_pct_pa",
            100.0 * special.special_rate,
            -142.0,
            2.0,
            "percent_per_annum",
        ),
        ReferenceRow("special_put_value_mean", special.put_value_mean, 399.53, 0.50, "USD"),
    ]

    if mc:
        checks = (
            ("case1_revenue_mean_mc_z", case1.revenue_mean, strike1, 0, "min"),
            ("case2_revenue_mean_mc_z", case2.revenue_mean, strike2, 1, "min"),
            ("special_put_value_mc_z", special.put_value_mean, forward.mean, 2, "put-payoff"),
        )
        for name, closed, strike, offset, mode in checks:
            est = mc_sample_stats(strike, forward, n, seed + offset, mode)
            if est.se_mean == 0.0:
                raise PricingError(f"{name}: the {n} simulated payoffs have sample sd 0, so "
                                   "the estimate has no standard error; use more samples")
            rows.append(
                ReferenceRow(
                    name, (closed - est.mean) / est.se_mean, 0.0, MC_Z_BOUND, "standard_errors"
                )
            )

    return rows
