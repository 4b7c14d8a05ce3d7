"""Special repo analytics: lender-fail put pricing and fee/haircut algebra.

Two sign conventions coexist and are kept in separate types on purpose:

* SpecialLenderQuote (lender-fail): the specialness shows up as a premium
  ADDED to the loan, lent_amount = spot + premium.  The securities lender
  is long an implicit European put struck at the repurchase price.
* SpecialRepoRelations (dealer-fail): the specialness shows up as a
  haircut SUBTRACTED from the loan, client loan = spot * (1 - special_haircut).

Never mix fields across the two conventions.

The relations algebra is pure per-period arithmetic.  Feed it per-period
rates only; annualize at the reporting layer.  Given consistent inputs:

    (1 + special_rate) * (1 - special_haircut)
        = (1 + general_rate) * (1 - general_haircut)         [balance]
    fee_rate = (general_rate - special_rate) * (1 - general_haircut)
               / (1 + special_rate)                          [auction fee]
    fee_rate = general_haircut - special_haircut             [equivalent]
    max_fee  = spot * (1 - special_haircut)
               * (general_rate - special_rate) / (1 + general_rate)
"""

from __future__ import annotations

from typing import NamedTuple

from .blackscholes import bs_put
from .errors import FINITE, HAIRCUT, POSITIVE, RATE, CheckedRecord, ValidationError, require
from .general_repo import MarketParams, bs_inputs, forward_gaussian
from .stochastic import put_payoff_mean

REGIME_TOLERANCE = 1e-9


class SpecialLenderQuote(NamedTuple):
    """Lender-fail pricing output (premium convention).

    premium and put_value_mean are currency units; special_rate is per
    annum; trader_return is per period.  lent_amount = spot + premium.
    """

    premium: float
    premium_rate: float
    lent_amount: float
    repurchase_price: float
    special_rate: float
    put_value_mean: float
    trader_return: float


class _RelationsFields(NamedTuple):
    general_rate: float
    special_rate: float
    general_haircut: float
    special_haircut: float


class SpecialRepoRelations(CheckedRecord, _RelationsFields):
    """Consistent (rates, haircuts) tuple in per-period terms; fee_rate is fed_fee_rate of it.

    A tuple with a rate <= -1, a haircut >= 1 or a balance residual over REGIME_TOLERANCE
    raises ValidationError on every construction path.  It holds no spot value, so the
    amounts for one, max_fed_fee and spot * (1 - general_haircut), are left to the caller.
    """

    __slots__ = ()
    # special side first, so a derived special number out of its domain is what is named
    _rules = (("special_rate", RATE), ("special_haircut", HAIRCUT),
              ("general_rate", RATE), ("general_haircut", HAIRCUT))

    def _check(self):
        residual = self.balance_residual()
        if not abs(residual) <= REGIME_TOLERANCE:
            raise ValidationError(f"inconsistent special-repo relations: balance "
                                  f"residual {residual:.3e} exceeds {REGIME_TOLERANCE:.0e}")

    def balance_residual(self) -> float:
        """(1+special_rate)(1-special_haircut) - (1+general_rate)(1-general_haircut)."""
        return ((1.0 + self.special_rate) * (1.0 - self.special_haircut)
                - (1.0 + self.general_rate) * (1.0 - self.general_haircut))

    @property
    def fee_rate(self) -> float:
        return fed_fee_rate(self.general_rate, self.special_rate, self.general_haircut)


def price_lender_fail(m: MarketParams, repurchase_price: float) -> SpecialLenderQuote:
    """Price the securities lender's implicit put (lender-fail model).

    The premium is the Black-Scholes put struck at the repurchase price;
    the loan is spot + premium, which drives the special rate down (deeply
    negative near the forward mean).  put_value_mean is the Gaussian-model
    mean payoff of the same put.  trader_return = put_value_mean/premium - 1
    per period, defined as 0 when the premium is zero (no premium at risk).
    """
    premium = bs_put(bs_inputs(m, repurchase_price))
    lent_amount = m.spot_price + premium
    special_rate_pa = (repurchase_price / lent_amount - 1.0) / m.period_years
    put_value = put_payoff_mean(repurchase_price, forward_gaussian(m))
    trader_return = put_value / premium - 1.0 if premium > 0.0 else 0.0
    return SpecialLenderQuote(
        premium=premium,
        premium_rate=premium / m.spot_price,
        lent_amount=lent_amount,
        repurchase_price=repurchase_price,
        special_rate=special_rate_pa,
        put_value_mean=put_value,
        trader_return=trader_return,
    )


def fed_fee_rate(general_rate: float, special_rate: float,
                 general_haircut: float) -> float:
    """Auction fee rate (fraction of collateral value), per period.

    (general_rate - special_rate) * (1 - general_haircut) / (1 + special_rate)
    for finite general_rate and general_haircut and special_rate > -1.
    """
    require(FINITE, general_rate=general_rate, general_haircut=general_haircut)
    require(RATE, special_rate=special_rate)
    return (general_rate - special_rate) * (1.0 - general_haircut) / (1.0 + special_rate)


def max_fed_fee(spot_price: float, special_haircut: float, general_rate: float,
                special_rate: float) -> float:
    """Largest auction fee the dealer can fund, in currency units.

    spot * (1 - special_haircut) * (general_rate - special_rate) / (1 + general_rate)
    for spot_price > 0, special_haircut < 1, general_rate > -1 and finite special_rate.
    """
    require(FINITE, special_rate=special_rate)
    require(POSITIVE, spot_price=spot_price)
    require(HAIRCUT, special_haircut=special_haircut)
    require(RATE, general_rate=general_rate)
    return (spot_price * (1.0 - special_haircut) * (general_rate - special_rate)
            / (1.0 + general_rate))


def haircut_from_rates(general_haircut: float, general_rate: float,
                       special_rate: float) -> float:
    """Special haircut consistent with the balance identity.

    (general_haircut * (1 + general_rate) - (general_rate - special_rate))
        / (1 + special_rate)
    for finite general_haircut and general_rate and special_rate > -1.
    """
    require(FINITE, general_haircut=general_haircut, general_rate=general_rate)
    require(RATE, special_rate=special_rate)
    return ((general_haircut * (1.0 + general_rate) - (general_rate - special_rate))
            / (1.0 + special_rate))


def rate_from_haircuts(general_haircut: float, special_haircut: float,
                       general_rate: float) -> float:
    """Special rate consistent with the balance identity, per period.

    (general_rate - general_haircut * (1 + general_rate) + special_haircut)
        / (1 - special_haircut)
    for finite general_haircut and general_rate and special_haircut < 1.
    """
    require(FINITE, general_haircut=general_haircut, general_rate=general_rate)
    require(HAIRCUT, special_haircut=special_haircut)
    return ((general_rate - general_haircut * (1.0 + general_rate) + special_haircut)
            / (1.0 - special_haircut))


def build_special_relations(general_haircut: float, general_rate: float, *,
                            special_haircut: float | None = None,
                            special_rate: float | None = None) -> SpecialRepoRelations:
    """Complete a consistent relations tuple from one special-side input.

    Exactly one of special_haircut / special_rate may be omitted; it is
    derived from the balance identity.  If both are given they must already
    satisfy the identity to within 1e-9.  Domain: both rates > -1 and both haircuts < 1;
    a derived value outside it is refused as derived, naming the input it came from.
    """
    if special_haircut is None and special_rate is None:
        raise ValidationError("need special_haircut or special_rate (or both)")
    if special_rate is None:
        special_rate = rate_from_haircuts(general_haircut, special_haircut, general_rate)
        require(RATE, **{"special_rate derived from special_haircut": special_rate})
    elif special_haircut is None:
        special_haircut = haircut_from_rates(general_haircut, general_rate, special_rate)
        require(HAIRCUT, **{"special_haircut derived from special_rate": special_haircut})
    return SpecialRepoRelations(general_rate, special_rate, general_haircut, special_haircut)


def classify_regime(rel: SpecialRepoRelations) -> str:
    """Name the market regime of a consistent relations tuple.

    guaranteed_delivery: special_haircut = 0 (delivery certain, the
        special rate sinks to roughly minus the general haircut);
    stressed: special_rate = 0 with a positive auction fee;
    no_demand: auction fee = 0, so special and general rates coincide;
    normal: anything else.  Ties resolve in that priority order, each
    zero test at 1e-9 absolute.
    """
    if abs(rel.special_haircut) <= REGIME_TOLERANCE:
        return "guaranteed_delivery"
    if abs(rel.special_rate) <= REGIME_TOLERANCE and rel.fee_rate > 0.0:
        return "stressed"
    if abs(rel.fee_rate) <= REGIME_TOLERANCE:
        return "no_demand"
    return "normal"
