"""Deterministic ledger for the nine-step dealer fail scenario.

The dealer takes a client's cash against specific notes it has not yet
delivered, finances a bonds-versus-bonds borrowing at the auction, sells
and later repurchases the notes, and unwinds everything at the closing
leg.  One period, per-period rates, a single scenario-supplied
intermediate price (no path model).

Steps, one table of (step, label, cash, note and collateral deltas) rows
that `run_dealer_scenario` walks strictly in order; the step log it
returns is the ledger, each LedgerStep carrying the balances after it:

1. receive client cash: loan = spot_value * (1 - special_haircut)
2. lend cash against general collateral: pay spot_value * (1 - general_haircut)
3. borrow the specific notes at the auction, pledge the general
   collateral, pay the fee
4. sell the specific notes at the spot price
5. repurchase the specific notes at the intermediate price
6. deliver the specific notes to the client (curing the starting-leg fail)
7. closing leg: receive the notes back, repay the client loan with interest
8. closing leg: return the notes to the auction, recover the collateral
9. closing leg: collect the general loan repayment, release the collateral

Funding discipline: during steps 1-6 the dealer has no cash source other
than the scenario itself, so the running balance must stay non-negative
(the fee-funding condition binds at step 3).  The closing-leg steps 7-9
settle together; their net is covered when the closing condition holds —
interest-and-fee carry alone in strict mode, carry plus the realized
trading gain in non-strict mode.  Timing inside the closing leg does not
change the final cash, only whether an intra-leg balance dips below zero,
which is why the leg is assessed as a net.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import LiquidityError, ValidationError

RELATIVE_TOLERANCE = 1e-9


class _DealerFields(NamedTuple):
    note_count: int
    note_spot: float
    intermediate_price: float
    special_rate: float
    general_rate: float
    special_haircut: float
    general_haircut: float
    fed_fee: float


class DealerScenario(_DealerFields):
    """Inputs of one dealer fail scenario; rates are per period."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        # the NamedTuple's __new__ has set the fields from the arguments; check them
        if not isinstance(self.note_count, int) or isinstance(self.note_count, bool) \
                or self.note_count < 1:
            raise ValidationError(f"note_count must be an integer >= 1, "
                                  f"got {self.note_count!r}")
        for name in ("note_spot", "intermediate_price"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{name} must be > 0, got {value!r}")
        for name in ("special_rate", "general_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > -1.0):
                raise ValidationError(f"{name} must be a finite per-period rate > -1, "
                                      f"got {value!r}")
        for name in ("special_haircut", "general_haircut"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value < 1.0):
                raise ValidationError(f"{name} must be < 1, got {value!r}")
        for name in ("spot_value", "intermediate_value", "client_loan", "general_lend",
                     "client_repayment", "general_repayment"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"ledger amount {name} overflows to {value!r}")
        if not (math.isfinite(self.fed_fee) and self.fed_fee >= 0.0):
            raise ValidationError(f"fed_fee must be >= 0, got {self.fed_fee!r}")

    @property
    def spot_value(self) -> float:
        """Value of the specific notes at the starting leg."""
        return self.note_spot * self.note_count

    @property
    def intermediate_value(self) -> float:
        """Cost of repurchasing the notes at the intermediate leg."""
        return self.intermediate_price * self.note_count

    @property
    def client_loan(self) -> float:
        return self.spot_value * (1.0 - self.special_haircut)

    @property
    def general_lend(self) -> float:
        return self.spot_value * (1.0 - self.general_haircut)

    @property
    def client_repayment(self) -> float:
        return self.client_loan * (1.0 + self.special_rate)

    @property
    def general_repayment(self) -> float:
        return self.general_lend * (1.0 + self.general_rate)


class LedgerStep(NamedTuple):
    """One executed step with deltas and the balances after it."""

    step: int
    label: str
    cash_delta: float
    note_delta: int
    collateral_delta: float
    cash: float
    notes: int
    collateral: float


class LiquidityCondition(NamedTuple):
    """One funding condition with its slack (negative slack = violated)."""

    name: str
    slack: float
    satisfied: bool
    enforced: bool


class CashflowReport(NamedTuple):
    """Decomposition of the dealer's final cash position.

    interest_and_fees = general_lend * general_rate
                        - client_loan * special_rate - fed_fee
    speculative       = spot_value - intermediate_value
    total             = interest_and_fees + speculative
    ledger_cash       = final cash from replaying the nine steps

    The first three are the closing_strict, note_repurchase and
    closing_weak slacks of the liquidity conditions, bit for bit.
    """

    interest_and_fees: float
    speculative: float
    total: float
    ledger_cash: float

    @property
    def decomposition_gap(self) -> float:
        return self.ledger_cash - self.total


def _conditions(s: DealerScenario) -> dict[str, float]:
    carry = -s.fed_fee + s.general_lend * s.general_rate - s.client_loan * s.special_rate
    return {
        "fee_funding": s.client_loan - s.general_lend - s.fed_fee,
        "note_repurchase": s.spot_value - s.intermediate_value,
        "closing_strict": carry,
        "closing_weak": s.spot_value - s.intermediate_value + carry,
    }


def check_liquidity(s: DealerScenario, strict: bool = True) -> list[LiquidityCondition]:
    """Evaluate all four funding conditions without running the ledger.

    fee_funding must hold in either mode; the closing condition that
    `strict` selects is marked enforced; note_repurchase is advisory
    (the running balance governs the repurchase step, since earlier
    slack may legitimately fund a price above the starting spot).
    """
    tolerance = RELATIVE_TOLERANCE * s.spot_value
    enforced = ("fee_funding", "closing_strict" if strict else "closing_weak")
    return [LiquidityCondition(name=name, slack=slack,
                               satisfied=slack >= -tolerance, enforced=name in enforced)
            for name, slack in _conditions(s).items()]


def run_dealer_scenario(s: DealerScenario,
                        strict: bool = True) -> tuple[list[LedgerStep], CashflowReport]:
    """Execute the nine steps, enforcing the funding discipline.

    Returns the step log, one LedgerStep per step, and the cash
    decomposition.  Raises LiquidityError naming the first unfundable
    step: steps 1-6 if the running cash balance would go negative, step 7
    if the applicable closing condition fails.  strict=True (default)
    requires the carry alone to cover the closing leg; strict=False also
    counts the realized trading gain.
    """
    tolerance = RELATIVE_TOLERANCE * s.spot_value
    conditions = _conditions(s)
    closing_name = "closing_strict" if strict else "closing_weak"
    closing_slack = conditions[closing_name]
    n, spot = s.note_count, s.spot_value
    # (step, label, cash_delta, note_delta, collateral_delta)
    table = (
        (1, "receive client loan against promised specific notes", s.client_loan, 0, 0.0),
        (2, "lend cash against general collateral", -s.general_lend, 0, spot),
        (3, "borrow specific notes at the auction, pledge collateral, pay fee",
         -s.fed_fee, n, -spot),
        (4, "sell specific notes at the starting spot price", spot, -n, 0.0),
        (5, "repurchase specific notes at the intermediate price",
         -s.intermediate_value, n, 0.0),
        (6, "deliver specific notes to the client", 0.0, -n, 0.0),
        (7, "closing leg: receive notes back, repay client loan with interest",
         -s.client_repayment, n, 0.0),
        (8, "closing leg: return notes to the auction, recover collateral", 0.0, -n, spot),
        (9, "closing leg: collect general loan repayment, release collateral",
         s.general_repayment, 0, -spot),
    )
    cash, notes, collateral = 0.0, 0, 0.0
    steps = []
    for step, label, cash_delta, note_delta, collateral_delta in table:
        if step == 7 and not closing_slack >= -tolerance:
            raise LiquidityError(
                f"closing leg underfunded: {closing_name} slack {closing_slack:.6g}",
                step=7, condition=closing_name, slack=closing_slack)
        cash += cash_delta
        notes += note_delta
        collateral += collateral_delta
        steps.append(LedgerStep(step, label, cash_delta, note_delta, collateral_delta,
                                cash, notes, collateral))
        if step <= 6 and not cash >= -tolerance:
            raise LiquidityError(
                f"step {step} ({label}) would drive cash to {cash:.6g}",
                step=step, condition="running_balance", slack=cash)

    return steps, CashflowReport(interest_and_fees=conditions["closing_strict"],
                                 speculative=conditions["note_repurchase"],
                                 total=conditions["closing_weak"],
                                 ledger_cash=cash)
