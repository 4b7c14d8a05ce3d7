"""Nine-step dealer ledger: conservation, decomposition, liquidity gates."""

from collections import Counter
from itertools import accumulate

import numpy as np
import pytest

from repo_options import (
    DealerScenario,
    LiquidityError,
    ValidationError,
    check_liquidity,
    max_fed_fee,
    run_dealer_scenario,
)
from repo_options.dealer import RELATIVE_TOLERANCE
from repo_options.special_repo import haircut_from_rates


def _scenario(**overrides) -> DealerScenario:
    base = dict(
        note_count=100,
        note_spot=1000.0,
        intermediate_price=1000.0,
        special_rate=1e-4,
        general_rate=2e-4,
        special_haircut=0.015,
        general_haircut=0.02,
        fed_fee=0.0,
    )
    base.update(overrides)
    return DealerScenario(**base)


def _max_fee_scenario(g_cut=0.02, g_rate=2e-4, s_rate=1e-4, spot=1000.0, count=100):
    # special haircut on the consistency surface, fee at its maximum
    s_cut = haircut_from_rates(g_cut, g_rate, s_rate)
    fee = max_fed_fee(spot * count, s_cut, g_rate, s_rate)
    return _scenario(
        note_spot=spot,
        note_count=count,
        intermediate_price=spot,
        special_rate=s_rate,
        general_rate=g_rate,
        special_haircut=s_cut,
        general_haircut=g_cut,
        fed_fee=fee,
    )


def test_runs_all_nine_steps_in_order():
    steps, _ = run_dealer_scenario(_scenario())
    assert [entry.step for entry in steps] == list(range(1, 10))
    # the opening leg ends with the notes delivered, the closing leg with nothing held
    assert [entry.notes for entry in steps] == [0, 0, 100, 0, 100, 0, 100, 0, 0]


def test_ledger_conservation():
    steps, report = run_dealer_scenario(_scenario(intermediate_price=998.0, fed_fee=1.0))
    final = steps[-1]
    assert sum(e.cash_delta for e in steps) == pytest.approx(final.cash, abs=1e-9)
    assert sum(e.note_delta for e in steps) == 0
    assert sum(e.collateral_delta for e in steps) == pytest.approx(0.0, abs=1e-9)
    assert final.notes == 0
    assert final.collateral == pytest.approx(0.0, abs=1e-9)
    assert report.ledger_cash == final.cash
    # each step's balances are the previous step's plus its deltas, bit for bit
    previous = (0.0, 0, 0.0)
    for e in steps:
        expected = (previous[0] + e.cash_delta, previous[1] + e.note_delta,
                    previous[2] + e.collateral_delta)
        assert (e.cash, e.notes, e.collateral) == expected
        previous = expected


def test_max_fee_scenario_zero_slacks_and_zero_total():
    s = _max_fee_scenario()
    tol = 1e-9 * s.spot_value
    conditions = {c.name: c for c in check_liquidity(s, strict=True)}
    assert abs(conditions["fee_funding"].slack) <= tol
    assert abs(conditions["closing_strict"].slack) <= tol
    state, report = run_dealer_scenario(s, strict=True)
    # at the maximum fee with p = p0 the whole trade nets to zero
    assert abs(report.interest_and_fees) <= tol
    assert report.speculative == 0.0
    assert abs(report.ledger_cash) <= tol
    assert abs(report.decomposition_gap) <= tol


def test_all_special_structure_off_gives_rate_times_haircut_gap():
    # same haircuts, same rates, no fee, flat price: everything cancels
    s = _scenario(special_haircut=0.02, special_rate=2e-4, fed_fee=0.0)
    _, report = run_dealer_scenario(s)
    assert report.total == pytest.approx(0.0, abs=1e-9)
    # unequal haircuts, equal rates: carry is the rate times the lend gap,
    # negative here, so a trading gain must fund the closing leg
    s = _scenario(special_haircut=0.015, special_rate=2e-4, fed_fee=0.0,
                  intermediate_price=999.0)
    _, report = run_dealer_scenario(s, strict=False)
    expected = s.general_rate * (s.general_lend - s.client_loan)
    assert expected < 0.0
    assert report.interest_and_fees == pytest.approx(expected, rel=1e-12)


def test_speculative_leg_reported():
    s = _scenario(intermediate_price=995.0)
    _, report = run_dealer_scenario(s)
    assert report.speculative == pytest.approx(100 * (1000.0 - 995.0), rel=1e-12)
    s = _scenario(intermediate_price=1000.5)
    _, report = run_dealer_scenario(s)
    assert report.speculative == pytest.approx(-50.0, rel=1e-12)


def test_decomposition_matches_ledger_randomized():
    rng = np.random.default_rng(33)
    checked = 0
    for _ in range(500):
        g_cut = float(rng.uniform(0.0, 0.08))
        s_cut = float(rng.uniform(0.0, g_cut)) if g_cut > 0 else 0.0
        spot = float(rng.uniform(10.0, 5000.0))
        count = int(rng.integers(1, 500))
        g_rate = float(rng.uniform(-0.002, 0.01))
        s_rate = float(rng.uniform(-0.02, g_rate))
        fee_cap = spot * count * (g_cut - s_cut)
        s = _scenario(
            note_spot=spot,
            note_count=count,
            intermediate_price=spot * float(rng.uniform(0.9, 1.02)),
            special_rate=s_rate,
            general_rate=g_rate,
            special_haircut=s_cut,
            general_haircut=g_cut,
            fed_fee=float(rng.uniform(0.0, max(fee_cap, 0.0))),
        )
        try:
            steps, report = run_dealer_scenario(s, strict=False)
        except LiquidityError:
            continue  # unfundable draws are rejected, not mis-decomposed
        checked += 1
        assert abs(report.decomposition_gap) <= 1e-9 * s.spot_value
        assert report.ledger_cash == steps[-1].cash
        assert steps[-1].notes == 0
        # the report and the liquidity gates state one carry, to the bit
        slack = {c.name: c.slack for c in check_liquidity(s, strict=False)}
        assert report.interest_and_fees == slack["closing_strict"]
        assert report.total == slack["closing_weak"]
        assert report.speculative == slack["note_repurchase"]
    assert checked >= 300


def test_step_seven_fails_exactly_when_the_enforced_closing_condition_does_randomized():
    """In both modes the ledger stops at step 7 exactly when steps 1-6 are funded and the
    closing condition check_liquidity marks enforced is unsatisfied, with its slack."""
    rng = np.random.default_rng(71)
    outcomes = Counter()
    for _ in range(400):
        g_cut = float(rng.uniform(0.0, 0.08))
        s_cut = float(rng.uniform(0.0, g_cut))
        spot, count = float(rng.uniform(10.0, 5000.0)), int(rng.integers(1, 500))
        s = _scenario(
            note_spot=spot,
            note_count=count,
            intermediate_price=spot * float(rng.uniform(0.97, 1.03)),
            special_rate=float(rng.uniform(-0.01, 0.02)),
            general_rate=float(rng.uniform(-0.01, 0.02)),
            special_haircut=s_cut,
            general_haircut=g_cut,
            fed_fee=float(rng.uniform(0.0, 1.2 * spot * count * (g_cut - s_cut))),
        )
        opening = accumulate((s.client_loan, -s.general_lend, -s.fed_fee, s.spot_value,
                              -s.intermediate_value))
        funded = all(cash >= -RELATIVE_TOLERANCE * s.spot_value for cash in opening)
        for strict in (True, False):
            closing_strict, closing_weak = check_liquidity(s, strict)[2:]
            closing = closing_strict if closing_strict.enforced else closing_weak
            assert closing.name == ("closing_strict" if strict else "closing_weak")
            try:
                run_dealer_scenario(s, strict)
                step = None
            except LiquidityError as exc:
                step = exc.step
                if step == 7:
                    assert exc.condition == closing.name
                    assert exc.slack.hex() == closing.slack.hex()
            if not funded:
                assert step is not None and step <= 6
            else:
                assert step == (None if closing.satisfied else 7)
            outcomes[strict, "opening" if not funded else step] += 1
    for strict in (True, False):
        assert min(outcomes[strict, "opening"], outcomes[strict, 7], outcomes[strict, None]) >= 20


def test_overdrawn_fee_fails_at_step_three():
    s = _scenario(fed_fee=600.0)  # exceeds spot * (g_cut - s_cut) = 500
    with pytest.raises(LiquidityError) as excinfo:
        run_dealer_scenario(s)
    assert excinfo.value.step == 3
    assert excinfo.value.exit_code == 5
    conditions = {c.name: c for c in check_liquidity(s, strict=True)}
    assert not conditions["fee_funding"].satisfied
    assert conditions["fee_funding"].slack == pytest.approx(-100.0, rel=1e-9)


def test_expensive_repurchase_fails_at_step_five():
    s = _scenario(intermediate_price=1010.0)  # costs more than available cash
    with pytest.raises(LiquidityError) as excinfo:
        run_dealer_scenario(s, strict=False)
    assert excinfo.value.step == 5
    assert excinfo.value.condition == "running_balance"


def test_negative_carry_strict_fails_at_step_seven_nonstrict_completes():
    # special rate above general: carry is negative, trading gain covers it
    s_cut = 0.0199
    s = _scenario(
        special_haircut=s_cut,
        special_rate=1.4e-4,
        general_rate=0.8e-4,
        intermediate_price=999.0,
    )
    with pytest.raises(LiquidityError) as excinfo:
        run_dealer_scenario(s, strict=True)
    assert excinfo.value.step == 7
    assert excinfo.value.condition == "closing_strict"

    state, report = run_dealer_scenario(s, strict=False)
    assert report.interest_and_fees < 0.0
    assert report.total > 0.0
    assert abs(report.decomposition_gap) <= 1e-9 * s.spot_value


def test_nonstrict_still_fails_when_gain_insufficient():
    s = _scenario(
        special_haircut=0.0199,
        special_rate=0.05,  # hopeless carry, tiny gain
        general_rate=1e-4,
        intermediate_price=999.99,
    )
    with pytest.raises(LiquidityError) as excinfo:
        run_dealer_scenario(s, strict=False)
    assert excinfo.value.condition == "closing_weak"


def test_check_liquidity_enforcement_flags():
    s = _scenario()
    strict = {c.name: c.enforced for c in check_liquidity(s, strict=True)}
    assert strict == {
        "fee_funding": True,
        "note_repurchase": False,
        "closing_strict": True,
        "closing_weak": False,
    }
    relaxed = {c.name: c.enforced for c in check_liquidity(s, strict=False)}
    assert relaxed["closing_strict"] is False
    assert relaxed["closing_weak"] is True


def test_note_repurchase_condition_tracks_price_gap():
    s = _scenario(intermediate_price=1002.0)
    conditions = {c.name: c for c in check_liquidity(s, strict=True)}
    assert conditions["note_repurchase"].slack == pytest.approx(-200.0, rel=1e-12)
    assert not conditions["note_repurchase"].satisfied


def test_records_are_json_ready():
    steps, _ = run_dealer_scenario(_scenario())
    for record in (step._asdict() for step in steps):
        assert set(record) == {
            "step",
            "label",
            "cash_delta",
            "note_delta",
            "collateral_delta",
            "cash",
            "notes",
            "collateral",
        }
        assert isinstance(record["label"], str)
        assert type(record["note_delta"]) is int and type(record["notes"]) is int
        assert type(record["cash_delta"]) is float
        assert type(record["collateral_delta"]) is float


def test_scenario_validation():
    with pytest.raises(ValidationError):
        _scenario(note_count=0)
    with pytest.raises(ValidationError):
        _scenario(note_count=1.5)
    with pytest.raises(ValidationError):
        _scenario(note_spot=-1.0)
    with pytest.raises(ValidationError):
        _scenario(intermediate_price=0.0)
    with pytest.raises(ValidationError):
        _scenario(special_rate=-1.0)
    with pytest.raises(ValidationError):
        _scenario(general_haircut=1.0)
    with pytest.raises(ValidationError):
        _scenario(fed_fee=-0.01)
