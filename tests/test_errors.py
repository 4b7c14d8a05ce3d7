"""The field rules of ``repo_options.errors``: each rule's edges, and one refusal text
for ``require`` and for a record that walks its rules."""

import math
import sys
from typing import NamedTuple

import pytest

from repo_options import GaussianParams, MarketParams, ValidationError, errors, mc_sample_stats
from repo_options.errors import POSITIVE, CheckedRecord, require, short_repr


class _Field(NamedTuple):
    x: object


# (rule, value, accepted)
_EDGES = [
    ("FINITE", -sys.float_info.max, True),
    ("FINITE", math.nan, False),
    ("FINITE", math.inf, False),
    ("FINITE", -math.inf, False),
    ("FINITE", 10**400, False),
    ("POSITIVE", 5e-324, True),
    ("POSITIVE", 0.0, False),
    ("POSITIVE", math.nan, False),
    ("POSITIVE", math.inf, False),
    ("POSITIVE", -math.inf, False),
    ("POSITIVE", 10**400, False),
    ("NON_NEGATIVE", 0.0, True),
    ("NON_NEGATIVE", -0.0, True),
    ("NON_NEGATIVE", -5e-324, False),
    ("NON_NEGATIVE", math.inf, False),
    ("RATE", math.nextafter(-1.0, 0.0), True),
    ("RATE", -1.0, False),
    ("RATE", math.inf, False),
    ("HAIRCUT", math.nextafter(1.0, 0.0), True),
    ("HAIRCUT", 1.0, False),
    ("HAIRCUT", -math.inf, False),
    ("COUNT", 1, True),
    ("COUNT", int(sys.float_info.max), True),
    ("COUNT", True, False),
    ("COUNT", 1.5, False),
    ("COUNT", 1.0, False),
    ("COUNT", 0, False),
    ("COUNT", int(sys.float_info.max) + 1, False),
]


def _id(rule_name, value):
    if len(repr(value)) <= 24:
        return f"{rule_name}-{value!r}"
    return f"{rule_name}-int-{'past' if value > sys.float_info.max else 'at'}-float-max"


@pytest.mark.parametrize("rule_name, value, accepted", _EDGES,
                         ids=[_id(r, v) for r, v, _ in _EDGES])
def test_rule_edges_and_refusal_text(rule_name, value, accepted):
    rule = getattr(errors, rule_name)
    record = type("Checked", (CheckedRecord, _Field), {"__slots__": (), "_rules": (("x", rule),)})
    assert rule.test(value) is accepted
    if accepted:
        require(rule, x=value)
        assert record(value).x is value
        return
    shown = repr(value) if len(repr(value)) <= 60 else repr(value)[:57] + "..."
    message = f"x must be {rule.text}, got {shown}"
    for refuse in (lambda: require(rule, x=value), lambda: record(value)):
        with pytest.raises(ValidationError) as caught:
            refuse()
        assert str(caught.value) == message


def test_require_refuses_the_first_bad_value_in_order():
    require(POSITIVE, a=1.0, b=2)
    with pytest.raises(ValidationError, match=r"^b must be > 0, got 0\.0$"):
        require(POSITIVE, a=1.0, b=0.0, c=-1.0)


class _BrokenRepr:
    def __repr__(self):
        raise RuntimeError("no repr")


@pytest.mark.parametrize("value, shown", [
    (10**5000, "<int of 16610 bits>"),  # repr raises past sys.get_int_max_str_digits()
    (-10**5000, "<int of 16610 bits, negative>"),
    (_BrokenRepr(), "<_BrokenRepr object>"),
], ids=["int-past-str-digits", "negative-int-past-str-digits", "failing-repr"])
def test_short_repr_never_raises(value, shown):
    assert short_repr(value) == shown


@pytest.mark.parametrize("call, field", [
    (lambda: MarketParams(100.0, 0.03, 0.19, 10**5000, 0.0, 360), "tenor_days"),
    (lambda: mc_sample_stats(1.0, GaussianParams(1.0, 1.0), 2, -10**5000, "min"), "seed"),
], ids=["MarketParams-tenor_days", "mc_sample_stats-seed"])
def test_an_int_past_the_str_digit_limit_is_refused_typed(call, field):
    with pytest.raises(ValidationError, match=f"^{field} must be .*, got <int of 16610 bits"):
        call()
