"""The field rules of ``repo_options.errors``: each rule's edges, and one refusal text
for ``require`` and for a record that walks its rules."""

import math
import sys
from typing import NamedTuple

import pytest

from repo_options import ValidationError, errors
from repo_options.errors import POSITIVE, CheckedRecord, require


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
