"""Error types, process exit codes, field rules and the checked-record base of the package.

Exit code map (used by the CLI):
    0  success
    2  parse error (unreadable file, malformed JSON, unwritable output file)
    3  validation error (schema violation, bad input values)
    4  pricing, tolerance or identity failure
    5  liquidity failure in the dealer ledger

Field rules, each a test and the text of its refusal "<name> must be <text>, got <repr>":
FINITE "finite", POSITIVE "> 0", NON_NEGATIVE ">= 0" (-0.0 passes), RATE "> -1" (per
period), HAIRCUT "< 1" and COUNT "an integer >= 1 that a float can hold" (no bool).
Each refuses nan, +-inf and an int past the float range.  `require` checks function
arguments with one rule; a CheckedRecord walks its `_rules`.
"""

import sys
from collections.abc import Callable
from typing import Any, NamedTuple

_MAX = sys.float_info.max

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PRICING = 4
EXIT_LIQUIDITY = 5


class RepoOptionsError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class ParseError(RepoOptionsError):
    """Input file could not be read or is not well-formed JSON, or the output
    file could not be written."""

    exit_code = EXIT_PARSE


class ValidationError(RepoOptionsError, ValueError):
    """Input violates the scenario schema or an operation precondition."""

    exit_code = EXIT_VALIDATION


class PricingError(RepoOptionsError, ValueError):
    """Inputs are well formed but the model cannot price them."""

    exit_code = EXIT_PRICING


class ToleranceError(RepoOptionsError):
    """A quote's haircut identity residual exceeds 1e-10 and rounding does not explain it.

    ``reproduce-examples`` reports a reference value outside its tolerance with
    exit code 4 without raising this."""

    exit_code = EXIT_PRICING


def capped(text: str) -> str:
    """``text``, or its first 57 characters and ``...`` when it is over 60 long."""
    return text if len(text) <= 60 else text[:57] + "..."


def capped_path(path: str) -> str:
    """``path``, or its first 20 and last 37 characters around ``...`` when it is over 60
    long: a refusal about a file keeps the file's name, which ends the path."""
    return path if len(path) <= 60 else path[:20] + "..." + path[-37:]


def short_repr(x: Any) -> str:
    """``capped(repr(x))``.  It never raises, since it words refusals that a failure here
    would replace: an int past ``sys.get_int_max_str_digits()`` digits, which ``repr``
    refuses, shows its bit length and sign, and a failing ``repr`` the type's name."""
    try:
        text = repr(x)
    except Exception:
        text = (f"<int of {x.bit_length()} bits{', negative' if x < 0 else ''}>"
                if isinstance(x, int) else f"<{type(x).__name__} object>")
    return capped(text)


class Rule(NamedTuple):
    """A field rule: ``test(value)`` is true inside the model's domain, which ``text`` names."""

    test: Callable[[Any], bool]
    text: str


# chained comparisons: exact for an int, false for nan and the infinities
FINITE = Rule(lambda v: -_MAX <= v <= _MAX, "finite")
POSITIVE = Rule(lambda v: 0.0 < v <= _MAX, "> 0")
NON_NEGATIVE = Rule(lambda v: 0.0 <= v <= _MAX, ">= 0")
RATE = Rule(lambda v: -1.0 < v <= _MAX, "> -1")
HAIRCUT = Rule(lambda v: -_MAX <= v < 1.0, "< 1")
COUNT = Rule(lambda v: isinstance(v, int) and not isinstance(v, bool) and 1 <= v <= _MAX,
             "an integer >= 1 that a float can hold")


def require(rule: Rule, **values: Any) -> None:
    """Raise the refusal of the first of ``values``, in order, that breaks ``rule``."""
    for name, value in values.items():
        if not rule.test(value):
            raise ValidationError(f"{name} must be {rule.text}, got {short_repr(value)}")


class CheckedRecord:
    """Base, listed before its NamedTuple of fields, of a record that checks its fields
    on every construction path (the constructor, ``_make`` and ``_replace``): each
    ``(field, rule)`` of ``_rules`` in order, then ``_check(self)``, the record's own
    model rules; the first broken one raises ValidationError."""

    __slots__ = ()
    _rules: tuple[tuple[str, Rule], ...] = ()

    def __init__(self, *args, **kwargs):
        for name, rule in self._rules:  # the NamedTuple's __new__ has set the fields
            if not rule.test(getattr(self, name)):
                require(rule, **{name: getattr(self, name)})  # raises its refusal
        self._check()

    def _check(self) -> None:
        pass

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make
        return cls(*iterable)


class LiquidityError(RepoOptionsError):
    """A ledger step would require financing from outside the scenario.

    Attributes:
        step: 1-based index of the step that cannot be funded.
        condition: name of the violated funding condition.
        slack: size of the shortfall (negative, in currency units).
    """

    exit_code = EXIT_LIQUIDITY

    def __init__(self, message: str, step: int, condition: str, slack: float):
        super().__init__(message)
        self.step = step
        self.condition = condition
        self.slack = slack
