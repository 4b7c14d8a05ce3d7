"""Error types and process exit codes shared across the package.

Exit code map (used by the CLI):
    0  success
    2  parse error (unreadable file, malformed JSON, unwritable output file)
    3  validation error (schema violation, bad input values)
    4  pricing, tolerance or identity failure
    5  liquidity failure in the dealer ledger
"""

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
    """A reproduced reference value fell outside its tolerance."""

    exit_code = EXIT_PRICING


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
