"""Options implicit in collateralised lending.

A secured loan against marketable collateral embeds an option: the lender
of cash holds the equivalent of a call on the collateral (the haircut is
its price), and the lender of a specific security in a fails-allowed
market holds the equivalent of a put (the premium raises the cash leg).
This package prices both under a one-period Gaussian forward-value model,
checks the algebra tying general and special repo terms together, runs
the nine-step dealer financing ledger, and ships a deterministic
simulation oracle plus a CLI that reproduces every bundled reference
figure.

Subpackage map:

* :mod:`repo_options.stochastic` — censored Gaussian moments (closed forms);
* :mod:`repo_options.montecarlo` — seeded, chunked simulation estimator;
* :mod:`repo_options.blackscholes` — lognormal benchmark pricer;
* :mod:`repo_options.general_repo` — haircut/implicit-call pipeline;
* :mod:`repo_options.special_repo` — lender-fail pricing and rate algebra;
* :mod:`repo_options.dealer` — nine-step ledger and liquidity checks;
* :mod:`repo_options.scenarios` / :mod:`repo_options.reports` — JSON
  boundary (schemas shipped under ``repo_options/schemas/``);
* :mod:`repo_options.reference` — bundled reference cases;
* :mod:`repo_options.cli` — ``repo-options`` command-line tool.
"""

__version__ = "0.1.0"

from .blackscholes import BsInputs, bs_call, bs_put
from .dealer import (
    CashflowReport,
    DealerScenario,
    LedgerStep,
    LiquidityCondition,
    check_liquidity,
    run_dealer_scenario,
)
from .errors import (
    LiquidityError,
    ParseError,
    PricingError,
    RepoOptionsError,
    ToleranceError,
    ValidationError,
)
from .general_repo import (
    GeneralRepoQuote,
    MarketParams,
    bs_haircut,
    forward_gaussian,
    haircut_identity_residual,
    lender_rate_from_bs,
    price_general_repo,
    strike_from_sigma_multiple,
)
from .montecarlo import McEstimate, mc_sample_stats
from .reference import build_reference_rows, reference_market
from .scenarios import Scenario, load_scenario, parse_scenario
from .special_repo import (
    SpecialLenderQuote,
    SpecialRepoRelations,
    build_special_relations,
    classify_regime,
    fed_fee_rate,
    max_fed_fee,
    price_lender_fail,
)
from .stochastic import (
    GaussianParams,
    censored_max_mean,
    censored_min_mean,
    censored_min_sd,
    put_payoff_mean,
)

__all__ = [
    "__version__",
    "BsInputs",
    "bs_call",
    "bs_put",
    "CashflowReport",
    "DealerScenario",
    "LedgerStep",
    "LiquidityCondition",
    "check_liquidity",
    "run_dealer_scenario",
    "LiquidityError",
    "ParseError",
    "PricingError",
    "RepoOptionsError",
    "ToleranceError",
    "ValidationError",
    "GeneralRepoQuote",
    "MarketParams",
    "bs_haircut",
    "forward_gaussian",
    "haircut_identity_residual",
    "lender_rate_from_bs",
    "price_general_repo",
    "strike_from_sigma_multiple",
    "McEstimate",
    "mc_sample_stats",
    "build_reference_rows",
    "reference_market",
    "Scenario",
    "load_scenario",
    "parse_scenario",
    "SpecialLenderQuote",
    "SpecialRepoRelations",
    "build_special_relations",
    "classify_regime",
    "fed_fee_rate",
    "max_fed_fee",
    "price_lender_fail",
    "GaussianParams",
    "censored_max_mean",
    "censored_min_mean",
    "censored_min_sd",
    "put_payoff_mean",
]
