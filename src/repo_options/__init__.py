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

``import repo_options`` runs none of them: each name in ``__all__`` loads its
defining module on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name, grouped by the module that defines it.
_EXPORTS = {
    "blackscholes": ("BsInputs", "bs_call", "bs_prices", "bs_put"),
    "dealer": ("CashflowReport", "DealerScenario", "LedgerStep", "LiquidityCondition",
               "check_liquidity", "run_dealer_scenario"),
    "errors": ("LiquidityError", "ParseError", "PricingError", "RepoOptionsError",
               "ToleranceError", "ValidationError"),
    "general_repo": ("GeneralRepoQuote", "MarketParams", "bs_haircut", "bs_haircut_ladder",
                     "forward_gaussian", "haircut_identity_residual", "lender_rate_from_bs",
                     "price_general_ladder", "price_general_repo", "strike_from_sigma_multiple"),
    "montecarlo": ("McEstimate", "mc_sample_stats"),
    "reference": ("build_reference_rows", "reference_market"),
    "scenarios": ("Scenario", "load_scenario", "parse_scenario"),
    "special_repo": ("SpecialLenderQuote", "SpecialRepoRelations", "build_special_relations",
                     "classify_regime", "fed_fee_rate", "max_fed_fee", "price_lender_fail"),
    "stochastic": ("GaussianParams", "censored_min_mean", "censored_min_sd", "put_payoff_mean"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    """Import the module that defines ``name``, and keep the name here for later lookups."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
