"""Command-line front end: scenario files in, structured reports out.

Commands
--------

``price-general <scenario>``
    Full collateralised-lending quote (haircut, rates, implicit-call
    yield) plus the option-pricing benchmark for the same strike.
``price-special <scenario>``
    Lender-fail quote (``special_lender`` scenarios) or rate/haircut
    relations with regime classification (``special_relations``).
``dealer-sim <scenario> [--no-strict]``
    Nine-step dealer ledger with liquidity slacks and the cash
    decomposition; strict mode (default) requires the closing carry to be
    self-funding on its own.
``reproduce-examples [--mc] [--day-count {360,365}]``
    Recompute every bundled reference figure and compare to tolerance;
    ``--mc`` adds seeded simulation cross-checks; ``--day-count 365``
    demonstrates convention sensitivity (reference values assume 360).
``compare-bs <scenario> --strikes <list>``
    Haircut vs option-pricing benchmark across a comma-separated list of
    repurchase prices.

Global flags: ``--format json|csv|table`` (default table), ``--seed``
(simulation seed override; also enables the oracle section on pricing
commands), ``--out PATH``.

Exit codes: 0 success, 2 parse error (including an output file that
cannot be written), 3 validation error, 4 pricing or tolerance failure,
5 liquidity failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from . import __version__
from .dealer import check_liquidity, run_dealer_scenario
from .errors import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRICING,
    FINITE,
    ParseError,
    RepoOptionsError,
    ValidationError,
    capped,
    capped_path,
    require,
    short_repr,
)
from .general_repo import (
    VALID_DAY_COUNTS,
    bs_haircut,
    bs_haircut_ladder,
    forward_gaussian,
    haircut_identity_residual,
    lender_rate_from_bs,
    price_general_ladder,
    price_general_repo,
)
from .montecarlo import mc_sample_stats
from .reference import DEFAULT_MC_N, DEFAULT_MC_SEED, build_reference_rows
from .reports import FORMATS, build_report, rate_per_annum, rate_per_period, render
from .scenarios import SIMULATING_KINDS, McSettings, Scenario, load_scenario
from .special_repo import classify_regime, max_fed_fee, price_lender_fail

#: Oracle sample size for ``--seed`` without an mc section; ``_report`` folds both into mc.
DEFAULT_ORACLE_N = 1_000_000


def _oracle_section(mode: str, scenario: Scenario, **closed: float) -> dict | None:
    """Simulation cross-check section, or None when ``scenario.mc`` is None.

    It draws ``scenario.mc.n`` samples from seed ``scenario.mc.seed`` at the
    scenario's repurchase price, ``scenario.terms``; ``_report`` has already
    folded ``--seed`` into ``scenario.mc``.  ``closed`` holds the
    closed-form value of each statistic compared (``mean``, and ``sd`` if given):
    each gets ``delta_<stat>`` and ``z_<stat>``, or, when its standard error is 0,
    an entry in ``z_omitted`` saying why there is no z.
    """
    if scenario.mc is None:
        return None
    est = mc_sample_stats(scenario.terms, forward_gaussian(scenario.market), *scenario.mc, mode)
    estimate = {"mean": est.mean, "sd": est.sd, "se_mean": est.se_mean, "se_sd": est.se_sd}
    section: dict = {"mode": mode, "n": est.n_samples, "seed": est.seed,
                     "estimate": estimate, "closed_form": closed}
    for stat, value in closed.items():
        delta = section[f"delta_{stat}"] = value - estimate[stat]
        se = estimate[f"se_{stat}"]
        if se > 0.0:
            section[f"z_{stat}"] = delta / se
        else:
            section.setdefault("z_omitted", {})[f"z_{stat}"] = (
                f"se_{stat} is 0, so delta_{stat} cannot be measured in standard errors")
    return section


def _scenario_report(command: str, scenario: Scenario, oracle: dict | None = None,
                     **outputs) -> dict:
    """Report document for a scenario: its file as ``inputs``, its currency first in ``outputs``."""

    return build_report(command=command, inputs=scenario.raw,
                        outputs={"currency": scenario.currency, **outputs}, oracle=oracle)


def general_report(scenario: Scenario) -> dict:
    """Report document for a ``general`` scenario; ``_report`` folds ``--seed`` in mc."""

    market, strike = scenario.market, scenario.terms
    quote = price_general_repo(market, strike)
    benchmark = bs_haircut(market, strike)
    dc, td = market.day_count, market.tenor_days
    quote_out = dict(
        quote._asdict(),
        repo_rate=rate_per_annum(quote.repo_rate, dc),
        lender_rate=rate_per_annum(quote.lender_rate, dc),
        option_yield=rate_per_period(quote.option_yield, td),
    )
    quote_out["revenue_sd_pct_of_spot"] = 100.0 * quote_out.pop("revenue_sd")
    return _scenario_report(
        "price-general", scenario,
        quote=quote_out,
        benchmark={
            "bs_haircut": benchmark,
            "haircut_gap": quote.haircut - benchmark,
            "lender_rate_bs": rate_per_annum(lender_rate_from_bs(market, quote, benchmark), dc),
        },
        identity_residual=haircut_identity_residual(quote, market),
        oracle=_oracle_section("min", scenario, mean=quote.revenue_mean, sd=quote.revenue_sd_abs),
    )


def special_lender_report(scenario: Scenario) -> dict:
    """Report document for a ``special_lender`` scenario; ``_report`` folds ``--seed`` in mc."""

    market, strike = scenario.market, scenario.terms
    quote = price_lender_fail(market, strike)
    dc, td = market.day_count, market.tenor_days
    return _scenario_report(
        "price-special", scenario,
        quote=dict(
            quote._asdict(),
            special_rate=rate_per_annum(quote.special_rate, dc),
            trader_return=rate_per_period(quote.trader_return, td),
        ),
        oracle=_oracle_section("put-payoff", scenario, mean=quote.put_value_mean),
    )


def special_relations_report(scenario: Scenario) -> dict:
    """Report document for a ``special_relations`` scenario."""

    market, rel = scenario.market, scenario.terms
    regime = classify_regime(rel)
    spot, dc, td = market.spot_price, market.day_count, market.tenor_days
    per_year = 1.0 / market.period_years
    amounts = {
        "general_rate_pa": rel.general_rate * per_year,
        "special_rate_pa": rel.special_rate * per_year,
        "fee_rate": rel.fee_rate,
        "max_fee": max_fed_fee(spot, rel.special_haircut, rel.general_rate, rel.special_rate),
        "general_lend": spot * (1.0 - rel.general_haircut),
    }
    require(FINITE, **{f"relations amount {name}": value for name, value in amounts.items()})
    return _scenario_report("price-special", scenario, relations=dict(
        rel._asdict(),
        general_rate=rate_per_period(rel.general_rate, td),
        special_rate=rate_per_period(rel.special_rate, td),
        general_rate_pa=rate_per_annum(amounts["general_rate_pa"], dc),
        special_rate_pa=rate_per_annum(amounts["special_rate_pa"], dc),
        fee_rate=rate_per_period(amounts["fee_rate"], td),
        max_fee=amounts["max_fee"],
        general_lend=amounts["general_lend"],
        balance_residual=rel.balance_residual(),
        regime=regime,
    ))


def dealer_report(scenario: Scenario, strict: bool) -> dict:
    """Report document for a ``dealer`` scenario (raises on liquidity failure)."""

    ds = scenario.terms
    steps, cashflow = run_dealer_scenario(ds, strict)
    conditions = check_liquidity(ds, strict)
    td = scenario.market.tenor_days
    return _scenario_report(
        "dealer-sim", scenario,
        strict=strict,
        resolved_fed_fee=ds.fed_fee,
        rates={
            "special_rate": rate_per_period(ds.special_rate, td),
            "general_rate": rate_per_period(ds.general_rate, td),
        },
        steps=[step._asdict() for step in steps],
        liquidity=[c._asdict() for c in conditions],
        cashflow=dict(cashflow._asdict(), decomposition_gap=cashflow.decomposition_gap),
    )


def reproduce_report(day_count: int, mc: bool, seed: int, n: int) -> dict:
    """Report document for ``reproduce-examples``."""

    rows = build_reference_rows(day_count, mc=mc, seed=seed, n=n)
    failures = [row.name for row in rows if not row.within]
    if not mc:  # a run that does not simulate has no sample settings
        n = seed = None
    return build_report(
        command="reproduce-examples", seed=seed,
        inputs={"day_count": day_count, "mc": {"enabled": mc, "n": n, "seed": seed}},
        outputs={"rows": [dict(row._asdict(), within=row.within) for row in rows],
                 "all_within": not failures, "failures": failures},
    )


def compare_bs_report(scenario: Scenario, strikes: list[float]) -> dict:
    """Report document for ``compare-bs``: haircut vs benchmark per strike."""

    market = scenario.market
    # every strike the pipeline accepts is a valid Black-Scholes strike, so pricing
    # the whole pipeline ladder first refuses the same strike, with the same error
    quotes = price_general_ladder(market, strikes)
    return _scenario_report("compare-bs", scenario, rows=[
        {"strike": strike, "haircut": q.haircut, "bs_haircut": bs, "gap": q.haircut - bs}
        for strike, q, bs in zip(strikes, quotes, bs_haircut_ladder(market, strikes))
    ])


def _parse_strikes(text: str) -> list[float]:
    values = []
    for token in filter(str.strip, text.split(",")):
        try:
            values.append(float(token))
        except ValueError as exc:  # float's own message would echo the token in full
            raise ParseError(f"cannot parse --strikes list {short_repr(text)}: could not "
                             f"convert string to float: {short_repr(token)}") from exc
    if not values:
        raise ParseError("--strikes list is empty")
    return values


def _report(args: argparse.Namespace) -> dict:
    """The report a parsed command asks for: by command, then by scenario kind."""

    if args.command == "reproduce-examples":
        seed = args.seed if args.seed is not None else DEFAULT_MC_SEED
        return reproduce_report(args.day_count, args.mc, seed, DEFAULT_MC_N)
    scenario = load_scenario(args.scenario)
    if scenario.kind not in args.kinds:
        expected = " or ".join(repr(k) for k in args.kinds)
        raise ValidationError(f"scenario kind {scenario.kind!r} not supported by this command "
                              f"(expected {expected})")
    if args.command == "compare-bs":
        return compare_bs_report(scenario, _parse_strikes(args.strikes))
    if args.seed is not None and scenario.kind in SIMULATING_KINDS:  # --seed is resolved once
        scenario = scenario._replace(mc=McSettings(
            scenario.mc.n if scenario.mc else DEFAULT_ORACLE_N, args.seed))
    if scenario.kind == "general":
        return general_report(scenario)
    if scenario.kind == "special_lender":
        return special_lender_report(scenario)
    if scenario.kind == "special_relations":
        return special_relations_report(scenario)
    return dealer_report(scenario, strict=not args.no_strict)


#: One row per command: (name, help, scenario kinds, options after the scenario);
#: a command with no kinds takes no scenario file.
_COMMANDS = (
    ("price-general", "price a general-collateral loan and its implicit call", ("general",), ()),
    ("price-special", "price a lender-fail loan or check special/general rate relations",
     ("special_lender", "special_relations"), ()),
    ("dealer-sim", "run the nine-step dealer financing ledger", ("dealer",), (
        ("--no-strict", dict(action="store_true", help="let the realized trading gain count "
                             "toward funding the closing leg")),)),
    ("reproduce-examples", "recompute all bundled reference figures and check tolerances", (), (
        ("--mc", dict(action="store_true", help="add seeded simulation cross-check rows")),
        ("--day-count", dict(type=int, choices=VALID_DAY_COUNTS, default=360,
                             help="rate-year convention (reference values assume 360)")))),
    ("compare-bs", "compare pipeline haircuts against the option-pricing benchmark", ("general",), (
        ("--strikes", dict(required=True,
                           help="comma-separated repurchase prices (currency units)")),)),
)


#: What argparse echoes in a usage error: a str repr ('...' or "...") or a bare argument.
_ECHOED = re.compile(r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|\S+""")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors cap each echoed value at 60 characters
    (``errors.capped``); ``add_subparsers`` builds the command parsers of this class."""

    def error(self, message: str):
        super().error(_ECHOED.sub(lambda m: capped(m[0]), message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repo-options",
        description="Price the options implicit in collateralised lending: "
        "general-repo haircuts, lender-fail premiums, rate/haircut algebra, "
        "and the dealer financing ledger.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=FORMATS, default="table", help="output format (default: table)"
    )
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="simulation seed; on pricing commands also enables the oracle section",
    )
    common.add_argument("--out", default=None, metavar="PATH", help="write output to a file")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, kinds, options in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        if kinds:
            p.add_argument("scenario",
                           help="path to a scenario JSON file (kind: " + " or ".join(kinds) + ")")
        for flag, spec in options:
            p.add_argument(flag, **spec)
        p.set_defaults(kinds=kinds)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""

    # The oracle calls no BLAS routine, so OpenBLAS's idle worker threads would only burn
    # CPU.  OpenBLAS reads this when numpy loads, which in a CLI process happens only for
    # an oracle run, after this point.  A value the caller set stays.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return EXIT_OK
        return EXIT_PARSE
    try:
        doc = _report(args)
        text = render(doc, args.format)
        if args.out:
            try:
                Path(args.out).write_text(text, "utf-8")
            except OSError as exc:
                raise ParseError(f"cannot write output file {capped_path(args.out)}: "
                                 f"{exc.strerror or exc}") from exc
        else:
            sys.stdout.write(text)
    except RepoOptionsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    failures = doc["outputs"]["failures"] if args.command == "reproduce-examples" else None
    if failures:
        print("tolerance failure: " + ", ".join(failures), file=sys.stderr)
        return EXIT_PRICING
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
