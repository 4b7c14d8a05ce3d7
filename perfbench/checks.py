"""Output checks: golden comparison, rendering round trips, model invariants.

A check returns None when the output is right and otherwise a one-line
reason naming the first place it went wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

GOLDEN_FILE = Path(__file__).resolve().parent / "golden" / "golden.json"

#: Oracle estimates further than this many standard errors from the closed
#: form are wrong, not unlucky (two-sided probability about 2e-9).
ORACLE_Z_LIMIT = 6.0

#: Fewest expected samples below the strike for the z-test to apply.  Both
#: oracle payoffs vary only where the forward price ends below the strike;
#: with fewer such samples the estimate misses the tail, and under
#: near-total censoring the sample sd is rounding noise, so the report's
#: z-score (delta / se) can read in the thousands although the closed form
#: and the estimate agree to 1e-12.
ORACLE_MIN_TAIL_SAMPLES = 1000


def load_golden(path: Path = GOLDEN_FILE) -> dict:
    return json.loads(path.read_text("utf-8"))


def first_difference(expected, actual, path: str = "") -> str | None:
    """JSON-pointer path of the first leaf of ``expected`` that ``actual`` does not equal.

    Leaves must match in type and value exactly.  Keys that only ``actual``
    has are allowed; lists must have the same length.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return path or "/"
        for key in sorted(expected):
            sub = f"{path}/{key}"
            if key not in actual:
                return sub
            found = first_difference(expected[key], actual[key], sub)
            if found is not None:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return path or "/"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = first_difference(e, a, f"{path}/{i}")
            if found is not None:
                return found
        return None
    if type(expected) is not type(actual) or expected != actual:
        return path or "/"
    return None


def _walk(value, path=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _walk(item, f"{path}/{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _walk(item, f"{path}/{i}")
    else:
        yield path, value


def non_finite(doc: dict) -> str | None:
    for path, value in _walk(doc):
        if isinstance(value, float) and not math.isfinite(value):
            return f"non-finite {value!r} at {path}"
    return None


def _flat(doc: dict) -> dict[str, object]:
    from repo_options.reports import flatten

    return dict(flatten(doc))


def rendering(doc: dict, fmt: str, text: str) -> str | None:
    """Parse the rendered text back and compare it with the document."""
    if fmt == "json":
        try:
            parsed = json.loads(text)
        except ValueError as exc:
            return f"json output does not parse: {exc}"
        diff = first_difference(json.loads(json.dumps(doc)), parsed)
        return None if diff is None else f"json output differs at {diff}"
    flat = _flat(doc)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["field", "value"]:
            return "csv output has no field,value header"
        got = {row[0]: row[1] for row in rows[1:] if len(row) == 2}
        if len(got) != len(rows) - 1 or set(got) != set(flat):
            return "csv output has other rows than the document"
        for key, value in flat.items():
            if got[key] != _csv_scalar(value):
                return f"csv output differs at {key}"
        return None
    lines = text.splitlines()
    if len(lines) != len(flat):
        return "table output has other rows than the document"
    for line, (key, value) in zip(lines, sorted(flat.items())):
        path, _, shown = line.partition(" ")
        if path != key:
            return f"table output row {path!r} where {key!r} was due"
        if not _table_matches(value, shown.strip()):
            return f"table output differs at {key}"
    return None


def _csv_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _table_matches(value, shown: str) -> bool:
    if isinstance(value, bool):
        return shown == ("true" if value else "false")
    if value is None:
        return shown == "-"
    if isinstance(value, float):
        try:
            return math.isclose(float(shown), value, rel_tol=1e-9, abs_tol=1e-300)
        except ValueError:
            return False
    return shown == str(value)


def _near_zero(value: float, scale: float, rel: float) -> bool:
    return abs(value) <= rel * max(1.0, abs(scale))


def _tail_probability(doc: dict) -> float:
    """P(forward price < repurchase price) under the report's Gaussian forward."""
    market = doc["inputs"]["market"]
    t = market["tenor_days"] / market["day_count"]
    mean = market["spot_price"] * (1.0 + market["intrinsic_yield"] * t)
    sd = market["spot_price"] * market["volatility"] * math.sqrt(t)
    strike = doc["outputs"]["quote"]["repurchase_price"]
    return 0.5 * math.erfc((mean - strike) / (sd * math.sqrt(2.0)))


def invariants(req, doc: dict) -> str | None:
    """Model identities every report of this command must satisfy."""
    out = doc["outputs"]
    if req.doc is not None and doc["inputs"] != req.doc:
        return "inputs echo differs from the request document"
    if req.command == "reproduce-examples":
        if not out["all_within"] or out["failures"]:
            return f"reference rows outside tolerance: {out['failures']}"
        expected_rows = 22 if req.mc else 19
        return None if len(out["rows"]) == expected_rows else "wrong number of reference rows"
    if req.command == "compare-bs":
        strikes = [row["strike"] for row in out["rows"]]
        if strikes != req.strikes:
            return "compare-bs rows do not follow the requested strikes"
        if any(not row["haircut"] > 0.0 for row in out["rows"]):
            return "compare-bs row with a non-positive haircut"
        return None
    kind = doc["inputs"]["kind"]
    spot = doc["inputs"]["market"]["spot_price"]
    if kind == "general":
        q = out["quote"]
        if not q["haircut"] > 0.0:
            return "non-positive haircut"
        if not _near_zero(q["lent_amount"] + q["haircut"] - spot, spot, 1e-12):
            return "lent amount plus haircut differs from spot"
        if not abs(out["identity_residual"]) <= 1e-10:
            return "haircut identity residual above 1e-10"
    elif kind == "special_lender":
        q = out["quote"]
        if not (q["premium"] >= 0.0 and _near_zero(q["lent_amount"] - spot - q["premium"], spot, 1e-12)):
            return "lent amount differs from spot plus premium"
    elif kind == "special_relations":
        if not abs(out["relations"]["balance_residual"]) <= 1e-9:
            return "relations balance residual above 1e-9"
    elif kind == "dealer":
        if len(out["steps"]) != 9:
            return "dealer ledger without nine steps"
        if any(c["enforced"] and not c["satisfied"] for c in out["liquidity"]):
            return "dealer report with an enforced condition unsatisfied"
        if not _near_zero(out["cashflow"]["decomposition_gap"], spot, 1e-9):
            return "dealer cash decomposition does not close"
    oracle = doc.get("oracle")
    if oracle is not None:
        if req.doc is not None and "mc" in req.doc and oracle["n"] != req.doc["mc"]["n"]:
            return "oracle sample count differs from mc.n"
        if oracle["n"] * _tail_probability(doc) >= ORACLE_MIN_TAIL_SAMPLES:
            for stat in ("mean", "sd"):
                if f"z_{stat}" in oracle and not abs(oracle[f"z_{stat}"]) <= ORACLE_Z_LIMIT:
                    return f"oracle z_{stat} = {oracle[f'z_{stat}']!r} beyond {ORACLE_Z_LIMIT}"
    return None


def check_report(req, doc: dict, text: str, golden: dict | None) -> str | None:
    """Every check on one successful report and its rendered text."""
    from repo_options.scenarios import report_schema
    import jsonschema

    reason = non_finite(doc)
    if reason is None:
        error = jsonschema.exceptions.best_match(
            jsonschema.Draft202012Validator(report_schema()).iter_errors(doc))
        if error is not None:
            reason = f"report schema: {error.message}"
    reason = reason or invariants(req, doc) or rendering(doc, req.fmt, text)
    if reason is None and golden is not None and req.golden is not None and req.fmt == "json":
        diff = first_difference(golden[req.golden]["stdout"], json.loads(text))
        if diff is not None:
            reason = f"golden {req.golden} differs at {diff}"
    return reason
