"""Seeded input generator for the three workloads.

Every request carries the outcome it must produce (``ok``, ``validation``
or ``liquidity``).  The label follows from how the document was built,
never from running the program:

* a ``general`` quote has its repurchase price strictly below spot and
  ``intrinsic_yield >= risk_free_rate >= 0``, so the lender rate is
  non-negative, the lent amount is below spot and the haircut is positive;
* a ``dealer`` ledger charges at most nine tenths of the smaller of the two
  funding caps (fee funding at step 3, strict closing carry at step 7), so
  every gate passes; a refusal charges at least 1.2 times that cap;
* a rejected document breaks one schema rule, or one semantic rule that
  the schema cannot express.

Requests come in fixed blocks whose class mix does not depend on the seed;
the seed only moves values inside each stratum.  Classes are interleaved
evenly through a block, so any prefix of a run has close to the block's
mix, and the medians and tails of two seeds describe the same workload.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cli_cold", "inproc_mixed", "oracle_mc")
FORMATS = ("json", "csv", "table")

#: ``montecarlo.CHUNK_SIZE`` at the commit that fixed these workloads; the
#: oracle requests are sized in chunks of it.
CHUNK = 1_000_000

#: Bundled scenario files: (file stem, command, extra flags, outcome).
BUNDLED = (
    ("dealer_gain_funded", "dealer-sim", ("--no-strict",), "ok"),
    ("dealer_max_fee", "dealer-sim", (), "ok"),
    ("dealer_overdrawn_fee", "dealer-sim", (), "liquidity"),
    ("general_2sigma_mc", "price-general", (), "ok"),
    ("general_3sigma", "price-general", (), "ok"),
    ("relations_guaranteed_delivery", "price-special", (), "ok"),
    ("relations_normal", "price-special", (), "ok"),
    ("special_lender_fail", "price-special", (), "ok"),
)

COMMAND_FOR_KIND = {
    "general": "price-general",
    "special_lender": "price-special",
    "special_relations": "price-special",
    "dealer": "dealer-sim",
}


@dataclass
class Request:
    """One request of a workload; ``doc`` is None for bundled files and reproduce."""

    key: str
    command: str
    fmt: str
    expect: str
    doc: dict | None = None
    path: str | None = None
    flags: tuple[str, ...] = ()
    strikes: list[float] | None = None
    mc: bool = False
    golden: str | None = None

    def file(self, root: Path, workdir: Path) -> Path | None:
        """Scenario file: generated ones live in ``workdir``, bundled ones in the root."""
        if self.path is None:
            return None
        return (workdir if self.doc is not None else root) / self.path

    def cli_args(self, file: Path | None) -> list[str]:
        """Arguments after ``python -m repo_options.cli``."""
        args = [self.command]
        if file is not None:
            args.append(str(file))
        args += ["--format", self.fmt, *self.flags]
        if self.strikes is not None:
            args += ["--strikes", ",".join(repr(k) for k in self.strikes)]
        if self.mc:
            args.append("--mc")
        return args


# ---------------------------------------------------------------- documents


def _market(rng: random.Random) -> dict:
    intrinsic = round(rng.uniform(0.0, 0.08), 6)
    return {
        "spot_price": round(10.0 ** rng.uniform(2.0, 5.3), 2),
        "intrinsic_yield": intrinsic,
        "volatility": round(rng.uniform(0.05, 0.6), 4),
        "tenor_days": rng.randint(1, 365),
        "risk_free_rate": round(rng.uniform(0.0, intrinsic), 6),
        "day_count": rng.choice((360, 365)),
        "currency": rng.choice(("USD", "EUR", "GBP", "JPY")),
    }


def _doc(kind: str, market: dict, terms: dict) -> dict:
    return {"schema_version": "1", "kind": kind, "market": market, "terms": terms}


def _vol_sqrt_t(market: dict) -> tuple[float, float]:
    t = market["tenor_days"] / market["day_count"]
    return market["volatility"] * math.sqrt(t), t


def _general_terms(rng: random.Random, market: dict) -> dict:
    """Terms whose repurchase price lies in (0.05, 0.995) x spot."""
    spot = market["spot_price"]
    if rng.random() < 0.5:
        return {"repurchase_price": round(spot * rng.uniform(0.6, 0.995), 2)}
    vst, t = _vol_sqrt_t(market)
    growth = 1.0 + market["intrinsic_yield"] * t
    k_lo = (1.0 - 0.995 / growth) / vst + 1e-3
    k_hi = min(4.0, (1.0 - 0.05 / growth) / vst)
    return {"sigma_multiple": round(rng.uniform(k_lo, k_hi), 4)}


def general_doc(rng: random.Random) -> dict:
    market = _market(rng)
    return _doc("general", market, _general_terms(rng, market))


def special_lender_doc(rng: random.Random) -> dict:
    market = _market(rng)
    if rng.random() < 0.5:
        terms = {"repurchase_price": round(market["spot_price"] * rng.uniform(0.8, 1.2), 2)}
    else:
        vst, _ = _vol_sqrt_t(market)
        terms = {"sigma_multiple": round(rng.uniform(0.0, min(3.0, 0.9 / vst)), 4)}
    return _doc("special_lender", market, terms)


def relations_doc(rng: random.Random) -> dict:
    market = _market(rng)
    general_haircut = round(rng.uniform(0.005, 0.15), 6)
    general_rate = round(rng.uniform(0.0, 0.08), 6)
    terms = {"general_haircut": general_haircut, "general_rate": general_rate}
    pick = rng.random()
    if pick < 0.45:
        terms["special_rate"] = round(rng.uniform(-0.02, general_rate), 6)
    elif pick < 0.9:
        terms["special_haircut"] = round(rng.uniform(0.0, general_haircut), 6)
    else:
        terms["special_haircut"] = 0.0
    return _doc("special_relations", market, terms)


def _dealer_caps(market: dict, terms: dict) -> tuple[float, float]:
    """(fee-funding cap, strict closing-carry cap), in currency units."""
    spot = market["spot_price"]
    t = market["tenor_days"] / market["day_count"]
    general_pp = terms["general_rate"] * t
    special_pp = terms["special_rate"] * t
    client_loan = spot * (1.0 - terms["special_haircut"])
    general_lend = spot * (1.0 - terms["general_haircut"])
    return client_loan - general_lend, general_lend * general_pp - client_loan * special_pp


def dealer_doc(rng: random.Random, refuse: bool = False) -> dict:
    """A funded dealer ledger, or with ``refuse`` one whose fee exceeds a cap."""
    while True:
        market = _market(rng)
        note_count = rng.randint(1, 500)
        note_spot = round(rng.uniform(50.0, 2000.0), 4)
        market["spot_price"] = note_count * note_spot
        general_rate = round(rng.uniform(0.01, 0.08), 6)
        general_haircut = round(rng.uniform(0.01, 0.1), 6)
        terms = {
            "note_count": note_count,
            "note_spot": note_spot,
            "intermediate_price": round(note_spot * rng.uniform(0.97, 1.0), 4),
            "special_rate": round(rng.uniform(-0.01, general_rate - 0.005), 6),
            "general_rate": general_rate,
            "special_haircut": round(rng.uniform(0.0, general_haircut - 0.001), 6),
            "general_haircut": general_haircut,
        }
        cap = min(_dealer_caps(market, terms))
        if cap >= 1e-6 * market["spot_price"]:
            break
    if refuse:
        fee = math.ceil(cap * rng.uniform(1.2, 2.0) * 1e6) / 1e6
    else:
        fee = math.floor(cap * rng.uniform(0.0, 0.9) * 1e6) / 1e6
    terms["fed_fee"] = fee
    return _doc("dealer", market, terms)


SINGLE_KINDS = {
    "general": general_doc,
    "special_lender": special_lender_doc,
    "special_relations": relations_doc,
    "dealer": dealer_doc,
}


def _rejected_doc(rng: random.Random, rule: int) -> dict:
    """A document that breaks exactly one schema or semantic rule."""
    rule %= 12
    if rule == 0:
        doc = general_doc(rng)
        doc["market"]["volatility"] = -round(rng.uniform(0.01, 0.5), 4)
    elif rule == 1:
        doc = special_lender_doc(rng)
        doc["market"]["day_count"] = 364
    elif rule == 2:
        doc = relations_doc(rng)
        doc["market"]["tenor_days"] = 0
    elif rule == 3:
        doc = general_doc(rng)
        doc["comment"] = "unknown top-level field"
    elif rule == 4:
        doc = dealer_doc(rng)
        del doc["terms"]["fed_fee"]
    elif rule == 5:
        doc = general_doc(rng)
        doc["terms"] = {"repurchase_price": doc["market"]["spot_price"] * 0.9, "sigma_multiple": 1.0}
    elif rule == 6:
        doc = relations_doc(rng)
        doc["terms"]["general_haircut"] = 1.0
    elif rule == 7:
        doc = dealer_doc(rng)
        doc["terms"]["fed_fee"] = -round(rng.uniform(1.0, 100.0), 2)
    elif rule == 8:
        doc = special_lender_doc(rng)
        doc["schema_version"] = "2"
    elif rule == 9:
        # semantic: spot_price must equal note_count * note_spot
        doc = dealer_doc(rng)
        doc["market"]["spot_price"] = round(doc["market"]["spot_price"] * 1.01, 2)
    elif rule == 10:
        # semantic: an mc section only applies to general and special_lender
        doc = relations_doc(rng)
        doc["mc"] = {"n": 1000, "seed": rng.randint(0, 2**31)}
    else:
        # the lender-rate model is undefined for a deterministic forward
        doc = general_doc(rng)
        doc["market"]["volatility"] = 0.0
    return doc


def _rejected_oracle_doc(rng: random.Random, rule: int) -> dict:
    """An oracle document that the mc-section rules reject."""
    doc = general_doc(rng) if rule % 2 == 0 else special_lender_doc(rng)
    rule %= 3
    if rule == 0:
        doc["mc"] = {"n": 1, "seed": rng.randint(0, 2**31)}
    elif rule == 1:
        doc["mc"] = {"n": CHUNK, "seed": -rng.randint(1, 1000)}
    else:
        doc = dealer_doc(rng)
        doc["mc"] = {"n": CHUNK, "seed": rng.randint(0, 2**31)}
    return doc


def _ladder(rng: random.Random, size: int) -> tuple[dict, list[float]]:
    doc = general_doc(rng)
    spot = doc["market"]["spot_price"]
    lo, hi = rng.uniform(0.55, 0.75), rng.uniform(0.9, 0.995)
    strikes = [round(spot * (lo + (hi - lo) * i / (size - 1)), 2) for i in range(size)]
    return doc, strikes


# ---------------------------------------------------------------- blocks


def _interleave(classes: list[list[Request]], rng: random.Random) -> list[Request]:
    """Spread each class evenly through the block, shuffling inside a class."""
    placed = []
    for c, cls in enumerate(classes):
        rng.shuffle(cls)
        placed += [((j + 0.5) / len(cls), c, req) for j, req in enumerate(cls)]
    placed.sort(key=lambda item: item[:2])
    return [req for _, _, req in placed]


def _file_request(key: str, doc: dict, fmt: str, expect: str, **kw) -> Request:
    return Request(key=key, command=COMMAND_FOR_KIND[doc["kind"]], fmt=fmt,
                   expect=expect, doc=doc, **kw)


def bundled_request(key: str, stem: str, fmt: str) -> Request:
    for name, command, flags, expect in BUNDLED:
        if name == stem:
            return Request(key=key, command=command, fmt=fmt, expect=expect,
                           path=f"scenarios/{stem}.json", flags=flags, golden=stem)
    raise KeyError(stem)


def _cli_block(rng: random.Random, b: int) -> list[Request]:
    """24 cold CLI calls: bundled files, single quotes, short ladders, reproduce, rejections."""
    fmt = lambda i: FORMATS[(b + i) % 3]  # noqa: E731
    bundled = [bundled_request(f"c{b}-bundled-{stem}", stem, fmt(i))
               for i, (stem, *_rest) in enumerate(BUNDLED)]
    singles = [_file_request(f"c{b}-{kind}-{j}", make(rng), fmt(2 * i + j), "ok")
               for i, (kind, make) in enumerate(SINGLE_KINDS.items()) for j in range(2)]
    ladders = []
    for j in range(4):
        doc, strikes = _ladder(rng, 4 + 4 * j + rng.randint(0, 3))
        ladders.append(Request(key=f"c{b}-ladder-{j}", command="compare-bs", fmt=fmt(j),
                               expect="ok", doc=doc, strikes=strikes))
    reproduce = [Request(key=f"c{b}-reproduce-{j}", command="reproduce-examples",
                         fmt=fmt(j + 1), expect="ok") for j in range(2)]
    rejected = [_file_request(f"c{b}-reject-0", _rejected_doc(rng, 5 * b),
                              fmt(0), "validation"),
                _file_request(f"c{b}-refuse-0", dealer_doc(rng, refuse=True), fmt(1),
                              "liquidity")]
    return _interleave([bundled, singles, ladders, reproduce, rejected], rng)


def _inproc_block(rng: random.Random, b: int) -> list[Request]:
    """40 warm calls: 24 single quotes, 12 ladders of 16-256 strikes, 4 rejections."""
    singles = []
    for i, (kind, make) in enumerate(SINGLE_KINDS.items()):
        for j in range(6):
            singles.append(_file_request(f"m{b}-{kind}-{j}", make(rng),
                                         FORMATS[(b + i + j) % 3], "ok"))
    ladders = []
    for j in range(12):
        size = round(16.0 * 16.0 ** ((j + rng.random()) / 12))
        doc, strikes = _ladder(rng, size)
        ladders.append(Request(key=f"m{b}-ladder-{j}", command="compare-bs",
                               fmt=FORMATS[(b + j) % 3], expect="ok", doc=doc,
                               strikes=strikes))
    rejected = [
        _file_request(f"m{b}-reject-{j}", _rejected_doc(rng, 3 * b + j), FORMATS[(b + j) % 3],
                      "validation")
        for j in range(3)
    ]
    rejected.append(_file_request(f"m{b}-refuse-0", dealer_doc(rng, refuse=True),
                                  FORMATS[b % 3], "liquidity"))
    return _interleave([singles, ladders, rejected], rng)


def _oracle_block(rng: random.Random, b: int) -> list[Request]:
    """34 oracle calls: 30 documents of 1-10 chunks, a bundled one, reproduce --mc, 2 rejections."""
    docs = []
    for c in range(1, 11):
        for j in range(3):
            doc = general_doc(rng) if (c + j + b) % 2 == 0 else special_lender_doc(rng)
            # one full and two partial last chunks per chunk count
            fill = 1.0 if j == 0 else 0.35 * j + 0.1 * rng.random()
            doc["mc"] = {"n": (c - 1) * CHUNK + round(fill * CHUNK), "seed": rng.randint(0, 2**31)}
            docs.append(_file_request(f"o{b}-mc{c}-{j}", doc, FORMATS[(b + c + j) % 3], "ok"))
    bundled = [bundled_request(f"o{b}-bundled-general_2sigma_mc", "general_2sigma_mc", "json")]
    reproduce = [Request(key=f"o{b}-reproduce-mc", command="reproduce-examples", fmt="json",
                         expect="ok", mc=True, golden="reproduce_examples_mc")]
    rejected = [_file_request(f"o{b}-reject-{j}", _rejected_oracle_doc(rng, 2 * b + j),
                              FORMATS[j], "validation") for j in range(2)]
    return _interleave([docs, bundled, reproduce, rejected], rng)


#: (block function, number of distinct blocks in the request pool)
_POOLS = {
    "cli_cold": (_cli_block, 2),
    "inproc_mixed": (_inproc_block, 10),
    "oracle_mc": (_oracle_block, 3),
}


def generate(workload: str, seed: int) -> list[Request]:
    """The request pool of a workload; runs cycle through it in order."""
    build, blocks = _POOLS[workload]
    rng = random.Random(f"{workload}/{seed}")
    requests = []
    for b in range(blocks):
        requests += build(rng, b)
    for req in requests:
        if req.doc is not None:
            req.path = f"inputs/{req.key}.json"
    return requests


def materialize(requests: list[Request]) -> dict[str, bytes]:
    """Relative path -> bytes of every generated input file."""
    return {req.path: (json.dumps(req.doc, indent=2) + "\n").encode("utf-8")
            for req in requests if req.doc is not None}


def write_inputs(requests: list[Request], workdir: Path) -> None:
    """Write the generated files under ``workdir``; bundled paths stay relative to the root."""
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    for rel, data in materialize(requests).items():
        (workdir / rel).write_bytes(data)
