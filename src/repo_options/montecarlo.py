"""Seeded Monte Carlo oracle for the censored-moment closed forms.

Determinism contract (version 1, fixed):

* Bit generator: numpy PCG64, variates via ``Generator.standard_normal``.
* The sample stream is split into fixed chunks of ``CHUNK_SIZE`` draws.
  Chunk ``i`` uses its own generator seeded with ``SeedSequence((seed, i))``,
  so the variates of a chunk depend only on (seed, chunk index).
* Chunk statistics are merged in ascending chunk order with the exact
  pairwise update for the first four central moments.

Because neither the variates nor the merge order depend on how chunks are
scheduled, an estimate for a given (seed, n, mode) is bit-identical no
matter how many workers evaluate the chunks.  This determinism is a
contract: do not change CHUNK_SIZE or the seeding scheme without bumping
the protocol note above.

numpy is imported by the functions that sample, not at module level, so
commands that never run the oracle do not pay for loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ValidationError
from .stochastic import GaussianParams

if TYPE_CHECKING:
    import numpy as np

CHUNK_SIZE = 1_000_000

MODES = ("min", "max", "put-payoff")


@dataclass(frozen=True)
class McEstimate:
    """Sample statistics of a simulated payoff, with replay metadata."""

    mean: float
    sd: float
    se_mean: float
    se_sd: float
    n_samples: int
    seed: int


def _payoff(mode: str, strike: float, x: np.ndarray) -> np.ndarray:
    import numpy as np

    if mode == "min":
        return np.minimum(strike, x)
    if mode == "max":
        return np.maximum(strike, x)
    return np.maximum(strike - x, 0.0)


def _chunk_moments(y: np.ndarray) -> tuple[int, float, float, float, float]:
    """(n, mean, M2, M3, M4) of one chunk; Mk are sums of centered powers."""
    m = float(y.mean())
    dev = y - m
    d2 = dev * dev
    return (y.size, m, float(d2.sum()), float((d2 * dev).sum()), float((d2 * d2).sum()))


def _merge_moments(a, b):
    """Combine two (n, mean, M2, M3, M4) tuples exactly (pairwise update)."""
    na, ma, m2a, m3a, m4a = a
    nb, mb, m2b, m3b, m4b = b
    n = na + nb
    d = mb - ma
    d2 = d * d
    mean = ma + d * nb / n
    m2 = m2a + m2b + d2 * na * nb / n
    m3 = (m3a + m3b
          + d * d2 * na * nb * (na - nb) / (n * n)
          + 3.0 * d * (na * m2b - nb * m2a) / n)
    m4 = (m4a + m4b
          + d2 * d2 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
          + 6.0 * d2 * (na * na * m2b + nb * nb * m2a) / (n * n)
          + 4.0 * d * (na * m3b - nb * m3a) / n)
    return (n, mean, m2, m3, m4)


def mc_sample_stats(strike: float, g: GaussianParams, n: int, seed: int,
                    mode: str) -> McEstimate:
    """Simulate n payoffs of the requested mode and return sample stats.

    mode is one of "min" (min(strike, X)), "max" (max(strike, X)) or
    "put-payoff" ((strike - X)^+), matching the closed forms in
    `stochastic`.  se_mean = sd / sqrt(n); se_sd uses the fourth sample
    moment so that heavily censored (non-normal) payoffs get an honest
    standard error for the sd as well.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValidationError(f"need n >= 2 samples for a standard deviation, got {n!r}")
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")

    import numpy as np

    total = None
    produced = 0
    chunk_index = 0
    while produced < n:
        count = min(CHUNK_SIZE, n - produced)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chunk_index))))
        x = g.mean + g.sd * rng.standard_normal(count)
        stats = _chunk_moments(_payoff(mode, strike, x))
        total = stats if total is None else _merge_moments(total, stats)
        produced += count
        chunk_index += 1

    n_total, mean, m2, _m3, m4 = total
    if m2 <= 0.0:
        return McEstimate(mean=mean, sd=0.0, se_mean=0.0, se_sd=0.0,
                          n_samples=n_total, seed=seed)
    sd = math.sqrt(m2 / (n_total - 1))
    se_mean = sd / math.sqrt(n_total)
    kurtosis = n_total * m4 / (m2 * m2)
    se_sd = sd * math.sqrt(max(kurtosis - 1.0, 0.0) / (4.0 * n_total))
    return McEstimate(mean=mean, sd=sd, se_mean=se_mean, se_sd=se_sd,
                      n_samples=n_total, seed=seed)
