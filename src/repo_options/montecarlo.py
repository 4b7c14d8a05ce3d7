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

Scheduling: the chunks run on ``w = min(usable CPUs, chunks)`` worker
threads (numpy's generator and reductions release the GIL).  Worker ``k``
runs chunks ``k, k + w, k + 2w, ...`` in place in its own two float64
buffers of one chunk each (16 MB per worker at ``CHUNK_SIZE``), allocated
up front by the calling thread, so a chunk allocates no array of its own.
The buffers live in anonymous memory maps of their own, so their memory
goes back to the OS when the call returns, whatever the C heap's layout.
With one worker the chunks run in the calling thread and no pool is
started.

numpy and ``mmap`` are imported by the functions that sample, and
``concurrent.futures`` only when a pool is needed, so commands that never
run the oracle, or run a single chunk, do not pay for loading them.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import PricingError, ValidationError
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mapped_buffer(np, count: int) -> np.ndarray:
    """A float64 array of ``count`` elements in an anonymous memory map of its own."""
    import mmap

    if not hasattr(mmap, "MADV_HUGEPAGE"):  # e.g. Windows, which has no private-map flags
        return np.frombuffer(mmap.mmap(-1, 8 * count), np.float64)
    mapped = mmap.mmap(-1, 8 * count, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    mapped.madvise(mmap.MADV_HUGEPAGE)  # every call faults fresh pages in; huge ones are cheaper
    return np.frombuffer(mapped, np.float64)


def _chunk_moments(mode: str, strike: float, g: GaussianParams,
                   rng: np.random.Generator, x: np.ndarray,
                   d2: np.ndarray) -> tuple[int, float, float, float, float]:
    """(n, mean, M2, M3, M4) of one chunk's payoffs; Mk are sums of centered powers.

    Draws ``x.size`` variates into ``x`` and overwrites ``x`` and ``d2``.
    Every element and every reduction equals the expression form
    ``y = payoff(g.mean + g.sd * z)``, ``dev = y - m``, ``d2 = dev * dev``,
    ``(d2 * dev).sum()``, ``(d2 * d2).sum()``, so results are bit-identical
    to it.
    """
    import numpy as np

    rng.standard_normal(x.size, out=x)
    x *= g.sd
    x += g.mean
    if mode == "min":
        np.minimum(strike, x, out=x)
    elif mode == "max":
        np.maximum(strike, x, out=x)
    else:
        np.subtract(strike, x, out=x)
        np.maximum(x, 0.0, out=x)
    m = float(x.mean())
    x -= m
    np.multiply(x, x, out=d2)
    m2 = float(d2.sum())
    x *= d2
    d2 *= d2
    return (x.size, m, m2, float(x.sum()), float(d2.sum()))


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
    standard error for the sd as well.  Raises PricingError when M2 * M2
    underflows, since that standard error is then undefined.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValidationError(f"need n >= 2 samples for a standard deviation, got {n!r}")
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")

    import numpy as np

    counts = [min(CHUNK_SIZE, n - start) for start in range(0, n, CHUNK_SIZE)]
    workers = min(_usable_cpus(), len(counts))
    buffers = [(_mapped_buffer(np, counts[0]), _mapped_buffer(np, counts[0]))
               for _ in range(workers)]

    def lane(k):
        """Moments of chunks k, k + workers, ... computed in worker k's buffers."""
        x, d2 = buffers[k]
        stats = []
        # an overflow reaches the report's finite-output check; no numpy warning on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(k, len(counts), workers):
                rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
                stats.append(_chunk_moments(mode, strike, g, rng, x[:counts[i]], d2[:counts[i]]))
        return stats

    if workers == 1:
        lanes = [lane(0)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            lanes = list(pool.map(lane, range(workers)))
    chunks = [None] * len(counts)
    for k, stats in enumerate(lanes):
        chunks[k::workers] = stats

    n_total, mean, m2, _m3, m4 = functools.reduce(_merge_moments, chunks)
    if m2 <= 0.0:
        return McEstimate(mean=mean, sd=0.0, se_mean=0.0, se_sd=0.0,
                          n_samples=n_total, seed=seed)
    sd = math.sqrt(m2 / (n_total - 1))
    if m2 * m2 == 0.0:
        raise PricingError(f"oracle payoff sd {sd:.3e} is too small for floating point: its "
                           "fourth moment underflows, so the sd has no standard error")
    se_mean = sd / math.sqrt(n_total)
    kurtosis = n_total * m4 / (m2 * m2)
    se_sd = sd * math.sqrt(max(kurtosis - 1.0, 0.0) / (4.0 * n_total))
    return McEstimate(mean=mean, sd=sd, se_mean=se_mean, se_sd=se_sd,
                      n_samples=n_total, seed=seed)
