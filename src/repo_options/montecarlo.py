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
runs chunks ``k, k + w, k + 2w, ...`` in place in its own float64 buffer:
one chunk's values and one scratch block of ``BLOCK`` values (~8.5 MB per
worker at ``CHUNK_SIZE``), allocated up front by the calling thread, so a
chunk allocates no array of its own, and writes each chunk's moments into
its slot of the ordered list.  The kernel works through a chunk block by
block, so the arithmetic on a block stays in cache, and adds the block
sums up numpy's own pairwise summation tree (``_pairwise``), so the
estimates are bit-identical to whole-chunk array expressions.  Each buffer
lives in an anonymous memory map of its own, so its memory goes back to
the OS when the call returns, whatever the C heap's layout.  With one
worker the chunks run in the calling thread and no pool is started.

numpy and ``mmap`` are imported by the functions that sample, and
``concurrent.futures`` only when a pool is needed, so commands that never
run the oracle, or run a single chunk, do not pay for loading them.
"""

from __future__ import annotations

import functools
import math
import os
from typing import TYPE_CHECKING, NamedTuple

from .errors import PricingError, ValidationError, short_repr
from .stochastic import GaussianParams

if TYPE_CHECKING:
    import numpy as np

CHUNK_SIZE = 1_000_000

#: Largest block of a chunk the kernel works through at a time: a block of
#: the chunk and one float64 scratch block of this size (1 MB) stay in L2
#: cache.  Not part of the determinism contract; any size gives the same bits.
BLOCK = 65_536

MODES = ("min", "put-payoff")


class McEstimate(NamedTuple):
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


def _pairwise(start: int, stop: int, leaf):
    """Sum ``leaf(block)`` over ``[start, stop)`` along numpy's pairwise tree.

    numpy sums a contiguous float64 array of n > 128 values as the sum of
    its two halves, the first rounded down to a multiple of 8 values, and
    so on down.  This splits ``[start, stop)`` the same way down to blocks
    of at most ``BLOCK`` values, calls ``leaf`` on each block's ``slice``
    from left to right, and adds the results back up the tree.  When
    ``leaf`` returns ``np.add.reduce`` of its block's values, the result
    equals ``np.add.reduce`` of the whole range, bit for bit.
    """
    if stop - start <= BLOCK:
        return leaf(slice(start, stop))
    half = (stop - start) // 2
    half -= half % 8
    left = _pairwise(start, start + half, leaf)
    return left + _pairwise(start + half, stop, leaf)


def _chunk_moments(mode: str, strike: float, g: GaussianParams,
                   rng: np.random.Generator, x: np.ndarray,
                   scratch: np.ndarray) -> tuple[int, float, float, float, float]:
    """(n, mean, M2, M3, M4) of one chunk's payoffs; Mk are sums of centered powers.

    Draws ``x.size`` variates into ``x``, block by block in ``_pairwise``
    order, and overwrites ``x`` and ``scratch``, which needs room for one
    block.  A block stays in cache through the affine map, the payoff and
    its sum (pass 1), and through ``dev`` (centred in place in ``x``),
    ``d2`` and their three sums (pass 2).  Every element equals the
    expression form ``y = payoff(g.mean + g.sd * z)``, ``m = y.mean()``,
    ``dev = y - m``, ``d2 = dev * dev``, and ``_pairwise`` adds the block
    sums up numpy's own summation tree, so ``m``, ``d2.sum()``,
    ``(d2 * dev).sum()`` and ``(d2 * d2).sum()`` are bit-identical to it.
    The generator carries nothing between calls, so drawing in blocks gives
    the same variates.
    """
    import numpy as np

    def payoff_sum(block):
        y = x[block]
        rng.standard_normal(y.size, out=y)
        y *= g.sd
        y += g.mean
        if mode == "min":
            np.minimum(strike, y, out=y)
        else:
            np.subtract(strike, y, out=y)
            np.maximum(y, 0.0, out=y)
        return float(np.add.reduce(y))

    m = _pairwise(0, x.size, payoff_sum) / x.size

    def centred_sums(block):
        dev = x[block]
        dev -= m
        d2 = scratch[:dev.size]
        np.square(dev, out=d2)
        m2 = np.add.reduce(d2)
        dev *= d2
        m3 = np.add.reduce(dev)
        np.square(d2, out=d2)
        return np.array([m2, m3, np.add.reduce(d2)])  # adds elementwise, as three floats would

    m2, m3, m4 = _pairwise(0, x.size, centred_sums).tolist()
    return (x.size, m, m2, m3, m4)


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

    mode is "min" (min(strike, X)) or "put-payoff" ((strike - X)^+),
    matching the closed forms in `stochastic`.  se_mean = sd / sqrt(n);
    se_sd uses the fourth sample moment so that heavily censored
    (non-normal) payoffs get an honest standard error for the sd as well.
    Raises PricingError when M2 * M2 underflows (se_sd is then undefined).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValidationError(f"need n >= 2 samples for a standard deviation, got {short_repr(n)}")
    if mode not in MODES:
        raise ValidationError(f"unknown mode {short_repr(mode)}; expected one of {MODES}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {short_repr(seed)}")

    import numpy as np

    counts = [min(CHUNK_SIZE, n - start) for start in range(0, n, CHUNK_SIZE)]
    workers = min(_usable_cpus(), len(counts))
    # a chunk's values, then one scratch block
    buffers = [_mapped_buffer(np, counts[0] + min(BLOCK, counts[0])) for _ in range(workers)]
    chunks = [None] * len(counts)

    def lane(k):
        """Moments of chunks k, k + workers, ... computed in worker k's buffer."""
        x, scratch = buffers[k][:counts[0]], buffers[k][counts[0]:]
        # an overflow reaches the report's finite-output check; no numpy warning on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(k, len(counts), workers):
                rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
                chunks[i] = _chunk_moments(mode, strike, g, rng, x[:counts[i]], scratch)

    if workers == 1:
        lane(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(lane, range(workers)))  # re-raises a lane's exception

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
