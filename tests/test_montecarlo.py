"""Simulation estimator: determinism, merge correctness, standard errors."""

import functools
import math

import numpy as np
import pytest

from repo_options import (
    GaussianParams,
    McEstimate,
    ValidationError,
    censored_min_mean,
    censored_min_sd,
    mc_sample_stats,
    put_payoff_mean,
)
from repo_options import montecarlo
from repo_options.montecarlo import BLOCK, CHUNK_SIZE, MODES, _merge_moments

G = GaussianParams(mean=100.0, sd=15.0)


def _chunk_rng(seed, chunk_index):
    """The generator of chunk ``chunk_index`` under the determinism contract."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chunk_index))))


def test_replay_is_bit_identical():
    a = mc_sample_stats(90.0, G, 250_000, 123, "min")
    b = mc_sample_stats(90.0, G, 250_000, 123, "min")
    assert a == b  # record equality covers every field exactly
    assert (a.mean, a.sd, a.se_mean, a.se_sd) == (b.mean, b.sd, b.se_mean, b.se_sd)


def test_different_seeds_differ():
    a = mc_sample_stats(90.0, G, 100_000, 1, "min")
    b = mc_sample_stats(90.0, G, 100_000, 2, "min")
    assert a.mean != b.mean


def test_se_mean_is_sd_over_sqrt_n():
    est = mc_sample_stats(95.0, G, 123_457, 9, "min")
    assert est.se_mean == est.sd / math.sqrt(est.n_samples)
    assert est.n_samples == 123_457
    assert est.seed == 9


def test_chunked_merge_matches_single_pass_numpy():
    # same variate stream rebuilt directly; spans three chunks with a ragged tail
    n = 2 * CHUNK_SIZE + CHUNK_SIZE // 2 + 17
    seed, strike = 77, 92.0
    est = mc_sample_stats(strike, G, n, seed, "min")

    parts = []
    produced, chunk_index = 0, 0
    while produced < n:
        count = min(CHUNK_SIZE, n - produced)
        rng = _chunk_rng(seed, chunk_index)
        parts.append(G.mean + G.sd * rng.standard_normal(count))
        produced += count
        chunk_index += 1
    y = np.minimum(strike, np.concatenate(parts))

    assert est.n_samples == n
    assert est.mean == pytest.approx(float(y.mean()), rel=1e-12)
    assert est.sd == pytest.approx(float(y.std(ddof=1)), rel=1e-10)


def _expression_form_moments(mode, strike, g, rng, count):
    """(n, mean, M2, M3, M4) of one chunk, computed with plain array expressions."""
    payoff = {
        "min": lambda x: np.minimum(strike, x),
        "put-payoff": lambda x: np.maximum(strike - x, 0.0),
    }[mode]
    y = payoff(g.mean + g.sd * rng.standard_normal(count))
    m = float(y.mean())
    dev = y - m
    d2 = dev * dev
    return (y.size, m, float(d2.sum()), float((d2 * dev).sum()), float((d2 * d2).sum()))


def _expression_form_estimate(strike, g, n, seed, mode):
    """The estimate rebuilt chunk by chunk with plain array expressions."""
    chunks = []
    for chunk_index, start in enumerate(range(0, n, CHUNK_SIZE)):
        rng = _chunk_rng(seed, chunk_index)
        chunks.append(_expression_form_moments(mode, strike, g, rng,
                                               min(CHUNK_SIZE, n - start)))
    n_total, mean, m2, _m3, m4 = functools.reduce(_merge_moments, chunks)
    sd = math.sqrt(m2 / (n_total - 1))
    kurtosis = n_total * m4 / (m2 * m2)
    return McEstimate(mean=mean, sd=sd, se_mean=sd / math.sqrt(n_total),
                      se_sd=sd * math.sqrt(max(kurtosis - 1.0, 0.0) / (4.0 * n_total)),
                      n_samples=n_total, seed=seed)


@pytest.mark.parametrize("mode", MODES)
def test_in_place_kernel_is_bit_identical_to_expression_form(mode):
    # three chunks with a ragged tail; the strike censors about a quarter of the mass
    n = 2 * CHUNK_SIZE + CHUNK_SIZE // 2 + 17
    strike, seed = G.mean - 0.7 * G.sd, 31
    assert mc_sample_stats(strike, G, n, seed, mode) == _expression_form_estimate(
        strike, G, n, seed, mode)


# sizes on both sides of numpy's 8-wide unroll, its 128-value pairwise leaf,
# the kernel's block and the chunk
@pytest.mark.parametrize("n", [2, 7, 8, 9, 127, 128, 129, BLOCK - 1, BLOCK, BLOCK + 1,
                               2 * BLOCK + 3, CHUNK_SIZE - 1, CHUNK_SIZE])
@pytest.mark.parametrize("mode", MODES)
# -5: nearly every payoff is equal; 0.7 mirrors -0.7, so each payoff also sees
# the censoring split on the other side of its mean
@pytest.mark.parametrize("sigmas", [-0.7, 0.7, 3.0, -5.0])
def test_block_kernel_is_bit_identical_to_expression_form_at_tree_boundaries(n, mode, sigmas):
    strike = G.mean + sigmas * G.sd
    x, scratch = np.empty(n), np.empty(min(BLOCK, n))
    got = montecarlo._chunk_moments(mode, strike, G, _chunk_rng(n, 0), x, scratch)
    assert got == _expression_form_moments(mode, strike, G, _chunk_rng(n, 0), n)


def test_block_sums_fold_to_numpys_own_sum():
    # The kernel's bit identity rests on numpy summing a contiguous float64
    # array with the pairwise tree that _pairwise rebuilds.
    rng = np.random.default_rng(5)
    sizes = [1, 2, 129, BLOCK - 8, BLOCK + 1, 2 * BLOCK + 3, 4 * BLOCK - 1, 500_017,
             CHUNK_SIZE - 1, CHUNK_SIZE] + [int(k) for k in rng.integers(BLOCK, CHUNK_SIZE, 20)]
    for n in sizes:
        a = rng.standard_normal(n) * np.exp(rng.uniform(-20.0, 20.0, n))
        folded = montecarlo._pairwise(0, n, lambda b: np.add.reduce(a[b]))
        assert folded == np.add.reduce(a), (
            f"numpy {np.__version__} no longer sums {n} float64 values along the pairwise "
            "tree that montecarlo._pairwise rebuilds; the oracle's determinism contract "
            "(version 1) needs the kernel's block sums to match np.add.reduce")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [17, CHUNK_SIZE, 3 * CHUNK_SIZE + CHUNK_SIZE // 2])
def test_worker_count_does_not_change_the_estimate(monkeypatch, mode, n):
    kernel = montecarlo._chunk_moments
    estimates, buffers = {}, {}
    for cpus in (1, 2, 3, 5):
        used = set()

        def spy(*args):
            used.add(args[-1].__array_interface__["data"][0])  # the lane's scratch block
            return kernel(*args)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda cpus=cpus: cpus)
        monkeypatch.setattr(montecarlo, "_chunk_moments", spy)
        estimates[cpus] = mc_sample_stats(97.0, G, n, 8, mode)
        buffers[cpus] = len(used)
    assert estimates[2] == estimates[1]
    assert estimates[3] == estimates[1]
    assert estimates[5] == estimates[1]
    n_chunks = -(-n // CHUNK_SIZE)
    assert buffers == {cpus: min(cpus, n_chunks) for cpus in (1, 2, 3, 5)}


def test_five_lanes_under_constant_thread_switching_give_the_same_bits(monkeypatch):
    # more lanes than CPUs, and the interpreter switches threads as often as it can
    import sys
    import threading

    n = 6 * CHUNK_SIZE + 3  # seven chunks: two lanes run two each
    one_lane = mc_sample_stats(97.0, G, n, 8, "put-payoff")
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 5)
    five_lanes = []
    caller = threading.Thread(
        target=lambda: five_lanes.append(mc_sample_stats(97.0, G, n, 8, "put-payoff")),
        daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller.start()
        caller.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert five_lanes == [one_lane]


def test_buffers_are_released_when_the_call_returns(monkeypatch):
    import mmap

    maps = []

    class Tracked(mmap.mmap):
        def __new__(cls, *args, **kwargs):
            maps.append(super().__new__(cls, *args, **kwargs))
            return maps[-1]

    monkeypatch.setattr(mmap, "mmap", Tracked)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    mc_sample_stats(97.0, G, 3 * CHUNK_SIZE, 8, "min")
    # one map per lane: a chunk's values, then one scratch block
    assert [len(m) for m in maps] == [8 * (CHUNK_SIZE + BLOCK)] * 2
    for m in maps:
        m.close()  # raises BufferError while any array still uses the map


def test_a_workers_exception_reaches_the_caller(monkeypatch):
    # lanes return nothing, so only collecting pool.map's results re-raises this
    kernel = montecarlo._chunk_moments

    def failing(mode, strike, g, rng, x, scratch):
        if x.size == 7:
            raise RuntimeError("last chunk failed")
        return kernel(mode, strike, g, rng, x, scratch)

    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(montecarlo, "_chunk_moments", failing)
    with pytest.raises(RuntimeError, match="last chunk failed"):
        mc_sample_stats(97.0, G, 3 * CHUNK_SIZE + 7, 8, "min")


def test_plain_map_fallback_gives_the_same_estimate(monkeypatch):
    # platforms without MADV_HUGEPAGE (macOS, Windows) take the plain anonymous map
    import mmap

    n = 2 * CHUNK_SIZE + 3
    default = mc_sample_stats(97.0, G, n, 8, "put-payoff")
    monkeypatch.delattr(mmap, "MADV_HUGEPAGE")
    assert mc_sample_stats(97.0, G, n, 8, "put-payoff") == default


def test_chunk_boundary_sizes_change_results_continuously():
    # exactly one chunk vs one sample more: both must work and stay close
    a = mc_sample_stats(95.0, G, CHUNK_SIZE, 5, "min")
    b = mc_sample_stats(95.0, G, CHUNK_SIZE + 1, 5, "min")
    assert b.n_samples == CHUNK_SIZE + 1
    assert abs(a.mean - b.mean) < 10.0 * a.se_mean


def test_estimates_match_closed_forms_within_four_se():
    n = 1_000_000
    strike = G.mean - 2.0 * G.sd
    est_min = mc_sample_stats(strike, G, n, 2024, "min")
    assert abs(est_min.mean - censored_min_mean(strike, G)) <= 4.0 * est_min.se_mean
    assert abs(est_min.sd - censored_min_sd(strike, G)) <= 4.0 * est_min.se_sd

    est_put = mc_sample_stats(strike, G, n, 2026, "put-payoff")
    assert abs(est_put.mean - put_payoff_mean(strike, G)) <= 4.0 * est_put.se_mean


def test_zero_sd_payoff_gives_zero_errors():
    g = GaussianParams(mean=50.0, sd=0.0)
    est = mc_sample_stats(60.0, g, 10_000, 0, "min")
    assert est.mean == 50.0
    assert est.sd == 0.0
    assert est.se_mean == 0.0
    assert est.se_sd == 0.0


def test_fully_censored_put_is_all_zero():
    # strike far below the support: every payoff is exactly zero
    est = mc_sample_stats(G.mean - 40.0 * G.sd, G, 50_000, 3, "put-payoff")
    assert est.mean == 0.0
    assert est.sd == 0.0


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        mc_sample_stats(90.0, G, 1, 0, "min")
    with pytest.raises(ValidationError):
        mc_sample_stats(90.0, G, 0, 0, "min")
    with pytest.raises(ValidationError):
        mc_sample_stats(90.0, G, 1000, 0, "median")
    with pytest.raises(ValidationError):
        mc_sample_stats(90.0, G, 1000, 0, "max")
    with pytest.raises(ValidationError):
        mc_sample_stats(90.0, G, 1000, -1, "min")
    with pytest.raises(ValidationError):
        mc_sample_stats(90.0, G, 1000, True, "min")
    with pytest.raises(ValidationError):
        mc_sample_stats(90.0, G, True, 0, "min")


def test_estimate_is_immutable():
    est = mc_sample_stats(90.0, G, 1000, 0, "min")
    assert isinstance(est, McEstimate)
    with pytest.raises(AttributeError):
        est.mean = 0.0
