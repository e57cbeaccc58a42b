"""The per-trial substream contract: values depend only on (seed, trial)."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpost import protocol
from bellpost.rng import DRAWS_PER_TRIAL, threshold, trial_stream

STEP = 2.0**-53
CANONICAL_LAW = protocol.announced_weights(*protocol.canonical_schemes())


def test_row_width_is_jumpable():
    # advance() counts words; trial i's row is word i of one long draw.
    reference = np.random.PCG64DXSM(31).random_raw(65_545)
    for start in (0, 1, 3, 4, 65_537):
        for stop in (start, start + 1, start + 8):
            w = trial_stream(31, start, stop).random_raw(stop - start)
            assert w.dtype == np.uint64 and w.shape == (stop - start,)
            np.testing.assert_array_equal(w, reference[start:stop])


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_far_jump(seed):
    # advance() reaches word 1e10: the last eight words below trial 1e10 are
    # the tail of a block that starts three trials earlier, each word of that
    # block is the word of its trial drawn alone, and the block is where 26
    # shorter jumps, each under 2**31 words, reach.
    first, stop = 10**10 - 8, 10**10
    block = trial_stream(seed, first - 3, stop).random_raw(11)
    np.testing.assert_array_equal(trial_stream(seed, first, stop).random_raw(8), block[3:])
    for row, trial in enumerate(range(first - 3, stop)):
        assert trial_stream(seed, trial, trial + 1).random_raw() == block[row]
    reference = np.random.PCG64DXSM(seed)
    step, rest = divmod(first - 3, 25)
    for _ in range(25):
        reference.advance(step)
    reference.advance(rest)
    np.testing.assert_array_equal(reference.random_raw(block.size), block)


@pytest.mark.parametrize("p", [0.25, 0.5])
def test_coin_and_cut_are_independent(p):
    # Pearson's chi-squared over the 32x2 table of (bits 0-4, (w >> 11) < cut)
    # against a uniform column, whose bit 0 is a coin, times the cut's
    # probability: 63 degrees of freedom, and 113.5 is their upper 1e-4
    # quantile.
    w = trial_stream(8, 0, 4_000_000).random_raw(4_000_000)
    column = (w & np.uint64(31)).astype(np.int64)
    below = ((w >> np.uint64(11)) < threshold(p)).astype(np.int64)
    observed = np.bincount(2 * column + below, minlength=64)
    expected = w.size / 32 * np.tile([1 - p, p], 32)
    assert ((observed - expected) ** 2 / expected).sum() < 113.5


@pytest.mark.parametrize("seed", [None, True, 1.5, -1, 2**64])
def test_seed_must_be_an_integer_in_range(seed):
    # No ambient entropy: a seed of None would draw fresh OS entropy.
    with pytest.raises(ValueError, match="seed"):
        trial_stream(seed, 0, 2)
    with pytest.raises(ValueError, match="seed"):
        protocol.sample_tally(seed, 1000, CANONICAL_LAW)


def counted_streams(monkeypatch) -> list:
    """Record the sampler's streams: one (start, stop, blocks drawn) a
    generator built, with every block of words drawn from it."""
    built = []

    def counted(seed, start, stop):
        bitgen, blocks = trial_stream(seed, start, stop), []
        built.append((start, stop, blocks))

        def random_raw(k):
            blocks.append(bitgen.random_raw(k))
            return blocks[-1]

        return SimpleNamespace(random_raw=random_raw)

    monkeypatch.setattr(protocol, "trial_stream", counted)
    return built


def test_draws_per_trial_is_the_widest_row(monkeypatch):
    # Every sampled mode draws exactly DRAWS_PER_TRIAL words a trial.
    built = counted_streams(monkeypatch)
    protocol.sample_tally(1, 40_000, CANONICAL_LAW)
    assert DRAWS_PER_TRIAL == 1
    drawn = [w for _, _, blocks in built for w in blocks]
    assert sum(w.size for w in drawn) == DRAWS_PER_TRIAL * 40_000


@pytest.mark.parametrize("cpus", [2, 3])
def test_one_generator_per_share(monkeypatch, cpus):
    # Each share builds one generator, jumped once to its first trial, and
    # draws its several blocks by continuing it: the words drawn, share by
    # share and block by block, are the trials' words, each drawn once.
    n = 3 * protocol.SHARE_TRIALS + 7
    monkeypatch.setattr(protocol, "_cpu_count", lambda: cpus)
    built = counted_streams(monkeypatch)
    protocol.sample_tally(1, n, CANONICAL_LAW)
    built.sort(key=lambda share: share[0])
    bounds = [n * i // cpus for i in range(cpus + 1)]
    assert [(start, stop) for start, stop, _ in built] == list(zip(bounds, bounds[1:]))
    assert all(len(blocks) > 1 for _, _, blocks in built)
    drawn = np.concatenate([w for _, _, blocks in built for w in blocks])
    np.testing.assert_array_equal(drawn, np.random.PCG64DXSM(1).random_raw(n))


def test_same_seed_reproduces():
    np.testing.assert_array_equal(
        trial_stream(123, 0, 1000).random_raw(1000), trial_stream(123, 0, 1000).random_raw(1000)
    )


def test_different_seeds_differ():
    assert not np.array_equal(
        trial_stream(1, 0, 100).random_raw(100), trial_stream(2, 0, 100).random_raw(100)
    )


def test_prefix_consistency():
    full = trial_stream(9, 0, 500).random_raw(500)
    np.testing.assert_array_equal(trial_stream(9, 0, 120).random_raw(120), full[:120])


def test_chunked_generation_matches_one_shot():
    full = trial_stream(77, 0, 1000).random_raw(1000)
    for lo, hi in ((0, 250), (250, 251), (251, 999), (999, 1000)):
        np.testing.assert_array_equal(trial_stream(77, lo, hi).random_raw(hi - lo), full[lo:hi])


def test_words_are_generator_uniforms():
    # The top 53 bits of each word, scaled, are the float64 uniform that
    # Generator.random() draws at the same stream position.
    reference = np.random.Generator(np.random.PCG64DXSM(5)).random(65_538)
    for trial in (0, 1, 16_383, 16_384, 65_537):
        w = trial_stream(5, trial, trial + 1).random_raw(1)
        assert w.dtype == np.uint64 and w.shape == (1,)
        np.testing.assert_array_equal((w >> 11) * STEP, reference[trial : trial + 1])


def _assert_cut_exact(p: float) -> None:
    cut = int(threshold(p))
    assert 0 <= cut <= 2**53
    for k in (cut - 1, cut, cut + 1):
        if 0 <= k < 2**53:
            assert (k >= cut) == (k * STEP >= p), (p, k)


EDGES = [0.0, STEP, 0.5, 1.0 - STEP, 1.0]
EDGES_AND_NEIGHBOURS = sorted(
    {q for p in EDGES for q in (p, math.nextafter(p, 0.0), math.nextafter(p, 1.0))}
)


@pytest.mark.parametrize("p", EDGES_AND_NEIGHBOURS)
def test_threshold_exact_at_edges(p):
    _assert_cut_exact(p)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_threshold_exact_on_unit_interval(p):
    _assert_cut_exact(p)


def test_threshold_elementwise_and_clipped():
    cuts = threshold([[-0.25, 0.0], [0.25, 1.5]])
    assert cuts.dtype == np.uint64
    np.testing.assert_array_equal(cuts, [[0, 0], [2**51, 2**53]])
    with pytest.raises(ValueError, match="NaN"):
        threshold([0.5, math.nan])


def test_invalid_range_rejected():
    with pytest.raises(ValueError, match="range"):
        trial_stream(0, 10, 5)
    with pytest.raises(ValueError, match="range"):
        trial_stream(0, -1, 5)
