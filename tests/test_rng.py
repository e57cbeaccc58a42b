"""The per-trial substream contract: values depend only on (seed, trial)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpost import protocol
from bellpost.rng import DRAWS_PER_TRIAL, threshold, trial_uniforms_block

STEP = 2.0**-53


def test_row_width_is_jumpable():
    # advance() counts words; trial i's row is word i of one long draw.
    reference = np.random.PCG64DXSM(31).random_raw(65_545)
    for start in (0, 1, 3, 4, 65_537):
        for stop in (start, start + 1, start + 8):
            w = trial_uniforms_block(31, start, stop)
            assert w.dtype == np.uint64 and w.shape == (stop - start,)
            np.testing.assert_array_equal(w, reference[start:stop])


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_far_jump(seed):
    # advance() reaches word 1e10: the last eight words below trial 1e10 are
    # the tail of a block that starts three trials earlier, each word of that
    # block is the word of its trial drawn alone, and the block is where 26
    # shorter jumps, each under 2**31 words, reach.
    first, stop = 10**10 - 8, 10**10
    block = trial_uniforms_block(seed, first - 3, stop)
    np.testing.assert_array_equal(trial_uniforms_block(seed, first, stop), block[3:])
    for row, trial in enumerate(range(first - 3, stop)):
        np.testing.assert_array_equal(trial_uniforms_block(seed, trial, trial + 1)[0], block[row])
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
    w = trial_uniforms_block(8, 0, 4_000_000)
    column = (w & np.uint64(31)).astype(np.int64)
    below = ((w >> np.uint64(11)) < threshold(p)).astype(np.int64)
    observed = np.bincount(2 * column + below, minlength=64)
    expected = w.size / 32 * np.tile([1 - p, p], 32)
    assert ((observed - expected) ** 2 / expected).sum() < 113.5


@pytest.mark.parametrize("seed", [None, True, 1.5, -1, 2**64])
def test_seed_must_be_an_integer_in_range(seed):
    # No ambient entropy: a seed of None would draw fresh OS entropy.
    with pytest.raises(ValueError, match="seed"):
        trial_uniforms_block(seed, 0, 2)
    with pytest.raises(ValueError, match="seed"):
        protocol.run_quantum_mc(*protocol.canonical_schemes(), 1000, seed)


def test_draws_per_trial_is_the_widest_row(monkeypatch):
    # Every sampled mode draws exactly DRAWS_PER_TRIAL words a trial.
    drawn = []

    def counted(seed, start, stop):
        drawn.append(trial_uniforms_block(seed, start, stop))
        return drawn[-1]

    monkeypatch.setattr(protocol, "trial_uniforms_block", counted)
    protocol.run_quantum_mc(*protocol.canonical_schemes(), 40_000, 1)
    assert DRAWS_PER_TRIAL == 1
    assert sum(w.size for w in drawn) == DRAWS_PER_TRIAL * 40_000


def test_same_seed_reproduces():
    np.testing.assert_array_equal(
        trial_uniforms_block(123, 0, 1000), trial_uniforms_block(123, 0, 1000)
    )


def test_different_seeds_differ():
    assert not np.array_equal(
        trial_uniforms_block(1, 0, 100), trial_uniforms_block(2, 0, 100)
    )


def test_prefix_consistency():
    full = trial_uniforms_block(9, 0, 500)
    np.testing.assert_array_equal(trial_uniforms_block(9, 0, 120), full[:120])


def test_chunked_generation_matches_one_shot():
    full = trial_uniforms_block(77, 0, 1000)
    for lo, hi in ((0, 250), (250, 251), (251, 999), (999, 1000)):
        np.testing.assert_array_equal(trial_uniforms_block(77, lo, hi), full[lo:hi])


def test_words_are_generator_uniforms():
    # The top 53 bits of each word, scaled, are the float64 uniform that
    # Generator.random() draws at the same stream position.
    reference = np.random.Generator(np.random.PCG64DXSM(5)).random(65_538)
    for trial in (0, 1, 16_383, 16_384, 65_537):
        w = trial_uniforms_block(5, trial, trial + 1)
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
        trial_uniforms_block(0, 10, 5)
    with pytest.raises(ValueError, match="range"):
        trial_uniforms_block(0, -1, 5)
