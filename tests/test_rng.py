"""The per-trial substream contract: values depend only on (seed, trial)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpost import lhv, protocol
from bellpost.rng import DRAWS_PER_TRIAL, threshold, trial_uniforms_block

STEP = 2.0**-53
WIDTHS = (protocol.PM_WIDTH, lhv.LHV_WIDTH)


def test_row_width_is_jumpable():
    # advance() counts 4-word counter blocks; a row of any width still starts
    # where its trial's words start in one long draw, aligned or not.
    for width in range(1, 9):
        reference = np.random.Philox(key=31).random_raw(65_545 * width)
        for start in (0, 1, 3, 4, 65_537):
            for stop in (start, start + 1, start + 8):
                w = trial_uniforms_block(31, start, stop, width)
                assert w.dtype == np.uint64 and w.shape == (stop - start, width)
                np.testing.assert_array_equal(w.ravel(), reference[start * width : stop * width])


def test_draws_per_trial_is_the_widest_row():
    assert DRAWS_PER_TRIAL == max(WIDTHS)


def test_same_seed_reproduces():
    np.testing.assert_array_equal(
        trial_uniforms_block(123, 0, 1000, 3), trial_uniforms_block(123, 0, 1000, 3)
    )


def test_different_seeds_differ():
    assert not np.array_equal(
        trial_uniforms_block(1, 0, 100, 3), trial_uniforms_block(2, 0, 100, 3)
    )


def test_prefix_consistency():
    full = trial_uniforms_block(9, 0, 500, 5)
    np.testing.assert_array_equal(trial_uniforms_block(9, 0, 120, 5), full[:120])


def test_chunked_generation_matches_one_shot():
    for width in WIDTHS:
        full = trial_uniforms_block(77, 0, 1000, width)
        for bounds in ((0, 250), (250, 251), (251, 999), (999, 1000)):
            np.testing.assert_array_equal(
                trial_uniforms_block(77, *bounds, width), full[bounds[0] : bounds[1]]
            )


def test_words_are_generator_uniforms():
    # The top 53 bits of each word, scaled, are the float64 uniform that
    # Generator.random() draws at the same stream position.
    for width in WIDTHS:
        generator = np.random.Generator(np.random.Philox(key=5))
        reference = generator.random(65_538 * width).reshape(-1, width)
        for trial in (0, 1, 16_383, 16_384, 65_537):
            w = trial_uniforms_block(5, trial, trial + 1, width)
            assert w.dtype == np.uint64 and w.shape == (1, width)
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
        trial_uniforms_block(0, 10, 5, 3)
    with pytest.raises(ValueError, match="width"):
        trial_uniforms_block(0, 0, 5, 0)
