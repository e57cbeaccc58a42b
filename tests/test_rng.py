"""The per-trial substream contract: values depend only on (seed, trial)."""

import numpy as np
import pytest

from bellpost.rng import DRAWS_PER_TRIAL, trial_uniforms_block


def test_row_width_is_jumpable():
    # advance() counts 4-word counter blocks, so rows must be a multiple of 4.
    assert DRAWS_PER_TRIAL % 4 == 0


def test_same_seed_reproduces():
    np.testing.assert_array_equal(
        trial_uniforms_block(123, 0, 1000), trial_uniforms_block(123, 0, 1000)
    )


def test_different_seeds_differ():
    assert not np.array_equal(trial_uniforms_block(1, 0, 100), trial_uniforms_block(2, 0, 100))


def test_prefix_consistency():
    full = trial_uniforms_block(9, 0, 500)
    np.testing.assert_array_equal(trial_uniforms_block(9, 0, 120), full[:120])


def test_chunked_generation_matches_one_shot():
    full = trial_uniforms_block(77, 0, 1000)
    for bounds in ((0, 250), (250, 251), (251, 999), (999, 1000)):
        np.testing.assert_array_equal(
            trial_uniforms_block(77, *bounds), full[bounds[0] : bounds[1]]
        )


def test_values_in_unit_interval():
    u = trial_uniforms_block(5, 0, 10_000)
    assert np.all((u >= 0.0) & (u < 1.0))


def test_invalid_range_rejected():
    with pytest.raises(ValueError):
        trial_uniforms_block(0, 10, 5)
