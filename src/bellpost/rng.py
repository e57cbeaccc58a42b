"""Jumpable random words, one per trial.

Every sampler in this package draws one raw 64-bit PCG64DXSM word per trial:
trial ``i`` owns word ``i`` of the PCG64DXSM stream keyed by the master seed.
The generator emits one word per step and ``advance(n)`` jumps ``n`` steps in
O(log n), so the word a trial sees depends only on ``(seed, i)``.  Any
partition of the trial range reproduces bit-identical samples: the sampler
jumps one generator per share to its first trial (``trial_stream``) and
draws the share's blocks by continuing it.

The samplers never convert a word to a float.  The uniform that
``Generator(PCG64DXSM(seed)).random()`` would return at the same stream
position is ``u = (w >> 11) * 2**-53``, so every cut ``u < p`` on it has the
exact integer form ``(w >> 11) < threshold(p)``.  Bits 0-4 of a word, which
no such cut reads, pick one of 32 equally likely columns, so one word carries
a column and an independent 53-bit cut from bits 11-63
(``protocol.sample_tally``).  PCG64DXSM's output function folds the whole
128-bit state into each word by xorshifts and a multiply, so its low bits are
not the short-period low bits of the underlying congruential state, and the
PCG family passes TestU01's BigCrush (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number Generation",
HMC-CS-2014-0905, 2014).

The seed must be an integer in [0, 2**64 - 1], the CLI's range; no ambient
entropy is ever used.
"""

from __future__ import annotations

import numbers

import numpy as np

# Words a sampled trial draws from its ``trial_stream``.  Only the benchmark
# reads it: bench/worker.py::philox_reference draws rows * DRAWS_PER_TRIAL
# words.
DRAWS_PER_TRIAL = 1


def trial_stream(seed: int, start: int, stop: int) -> np.random.PCG64DXSM:
    """The PCG64DXSM stream jumped to word ``start``, trial ``start``'s word.

    Each ``random_raw(k)`` continues it, so trials start..stop-1 may be drawn
    in any number of calls.  Word ``w`` stands for the uniform
    ``(w >> 11) * 2**-53``; cut it with ``threshold``.  A seed that is not an
    integer in [0, 2**64 - 1] (a bool, a float or None among them), or a
    range other than 0 <= start <= stop, raises ValueError.
    """
    integral = isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
    if not (integral and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2**64 - 1], got {seed!r}")
    if not 0 <= start <= stop:
        raise ValueError(f"invalid trial range [{start}, {stop})")
    return np.random.PCG64DXSM(seed).advance(start)


def threshold(p) -> np.ndarray:
    """The integer cut ``ceil(p * 2**53)`` as uint64, elementwise.

    For every word ``w`` and every probability ``p`` in [0, 1],
    ``(w >> 11) < threshold(p)`` holds exactly when ``u < p`` for the uniform
    ``u = (w >> 11) * 2**-53``, so the cut keeps a word with probability
    ``threshold(p) * 2**-53``.  Scaling by 2**53 is exact, and an integer is at
    least a real number exactly when it is at least its ceiling.  Values
    below 0 cut like 0 and values above 1 like 1, as the float comparisons
    do; NaN has no integer cut and raises ValueError.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.isnan(p).any():
        raise ValueError("a probability threshold is NaN")
    return np.ceil(np.clip(p, 0.0, 1.0) * 2.0**53).astype(np.uint64)
