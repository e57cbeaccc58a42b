"""Counter-based random words with a fixed-width block per trial.

Every sampler in this package draws a fixed number of raw 64-bit Philox words
per trial.  Trial ``i`` owns stream positions
``[i*DRAWS_PER_TRIAL, (i+1)*DRAWS_PER_TRIAL)`` of the Philox stream keyed by
the master seed, so the words a trial sees depend only on ``(seed, i)``.  Any
partition of the trial range — the sampler's fixed-size blocks, or parallel
workers handing out disjoint ranges — reproduces bit-identical samples.

The samplers never convert a word to a float.  The uniform that
``Generator(Philox(key=seed)).random()`` would return at the same stream
position is ``u = (w >> 11) * 2**-53``, so every cut ``u >= p`` on it has the
exact integer form ``(w >> 11) >= threshold(p)``, and ``u < 0.5`` is the top
bit of ``w`` being clear.

DRAWS_PER_TRIAL is 8 because Philox emits four 64-bit words per counter
increment and ``advance()`` counts counter increments: an 8-wide row is
exactly two counter blocks, so every trial boundary is jumpable.
"""

from __future__ import annotations

import numpy as np

DRAWS_PER_TRIAL = 8


def trial_uniforms_block(seed: int, start: int, stop: int) -> np.ndarray:
    """Raw uint64 Philox words of trials start..stop-1, shape (n, DRAWS_PER_TRIAL).

    Word ``w`` stands for the uniform ``(w >> 11) * 2**-53``; cut it with
    ``threshold``.
    """
    if not 0 <= start <= stop:
        raise ValueError(f"invalid trial range [{start}, {stop})")
    bitgen = np.random.Philox(key=seed)
    if start:
        bitgen.advance(start * DRAWS_PER_TRIAL // 4)
    return bitgen.random_raw((stop - start, DRAWS_PER_TRIAL))


def threshold(p) -> np.ndarray:
    """The integer cut ``ceil(p * 2**53)`` as uint64, elementwise.

    For every word ``w`` and every probability ``p`` in [0, 1],
    ``(w >> 11) >= threshold(p)`` holds exactly when ``u >= p`` for the
    uniform ``u = (w >> 11) * 2**-53``, and so ``(w >> 11) < threshold(p)``
    exactly when ``u < p``.  Scaling by 2**53 is exact, and an integer is at
    least a real number exactly when it is at least its ceiling.  Values
    below 0 cut like 0 and values above 1 like 1, as the float comparisons
    do; NaN has no integer cut and raises ValueError.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.isnan(p).any():
        raise ValueError("a probability threshold is NaN")
    return np.ceil(np.clip(p, 0.0, 1.0) * 2.0**53).astype(np.uint64)
