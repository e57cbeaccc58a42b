"""Counter-based random words with a fixed-width row per trial.

Every sampler in this package draws a fixed number of raw 64-bit Philox words
per trial, its row width: 3 for a prepare-and-measure trial (``protocol``),
5 for a local-hidden-variable trial (``lhv``).  At width ``k``, trial ``i``
owns stream positions ``[i*k, (i+1)*k)`` of the Philox stream keyed by the
master seed, so the words a trial sees depend only on ``(seed, i)``.  Any
partition of the trial range — the sampler's fixed-size blocks, or parallel
workers handing out disjoint ranges — reproduces bit-identical samples.

The samplers never convert a word to a float.  The uniform that
``Generator(Philox(key=seed)).random()`` would return at the same stream
position is ``u = (w >> 11) * 2**-53``, so every cut ``u >= p`` on it has the
exact integer form ``(w >> 11) >= threshold(p)``.  A fair coin is bit 0 of a
word, which no such cut reads, so one word carries a coin and an independent
53-bit cut: Philox4x64 passes BigCrush (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC'11).
"""

from __future__ import annotations

import numpy as np

# The widest row a sampler draws (``lhv.simulate_lhv``).  The benchmark's
# Philox reference, bench/worker.py::philox_reference, reads it.
DRAWS_PER_TRIAL = 5


def trial_uniforms_block(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """Raw uint64 Philox words of trials start..stop-1, shape (n, width).

    Philox emits four words per counter increment and ``advance()`` counts
    increments, so the stream is jumped to the last 4-word boundary at or
    before word ``start*width`` and the few words before the first trial's
    row are drawn and dropped.  Word ``w`` stands for the uniform
    ``(w >> 11) * 2**-53``; cut it with ``threshold``.
    """
    if not 0 <= start <= stop:
        raise ValueError(f"invalid trial range [{start}, {stop})")
    if width < 1:
        raise ValueError(f"row width must be >= 1, got {width}")
    bitgen = np.random.Philox(key=seed)
    first, skip = divmod(start * width, 4)
    if first:
        bitgen.advance(first)
    return bitgen.random_raw(skip + (stop - start) * width)[skip:].reshape(-1, width)


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
