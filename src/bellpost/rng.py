"""Counter-based uniform streams with a fixed-width block per trial.

Every sampler in this package draws a fixed number of uniforms per trial.
Trial ``i`` owns stream positions ``[i*DRAWS_PER_TRIAL, (i+1)*DRAWS_PER_TRIAL)``
of the Philox stream keyed by the master seed, so the values a trial sees
depend only on ``(seed, i)``.  Any partition of the trial range — the
sampler's fixed-size blocks, or parallel workers handing out disjoint
ranges — reproduces bit-identical samples.

DRAWS_PER_TRIAL is 8 because Philox emits four 64-bit words per counter
increment and ``advance()`` counts counter increments: an 8-wide row is
exactly two counter blocks, so every trial boundary is jumpable.
"""

from __future__ import annotations

import numpy as np

DRAWS_PER_TRIAL = 8


def trial_uniforms_block(seed: int, start: int, stop: int) -> np.ndarray:
    """Uniform [0, 1) rows start..stop-1 of this seed's (n, DRAWS_PER_TRIAL) table."""
    if not 0 <= start <= stop:
        raise ValueError(f"invalid trial range [{start}, {stop})")
    bitgen = np.random.Philox(key=seed)
    if start:
        bitgen.advance(start * DRAWS_PER_TRIAL // 4)
    return np.random.Generator(bitgen).random((stop - start, DRAWS_PER_TRIAL))
