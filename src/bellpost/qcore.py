"""Exact quantum mechanics of real single-qubit preparations, as plain arrays.

Kets, effects and projectors are numpy arrays; the largest is a four-qubit
operator of 16x16 entries, so there is no need for sparsity or factored
representations.  All operations are pure.

Conventions:
  * Qubit 0 is the leftmost tensor factor and the most significant bit of the
    amplitude index.
  * Real-amplitude single-qubit states are parameterized by an angle theta as
    cos(theta/2)|0> + sin(theta/2)|1>.
"""

from __future__ import annotations

import math

import numpy as np

# How far an analytically exact quantity (a probability, a prior sum, a
# selection rate) may stray through rounding.  A looser value would mask bugs:
# every quantity here is simple.
EXACT_TOL = 1e-12

TWO_PI = 2.0 * math.pi

# Amplitudes of the maximally entangled two-qubit state (|00> + |11>)/sqrt(2).
# Read-only, since every caller shares it.
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
PHI_PLUS.setflags(write=False)


class NumericsError(RuntimeError):
    """An internally computed quantity violated its numerical contract."""


def canonical_angle(theta: float) -> float:
    """Reduce an angle in radians to the canonical range [0, 2*pi)."""
    t = math.fmod(float(theta), TWO_PI)
    if t < 0.0:
        t += TWO_PI
    return 0.0 if t >= TWO_PI else t


def _clamp_probability(value):
    """Clamp probabilities to [0, 1] elementwise.

    Rounding may push a probability past a boundary by ~machine epsilon;
    anything farther out than EXACT_TOL, or NaN, is a logic bug, not rounding.
    """
    if not np.all((value >= -EXACT_TOL) & (value <= 1.0 + EXACT_TOL)):
        raise NumericsError(f"probability {value!r} outside [0, 1] beyond rounding tolerance")
    return np.clip(value, 0.0, 1.0)


def _real_kets(angles) -> np.ndarray:
    """Amplitudes (cos(t/2), sin(t/2)) of the real kets at the given angles, on a last axis."""
    half = np.asarray(angles, dtype=np.float64) / 2.0
    return np.stack([np.cos(half), np.sin(half)], axis=-1)


def acceptance_table(effect: np.ndarray, angles_a, angles_b) -> np.ndarray:
    """tr[E (|u_ax><u_ax| (x) |v_by><v_by|)] for every (a, x, b, y), as [a, b, x, y].

    ``effect`` is a 4x4 effect E on two qubits; ``angles_a[a, x]`` and
    ``angles_b[b, y]`` are the angles of the real kets u_ax (``_real_kets``) on
    the left and v_by on the right qubit.  Values within rounding tolerance
    of [0, 1] are clamped into it; any other value raises NumericsError.
    """
    u, v = _real_kets(angles_a), _real_kets(angles_b)
    e = np.asarray(effect).reshape(2, 2, 2, 2)
    return _clamp_probability(np.einsum("axi,byj,ijkl,axk,byl->abxy", u, v, e, u, v).real)
