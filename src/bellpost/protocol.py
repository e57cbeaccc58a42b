"""The three-party post-selection task.

Alice and Bob each draw a basis bit (uniform) and a state bit (from per-basis
priors), send the corresponding single-qubit preparation to Charlie, and keep
their bits.  Charlie measures the pair against the maximally entangled state
and announces c = 1 on that outcome; only announced trials are tallied.  From
the tally come conditional probabilities p(x, y | a, b), correlations E(a, b),
and the CHSH combination S = E(0,0) + E(0,1) + E(1,0) - E(1,1).

``postselect`` is the one reduction from [a, b, x, y] weights (tallied
counts, exact scheme weights, or a swap joint's c = 1 slice) to
p(x, y | a, b), and the one place an empty basis pair raises
EmptyCellError; ``correlations`` turns its table into every E(a, b) at once.

This module provides both the sampling path (``sample_tally``, the streaming
driver through which every seeded Monte Carlo run fills a ``Tally``) and the
exact path (closed-form post-selected statistics), plus the
basis-independence check that makes the task nontrivial and the closed-form
error bars and violation p-value of sampled runs.

``sample_tally`` splits the trial range into contiguous shares of at least
``SHARE_TRIALS`` trials, at most one per CPU the calling thread may run on.
Each share's thread jumps one PCG64DXSM generator to the share's first trial
and streams it in blocks of ``BLOCK_TRIALS`` trials.  numpy releases the GIL
for the draws and the array work, but the threads still hand the GIL back and
forth at every numpy call of every block, and starting one costs about
0.1 ms, so a smaller run streams on the calling thread alone.  Memory is
O(CPUs x a few MiB) whatever the trial count, and since a trial's word
depends only on (seed, trial index), the tally depends neither on the CPU
count nor on the share count.

A strategy fixes only its announced law W[a, b, x, y] = P(x, y, c = 1 | a, b):
``announced_weights`` here, ``lhv.announced_weights`` and
``swap.joint_distribution`` build it.  Its exact result is ``postselect(W)``,
and a sampled mode hands ``sample_tally`` W itself.  The bases are fair
coins, so a trial draws W / 4; its outcome is one of 17, an announced
cell or "not announced", drawn from one raw PCG64DXSM word (rng module)
through a 32-column alias table (Walker, ACM TOMS 3, 253, 1977;
Vose, IEEE TSE 17, 972, 1991): bits 0-4 choose the column and bits 11-63,
independent of them, make its 53-bit cut.  Trials are counted by (column,
kept), and one exact fold maps the counts to outcomes; no word becomes a float.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .qcore import EXACT_TOL
from .rng import threshold, trial_stream

PI = math.pi
TWO_PI = 2.0 * PI


class EmptyCellError(Exception):
    """A basis pair has zero selected incidents, so E(a, b) is undefined."""

    def __init__(self, a: int, b: int):
        self.a = int(a)
        self.b = int(b)
        super().__init__(f"no selected incidents for basis pair (a={self.a}, b={self.b})")


def canonical_angle(theta) -> np.ndarray:
    """Reduce angles in radians, elementwise, to the canonical range [0, 2*pi).

    C ``fmod`` keeps the sign of ``theta``; a negative remainder wraps up by
    2 pi, and one a rounding step below zero wraps to 2 pi and then to 0.
    """
    t = np.fmod(theta, TWO_PI)
    t = np.where(t < 0.0, t + TWO_PI, t)
    return np.where(t >= TWO_PI, 0.0, t)


@dataclass(frozen=True)
class PreparationScheme:
    """Per-basis pair of single-qubit preparations with state priors.

    ``angles[a, x]`` is the meridian angle of the state sent when basis ``a``
    draws state index ``x``; ``priors[a, x]`` is the probability of ``x`` given
    ``a``.  The two bases themselves are always drawn with probability 1/2
    each; only the state priors are configurable.
    """

    angles: np.ndarray
    priors: np.ndarray

    def __post_init__(self) -> None:
        angles = np.array(self.angles, dtype=np.float64)
        priors = np.array(self.priors, dtype=np.float64)
        if angles.shape != (2, 2) or priors.shape != (2, 2):
            raise ValueError("scheme requires 2x2 angle and prior tables (basis x state)")
        if not np.all(np.isfinite(angles)):
            raise ValueError("state angles must be finite")
        angles = canonical_angle(angles)
        if not np.all(priors >= 0.0):
            raise ValueError("state priors must be nonnegative")
        sums = priors.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= EXACT_TOL):
            raise ValueError(f"state priors must sum to 1 per basis, got row sums {sums.tolist()}")
        angles.setflags(write=False)
        priors.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "priors", priors)

    @classmethod
    def uniform(cls, angles) -> "PreparationScheme":
        """Scheme with the given angles and priors 1/2 for every state."""
        return cls(np.array(angles, dtype=np.float64), np.full((2, 2), 0.5))


# Built once: the schemes are frozen and their arrays read-only, so every
# caller can share them.
_CANONICAL = (
    PreparationScheme.uniform([[0.0, PI], [PI / 2, 3 * PI / 2]]),
    PreparationScheme.uniform([[PI / 4, 5 * PI / 4], [7 * PI / 4, 3 * PI / 4]]),
)
_BOB_LABELS_SWAPPED = (
    _CANONICAL[0],
    PreparationScheme.uniform([[PI / 4, 5 * PI / 4], [3 * PI / 4, 7 * PI / 4]]),
)


def canonical_schemes() -> tuple[PreparationScheme, PreparationScheme]:
    """The scheme pair attaining the maximal post-selected CHSH value 2*sqrt(2).

    Alice sends |0>, |1> in basis 0 and |+>, |-> in basis 1.  Bob sends the
    pi/4-rotated pairs, with the basis-1 state labelled y = 0 placed at
    7*pi/4.  With Bob's basis-1 labels exchanged (``bob_labels_swapped``)
    the printed CHSH combination evaluates to 0 instead of 2*sqrt(2); the
    assignment frozen here is the one validated against the exact
    post-selected statistics.  Every call returns the same shared pair.
    """
    return _CANONICAL


def bob_labels_swapped() -> tuple[PreparationScheme, PreparationScheme]:
    """Canonical pair with Bob's basis-1 state labels exchanged (S = 0); Alice's is shared."""
    return _BOB_LABELS_SWAPPED


@dataclass(frozen=True)
class Tally:
    """Post-selected joint counts; ``counts[a, b, x, y]`` is n(x, y; a, b)."""

    counts: np.ndarray
    n_total: int

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)
        if counts.shape != (2, 2, 2, 2):
            raise ValueError(f"tally counts must have shape (2,2,2,2), got {counts.shape}")
        if np.any(counts < 0):
            raise ValueError("tally counts must be nonnegative")
        if int(counts.sum()) > self.n_total:
            raise ValueError(
                f"selected count {int(counts.sum())} exceeds total trials {self.n_total}"
            )
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n_total", int(self.n_total))

    @property
    def n_selected(self) -> int:
        return int(self.counts.sum())


# Trials per block of the streaming sampler: 16 Ki uint64 words, one a trial,
# is 128 KiB.  A share draws one block at a time from its generator, so the
# sampler's memory is O(CPUs x a few MiB) whatever the trial count.
BLOCK_TRIALS = 1 << 14

# Trials per share: a run splits only from 2 x SHARE_TRIALS trials on.  A
# second share costs a thread start and a GIL hand-off at every numpy call
# of every block, and below 1e5 trials it lost to one share on a shared
# 2-CPU VM.  The value sits above the largest such run and below 1e7; where
# between them two shares start to pay depends on the host and is not
# settled.
SHARE_TRIALS = 1 << 17


def _cpu_count() -> int:
    """The number of CPUs the calling thread may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _stream_counts(seed: int, start: int, stop: int, cut: np.ndarray) -> np.ndarray:
    """Counts of trials start..stop-1 in bins ``col + 32 * kept``, a block at a time."""
    counts = np.zeros(64, dtype=np.int64)
    words = trial_stream(seed, start, stop)
    for lo in range(start, stop, BLOCK_TRIALS):
        w = words.random_raw(min(BLOCK_TRIALS, stop - lo))
        col = (w & 31).view(np.int64)
        kept = (w >> 11) < cut.take(col)
        counts += np.bincount(col + 32 * kept, minlength=64)
    return counts


def sample_tally(seed: int, n_trials: int, weights) -> Tally:
    """Stream trials 0..n_trials-1 into a Tally, in shares of at least SHARE_TRIALS.

    ``weights`` are the announced law W[a, b, x, y] = P(x, y, c = 1 | a, b).
    The bases are fair coins, so one trial is announced in cell (a, b, x, y)
    with probability W / 4; ``alias_table`` of that draws its 17-outcome law,
    with "not announced" counted and dropped.  A trial's word picks the
    column ``w & 31``, which keeps itself when ``(w >> 11) < cut[col]`` and
    otherwise gives way to ``alias[col]``.  Each share counts its trials by (column, kept) in 64
    bins, and the summed bins are folded once, exactly in integers, into
    the outcomes: kept trials to their column, the rest to its alias.

    The range is split into ``max(1, min(CPUs, n_trials // SHARE_TRIALS))``
    contiguous shares, so a run of fewer than 2 x SHARE_TRIALS trials
    streams on the calling thread alone and starts no thread.  The calling
    thread streams the first share and one helper thread each of the
    others, each from its own generator jumped once to the share's first
    trial; an exception raised in a helper is re-raised here once every
    helper has finished.  A trial's word depends only on (seed, trial
    index), so the tally depends neither on the block size nor on the
    number of shares.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    cut, alias = alias_table(0.25 * np.asarray(weights))
    shares = max(1, min(_cpu_count(), n_trials // SHARE_TRIALS))
    bounds = [n_trials * i // shares for i in range(shares + 1)]
    results: list = [None] * shares

    def stream(i: int) -> None:
        try:
            results[i] = _stream_counts(seed, bounds[i], bounds[i + 1], cut)
        except BaseException as exc:  # handed to the caller, which re-raises it
            results[i] = exc

    helpers = [threading.Thread(target=stream, args=(i,)) for i in range(1, shares)]
    for t in helpers:
        t.start()
    stream(0)
    for t in helpers:
        t.join()
    for r in results:
        if isinstance(r, BaseException):
            raise r
    aliased, kept = sum(results).reshape(2, 32)
    np.add.at(kept, alias, aliased)
    return Tally(kept[:16].reshape(2, 2, 2, 2), n_trials)


@dataclass(frozen=True)
class CondProbTable:
    """Conditional probabilities; ``probs[a, b, x, y]`` is p(x, y | a, b)."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=np.float64)
        if probs.shape != (2, 2, 2, 2):
            raise ValueError(f"probability table must have shape (2,2,2,2), got {probs.shape}")
        if not np.all(probs >= 0.0):
            raise ValueError("conditional probabilities must be nonnegative")
        sums = probs.sum(axis=(2, 3))
        if not np.all(np.abs(sums - 1.0) <= EXACT_TOL):
            raise ValueError(f"p(x,y|a,b) must sum to 1 per basis pair, got {sums.tolist()}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


def postselect(weights) -> tuple[CondProbTable, np.ndarray]:
    """Condition [a, b, x, y] weights on each basis pair: p(x, y | a, b) and the totals.

    ``weights`` are nonnegative: tallied counts, exact probabilities, or the
    c = 1 slice of a swap joint.  The first basis pair, in row-major order,
    whose total is at most EXACT_TOL raises EmptyCellError; for counts that
    means a total of zero.
    """
    weights = np.asarray(weights)
    totals = weights.sum(axis=(2, 3))
    empty = np.argwhere(totals <= EXACT_TOL)
    if empty.size:
        raise EmptyCellError(*empty[0])
    return CondProbTable(weights / totals[:, :, None, None]), totals


def correlations(table: CondProbTable) -> np.ndarray:
    """The (2, 2) array of E(a, b), with outcome values 1 - 2x and 1 - 2y."""
    p = table.probs
    return p[..., 0, 0] + p[..., 1, 1] - p[..., 0, 1] - p[..., 1, 0]


def bell_s(e00: float, e01: float, e10: float, e11: float) -> float:
    """The CHSH combination E(0,0) + E(0,1) + E(1,0) - E(1,1), no absolute value."""
    for name, e in (("E(0,0)", e00), ("E(0,1)", e01), ("E(1,0)", e10), ("E(1,1)", e11)):
        if not abs(e) <= 1.0 + EXACT_TOL:
            raise ValueError(f"{name} = {e!r} outside [-1, 1]")
    return float(e00 + e01 + e10 - e11)


def selection_probability_table(angles_a: np.ndarray, angles_b: np.ndarray) -> np.ndarray:
    """Charlie's |phi+> acceptance |<phi+|u_ax (x) v_by>|^2 for every (a, b, x, y).

    ``angles_a[a, x]`` and ``angles_b[b, y]`` are the angles of the real kets
    u_ax and v_by, the ket at angle t being cos(t/2)|0> + sin(t/2)|1>.  So
    <phi+|u_t (x) v_s> = (cos(t/2) cos(s/2) + sin(t/2) sin(s/2)) / sqrt(2) =
    cos((t - s)/2) / sqrt(2), whose square is (1 + cos(t - s)) / 4.  Every
    value lies in [0, 1/2], so none needs clamping.
    """
    return 0.25 * (1.0 + np.cos(angles_a[:, None, :, None] - angles_b[None, :, None, :]))


def announced_weights(scheme_a: PreparationScheme, scheme_b: PreparationScheme) -> np.ndarray:
    """The announced law W[a, b, x, y] = P(x, y, c = 1 | a, b) of a scheme pair.

    W is the product of the state priors and Charlie's |phi+> acceptance,
    ``selection_probability_table`` of the schemes' angles.
    """
    sel = selection_probability_table(scheme_a.angles, scheme_b.angles)
    return scheme_a.priors[:, None, :, None] * scheme_b.priors[None, :, None, :] * sel


def exact_postselected(
    scheme_a: PreparationScheme, scheme_b: PreparationScheme
) -> tuple[CondProbTable, np.ndarray]:
    """Closed-form post-selected statistics, no sampling: ``postselect`` of the announced law.

    Returns the exact conditional table and the per-(a, b) selection rates
    (probability that a trial with that basis pair is announced).  Rates at
    rounding-noise level (below 1e-12) count as empty: they are zero up to the
    precision of the underlying Born probabilities.
    """
    return postselect(announced_weights(scheme_a, scheme_b))


def table_s(table: CondProbTable) -> float:
    """The CHSH value of a conditional probability table."""
    return bell_s(*correlations(table).ravel())


def exact_s(scheme_a: PreparationScheme, scheme_b: PreparationScheme) -> float:
    """The exact post-selected CHSH value for a scheme pair."""
    return table_s(exact_postselected(scheme_a, scheme_b)[0])


def check_basis_independence(scheme: PreparationScheme, tol: float) -> tuple[float, bool]:
    """Trace distance between the two basis ensembles, and whether it passes tol.

    The real ket at angle t has Bloch vector (sin t, cos t), so basis a's
    ensemble has r_a = sum_x p_ax (sin t_ax, cos t_ax), and the trace distance
    between two qubit states is half the distance between their Bloch vectors.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    t = scheme.angles
    r = np.sum(scheme.priors[..., None] * np.stack([np.sin(t), np.cos(t)], axis=-1), axis=1)
    distance = 0.5 * math.hypot(*(r[0] - r[1]))
    return distance, distance <= tol


def alias_table(weights) -> tuple[np.ndarray, np.ndarray]:
    """Walker's 32-column alias table (cut, alias) of one trial's 17-outcome law.

    ``weights`` are one trial's 16 announced probabilities [a, b, x, y], W / 4
    for fair bases (``sample_tally``); outcome 16, "not announced", gets the
    rest, and columns 17..31 get 0.  Column ``col`` keeps itself with
    probability ``cut[col] * 2**-53`` and otherwise gives way to
    ``alias[col]``.  Vose's algorithm builds it on Python floats; a
    column left over when a list runs out keeps itself whole.  A weight a
    rounding step below 0 draws as 0, and one of 0 is never drawn: it is
    never large, so never an alias, and its cut is 0.  NaN, or a sum above 1
    beyond the rounding of two prior sums, raises ValueError.
    """
    p = np.ravel(weights).tolist()
    total = math.fsum(p)
    if not total <= 1.0 + 4.0 * EXACT_TOL:
        raise ValueError(f"one trial's announced weights must sum to at most 1, got {total!r}")
    scaled = [32.0 * q for q in p] + [32.0 * max(0.0, 1.0 - total)] + [0.0] * 15
    small = [i for i, q in enumerate(scaled) if q < 1.0]
    large = [i for i, q in enumerate(scaled) if q >= 1.0]
    keep, alias = [1.0] * 32, [0] * 32
    while small and large:
        s, g = small.pop(), large[-1]
        keep[s], alias[s] = scaled[s], g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        if scaled[g] < 1.0:
            small.append(large.pop())
    return threshold(keep), np.array(alias, dtype=np.int64)


@dataclass(frozen=True)
class BellReport:
    """Correlations, the CHSH value, their standard errors, and the violation p-value."""

    e: np.ndarray
    s: float
    se_e: np.ndarray
    se_s: float
    p_value: float
    n_total: int
    n_selected: int

    def __post_init__(self) -> None:
        e = np.array(self.e, dtype=np.float64)
        if e.shape != (2, 2):
            raise ValueError(f"correlation table must have shape (2,2), got {e.shape}")
        if not np.all(np.abs(e) <= 1.0 + EXACT_TOL):
            raise ValueError("correlations must lie in [-1, 1]")
        if self.s != bell_s(e[0, 0], e[0, 1], e[1, 0], e[1, 1]):
            raise ValueError("stored S does not equal the CHSH combination of stored E values")
        se_e = np.array(self.se_e, dtype=np.float64)
        e.setflags(write=False)
        se_e.setflags(write=False)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "se_e", se_e)


def bell_report(t: Tally) -> BellReport:
    """Point estimates from a tally, with closed-form errors and a p-value.

    Given the selected count m of a basis pair, its outcome products are
    i.i.d. in {-1, +1}, so se(E) = sqrt((1 - E^2) / m), which is
    2 sqrt(n+ n-) / m^(3/2) in the counts n+ and n- of each sign, and
    se(S) = sqrt(sum se(E)^2).

    ``p_value`` bounds, for any source with |S| <= 2, the chance of an
    estimate at least as far beyond 2 as the observed one, and uses no
    variance estimate.  Hoeffding's inequality on the four cell means gives
    P(|S_hat - S| >= t) <= 2 exp(-t^2 / (2 sum 1/m)); p takes it at
    t = |S_hat| - 2, capped at 1, and p = 1 when |S_hat| <= 2.
    """
    e = correlations(postselect(t.counts)[0])
    s = bell_s(*e.ravel())
    counts = t.counts.astype(np.float64)
    agree = counts[:, :, 0, 0] + counts[:, :, 1, 1]
    differ = counts[:, :, 0, 1] + counts[:, :, 1, 0]
    m = agree + differ
    se_e = 2.0 * np.sqrt(agree * differ) / (m * np.sqrt(m))
    excess = abs(s) - 2.0
    p_value = 1.0
    if excess > 0.0:
        p_value = min(1.0, 2.0 * math.exp(-(excess**2) / (2.0 * float(np.sum(1.0 / m)))))
    return BellReport(
        e, s, se_e, float(np.sqrt(np.sum(se_e**2))), p_value, t.n_total, t.n_selected
    )
