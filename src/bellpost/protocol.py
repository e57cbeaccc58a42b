"""The three-party post-selection task.

Alice and Bob each draw a basis bit (uniform) and a state bit (from per-basis
priors), send the corresponding single-qubit preparation to Charlie, and keep
their bits.  Charlie measures the pair against the maximally entangled state
and announces c = 1 on that outcome; only announced trials are tallied.  From
the tally come conditional probabilities p(x, y | a, b), correlations E(a, b),
and the CHSH combination S = E(0,0) + E(0,1) + E(1,0) - E(1,1).

This module provides both the sampling path (``sample_tally``, the streaming
driver through which every seeded Monte Carlo run fills a ``Tally``) and the
exact path (closed-form post-selected statistics), plus the
basis-independence check that makes the task nontrivial and bootstrap error
bars for sampled runs.

``sample_tally`` splits the trial range into one contiguous share per CPU the
process may run on and streams each share in blocks of ``BLOCK_TRIALS`` trials
on its own thread; numpy releases the GIL for the draws and the array work, so
the shares run in parallel.  Memory is O(CPUs x a few MiB) whatever the trial
count, and since a trial's words depend only on (seed, trial index), the
tally does not depend on the CPU count.

The transforms cut the raw Philox words of each trial directly (rng module):
a fair coin is a word's top bit, and ``u >= p`` on the uniform a word stands
for is ``(w >> 11) >= threshold(p)``, with every threshold computed once per
run.  No word is converted to a float, and the tally is the one the float
comparisons give, bit for bit.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .qcore import (
    EXACT_TOL,
    DensityMatrix,
    Projector,
    PureState,
    canonical_angle,
    born_prob,
    ket_theta,
    mixture_density,
    phi_plus,
    tensor,
    trace_distance,
)
from .rng import threshold, trial_uniforms_block

PI = math.pi


class EmptyCellError(Exception):
    """A basis pair has zero selected incidents, so E(a, b) is undefined."""

    def __init__(self, a: int, b: int):
        self.a = int(a)
        self.b = int(b)
        super().__init__(f"no selected incidents for basis pair (a={self.a}, b={self.b})")


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
        angles = np.vectorize(canonical_angle)(angles)
        if np.any(priors < 0.0):
            raise ValueError("state priors must be nonnegative")
        sums = priors.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > EXACT_TOL):
            raise ValueError(f"state priors must sum to 1 per basis, got row sums {sums.tolist()}")
        angles.setflags(write=False)
        priors.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "priors", priors)

    @classmethod
    def uniform(cls, angles) -> "PreparationScheme":
        """Scheme with the given angles and priors 1/2 for every state."""
        return cls(np.array(angles, dtype=np.float64), np.full((2, 2), 0.5))

    def state(self, a: int, x: int) -> PureState:
        return ket_theta(float(self.angles[a, x]))

    def basis_mixture(self, a: int) -> DensityMatrix:
        """The ensemble an observer sees when basis ``a`` was drawn."""
        return mixture_density([(float(self.priors[a, x]), self.state(a, x)) for x in (0, 1)])


def canonical_schemes() -> tuple[PreparationScheme, PreparationScheme]:
    """The scheme pair attaining the maximal post-selected CHSH value 2*sqrt(2).

    Alice sends |0>, |1> in basis 0 and |+>, |-> in basis 1.  Bob sends the
    pi/4-rotated pairs, with the basis-1 state labelled y = 0 placed at
    7*pi/4.  With Bob's basis-1 labels exchanged (``bob_labels_swapped``)
    the printed CHSH combination evaluates to 0 instead of 2*sqrt(2); the
    assignment frozen here is the one validated against the exact
    post-selected statistics.
    """
    alice = PreparationScheme.uniform([[0.0, PI], [PI / 2, 3 * PI / 2]])
    bob = PreparationScheme.uniform([[PI / 4, 5 * PI / 4], [7 * PI / 4, 3 * PI / 4]])
    return alice, bob


def bob_labels_swapped() -> tuple[PreparationScheme, PreparationScheme]:
    """Canonical pair with Bob's basis-1 state labels exchanged (S = 0)."""
    bob = PreparationScheme.uniform([[PI / 4, 5 * PI / 4], [3 * PI / 4, 7 * PI / 4]])
    return canonical_schemes()[0], bob


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


# Trials per block of the streaming sampler: 16 Ki rows of DRAWS_PER_TRIAL
# uint64 words is 1 MiB.  Each thread holds one block and the transform's
# temporaries, so the sampler's memory is O(CPUs x a few MiB) whatever the
# trial count.
BLOCK_TRIALS = 1 << 14


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _stream_counts(seed: int, start: int, stop: int, selected_cells) -> np.ndarray:
    """Flat 16-cell counts of the announced trials start..stop-1, one block at a time."""
    counts = np.zeros(32, dtype=np.int64)
    for lo in range(start, stop, BLOCK_TRIALS):
        w = trial_uniforms_block(seed, lo, min(lo + BLOCK_TRIALS, stop))
        counts += np.bincount(selected_cells(w), minlength=32)
    return counts[:16]


def sample_tally(seed: int, n_trials: int, selected_cells) -> Tally:
    """Stream trials 0..n_trials-1 into a Tally, one share per allowed CPU.

    ``selected_cells(w)`` maps a block of per-trial rows of raw Philox words
    (rng module) to one int64 index per trial: the flat cell
    ((a*2 + b)*2 + x)*2 + y of an announced trial, and that cell + 16 for a
    trial Charlie did not announce.  Indices 16..31 are counted and dropped.
    It is called from several threads at once, so it must be thread-safe:
    read its captured arrays, never write them.

    The range is split into ``max(1, min(CPUs, n_trials // BLOCK_TRIALS))``
    contiguous shares.  The calling thread streams the first share and one
    helper thread each of the others; an exception raised in a helper is
    re-raised here once every helper has finished.  A trial's row depends only
    on (seed, trial index), so the tally depends neither on the block size nor
    on the number of shares.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    shares = max(1, min(_cpu_count(), n_trials // BLOCK_TRIALS))
    bounds = [n_trials * i // shares for i in range(shares + 1)]
    results: list = [None] * shares

    def stream(i: int) -> None:
        try:
            results[i] = _stream_counts(seed, bounds[i], bounds[i + 1], selected_cells)
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
    return Tally(sum(results).reshape(2, 2, 2, 2), n_trials)


@dataclass(frozen=True)
class CondProbTable:
    """Conditional probabilities; ``probs[a, b, x, y]`` is p(x, y | a, b)."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=np.float64)
        if probs.shape != (2, 2, 2, 2):
            raise ValueError(f"probability table must have shape (2,2,2,2), got {probs.shape}")
        if np.any(probs < 0.0):
            raise ValueError("conditional probabilities must be nonnegative")
        sums = probs.sum(axis=(2, 3))
        if np.any(np.abs(sums - 1.0) > EXACT_TOL):
            raise ValueError(f"p(x,y|a,b) must sum to 1 per basis pair, got {sums.tolist()}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


def conditional_probs(t: Tally) -> CondProbTable:
    """Normalize tallied counts per basis pair; raises EmptyCellError on zeros."""
    totals = t.counts.sum(axis=(2, 3))
    for a in (0, 1):
        for b in (0, 1):
            if totals[a, b] == 0:
                raise EmptyCellError(a, b)
    return CondProbTable(t.counts / totals[:, :, None, None])


def correlation(p: CondProbTable, a: int, b: int) -> float:
    """E(a, b) with outcome values 1 - 2x and 1 - 2y."""
    cell = p.probs[a, b]
    return float(cell[0, 0] + cell[1, 1] - cell[0, 1] - cell[1, 0])


def bell_s(e00: float, e01: float, e10: float, e11: float) -> float:
    """The CHSH combination E(0,0) + E(0,1) + E(1,0) - E(1,1), no absolute value."""
    for name, e in (("E(0,0)", e00), ("E(0,1)", e01), ("E(1,0)", e10), ("E(1,1)", e11)):
        if abs(e) > 1.0 + EXACT_TOL:
            raise ValueError(f"{name} = {e!r} outside [-1, 1]")
    return float(e00 + e01 + e10 - e11)


_PHI_PLUS_PROJ = Projector.onto(phi_plus())


def selection_probability_table(
    scheme_a: PreparationScheme, scheme_b: PreparationScheme
) -> np.ndarray:
    """Charlie's acceptance probability for each (a, b, x, y) preparation pair."""
    table = np.zeros((2, 2, 2, 2))
    for a in (0, 1):
        for b in (0, 1):
            for x in (0, 1):
                for y in (0, 1):
                    pair = tensor(scheme_a.state(a, x), scheme_b.state(b, y))
                    table[a, b, x, y] = born_prob(pair, _PHI_PLUS_PROJ)
    return table


def exact_postselected(
    scheme_a: PreparationScheme, scheme_b: PreparationScheme
) -> tuple[CondProbTable, np.ndarray]:
    """Closed-form post-selected statistics, no sampling.

    Returns the exact conditional table and the per-(a, b) selection rates
    (probability that a trial with that basis pair is announced).  Rates at
    rounding-noise level (below 1e-12) count as empty: they are zero up to the
    precision of the underlying Born probabilities.
    """
    sel = selection_probability_table(scheme_a, scheme_b)
    weights = scheme_a.priors[:, None, :, None] * scheme_b.priors[None, :, None, :] * sel
    rates = weights.sum(axis=(2, 3))
    for a in (0, 1):
        for b in (0, 1):
            if rates[a, b] <= EXACT_TOL:
                raise EmptyCellError(a, b)
    return CondProbTable(weights / rates[:, :, None, None]), rates


def table_s(table: CondProbTable) -> float:
    """The CHSH value of a conditional probability table."""
    return bell_s(*(correlation(table, a, b) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))))


def exact_s(scheme_a: PreparationScheme, scheme_b: PreparationScheme) -> float:
    """The exact post-selected CHSH value for a scheme pair."""
    return table_s(exact_postselected(scheme_a, scheme_b)[0])


def check_basis_independence(scheme: PreparationScheme, tol: float) -> tuple[float, bool]:
    """Trace distance between the two basis ensembles, and whether it passes tol."""
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    distance = trace_distance(scheme.basis_mixture(0), scheme.basis_mixture(1))
    return distance, distance <= tol


# Column layout of a prepare-and-measure trial's row of words (see
# rng.DRAWS_PER_TRIAL): 0 -> a, 1 -> b, 2 -> x, 3 -> y, 4 -> Charlie's
# acceptance.  Columns 5-7 are reserved so all samplers share one row width.
_COL_A, _COL_B, _COL_X, _COL_Y, _COL_C = range(5)


def prepare_and_measure(priors_a: np.ndarray, priors_b: np.ndarray, accept: np.ndarray):
    """The ``sample_tally`` transform of a prepare-and-measure trial.

    The basis bits are fair coins, the state bits follow ``priors_a[a]`` and
    ``priors_b[b]``, and Charlie announces with probability
    ``accept[a, b, x, y]``.  The transform returns each trial's flat cell,
    plus 16 when Charlie does not announce it.
    """
    cut_a = threshold(priors_a[:, 0])
    cut_b = threshold(priors_b[:, 0])
    cut_accept = threshold(accept).ravel()

    def selected_cells(w: np.ndarray) -> np.ndarray:
        a = (w[:, _COL_A] >> 63).view(np.int64)
        b = (w[:, _COL_B] >> 63).view(np.int64)
        x = (w[:, _COL_X] >> 11) >= cut_a.take(a)
        y = (w[:, _COL_Y] >> 11) >= cut_b.take(b)
        cell = ((a * 2 + b) * 2 + x) * 2 + y
        rejected = (w[:, _COL_C] >> 11) >= cut_accept.take(cell)
        return cell + 16 * rejected

    return selected_cells


def run_quantum_mc(
    scheme_a: PreparationScheme, scheme_b: PreparationScheme, n_trials: int, seed: int
) -> Tally:
    """Sample the quantum task; deterministic in (schemes, n_trials, seed)."""
    sel = selection_probability_table(scheme_a, scheme_b)
    return sample_tally(seed, n_trials, prepare_and_measure(scheme_a.priors, scheme_b.priors, sel))


@dataclass(frozen=True)
class BellReport:
    """Correlations, the CHSH value, and bootstrap standard errors.

    ``se_e`` / ``se_s`` are None when error estimation was not requested
    (bootstrap_resamples = 0).
    """

    e: np.ndarray
    s: float
    se_e: np.ndarray | None
    se_s: float | None
    n_total: int
    n_selected: int

    def __post_init__(self) -> None:
        e = np.array(self.e, dtype=np.float64)
        if e.shape != (2, 2):
            raise ValueError(f"correlation table must have shape (2,2), got {e.shape}")
        if np.any(np.abs(e) > 1.0 + EXACT_TOL):
            raise ValueError("correlations must lie in [-1, 1]")
        if self.s != bell_s(e[0, 0], e[0, 1], e[1, 0], e[1, 1]):
            raise ValueError("stored S does not equal the CHSH combination of stored E values")
        e.setflags(write=False)
        object.__setattr__(self, "e", e)
        if self.se_e is not None:
            se_e = np.array(self.se_e, dtype=np.float64)
            se_e.setflags(write=False)
            object.__setattr__(self, "se_e", se_e)


def bell_report(t: Tally, bootstrap_resamples: int = 1000, seed: int = 0) -> BellReport:
    """Point estimates from a tally plus nonparametric bootstrap errors.

    Counts are resampled multinomially per basis pair, holding each pair's
    selected count fixed; the standard errors are the sample deviations of the
    resampled statistics, so at least 2 resamples are needed.
    """
    if bootstrap_resamples < 0 or bootstrap_resamples == 1:
        raise ValueError(f"bootstrap_resamples must be 0 or >= 2, got {bootstrap_resamples}")
    table = conditional_probs(t)
    e = np.array([[correlation(table, a, b) for b in (0, 1)] for a in (0, 1)])
    s = bell_s(e[0, 0], e[0, 1], e[1, 0], e[1, 1])
    if bootstrap_resamples == 0:
        return BellReport(e, s, None, None, t.n_total, t.n_selected)
    rng = np.random.default_rng(seed)
    reps = np.zeros((bootstrap_resamples, 2, 2))
    for a in (0, 1):
        for b in (0, 1):
            m = int(t.counts[a, b].sum())
            draws = rng.multinomial(m, t.counts[a, b].ravel() / m, size=bootstrap_resamples)
            reps[:, a, b] = (draws[:, 0] + draws[:, 3] - draws[:, 1] - draws[:, 2]) / m
    s_reps = reps[:, 0, 0] + reps[:, 0, 1] + reps[:, 1, 0] - reps[:, 1, 1]
    return BellReport(
        e,
        s,
        reps.std(axis=0, ddof=1),
        float(s_reps.std(ddof=1)),
        t.n_total,
        t.n_selected,
    )
