"""Classical (local-hidden-variable) strategies for the post-selection task.

Basis independence forces both basis ensembles of a classical source onto one
hidden-value distribution.  Each hidden value lambda is then classified by the
pair of states it would represent under either basis, giving four classes per
party and sixteen strategy cells (i, j; k, l) for the pair; Charlie's selection
may depend on (lambda, lambda') but never on the bases.  Under that structure
the post-selected CHSH value is a fixed +/-2-coefficient average over cell
weights, so |S| <= 2 — this module computes the coefficient algebra, the
exhaustive bound and the two random sweeps that back it (over cell weights and
over indeterministic response models, each a block of 1 Ki samples at a time),
the indeterministic (response-average) variant, a simulator that samples a
model's announced law through the shared alias transform, and the trit-valued
discard variant in which per-basis discarding inflates S to the algebraic
maximum 4.

The response-model sweep draws a whole block of models in three generator
calls: the atom counts, the exponentials and the values.  Each model is a flat
Dirichlet over its n atoms with values uniform on [-1, 1]; the stream depends
on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import EXACT_TOL, NumericsError
from .protocol import CondProbTable, EmptyCellError, Tally, correlations, postselect, table_s
from .protocol import announced_cells, sample_tally


class NondeterministicModelError(Exception):
    """Cell classification requires point-mass response distributions."""


def _validate_weights(w, shape) -> np.ndarray:
    w = np.array(w, dtype=np.float64)
    if w.shape != shape:
        raise ValueError(f"weights must have shape {shape}, got {w.shape}")
    if not np.all(w >= 0.0):
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if not abs(total - 1.0) <= EXACT_TOL:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class CellWeights:
    """Normalized weight for each of the 16 strategy cells (i, j; k, l).

    Index (i, j) is Alice's state under basis 0 / basis 1; (k, l) is Bob's.
    """

    w: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", _validate_weights(self.w, (2, 2, 2, 2)))


@dataclass(frozen=True)
class TritCellWeights:
    """Normalized weight for each of the 81 trit-valued strategy cells.

    State indices run over {0, 1, 2}; value 2 marks an outcome the party will
    discard after selection.
    """

    w: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", _validate_weights(self.w, (3, 3, 3, 3)))


def cell_coefficient(i: int, j: int, k: int, l: int) -> int:
    """CHSH coefficient of cell (i, j; k, l); always +2 or -2."""
    for name, v in (("i", i), ("j", j), ("k", k), ("l", l)):
        if v not in (0, 1):
            raise ValueError(f"cell index {name} must be a bit, got {v!r}")
    si, sj, sk, sl = 1 - 2 * i, 1 - 2 * j, 1 - 2 * k, 1 - 2 * l
    return si * (sk + sl) + sj * (sk - sl)


_COEFFS = np.array(
    [
        [[[cell_coefficient(i, j, k, l) for l in (0, 1)] for k in (0, 1)] for j in (0, 1)]
        for i in (0, 1)
    ],
    dtype=np.float64,
)


def s_from_cells(w: CellWeights) -> float:
    """The CHSH value of a cell-weight distribution; |S| <= 2 by construction."""
    return float(np.sum(_COEFFS * w.w))


def max_abs_s_deterministic() -> tuple[float, tuple[int, int, int, int]]:
    """Maximum |S| over all 16 deterministic strategies, with a witness cell.

    S is linear in the cell weights, so the extreme points of the weight
    simplex (the point masses) suffice, and a point mass's S is its cell's
    coefficient.  Ties resolve to the lowest cell index.
    """
    magnitudes = np.abs(_COEFFS)
    witness = np.unravel_index(np.argmax(magnitudes), magnitudes.shape)
    return float(magnitudes[witness]), tuple(int(v) for v in witness)


# Samples per block of both random sweeps: 1 Ki rows of 16 cell weights is
# 128 KiB, and 1 Ki zero-padded response models are 200 KiB, so neither
# sweep's memory grows with its sample count.
_SWEEP_BLOCK = 1 << 10


def random_max_abs_s(rng: np.random.Generator, samples: int) -> float:
    """Largest |S| over ``samples`` uniformly random cell-weight distributions.

    The rows are Dirichlet(1, ..., 1) draws, made a block at a time; a block
    call reads the generator's stream exactly as that many single draws
    would.  Every row is checked for nonnegativity and a sum of 1, as
    ``CellWeights`` checks its weights.
    """
    coeffs = _COEFFS.ravel()
    best = 0.0
    for start in range(0, samples, _SWEEP_BLOCK):
        w = rng.dirichlet(np.ones(16), size=min(_SWEEP_BLOCK, samples - start))
        if not np.all((w >= 0.0) & (np.abs(w.sum(axis=1, keepdims=True) - 1.0) <= EXACT_TOL)):
            raise NumericsError("a random cell-weight draw is not a distribution")
        best = max(best, float(np.abs((w * coeffs).sum(axis=1)).max()))
    return best


@dataclass(frozen=True)
class ResponseModel:
    """Finite mixture of response atoms for the indeterministic bound.

    Each atom carries a weight and the conditional outcome averages
    (f0, f1) for Alice's bases and (g0, g1) for Bob's — averages of 1 - 2x
    (1 - 2y) given the basis and the hidden-value pair, so each lies in
    [-1, 1].  The CHSH value is linear in the mixture.
    """

    weights: np.ndarray
    f0: np.ndarray
    f1: np.ndarray
    g0: np.ndarray
    g1: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        n = None
        for name in ("weights", "f0", "f1", "g0", "g1"):
            arr = np.array(getattr(self, name), dtype=np.float64).reshape(-1)
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise ValueError("response model fields must have equal length")
            arrays[name] = arr
        if n == 0:
            raise ValueError("response model requires at least one atom")
        if not np.all(arrays["weights"] >= 0.0):
            raise ValueError("atom weights must be nonnegative")
        total = float(arrays["weights"].sum())
        if not abs(total - 1.0) <= EXACT_TOL:
            raise ValueError(f"atom weights must sum to 1, got {total!r}")
        for name in ("f0", "f1", "g0", "g1"):
            if not np.all(np.abs(arrays[name]) <= 1.0):
                raise ValueError(f"response values in {name} must lie in [-1, 1]")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def s_indeterministic(m: ResponseModel) -> float:
    """CHSH value of a response mixture: E[f0(g0+g1) + f1(g0-g1)]; |S| <= 2."""
    return float(np.sum(m.weights * (m.f0 * (m.g0 + m.g1) + m.f1 * (m.g0 - m.g1))))


# A random response model of the indeterministic sweep has 1 to 5 atoms.
_MAX_ATOMS = 5


def random_max_abs_s_indeterministic(rng: np.random.Generator, samples: int) -> float:
    """Largest |S| over ``samples`` random response models, a block at a time.

    A block of k models makes three generator calls: the atom counts
    ``n = rng.integers(1, 6, size=(k, 1))``, the exponentials
    ``w = rng.standard_exponential((k, 5))`` and the values
    ``v = rng.random((4, k, 5))``.  The atoms at and past each row's n get
    weight 0, and the rest are normalized by the row sum, so each row is a
    flat Dirichlet over its n atoms (Devroye 1986, ch. XI); ``2v - 1`` is
    uniform on [-1, 1].  The stream therefore depends on the block size.
    Each row is checked as ``ResponseModel`` checks a model and summed as
    ``s_indeterministic`` sums one.
    """
    best = 0.0
    for start in range(0, samples, _SWEEP_BLOCK):
        k = min(_SWEEP_BLOCK, samples - start)
        n = rng.integers(1, _MAX_ATOMS + 1, size=(k, 1))
        w = rng.standard_exponential((k, _MAX_ATOMS))
        v = rng.random((4, k, _MAX_ATOMS))
        w[np.arange(_MAX_ATOMS) >= n] = 0.0
        w /= w.sum(axis=1, keepdims=True)
        v *= 2.0
        v -= 1.0
        if not (
            np.all(w >= 0.0)
            and np.all(np.abs(w.sum(axis=1) - 1.0) <= EXACT_TOL)
            and np.all((v >= -1.0) & (v <= 1.0))
        ):
            raise NumericsError("a random response model is not a valid mixture")
        f0, f1, g0, g1 = v
        s = np.sum(w * (f0 * (g0 + g1) + f1 * (g0 - g1)), axis=1)
        best = max(best, float(np.abs(s).max()))
        del n, w, v, f0, f1, g0, g1, s  # so the next block's arrays do not stack on these
    return best


def _validate_distribution(values, probs, label: str) -> tuple[np.ndarray, np.ndarray]:
    values = np.array(values, dtype=np.float64).reshape(-1)
    probs = np.array(probs, dtype=np.float64).reshape(-1)
    if values.size == 0 or values.size != probs.size:
        raise ValueError(f"{label}: values and probs must be equal-length and nonempty")
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError(f"{label}: hidden values must lie in [0, 1]")
    if not (np.all(probs >= 0.0) and abs(float(probs.sum()) - 1.0) <= EXACT_TOL):
        raise ValueError(f"{label}: probabilities must be nonnegative and sum to 1")
    values.setflags(write=False)
    probs.setflags(write=False)
    return values, probs


@dataclass(frozen=True)
class LhvSimModel:
    """Generative local model with a basis-blind selection rule.

    Hidden values are finite discrete distributions (fully general here, since
    the statistics depend only on the induced cell/response weights).
    ``response_a[a, i]`` is P(x = 1 | basis a, lambda_i) and likewise
    ``response_b``; ``select[i, j]`` is the probability Charlie announces c = 1
    for the pair (lambda_i, lambda'_j).  Selection takes no basis argument, so
    basis independence of the source is structural, not checked.  lambda and
    lambda' are drawn independently, and ``simulate_lhv`` samples the model
    from its announced weights.
    """

    lambda_values: np.ndarray
    lambda_probs: np.ndarray
    lambda_prime_values: np.ndarray
    lambda_prime_probs: np.ndarray
    response_a: np.ndarray
    response_b: np.ndarray
    select: np.ndarray

    def __post_init__(self) -> None:
        lv, lp = _validate_distribution(self.lambda_values, self.lambda_probs, "lambda")
        pv, pp = _validate_distribution(
            self.lambda_prime_values, self.lambda_prime_probs, "lambda_prime"
        )
        ra = np.array(self.response_a, dtype=np.float64)
        rb = np.array(self.response_b, dtype=np.float64)
        sel = np.array(self.select, dtype=np.float64)
        if ra.shape != (2, lv.size):
            raise ValueError(f"response_a must have shape (2, {lv.size}), got {ra.shape}")
        if rb.shape != (2, pv.size):
            raise ValueError(f"response_b must have shape (2, {pv.size}), got {rb.shape}")
        if sel.shape != (lv.size, pv.size):
            raise ValueError(f"select must have shape ({lv.size}, {pv.size}), got {sel.shape}")
        for name, arr in (("response_a", ra), ("response_b", rb), ("select", sel)):
            if not np.all((arr >= 0.0) & (arr <= 1.0)):
                raise ValueError(f"{name} entries must be probabilities in [0, 1]")
            arr.setflags(write=False)
        object.__setattr__(self, "lambda_values", lv)
        object.__setattr__(self, "lambda_probs", lp)
        object.__setattr__(self, "lambda_prime_values", pv)
        object.__setattr__(self, "lambda_prime_probs", pp)
        object.__setattr__(self, "response_a", ra)
        object.__setattr__(self, "response_b", rb)
        object.__setattr__(self, "select", sel)

    def is_deterministic(self) -> bool:
        """True when every response distribution is a point mass."""
        return bool(
            np.all((self.response_a == 0.0) | (self.response_a == 1.0))
            and np.all((self.response_b == 0.0) | (self.response_b == 1.0))
        )


def _announced_weights(m: LhvSimModel) -> np.ndarray:
    """``w[a, b, x, y]`` = sum_ij p_i p'_j select_ij P(x | a, i) P(y | b, j)."""
    px = np.stack([1.0 - m.response_a, m.response_a], axis=1)  # [a, x, i]
    py = np.stack([1.0 - m.response_b, m.response_b], axis=1)  # [b, y, j]
    selected = m.lambda_probs[:, None] * m.lambda_prime_probs[None, :] * m.select
    return np.einsum("ij,axi,byj->abxy", selected, px, py)


def simulate_lhv(m: LhvSimModel, n_trials: int, seed: int) -> Tally:
    """Sample the classical task through the alias transform.

    The bases are fair coins, so a trial is announced in cell (a, b, x, y)
    with probability w[a, b, x, y] / 4 (``_announced_weights``) and not
    announced otherwise.  ``protocol.announced_cells`` draws that law from
    one word a trial: the model's own law, up to the rounding of the table,
    with no hidden value drawn.
    """
    return sample_tally(seed, n_trials, announced_cells(0.25 * _announced_weights(m)))


def exact_postselected(m: LhvSimModel) -> tuple[CondProbTable, np.ndarray]:
    """Closed-form post-selected statistics of a model, no sampling.

    The [a, b, x, y] weight ``w`` of ``_announced_weights`` is reduced by
    ``protocol.postselect``; it returns the conditional table and the
    per-(a, b) selection rates, and raises EmptyCellError when the selected
    mass is at most 1e-12.
    """
    return postselect(_announced_weights(m))


def cells_from_model(m: LhvSimModel) -> CellWeights:
    """Classify a deterministic model's hidden values into strategy cells.

    The weight of cell (i, j; k, l) is the selected probability mass of the
    hidden-value pairs whose responses are (i, j) for Alice and (k, l) for
    Bob, renormalized by the total selected mass.
    """
    if not m.is_deterministic():
        raise NondeterministicModelError(
            "cell classification is defined only for point-mass response distributions"
        )
    selected = m.lambda_probs[:, None] * m.lambda_prime_probs[None, :] * m.select
    total = float(selected.sum())
    if total <= EXACT_TOL:
        # Selection is basis-blind, so every basis pair is empty alike.
        raise EmptyCellError(0, 0)
    i_of, j_of = m.response_a.astype(np.int64)[:, :, None]
    k_of, l_of = m.response_b.astype(np.int64)[:, None, :]
    w = np.zeros((2, 2, 2, 2))
    np.add.at(w, (i_of, j_of, k_of, l_of), selected)
    return CellWeights(w / total)


def s_with_discards(w: TritCellWeights) -> tuple[float, np.ndarray, np.ndarray]:
    """CHSH value when state value 2 means "discard after selection".

    Basis pair (a, b) sees Alice's value i if a = 0 else j and Bob's value k
    if b = 0 else l; summing out the other index per party gives its
    [a, b, x, y] weights, and cells with value 2 are dropped.  These go
    through ``protocol.postselect``, so a pair with no weight left raises
    EmptyCellError.  Returns (S, e, retained), where e[a, b] is the
    renormalized correlation E(a, b) and retained[a, b] is the surviving
    weight fraction.
    """
    marginals = np.array([[w.w.sum(axis=(1 - a, 3 - b)) for b in (0, 1)] for a in (0, 1)])
    table, retained = postselect(marginals[..., :2, :2])
    return table_s(table), correlations(table), retained


def loophole_max_example() -> TritCellWeights:
    """Four-cell trit weighting whose discard-inflated CHSH value is exactly 4.

    Weight 1/4 sits on cells (0,2;0,2), (0,2;2,0), (2,0;0,2) and (2,0;2,1):
    for every basis pair exactly one cell survives discarding, and the
    surviving outcome products are +1, +1, +1, -1.
    """
    w = np.zeros((3, 3, 3, 3))
    for cell in ((0, 2, 0, 2), (0, 2, 2, 0), (2, 0, 0, 2), (2, 0, 2, 1)):
        w[cell] = 0.25
    return TritCellWeights(w)
