"""Classical (local-hidden-variable) strategies for the post-selection task.

Basis independence forces both basis ensembles of a classical source onto one
hidden-value distribution.  Each hidden value lambda is then classified by the
pair of states it would represent under either basis, giving four classes per
party and sixteen strategy cells (i, j; k, l) for the pair; Charlie's selection
may depend on (lambda, lambda') but never on the bases.  Under that structure
the post-selected CHSH value is a fixed +/-2-coefficient average over cell
weights, so |S| <= 2 — this module computes the coefficient algebra, the
exhaustive bound, the indeterministic (response-average) variant, a generative
simulator feeding the shared tally pipeline, and the trit-valued discard
variant in which per-basis discarding inflates S to the algebraic maximum 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import EXACT_TOL, NumericsError
from .protocol import CondProbTable, Tally, correlations, postselect, sample_tally, table_s
from .rng import threshold


class NondeterministicModelError(Exception):
    """Cell classification requires point-mass response distributions."""


class ZeroSelectionError(Exception):
    """The selection rule accepts no hidden-value mass at all."""


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

    @classmethod
    def from_flat(cls, values) -> "CellWeights":
        values = np.asarray(values, dtype=np.float64)
        if values.size != 16:
            raise ValueError(f"expected 16 cell weights, got {values.size}")
        return cls(values.reshape(2, 2, 2, 2))


@dataclass(frozen=True)
class TritCellWeights:
    """Normalized weight for each of the 81 trit-valued strategy cells.

    State indices run over {0, 1, 2}; value 2 marks an outcome the party will
    discard after selection.
    """

    w: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", _validate_weights(self.w, (3, 3, 3, 3)))

    @classmethod
    def from_flat(cls, values) -> "TritCellWeights":
        values = np.asarray(values, dtype=np.float64)
        if values.size != 81:
            raise ValueError(f"expected 81 cell weights, got {values.size}")
        return cls(values.reshape(3, 3, 3, 3))


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


# Rows per block of the random cell-weight sweep: 1 Ki rows of 16 weights is
# 128 KiB, so the sweep's memory does not grow with its sample count.
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

    @classmethod
    def from_atoms(cls, atoms) -> "ResponseModel":
        """Build from an iterable of (weight, f0, f1, g0, g1) tuples."""
        cols = np.array([[float(v) for v in atom] for atom in atoms], dtype=np.float64)
        if cols.ndim != 2 or cols.shape[1] != 5:
            raise ValueError("each atom must be a (weight, f0, f1, g0, g1) tuple")
        return cls(cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3], cols[:, 4])


def s_indeterministic(m: ResponseModel) -> float:
    """CHSH value of a response mixture: E[f0(g0+g1) + f1(g0-g1)]; |S| <= 2."""
    return float(np.sum(m.weights * (m.f0 * (m.g0 + m.g1) + m.f1 * (m.g0 - m.g1))))


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
    basis independence of the source is structural, not checked.
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


# Row layout of an LHV trial: 0 -> x, with a = bit 0; 1 -> y, with b = bit 0;
# 2 -> lambda; 3 -> lambda'; 4 -> Charlie's acceptance.
_COL_X, _COL_Y, _COL_LAM, _COL_LAMP, _COL_C = range(5)
LHV_WIDTH = 5


def simulate_lhv(m: LhvSimModel, n_trials: int, seed: int) -> Tally:
    """Sample the classical task; feeds the same tally pipeline as the quantum path.

    Each trial draws ``LHV_WIDTH`` words.  The basis bits a and b are fair
    coins, bit 0 of the x and y words.  Hidden value i is drawn when its
    uniform u has cum[i-1] <= u < cum[i] in the cumulative probabilities, the
    last value taking any u past the end; x = 1 when u < response_a[a, i],
    likewise y, and Charlie announces when u < select[i, j].  Every cut runs
    on integer thresholds (rng module): the hidden-value index counts the
    cumulative thresholds at or below the word's top 53 bits, and the
    response and selection thresholds are read from flat tables.
    """
    n_lam = m.lambda_probs.size
    n_lamp = m.lambda_prime_probs.size
    # Dropping the last cumulative cut caps the index at the last value.
    cut_lam = threshold(np.cumsum(m.lambda_probs))[:-1]
    cut_lamp = threshold(np.cumsum(m.lambda_prime_probs))[:-1]
    cut_x = threshold(m.response_a).ravel()
    cut_y = threshold(m.response_b).ravel()
    cut_select = threshold(m.select).ravel()

    def selected_cells(w: np.ndarray) -> np.ndarray:
        wx, wy = w[:, _COL_X], w[:, _COL_Y]
        a = (wx & 1).view(np.int64)
        b = (wy & 1).view(np.int64)
        lam = np.searchsorted(cut_lam, w[:, _COL_LAM] >> 11, side="right")
        lamp = np.searchsorted(cut_lamp, w[:, _COL_LAMP] >> 11, side="right")
        x = (wx >> 11) < cut_x.take(a * n_lam + lam)
        y = (wy >> 11) < cut_y.take(b * n_lamp + lamp)
        cell = ((a * 2 + b) * 2 + x) * 2 + y
        rejected = (w[:, _COL_C] >> 11) >= cut_select.take(lam * n_lamp + lamp)
        return cell + 16 * rejected

    return sample_tally(seed, n_trials, selected_cells, LHV_WIDTH)


def exact_postselected(m: LhvSimModel) -> tuple[CondProbTable, np.ndarray]:
    """Closed-form post-selected statistics of a model, no sampling.

    The [a, b, x, y] weight is sum_ij p_i p'_j select_ij P(x | a, i)
    P(y | b, j), reduced by ``protocol.postselect``; it returns the
    conditional table and the per-(a, b) selection rates, and raises
    EmptyCellError when the selected mass is at most 1e-12.
    """
    px = np.stack([1.0 - m.response_a, m.response_a], axis=1)  # [a, x, i]
    py = np.stack([1.0 - m.response_b, m.response_b], axis=1)  # [b, y, j]
    selected = m.lambda_probs[:, None] * m.lambda_prime_probs[None, :] * m.select
    return postselect(np.einsum("ij,axi,byj->abxy", selected, px, py))


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
    if total <= 0.0:
        raise ZeroSelectionError("selection rule accepts zero probability mass")
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
