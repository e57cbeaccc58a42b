"""Shared builders for randomized property tests, and the exact-QM oracles."""

import numpy as np

from bellpost import lhv, qcore
from bellpost.qcore import DensityMatrix, Projector, PureState


def density(state: PureState) -> DensityMatrix:
    """The rank-one density matrix |psi><psi|."""
    return DensityMatrix(np.outer(state.amps, state.amps.conj()))


def born_prob(state: PureState, p: Projector) -> float:
    """<psi|P|psi>, clamped to [0, 1] within rounding tolerance."""
    if p.mat.shape[0] != state.amps.size:
        raise ValueError(
            f"projector dimension {p.mat.shape[0]} does not match state dimension {state.amps.size}"
        )
    return float(qcore._clamp_probability(float(np.real(np.vdot(state.amps, p.mat @ state.amps)))))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix over the kept qubit indices (ascending order)."""
    n = rho.n_qubits
    kept = sorted(set(int(q) for q in keep))
    if not kept or any(q < 0 or q >= n for q in kept):
        raise ValueError(f"keep set {sorted(keep)!r} is not a nonempty subset of qubits 0..{n - 1}")
    if len(kept) == n:
        return DensityMatrix(rho.mat)
    letters = "abcdefghijklmnopqrstuvwxyz"
    rows = letters[:n]
    cols = [letters[n + q] if q in kept else rows[q] for q in range(n)]
    out = "".join(rows[q] for q in kept) + "".join(letters[n + q] for q in kept)
    t = rho.mat.reshape([2] * (2 * n))
    reduced = np.einsum(f"{rows}{''.join(cols)}->{out}", t)
    dim = 1 << len(kept)
    return DensityMatrix(reduced.reshape(dim, dim))


def correlation_oracle(table, a: int, b: int) -> float:
    """E(a, b) of one basis pair, computed cell by cell from a CondProbTable."""
    cell = table.probs[a, b]
    return float(cell[0, 0] + cell[1, 1] - cell[0, 1] - cell[1, 0])


def random_deterministic_model(rng: np.random.Generator) -> lhv.LhvSimModel:
    """Random finite LHV model with point-mass responses and nonzero selection."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    return lhv.LhvSimModel(
        lambda_values=np.sort(rng.uniform(0, 1, size=n)),
        lambda_probs=rng.dirichlet(np.ones(n)),
        lambda_prime_values=np.sort(rng.uniform(0, 1, size=m)),
        lambda_prime_probs=rng.dirichlet(np.ones(m)),
        response_a=rng.integers(0, 2, size=(2, n)).astype(float),
        response_b=rng.integers(0, 2, size=(2, m)).astype(float),
        select=rng.uniform(0.2, 1.0, size=(n, m)),
    )


def random_stochastic_model(rng: np.random.Generator) -> lhv.LhvSimModel:
    """Random finite LHV model with arbitrary response probabilities."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    return lhv.LhvSimModel(
        lambda_values=np.sort(rng.uniform(0, 1, size=n)),
        lambda_probs=rng.dirichlet(np.ones(n)),
        lambda_prime_values=np.sort(rng.uniform(0, 1, size=m)),
        lambda_prime_probs=rng.dirichlet(np.ones(m)),
        response_a=rng.uniform(0, 1, size=(2, n)),
        response_b=rng.uniform(0, 1, size=(2, m)),
        select=rng.uniform(0.2, 1.0, size=(n, m)),
    )


def random_response_model(rng: np.random.Generator) -> lhv.ResponseModel:
    n = int(rng.integers(1, 6))
    vals = rng.uniform(-1.0, 1.0, size=(4, n))
    return lhv.ResponseModel(rng.dirichlet(np.ones(n)), vals[0], vals[1], vals[2], vals[3])


def exact_s_of_sim_model(m: lhv.LhvSimModel) -> float:
    """Full-expectation CHSH oracle over the finite (lambda, lambda', a, b) grid.

    Written independently of the library path: conditional correlations are
    accumulated term by term from the model's raw probabilities.
    """
    e = {}
    for a in (0, 1):
        for b in (0, 1):
            num = 0.0
            den = 0.0
            for i in range(m.lambda_probs.size):
                for j in range(m.lambda_prime_probs.size):
                    w = m.lambda_probs[i] * m.lambda_prime_probs[j] * m.select[i, j]
                    f = 1.0 - 2.0 * m.response_a[a, i]  # average of 1-2x
                    g = 1.0 - 2.0 * m.response_b[b, j]
                    num += w * f * g
                    den += w
            e[(a, b)] = num / den
    return e[(0, 0)] + e[(0, 1)] + e[(1, 0)] - e[(1, 1)]
