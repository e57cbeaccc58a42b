"""Shared builders for randomized property tests, and the exact-QM oracles.

The oracles work on plain numpy arrays: kets are amplitude vectors, density
matrices and projectors are square matrices.
"""

import json

import numpy as np

from bellpost import lhv, protocol, qcore, swap


def density(amps) -> np.ndarray:
    """The rank-one density matrix |psi><psi|."""
    amps = np.asarray(amps)
    return np.outer(amps, amps.conj())


def mixture(probs, kets) -> np.ndarray:
    """The statistical mixture sum_i p_i |psi_i><psi_i| of the given kets."""
    return sum(p * density(k) for p, k in zip(probs, kets))


def born_prob(amps, proj) -> float:
    """<psi|P|psi>, clamped to [0, 1] within rounding tolerance.

    A value farther out than EXACT_TOL, or NaN, is a logic bug, not rounding,
    and raises NumericsError.
    """
    amps, proj = np.asarray(amps), np.asarray(proj)
    if proj.shape[0] != amps.size:
        raise ValueError(
            f"projector dimension {proj.shape[0]} does not match state dimension {amps.size}"
        )
    p = float(np.real(np.vdot(amps, proj @ amps)))
    if not -qcore.EXACT_TOL <= p <= 1.0 + qcore.EXACT_TOL:
        raise qcore.NumericsError(f"probability {p!r} outside [0, 1] beyond rounding tolerance")
    return min(max(p, 0.0), 1.0)


def trace_distance(rho, sigma) -> float:
    """Half the sum of absolute eigenvalues of rho - sigma."""
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def partial_trace(rho, keep) -> np.ndarray:
    """Reduced density matrix over the kept qubit indices (ascending order)."""
    rho = np.asarray(rho)
    n = rho.shape[0].bit_length() - 1
    kept = sorted(set(int(q) for q in keep))
    if not kept or any(q < 0 or q >= n for q in kept):
        raise ValueError(f"keep set {sorted(keep)!r} is not a nonempty subset of qubits 0..{n - 1}")
    if len(kept) == n:
        return rho
    letters = "abcdefghijklmnopqrstuvwxyz"
    rows = letters[:n]
    cols = [letters[n + q] if q in kept else rows[q] for q in range(n)]
    out = "".join(rows[q] for q in kept) + "".join(letters[n + q] for q in kept)
    t = rho.reshape([2] * (2 * n))
    reduced = np.einsum(f"{rows}{''.join(cols)}->{out}", t)
    dim = 1 << len(kept)
    return reduced.reshape(dim, dim)


_PAULIS = (
    np.eye(2),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def embed(op, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Lift an operator on the listed qubits to the full n-qubit register."""
    rest = [q for q in range(n) if q not in targets]
    big = np.kron(op, np.eye(1 << len(rest), dtype=np.complex128))
    order = list(targets) + rest
    pos = [order.index(q) for q in range(n)]
    t = big.reshape([2] * (2 * n))
    return t.transpose(pos + [p + n for p in pos]).reshape(1 << n, 1 << n)


def pauli_depolarize_qubit(mat, qubit: int, p: float, n: int) -> np.ndarray:
    """Depolarizing channel on one qubit of an n-qubit matrix, as a Pauli twirl."""
    paulis = [embed(sigma, (qubit,), n) for sigma in _PAULIS]
    twirl = sum(pp @ mat @ pp for pp in paulis) / 4.0
    return (1.0 - p) * mat + p * twirl


def sqrtm_psd(mat) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix, by eigendecomposition."""
    eigvals, eigvecs = np.linalg.eigh(np.asarray(mat))
    return (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.conj().T


def charlie_effect(charlie_mix: float) -> np.ndarray:
    """Charlie's announcing effect (1 - eps)|phi+><phi+| + eps I/4 as a 4x4 matrix."""
    return (1.0 - charlie_mix) * density(swap.PHI_PLUS) + (charlie_mix / 4.0) * np.eye(4)


def charlie_first_joint_oracle(noise: swap.NoiseParams) -> np.ndarray:
    """p(x, y, c | a, b) by 16x16 matrix evolution, one (a, b, x, y) at a time.

    Depolarizes the Charlie-bound qubits 1 and 3 of the two phi+ pairs by
    Pauli twirls, applies the Lueders update of Charlie's effect on (1, 3),
    and takes the trace against the embedded local projectors of Alice
    (qubit 0) and Bob (qubit 2) onto the jittered canonical kets.
    """
    alice, bob = protocol.canonical_schemes()
    local = [
        [
            [embed(density(k), (qubit,), 4) for k in swap._real_kets(angles + jitter)]
            for angles in scheme.angles
        ]
        for scheme, qubit, jitter in ((alice, 0, noise.jitter_alice), (bob, 2, noise.jitter_bob))
    ]
    effect1 = embed(charlie_effect(noise.charlie_mix), (1, 3), 4)
    rho = pauli_depolarize_qubit(density(swap._TWO_PAIRS), 1, noise.depol_alice, 4)
    rho = pauli_depolarize_qubit(rho, 3, noise.depol_bob, 4)
    joint = np.zeros((2, 2, 2, 2, 2))
    for c, effect in ((0, np.eye(16) - effect1), (1, effect1)):
        sq = sqrtm_psd(effect)
        rho_c = sq @ rho @ sq
        for a in (0, 1):
            for b in (0, 1):
                for x in (0, 1):
                    for y in (0, 1):
                        m = local[0][a][x] @ local[1][b][y]
                        joint[a, b, x, y, c] = float(np.real(np.trace(m @ rho_c)))
    return joint


def swap_tally(n: int, seed: int, noise=None, order: str = "parties-first") -> protocol.Tally:
    """A sampled swap run's tally: the order's joint is the announced law it samples."""
    joint = swap.joint_distribution(noise or swap.NoiseParams(), order)
    return protocol.sample_tally(seed, n, joint)


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


def edge_lhv_model() -> lhv.LhvSimModel:
    """Four and three hidden values, each with a zero-probability value, and
    responses and selection probabilities of exactly 0 and 1.  Alice never
    gives x = 0 in basis 1 and Bob never y = 1 in basis 1, so the announced
    law has cells of weight exactly 0."""
    return lhv.LhvSimModel(
        lambda_values=[0.1, 0.4, 0.6, 0.9],
        lambda_probs=[0.7, 0.0, 0.2, 0.1],
        lambda_prime_values=[0.2, 0.5, 0.8],
        lambda_prime_probs=[0.25, 0.75, 0.0],
        response_a=[[0.0, 1.0, 0.3, 1.0], [1.0, 0.5, 1.0, 1.0]],
        response_b=[[0.6, 1.0, 0.0], [0.0, 0.0, 1.0]],
        select=[[1.0, 0.0, 0.5], [0.3, 1.0, 1.0], [0.0, 0.8, 1.0], [1.0, 0.6, 0.0]],
    )


def sampled_law(monkeypatch, run) -> np.ndarray:
    """The announced law W[a, b, x, y] that ``run()`` hands to
    ``protocol.sample_tally``, caught on its way in.  The spy is gone once
    ``run()`` returns."""
    seen, sampler = [], protocol.sample_tally

    def spy(seed, n_trials, weights):
        seen.append(weights)
        return sampler(seed, n_trials, weights)

    with monkeypatch.context() as patch:
        patch.setattr(protocol, "sample_tally", spy)
        run()
    assert len(seen) == 1
    return seen[0]


def announced_weights_oracle(m: lhv.LhvSimModel) -> np.ndarray:
    """w[a, b, x, y] = sum_ij p_i p'_j select_ij P(x | a, i) P(y | b, j), one
    hidden-value pair (i, j) at a time."""
    w = np.zeros((2, 2, 2, 2))
    for i in range(m.lambda_probs.size):
        for j in range(m.lambda_prime_probs.size):
            pair = m.lambda_probs[i] * m.lambda_prime_probs[j] * m.select[i, j]
            for a, b, x, y in np.ndindex(2, 2, 2, 2):
                px = m.response_a[a, i] if x else 1.0 - m.response_a[a, i]
                py = m.response_b[b, j] if y else 1.0 - m.response_b[b, j]
                w[a, b, x, y] += pair * px * py
    return w


def random_response_model(rng: np.random.Generator) -> lhv.ResponseModel:
    n = int(rng.integers(1, 6))
    vals = rng.uniform(-1.0, 1.0, size=(4, n))
    return lhv.ResponseModel(rng.dirichlet(np.ones(n)), vals[0], vals[1], vals[2], vals[3])


def lhv_indet_sweep_rows(rng: np.random.Generator, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One block of k rows of the ``lhv-indet`` random sweep, rebuilt row by row.

    The replay oracle for ``lhv.random_max_abs_s_indeterministic``: the block's
    three draws (atom counts, exponentials, values), then each row rebuilt
    from its first n atoms as (weights, 4 x n values).
    """
    n = rng.integers(1, 6, size=(k, 1))
    e = rng.standard_exponential((k, 5))
    r = rng.random((4, k, 5))
    return [
        (e[i, :atoms] / e[i, :atoms].sum(), 2 * r[:, i, :atoms] - 1)
        for i, atoms in enumerate(n[:, 0])
    ]


def lhv_indet_sweep_models(rng: np.random.Generator, samples: int, block: int) -> list[lhv.ResponseModel]:
    """The models of a ``samples``-model sweep drawn in blocks of ``block``."""
    models = []
    for start in range(0, samples, block):
        rows = lhv_indet_sweep_rows(rng, min(block, samples - start))
        models += [lhv.ResponseModel(w, *v) for w, v in rows]
    return models


class CorruptingGenerator:
    """A real numpy Generator whose ``method`` returns one bad result.

    The ``at``-th call of ``method`` (counting from 0) has its first entry
    replaced by ``value``; every other call passes straight through, so the
    stream is otherwise the wrapped generator's.
    """

    def __init__(self, rng: np.random.Generator, method: str, value: float, at: int = 0):
        self._rng, self._method, self._value, self._at = rng, method, value, at
        self._calls = 0

    def __getattr__(self, name):
        real = getattr(self._rng, name)
        if name != self._method:
            return real

        def corrupted(*args, **kwargs):
            out = real(*args, **kwargs)
            if self._calls == self._at:
                out.flat[0] = self._value
            self._calls += 1
            return out

        return corrupted


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


def _round_floats(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def reference_render(report) -> str:
    """The report renderer as two passes: round every float, then ``json.dumps``.

    The oracle for ``cli.render_report``, which does both in one walk.
    """
    try:
        return json.dumps(_round_floats(report), indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise qcore.NumericsError(f"report is not strict JSON: {exc}") from exc
