"""Entanglement-swapping realization of the three-party task.

Each party keeps one half of a maximally entangled pair and sends the other
half toward Charlie; measuring the kept half remotely prepares the in-flight
qubit.  Because the kept half's measurement cannot signal, the ensemble
Charlie sees is exactly basis-independent for any measurement choice — noisy
or not — which is the whole point of this realization.

Register order is (alpha, beta, alpha', beta') = qubits (0, 1, 2, 3): Alice
measures alpha, Bob measures alpha', and Charlie's selection acts on
(beta, beta').  Alice's local measurement is the (possibly jittered) Z- or
X-like pair; Bob's is rotated so that the remotely prepared states realize the
canonical scheme — measuring the kept half with projectors onto the scheme's
own (real-amplitude) states collapses the in-flight qubit onto exactly those
states, each with probability 1/2.  A uniformly rotated initial pair cannot
reproduce the canonical assignment (it yields the label-swapped variant whose
CHSH value is 0), so rotated local measurement is the realization used here.

All property-style quantities (joint distributions, CHSH sweeps) are computed
exactly, on the two Charlie-bound qubits or by four-qubit density-matrix
evolution; sampling is used only to produce tallies.  A joint's post-selected
table is ``protocol.postselect`` of its c = 1 slice, the one reduction that
tallies and scheme pairs go through too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import PHI_PLUS, STRUCTURAL_TOL, _real_kets, acceptance_table
from .protocol import (
    PreparationScheme,
    Tally,
    canonical_schemes,
    postselect,
    prepare_and_measure,
    sample_tally,
    table_s,
)

ORDERS = ("parties-first", "charlie-first")

_I2 = np.eye(2, dtype=np.complex128)
_PAULIS = (
    _I2,
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

# Two maximally entangled pairs, qubit order (alpha, beta, alpha', beta').
_TWO_PAIRS = np.kron(PHI_PLUS, PHI_PLUS)
_TWO_PAIRS.setflags(write=False)


@dataclass(frozen=True)
class NoiseParams:
    """Imperfection knobs for the swap realization.

    Depolarizing strengths act on each Charlie-bound qubit; jitters are
    deterministic angle offsets on the local measurements; charlie_mix blends
    Charlie's selection effect toward the trivial one,
    (1 - eps)|phi+><phi+| + eps I/4.
    """

    depol_alice: float = 0.0
    depol_bob: float = 0.0
    jitter_alice: float = 0.0
    jitter_bob: float = 0.0
    charlie_mix: float = 0.0

    def __post_init__(self) -> None:
        for name in ("depol_alice", "depol_bob", "charlie_mix"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v!r} outside [0, 1]")
            object.__setattr__(self, name, v)
        for name in ("jitter_alice", "jitter_bob"):
            v = float(getattr(self, name))
            if not 0.0 <= v < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class SwapConfig:
    """One swap run: trial count, noise, seed, and measurement ordering."""

    n_trials: int
    noise: NoiseParams = field(default_factory=NoiseParams)
    seed: int = 0
    order: str = "parties-first"

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.order not in ORDERS:
            raise ValueError(f"order must be one of {ORDERS}, got {self.order!r}")


def scheme_projectors(scheme: PreparationScheme, basis: int, jitter: float) -> np.ndarray:
    """Measurement whose outcome x projects onto the scheme's state (basis, x).

    Returns the two 2x2 projectors as an array indexed [x, row, col].  Valid
    only when the scheme's two states in this basis are antipodal (angles
    differing by pi), so the projectors resolve the identity.
    """
    kets = _real_kets(scheme.angles[basis] + jitter)
    projectors = kets[:, :, None] * kets[:, None, :]
    if not np.allclose(projectors.sum(axis=0), _I2, rtol=0.0, atol=STRUCTURAL_TOL):
        raise ValueError(f"scheme basis {basis} states are not orthogonal")
    return projectors


def _embed(op: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Lift an operator on the listed qubits to the full n-qubit register."""
    rest = [q for q in range(n) if q not in targets]
    big = np.kron(op, np.eye(1 << len(rest), dtype=np.complex128))
    order = list(targets) + rest
    pos = [order.index(q) for q in range(n)]
    t = big.reshape([2] * (2 * n))
    return t.transpose(pos + [p + n for p in pos]).reshape(1 << n, 1 << n)


def _depolarize_qubit(mat: np.ndarray, qubit: int, p: float, n: int) -> np.ndarray:
    """Depolarizing channel on one qubit of an n-qubit operator."""
    if p == 0.0:
        return mat
    paulis = [_embed(sigma, (qubit,), n) for sigma in _PAULIS]
    twirl = sum(pp @ mat @ pp for pp in paulis) / 4.0
    return (1.0 - p) * mat + p * twirl


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix."""
    eigvals, eigvecs = np.linalg.eigh(mat)
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T


def _charlie_effect(charlie_mix: float) -> np.ndarray:
    return (1.0 - charlie_mix) * np.outer(PHI_PLUS, PHI_PLUS) + (charlie_mix / 4.0) * np.eye(
        4, dtype=np.complex128
    )


def _party_projectors(noise: NoiseParams) -> tuple[list, list]:
    """Embedded local projectors for Alice (qubit 0) and Bob (qubit 2), per basis."""
    alice_scheme, bob_scheme = canonical_schemes()
    alice = [
        [_embed(p, (0,), 4) for p in scheme_projectors(alice_scheme, a, noise.jitter_alice)]
        for a in (0, 1)
    ]
    bob = [
        [_embed(p, (2,), 4) for p in scheme_projectors(bob_scheme, b, noise.jitter_bob)]
        for b in (0, 1)
    ]
    return alice, bob


def joint_distribution(noise: NoiseParams, order: str) -> np.ndarray:
    """Exact p(x, y, c | a, b) as an array indexed [a, b, x, y, c].

    ``parties-first`` applies the local measurements, then channel noise, then
    Charlie's selection effect.  Measuring a kept half of |phi+> with the real
    projector onto |u> sends its partner |u> with probability 1/2, and the
    depolarizing channel is self-adjoint, so this ordering reduces to the two
    Charlie-bound qubits: p(x, y, 1 | a, b) = 1/4 tr[(D_A (x) D_B)(E_1)
    (|u_ax><u_ax| (x) |v_by><v_by|)].  ``charlie-first`` evolves all four
    qubits: it applies noise, performs Charlie's (generalized) measurement,
    and measures the parties on the post-selection state.  The two agree
    because all three act on disjoint subsystems, and the second is the
    independent reference for the first.
    """
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    if order == "parties-first":
        effect = _depolarize_qubit(_charlie_effect(noise.charlie_mix), 0, noise.depol_alice, 2)
        effect = _depolarize_qubit(effect, 1, noise.depol_bob, 2)
        alice_scheme, bob_scheme = canonical_schemes()
        accepted = 0.25 * acceptance_table(
            effect, alice_scheme.angles + noise.jitter_alice, bob_scheme.angles + noise.jitter_bob
        )
        return np.stack([0.25 - accepted, accepted], axis=-1)
    rho0 = np.outer(_TWO_PAIRS, _TWO_PAIRS)
    alice, bob = _party_projectors(noise)
    effect1 = _embed(_charlie_effect(noise.charlie_mix), (1, 3), 4)
    effect0 = np.eye(16, dtype=np.complex128) - effect1
    joint = np.zeros((2, 2, 2, 2, 2))
    rho = _depolarize_qubit(rho0, 1, noise.depol_alice, 4)
    rho = _depolarize_qubit(rho, 3, noise.depol_bob, 4)
    for c, effect in ((0, effect0), (1, effect1)):
        sq = _sqrtm_psd(effect)
        rho_c = sq @ rho @ sq
        for a in (0, 1):
            for b in (0, 1):
                for x in (0, 1):
                    for y in (0, 1):
                        m = alice[a][x] @ bob[b][y]
                        joint[a, b, x, y, c] = float(np.real(np.trace(m @ rho_c)))
    return joint


def order_invariance(parties_first: np.ndarray, charlie_first: np.ndarray) -> float:
    """Maximum entrywise gap between the two measurement orderings' joints."""
    return float(np.max(np.abs(parties_first - charlie_first)))


def exact_swap_s(noise: NoiseParams) -> float:
    """Exact post-selected CHSH value of the (possibly noisy) swap realization."""
    return table_s(postselect(joint_distribution(noise, "parties-first")[..., 1])[0])


def depolarizing_sweep(p_values) -> list[tuple[float, float]]:
    """Exact CHSH value under symmetric depolarizing strength, one row per p."""
    rows = []
    for p in p_values:
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"depolarizing strength {p!r} outside [0, 1]")
        rows.append((p, exact_swap_s(NoiseParams(depol_alice=p, depol_bob=p))))
    return rows


def run_swap(cfg: SwapConfig, joint: np.ndarray | None = None) -> Tally:
    """Sample the swap realization into a tally.

    The per-trial outcome distribution is the exact joint for the configured
    ordering; local outcomes are unbiased coins (the kept halves are maximally
    mixed), and Charlie's announcement follows the conditional acceptance
    probability given (a, b, x, y).  A caller that already holds
    ``joint_distribution(cfg.noise, cfg.order)`` passes it as ``joint``.
    """
    if joint is None:
        joint = joint_distribution(cfg.noise, cfg.order)
    accept = joint[..., 1] * 4.0  # p(x,y|a,b) = 1/4 exactly; threshold clips to [0, 1]
    coins = np.full((2, 2), 0.5)
    return sample_tally(cfg.seed, cfg.n_trials, prepare_and_measure(coins, coins, accept))
