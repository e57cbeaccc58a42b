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

Exact quantities come from closed forms.  The noisy selection effect is a
Werner effect of visibility eta, so the parties-first joint is one line and
the post-selected CHSH value is 2 sqrt(2) eta cos(j_A - j_B) for jitters j_A
and j_B; the depolarizing sweep takes it at eta = (1 - p)^2.  The
charlie-first joint, a four-qubit density-matrix evolution written as tensor
contractions, is the independent reference behind ``order_invariance``.  A
joint holds only the announced probabilities p(x, y, 1 | a, b), the announced
law W of the other modes: its post-selected table is ``protocol.postselect``
of it, and a sampled run hands it to ``protocol.sample_tally`` as it is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .protocol import canonical_angle, canonical_schemes, exact_s, selection_probability_table

ORDERS = ("parties-first", "charlie-first")

# Amplitudes of the maximally entangled two-qubit state (|00> + |11>)/sqrt(2).
# Read-only, since every caller shares it.
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
PHI_PLUS.setflags(write=False)

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


def _depolarize_qubit(t: np.ndarray, qubit: int, p: float) -> np.ndarray:
    """Depolarizing channel on one qubit of an operator tensor of shape (2,)*2n.

    Axes 0..n-1 index the rows' qubits and n..2n-1 the columns'.  The Pauli
    twirl of a qubit replaces it by I/2, so the channel is
    (1 - p) t + p (I/2 (x) tr_qubit t).
    """
    n = t.ndim // 2
    shape = [1] * t.ndim
    shape[qubit] = shape[qubit + n] = 2
    reduced = np.expand_dims(np.trace(t, axis1=qubit, axis2=qubit + n), (qubit, qubit + n))
    return (1.0 - p) * t + p * reduced * (np.eye(2) / 2.0).reshape(shape)


def _real_kets(angles) -> np.ndarray:
    """Amplitudes (cos(t/2), sin(t/2)) of the real kets at the given angles, on a last axis."""
    half = np.asarray(angles, dtype=np.float64) / 2.0
    return np.stack([np.cos(half), np.sin(half)], axis=-1)


def _charlie_root(charlie_mix: float) -> np.ndarray:
    """Square root of Charlie's announcing effect (1 - eps) Phi + eps I/4, as a (2,)*4 tensor.

    Phi = |phi+><phi+| is a projector, so the effect is
    (1 - 3 eps/4) Phi + (eps/4)(I - Phi) over two orthogonal projectors, and
    its root is sqrt(1 - 3 eps/4) Phi + (sqrt(eps)/2)(I - Phi).
    """
    phi = np.outer(PHI_PLUS, PHI_PLUS)
    on, off = math.sqrt(1.0 - 0.75 * charlie_mix), math.sqrt(charlie_mix) / 2.0
    return (on * phi + off * (np.eye(4) - phi)).reshape(2, 2, 2, 2)


def joint_distribution(noise: NoiseParams, order: str) -> np.ndarray:
    """Exact announced probabilities p(x, y, 1 | a, b) as an array indexed [a, b, x, y].

    ``parties-first`` applies the local measurements, then channel noise, then
    Charlie's selection effect.  Measuring a kept half of |phi+> with the real
    projector onto |u> sends its partner |u> with probability 1/2, and the
    depolarizing channel is self-adjoint, so p(x, y, 1 | a, b) =
    1/4 tr[(D_A (x) D_B)(E_1) (|u_ax><u_ax| (x) |v_by><v_by|)].  Tracing a
    qubit out of Phi = |phi+><phi+| leaves I/2, so (D_A (x) D_B)(E_1) is the
    Werner effect eta Phi + (1 - eta) I/4 with eta = (1 - eps)(1 - p_A)(1 - p_B)
    (Werner, PRA 40, 4277, 1989).  ``charlie-first`` evolves all four qubits
    as tensor contractions: it applies noise, the Lueders update of Charlie's
    announcing effect, and the parties' measurements.  The two agree because
    all three act on disjoint subsystems, and the second is the independent
    reference for the first.  Each basis pair's probabilities sum to 1/4.
    """
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    # Each jitter is reduced to [0, 2 pi) first, so each basis keeps two kets
    # pi apart: adding an unreduced 1e17 would round both to one float.
    alice, bob = canonical_schemes()
    angles_a = alice.angles + canonical_angle(noise.jitter_alice)
    angles_b = bob.angles + canonical_angle(noise.jitter_bob)
    if order == "parties-first":
        eta = (1.0 - noise.charlie_mix) * (1.0 - noise.depol_alice) * (1.0 - noise.depol_bob)
        return 0.25 * (eta * selection_probability_table(angles_a, angles_b) + (1.0 - eta) / 4.0)
    rho = np.outer(_TWO_PAIRS, _TWO_PAIRS).reshape([2] * 8)
    rho = _depolarize_qubit(rho, 1, noise.depol_alice)
    rho = _depolarize_qubit(rho, 3, noise.depol_bob)
    u, v = _real_kets(angles_a), _real_kets(angles_b)
    sq = _charlie_root(noise.charlie_mix)
    rho_c = np.einsum("jlJL,iJkLmNoP,NPnp->ijklmnop", sq, rho, sq)
    return np.einsum("axi,byk,ijklmjol,axm,byo->abxy", u, v, rho_c, u, v)


def order_invariance(parties_first: np.ndarray, charlie_first: np.ndarray) -> float:
    """Maximum entrywise gap between the two measurement orderings' joints."""
    return float(np.max(np.abs(parties_first - charlie_first)))


@functools.cache
def _canonical_s() -> float:
    """``protocol.exact_s`` of the canonical schemes, computed on the first call."""
    return exact_s(*canonical_schemes())


def depolarizing_sweep(p_values) -> list[tuple[float, float]]:
    """Exact CHSH value under symmetric depolarizing strength, one row per p.

    Depolarizing both Charlie-bound qubits with strength p gives the Werner
    visibility eta = (1 - p)^2, and the post-selected S is linear in eta, so
    each row is S0 (1 - p)^2 with S0 = ``protocol.exact_s`` of the canonical
    schemes.  The p = 0 row is the ``quantum-exact`` S bit for bit.
    """
    p = np.array(p_values, dtype=np.float64)
    outside = p[~((p >= 0.0) & (p <= 1.0))]
    if outside.size:
        raise ValueError(f"depolarizing strength {float(outside[0])!r} outside [0, 1]")
    s0 = _canonical_s()
    return [(q, s0 * (1.0 - q) ** 2) for q in p.tolist()]
