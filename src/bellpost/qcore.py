"""Exact quantum mechanics for registers of one to four qubits.

Everything is dense complex128: the largest object is 16x16, so there is no
need for sparsity or factored representations.  States, density matrices and
projectors validate their defining invariants on construction and are
read-only afterwards.  All operations are pure.

Conventions:
  * Qubit 0 is the leftmost tensor factor and the most significant bit of the
    amplitude index.
  * Real-amplitude single-qubit states are parameterized by an angle theta as
    cos(theta/2)|0> + sin(theta/2)|1>, reduced to [0, 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 4

# Structural checks (hermiticity, trace, idempotence, positivity) use the
# loose tolerance; equalities between analytically exact quantities use the
# tight one.  Looser values would mask bugs: every quantity here is simple.
STRUCTURAL_TOL = 1e-9
EXACT_TOL = 1e-12

TWO_PI = 2.0 * math.pi


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


def _check_register_dim(dim: int, what: str) -> int:
    """Return the qubit count for a dimension, or raise if out of range."""
    n = dim.bit_length() - 1
    if dim < 2 or dim != 1 << n or n > MAX_QUBITS:
        raise ValueError(f"{what} of dimension {dim} is not a 1-{MAX_QUBITS} qubit register")
    return n


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector of a 1-4 qubit register."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amps, dtype=np.complex128).reshape(-1)
        _check_register_dim(amps.size, "amplitude vector")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > EXACT_TOL:
            raise ValueError(f"state is not normalized: sum |amp|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def n_qubits(self) -> int:
        return self.amps.size.bit_length() - 1


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on 1-4 qubits."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.mat, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        _check_register_dim(mat.shape[0], "density matrix")
        if not np.allclose(mat, mat.conj().T, rtol=0.0, atol=STRUCTURAL_TOL):
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > STRUCTURAL_TOL:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        eigmin = float(np.linalg.eigvalsh(mat)[0])
        if eigmin < -STRUCTURAL_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigmin!r}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def n_qubits(self) -> int:
        return self.mat.shape[0].bit_length() - 1


@dataclass(frozen=True)
class Projector:
    """Hermitian idempotent operator (orthogonal projector)."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.mat, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"projector must be square, got shape {mat.shape}")
        _check_register_dim(mat.shape[0], "projector")
        if not np.allclose(mat, mat.conj().T, rtol=0.0, atol=STRUCTURAL_TOL):
            raise ValueError("projector is not Hermitian")
        if not np.allclose(mat @ mat, mat, rtol=0.0, atol=STRUCTURAL_TOL):
            raise ValueError("projector is not idempotent")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @classmethod
    def onto(cls, state: PureState) -> "Projector":
        """Rank-one projector |psi><psi|."""
        return cls(np.outer(state.amps, state.amps.conj()))

    @property
    def n_qubits(self) -> int:
        return self.mat.shape[0].bit_length() - 1


def ket_theta(theta: float) -> PureState:
    """Single-qubit state cos(theta/2)|0> + sin(theta/2)|1>."""
    half = canonical_angle(theta) / 2.0
    return PureState(np.array([math.cos(half), math.sin(half)], dtype=np.complex128))


def tensor(u: PureState, v: PureState) -> PureState:
    """Kronecker product u (x) v, with u occupying the leftmost qubits."""
    if u.n_qubits + v.n_qubits > MAX_QUBITS:
        raise ValueError(
            f"tensor product would have {u.n_qubits + v.n_qubits} qubits (max {MAX_QUBITS})"
        )
    return PureState(np.kron(u.amps, v.amps))


def phi_plus() -> PureState:
    """The maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    inv = 1.0 / math.sqrt(2.0)
    return PureState(np.array([inv, 0.0, 0.0, inv], dtype=np.complex128))


def _real_kets(angles) -> np.ndarray:
    """Amplitudes (cos(t/2), sin(t/2)) of the real kets at the given angles, on a last axis."""
    half = np.asarray(angles, dtype=np.float64) / 2.0
    return np.stack([np.cos(half), np.sin(half)], axis=-1)


def acceptance_table(effect: np.ndarray, angles_a, angles_b) -> np.ndarray:
    """tr[E (|u_ax><u_ax| (x) |v_by><v_by|)] for every (a, x, b, y), as [a, b, x, y].

    ``effect`` is a 4x4 effect E on two qubits; ``angles_a[a, x]`` and
    ``angles_b[b, y]`` are the angles of the real kets u_ax = ket_theta(...)
    on the left and v_by on the right qubit.  Values within rounding tolerance
    of [0, 1] are clamped into it; any other value raises NumericsError.
    """
    u, v = _real_kets(angles_a), _real_kets(angles_b)
    e = np.asarray(effect).reshape(2, 2, 2, 2)
    return _clamp_probability(np.einsum("axi,byj,ijkl,axk,byl->abxy", u, v, e, u, v).real)


def mixture_density(components: list[tuple[float, PureState]]) -> DensityMatrix:
    """Statistical mixture sum_i p_i |psi_i><psi_i|."""
    if not components:
        raise ValueError("mixture requires at least one component")
    probs = [float(p) for p, _ in components]
    if not all(p >= 0.0 for p in probs):
        raise ValueError(f"mixture probabilities must be nonnegative, got {probs}")
    total = sum(probs)
    if not abs(total - 1.0) <= EXACT_TOL:
        raise ValueError(f"mixture probabilities sum to {total!r}, expected 1")
    dim = components[0][1].amps.size
    if any(s.amps.size != dim for _, s in components):
        raise ValueError("mixture components must share one register dimension")
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for p, s in components:
        mat += p * np.outer(s.amps, s.amps.conj())
    return DensityMatrix(mat)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of rho - sigma."""
    if rho.mat.shape != sigma.mat.shape:
        raise ValueError(f"dimension mismatch: {rho.mat.shape} vs {sigma.mat.shape}")
    eigs = np.linalg.eigvalsh(rho.mat - sigma.mat)
    return 0.5 * float(np.sum(np.abs(eigs)))
