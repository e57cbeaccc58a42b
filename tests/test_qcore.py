"""Unit and property tests for the real kets, |phi+>, Charlie's acceptance
table, the numerical contract's module and the exact-QM test oracles."""

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from bellpost.protocol import canonical_angle, selection_probability_table
from bellpost.swap import PHI_PLUS, _real_kets
from conftest import born_prob, density, mixture, partial_trace, trace_distance

PHI_PLUS_PROJ = np.outer(PHI_PLUS, PHI_PLUS)


def pair(theta_a: float, theta_b: float) -> np.ndarray:
    """Amplitudes of the product of the real kets at theta_a (left) and theta_b."""
    return np.kron(_real_kets(theta_a), _real_kets(theta_b))


def overlap_prob_oracle(theta_a: float, theta_b: float) -> float:
    """Independent oracle: |<phi+|psi>|^2 via the raw four-amplitude inner product."""
    amps = [
        math.cos(theta_a / 2) * math.cos(theta_b / 2),
        math.cos(theta_a / 2) * math.sin(theta_b / 2),
        math.sin(theta_a / 2) * math.cos(theta_b / 2),
        math.sin(theta_a / 2) * math.sin(theta_b / 2),
    ]
    inner = (amps[0] + amps[3]) / math.sqrt(2)
    return inner * inner


class TestCanonicalAngle:
    def test_in_range_unchanged(self):
        assert canonical_angle(1.25) == 1.25

    def test_wraps_negative(self):
        assert canonical_angle(-0.1) == pytest.approx(2 * math.pi - 0.1, abs=1e-15)

    def test_result_always_in_range(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-50, 50, size=200):
            t = canonical_angle(theta)
            assert 0.0 <= t < 2 * math.pi


class TestKetTheta:
    def test_theta_zero_is_ket0(self):
        np.testing.assert_allclose(_real_kets(0.0), [1, 0], atol=1e-12)

    def test_theta_pi_is_ket1(self):
        np.testing.assert_allclose(_real_kets(math.pi), [0, 1], atol=1e-12)

    def test_theta_half_pi_is_plus(self):
        inv = 1 / math.sqrt(2)
        np.testing.assert_allclose(_real_kets(math.pi / 2), [inv, inv], atol=1e-12)

    def test_unit_norm_for_random_angles(self):
        rng = np.random.default_rng(1)
        for theta in rng.uniform(-10, 10, size=50):
            assert np.sum(_real_kets(theta) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestTensor:
    # Qubit 0 is the leftmost factor and the most significant index bit.
    def test_basis_products(self):
        np.testing.assert_allclose(pair(0.0, math.pi), [0, 1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(pair(0.0, 0.0), [1, 0, 0, 0], atol=1e-12)

    def test_plus_plus_is_uniform(self):
        np.testing.assert_allclose(pair(math.pi / 2, math.pi / 2), [0.5] * 4, atol=1e-12)


class TestPhiPlus:
    def test_amplitudes(self):
        inv = 1 / math.sqrt(2)
        np.testing.assert_allclose(PHI_PLUS, [inv, 0, 0, inv], atol=1e-12)

    def test_projects_onto_itself(self):
        assert born_prob(PHI_PLUS, PHI_PLUS_PROJ) == pytest.approx(1.0, abs=1e-12)

    def test_both_marginals_maximally_mixed(self):
        rho = density(PHI_PLUS)
        for keep in ((0,), (1,)):
            np.testing.assert_allclose(partial_trace(rho, keep), np.eye(2) / 2, atol=1e-12)


class TestBornProb:
    def test_equal_angles_give_half(self):
        for a in (0.0, 0.3, 2.2, 5.9):
            assert born_prob(pair(a, a), PHI_PLUS_PROJ) == pytest.approx(0.5, abs=1e-12)

    def test_opposite_angles_give_zero(self):
        assert born_prob(pair(0.7, 0.7 + math.pi), PHI_PLUS_PROJ) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_turn_gives_quarter(self):
        # Frozen from overlap_prob_oracle(0.4, 0.4 + pi/2) = 0.25.
        assert overlap_prob_oracle(0.4, 0.4 + math.pi / 2) == pytest.approx(0.25, abs=1e-12)
        got = born_prob(pair(0.4, 0.4 + math.pi / 2), PHI_PLUS_PROJ)
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_matches_half_cos_squared_law(self):
        # The acceptance-rate law p = cos(delta/2)^2 / 2, against the raw
        # inner-product oracle, over 100 random angle pairs.
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(-2 * math.pi, 2 * math.pi)
            got = born_prob(pair(a, a + d), PHI_PLUS_PROJ)
            assert got == pytest.approx(0.5 * math.cos(d / 2) ** 2, abs=1e-12)
            assert got == pytest.approx(overlap_prob_oracle(a, a + d), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            born_prob(_real_kets(0.0), PHI_PLUS_PROJ)


class TestAcceptanceTable:
    def test_matches_born_oracle_for_phi_plus(self):
        # Random angles over three turns (jittered swap angles reach 4 pi),
        # then extremes reduced to [0, 2 pi) as every caller's angles are:
        # +-1e15, -1e-300 and exact multiples of pi, each with the ket pi away.
        rng = np.random.default_rng(12)
        inputs = [rng.uniform(-2 * math.pi, 4 * math.pi, size=(2, 2, 2)) for _ in range(100)]
        extremes = [1e15, -1e15, -1e-300, *(k * math.pi for k in range(-3, 5))]
        for t, s in itertools.product(extremes, repeat=2):
            reduced = [[canonical_angle(r), canonical_angle(r + math.pi)] for r in (t, s)]
            inputs.append(np.array([reduced, reduced[::-1]]))
        for ta, tb in inputs:
            table = selection_probability_table(ta, tb)
            assert np.all((table >= 0.0) & (table <= 0.5))
            for a, b, x, y in np.ndindex(2, 2, 2, 2):
                want = born_prob(pair(ta[a, x], tb[b, y]), PHI_PLUS_PROJ)
                assert abs(table[a, b, x, y] - want) <= 1e-15


class TestMixtureDensity:
    def test_z_pair_gives_maximally_mixed(self):
        rho = mixture([0.5, 0.5], _real_kets([0.0, math.pi]))
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_x_pair_gives_maximally_mixed(self):
        rho = mixture([0.5, 0.5], _real_kets([math.pi / 2, 3 * math.pi / 2]))
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_single_component_is_pure(self):
        psi = _real_kets(1.1)
        np.testing.assert_allclose(mixture([1.0], [psi]), np.outer(psi, psi), atol=1e-12)


class TestTraceDistance:
    def test_identical_states(self):
        rho = density(_real_kets(0.4))
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        d = trace_distance(density(_real_kets(0.0)), density(_real_kets(math.pi)))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_z_and_x_ensembles_indistinguishable(self):
        rho0 = mixture([0.5, 0.5], _real_kets([0.0, math.pi]))
        rho1 = mixture([0.5, 0.5], _real_kets([math.pi / 2, 3 * math.pi / 2]))
        assert trace_distance(rho0, rho1) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            rhos = [_random_density(rng, 2) for _ in range(3)]
            dab = trace_distance(rhos[0], rhos[1])
            dba = trace_distance(rhos[1], rhos[0])
            dac = trace_distance(rhos[0], rhos[2])
            dcb = trace_distance(rhos[2], rhos[1])
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dab <= dac + dcb + 1e-9

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(density(_real_kets(0.0)), density(PHI_PLUS))


class TestPartialTrace:
    def test_entangled_marginal(self):
        rho = partial_trace(density(PHI_PLUS), (0,))
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_product_state_keep_second(self):
        plus = _real_kets(math.pi / 2)
        rho = density(pair(0.0, math.pi / 2))
        np.testing.assert_allclose(partial_trace(rho, (1,)), np.outer(plus, plus), atol=1e-12)

    def test_trace_preserved_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho = _random_density(rng, 8)  # three qubits
            for keep in ((0,), (1, 2), (0, 2)):
                reduced = partial_trace(rho, keep)
                assert np.trace(reduced).real == pytest.approx(1.0, abs=1e-9)

    def test_invalid_index_set_rejected(self):
        with pytest.raises(ValueError, match="subset"):
            partial_trace(density(PHI_PLUS), (2,))
        with pytest.raises(ValueError, match="subset"):
            partial_trace(density(PHI_PLUS), ())


class TestCompleteness:
    def test_born_probs_sum_to_one_for_random_complete_sets(self):
        rng = np.random.default_rng(11)
        for n_qubits in (1, 2):
            dim = 2**n_qubits
            for _ in range(20):
                basis = _random_unitary(rng, dim)
                projs = [density(basis[:, k]) for k in range(dim)]
                state = _random_state(rng, dim)
                total = sum(born_prob(state, p) for p in projs)
                assert total == pytest.approx(1.0, abs=1e-12)


class TestTypeInvariants:
    def test_values_immutable_after_construction(self):
        # PHI_PLUS is shared module state, so no caller may write to it.
        with pytest.raises(ValueError):
            PHI_PLUS[0] = 0.0


def test_every_module_the_benchmark_tracer_names_imports():
    # bench/tracing.py's Tracer.install looks up sys.modules["bellpost.<module>"]
    # for each of its TARGETS, so no module it names (qcore among them) may go
    # before the benchmark drops its targets.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bellpost_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module in sorted({name.split(".")[0] for name in tracing.TARGETS}):
        importlib.import_module(f"bellpost.{module}")
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = m @ m.conj().T
    return mat / np.trace(mat)
