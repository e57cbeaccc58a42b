"""Unit and property tests for the exact quantum kernel."""

import math

import numpy as np
import pytest

from bellpost import qcore
from bellpost.qcore import (
    DensityMatrix,
    NumericsError,
    Projector,
    PureState,
    acceptance_table,
    canonical_angle,
    ket_theta,
    mixture_density,
    phi_plus,
    tensor,
    trace_distance,
)
from conftest import born_prob, density, partial_trace


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
        np.testing.assert_allclose(ket_theta(0.0).amps, [1, 0], atol=1e-12)

    def test_theta_pi_is_ket1(self):
        np.testing.assert_allclose(ket_theta(math.pi).amps, [0, 1], atol=1e-12)

    def test_theta_half_pi_is_plus(self):
        inv = 1 / math.sqrt(2)
        np.testing.assert_allclose(ket_theta(math.pi / 2).amps, [inv, inv], atol=1e-12)

    def test_unit_norm_for_random_angles(self):
        rng = np.random.default_rng(1)
        for theta in rng.uniform(-10, 10, size=50):
            s = ket_theta(theta)
            assert np.sum(np.abs(s.amps) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestTensor:
    def test_basis_products(self):
        k0, k1 = ket_theta(0.0), ket_theta(math.pi)
        np.testing.assert_allclose(tensor(k0, k1).amps, [0, 1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(tensor(k0, k0).amps, [1, 0, 0, 0], atol=1e-12)

    def test_plus_plus_is_uniform(self):
        p = ket_theta(math.pi / 2)
        np.testing.assert_allclose(tensor(p, p).amps, [0.5] * 4, atol=1e-12)

    def test_dimension_overflow_rejected(self):
        four = tensor(phi_plus(), phi_plus())
        with pytest.raises(ValueError, match="qubits"):
            tensor(four, ket_theta(0.0))


class TestPhiPlus:
    def test_amplitudes(self):
        inv = 1 / math.sqrt(2)
        np.testing.assert_allclose(phi_plus().amps, [inv, 0, 0, inv], atol=1e-12)

    def test_projects_onto_itself(self):
        assert born_prob(phi_plus(), Projector.onto(phi_plus())) == pytest.approx(1.0, abs=1e-12)

    def test_both_marginals_maximally_mixed(self):
        rho = density(phi_plus())
        for keep in ((0,), (1,)):
            np.testing.assert_allclose(partial_trace(rho, keep).mat, np.eye(2) / 2, atol=1e-12)


class TestBornProb:
    def test_equal_angles_give_half(self):
        proj = Projector.onto(phi_plus())
        for a in (0.0, 0.3, 2.2, 5.9):
            pair = tensor(ket_theta(a), ket_theta(a))
            assert born_prob(pair, proj) == pytest.approx(0.5, abs=1e-12)

    def test_opposite_angles_give_zero(self):
        proj = Projector.onto(phi_plus())
        pair = tensor(ket_theta(0.7), ket_theta(0.7 + math.pi))
        assert born_prob(pair, proj) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_turn_gives_quarter(self):
        # Frozen from overlap_prob_oracle(0.4, 0.4 + pi/2) = 0.25.
        proj = Projector.onto(phi_plus())
        pair = tensor(ket_theta(0.4), ket_theta(0.4 + math.pi / 2))
        assert overlap_prob_oracle(0.4, 0.4 + math.pi / 2) == pytest.approx(0.25, abs=1e-12)
        assert born_prob(pair, proj) == pytest.approx(0.25, abs=1e-12)

    def test_matches_half_cos_squared_law(self):
        # The acceptance-rate law p = cos(delta/2)^2 / 2, against the raw
        # inner-product oracle, over 100 random angle pairs.
        proj = Projector.onto(phi_plus())
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(-2 * math.pi, 2 * math.pi)
            got = born_prob(tensor(ket_theta(a), ket_theta(a + d)), proj)
            assert got == pytest.approx(0.5 * math.cos(d / 2) ** 2, abs=1e-12)
            assert got == pytest.approx(overlap_prob_oracle(a, a + d), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            born_prob(ket_theta(0.0), Projector.onto(phi_plus()))


class TestAcceptanceTable:
    def _angles(self, rng):
        return rng.uniform(-2 * math.pi, 4 * math.pi, size=(2, 2))

    def test_matches_born_oracle_for_phi_plus(self):
        proj = Projector.onto(phi_plus())
        rng = np.random.default_rng(12)
        for _ in range(100):
            ta, tb = self._angles(rng), self._angles(rng)
            table = acceptance_table(proj.mat, ta, tb)
            for a, b, x, y in np.ndindex(2, 2, 2, 2):
                pair = tensor(ket_theta(ta[a, x]), ket_theta(tb[b, y]))
                assert abs(table[a, b, x, y] - born_prob(pair, proj)) <= 1e-15

    def test_matches_born_rule_for_random_effects(self):
        # tr[E |psi><psi|] = <psi|E|psi> for an effect with eigenvalues in [0, 1].
        rng = np.random.default_rng(13)
        for _ in range(100):
            basis = _random_unitary(rng, 4)
            effect = (basis * rng.uniform(0, 1, size=4)) @ basis.conj().T
            ta, tb = self._angles(rng), self._angles(rng)
            table = acceptance_table(effect, ta, tb)
            for a, b, x, y in np.ndindex(2, 2, 2, 2):
                psi = tensor(ket_theta(ta[a, x]), ket_theta(tb[b, y])).amps
                want = float(np.real(np.vdot(psi, effect @ psi)))
                assert abs(table[a, b, x, y] - want) <= 1e-15

    def test_out_of_range_value_raises(self):
        angles = np.zeros((2, 2))
        with pytest.raises(NumericsError):
            acceptance_table(2 * np.eye(4), angles, angles)
        with pytest.raises(NumericsError):
            acceptance_table(np.full((4, 4), np.nan), angles, angles)


class TestMixtureDensity:
    def test_z_pair_gives_maximally_mixed(self):
        rho = mixture_density([(0.5, ket_theta(0.0)), (0.5, ket_theta(math.pi))])
        np.testing.assert_allclose(rho.mat, np.eye(2) / 2, atol=1e-12)

    def test_x_pair_gives_maximally_mixed(self):
        rho = mixture_density(
            [(0.5, ket_theta(math.pi / 2)), (0.5, ket_theta(3 * math.pi / 2))]
        )
        np.testing.assert_allclose(rho.mat, np.eye(2) / 2, atol=1e-12)

    def test_single_component_is_pure(self):
        psi = ket_theta(1.1)
        rho = mixture_density([(1.0, psi)])
        np.testing.assert_allclose(rho.mat, np.outer(psi.amps, psi.amps.conj()), atol=1e-12)

    def test_unnormalized_probs_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            mixture_density([(0.7, ket_theta(0.0)), (0.2, ket_theta(math.pi))])


class TestTraceDistance:
    def test_identical_states(self):
        rho = density(ket_theta(0.4))
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        d = trace_distance(density(ket_theta(0.0)), density(ket_theta(math.pi)))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_z_and_x_ensembles_indistinguishable(self):
        rho0 = mixture_density([(0.5, ket_theta(0.0)), (0.5, ket_theta(math.pi))])
        rho1 = mixture_density(
            [(0.5, ket_theta(math.pi / 2)), (0.5, ket_theta(3 * math.pi / 2))]
        )
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
            trace_distance(density(ket_theta(0.0)), density(phi_plus()))


class TestPartialTrace:
    def test_entangled_marginal(self):
        np.testing.assert_allclose(
            partial_trace(density(phi_plus()), (0,)).mat, np.eye(2) / 2, atol=1e-12
        )

    def test_product_state_keep_second(self):
        plus = ket_theta(math.pi / 2)
        rho = density(tensor(ket_theta(0.0), plus))
        np.testing.assert_allclose(
            partial_trace(rho, (1,)).mat, np.outer(plus.amps, plus.amps.conj()), atol=1e-12
        )

    def test_trace_preserved_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho = _random_density(rng, 8)  # three qubits
            for keep in ((0,), (1, 2), (0, 2)):
                reduced = partial_trace(rho, keep)
                assert np.trace(reduced.mat).real == pytest.approx(1.0, abs=1e-9)

    def test_invalid_index_set_rejected(self):
        with pytest.raises(ValueError, match="subset"):
            partial_trace(density(phi_plus()), (2,))
        with pytest.raises(ValueError, match="subset"):
            partial_trace(density(phi_plus()), ())


class TestCompleteness:
    def test_born_probs_sum_to_one_for_random_complete_sets(self):
        rng = np.random.default_rng(11)
        for n_qubits in (1, 2):
            dim = 2**n_qubits
            for _ in range(20):
                basis = _random_unitary(rng, dim)
                projs = [Projector.onto(PureState(basis[:, k])) for k in range(dim)]
                state = _random_state(rng, dim)
                total = sum(born_prob(state, p) for p in projs)
                assert total == pytest.approx(1.0, abs=1e-12)


class TestTypeInvariants:
    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(np.array([1.0, 1.0]))

    def test_bad_register_size_rejected(self):
        with pytest.raises(ValueError):
            PureState(np.ones(3) / math.sqrt(3))
        with pytest.raises(ValueError):
            PureState(np.ones(32) / math.sqrt(32))

    def test_non_hermitian_density_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_non_idempotent_projector_rejected(self):
        with pytest.raises(ValueError, match="idempotent"):
            Projector(np.eye(2) / 2)

    def test_probability_clamp_rejects_logic_bugs(self):
        for value in (1.001, -0.001, math.nan, np.array([0.5, 1.001])):
            with pytest.raises(NumericsError):
                qcore._clamp_probability(value)
        np.testing.assert_array_equal(
            qcore._clamp_probability(np.array([-1e-13, 0.5, 1.0 + 1e-13])), [0.0, 0.5, 1.0]
        )
        assert qcore._clamp_probability(1.0 + 1e-13) == 1.0
        assert qcore._clamp_probability(-1e-13) == 0.0

    def test_values_immutable_after_construction(self):
        s = ket_theta(0.3)
        with pytest.raises(ValueError):
            s.amps[0] = 0.0


def _random_state(rng: np.random.Generator, dim: int) -> PureState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = m @ m.conj().T
    return DensityMatrix(mat / np.trace(mat))
