"""Tests for the entanglement-swapping realization."""

import math

import numpy as np
import pytest

from bellpost import protocol, swap
from bellpost.qcore import (
    DensityMatrix,
    Projector,
    ket_theta,
    partial_trace,
    phi_plus,
    trace_distance,
)
from bellpost.swap import (
    NoiseParams,
    SwapConfig,
    build_initial,
    depolarizing_sweep,
    exact_postselected_swap,
    exact_swap_s,
    joint_distribution,
    order_invariance,
    run_swap,
    scheme_projectors,
)

TWO_SQRT2 = 2 * math.sqrt(2)


def local_projectors(basis: int, jitter: float) -> tuple[Projector, Projector]:
    """Z-like (basis 0) or X-like (basis 1) measurement, offset by jitter.

    Outcome index equals the party's state value: outcome x projects onto the
    state at angle x*pi (basis 0) or pi/2 + x*pi (basis 1), plus the jitter.
    """
    base = 0.0 if basis == 0 else math.pi / 2
    return (
        Projector.onto(ket_theta(base + jitter)),
        Projector.onto(ket_theta(base + math.pi + jitter)),
    )


def remote_state_check(basis: int, jitter: float) -> DensityMatrix:
    """No-signalling oracle: the outcome-averaged remotely prepared state.

    Measures qubit 0 of a maximally entangled pair with
    ``local_projectors(basis, jitter)`` and averages the post-measurement
    reduced states of qubit 1; the result is I/2 for every basis and jitter,
    which is the guarantee the swap realization relies on.
    """
    rho = phi_plus().density().mat
    acc = np.zeros((4, 4), dtype=np.complex128)
    for p in local_projectors(basis, jitter):
        m = np.kron(p.mat, np.eye(2))
        acc += m @ rho @ m
    return partial_trace(DensityMatrix(acc), (1,))


class TestBuildInitial:
    def test_corner_amplitudes(self):
        amps = build_initial().amps
        assert amps[0b0000] == pytest.approx(0.5)
        assert amps[0b0100] == pytest.approx(0.0)
        assert amps[0b1111] == pytest.approx(0.5)

    def test_charlie_bound_marginal_is_mixed(self):
        from bellpost.qcore import partial_trace

        rho = partial_trace(build_initial().density(), (1, 3))
        np.testing.assert_allclose(rho.mat, np.eye(4) / 4, atol=1e-12)


class TestLocalProjectors:
    def test_basis0_is_z_pair(self):
        p0, p1 = local_projectors(0, 0.0)
        np.testing.assert_allclose(p0.mat, np.diag([1, 0]), atol=1e-12)
        np.testing.assert_allclose(p1.mat, np.diag([0, 1]), atol=1e-12)

    def test_basis1_is_x_pair(self):
        p0, p1 = local_projectors(1, 0.0)
        np.testing.assert_allclose(p0.mat, np.full((2, 2), 0.5), atol=1e-12)
        np.testing.assert_allclose(p1.mat, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_sum_to_identity_for_random_jitter(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            basis = int(rng.integers(2))
            p0, p1 = local_projectors(basis, rng.uniform(0, 2 * math.pi))
            np.testing.assert_allclose(p0.mat + p1.mat, np.eye(2), atol=1e-12)

    def test_alice_scheme_projectors_match(self):
        alice, _ = protocol.canonical_schemes()
        for basis in (0, 1):
            want = local_projectors(basis, 0.1)
            got = scheme_projectors(alice, basis, 0.1)
            for w, g in zip(want, got):
                np.testing.assert_allclose(w.mat, g.mat, atol=1e-12)

    def test_non_antipodal_scheme_rejected(self):
        crooked = protocol.PreparationScheme.uniform([[0.0, 1.0], [0.0, math.pi]])
        with pytest.raises(ValueError, match="orthogonal"):
            scheme_projectors(crooked, 0, 0.0)


class TestRemoteStateCheck:
    def test_z_measurement_average(self):
        np.testing.assert_allclose(remote_state_check(0, 0.0).mat, np.eye(2) / 2, atol=1e-12)

    def test_jittered_x_measurement_average(self):
        np.testing.assert_allclose(remote_state_check(1, 0.3).mat, np.eye(2) / 2, atol=1e-12)

    def test_basis_independent_across_random_jitters(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            j0, j1 = rng.uniform(0, 2 * math.pi, size=2)
            d = trace_distance(remote_state_check(0, j0), remote_state_check(1, j1))
            assert d < 1e-12


class TestJointDistribution:
    def test_normalized_per_basis_pair(self):
        rng = np.random.default_rng(52)
        noise = NoiseParams(
            depol_alice=rng.uniform(),
            depol_bob=rng.uniform(),
            jitter_alice=rng.uniform(0, 1),
            jitter_bob=rng.uniform(0, 1),
            charlie_mix=rng.uniform(),
        )
        for order in swap.ORDERS:
            joint = joint_distribution(noise, order)
            np.testing.assert_allclose(joint.sum(axis=(2, 3, 4)), 1.0, atol=1e-12)

    def test_zero_noise_matches_direct_preparation(self):
        # The swap's exact post-selected table must equal the canonical
        # send-the-states table: remote preparation realizes the same scheme.
        table, rates = exact_postselected_swap(joint_distribution(NoiseParams(), "parties-first"))
        direct, direct_rates = protocol.exact_postselected(*protocol.canonical_schemes())
        np.testing.assert_allclose(table.probs, direct.probs, atol=1e-12)
        np.testing.assert_allclose(rates, direct_rates, atol=1e-12)

    def test_zero_noise_s(self):
        assert exact_swap_s(NoiseParams()) == pytest.approx(TWO_SQRT2, abs=1e-12)


def _order_gap(noise: NoiseParams) -> float:
    return order_invariance(*(joint_distribution(noise, order) for order in swap.ORDERS))


class TestOrderInvariance:
    def test_zero_noise(self):
        assert _order_gap(NoiseParams()) < 1e-12

    def test_random_noise_configs(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            noise = NoiseParams(
                depol_alice=rng.uniform(),
                depol_bob=rng.uniform(),
                jitter_alice=rng.uniform(0, 2 * math.pi),
                jitter_bob=rng.uniform(0, 2 * math.pi),
                charlie_mix=rng.uniform(),
            )
            assert _order_gap(noise) < 1e-12


class TestRunSwap:
    def test_zero_noise_recovers_quantum_value(self):
        t = run_swap(SwapConfig(n_trials=500_000, seed=54))
        rep = protocol.bell_report(t, 1000, seed=0)
        assert abs(rep.s - TWO_SQRT2) < 5 * rep.se_s
        sigma = math.sqrt(0.25 * 0.75 / t.n_total)
        assert abs(t.n_selected / t.n_total - 0.25) < 5 * sigma

    def test_full_depolarizing_kills_correlations(self):
        noise = NoiseParams(depol_alice=1.0, depol_bob=1.0)
        t = run_swap(SwapConfig(n_trials=200_000, noise=noise, seed=55))
        rep = protocol.bell_report(t, 500, seed=0)
        assert abs(rep.s) < 5 * rep.se_s

    def test_trivial_charlie_kills_correlations(self):
        noise = NoiseParams(charlie_mix=1.0)
        t = run_swap(SwapConfig(n_trials=200_000, noise=noise, seed=56))
        rep = protocol.bell_report(t, 500, seed=0)
        assert abs(rep.s) < 5 * rep.se_s

    def test_orderings_sample_identical_statistics(self):
        pf = run_swap(SwapConfig(n_trials=100_000, seed=57, order="parties-first"))
        cf = run_swap(SwapConfig(n_trials=100_000, seed=57, order="charlie-first"))
        # identical joints and identical substreams give identical tallies
        np.testing.assert_array_equal(pf.counts, cf.counts)

    def test_reproducible(self):
        t1 = run_swap(SwapConfig(n_trials=50_000, seed=58))
        t2 = run_swap(SwapConfig(n_trials=50_000, seed=58))
        np.testing.assert_array_equal(t1.counts, t2.counts)


class TestDepolarizingSweep:
    def test_monotone_with_pinned_endpoints(self):
        rows = depolarizing_sweep(np.linspace(0.0, 1.0, 11))
        values = [s for _, s in rows]
        assert values[0] == pytest.approx(TWO_SQRT2, abs=1e-9)
        assert values[-1] == pytest.approx(0.0, abs=1e-9)
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-12

    def test_interior_strictly_between(self):
        rows = depolarizing_sweep([0.3])
        assert 0.0 < rows[0][1] < TWO_SQRT2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            depolarizing_sweep([1.2])


class TestNoiseParams:
    def test_depol_range_enforced(self):
        with pytest.raises(ValueError, match="depol_alice"):
            NoiseParams(depol_alice=-0.1)

    def test_jitter_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="jitter_bob"):
            NoiseParams(jitter_bob=-1.0)

    def test_order_enforced(self):
        with pytest.raises(ValueError, match="order"):
            SwapConfig(n_trials=10, order="simultaneous")

    def test_trials_enforced(self):
        with pytest.raises(ValueError, match=">= 1"):
            SwapConfig(n_trials=0)
