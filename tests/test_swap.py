"""Tests for the entanglement-swapping realization."""

import io
import json
import math
from unittest import mock

import numpy as np
import pytest

from bellpost import protocol, swap
from bellpost.cli import main
from bellpost.swap import (
    PHI_PLUS,
    NoiseParams,
    _real_kets,
    depolarizing_sweep,
    joint_distribution,
    order_invariance,
)
from conftest import (
    charlie_first_joint_oracle,
    density,
    partial_trace,
    pauli_depolarize_qubit,
    swap_tally,
    trace_distance,
)

TWO_SQRT2 = 2 * math.sqrt(2)


def postselected_s(noise: NoiseParams, order: str = "parties-first") -> float:
    """The CHSH value of one order's post-selected joint."""
    return protocol.table_s(protocol.postselect(joint_distribution(noise, order))[0])


def werner_s(noise: NoiseParams) -> float:
    """The closed form 2 sqrt(2) eta cos(j_A - j_B), eta = (1 - eps)(1 - p_A)(1 - p_B)."""
    eta = (1 - noise.charlie_mix) * (1 - noise.depol_alice) * (1 - noise.depol_bob)
    return TWO_SQRT2 * eta * math.cos(noise.jitter_alice - noise.jitter_bob)


def local_projectors(basis: int, jitter: float) -> np.ndarray:
    """Z-like (basis 0) or X-like (basis 1) measurement, offset by jitter.

    Outcome index equals the party's state value: outcome x projects onto the
    state at angle x*pi (basis 0) or pi/2 + x*pi (basis 1), plus the jitter.
    Returns the two projectors as an array indexed [x, row, col].
    """
    base = 0.0 if basis == 0 else math.pi / 2
    return np.array([density(_real_kets(base + x * math.pi + jitter)) for x in (0, 1)])


def remote_state_check(basis: int, jitter: float) -> np.ndarray:
    """No-signalling oracle: the outcome-averaged remotely prepared state.

    Measures qubit 0 of a maximally entangled pair with
    ``local_projectors(basis, jitter)`` and averages the post-measurement
    reduced states of qubit 1; the result is I/2 for every basis and jitter,
    which is the guarantee the swap realization relies on.
    """
    rho = density(PHI_PLUS)
    acc = np.zeros((4, 4))
    for p in local_projectors(basis, jitter):
        m = np.kron(p, np.eye(2))
        acc += m @ rho @ m
    return partial_trace(acc, (1,))


class TestBuildInitial:
    def test_corner_amplitudes(self):
        amps = swap._TWO_PAIRS
        assert amps[0b0000] == pytest.approx(0.5)
        assert amps[0b0100] == pytest.approx(0.0)
        assert amps[0b1111] == pytest.approx(0.5)

    def test_charlie_bound_marginal_is_mixed(self):
        rho = partial_trace(density(swap._TWO_PAIRS), (1, 3))
        np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-12)


class TestLocalProjectors:
    def test_basis0_is_z_pair(self):
        p0, p1 = local_projectors(0, 0.0)
        np.testing.assert_allclose(p0, np.diag([1, 0]), atol=1e-12)
        np.testing.assert_allclose(p1, np.diag([0, 1]), atol=1e-12)

    def test_basis1_is_x_pair(self):
        p0, p1 = local_projectors(1, 0.0)
        np.testing.assert_allclose(p0, np.full((2, 2), 0.5), atol=1e-12)
        np.testing.assert_allclose(p1, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_sum_to_identity_for_random_jitter(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            basis = int(rng.integers(2))
            p0, p1 = local_projectors(basis, rng.uniform(0, 2 * math.pi))
            np.testing.assert_allclose(p0 + p1, np.eye(2), atol=1e-12)


class TestRemoteStateCheck:
    def test_z_measurement_average(self):
        np.testing.assert_allclose(remote_state_check(0, 0.0), np.eye(2) / 2, atol=1e-12)

    def test_jittered_x_measurement_average(self):
        np.testing.assert_allclose(remote_state_check(1, 0.3), np.eye(2) / 2, atol=1e-12)

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
        # Every swap announces a quarter of each basis pair's trials.
        for order in swap.ORDERS:
            joint = joint_distribution(noise, order)
            np.testing.assert_allclose(joint.sum(axis=(2, 3)), 0.25, rtol=0, atol=1e-12)

    def test_zero_noise_matches_direct_preparation(self):
        # The swap's exact post-selected table must equal the canonical
        # send-the-states table: remote preparation realizes the same scheme.
        joint = joint_distribution(NoiseParams(), "parties-first")
        table, rates = protocol.postselect(joint)
        direct, direct_rates = protocol.exact_postselected(*protocol.canonical_schemes())
        np.testing.assert_allclose(table.probs, direct.probs, atol=1e-12)
        np.testing.assert_allclose(rates, direct_rates, atol=1e-12)

    def test_zero_noise_s(self):
        assert postselected_s(NoiseParams()) == pytest.approx(TWO_SQRT2, abs=1e-12)

    def test_zero_visibility_s_is_exactly_zero(self):
        # At eta = 0 every announced weight is the same 1/16, so S is 0.0
        # with no rounding residue.
        assert depolarizing_sweep([1.0]) == [(1.0, 0.0)]
        assert postselected_s(NoiseParams(charlie_mix=1.0)) == 0.0

    @pytest.mark.parametrize("order", swap.ORDERS)
    def test_postselected_s_is_werner_closed_form(self, order):
        # Jitters past 2 pi exercise their reduction as well.
        rng = np.random.default_rng(66)
        for _ in range(200):
            noise = NoiseParams(
                depol_alice=rng.uniform(),
                depol_bob=rng.uniform(),
                jitter_alice=rng.uniform(0, 7),
                jitter_bob=rng.uniform(0, 7),
                charlie_mix=rng.uniform(),
            )
            assert abs(postselected_s(noise, order) - werner_s(noise)) <= 1e-14


def _random_noise(rng: np.random.Generator) -> NoiseParams:
    return NoiseParams(
        depol_alice=rng.uniform(),
        depol_bob=rng.uniform(),
        jitter_alice=rng.uniform(0, 2 * math.pi),
        jitter_bob=rng.uniform(0, 2 * math.pi),
        charlie_mix=rng.uniform(),
    )


class TestDepolarizeQubit:
    # The tensor form (1 - p) t + p (I/2 (x) tr_q t) against the Pauli twirl.
    @pytest.mark.parametrize("n", (2, 4))
    def test_matches_pauli_twirl(self, n):
        rng = np.random.default_rng(60 + n)
        dim = 1 << n
        for qubit in range(n):
            for p in (0.0, rng.uniform(), 1.0):
                g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                mat = (g + g.conj().T) / 2
                got = swap._depolarize_qubit(mat.reshape([2] * (2 * n)), qubit, p)
                want = pauli_depolarize_qubit(mat, qubit, p, n)
                np.testing.assert_allclose(got.reshape(dim, dim), want, rtol=0, atol=1e-15)


class TestMatrixOracle:
    # The parent form of the charlie-first evolution: 16x16 matrices, embedded
    # Paulis and projectors, and one trace per (a, b, x, y).
    @pytest.mark.parametrize("order", swap.ORDERS)
    def test_joint_matches_matrix_evolution(self, order):
        rng = np.random.default_rng(61)
        for _ in range(20):
            noise = _random_noise(rng)
            want = charlie_first_joint_oracle(noise)[..., 1]
            np.testing.assert_allclose(joint_distribution(noise, order), want, rtol=0, atol=1e-15)


def _order_gap(noise: NoiseParams) -> float:
    return order_invariance(*(joint_distribution(noise, order) for order in swap.ORDERS))


class TestOrderInvariance:
    # The parties-first joint is reduced to the two Charlie-bound qubits and
    # the charlie-first joint is a full four-qubit evolution; they agree to
    # rounding.
    def test_zero_noise(self):
        assert _order_gap(NoiseParams()) <= 1e-15

    def test_random_noise_configs(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            assert _order_gap(_random_noise(rng)) <= 1e-15

    def test_huge_jitter_reaches_a_report(self, capsys):
        # A jitter of 1e17 is reduced to [0, 2 pi) before it is added, so
        # each basis keeps two antipodal kets and both orders agree.  Added
        # unreduced, it would round both of Alice's angles in a basis to one
        # float, and her outcomes would carry no correlation.
        doc = {"mode": "swap", "noise": {"jitter_alice": 1e17}, "trials": 1000}
        with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))):
            assert main(["swap", "--config", "-"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        rates = results["selection_rates"]
        assert len(rates) == 4
        assert all(abs(r - 0.25) <= 1e-12 for r in rates.values())
        assert results["order_invariance_gap"] <= 1e-15
        reduced = NoiseParams(jitter_alice=math.fmod(1e17, 2 * math.pi))
        assert results["exact_s"] == pytest.approx(werner_s(reduced), abs=1e-12)


class TestRunSwap:
    def test_zero_noise_recovers_quantum_value(self):
        t = swap_tally(500_000, 54)
        rep = protocol.bell_report(t)
        assert abs(rep.s - TWO_SQRT2) < 5 * rep.se_s
        sigma = math.sqrt(0.25 * 0.75 / t.n_total)
        assert abs(t.n_selected / t.n_total - 0.25) < 5 * sigma

    def test_full_depolarizing_kills_correlations(self):
        noise = NoiseParams(depol_alice=1.0, depol_bob=1.0)
        t = swap_tally(200_000, 55, noise)
        rep = protocol.bell_report(t)
        assert abs(rep.s) < 5 * rep.se_s

    def test_trivial_charlie_kills_correlations(self):
        noise = NoiseParams(charlie_mix=1.0)
        t = swap_tally(200_000, 56, noise)
        rep = protocol.bell_report(t)
        assert abs(rep.s) < 5 * rep.se_s

    def test_orderings_sample_identical_statistics(self):
        pf = swap_tally(100_000, 57, order="parties-first")
        cf = swap_tally(100_000, 57, order="charlie-first")
        # identical joints and identical substreams give identical tallies
        np.testing.assert_array_equal(pf.counts, cf.counts)

    def test_reproducible(self):
        t1 = swap_tally(50_000, 58)
        t2 = swap_tally(50_000, 58)
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

    def test_rows_equal_closed_form(self):
        # Grids of 1-50 points drawn with replacement from a pool holding
        # both endpoints, so most grids repeat a point.
        s0 = protocol.exact_s(*protocol.canonical_schemes())
        rng = np.random.default_rng(65)
        for _ in range(100):
            pool = np.concatenate([[0.0, 1.0], rng.uniform(size=8)])
            grid = rng.choice(pool, size=int(rng.integers(1, 51)))
            rows = depolarizing_sweep(grid)
            assert [p for p, _ in rows] == grid.tolist()
            for p, s in rows:
                assert s == s0 * (1 - p) ** 2
                assert abs(s - postselected_s(NoiseParams(depol_alice=p, depol_bob=p))) <= 1e-14

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

    def test_jitter_must_be_finite(self):
        with pytest.raises(ValueError, match="jitter_alice"):
            NoiseParams(jitter_alice=math.inf)

    def test_order_enforced(self):
        with pytest.raises(ValueError, match="order"):
            joint_distribution(NoiseParams(), "simultaneous")

    def test_trials_enforced(self):
        cells = protocol.announced_cells(np.full((2, 2, 2, 2), 1 / 16))
        with pytest.raises(ValueError, match=">= 1"):
            protocol.sample_tally(0, 0, cells)
