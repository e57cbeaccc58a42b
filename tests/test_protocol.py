"""Tests for the three-party task: schemes, tallies, exact statistics, sampling."""

import math
import sys
import threading
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpost import lhv, protocol, swap
from bellpost.protocol import (
    BellReport,
    CondProbTable,
    EmptyCellError,
    PreparationScheme,
    Tally,
    bell_report,
    bell_s,
    bob_labels_swapped,
    canonical_angle,
    canonical_schemes,
    check_basis_independence,
    correlations,
    exact_postselected,
    exact_s,
    postselect,
    sample_tally,
    table_s,
)
from bellpost.rng import trial_stream
from bellpost.swap import _real_kets
from conftest import (
    correlation_oracle,
    edge_lhv_model,
    mixture,
    random_deterministic_model,
    random_stochastic_model,
    swap_tally,
)

PI = math.pi
TWO_SQRT2 = 2 * math.sqrt(2)


@dataclass(frozen=True)
class TrialRecord:
    """One completed trial of the per-trial oracle: bases, states, announcement."""

    a: int
    b: int
    x: int
    y: int
    c: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "x", "y", "c"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"trial field {name} must be a bit")


def tally_from_records(records, n_total: int) -> Tally:
    """Accumulate selected trial records into a Tally, one trial at a time."""
    counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
    for r in records:
        if r.c == 1:
            counts[r.a, r.b, r.x, r.y] += 1
    return Tally(counts, n_total)


def raw_words(seed: int, n: int) -> np.ndarray:
    """Trials 0..n-1 as one long raw PCG64DXSM draw, one word a trial.

    The draw never calls ``advance``, so it checks the sampler's jumps.
    """
    return np.random.PCG64DXSM(seed).random_raw(n)


def edge_words(cut, n: int, seed: int) -> np.ndarray:
    """n words whose column (bits 0-4) is random and whose top 53 bits k sit
    exactly on that column's cut, one step below it, or at 0 or 2**53 - 1.

    Bits 5-10, which no transform reads, are random.
    """
    gen = np.random.default_rng(seed)
    col = gen.integers(0, 32, size=n)
    tops = np.array([[0, c - 1, c, 2**53 - 1] for c in map(int, cut)], dtype=np.int64)
    top = tops[col, gen.integers(0, 4, size=n)].clip(0, 2**53 - 1).astype(np.uint64)
    low = gen.integers(0, 2**6, size=n, dtype=np.uint64) << np.uint64(5)
    return (top << np.uint64(11)) | low | col.astype(np.uint64)


def alias_records(words: np.ndarray, weights):
    """Per-trial pure-Python oracle of the alias transform over raw words.

    Bits 0-4 of a word pick a column of ``protocol.alias_table(weights)``;
    the column keeps itself when the integer its top 53 bits hold is below
    the column's cut, and otherwise the trial takes the column's alias.
    Outcomes 0..15 are the announced cells ((a*2 + b)*2 + x)*2 + y; any other
    outcome is an unannounced trial, whose record carries c = 0 and no cell.
    """
    cut, alias = (t.tolist() for t in protocol.alias_table(weights))
    records = []
    for word in words.tolist():
        col = word % 32
        outcome = col if word >> 11 < cut[col] else alias[col]
        if outcome < 16:
            a, b, x, y = (outcome >> 3, outcome >> 2 & 1, outcome >> 1 & 1, outcome & 1)
            records.append(TrialRecord(a, b, x, y, 1))
        else:
            records.append(TrialRecord(0, 0, 0, 0, 0))
    return records


def alias_outcomes(words: np.ndarray, weights) -> np.ndarray:
    """Each word's outcome through ``protocol.alias_table(weights)``, the
    whole array at once: its column if the cut keeps it, else the alias."""
    cut, alias = protocol.alias_table(weights)
    col = (words & np.uint64(31)).astype(np.int64)
    return np.where((words >> np.uint64(11)) < cut[col], col, alias[col])


def sampled_from_words(monkeypatch, words: np.ndarray, run):
    """The tally ``run(n)`` gives when the sampler is fed these words.

    Each share's stream hands out the words from its first trial on, as many
    as each draw asks for, and never past the share's end.
    """

    def fed(seed, start, stop):
        at = [start]

        def random_raw(k):
            at[0] += k
            assert at[0] <= stop
            return words[at[0] - k : at[0]]

        return SimpleNamespace(random_raw=random_raw)

    monkeypatch.setattr(protocol, "trial_stream", fed)
    return run(words.shape[0])


def quantum_weights(alice: PreparationScheme, bob: PreparationScheme) -> np.ndarray:
    """The announced law priors_a[a, x] priors_b[b, y] sel[a, b, x, y], cell by cell."""
    sel = protocol.selection_probability_table(alice.angles, bob.angles)
    w = np.zeros((2, 2, 2, 2))
    for a, b, x, y in np.ndindex(2, 2, 2, 2):
        w[a, b, x, y] = alice.priors[a, x] * bob.priors[b, y] * sel[a, b, x, y]
    return w


def exact_table_oracle(alice: PreparationScheme, bob: PreparationScheme):
    """Independent post-selection oracle from the acceptance law cos(d/2)^2/2.

    Builds p(x,y|a,b) by plain scalar arithmetic, no package calls.
    """
    table = {}
    rates = {}
    for a in (0, 1):
        for b in (0, 1):
            w = {}
            for x in (0, 1):
                for y in (0, 1):
                    d = bob.angles[b, y] - alice.angles[a, x]
                    w[(x, y)] = (
                        alice.priors[a, x] * bob.priors[b, y] * 0.5 * math.cos(d / 2) ** 2
                    )
            tot = sum(w.values())
            rates[(a, b)] = tot
            for key, v in w.items():
                table[(a, b) + key] = v / tot
    return table, rates


def oracle_s(alice: PreparationScheme, bob: PreparationScheme) -> float:
    table, _ = exact_table_oracle(alice, bob)
    e = {
        (a, b): table[(a, b, 0, 0)] + table[(a, b, 1, 1)] - table[(a, b, 0, 1)] - table[(a, b, 1, 0)]
        for a in (0, 1)
        for b in (0, 1)
    }
    return e[(0, 0)] + e[(0, 1)] + e[(1, 0)] - e[(1, 1)]


def always_zero_scheme() -> PreparationScheme:
    """Degenerate scheme that sends |0> with certainty in either basis."""
    return PreparationScheme([[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]])


class TestPreparationScheme:
    def test_angles_canonicalized(self):
        s = PreparationScheme.uniform([[2 * PI, -PI], [0.0, 0.0]])
        assert s.angles[0, 0] == 0.0
        assert s.angles[0, 1] == pytest.approx(PI, abs=1e-15)

    def test_angles_reduced_bit_for_bit_as_canonical_angle(self):
        # Signed zeros, exact multiples of 2 pi, angles a rounding step below
        # zero (which wrap to 2 pi and then to 0) and values around 1e15,
        # against a scalar C fmod reduction.
        def reduce(theta):
            t = math.fmod(theta, 2 * PI)
            if t < 0.0:
                t += 2 * PI
            return 0.0 if t >= 2 * PI else t

        rng = np.random.default_rng(64)
        special = [-0.0, 0.0, 2 * PI, -2 * PI, 4 * PI, -6 * PI, -1e-300, -1e-17, 1e15, -1e15]
        angles = np.concatenate([
            special + [0.0, 0.0],
            rng.uniform(-50.0, 50.0, 400),
            rng.integers(-10**6, 10**6, 100) * (2 * PI),
            rng.choice([-1.0, 1.0], 100) * rng.uniform(0.5e15, 2e15, 100),
        ])
        want = np.array([reduce(t) for t in angles.tolist()])
        assert canonical_angle(angles).tobytes() == want.tobytes()
        for quad, want_quad in zip(angles.reshape(-1, 2, 2), want.reshape(-1, 2, 2)):
            assert PreparationScheme.uniform(quad).angles.tobytes() == want_quad.tobytes(), quad

    def test_priors_must_normalize(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PreparationScheme([[0.0, PI], [0.0, PI]], [[0.7, 0.2], [0.5, 0.5]])

    def test_priors_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PreparationScheme([[0.0, PI], [0.0, PI]], [[1.2, -0.2], [0.5, 0.5]])

    def test_basis_mixture_of_antipodal_pair_is_mixed(self):
        alice, _ = canonical_schemes()
        for a in (0, 1):
            rho = mixture(alice.priors[a], _real_kets(alice.angles[a]))
            np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


class TestCanonicalSchemes:
    def test_alice_angles(self):
        alice, _ = canonical_schemes()
        np.testing.assert_allclose(alice.angles, [[0, PI], [PI / 2, 3 * PI / 2]])

    def test_bob_basis0_starts_at_quarter_pi(self):
        _, bob = canonical_schemes()
        assert bob.angles[0, 0] == pytest.approx(PI / 4)
        assert bob.angles[0, 1] == pytest.approx(5 * PI / 4)

    def test_exact_s_is_two_sqrt_two(self):
        alice, bob = canonical_schemes()
        assert oracle_s(alice, bob) == pytest.approx(TWO_SQRT2, abs=1e-12)
        assert exact_s(alice, bob) == pytest.approx(TWO_SQRT2, abs=1e-12)

    def test_swapped_bob_labels_give_zero(self):
        # The variant with Bob's basis-1 labels exchanged kills the CHSH value;
        # this is why the canonical assignment is the one frozen above.
        alice, bob = bob_labels_swapped()
        assert oracle_s(alice, bob) == pytest.approx(0.0, abs=1e-12)
        assert exact_s(alice, bob) == pytest.approx(0.0, abs=1e-12)

    def test_pairs_are_shared(self):
        assert canonical_schemes() is canonical_schemes()
        assert bob_labels_swapped()[0] is canonical_schemes()[0]

    def test_shared_arrays_are_read_only(self):
        for scheme in (*canonical_schemes(), *bob_labels_swapped()):
            for arr in (scheme.angles, scheme.priors):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0] = 0.25


class TestExactPostselected:
    def test_matches_oracle_table(self):
        alice, bob = canonical_schemes()
        table, rates = exact_postselected(alice, bob)
        want, want_rates = exact_table_oracle(alice, bob)
        for (a, b, x, y), v in want.items():
            assert table.probs[a, b, x, y] == pytest.approx(v, abs=1e-12)
        for (a, b), r in want_rates.items():
            assert rates[a, b] == pytest.approx(r, abs=1e-12)

    def test_diagonal_cell_value(self):
        alice, bob = canonical_schemes()
        table, _ = exact_postselected(alice, bob)
        assert table.probs[0, 0, 0, 0] == pytest.approx(math.cos(PI / 8) ** 2 / 2, abs=1e-12)

    def test_selection_rates_are_quarter(self):
        table, rates = exact_postselected(*canonical_schemes())
        np.testing.assert_allclose(rates, 0.25, atol=1e-12)

    def test_always_zero_schemes(self):
        table, rates = exact_postselected(always_zero_scheme(), always_zero_scheme())
        np.testing.assert_allclose(rates, 0.5, atol=1e-12)
        np.testing.assert_allclose(table.probs[:, :, 0, 0], 1.0, atol=1e-12)

    def test_exact_no_signaling(self):
        table, _ = exact_postselected(*canonical_schemes())
        p = table.probs
        np.testing.assert_allclose(p.sum(axis=3)[:, 0, :], p.sum(axis=3)[:, 1, :], atol=1e-12)
        np.testing.assert_allclose(p.sum(axis=2)[0, :, :], p.sum(axis=2)[1, :, :], atol=1e-12)

    def test_degenerate_scheme_raises_empty_cell(self):
        # Alice always sends |0> and Bob always |1>: the pair |01> is
        # orthogonal to the selection state, so no trial is ever announced.
        alice = PreparationScheme.uniform([[0.0, 0.0], [0.0, 0.0]])
        bob = PreparationScheme.uniform([[PI, PI], [PI, PI]])
        with pytest.raises(EmptyCellError):
            exact_postselected(alice, bob)


class TestConditionalProbs:
    def test_uniform_counts(self):
        t = Tally(np.ones((2, 2, 2, 2), dtype=int), 64)
        np.testing.assert_allclose(postselect(t.counts)[0].probs, 0.25)

    def test_simple_ratio(self):
        counts = np.ones((2, 2, 2, 2), dtype=int)
        counts[0, 0] = [[3, 0], [0, 1]]
        t = Tally(counts, 100)
        assert postselect(t.counts)[0].probs[0, 0, 0, 0] == pytest.approx(0.75)

    def test_empty_cell_raises_with_location(self):
        counts = np.ones((2, 2, 2, 2), dtype=int)
        counts[1, 1] = 0
        with pytest.raises(EmptyCellError) as err:
            postselect(counts)
        assert (err.value.a, err.value.b) == (1, 1)

    def test_first_empty_pair_in_row_major_order(self):
        counts = np.ones((2, 2, 2, 2), dtype=int)
        counts[1, 0] = 0
        counts[0, 1] = 0
        with pytest.raises(EmptyCellError) as err:
            postselect(counts)
        assert (err.value.a, err.value.b) == (0, 1)

    def test_totals_are_the_per_pair_sums(self):
        counts = np.arange(16).reshape(2, 2, 2, 2) + 1
        _, totals = postselect(counts)
        np.testing.assert_array_equal(totals, counts.sum(axis=(2, 3)))

    def test_weight_at_rounding_level_is_empty(self):
        # Exact weights count a pair as empty when its total is at most
        # EXACT_TOL, zero up to the precision of the Born probabilities.
        weights = np.full((2, 2, 2, 2), 0.25)
        weights[1, 0] = 2.5e-13
        with pytest.raises(EmptyCellError) as err:
            postselect(weights)
        assert (err.value.a, err.value.b) == (1, 0)
        weights[1, 0] = 2.5e-12
        np.testing.assert_allclose(postselect(weights)[0].probs[1, 0], 0.25)


def _random_scheme(rng: np.random.Generator) -> PreparationScheme:
    return PreparationScheme(rng.uniform(0, 2 * PI, size=(2, 2)), rng.dirichlet([1, 1], size=2))


class TestCorrelation:
    def test_perfect_correlation(self):
        p = np.zeros((2, 2, 2, 2))
        p[:, :, 0, 0] = 0.5
        p[:, :, 1, 1] = 0.5
        assert correlations(CondProbTable(p))[0, 0] == pytest.approx(1.0)

    def test_uniform_is_zero(self):
        assert correlations(CondProbTable(np.full((2, 2, 2, 2), 0.25)))[1, 0] == 0.0

    def test_canonical_cell_value(self):
        # Weights cos^2(pi/8)/2 on the diagonal, sin^2(pi/8)/2 off it.
        table, _ = exact_postselected(*canonical_schemes())
        assert correlations(table)[0, 0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_matches_per_cell_formula_bit_for_bit(self):
        rng = np.random.default_rng(41)
        tables = [postselect(rng.integers(1, 1000, size=(2, 2, 2, 2)))[0] for _ in range(200)]
        tables += [
            exact_postselected(_random_scheme(rng), _random_scheme(rng))[0] for _ in range(200)
        ]
        for table in tables:
            e = correlations(table)
            assert e.shape == (2, 2)
            for a in (0, 1):
                for b in (0, 1):
                    assert e[a, b] == correlation_oracle(table, a, b)
            oracle = [correlation_oracle(table, a, b) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))]
            assert table_s(table) == bell_s(*oracle)


class TestBellS:
    def test_algebraic_maximum(self):
        assert bell_s(1, 1, 1, -1) == 4.0

    def test_quantum_value(self):
        inv = 1 / math.sqrt(2)
        assert bell_s(inv, inv, inv, -inv) == pytest.approx(TWO_SQRT2, abs=1e-12)

    def test_zero(self):
        assert bell_s(0, 0, 0, 0) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            bell_s(1.5, 0, 0, 0)


class TestCheckBasisIndependence:
    def test_canonical_alice_passes(self):
        d, ok = check_basis_independence(canonical_schemes()[0], 1e-12)
        assert ok and d < 1e-12

    def test_canonical_bob_passes(self):
        d, ok = check_basis_independence(canonical_schemes()[1], 1e-12)
        assert ok and d < 1e-12

    def test_perturbed_scheme_fails(self):
        # Shifting Alice's (1,0) state by 0.2 rad separates the two basis
        # ensembles by sin(0.1)/2; oracle below recomputes it from raw 2x2
        # matrices.
        angles = [[0.0, PI], [PI / 2 + 0.2, 3 * PI / 2]]
        scheme = PreparationScheme.uniform(angles)
        d, ok = check_basis_independence(scheme, 1e-6)
        assert not ok
        assert d > 0.01
        assert d == pytest.approx(_distance_oracle(angles, np.full((2, 2), 0.5)), abs=1e-12)
        assert d == pytest.approx(math.sin(0.1) / 2, abs=1e-12)

    def test_matches_eigvalsh_oracle_on_random_schemes(self):
        rng = np.random.default_rng(60)
        for _ in range(200):
            angles = rng.uniform(-2 * PI, 4 * PI, size=(2, 2))
            priors = rng.dirichlet(np.ones(2), size=2)
            d, _ = check_basis_independence(PreparationScheme(angles, priors), 1e-12)
            assert abs(d - _distance_oracle(angles, priors)) <= 1e-15


def _distance_oracle(angles, priors) -> float:
    """Trace distance of the two basis ensembles, from explicit 2x2 mixtures."""
    rho = []
    for a in (0, 1):
        m = np.zeros((2, 2))
        for x in (0, 1):
            v = np.array([math.cos(angles[a][x] / 2), math.sin(angles[a][x] / 2)])
            m += priors[a][x] * np.outer(v, v)
        rho.append(m)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho[0] - rho[1]))))


CANONICAL_LAW = protocol.announced_weights(*canonical_schemes())


class TestRunQuantumMc:
    """``sample_tally`` of a scheme pair's announced law, as ``quantum-mc`` runs it."""

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            sample_tally(0, 0, CANONICAL_LAW)

    def test_single_trial(self):
        t = sample_tally(0, 1, CANONICAL_LAW)
        assert t.n_total == 1
        assert t.n_selected in (0, 1)

    def test_selection_rate_near_quarter(self):
        n = 1_000_000
        t = sample_tally(42, n, CANONICAL_LAW)
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(t.n_selected / n - 0.25) < 5 * sigma

    def test_fixed_preparation_selects_only_00(self):
        law = protocol.announced_weights(always_zero_scheme(), always_zero_scheme())
        t = sample_tally(1, 10_000, law)
        assert t.n_selected > 0
        assert t.counts[:, :, 0, 0].sum() == t.n_selected

    def test_matches_per_trial_record_oracle(self, monkeypatch):
        # The words of the same stream, one trial at a time in plain Python:
        # the vectorized sampler must agree.  With blocks of 999 trials the
        # share draws several partial blocks by continuing its generator.
        monkeypatch.setattr(protocol, "BLOCK_TRIALS", 999)
        alice, bob = canonical_schemes()
        law = protocol.announced_weights(alice, bob)
        np.testing.assert_array_equal(law, quantum_weights(alice, bob))
        n, seed = 5_000, 17
        want = tally_from_records(alias_records(raw_words(seed, n), law / 4), n)
        got = sample_tally(seed, n, law)
        np.testing.assert_array_equal(got.counts, want.counts)

    def test_cut_edges_match_record_oracle(self, monkeypatch):
        alice = PreparationScheme([[0.0, PI], [PI / 2, 3 * PI / 2]], [[0.3, 0.7], [1.0, 0.0]])
        bob = PreparationScheme([[PI / 4, 5 * PI / 4], [0.5, 2.0]], [[0.0, 1.0], [0.6, 0.4]])
        law = quantum_weights(alice, bob)
        words = edge_words(protocol.alias_table(law / 4)[0], 4_000, seed=23)
        want = tally_from_records(alias_records(words, law / 4), 4_000)
        got = sampled_from_words(monkeypatch, words, lambda n: sample_tally(0, n, law))
        np.testing.assert_array_equal(got.counts, want.counts)

    def test_reproducible_and_chunk_independent(self):
        t1 = sample_tally(9, 50_000, CANONICAL_LAW)
        t2 = sample_tally(9, 50_000, CANONICAL_LAW)
        np.testing.assert_array_equal(t1.counts, t2.counts)

    def test_mc_agrees_with_exact(self):
        rep = bell_report(sample_tally(42, 1_000_000, CANONICAL_LAW))
        assert abs(rep.s - exact_s(*canonical_schemes())) < 5 * rep.se_s


def _lhv_model() -> lhv.LhvSimModel:
    return lhv.LhvSimModel(
        lambda_values=[0.2, 0.8],
        lambda_probs=[0.5, 0.5],
        lambda_prime_values=[0.3],
        lambda_prime_probs=[1.0],
        response_a=[[0.1, 0.9], [0.7, 0.2]],
        response_b=[[0.4], [0.6]],
        select=[[0.9], [0.4]],
    )


class TestSimulateLhvOracle:
    """``sample_tally`` of a model's announced law, as ``lhv-mc`` runs it."""

    def test_matches_per_trial_record_oracle(self, monkeypatch):
        monkeypatch.setattr(protocol, "BLOCK_TRIALS", 999)
        law = lhv.announced_weights(edge_lhv_model())
        n, seed = 5_000, 19
        want = tally_from_records(alias_records(raw_words(seed, n), law / 4), n)
        got = sample_tally(seed, n, law)
        np.testing.assert_array_equal(got.counts, want.counts)
        assert 0 < got.n_selected < n

    def test_cut_edges_match_record_oracle(self, monkeypatch):
        law = lhv.announced_weights(edge_lhv_model())
        # Alice never draws x = 0 in basis 1, and Bob never y = 1 in basis 1.
        assert np.all(law[1, :, 0, :] == 0.0) and np.all(law[:, 1, :, 1] == 0.0)
        words = edge_words(protocol.alias_table(law / 4)[0], 4_000, seed=29)
        want = tally_from_records(alias_records(words, law / 4), 4_000)
        got = sampled_from_words(monkeypatch, words, lambda n: sample_tally(0, n, law))
        np.testing.assert_array_equal(got.counts, want.counts)


def implied_law(cut, alias) -> list[Fraction]:
    """The exact law of an alias table: each of the 32 columns has mass 1/32,
    cut / 2**53 of it kept and the rest handed to the column's alias."""
    law = [Fraction(0)] * 32
    for col, (c, target) in enumerate(zip(cut.tolist(), alias.tolist())):
        kept = Fraction(c, 2**53)
        law[col] += kept / 32
        law[target] += (1 - kept) / 32
    return law


def _alias_laws():
    """(label, one trial's law W / 4) of every law the alias table is checked
    on, W built by the announced-law builder of the mode that samples it."""
    rng = np.random.default_rng(71)
    quantum = [canonical_schemes()]
    quantum += [(_random_scheme(rng), _random_scheme(rng)) for _ in range(200)]
    angles = [[0.0, PI], [PI / 2, 3 * PI / 2]]
    for priors in ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.5, 0.5]], [[1.0, 0.0], [1.0, 0.0]]):
        quantum.append((PreparationScheme(angles, priors), canonical_schemes()[1]))
    for schemes in quantum:
        yield "quantum", protocol.announced_weights(*schemes) / 4
    models = [edge_lhv_model()]
    for build in (random_deterministic_model, random_stochastic_model):
        models += [build(rng) for _ in range(200)]
    for m in models:
        yield "lhv", lhv.announced_weights(m) / 4
    for _ in range(200):
        depol_a, depol_b, mix = rng.uniform(size=3)
        jitter_a, jitter_b = rng.uniform(0, 2 * PI, size=2)
        noise = swap.NoiseParams(depol_a, depol_b, jitter_a, jitter_b, mix)
        for order in swap.ORDERS:
            yield order, swap.joint_distribution(noise, order) / 4


class TestAliasTable:
    def test_implied_law_is_the_float_law(self):
        # Every outcome's exact mass is within 2 steps of 2**-53 of the law
        # the float weights denote, "not announced" being 1 minus their
        # exact sum; an outcome of weight 0 and a padded column get none.
        for label, weights in _alias_laws():
            cut, alias = protocol.alias_table(weights)
            assert cut.dtype == np.uint64 and all(0 <= c <= 2**53 for c in cut.tolist())
            want = [Fraction(w) for w in weights.ravel().tolist()]
            want += [1 - sum(want)] + [Fraction(0)] * 15
            got = implied_law(cut, alias)
            assert sum(got) == 1
            for j, (g, w) in enumerate(zip(got, want)):
                assert abs(g - w) <= Fraction(2, 2**53), (label, j, float(g - w))
                if w == 0:
                    assert g == 0, (label, j)

    def test_draws_follow_the_law(self):
        # Pearson's chi-squared of 1e6 canonical trials over the 17 outcomes
        # against the law: 16 degrees of freedom, and 45.92 is their upper
        # 1e-4 quantile.
        weights = quantum_weights(*canonical_schemes()) / 4
        tally = sample_tally(12, 1_000_000, 4 * weights)
        observed = np.append(tally.counts.ravel(), 1_000_000 - tally.n_selected)
        law = np.append(weights.ravel(), 1.0 - weights.sum())
        expected = 1_000_000 * law
        assert ((observed - expected) ** 2 / expected).sum() < 45.92

    def test_weights_must_be_a_subprobability(self):
        with pytest.raises(ValueError, match="at most 1"):
            protocol.alias_table(np.full((2, 2, 2, 2), 0.25))
        with pytest.raises(ValueError, match="at most 1"):
            protocol.alias_table(np.full((2, 2, 2, 2), math.nan))


class TestAliasFold:
    """The sampler counts trials by (column, kept) and folds the 64 counts
    once through the alias table; the per-trial oracle takes each trial's
    outcome on its own."""

    @staticmethod
    def _assert_fold_matches_oracle(monkeypatch, weights, words) -> None:
        # ``weights`` are one trial's law, so the sampler gets W = 4 weights.
        want = tally_from_records(alias_records(words, weights), words.size)
        got = sampled_from_words(monkeypatch, words, lambda n: sample_tally(0, n, 4 * weights))
        np.testing.assert_array_equal(got.counts, want.counts)

    def test_sampled_laws_match_record_oracle(self, monkeypatch):
        # Every 7th random quantum, LHV and swap law, on raw and cut-edge
        # words.  Their columns give way to "not announced" and to many
        # distinct announced cells.
        targets, labels = set(), set()
        for k, (label, weights) in enumerate(_alias_laws()):
            if k % 7:
                continue
            cut, alias = protocol.alias_table(weights)
            labels.add(label)
            targets |= {int(alias[c]) for c in range(32) if cut[c] < 2**53}
            for words in (raw_words(k, 300), edge_words(cut, 300, seed=k)):
                self._assert_fold_matches_oracle(monkeypatch, weights, words)
        assert labels == {"quantum", "lhv", *swap.ORDERS}
        assert 16 in targets and len(targets - {16}) >= 8

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=17, max_size=17).filter(lambda p: sum(p) > 0.0),
        st.integers(0, 2**64 - 1),
    )
    def test_random_subprobabilities_match_record_oracle(self, mass, seed):
        # Outcome 16, "not announced", takes the 17th share of the mass,
        # which may be 0; any outcome may have weight exactly 0.
        weights = np.array(mass[:16]).reshape(2, 2, 2, 2) / math.fsum(mass)
        cut = protocol.alias_table(weights)[0]
        with pytest.MonkeyPatch.context() as monkeypatch:
            for words in (raw_words(seed, 200), edge_words(cut, 200, seed=seed)):
                self._assert_fold_matches_oracle(monkeypatch, weights, words)


SAMPLED_MODES = {
    "quantum-mc": lambda n: sample_tally(3, n, CANONICAL_LAW),
    "lhv-mc": lambda n: sample_tally(3, n, lhv.announced_weights(_lhv_model())),
    "swap": lambda n: swap_tally(n, 3),
}


# Trial counts below one block, the golden pins' odd count, the largest run
# of one share, the smallest of two (whose shares end on block edges), and
# one that splits into as many shares as the test's CPUs (2, 3 or 5), ending
# off block edges.
SHARE_EDGES = (
    protocol.BLOCK_TRIALS - 1,
    131_075,
    2 * protocol.SHARE_TRIALS - 1,
    2 * protocol.SHARE_TRIALS,
    5 * protocol.SHARE_TRIALS + protocol.BLOCK_TRIALS // 2 + 1,
)


class TestSampleTally:
    @pytest.mark.parametrize("mode", sorted(SAMPLED_MODES))
    def test_peak_memory_does_not_grow_with_trials(self, mode):
        # A whole table of 1e6 uint64 words alone would be 7.6 MiB, and the
        # transform's temporaries over it several times that.
        tracemalloc.start()
        try:
            tally = SAMPLED_MODES[mode](1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tally.n_total == 1_000_000
        assert peak < 16 * 2**20

    # 65 536 is four blocks: an edge several blocks in, and one trial past it.
    @pytest.mark.parametrize(
        "n", [1, protocol.BLOCK_TRIALS, protocol.BLOCK_TRIALS + 1, 65_536, 65_537]
    )
    def test_block_edges_match_whole_range(self, n):
        # The same law applied to the whole trial range in one array: one
        # outcome per trial, announced cells below 16 and the rest above.
        law = quantum_weights(*canonical_schemes())
        index = alias_outcomes(trial_stream(4, 0, n).random_raw(n), law / 4)
        assert index.shape == (n,)
        want = np.bincount(index, minlength=32)[:16]
        got = sample_tally(4, n, law)
        np.testing.assert_array_equal(got.counts.ravel(), want)
        assert got.n_total == n

    @pytest.mark.parametrize("cpus", [2, 3, 5])
    @pytest.mark.parametrize("mode", sorted(SAMPLED_MODES))
    def test_shares_match_single_thread_count(self, monkeypatch, mode, cpus):
        # One CPU streams the whole range on the calling thread: the reference.
        # The others run more shares than this host may have cores, with
        # frequent thread switches.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for n in SHARE_EDGES:
                monkeypatch.setattr(protocol, "_cpu_count", lambda: 1)
                want = SAMPLED_MODES[mode](n)
                monkeypatch.setattr(protocol, "_cpu_count", lambda: cpus)
                got = SAMPLED_MODES[mode](n)
                np.testing.assert_array_equal(got.counts, want.counts)
                assert got.n_total == n
        finally:
            sys.setswitchinterval(interval)

    def test_helper_exception_reraised_after_join(self, monkeypatch):
        main_thread = threading.current_thread()
        stream = protocol.trial_stream

        def failing_in_helpers(seed, start, stop):
            if threading.current_thread() is not main_thread:
                raise RuntimeError("draw failed in a helper")
            return stream(seed, start, stop)

        monkeypatch.setattr(protocol, "trial_stream", failing_in_helpers)
        monkeypatch.setattr(protocol, "_cpu_count", lambda: 3)
        weights = quantum_weights(*canonical_schemes())
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="in a helper"):
            protocol.sample_tally(1, 3 * protocol.SHARE_TRIALS, weights)
        assert threading.active_count() == before

    def test_split_starts_at_two_share_trials(self, monkeypatch):
        # Below 2 x SHARE_TRIALS trials the calling thread streams the whole
        # range alone, however many CPUs it may use; from there on it splits.
        caller = threading.current_thread()
        streamed = []
        stream = protocol._stream_counts

        def spy(seed, start, stop, cut):
            streamed.append((start, stop, threading.current_thread() is caller))
            return stream(seed, start, stop, cut)

        monkeypatch.setattr(protocol, "_stream_counts", spy)
        monkeypatch.setattr(protocol, "_cpu_count", lambda: 4)
        weights = quantum_weights(*canonical_schemes())
        n = 2 * protocol.SHARE_TRIALS
        protocol.sample_tally(1, n - 1, weights)
        assert streamed == [(0, n - 1, True)]
        streamed.clear()
        protocol.sample_tally(1, n, weights)
        assert sorted(streamed) == [(0, n // 2, True), (n // 2, n, False)]


class TestBellReport:
    def _scaled_tally(self, per_cell: int = 250_000) -> Tally:
        table, _ = exact_postselected(*canonical_schemes())
        counts = np.rint(table.probs * per_cell).astype(np.int64)
        return Tally(counts, int(counts.sum() * 4))

    def test_scaled_exact_tally_recovers_s(self):
        rep = bell_report(self._scaled_tally())
        assert rep.se_s > 0
        assert abs(rep.s - TWO_SQRT2) < 5 * rep.se_s
        assert rep.p_value < 2.87e-7

    def test_errors_are_the_closed_form(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            counts = rng.integers(1, 500, size=(2, 2, 2, 2))
            rep = bell_report(Tally(counts, int(counts.sum())))
            m = counts.sum(axis=(2, 3))
            se_e = np.sqrt((1.0 - rep.e**2) / m)
            np.testing.assert_allclose(rep.se_e, se_e, rtol=1e-12, atol=0.0)
            assert rep.se_s == pytest.approx(math.sqrt(np.sum(se_e**2)), rel=1e-12)

    def test_p_value_is_the_hoeffding_bound(self):
        # E = +0.8 on three cells and -0.8 on (1, 1): S = 3.2 over 10 + 20 + 40 + 80 trials.
        counts = np.zeros((2, 2, 2, 2), dtype=int)
        for (a, b), m in {(0, 0): 10, (0, 1): 20, (1, 0): 40, (1, 1): 80}.items():
            majority, minority = (0, 0), (0, 1)
            if (a, b) == (1, 1):
                majority, minority = minority, majority
            counts[a, b][majority] = 9 * m // 10
            counts[a, b][minority] = m // 10
        rep = bell_report(Tally(counts, 1000))
        assert rep.s == pytest.approx(3.2, abs=1e-12)
        bound = 2 * math.exp(-(1.2**2) / (2 * (1 / 10 + 1 / 20 + 1 / 40 + 1 / 80)))
        assert rep.p_value == pytest.approx(bound, rel=1e-12)

    def test_p_value_is_one_within_the_classical_bound(self):
        rep = bell_report(Tally(np.full((2, 2, 2, 2), 50), 1000))
        assert rep.s == 0.0
        assert rep.p_value == 1.0

    def test_one_sign_cells_get_no_small_p_value(self):
        # Three selected trials per cell, each cell all one sign: S = 4 with
        # se(S) = 0, yet the bound still allows such a run from |S| <= 2.
        counts = np.zeros((2, 2, 2, 2), dtype=int)
        counts[:, :, 0, 0] = 3
        counts[1, 1] = [[0, 3], [0, 0]]
        rep = bell_report(Tally(counts, 40))
        assert rep.s == 4.0 and rep.se_s == 0.0
        assert rep.p_value == pytest.approx(2 * math.exp(-1.5), rel=1e-12)

    def test_point_mass_tally_has_zero_error(self):
        counts = np.zeros((2, 2, 2, 2), dtype=int)
        counts[:, :, 0, 0] = 100
        rep = bell_report(Tally(counts, 1000))
        assert rep.s == 2.0  # E = +1 everywhere, so S = 1+1+1-1
        assert rep.se_s == 0.0

    def test_empty_cell_propagates(self):
        counts = np.zeros((2, 2, 2, 2), dtype=int)
        counts[0, 0, 0, 0] = 5
        with pytest.raises(EmptyCellError):
            bell_report(Tally(counts, 10))

    def test_stored_s_consistency_enforced(self):
        with pytest.raises(ValueError, match="CHSH combination"):
            BellReport(np.zeros((2, 2)), 1.0, np.zeros((2, 2)), 0.0, 1.0, 10, 5)


class TestTallyTypes:
    def test_selected_cannot_exceed_total(self):
        with pytest.raises(ValueError, match="exceeds"):
            Tally(np.ones((2, 2, 2, 2), dtype=int), 3)

    def test_negative_counts_rejected(self):
        counts = np.zeros((2, 2, 2, 2), dtype=int)
        counts[0, 0, 0, 0] = -1
        with pytest.raises(ValueError, match="nonnegative"):
            Tally(counts, 10)

    def test_trial_record_requires_bits(self):
        with pytest.raises(ValueError, match="bit"):
            TrialRecord(0, 0, 2, 0, 1)

    def test_table_rows_must_normalize(self):
        bad = np.full((2, 2, 2, 2), 0.2)
        with pytest.raises(ValueError, match="sum to 1"):
            CondProbTable(bad)


def _lhv_kwargs(**override) -> dict:
    kwargs = dict(
        lambda_values=[0.2, 0.8],
        lambda_probs=[0.5, 0.5],
        lambda_prime_values=[0.3],
        lambda_prime_probs=[1.0],
        response_a=[[0.1, 0.9], [0.7, 0.2]],
        response_b=[[0.4], [0.6]],
        select=[[0.9], [0.4]],
    )
    return {**kwargs, **override}


NAN, INF = math.nan, math.inf
ANGLES = [[0.0, PI], [PI / 2, 3 * PI / 2]]
NONFINITE = {
    "scheme-angle-nan": lambda: PreparationScheme.uniform([[NAN, PI], [PI / 2, 3 * PI / 2]]),
    "scheme-angle-inf": lambda: PreparationScheme.uniform([[INF, PI], [PI / 2, 3 * PI / 2]]),
    "scheme-prior": lambda: PreparationScheme(ANGLES, [[NAN, 0.5], [0.5, 0.5]]),
    "lhv-value": lambda: lhv.LhvSimModel(**_lhv_kwargs(lambda_values=[NAN, 0.8])),
    "lhv-prob": lambda: lhv.LhvSimModel(**_lhv_kwargs(lambda_probs=[NAN, 0.5])),
    "lhv-prime-prob": lambda: lhv.LhvSimModel(**_lhv_kwargs(lambda_prime_probs=[NAN])),
    "lhv-response": lambda: lhv.LhvSimModel(**_lhv_kwargs(response_b=[[NAN], [0.6]])),
    "lhv-select": lambda: lhv.LhvSimModel(**_lhv_kwargs(select=[[0.9], [NAN]])),
    "response-weight": lambda: lhv.ResponseModel([NAN, 0.5], [0, 0], [0, 0], [0, 0], [0, 0]),
    "response-value": lambda: lhv.ResponseModel([1.0], [NAN], [0.0], [0.0], [0.0]),
    "cell-weights": lambda: lhv.CellWeights(np.array([NAN] + [1 / 15] * 15).reshape(2, 2, 2, 2)),
    "trit-cell-weights": lambda: lhv.TritCellWeights(
        np.array([NAN] + [1 / 80] * 80).reshape(3, 3, 3, 3)
    ),
    "noise-depol": lambda: swap.NoiseParams(depol_bob=NAN),
    "noise-mix": lambda: swap.NoiseParams(charlie_mix=NAN),
    "noise-jitter-nan": lambda: swap.NoiseParams(jitter_alice=NAN),
    "noise-jitter-inf": lambda: swap.NoiseParams(jitter_bob=INF),
}


@pytest.mark.parametrize("build", NONFINITE.values(), ids=NONFINITE.keys())
def test_constructor_rejects_nonfinite(build):
    with pytest.raises(ValueError):
        build()
