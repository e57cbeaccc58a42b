"""Tests for hidden-variable strategies, bounds, and the discard loophole."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from bellpost import lhv, protocol
from bellpost.lhv import (
    CellWeights,
    LhvSimModel,
    NondeterministicModelError,
    ResponseModel,
    TritCellWeights,
    cell_coefficient,
    announced_weights,
    cells_from_model,
    loophole_max_example,
    max_abs_s_deterministic,
    random_max_abs_s,
    random_max_abs_s_indeterministic,
    s_from_cells,
    s_indeterministic,
    s_with_discards,
)
from bellpost.qcore import NumericsError
from conftest import (
    CorruptingGenerator,
    announced_weights_oracle,
    edge_lhv_model,
    exact_s_of_sim_model,
    lhv_indet_sweep_models,
    lhv_indet_sweep_rows,
    random_deterministic_model,
    random_response_model,
    random_stochastic_model,
)


def coefficient_oracle(i, j, k, l) -> int:
    """The four-sign formula, written out directly."""
    s = [1, -1]
    return s[i] * (s[k] + s[l]) + s[j] * (s[k] - s[l])


class TestCellCoefficient:
    def test_all_zero_cell(self):
        assert cell_coefficient(0, 0, 0, 0) == 2

    def test_all_one_cell(self):
        # (-1)(-2) + (-1)(0) = 2
        assert cell_coefficient(1, 1, 1, 1) == 2

    def test_alternating_cell(self):
        # signs (+,-,+,-): 1*0 + (-1)*2 = -2
        assert cell_coefficient(0, 1, 0, 1) == -2

    def test_exhaustive_magnitude_two(self):
        for i in (0, 1):
            for j in (0, 1):
                for k in (0, 1):
                    for l in (0, 1):
                        c = cell_coefficient(i, j, k, l)
                        assert c == coefficient_oracle(i, j, k, l)
                        assert abs(c) == 2

    def test_non_bit_rejected(self):
        with pytest.raises(ValueError, match="bit"):
            cell_coefficient(0, 2, 0, 0)


class TestSFromCells:
    def test_point_mass(self):
        w = np.zeros((2, 2, 2, 2))
        w[0, 0, 0, 0] = 1.0
        assert s_from_cells(CellWeights(w)) == 2.0

    def test_uniform_cancels(self):
        assert s_from_cells(CellWeights(np.full((2, 2, 2, 2), 1 / 16))) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_two_positive_cells(self):
        w = np.zeros((2, 2, 2, 2))
        w[0, 0, 0, 0] = 0.5
        w[1, 1, 1, 1] = 0.5
        assert s_from_cells(CellWeights(w)) == pytest.approx(2.0, abs=1e-15)

    def test_bounded_by_two_on_random_simplex(self):
        rng = np.random.default_rng(20)
        for _ in range(10_000):
            w = CellWeights(rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2))
            assert abs(s_from_cells(w)) <= 2.0 + 1e-12

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            CellWeights(np.full((2, 2, 2, 2), 0.1))
        with pytest.raises(ValueError, match="nonnegative"):
            bad = np.full((2, 2, 2, 2), 1 / 16)
            bad[0, 0, 0, 0] = -1 / 16
            bad[1, 1, 1, 1] = 3 / 16
            CellWeights(bad)


class TestMaxAbsSDeterministic:
    def test_maximum_is_two(self):
        # Reference: |S| of every point mass; the first largest one is the witness.
        cells = list(np.ndindex(2, 2, 2, 2))
        values = []
        for cell in cells:
            w = np.zeros((2, 2, 2, 2))
            w[cell] = 1.0
            values.append(abs(s_from_cells(CellWeights(w))))
        best, witness = max_abs_s_deterministic()
        assert best == max(values) == 2.0
        assert witness == cells[values.index(best)] == (0, 0, 0, 0)
        assert type(best) is float and all(type(v) is int for v in witness)  # JSON-ready

    def test_witness_coefficient_has_magnitude_two(self):
        _, witness = max_abs_s_deterministic()
        assert abs(cell_coefficient(*witness)) == 2

    def test_random_search_never_beats_enumeration(self):
        best, _ = max_abs_s_deterministic()
        rng = np.random.default_rng(21)
        for _ in range(10_000):
            w = CellWeights(rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2))
            assert abs(s_from_cells(w)) <= best + 1e-12


class TestRandomMaxAbsS:
    @pytest.mark.parametrize("samples", [1, 50, 4096, 9000])
    def test_matches_single_draw_loop(self, samples):
        # The block draws read the stream as single draws do, and each row's S
        # sums in the same order, so the sweep's maximum is bit-identical.
        for seed in (0, 7, 2**40 + 3):
            rng = np.random.default_rng(seed)
            want = 0.0
            for _ in range(samples):
                w = CellWeights(rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2))
                want = max(want, abs(s_from_cells(w)))
            assert random_max_abs_s(np.random.default_rng(seed), samples) == want


@functools.cache
def _model_loop(seed: int, samples: int, block: int) -> tuple[float, dict]:
    """The sweep as one ResponseModel and one s_indeterministic per sample.

    Returns the largest |S| and the generator's state after the sweep.
    """
    rng = np.random.default_rng(seed)
    models = lhv_indet_sweep_models(rng, samples, block)
    return max(abs(s_indeterministic(m)) for m in models), rng.bit_generator.state


class TestRandomMaxAbsSIndeterministic:
    # 1023, 1024 and 1025 sit on the first block edge; 2500 ends mid-block.
    @pytest.mark.parametrize("block", [lhv._SWEEP_BLOCK, 1, 7])
    @pytest.mark.parametrize("samples", [1, 1023, 1024, 1025, 2500])
    def test_matches_model_loop(self, monkeypatch, block, samples):
        # The same three generator calls per block, and zero weights add
        # only exact zero terms, so the sweep's maximum is bit-identical and
        # it leaves the generator where the loop does.
        monkeypatch.setattr(lhv, "_SWEEP_BLOCK", block)
        for seed in (0, 7, 2**40 + 3):
            rng = np.random.default_rng(seed)
            got = random_max_abs_s_indeterministic(rng, samples)
            assert (got, rng.bit_generator.state) == _model_loop(seed, samples, block)

    def test_each_model_matches_s_indeterministic(self):
        # One-sample sweeps on one generator walk the stream model by model.
        sweep, models = np.random.default_rng(11), np.random.default_rng(11)
        for m in lhv_indet_sweep_models(models, 2000, 1):
            assert random_max_abs_s_indeterministic(sweep, 1) == abs(s_indeterministic(m))

    def test_stream_distribution(self):
        # Each row is a flat Dirichlet over n atoms, n uniform on 1..5, with
        # values uniform on [-1, 1): the Pearson statistic of the counts is
        # under the 0.999 quantile of chi-square on 4 degrees of freedom,
        # E[w_0 | n] = 1/n and the values average 0, each within 5 se.
        rng = np.random.default_rng(17)
        rows = [row for _ in range(100) for row in lhv_indet_sweep_rows(rng, 1000)]
        atoms = np.array([w.size for w, _ in rows])
        counts = np.bincount(atoms, minlength=6)[1:]
        assert counts.sum() == atoms.size == 10**5
        expected = atoms.size / 5
        assert np.sum((counts - expected) ** 2 / expected) < 18.467
        first = np.array([w[0] for w, _ in rows])
        for n in range(1, 6):
            w0 = first[atoms == n]
            se = math.sqrt((n - 1) / (n * n * (n + 1)) / w0.size)
            assert abs(w0.mean() - 1 / n) <= 5 * se
        values = np.concatenate([v.ravel() for _, v in rows])
        assert np.all((values >= -1.0) & (values < 1.0))
        assert abs(values.mean()) <= 5 * math.sqrt(1 / 3 / values.size)

    # The bad draw is the first exponential or value of the second block,
    # whose first row has 2 or more atoms: a lone negative exponential would
    # normalize to the valid weight 1.0.  The negative weight trips only the
    # sign check, the NaN value only the range check.
    @pytest.mark.parametrize("method, value", [("standard_exponential", -0.25), ("random", math.nan)])
    def test_bad_draw_raises_numerics_error(self, method, value):
        replay = np.random.default_rng(3)
        models = lhv_indet_sweep_models(replay, 2 * lhv._SWEEP_BLOCK, lhv._SWEEP_BLOCK)
        assert models[lhv._SWEEP_BLOCK].weights.size >= 2
        rng = CorruptingGenerator(np.random.default_rng(3), method, value, at=1)
        with pytest.raises(NumericsError, match="response model"):
            random_max_abs_s_indeterministic(rng, 2500)

    def test_sum_check_raises_numerics_error(self, monkeypatch):
        # No tolerance below 0 admits any sum, so only the sum-to-1 clause,
        # the one reader of EXACT_TOL in the sweep, can raise here.
        monkeypatch.setattr(lhv, "EXACT_TOL", -1.0)
        with pytest.raises(NumericsError, match="response model"):
            random_max_abs_s_indeterministic(np.random.default_rng(3), 10)

    def test_peak_memory_is_one_block(self):
        # Each block is freed before the next is allocated, so 20 blocks
        # peak where one does.  A first sweep keeps numpy's one-time
        # imports out of both peaks.
        random_max_abs_s_indeterministic(np.random.default_rng(5), 1)
        peaks = []
        for blocks in (1, 20):
            tracemalloc.start()
            try:
                random_max_abs_s_indeterministic(
                    np.random.default_rng(5), blocks * lhv._SWEEP_BLOCK
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    def test_peak_memory_does_not_grow_with_samples(self):
        # 20 blocks; all of their padded rows at once would be 4 MiB.  A
        # first sweep keeps numpy's one-time imports out of the peak.
        random_max_abs_s_indeterministic(np.random.default_rng(5), 1)
        tracemalloc.start()
        try:
            best = random_max_abs_s_indeterministic(
                np.random.default_rng(5), 20 * lhv._SWEEP_BLOCK
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < best <= 2.0 + 1e-12
        assert peak < 2**20


class TestSIndeterministic:
    def test_extremal_atom(self):
        m = ResponseModel([1.0], [1.0], [1.0], [1.0], [-1.0])
        assert s_indeterministic(m) == 2.0

    def test_dead_responses(self):
        m = ResponseModel([1.0], [0.0], [0.0], [0.0], [0.0])
        assert s_indeterministic(m) == 0.0

    def test_deterministic_atoms_embed_cells(self):
        # Cell (i,j,k,l) embeds as responses (1-2i, 1-2j, 1-2k, 1-2l).
        rng = np.random.default_rng(22)
        for _ in range(50):
            weights = rng.dirichlet(np.ones(16))
            cells = CellWeights(weights.reshape(2, 2, 2, 2))
            atoms = []
            idx = 0
            for i in (0, 1):
                for j in (0, 1):
                    for k in (0, 1):
                        for l in (0, 1):
                            atoms.append(
                                (weights[idx], 1 - 2 * i, 1 - 2 * j, 1 - 2 * k, 1 - 2 * l)
                            )
                            idx += 1
            m = ResponseModel(*np.array(atoms).T)
            assert s_indeterministic(m) == pytest.approx(s_from_cells(cells), abs=1e-12)

    def test_bounded_by_two_on_random_models(self):
        rng = np.random.default_rng(23)
        for _ in range(1_000):
            assert abs(s_indeterministic(random_response_model(rng))) <= 2.0 + 1e-12

    def test_out_of_range_response_rejected(self):
        with pytest.raises(ValueError, match="-1, 1"):
            ResponseModel([1.0], [1.5], [0.0], [0.0], [0.0])


class TestLhvSimModel:
    def test_select_shape_enforced(self):
        with pytest.raises(ValueError, match="select"):
            LhvSimModel(
                lambda_values=[0.1, 0.9],
                lambda_probs=[0.5, 0.5],
                lambda_prime_values=[0.5],
                lambda_prime_probs=[1.0],
                response_a=[[0, 0], [0, 0]],
                response_b=[[0], [0]],
                select=[[1.0]],
            )

    def test_hidden_values_must_be_in_unit_interval(self):
        with pytest.raises(ValueError, match="0, 1"):
            LhvSimModel(
                lambda_values=[1.5],
                lambda_probs=[1.0],
                lambda_prime_values=[0.5],
                lambda_prime_probs=[1.0],
                response_a=[[0], [0]],
                response_b=[[0], [0]],
                select=[[1.0]],
            )

    def test_is_deterministic(self):
        rng = np.random.default_rng(24)
        assert random_deterministic_model(rng).is_deterministic()
        m = random_stochastic_model(rng)
        resp = np.concatenate([m.response_a.ravel(), m.response_b.ravel()])
        assert m.is_deterministic() == bool(np.all((resp == 0) | (resp == 1)))


def _single_cell_model(i, j, k, l, select=1.0) -> LhvSimModel:
    return LhvSimModel(
        lambda_values=[0.5],
        lambda_probs=[1.0],
        lambda_prime_values=[0.5],
        lambda_prime_probs=[1.0],
        response_a=[[float(i)], [float(j)]],
        response_b=[[float(k)], [float(l)]],
        select=[[select]],
    )


class TestCellsFromModel:
    def test_single_pair_point_mass(self):
        w = cells_from_model(_single_cell_model(0, 0, 0, 0))
        assert w.w[0, 0, 0, 0] == 1.0

    def test_two_lambda_split(self):
        m = LhvSimModel(
            lambda_values=[0.2, 0.8],
            lambda_probs=[0.5, 0.5],
            lambda_prime_values=[0.5],
            lambda_prime_probs=[1.0],
            response_a=[[0, 1], [0, 1]],
            response_b=[[0], [0]],
            select=[[1.0], [1.0]],
        )
        w = cells_from_model(m)
        assert w.w[0, 0, 0, 0] == pytest.approx(0.5)
        assert w.w[1, 1, 0, 0] == pytest.approx(0.5)

    def test_matches_pairwise_loop(self):
        # Pairs (lambda_i, lambda'_j) that share a cell add in row-major order.
        rng = np.random.default_rng(26)
        for _ in range(300):
            m = random_deterministic_model(rng)
            selected = m.lambda_probs[:, None] * m.lambda_prime_probs[None, :] * m.select
            ra, rb = m.response_a.astype(int), m.response_b.astype(int)
            want = np.zeros((2, 2, 2, 2))
            for i in range(ra.shape[1]):
                for j in range(rb.shape[1]):
                    want[ra[0, i], ra[1, i], rb[0, j], rb[1, j]] += selected[i, j]
            np.testing.assert_array_equal(cells_from_model(m).w, want / selected.sum())

    def test_matches_full_expectation_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            m = random_deterministic_model(rng)
            s_cells = s_from_cells(cells_from_model(m))
            assert s_cells == pytest.approx(exact_s_of_sim_model(m), abs=1e-12)

    def test_nondeterministic_rejected(self):
        m = _single_cell_model(0, 0, 0, 0)
        stochastic = LhvSimModel(
            lambda_values=m.lambda_values,
            lambda_probs=m.lambda_probs,
            lambda_prime_values=m.lambda_prime_values,
            lambda_prime_probs=m.lambda_prime_probs,
            response_a=[[0.3], [0.0]],
            response_b=m.response_b,
            select=m.select,
        )
        with pytest.raises(NondeterministicModelError):
            cells_from_model(stochastic)

    def test_zero_selection_rejected(self):
        # Selection is basis-blind, so the first basis pair is as empty as any.
        with pytest.raises(protocol.EmptyCellError) as err:
            cells_from_model(_single_cell_model(0, 0, 0, 0, select=0.0))
        assert (err.value.a, err.value.b) == (0, 0)


class TestExactPostselected:
    def test_matches_full_expectation_oracle(self):
        rng = np.random.default_rng(37)
        for build in (random_stochastic_model, random_deterministic_model):
            for _ in range(200):
                m = build(rng)
                table, rates = protocol.postselect(announced_weights(m))
                assert abs(protocol.table_s(table) - exact_s_of_sim_model(m)) <= 1e-12
                selected = m.lambda_probs @ m.select @ m.lambda_prime_probs
                np.testing.assert_allclose(rates, selected, rtol=1e-12, atol=0.0)

    def test_zero_selection_raises_empty_cell(self):
        with pytest.raises(protocol.EmptyCellError) as err:
            protocol.postselect(announced_weights(_single_cell_model(0, 0, 0, 0, select=0.0)))
        assert (err.value.a, err.value.b) == (0, 0)


class TestSimulateLhv:
    def test_table_is_the_model_law(self):
        # The announced law that lhv-mc samples gives each basis pair (a, b)
        # the model's weight w in each cell and "not announced" the rest.
        rng = np.random.default_rng(38)
        models = [edge_lhv_model()]
        for build in (random_deterministic_model, random_stochastic_model):
            models += [build(rng) for _ in range(200)]
        for m in models:
            law = announced_weights(m)
            want = announced_weights_oracle(m)
            np.testing.assert_allclose(law, want, rtol=0.0, atol=4e-16)
            assert np.all(law[want == 0.0] == 0.0)
            assert np.all(law.sum(axis=(2, 3)) <= 1.0)
        # The edge model's law has cells of weight exactly 0: Alice never
        # gives x = 0 in basis 1, nor Bob y = 1 in basis 1.
        law = announced_weights(models[0])
        assert np.all(law[1, :, 0, :] == 0.0) and np.all(law[:, 1, :, 1] == 0.0)

    def test_deterministic_cell_recovers_its_s(self):
        t = protocol.sample_tally(30, 100_000, announced_weights(_single_cell_model(0, 0, 0, 0)))
        rep = protocol.bell_report(t)
        assert rep.s == 2.0  # the only outcome is (x,y)=(0,0) in every cell

    def test_zero_selection_gives_empty_tally(self):
        law = announced_weights(_single_cell_model(0, 0, 0, 0, select=0.0))
        t = protocol.sample_tally(31, 10_000, law)
        assert t.n_selected == 0
        with pytest.raises(protocol.EmptyCellError):
            protocol.postselect(t.counts)

    def test_bound_holds_with_sampling_slack(self):
        rng = np.random.default_rng(32)
        for _ in range(3):
            m = random_stochastic_model(rng)
            t = protocol.sample_tally(int(rng.integers(2**32)), 1_000_000, announced_weights(m))
            rep = protocol.bell_report(t)
            assert abs(rep.s) <= 2.0 + 5 * rep.se_s

    def test_agrees_with_cell_pipeline(self):
        rng = np.random.default_rng(33)
        for _ in range(3):
            m = random_deterministic_model(rng)
            t = protocol.sample_tally(int(rng.integers(2**32)), 1_000_000, announced_weights(m))
            rep = protocol.bell_report(t)
            assert abs(rep.s - s_from_cells(cells_from_model(m))) <= 5 * rep.se_s

    def test_statistical_no_signaling(self):
        # Selection sees only (lambda, lambda'), so Alice's conditional
        # marginal cannot depend on Bob's basis beyond sampling noise.
        rng = np.random.default_rng(34)
        m = random_stochastic_model(rng)
        t = protocol.sample_tally(35, 1_000_000, announced_weights(m))
        p = protocol.postselect(t.counts)[0].probs
        counts_ab = t.counts.sum(axis=(2, 3))
        for a in (0, 1):
            for x in (0, 1):
                p0 = p[a, 0, x, :].sum()
                p1 = p[a, 1, x, :].sum()
                pooled = 0.5 * (p0 + p1)
                sigma = np.sqrt(
                    pooled * (1 - pooled) * (1 / counts_ab[a, 0] + 1 / counts_ab[a, 1])
                )
                assert abs(p0 - p1) < 5 * max(sigma, 1e-9)

    def test_reproducible(self):
        m = _single_cell_model(1, 0, 1, 1, select=0.7)
        t1 = protocol.sample_tally(36, 50_000, announced_weights(m))
        t2 = protocol.sample_tally(36, 50_000, announced_weights(m))
        np.testing.assert_array_equal(t1.counts, t2.counts)


def discard_oracle(weights: dict) -> tuple[float, dict]:
    """Independent survival bookkeeping over explicit (cell, weight) pairs."""
    e = {}
    retained = {}
    for a in (0, 1):
        for b in (0, 1):
            num = den = 0.0
            for (i, j, k, l), w in weights.items():
                xa = i if a == 0 else j
                yb = k if b == 0 else l
                if xa == 2 or yb == 2:
                    continue
                num += (1 - 2 * xa) * (1 - 2 * yb) * w
                den += w
            e[(a, b)] = num / den
            retained[(a, b)] = den
    return e[(0, 0)] + e[(0, 1)] + e[(1, 0)] - e[(1, 1)], retained


def per_pair_discard_oracle(w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(S, e, retained) of trit weights, one basis pair at a time.

    Each pair keeps the cells whose effective values (Alice: i if a = 0 else
    j; Bob: k if b = 0 else l) are both bits, and renormalizes by their
    total weight.
    """
    i, j, k, l = np.indices((3, 3, 3, 3))
    e = np.zeros((2, 2))
    retained = np.zeros((2, 2))
    for a in (0, 1):
        for b in (0, 1):
            xa = i if a == 0 else j
            yb = k if b == 0 else l
            mask = (xa != 2) & (yb != 2)
            kept = float(w[mask].sum())
            values = (1 - 2 * xa) * (1 - 2 * yb)
            e[a, b] = float((values * w)[mask].sum()) / kept
            retained[a, b] = kept
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]), e, retained


class TestSWithDiscards:
    def test_max_example_reaches_four(self):
        s, e, retained = s_with_discards(loophole_max_example())
        assert s == 4.0
        np.testing.assert_array_equal(e, [[1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(retained, 0.25)

    def test_max_example_matches_oracle(self):
        cells = {(0, 2, 0, 2): 0.25, (0, 2, 2, 0): 0.25, (2, 0, 0, 2): 0.25, (2, 0, 2, 1): 0.25}
        s, retained = discard_oracle(cells)
        assert s == 4.0
        assert all(v == 0.25 for v in retained.values())

    def test_binary_support_reduces_to_plain_s(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            flat = rng.dirichlet(np.ones(16))
            trit = np.zeros((3, 3, 3, 3))
            trit[:2, :2, :2, :2] = flat.reshape(2, 2, 2, 2)
            s, _, retained = s_with_discards(TritCellWeights(trit))
            assert s == pytest.approx(
                s_from_cells(CellWeights(flat.reshape(2, 2, 2, 2))), abs=1e-12
            )
            np.testing.assert_allclose(retained, 1.0, atol=1e-12)

    def test_uniform_over_all_cells_is_zero(self):
        s, _, _ = s_with_discards(TritCellWeights(np.full((3, 3, 3, 3), 1 / 81)))
        assert s == pytest.approx(0.0, abs=1e-12)

    def test_all_discarded_raises(self):
        w = np.zeros((3, 3, 3, 3))
        w[2, 2, 0, 0] = 1.0  # Alice discards under both bases
        with pytest.raises(protocol.EmptyCellError) as excinfo:
            s_with_discards(TritCellWeights(w))
        assert (excinfo.value.a, excinfo.value.b) == (0, 0)

    def test_matches_per_pair_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(1_000):
            weights = TritCellWeights(rng.dirichlet(np.ones(81)).reshape(3, 3, 3, 3))
            got = s_with_discards(weights)
            for g, want in zip(got, per_pair_discard_oracle(weights.w)):
                np.testing.assert_allclose(g, want, rtol=0.0, atol=1e-15)

    def test_never_four_without_discards(self):
        # Binary-supported distributions are the no-discard case; their S is
        # capped at 2, far below the inflated value.
        rng = np.random.default_rng(41)
        for _ in range(1_000):
            flat = rng.dirichlet(np.ones(16))
            trit = np.zeros((3, 3, 3, 3))
            trit[:2, :2, :2, :2] = flat.reshape(2, 2, 2, 2)
            s, _, _ = s_with_discards(TritCellWeights(trit))
            assert abs(s) <= 2.0 + 1e-12

    def test_arity_enforced(self):
        with pytest.raises(ValueError, match=r"shape \(3, 3, 3, 3\)"):
            TritCellWeights(np.ones(80) / 80)


class TestLoopholeMaxExample:
    def test_weights_sum_to_one(self):
        assert loophole_max_example().w.sum() == 1.0

    def test_supported_on_four_cells(self):
        w = loophole_max_example().w
        assert np.count_nonzero(w) == 4
        for cell in ((0, 2, 0, 2), (0, 2, 2, 0), (2, 0, 0, 2), (2, 0, 2, 1)):
            assert w[cell] == 0.25
