"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in the
captured output of a failing run) before asserting.
"""

import math
import time

import numpy as np
import pytest

from bellpost import cli, lhv, protocol, swap
from bellpost.rng import trial_uniforms_block
from conftest import random_deterministic_model, swap_tally, trace_distance
from test_swap import remote_state_check

TWO_SQRT2 = 2 * math.sqrt(2)


def _report(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")


def test_criterion_1_quantum_violation_exact():
    start = time.perf_counter()
    report = cli.run(cli.config_from_doc({"mode": "quantum-exact"}))
    elapsed = time.perf_counter() - start
    s = report["results"]["s"]
    s_variant = report["results"]["s_bob_labels_swapped"]
    ok = abs(abs(s) - TWO_SQRT2) <= 1e-9 and elapsed < 1.0
    _report(
        1,
        f"exact |S| = {abs(s):.12f} (target 2*sqrt2 +/- 1e-9), "
        f"label-swapped variant S = {s_variant:.3e}, runtime {elapsed:.3f}s",
        ok,
    )
    assert abs(abs(s) - TWO_SQRT2) <= 1e-9
    assert abs(s_variant) <= 1e-9  # the variant labeling is reported and is far from 2*sqrt2
    assert elapsed < 1.0


def test_criterion_2_quantum_violation_sampled():
    start = time.perf_counter()
    tally = protocol.run_quantum_mc(*protocol.canonical_schemes(), n_trials=10**6, seed=42)
    rep = protocol.bell_report(tally)
    elapsed = time.perf_counter() - start
    ok = abs(rep.s - TWO_SQRT2) <= 5 * rep.se_s and rep.se_s < 0.02 and elapsed < 30.0
    _report(
        2,
        f"sampled S = {rep.s:.4f} +/- {rep.se_s:.4f} at N=1e6 "
        f"(|S - 2*sqrt2| = {abs(rep.s - TWO_SQRT2):.4f} <= 5 se), runtime {elapsed:.2f}s",
        ok,
    )
    assert abs(rep.s - TWO_SQRT2) <= 5 * rep.se_s
    assert rep.se_s < 0.02
    assert elapsed < 30.0


def test_criterion_3_classical_bound_deterministic():
    best, witness = lhv.max_abs_s_deterministic()
    rng = np.random.default_rng(3)
    random_max = 0.0
    for _ in range(10**4):
        w = lhv.CellWeights(rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2))
        random_max = max(random_max, abs(lhv.s_from_cells(w)))
    ok = best == 2.0 and random_max <= 2.0 + 1e-12
    _report(
        3,
        f"enumerated max |S| = {best} (witness {witness}), "
        f"max over 1e4 random weight vectors = {random_max:.6f}",
        ok,
    )
    assert best == 2.0
    assert random_max <= 2.0 + 1e-12


def test_criterion_4_classical_bound_indeterministic():
    worst = lhv.random_max_abs_s_indeterministic(np.random.default_rng(4), 10**5)
    ok = worst <= 2.0 + 1e-12
    _report(4, f"max |S| over 1e5 random response models = {worst:.6f} <= 2", ok)
    assert worst <= 2.0 + 1e-12


def test_criterion_5_pipeline_consistency():
    rng = np.random.default_rng(5)
    worst_pull = 0.0
    for _ in range(20):
        m = random_deterministic_model(rng)
        exact = lhv.s_from_cells(lhv.cells_from_model(m))
        tally = lhv.simulate_lhv(m, 10**6, seed=int(rng.integers(2**32)))
        rep = protocol.bell_report(tally)
        diff = abs(rep.s - exact)
        # single-support models yield a point-mass tally with a zero error bar
        pull = diff / rep.se_s if rep.se_s > 0 else (0.0 if diff == 0.0 else math.inf)
        worst_pull = max(worst_pull, pull)
    ok = worst_pull <= 5.0
    _report(
        5,
        f"20 random deterministic models at N=1e6: worst |S_mc - S_cells| = {worst_pull:.2f} se",
        ok,
    )
    assert worst_pull <= 5.0


def test_criterion_6_detection_loophole():
    s, _, retained = lhv.s_with_discards(lhv.loophole_max_example())
    ok = s == 4.0 and np.all(retained == 0.25)
    _report(6, f"discard example: S = {s}, retained fractions {retained.ravel().tolist()}", ok)
    assert s == 4.0
    assert np.all(retained == 0.25)


def test_criterion_7_basis_independence():
    alice, bob = protocol.canonical_schemes()
    d_alice, ok_alice = protocol.check_basis_independence(alice, 1e-12)
    d_bob, ok_bob = protocol.check_basis_independence(bob, 1e-12)
    perturbed = protocol.PreparationScheme.uniform(
        [[0.0, math.pi], [math.pi / 2 + 0.2, 3 * math.pi / 2]]
    )
    d_bad, _ = protocol.check_basis_independence(perturbed, 1e-6)
    ok = ok_alice and ok_bob and d_bad > 0.01
    _report(
        7,
        f"canonical distances {d_alice:.2e}, {d_bob:.2e} < 1e-12; "
        f"perturbed distance {d_bad:.4f} > 0.01",
        ok,
    )
    assert d_alice < 1e-12 and ok_alice
    assert d_bob < 1e-12 and ok_bob
    assert d_bad > 0.01


def test_criterion_8_no_signaling_and_selection_rate():
    table, rates = protocol.exact_postselected(*protocol.canonical_schemes())
    p = table.probs
    gap_alice = float(np.abs(p.sum(axis=3)[:, 0, :] - p.sum(axis=3)[:, 1, :]).max())
    gap_bob = float(np.abs(p.sum(axis=2)[0, :, :] - p.sum(axis=2)[1, :, :]).max())
    rate_gap = float(np.abs(rates - 0.25).max())
    ok = gap_alice <= 1e-12 and gap_bob <= 1e-12 and rate_gap <= 1e-12
    _report(
        8,
        f"no-signaling gaps {gap_alice:.2e}/{gap_bob:.2e}, "
        f"selection rates within {rate_gap:.2e} of 1/4",
        ok,
    )
    assert gap_alice <= 1e-12
    assert gap_bob <= 1e-12
    assert rate_gap <= 1e-12


def test_criterion_9_swap_realization():
    tally = swap_tally(10**6, 9)
    rep = protocol.bell_report(tally)
    sampled_ok = abs(rep.s - TWO_SQRT2) <= 5 * rep.se_s

    rng = np.random.default_rng(9)
    worst_remote = 0.0
    for _ in range(100):
        j0, j1 = rng.uniform(0, 2 * math.pi, size=2)
        worst_remote = max(
            worst_remote,
            trace_distance(remote_state_check(0, j0), remote_state_check(1, j1)),
        )

    order_gap = swap.order_invariance(
        *(swap.joint_distribution(swap.NoiseParams(), order) for order in swap.ORDERS)
    )

    rows = swap.depolarizing_sweep(np.linspace(0.0, 1.0, 11))
    values = [s for _, s in rows]
    monotone = all(lo <= hi + 1e-12 for lo, hi in zip(values[1:], values[:-1]))
    endpoints_ok = abs(values[0] - TWO_SQRT2) <= 1e-9 and abs(values[-1]) <= 1e-9

    ok = sampled_ok and worst_remote < 1e-12 and order_gap < 1e-12 and monotone and endpoints_ok
    _report(
        9,
        f"swap S = {rep.s:.4f} +/- {rep.se_s:.4f}; remote-state distance "
        f"{worst_remote:.2e}; order gap {order_gap:.2e}; sweep monotone={monotone} "
        f"with S(0)={values[0]:.9f}, S(1)={values[-1]:.2e}",
        ok,
    )
    assert sampled_ok
    assert worst_remote < 1e-12
    assert order_gap < 1e-12
    assert monotone
    assert endpoints_ok


def test_criterion_10_reproducibility():
    def rendered(doc):
        return cli.render_report(cli.run(cli.config_from_doc(doc)))

    docs = [
        {"mode": "quantum-mc", "trials": 200_000, "seed": 123},
        {
            "mode": "lhv-mc",
            "trials": 200_000,
            "seed": 123,
            "lhv_model": {
                "lambda": {"values": [0.2, 0.8], "probs": [0.5, 0.5]},
                "lambda_prime": {"values": [0.3], "probs": [1.0]},
                "response_a": [[0.0, 1.0], [1.0, 0.0]],
                "response_b": [[0.0], [1.0]],
                "select": [[0.9], [0.4]],
            },
        },
        {"mode": "swap", "trials": 200_000, "seed": 123},
    ]
    identical = all(rendered(doc) == rendered(doc) for doc in docs)

    # Chunked generation is the execution-order/thread-count independence
    # guarantee: any partition of the trial range yields the same words, one
    # a trial, as every sampler draws.
    full = trial_uniforms_block(123, 0, 10_000)
    chunked = np.concatenate(
        [trial_uniforms_block(123, lo, hi) for lo, hi in ((0, 2500), (2500, 9001), (9001, 10_000))]
    )
    chunks_match = bool(np.array_equal(full, chunked))

    ok = identical and chunks_match
    _report(
        10,
        f"sampling reports byte-identical = {identical}; "
        f"chunked substreams identical = {chunks_match}",
        ok,
    )
    assert identical
    assert chunks_match
