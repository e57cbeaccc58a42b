"""Golden pins for every seeded sampler and for one CLI report per mode.

The reproducibility tests elsewhere compare two runs in one process, so a
change to the stream-to-trial mapping (which uniforms a trial reads, or how
it turns them into (a, b, x, y, c)) passes them.  The tallies and report
digests below were recorded from the samplers and must never move without a
``schema_version`` bump.  The report digests are those of report schema 4.

Trial counts: 100 000, and 131 075, which is odd and above 8 * 16 384, so
the sampler's 16 384-trial blocks, its per-CPU shares and any partition of
the trial range into power-of-two blocks all end in a partial block.  Seeds:
a small one and one above 2**63.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from bellpost import lhv, protocol, swap
from bellpost.cli import main, render_report

PI = math.pi
SEEDS = (2024, 2**63 + 5)
TRIALS = (100_000, 131_075)


def _prior_schemes():
    alice = protocol.PreparationScheme(
        [[0.0, PI], [PI / 2, 3 * PI / 2]], [[0.3, 0.7], [0.8, 0.2]]
    )
    bob = protocol.PreparationScheme(
        [[PI / 4, 5 * PI / 4], [7 * PI / 4, 3 * PI / 4]], [[0.6, 0.4], [0.25, 0.75]]
    )
    return alice, bob


MODEL = lhv.LhvSimModel(
    lambda_values=[0.1, 0.5, 0.9],
    lambda_probs=[0.2, 0.5, 0.3],
    lambda_prime_values=[0.25, 0.75],
    lambda_prime_probs=[0.6, 0.4],
    response_a=[[0.1, 0.7, 0.4], [0.9, 0.2, 0.5]],
    response_b=[[0.3, 0.8], [0.6, 0.05]],
    select=[[0.9, 0.3], [0.5, 0.7], [0.2, 1.0]],
)

NOISE = {
    "depol_alice": 0.1,
    "depol_bob": 0.05,
    "jitter_alice": 0.02,
    "jitter_bob": 0.03,
    "charlie_mix": 0.04,
}

SAMPLERS = {
    "quantum-canonical": lambda n, seed: protocol.run_quantum_mc(
        *protocol.canonical_schemes(), n, seed
    ),
    "quantum-priors": lambda n, seed: protocol.run_quantum_mc(*_prior_schemes(), n, seed),
    "lhv-stochastic": lambda n, seed: lhv.simulate_lhv(MODEL, n, seed),
    "swap-parties-first": lambda n, seed: swap.run_swap(
        swap.SwapConfig(n, swap.NoiseParams(**NOISE), seed, "parties-first")
    ),
    "swap-charlie-first": lambda n, seed: swap.run_swap(
        swap.SwapConfig(n, swap.NoiseParams(**NOISE), seed, "charlie-first")
    ),
}

# counts[a, b, x, y] flattened in C order, keyed by (sampler, seed, trials).
# The two swap orderings agree because their joints agree to rounding.
GOLDEN_COUNTS = {
    ("quantum-canonical", 2024, 100000): [2696, 444, 416, 2667, 2685, 482, 446, 2703, 2706, 487, 449, 2641, 455, 2718, 2716, 460],
    ("quantum-canonical", 2024, 131075): [3533, 581, 573, 3524, 3507, 623, 589, 3499, 3520, 638, 582, 3443, 593, 3542, 3514, 604],
    ("quantum-canonical", 9223372036854775813, 100000): [2635, 429, 457, 2703, 2679, 447, 471, 2660, 2697, 473, 461, 2622, 404, 2649, 2694, 426],
    ("quantum-canonical", 9223372036854775813, 131075): [3499, 545, 586, 3603, 3492, 584, 592, 3435, 3551, 611, 620, 3462, 534, 3431, 3470, 563],
    ("quantum-priors", 2024, 100000): [1929, 201, 700, 3029, 808, 416, 332, 5579, 5059, 621, 203, 859, 337, 6521, 562, 282],
    ("quantum-priors", 2024, 131075): [2537, 258, 961, 3971, 1051, 556, 437, 7296, 6599, 800, 271, 1111, 431, 8543, 719, 376],
    ("quantum-priors", 9223372036854775813, 100000): [1844, 201, 762, 3020, 834, 407, 328, 5588, 5076, 575, 243, 828, 347, 6233, 538, 269],
    ("quantum-priors", 9223372036854775813, 131075): [2433, 261, 997, 4011, 1092, 526, 417, 7309, 6700, 766, 311, 1110, 452, 8127, 692, 338],
    ("lhv-stochastic", 2024, 100000): [3564, 3881, 3024, 3950, 4853, 2575, 4880, 2134, 3509, 4619, 3065, 3300, 5697, 2485, 3993, 2302],
    ("lhv-stochastic", 2024, 131075): [4607, 5062, 4001, 5210, 6333, 3410, 6398, 2790, 4628, 5965, 4035, 4340, 7451, 3222, 5251, 3013],
    ("lhv-stochastic", 9223372036854775813, 100000): [3560, 4055, 3030, 3958, 4726, 2537, 4915, 2109, 3599, 4725, 3119, 3249, 5664, 2447, 4021, 2285],
    ("lhv-stochastic", 9223372036854775813, 131075): [4558, 5255, 3988, 5177, 6249, 3359, 6395, 2792, 4649, 6103, 4132, 4283, 7427, 3191, 5272, 2996],
    ("swap-parties-first", 2024, 100000): [2482, 653, 629, 2466, 2490, 645, 636, 2542, 2513, 663, 646, 2449, 680, 2529, 2502, 662],
    ("swap-parties-first", 2024, 131075): [3250, 855, 859, 3276, 3258, 846, 843, 3279, 3259, 866, 844, 3192, 879, 3296, 3233, 886],
    ("swap-parties-first", 9223372036854775813, 100000): [2419, 653, 664, 2468, 2477, 625, 631, 2473, 2504, 676, 660, 2437, 615, 2455, 2477, 605],
    ("swap-parties-first", 9223372036854775813, 131075): [3218, 828, 860, 3301, 3232, 829, 808, 3187, 3297, 876, 881, 3208, 822, 3191, 3197, 808],
    ("swap-charlie-first", 2024, 100000): [2482, 653, 629, 2466, 2490, 645, 636, 2542, 2513, 663, 646, 2449, 680, 2529, 2502, 662],
    ("swap-charlie-first", 2024, 131075): [3250, 855, 859, 3276, 3258, 846, 843, 3279, 3259, 866, 844, 3192, 879, 3296, 3233, 886],
    ("swap-charlie-first", 9223372036854775813, 100000): [2419, 653, 664, 2468, 2477, 625, 631, 2473, 2504, 676, 660, 2437, 615, 2455, 2477, 605],
    ("swap-charlie-first", 9223372036854775813, 131075): [3218, 828, 860, 3301, 3232, 829, 808, 3187, 3297, 876, 881, 3208, 822, 3191, 3197, 808],
}


def test_golden_table_is_complete():
    want = {(name, seed, n) for name in SAMPLERS for seed in SEEDS for n in TRIALS}
    assert set(GOLDEN_COUNTS) == want


@pytest.mark.parametrize("key", sorted(GOLDEN_COUNTS), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_golden_tally(key):
    name, seed, n = key
    tally = SAMPLERS[name](n, seed)
    assert tally.n_total == n
    np.testing.assert_array_equal(tally.counts.ravel(), GOLDEN_COUNTS[key])


def _scheme_doc(scheme: protocol.PreparationScheme) -> dict:
    return {
        f"basis{a}": {"angles": scheme.angles[a].tolist(), "priors": scheme.priors[a].tolist()}
        for a in (0, 1)
    }


PERTURBED_SCHEMES = {
    "alice": {
        "basis0": {"angles": [0.0, PI]},
        "basis1": {"angles": [PI / 2 + 0.2, 3 * PI / 2]},
    },
    "bob": {
        "basis0": {"angles": [PI / 4, 5 * PI / 4]},
        "basis1": {"angles": [7 * PI / 4, 3 * PI / 4]},
    },
}

# One CLI run per mode, plus the canonical quantum-exact run, the swap sweep,
# the lhv-indet random sweep, a sampled swap in each order and one empty-cell
# report, so every branch of the config echo is pinned: (argv, config document
# or None, sha256 of the rendered report without its duration_s field).
GOLDEN_REPORTS = {
    "quantum-mc": (
        ["quantum-mc", "--trials", "100000", "--seed", "5"],
        None,
        "78deeb3cf5ab33f622817409ebb7f6c51c416ec01840aa22cd18eaf67ec810af",
    ),
    "lhv-mc": (
        ["lhv-mc", "--trials", "100000", "--seed", "7"],
        {
            "mode": "lhv-mc",
            "lhv_model": {
                "lambda": {"values": [0.1, 0.5, 0.9], "probs": [0.2, 0.5, 0.3]},
                "lambda_prime": {"values": [0.25, 0.75], "probs": [0.6, 0.4]},
                "response_a": [[0.1, 0.7, 0.4], [0.9, 0.2, 0.5]],
                "response_b": [[0.3, 0.8], [0.6, 0.05]],
                "select": [[0.9, 0.3], [0.5, 0.7], [0.2, 1.0]],
            },
        },
        "a92c4a6f0731c8b9c4a98906a046cc450a32306e9e70870b86255c355a7d9055",
    ),
    "swap": (
        ["swap", "--trials", "100000", "--seed", "11"],
        {"mode": "swap", "order": "charlie-first", "noise": NOISE},
        "658e473f5b129656bf20ef38181a80009cff33cde653cbb8b182dc4ad45024c2",
    ),
    "quantum-exact": (
        ["quantum-exact"],
        {
            "mode": "quantum-exact",
            "schemes": dict(zip(("alice", "bob"), map(_scheme_doc, _prior_schemes()))),
        },
        "79f406d33dddd1eccdf5f309d0cb60e0c12c86fad366438ad99ee1726a8780e7",
    ),
    "quantum-exact-canonical": (["quantum-exact"], None, "7cd110005d06785f4a82162f1f5cdfed1c26c2742af3685da34a19244d68eb11"),
    "check-independence": (
        ["check-independence"],
        {"mode": "check-independence", "schemes": PERTURBED_SCHEMES, "tol": 1e-6},
        "a201db572a8126557d9454b2170843df9d44377d4367ee674cfb689ad5869cf8",
    ),
    "loophole": (["loophole"], None, "6c339e23ba298686ca08363b0640bb76c87cf725649df58af93fa8602f2dbd94"),
    "lhv-indet": (
        ["lhv-indet", "--seed", "3"],
        {
            "mode": "lhv-indet",
            "response_model": {
                "atoms": [
                    {"weight": 0.75, "f0": 1.0, "f1": 1.0, "g0": 1.0, "g1": -1.0},
                    {"weight": 0.25, "f0": 0.5, "f1": -0.5, "g0": 0.25, "g1": 0.0},
                ]
            },
        },
        "4235c8c5f609a6548bd56415bd10fed46885813e82734b01f5bd4d23c1678d3a",
    ),
    "lhv-indet-sweep": (
        ["lhv-indet", "--seed", "3"],
        {"mode": "lhv-indet", "samples": 2500},
        "37125d82286b94c7f2dcf946a798f7f8c2775cdbc346660af41ecfdf6e7659ca",
    ),
    "lhv-max": (["lhv-max", "--seed", "3"], {"mode": "lhv-max", "samples": 50}, "552c787e5c9b1850855fe40d62ab3b5bcf66c0b33fd135ae20f96f88347591f0"),
    "swap-sweep": (["swap", "--grid", "0,0.25,1"], None, "3fce5bd21008238e448309344f7cb6cbe19a82315df47fd005c46b536922bec6"),
    "swap-parties-first": (
        ["swap", "--trials", "100000", "--seed", "13"],
        {"mode": "swap", "order": "parties-first", "noise": NOISE},
        "170a452524dcd207d501cc440007fa110fd321912c733706f361d58ff314629f",
    ),
    # Alice sends |0> in basis 0 and Bob always sends |1>, so basis pairs
    # (0, 0) and (0, 1) are never announced; the error names the first.
    "quantum-exact-empty": (
        ["quantum-exact"],
        {
            "mode": "quantum-exact",
            "schemes": {
                "alice": {
                    "basis0": {"angles": [0.0, 0.0]},
                    "basis1": {"angles": [PI / 2, 3 * PI / 2]},
                },
                "bob": {"basis0": {"angles": [PI, PI]}, "basis1": {"angles": [PI, PI]}},
            },
        },
        "9fa885b9e4fe4dc2a2604eeb7d7cf17a580b1cdad1f682beae4c69a5545f6f61",
    ),
}

# Exit codes of the pinned runs that do not succeed.
GOLDEN_EXIT = {"quantum-exact-empty": 3}


@pytest.mark.parametrize("mode", sorted(GOLDEN_REPORTS))
def test_golden_report(mode, capsys, tmp_path):
    argv, doc, want = GOLDEN_REPORTS[mode]
    if doc is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--config", str(path)]
    assert main(argv) == GOLDEN_EXIT.get(mode, 0)
    report = json.loads(capsys.readouterr().out)
    report.pop("duration_s", None)  # an error report has none
    assert hashlib.sha256(render_report(report).encode()).hexdigest() == want
