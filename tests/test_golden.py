"""Golden pins for every seeded sampler and for one CLI report per mode.

The reproducibility tests elsewhere compare two runs in one process, so a
change to the stream-to-trial mapping (which uniforms a trial reads, or how
it turns them into (a, b, x, y, c)) passes them.  The tallies and report
digests below were recorded from the samplers and must never move without a
``schema_version`` bump.  The report digests are those of the report schema
``cli.REPORT_SCHEMA_VERSION``.

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
from bellpost.cli import main
from conftest import swap_tally

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
    "swap-parties-first": lambda n, seed: swap_tally(
        n, seed, swap.NoiseParams(**NOISE), "parties-first"
    ),
    "swap-charlie-first": lambda n, seed: swap_tally(
        n, seed, swap.NoiseParams(**NOISE), "charlie-first"
    ),
}

# counts[a, b, x, y] flattened in C order, keyed by (sampler, seed, trials).
# The two swap orderings agree because their joints agree to rounding.
GOLDEN_COUNTS = {
    ("quantum-canonical", 2024, 100000): [2658, 474, 459, 2613, 2612, 463, 451, 2731, 2747, 458, 422, 2588, 456, 2678, 2707, 469],
    ("quantum-canonical", 2024, 131075): [3488, 614, 602, 3419, 3445, 608, 575, 3568, 3575, 573, 578, 3420, 596, 3539, 3551, 604],
    ("quantum-canonical", 9223372036854775813, 100000): [2656, 471, 448, 2670, 2644, 454, 465, 2667, 2648, 463, 466, 2715, 461, 2660, 2663, 454],
    ("quantum-canonical", 9223372036854775813, 131075): [3476, 604, 604, 3505, 3458, 593, 616, 3552, 3436, 633, 592, 3559, 595, 3492, 3498, 600],
    ("quantum-priors", 2024, 100000): [1919, 216, 754, 2911, 786, 419, 317, 5738, 5160, 604, 208, 837, 366, 6390, 521, 293],
    ("quantum-priors", 2024, 131075): [2525, 285, 986, 3801, 1026, 546, 411, 7463, 6775, 751, 287, 1103, 479, 8400, 663, 369],
    ("quantum-priors", 9223372036854775813, 100000): [1937, 232, 750, 3007, 772, 398, 325, 5536, 5104, 583, 215, 867, 372, 6375, 525, 291],
    ("quantum-priors", 9223372036854775813, 131075): [2538, 294, 1016, 3955, 1026, 525, 429, 7296, 6672, 799, 277, 1133, 483, 8400, 673, 377],
    ("lhv-stochastic", 2024, 100000): [3535, 3948, 3046, 3925, 4866, 2627, 4837, 2184, 3535, 4528, 3058, 3208, 5766, 2462, 4059, 2283],
    ("lhv-stochastic", 2024, 131075): [4655, 5177, 3958, 5128, 6367, 3500, 6329, 2855, 4581, 5939, 3983, 4220, 7525, 3256, 5332, 3005],
    ("lhv-stochastic", 9223372036854775813, 100000): [3566, 3953, 2993, 3882, 4826, 2669, 4753, 2142, 3510, 4604, 3172, 3251, 5567, 2441, 4041, 2385],
    ("lhv-stochastic", 9223372036854775813, 131075): [4666, 5175, 3966, 5092, 6333, 3431, 6235, 2876, 4575, 6062, 4126, 4287, 7303, 3199, 5302, 3100],
    ("swap-parties-first", 2024, 100000): [2439, 708, 660, 2382, 2431, 651, 648, 2541, 2553, 663, 589, 2405, 657, 2469, 2516, 655],
    ("swap-parties-first", 2024, 131075): [3215, 908, 858, 3122, 3206, 860, 831, 3312, 3325, 830, 795, 3182, 856, 3267, 3296, 849],
    ("swap-parties-first", 9223372036854775813, 100000): [2466, 664, 641, 2467, 2462, 645, 665, 2473, 2470, 652, 681, 2495, 648, 2448, 2456, 672],
    ("swap-parties-first", 9223372036854775813, 131075): [3223, 860, 873, 3238, 3208, 848, 873, 3293, 3197, 887, 867, 3265, 851, 3207, 3203, 886],
    ("swap-charlie-first", 2024, 100000): [2439, 708, 660, 2382, 2431, 651, 648, 2541, 2553, 663, 589, 2405, 657, 2469, 2516, 655],
    ("swap-charlie-first", 2024, 131075): [3215, 908, 858, 3122, 3206, 860, 831, 3312, 3325, 830, 795, 3182, 856, 3267, 3296, 849],
    ("swap-charlie-first", 9223372036854775813, 100000): [2466, 664, 641, 2467, 2462, 645, 665, 2473, 2470, 652, 681, 2495, 648, 2448, 2456, 672],
    ("swap-charlie-first", 9223372036854775813, 131075): [3223, 860, 873, 3238, 3208, 848, 873, 3293, 3197, 887, 867, 3265, 851, 3207, 3203, 886],
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
# or None, sha256 of the stdout bytes the run prints).
GOLDEN_REPORTS = {
    "quantum-mc": (
        ["quantum-mc", "--trials", "100000", "--seed", "5"],
        None,
        "604a692141507e1663cda80bfdd725a91eb2b2e0307b0b51ac7cc350e1d0a8fd",
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
        "7b28e772b244fafdb1e2dacec09057ca8870d364640db53a2356d07eb21f10ce",
    ),
    "swap": (
        ["swap", "--trials", "100000", "--seed", "11"],
        {"mode": "swap", "order": "charlie-first", "noise": NOISE},
        "15320f2a66de616a69db3179b74e59c8aaf8df141c36181cf3a63d5c7de32cd5",
    ),
    "quantum-exact": (
        ["quantum-exact"],
        {
            "mode": "quantum-exact",
            "schemes": dict(zip(("alice", "bob"), map(_scheme_doc, _prior_schemes()))),
        },
        "630ccfbfadad6b4cd4f9e439c4d700e98fe46b5a7685f3f07c0b57e78f0fa9fd",
    ),
    "quantum-exact-canonical": (["quantum-exact"], None, "20078a294f9d69184c458e5d2b2999e50bd57a6c10a7f27c0eda805cea24d648"),
    "check-independence": (
        ["check-independence"],
        {"mode": "check-independence", "schemes": PERTURBED_SCHEMES, "tol": 1e-6},
        "975fe6cc55b557b440156ecaf0d0c1ab6c9ae5388358aa4b06f0a7036d43a63b",
    ),
    "loophole": (["loophole"], None, "562c2000d36b76a74ea680ad3110a7e8b93dfc9fc09cd9ff869973c38f277148"),
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
        "ea191fb2b70c5e66b2aed64fff8491c212f4f224055f9ea80c39f5486d51dffa",
    ),
    "lhv-indet-sweep": (
        ["lhv-indet", "--seed", "3"],
        {"mode": "lhv-indet", "samples": 2500},
        "759bd6622bf1fb92c7f57728252436f24b576c421e91e202d5da520703621a9a",
    ),
    "lhv-max": (["lhv-max", "--seed", "3"], {"mode": "lhv-max", "samples": 50}, "4c5365ae8b7cc7076494aece3f705d178786b5b4941ef10dda25b9e10cb3f029"),
    "swap-sweep": (["swap", "--grid", "0,0.25,1"], None, "cedfbc09ac1e338810f8526795c6eb4aba0d6735d72e23115cefd4f186550ae7"),
    "swap-parties-first": (
        ["swap", "--trials", "100000", "--seed", "13"],
        {"mode": "swap", "order": "parties-first", "noise": NOISE},
        "26b9c0ea76cd84d7926724e878cfebeb6ec313b2de023ebe0df84b3f9d3c6574",
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
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want
