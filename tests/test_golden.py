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
    ("quantum-canonical", 2024, 100000): [2710, 494, 461, 2581, 2695, 453, 471, 2682, 2710, 475, 470, 2726, 511, 2601, 2666, 429],
    ("quantum-canonical", 2024, 131075): [3537, 614, 607, 3434, 3531, 598, 618, 3472, 3534, 613, 631, 3560, 679, 3353, 3476, 568],
    ("quantum-canonical", 9223372036854775813, 100000): [2738, 450, 444, 2567, 2658, 483, 500, 2705, 2649, 454, 410, 2771, 452, 2721, 2654, 448],
    ("quantum-canonical", 9223372036854775813, 131075): [3555, 615, 565, 3374, 3507, 617, 638, 3567, 3381, 582, 569, 3631, 596, 3539, 3442, 591],
    ("quantum-priors", 2024, 100000): [1903, 215, 810, 2899, 772, 402, 293, 5626, 5161, 599, 232, 853, 390, 6311, 556, 263],
    ("quantum-priors", 2024, 131075): [2525, 264, 1048, 3834, 1007, 535, 396, 7312, 6753, 788, 305, 1118, 520, 8235, 720, 332],
    ("quantum-priors", 9223372036854775813, 100000): [1908, 187, 777, 2915, 817, 410, 352, 5632, 5091, 607, 198, 904, 361, 6314, 543, 264],
    ("quantum-priors", 9223372036854775813, 131075): [2502, 274, 997, 3826, 1064, 538, 455, 7418, 6595, 773, 259, 1199, 450, 8268, 699, 348],
    ("lhv-stochastic", 2024, 100000): [3575, 3976, 3057, 3898, 4783, 2666, 4873, 2189, 3391, 4689, 3014, 3207, 5657, 2438, 4139, 2383],
    ("lhv-stochastic", 2024, 131075): [4713, 5189, 3971, 5140, 6322, 3423, 6333, 2878, 4453, 6117, 3950, 4218, 7427, 3202, 5422, 3092],
    ("lhv-stochastic", 9223372036854775813, 100000): [3550, 3860, 2945, 3980, 4983, 2592, 4823, 2164, 3605, 4615, 3034, 3240, 5685, 2373, 4058, 2245],
    ("lhv-stochastic", 9223372036854775813, 131075): [4650, 5098, 3808, 5223, 6492, 3410, 6248, 2903, 4695, 6054, 4010, 4272, 7389, 3115, 5353, 2951],
    ("swap-parties-first", 2024, 100000): [2501, 686, 693, 2393, 2504, 682, 650, 2482, 2504, 672, 671, 2546, 705, 2382, 2449, 643],
    ("swap-parties-first", 2024, 131075): [3274, 871, 918, 3181, 3277, 888, 857, 3195, 3277, 862, 880, 3333, 928, 3051, 3182, 837],
    ("swap-parties-first", 9223372036854775813, 100000): [2517, 693, 640, 2382, 2456, 705, 680, 2532, 2467, 663, 623, 2588, 656, 2526, 2441, 642],
    ("swap-parties-first", 9223372036854775813, 131075): [3267, 927, 834, 3119, 3236, 903, 869, 3348, 3141, 838, 842, 3388, 864, 3288, 3171, 850],
    ("swap-charlie-first", 2024, 100000): [2501, 686, 693, 2393, 2504, 682, 650, 2482, 2504, 672, 671, 2546, 705, 2382, 2449, 643],
    ("swap-charlie-first", 2024, 131075): [3274, 871, 918, 3181, 3277, 888, 857, 3195, 3277, 862, 880, 3333, 928, 3051, 3182, 837],
    ("swap-charlie-first", 9223372036854775813, 100000): [2517, 693, 640, 2382, 2456, 705, 680, 2532, 2467, 663, 623, 2588, 656, 2526, 2441, 642],
    ("swap-charlie-first", 9223372036854775813, 131075): [3267, 927, 834, 3119, 3236, 903, 869, 3348, 3141, 838, 842, 3388, 864, 3288, 3171, 850],
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
        "c39d2c1e967dbcf06b6868b5208977bd201697f9005db279efb668267af485d6",
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
        "fe96ddcd813fef68edbe57d255a8996936450be96de28d9b4c9b787c8ac9e5a9",
    ),
    "swap": (
        ["swap", "--trials", "100000", "--seed", "11"],
        {"mode": "swap", "order": "charlie-first", "noise": NOISE},
        "51d88a27fc6f80b4769c2594003960acb50265667d24d3724c32b4b20c6cfb09",
    ),
    "quantum-exact": (
        ["quantum-exact"],
        {
            "mode": "quantum-exact",
            "schemes": dict(zip(("alice", "bob"), map(_scheme_doc, _prior_schemes()))),
        },
        "fcc016269eaa8a7d3ace5e94595c50527ef79620e95333fa5b32e60f827dd100",
    ),
    "quantum-exact-canonical": (["quantum-exact"], None, "0a6ed89205ab0d9a748593539bad9a9f18ea0fc258678d11e2fc6e16c62c96ef"),
    "check-independence": (
        ["check-independence"],
        {"mode": "check-independence", "schemes": PERTURBED_SCHEMES, "tol": 1e-6},
        "93680d0df2e9aa1f6b2c3be307adc6a2b5a4274436f8d39b9b5be7344cd3d485",
    ),
    "loophole": (["loophole"], None, "d3c91e9d43b6fffc4473d20451506cdab1442628a707a66e81c953fce3b01827"),
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
        "f5b99764d7ec9057f3131313f4459b64bb582b9912662a05d7cd3221f63545d5",
    ),
    "lhv-indet-sweep": (
        ["lhv-indet", "--seed", "3"],
        {"mode": "lhv-indet", "samples": 2500},
        "b7aa29c95ffb4d321ee9f74b02544e437975ae9ab9f906ff905c0ca8d9c81792",
    ),
    "lhv-max": (["lhv-max", "--seed", "3"], {"mode": "lhv-max", "samples": 50}, "a12abbf3e064b258fa250a06701626d7037798cd9a3b69361afd60a162a8f801"),
    "swap-sweep": (["swap", "--grid", "0,0.25,1"], None, "57a7e7b6cb5026599ab4983f799c4b37d69adb9dda64fef8af1c0f2c7878f6ac"),
    "swap-parties-first": (
        ["swap", "--trials", "100000", "--seed", "13"],
        {"mode": "swap", "order": "parties-first", "noise": NOISE},
        "83dbfb7cd4f04683b2e977a476b46da92f74f7880c5185d8f711bfb9c4ee3f49",
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
