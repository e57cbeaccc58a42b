"""Golden pins for every seeded sampler and for one CLI report per mode.

The reproducibility tests elsewhere compare two runs in one process, so a
change to the stream-to-trial mapping (which uniforms a trial reads, or how
it turns them into (a, b, x, y, c)) passes them.  The tallies and report
digests below were recorded from the samplers and must never move without a
``schema_version`` bump.  The report digests are those of report schema 3.

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
    ("quantum-canonical", 2024, 100000): [2727, 446, 440, 2607, 2754, 481, 438, 2681, 2702, 447, 450, 2696, 450, 2649, 2633, 451],
    ("quantum-canonical", 2024, 131075): [3595, 603, 592, 3417, 3609, 612, 589, 3436, 3534, 589, 602, 3525, 575, 3466, 3440, 584],
    ("quantum-canonical", 9223372036854775813, 100000): [2653, 444, 429, 2665, 2621, 500, 454, 2682, 2644, 446, 438, 2683, 466, 2628, 2677, 476],
    ("quantum-canonical", 9223372036854775813, 131075): [3513, 596, 590, 3542, 3463, 638, 587, 3523, 3475, 592, 573, 3490, 577, 3422, 3493, 637],
    ("quantum-priors", 2024, 100000): [1945, 219, 776, 2919, 835, 434, 295, 5641, 5148, 593, 229, 842, 360, 6319, 565, 269],
    ("quantum-priors", 2024, 131075): [2589, 310, 1030, 3856, 1088, 558, 402, 7277, 6766, 759, 302, 1106, 450, 8265, 715, 357],
    ("quantum-priors", 9223372036854775813, 100000): [1948, 204, 735, 3006, 760, 443, 315, 5617, 5113, 590, 186, 821, 359, 6350, 561, 300],
    ("quantum-priors", 9223372036854775813, 131075): [2533, 286, 1004, 3974, 1018, 569, 406, 7344, 6739, 761, 251, 1087, 444, 8269, 737, 406],
    ("lhv-stochastic", 2024, 100000): [3560, 3935, 2963, 3855, 4789, 2633, 4809, 2118, 3535, 4657, 3102, 3169, 5728, 2424, 4083, 2306],
    ("lhv-stochastic", 2024, 131075): [4707, 5155, 3876, 5140, 6299, 3463, 6265, 2778, 4640, 6015, 4087, 4209, 7501, 3208, 5301, 3005],
    ("lhv-stochastic", 9223372036854775813, 100000): [3521, 4008, 2997, 3915, 4920, 2530, 4835, 2153, 3430, 4637, 3132, 3202, 5656, 2410, 4002, 2400],
    ("lhv-stochastic", 9223372036854775813, 131075): [4653, 5233, 3935, 5179, 6440, 3301, 6319, 2797, 4495, 6092, 4116, 4204, 7380, 3135, 5255, 3106],
    ("swap-parties-first", 2024, 100000): [2491, 656, 659, 2411, 2563, 657, 626, 2495, 2523, 659, 644, 2516, 672, 2455, 2415, 676],
    ("swap-parties-first", 2024, 131075): [3292, 885, 866, 3158, 3354, 836, 845, 3190, 3292, 849, 857, 3293, 865, 3210, 3165, 867],
    ("swap-parties-first", 9223372036854775813, 100000): [2463, 656, 637, 2448, 2423, 707, 633, 2490, 2448, 626, 665, 2476, 681, 2428, 2481, 676],
    ("swap-parties-first", 9223372036854775813, 131075): [3258, 875, 867, 3262, 3200, 912, 817, 3270, 3224, 830, 864, 3233, 870, 3155, 3248, 901],
    ("swap-charlie-first", 2024, 100000): [2491, 656, 659, 2411, 2563, 657, 626, 2495, 2523, 659, 644, 2516, 672, 2455, 2415, 676],
    ("swap-charlie-first", 2024, 131075): [3292, 885, 866, 3158, 3354, 836, 845, 3190, 3292, 849, 857, 3293, 865, 3210, 3165, 867],
    ("swap-charlie-first", 9223372036854775813, 100000): [2463, 656, 637, 2448, 2423, 707, 633, 2490, 2448, 626, 665, 2476, 681, 2428, 2481, 676],
    ("swap-charlie-first", 9223372036854775813, 131075): [3258, 875, 867, 3262, 3200, 912, 817, 3270, 3224, 830, 864, 3233, 870, 3155, 3248, 901],
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
# a sampled swap in each order and one empty-cell report, so every branch of
# the config echo is pinned: (argv, config document or None, sha256 of the
# rendered report without its duration_s field).
GOLDEN_REPORTS = {
    "quantum-mc": (
        ["quantum-mc", "--trials", "100000", "--seed", "5"],
        None,
        "39ab320350bfa5e077dab4b0a2e1d75729c138f2a9892c39bc57e71bf498a258",
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
        "bbbba0c8676755ac360455ddf9a86d114f677ab192afde2878f70a08293a89c1",
    ),
    "swap": (
        ["swap", "--trials", "100000", "--seed", "11"],
        {"mode": "swap", "order": "charlie-first", "noise": NOISE},
        "85081d4c407e351784ba05f4bcf2c9f239e25362fc62a2cd07adb5bccc3c0a81",
    ),
    "quantum-exact": (
        ["quantum-exact"],
        {
            "mode": "quantum-exact",
            "schemes": dict(zip(("alice", "bob"), map(_scheme_doc, _prior_schemes()))),
        },
        "a1886681d8e424fbb2b5b55efbc06a5c45a4d1e062ef88db08f52641d439727f",
    ),
    "quantum-exact-canonical": (["quantum-exact"], None, "c57eaa0dc45b62d63aac0a320ab128da1d29d640007936fb368a7c554dd60733"),
    "check-independence": (
        ["check-independence"],
        {"mode": "check-independence", "schemes": PERTURBED_SCHEMES, "tol": 1e-6},
        "473b48a51511b69c36df17bc678d1fe48975dc466d293e1a162dff484b730f2f",
    ),
    "loophole": (["loophole"], None, "be50e3abe76eb41b7e391cf902b84b98ea301b98d7cb79f47f9998e3540bc5d1"),
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
        "0a5a521566a7a7ba23426f69068920221f1ca21364fc00b2462f4c7fef20494b",
    ),
    "lhv-max": (["lhv-max", "--seed", "3"], {"mode": "lhv-max", "samples": 50}, "f77c44f5c63ca0cdf6de2f7757026fcfbb70c4e4a0aa3680eeaec1b71ffcec64"),
    "swap-sweep": (["swap", "--grid", "0,0.25,1"], None, "64a890bd979da737e861e7caa71867058d0923bcda55befc4d11dcbd9781f776"),
    "swap-parties-first": (
        ["swap", "--trials", "100000", "--seed", "13"],
        {"mode": "swap", "order": "parties-first", "noise": NOISE},
        "64f5eb2afc5988fce477f1d4dad4fb33f3f8069660f122a8ff938e8fc1a15871",
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
