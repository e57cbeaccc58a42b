"""Seeded invocation plans for the three benchmark workloads.

A plan is a list of CLI invocations.  Each one carries its argv, the config
document fed to ``--config -`` (or None), the exit code its construction
implies, the number of Monte Carlo draws it asks for, and the reference its
output is checked against.  References are closed forms written here in plain
Python, independently of the package, so generating a plan never runs the
program under test and needs neither numpy nor bellpost.

Every generated input keeps each exact selection rate at or above 1%.  A
sampled input also expects, per basis pair, at least MIN_SELECTED selected
trials and, unless its exact correlation is +-1, at least MIN_MINORITY trials
of the rarer outcome sign, so no cell is ever empty and each correlation is
close to normally distributed.  Its check carries the standard error of S
that the exact correlations imply, sqrt(sum (1 - E^2) / m) over the expected
selected counts m: a cell that comes out all one sign has a bootstrap error
bar of 0, and the reported se_s alone would then fail correct output.
"""

from __future__ import annotations

import json
import math
import random

PI = math.pi
SQRT2 = math.sqrt(2.0)
MIN_RATE = 0.01
MIN_SELECTED = 40
MIN_MINORITY = 10
BULK_TRIALS = 10_000_000

# Canonical preparation angles used by the swap realization, [basis][state].
SWAP_ALICE = ((0.0, PI), (PI / 2, 3 * PI / 2))
SWAP_BOB = ((PI / 4, 5 * PI / 4), (7 * PI / 4, 3 * PI / 4))

CELLS = [(a, b) for a in (0, 1) for b in (0, 1)]
SIGN = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -1.0}


# ---------------------------------------------------------------- references


def _chsh(e: dict) -> float:
    return sum(SIGN[ab] * e[ab] for ab in CELLS)


def quantum_exact(alice: dict, bob: dict) -> tuple[dict, dict]:
    """Exact post-selected E(a, b) and selection rates of a scheme pair.

    A real-amplitude pair cos(t/2)|0> + sin(t/2)|1> (x) cos(s/2)|0> + ... is
    announced with probability |<phi+|.>|^2 = cos^2((t - s)/2) / 2.
    """
    e, rates = {}, {}
    for a, b in CELLS:
        num = den = 0.0
        for x in (0, 1):
            for y in (0, 1):
                t, s = alice["angles"][a][x], bob["angles"][b][y]
                w = alice["priors"][a][x] * bob["priors"][b][y] * math.cos((t - s) / 2) ** 2 / 2
                den += w
                num += (1 - 2 * x) * (1 - 2 * y) * w
        e[a, b] = num / den
        rates[a, b] = den
    return e, rates


def basis_distance(scheme: dict) -> float:
    """Trace distance between the two basis ensembles: half the Bloch-vector gap."""
    r = []
    for a in (0, 1):
        r.append([sum(p * f(t) for p, t in zip(scheme["priors"][a], scheme["angles"][a]))
                  for f in (math.sin, math.cos)])
    return math.hypot(r[0][0] - r[1][0], r[0][1] - r[1][1]) / 2


def lhv_exact(model: dict) -> tuple[dict, dict]:
    """Exact post-selected E(a, b) and selection rates of a finite LHV model."""
    lam, lamp = model["lambda"]["probs"], model["lambda_prime"]["probs"]
    e, rates = {}, {}
    for a, b in CELLS:
        num = den = 0.0
        for i, pi in enumerate(lam):
            for j, pj in enumerate(lamp):
                w = pi * pj * model["select"][i][j]
                den += w
                num += w * (1 - 2 * model["response_a"][a][i]) * (1 - 2 * model["response_b"][b][j])
        e[a, b] = num / den
        rates[a, b] = den
    return e, rates


def swap_exact(noise: dict) -> tuple[dict, dict]:
    """Exact post-selected E(a, b) and selection rates of the noisy swap realization.

    Remote preparation sends each canonical state with probability 1/2; the
    depolarizing channels and Charlie's mixed effect scale every correlation by
    (1 - mix)(1 - depol_alice)(1 - depol_bob), and the jitters shift the angle
    between the two prepared states.  Every selection rate is exactly 1/4.
    """
    k = (1 - noise["charlie_mix"]) * (1 - noise["depol_alice"]) * (1 - noise["depol_bob"])
    shift = noise["jitter_alice"] - noise["jitter_bob"]
    e = {(a, b): k * math.cos(SWAP_ALICE[a][0] - SWAP_BOB[b][0] + shift) for a, b in CELLS}
    return e, dict.fromkeys(CELLS, 0.25)


def loophole_exact(w: list) -> tuple[float, dict]:
    """S with per-basis discards of trit value 2, and the retained weight per (a, b)."""
    e, kept = {}, {}
    for a, b in CELLS:
        num = den = 0.0
        for idx, weight in enumerate(w):
            i, j, k, l = idx // 27, idx // 9 % 3, idx // 3 % 3, idx % 3
            xa, yb = (i, j)[a], (k, l)[b]
            if xa != 2 and yb != 2:
                den += weight
                num += (1 - 2 * xa) * (1 - 2 * yb) * weight
        e[a, b] = num / den if den > 0 else 0.0
        kept[a, b] = den
    return _chsh(e), kept


def indet_exact(atoms: list) -> float:
    return sum(t["weight"] * (t["f0"] * (t["g0"] + t["g1"]) + t["f1"] * (t["g0"] - t["g1"]))
               for t in atoms)


# ---------------------------------------------------------------- generators


def _dirichlet(rng: random.Random, n: int) -> list[float]:
    g = [rng.gammavariate(1.0, 1.0) for _ in range(n)]
    total = sum(g)
    return [v / total for v in g]


def _priors(rng: random.Random) -> list[float]:
    p = rng.uniform(0.1, 0.9)
    return [p, 1.0 - p]


def _random_scheme(rng: random.Random, antipodal_uniform: bool = False) -> dict:
    if antipodal_uniform:
        angles = [[t, (t + PI) % (2 * PI)] for t in (rng.uniform(0, 2 * PI) for _ in (0, 1))]
        return {"angles": angles, "priors": [[0.5, 0.5], [0.5, 0.5]]}
    return {"angles": [[rng.uniform(0, 2 * PI) for _ in (0, 1)] for _ in (0, 1)],
            "priors": [_priors(rng) for _ in (0, 1)]}


def _scheme_doc(s: dict) -> dict:
    return {f"basis{a}": {"angles": s["angles"][a], "priors": s["priors"][a]} for a in (0, 1)}


def _scheme_pair(rng: random.Random) -> tuple[dict, dict, dict, dict]:
    while True:
        alice, bob = _random_scheme(rng), _random_scheme(rng)
        e, rates = quantum_exact(alice, bob)
        if min(rates.values()) >= MIN_RATE:
            return alice, bob, e, rates


def _lhv_model(rng: random.Random) -> dict:
    n, m = rng.randint(1, 4), rng.randint(1, 4)
    deterministic = rng.random() < 0.5

    def resp(size):
        if deterministic:
            return [[float(rng.randint(0, 1)) for _ in range(size)] for _ in (0, 1)]
        return [[rng.random() for _ in range(size)] for _ in (0, 1)]

    return {
        "lambda": {"values": sorted(rng.random() for _ in range(n)), "probs": _dirichlet(rng, n)},
        "lambda_prime": {"values": sorted(rng.random() for _ in range(m)),
                         "probs": _dirichlet(rng, m)},
        "response_a": resp(n),
        "response_b": resp(m),
        "select": [[rng.uniform(0.2, 1.0) for _ in range(m)] for _ in range(n)],
    }


def _noise(rng: random.Random) -> dict:
    return {k: rng.uniform(0.0, 0.3)
            for k in ("depol_alice", "depol_bob", "jitter_alice", "jitter_bob", "charlie_mix")}


def _stratified_trials(rng: random.Random, count: int) -> list[int]:
    """Log-uniform in [1e3, 1e5], one draw per stratum so each plan has the same spread."""
    trials = [round(10 ** (3 + 2 * (i + rng.random()) / count)) for i in range(count)]
    rng.shuffle(trials)
    return trials


def _invocation(mode: str, doc: dict | None, check: dict, argv_extra=(), exit_code: int = 0,
                draws: int = 0) -> dict:
    argv = [mode, *argv_extra]
    config = None
    if doc is not None:
        argv += ["--config", "-"]
        config = json.dumps({"schema_version": 1, "mode": mode, **doc})
    return {"mode": mode, "argv": argv, "config": config, "exit": exit_code,
            "draws": draws, "check": check}


def _samplable(e: dict, rates: dict, trials: int) -> bool:
    for ab in CELLS:
        selected = trials / 4 * rates[ab]
        if rates[ab] < MIN_RATE or selected < MIN_SELECTED:
            return False
        if abs(e[ab]) != 1.0 and selected * (1 - abs(e[ab])) / 2 < MIN_MINORITY:
            return False
    return True


def _sampled(rng: random.Random, mode: str, trials: int) -> dict:
    """A valid sampled invocation with its exact reference S."""
    seed = rng.getrandbits(32)
    while True:
        if mode == "quantum-mc":
            alice, bob, e, rates = _scheme_pair(rng)
            doc = {"schemes": {"alice": _scheme_doc(alice), "bob": _scheme_doc(bob)}}
            match = []
        elif mode == "lhv-mc":
            model = _lhv_model(rng)
            e, rates = lhv_exact(model)
            doc = {"lhv_model": model}
            responses = model["response_a"] + model["response_b"]
            match = ["s_from_cells"] if all(v in (0.0, 1.0) for r in responses for v in r) else []
        else:
            noise = _noise(rng)
            e, rates = swap_exact(noise)
            doc = {"noise": noise, "order": rng.choice(["parties-first", "charlie-first"])}
            match = ["exact_s"]
        if _samplable(e, rates, trials):
            break
    doc.update(trials=trials, seed=seed)
    se = math.sqrt(sum((1 - e[ab] ** 2) / (trials / 4 * rates[ab]) for ab in CELLS))
    check = {"kind": "sampled", "s": _chsh(e), "se": se, "match": match}
    return _invocation(mode, doc, check, draws=trials)


def _rejected(rng: random.Random, kind: str, mode: str) -> dict:
    """A sampled config broken in one documented way; the CLI must exit 2."""
    inv = _sampled(rng, mode, 1000)
    doc = json.loads(inv["config"])
    if kind == "wrong-type":
        doc["trials"] = str(doc["trials"])
    elif kind == "out-of-range":
        if mode == "swap":
            doc["noise"]["depol_alice"] = 1.0 + rng.uniform(0.01, 1.0)
        else:
            doc["bootstrap"] = -rng.randint(1, 1000)
    else:
        doc["trails"] = doc.pop("trials")
    inv.update(config=json.dumps(doc), exit=2, draws=0, check={"kind": "rejected"})
    return inv


def nonfinite_probes(rng: random.Random) -> list[dict]:
    """Configs holding a NaN state prior or angle; the CLI must exit 2 on both."""
    alice, bob, _, _ = _scheme_pair(rng)
    prior = {"alice": _scheme_doc(alice), "bob": _scheme_doc(bob)}
    prior["alice"]["basis0"]["priors"] = [float("nan"), 0.5]
    angle = {"alice": _scheme_doc(alice), "bob": _scheme_doc(bob)}
    angle["bob"]["basis1"]["angles"] = [float("nan"), 1.0]
    return [
        _invocation("quantum-mc", {"schemes": prior, "trials": 1000}, {"kind": "rejected"},
                    exit_code=2),
        _invocation("quantum-exact", {"schemes": angle}, {"kind": "rejected"}, exit_code=2),
    ]


def bulk_mc(rng: random.Random) -> list[dict]:
    return [_sampled(rng, mode, BULK_TRIALS) for mode in ("quantum-mc", "lhv-mc", "swap")]


def many_mc(rng: random.Random) -> list[dict]:
    plan = []
    for mode in ("quantum-mc", "lhv-mc", "swap"):
        plan += [_sampled(rng, mode, t) for t in _stratified_trials(rng, 47)]
    kinds = ("wrong-type", "out-of-range", "unknown-field")
    modes = ("quantum-mc", "lhv-mc", "swap")
    plan += [_rejected(rng, kinds[i % 3], modes[i // 3]) for i in range(9)]
    rng.shuffle(plan)
    return plan


def _exact_quantum(rng: random.Random) -> dict:
    alice, bob, e, rates = _scheme_pair(rng)
    doc = {"schemes": {"alice": _scheme_doc(alice), "bob": _scheme_doc(bob)}}
    check = {"kind": "exact", "s": _chsh(e),
             "rates": {f"{a}{b}": r for (a, b), r in rates.items()}}
    return _invocation("quantum-exact", doc, check)


def _independence(rng: random.Random) -> dict:
    schemes = {}
    check = {"kind": "independence"}
    for party in ("alice", "bob"):
        while True:
            scheme = _random_scheme(rng, antipodal_uniform=rng.random() < 0.5)
            d = basis_distance(scheme)
            if d < 1e-14 or d > 1e-3:
                break
        schemes[party] = _scheme_doc(scheme)
        check[party] = d
    doc = {"schemes": schemes}
    if rng.random() < 0.5:
        doc["tol"] = 1e-9
    check["tol"] = doc.get("tol", 1e-12)
    return _invocation("check-independence", doc, check)


def _loophole(rng: random.Random) -> dict:
    while True:
        cells = rng.sample(range(81), rng.randint(4, 81))
        w = [0.0] * 81
        for idx, v in zip(cells, _dirichlet(rng, len(cells))):
            w[idx] = v
        s, kept = loophole_exact(w)
        if min(kept.values()) >= MIN_RATE:
            return _invocation("loophole", {"trit_weights": w}, {"kind": "exact", "s": s})


def _sweep(rng: random.Random) -> dict:
    grid = sorted(round(rng.random(), 6) for _ in range(21))
    rows = [[p, 2 * SQRT2 * (1 - p) ** 2] for p in grid]
    return _invocation("swap", None, {"kind": "sweep", "rows": rows},
                       argv_extra=["--grid", ",".join(repr(p) for p in grid)])


def _indet(rng: random.Random) -> dict:
    n = rng.randint(1, 5)
    atoms = [{"weight": w, **{k: rng.uniform(-1, 1) for k in ("f0", "f1", "g0", "g1")}}
             for w in _dirichlet(rng, n)]
    return _invocation("lhv-indet", {"response_model": {"atoms": atoms}},
                       {"kind": "exact", "s": indet_exact(atoms)})


def exact_bounds(rng: random.Random) -> list[dict]:
    # Latency comes in clusters, one per kind of invocation.  The counts put
    # each percentile inside a cluster, not on the gap between two: the 70
    # faster invocations leave call_p50_ms among the 100 quantum-exact runs,
    # and the 14 sweeps and lhv-max runs, the slowest 7%, leave call_p90_ms
    # among the 16 lhv-indet sweeps.
    plan = [_exact_quantum(rng) for _ in range(100)]
    plan += [_independence(rng) for _ in range(30)]
    plan += [_loophole(rng) for _ in range(30)]
    plan += [_indet(rng) for _ in range(10)]
    plan += [_sweep(rng) for _ in range(8)]
    plan += [_invocation("lhv-max", {"seed": rng.getrandbits(32)}, {"kind": "lhv-max"},
                         draws=10_000) for _ in range(6)]
    plan += [_invocation("lhv-indet", {"seed": rng.getrandbits(32)}, {"kind": "indet-sweep"},
                         draws=1_000) for _ in range(16)]
    rng.shuffle(plan)
    return plan


WORKLOADS = {"bulk-mc": bulk_mc, "many-mc": many_mc, "exact-bounds": exact_bounds}


def build(workload: str, seed: int) -> dict:
    """The invocation plan and the non-finite probes for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    return {"plan": WORKLOADS[workload](rng), "probes": nonfinite_probes(rng)}
