"""Command-line front end.

One subcommand per scenario mode; an optional JSON config document (file path
or ``-`` for stdin) supplies the scenario, and flags override individual
fields.  Every run prints a deterministic report to stdout — identical config
and seed give byte-identical output except for the trailing duration field.
Floats are printed with at most 12 significant digits, and the CSV table uses
the same rounding, so the two artifacts always agree.

Exit codes: 0 success, 2 config error, 3 empty-cell / undefined statistic,
4 internal numerical violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, lhv, protocol, swap
from .qcore import NumericsError

MODES = (
    "quantum-exact",
    "quantum-mc",
    "lhv-mc",
    "lhv-max",
    "lhv-indet",
    "loophole",
    "swap",
    "check-independence",
)

SCHEMA_VERSION = 1

_SAMPLING_MODES = ("quantum-mc", "lhv-mc", "swap")

# Keys accepted per mode, beyond the common schema_version/mode/seed.
_MODE_KEYS = {
    "quantum-exact": {"schemes"},
    "quantum-mc": {"schemes", "trials", "bootstrap"},
    "lhv-mc": {"lhv_model", "trials", "bootstrap"},
    "lhv-max": {"samples"},
    "lhv-indet": {"response_model", "samples"},
    "loophole": {"trit_weights"},
    "swap": {"noise", "order", "trials", "bootstrap", "sweep"},
    "check-independence": {"schemes", "tol"},
}

_DEFAULT_SAMPLES = {"lhv-max": 10_000, "lhv-indet": 1_000}

# Margins for the task-completed verdict: sampled runs must clear the
# classical bound by five standard errors, exact runs by 1e-9.
_SIGMA_MARGIN = 5.0
_EXACT_MARGIN = 1e-9


class ConfigError(Exception):
    """The config document (or a flag) failed validation."""


@dataclass
class ScenarioConfig:
    """A validated scenario: mode plus every field the mode consumes."""

    mode: str
    seed: int = 0
    trials: int = 1_000_000
    bootstrap: int = 1_000
    schemes: tuple[protocol.PreparationScheme, protocol.PreparationScheme] | None = None
    lhv_model: lhv.LhvSimModel | None = None
    response_model: lhv.ResponseModel | None = None
    trit_weights: lhv.TritCellWeights | None = None
    noise: swap.NoiseParams = field(default_factory=swap.NoiseParams)
    order: str = "parties-first"
    samples: int = 0
    tol: float = 1e-12
    sweep_grid: list[float] | None = None


def _require(obj, key: str, kind, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}: required field is missing")
    value = obj[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _number_list(values, length: int | None, path: str) -> list[float]:
    if not isinstance(values, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in values
    ):
        raise ConfigError(f"{path}: expected a list of numbers")
    if length is not None and len(values) != length:
        raise ConfigError(f"{path}: expected {length} numbers, got {len(values)}")
    return [float(v) for v in values]


def _parse_scheme(obj, path: str) -> protocol.PreparationScheme:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object with basis0/basis1")
    angles = np.zeros((2, 2))
    priors = np.full((2, 2), 0.5)
    for a in (0, 1):
        basis = _require(obj, f"basis{a}", dict, path)
        angles[a] = _number_list(_require(basis, "angles", list, f"{path}.basis{a}"), 2,
                                 f"{path}.basis{a}.angles")
        if "priors" in basis:
            row = _number_list(basis["priors"], 2, f"{path}.basis{a}.priors")
            if any(p < 0.0 for p in row) or abs(sum(row) - 1.0) > 1e-12:
                raise ConfigError(
                    f"{path}.basis{a}.priors: must be nonnegative and sum to 1, got {row}"
                )
            priors[a] = row
    return protocol.PreparationScheme(angles, priors)


def _parse_schemes(obj) -> tuple[protocol.PreparationScheme, protocol.PreparationScheme]:
    if not isinstance(obj, dict) or set(obj) != {"alice", "bob"}:
        raise ConfigError("schemes: expected an object with exactly 'alice' and 'bob'")
    return _parse_scheme(obj["alice"], "schemes.alice"), _parse_scheme(obj["bob"], "schemes.bob")


def _parse_lhv_model(obj) -> lhv.LhvSimModel:
    if not isinstance(obj, dict):
        raise ConfigError("lhv_model: expected an object")
    expected = {"lambda", "lambda_prime", "response_a", "response_b", "select"}
    unknown = set(obj) - expected
    if unknown:
        raise ConfigError(f"lhv_model: unknown field(s) {sorted(unknown)}")
    dists = {}
    for name in ("lambda", "lambda_prime"):
        d = _require(obj, name, dict, "lhv_model")
        dists[name] = (
            _number_list(_require(d, "values", list, f"lhv_model.{name}"), None,
                         f"lhv_model.{name}.values"),
            _number_list(_require(d, "probs", list, f"lhv_model.{name}"), None,
                         f"lhv_model.{name}.probs"),
        )
    n = len(dists["lambda"][0])
    m = len(dists["lambda_prime"][0])
    resp_a = [_number_list(row, n, "lhv_model.response_a")
              for row in _require(obj, "response_a", list, "lhv_model")]
    resp_b = [_number_list(row, m, "lhv_model.response_b")
              for row in _require(obj, "response_b", list, "lhv_model")]
    if len(resp_a) != 2 or len(resp_b) != 2:
        raise ConfigError("lhv_model.response_a/response_b: expected one row per basis")
    select = [_number_list(row, m, "lhv_model.select")
              for row in _require(obj, "select", list, "lhv_model")]
    if len(select) != n:
        raise ConfigError(f"lhv_model.select: expected {n} rows, got {len(select)}")
    try:
        return lhv.LhvSimModel(
            lambda_values=dists["lambda"][0],
            lambda_probs=dists["lambda"][1],
            lambda_prime_values=dists["lambda_prime"][0],
            lambda_prime_probs=dists["lambda_prime"][1],
            response_a=resp_a,
            response_b=resp_b,
            select=select,
        )
    except ValueError as exc:
        raise ConfigError(f"lhv_model: {exc}") from exc


def _parse_response_model(obj) -> lhv.ResponseModel:
    if not isinstance(obj, dict) or set(obj) != {"atoms"}:
        raise ConfigError("response_model: expected an object with 'atoms'")
    atoms = obj["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise ConfigError("response_model.atoms: expected a nonempty list")
    rows = []
    for idx, atom in enumerate(atoms):
        if not isinstance(atom, dict) or set(atom) != {"weight", "f0", "f1", "g0", "g1"}:
            raise ConfigError(
                f"response_model.atoms[{idx}]: expected fields weight, f0, f1, g0, g1"
            )
        rows.append([_require(atom, k, float, f"response_model.atoms[{idx}]")
                     for k in ("weight", "f0", "f1", "g0", "g1")])
    try:
        return lhv.ResponseModel.from_atoms(rows)
    except ValueError as exc:
        raise ConfigError(f"response_model: {exc}") from exc


def _parse_noise(obj) -> swap.NoiseParams:
    if not isinstance(obj, dict):
        raise ConfigError("noise: expected an object")
    fields = {"depol_alice", "depol_bob", "jitter_alice", "jitter_bob", "charlie_mix"}
    unknown = set(obj) - fields
    if unknown:
        raise ConfigError(f"noise: unknown field(s) {sorted(unknown)}")
    kwargs = {k: _require(obj, k, float, "noise") for k in obj}
    try:
        return swap.NoiseParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc


def config_from_doc(doc) -> ScenarioConfig:
    """Validate a decoded config document into a ScenarioConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: only version {SCHEMA_VERSION} is supported, "
            f"got {doc.get('schema_version')!r}"
        )
    mode = doc.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode: unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    allowed = {"schema_version", "mode", "seed"} | _MODE_KEYS[mode]
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) for mode {mode}: {sorted(unknown)}")

    cfg = ScenarioConfig(mode=mode)
    if "seed" in doc:
        seed = doc["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ConfigError(f"seed: expected an integer in [0, 2^64), got {seed!r}")
        cfg.seed = seed
    if "trials" in doc:
        trials = doc["trials"]
        if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
            raise ConfigError(f"trials: expected an integer >= 1, got {trials!r}")
        cfg.trials = trials
    if "bootstrap" in doc:
        b = doc["bootstrap"]
        if isinstance(b, bool) or not isinstance(b, int) or b < 0:
            raise ConfigError(f"bootstrap: expected an integer >= 0, got {b!r}")
        cfg.bootstrap = b
    if "samples" in doc:
        s = doc["samples"]
        if isinstance(s, bool) or not isinstance(s, int) or s < 1:
            raise ConfigError(f"samples: expected an integer >= 1, got {s!r}")
        cfg.samples = s
    else:
        cfg.samples = _DEFAULT_SAMPLES.get(mode, 0)
    if "tol" in doc:
        tol = doc["tol"]
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
            raise ConfigError(f"tol: expected a positive finite number, got {tol!r}")
        cfg.tol = float(tol)
    if "schemes" in doc:
        cfg.schemes = _parse_schemes(doc["schemes"])
    if "lhv_model" in doc:
        cfg.lhv_model = _parse_lhv_model(doc["lhv_model"])
    elif mode == "lhv-mc":
        raise ConfigError("lhv_model: required for mode lhv-mc")
    if "response_model" in doc:
        cfg.response_model = _parse_response_model(doc["response_model"])
    if "trit_weights" in doc:
        flat = _number_list(doc["trit_weights"], 81, "trit_weights")
        try:
            cfg.trit_weights = lhv.TritCellWeights.from_flat(flat)
        except ValueError as exc:
            raise ConfigError(f"trit_weights: {exc}") from exc
    if "noise" in doc:
        cfg.noise = _parse_noise(doc["noise"])
    if "order" in doc:
        if doc["order"] not in swap.ORDERS:
            raise ConfigError(f"order: expected one of {swap.ORDERS}, got {doc['order']!r}")
        cfg.order = doc["order"]
    if "sweep" in doc:
        obj = doc["sweep"]
        if not isinstance(obj, dict) or set(obj) != {"grid"}:
            raise ConfigError("sweep: expected an object with 'grid'")
        grid = _number_list(obj["grid"], None, "sweep.grid")
        if not grid:
            raise ConfigError("sweep.grid: grid must be nonempty")
        if any(not 0.0 <= p <= 1.0 for p in grid):
            raise ConfigError(f"sweep.grid: values must lie in [0, 1], got {grid}")
        cfg.sweep_grid = grid
    return cfg


def _finite_number(text: str) -> float:
    """``json.loads`` hook for float literals, NaN and +-Infinity: finite or ConfigError."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} is not allowed in a config")
    return value


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON config document."""
    try:
        doc = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_doc(doc)


def _scheme_echo(scheme: protocol.PreparationScheme) -> dict:
    return {
        f"basis{a}": {
            "angles": [float(v) for v in scheme.angles[a]],
            "priors": [float(v) for v in scheme.priors[a]],
        }
        for a in (0, 1)
    }


def _echo_config(cfg: ScenarioConfig) -> dict:
    echo: dict = {"schema_version": SCHEMA_VERSION, "mode": cfg.mode, "seed": cfg.seed}
    if cfg.mode in _SAMPLING_MODES:
        echo["trials"] = cfg.trials
        echo["bootstrap"] = cfg.bootstrap
    if cfg.mode in ("quantum-exact", "quantum-mc", "check-independence"):
        alice, bob = cfg.schemes if cfg.schemes else protocol.canonical_schemes()
        echo["schemes"] = {"alice": _scheme_echo(alice), "bob": _scheme_echo(bob)}
    if cfg.mode == "lhv-mc":
        m = cfg.lhv_model
        echo["lhv_model"] = {
            "lambda": {"values": m.lambda_values.tolist(), "probs": m.lambda_probs.tolist()},
            "lambda_prime": {
                "values": m.lambda_prime_values.tolist(),
                "probs": m.lambda_prime_probs.tolist(),
            },
            "response_a": m.response_a.tolist(),
            "response_b": m.response_b.tolist(),
            "select": m.select.tolist(),
        }
    if cfg.mode == "lhv-indet" and cfg.response_model is not None:
        m = cfg.response_model
        echo["response_model"] = {
            "atoms": [
                {"weight": w, "f0": f0, "f1": f1, "g0": g0, "g1": g1}
                for w, f0, f1, g0, g1 in zip(m.weights, m.f0, m.f1, m.g0, m.g1)
            ]
        }
    if cfg.mode in ("lhv-max", "lhv-indet"):
        echo["samples"] = cfg.samples
    if cfg.mode == "loophole":
        w = cfg.trit_weights if cfg.trit_weights else lhv.loophole_max_example()
        echo["trit_weights"] = w.w.ravel().tolist()
    if cfg.mode == "swap":
        echo["noise"] = {
            "depol_alice": cfg.noise.depol_alice,
            "depol_bob": cfg.noise.depol_bob,
            "jitter_alice": cfg.noise.jitter_alice,
            "jitter_bob": cfg.noise.jitter_bob,
            "charlie_mix": cfg.noise.charlie_mix,
        }
        echo["order"] = cfg.order
        if cfg.sweep_grid is not None:
            echo["sweep"] = {"grid": list(cfg.sweep_grid)}
    if cfg.mode == "check-independence":
        echo["tol"] = cfg.tol
    return echo


def _e_dict(e: np.ndarray) -> dict:
    return {f"{a}{b}": float(e[a, b]) for a in (0, 1) for b in (0, 1)}


def _verdict_exact(s: float) -> str:
    return "task completed" if abs(s) > 2.0 + _EXACT_MARGIN else "no violation"


def _verdict_sampled(s: float, se_s: float | None) -> str:
    if se_s is None:
        return "not assessed"
    return "task completed" if abs(s) - _SIGMA_MARGIN * se_s > 2.0 else "no violation"


def _bell_results(rep: protocol.BellReport) -> dict:
    return {
        "e": _e_dict(rep.e),
        "se_e": _e_dict(rep.se_e) if rep.se_e is not None else "not computed",
        "s": rep.s,
        "se_s": rep.se_s if rep.se_s is not None else "not computed",
        "n_total": rep.n_total,
        "n_selected": rep.n_selected,
        "selection_rate": rep.n_selected / rep.n_total,
    }


def _no_signaling_gap(table: protocol.CondProbTable) -> float:
    p = table.probs
    alice = np.abs(p.sum(axis=3)[:, 0, :] - p.sum(axis=3)[:, 1, :]).max()
    bob = np.abs(p.sum(axis=2)[0, :, :] - p.sum(axis=2)[1, :, :]).max()
    return float(max(alice, bob))


def _run_quantum_exact(cfg: ScenarioConfig) -> tuple[dict, str]:
    alice, bob = cfg.schemes if cfg.schemes else protocol.canonical_schemes()
    table, rates = protocol.exact_postselected(alice, bob)
    e = np.array([[protocol.correlation(table, a, b) for b in (0, 1)] for a in (0, 1)])
    s = protocol.bell_s(e[0, 0], e[0, 1], e[1, 0], e[1, 1])
    results = {
        "e": _e_dict(e),
        "s": s,
        "selection_rates": _e_dict(rates),
        "selection_rate_spread": float(rates.max() - rates.min()),
        "no_signaling_gap": _no_signaling_gap(table),
        "conditional_probs": table.probs.tolist(),
    }
    if cfg.schemes is None:
        # Default canonical run: also evaluate the variant with Bob's basis-1
        # state labels exchanged, which drops the CHSH value to 0.
        results["s_bob_labels_swapped"] = protocol.exact_s(*protocol.bob_labels_swapped())
    return results, _verdict_exact(s)


def _run_quantum_mc(cfg: ScenarioConfig) -> tuple[dict, str]:
    alice, bob = cfg.schemes if cfg.schemes else protocol.canonical_schemes()
    tally = protocol.run_quantum_mc(alice, bob, cfg.trials, cfg.seed)
    rep = protocol.bell_report(tally, cfg.bootstrap, cfg.seed)
    return _bell_results(rep), _verdict_sampled(rep.s, rep.se_s)


def _run_lhv_mc(cfg: ScenarioConfig) -> tuple[dict, str]:
    tally = lhv.simulate_lhv(cfg.lhv_model, cfg.trials, cfg.seed)
    rep = protocol.bell_report(tally, cfg.bootstrap, cfg.seed)
    results = _bell_results(rep)
    if cfg.lhv_model.is_deterministic():
        results["s_from_cells"] = lhv.s_from_cells(lhv.cells_from_model(cfg.lhv_model))
    return results, _verdict_sampled(rep.s, rep.se_s)


def _run_lhv_max(cfg: ScenarioConfig) -> tuple[dict, str]:
    max_s, witness = lhv.max_abs_s_deterministic()
    rng = np.random.default_rng(cfg.seed)
    random_max = 0.0
    for _ in range(cfg.samples):
        w = lhv.CellWeights(rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2))
        random_max = max(random_max, abs(lhv.s_from_cells(w)))
    results = {
        "max_abs_s": max_s,
        "witness_cell": list(witness),
        "random_samples": cfg.samples,
        "random_max_abs_s": random_max,
    }
    return results, "classical bound"


def _random_response_model(rng: np.random.Generator) -> lhv.ResponseModel:
    n = int(rng.integers(1, 6))
    weights = rng.dirichlet(np.ones(n))
    vals = rng.uniform(-1.0, 1.0, size=(4, n))
    return lhv.ResponseModel(weights, vals[0], vals[1], vals[2], vals[3])


def _run_lhv_indet(cfg: ScenarioConfig) -> tuple[dict, str]:
    if cfg.response_model is not None:
        return {"s": lhv.s_indeterministic(cfg.response_model)}, "classical bound"
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(cfg.samples):
        worst = max(worst, abs(lhv.s_indeterministic(_random_response_model(rng))))
    return {"random_samples": cfg.samples, "max_abs_s": worst}, "classical bound"


def _run_loophole(cfg: ScenarioConfig) -> tuple[dict, str]:
    w = cfg.trit_weights if cfg.trit_weights else lhv.loophole_max_example()
    s, e, retained = lhv.s_with_discards(w)
    results = {
        "s": s,
        "e": _e_dict(e),
        "retained": _e_dict(retained),
        "note": "classical trit model with per-basis discards; a value above 2 "
                "exposes the discard loophole, not nonclassical resources",
    }
    return results, _verdict_exact(s)


def _run_swap(cfg: ScenarioConfig) -> tuple[dict, str]:
    if cfg.sweep_grid is not None:
        rows = swap.depolarizing_sweep(cfg.sweep_grid)
        best = max(abs(s) for _, s in rows)
        results = {"sweep": [{"p": p, "s_exact": s} for p, s in rows]}
        return results, _verdict_exact(best)
    swap_cfg = swap.SwapConfig(
        n_trials=cfg.trials, noise=cfg.noise, seed=cfg.seed, order=cfg.order
    )
    joints = {order: swap.joint_distribution(cfg.noise, order) for order in swap.ORDERS}
    tally = swap.run_swap(swap_cfg, joints[cfg.order])
    rep = protocol.bell_report(tally, cfg.bootstrap, cfg.seed)
    results = _bell_results(rep)
    table, rates = swap.exact_postselected_swap(joints["parties-first"])
    results["exact_s"] = protocol.table_s(table)
    results["selection_rates"] = _e_dict(rates)
    results["order_invariance_gap"] = swap.order_invariance(*joints.values())
    return results, _verdict_sampled(rep.s, rep.se_s)


def _run_check_independence(cfg: ScenarioConfig) -> tuple[dict, str]:
    alice, bob = cfg.schemes if cfg.schemes else protocol.canonical_schemes()
    results = {}
    all_pass = True
    for name, scheme in (("alice", alice), ("bob", bob)):
        distance, ok = protocol.check_basis_independence(scheme, cfg.tol)
        results[name] = {"distance": distance, "pass": ok}
        all_pass = all_pass and ok
    results["tol"] = cfg.tol
    return results, "condition satisfied" if all_pass else "condition violated"


_RUNNERS = {
    "quantum-exact": _run_quantum_exact,
    "quantum-mc": _run_quantum_mc,
    "lhv-mc": _run_lhv_mc,
    "lhv-max": _run_lhv_max,
    "lhv-indet": _run_lhv_indet,
    "loophole": _run_loophole,
    "swap": _run_swap,
    "check-independence": _run_check_independence,
}


def run(cfg: ScenarioConfig) -> dict:
    """Execute a validated scenario and return the report document."""
    start = time.perf_counter()
    results, verdict = _RUNNERS[cfg.mode](cfg)
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": f"bellpost {__version__}",
        "mode": cfg.mode,
        "seed": cfg.seed,
        "config": _echo_config(cfg),
        "results": results,
        "verdict": verdict,
        "duration_s": time.perf_counter() - start,
    }


def _round_floats(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def render_report(report: dict) -> str:
    """Serialize a report with 12-significant-digit floats; stable byte-for-byte."""
    return json.dumps(_round_floats(report), indent=2) + "\n"


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def render_csv(report: dict) -> str:
    """CSV companion table; available for modes that produce one."""
    results = report["results"]
    if "sweep" in results:
        lines = ["p,S_exact"]
        lines += [f"{_fmt(row['p'])},{_fmt(row['s_exact'])}" for row in results["sweep"]]
        return "\n".join(lines) + "\n"
    if "e" in results:
        se = results.get("se_e")
        lines = ["a,b,E,se"]
        for a in (0, 1):
            for b in (0, 1):
                se_txt = _fmt(se[f"{a}{b}"]) if isinstance(se, dict) else ""
                lines.append(f"{a},{b},{_fmt(results['e'][f'{a}{b}'])},{se_txt}")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"mode {report['mode']} produces no CSV table")


def _read_config_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellpost",
        description="Post-selected three-party CHSH task: quantum strategies, "
                    "classical bounds, and the detection loophole.",
    )
    sub = parser.add_subparsers(dest="mode", required=True, metavar="MODE")
    helps = {
        "quantum-exact": "closed-form post-selected statistics of a scheme pair",
        "quantum-mc": "seeded Monte Carlo of the quantum task",
        "lhv-mc": "seeded Monte Carlo of a local-hidden-variable model",
        "lhv-max": "enumerate deterministic strategies (classical bound)",
        "lhv-indet": "indeterministic response-model bound",
        "loophole": "trit-valued discard variant (detection loophole)",
        "swap": "entanglement-swapping realization (add --grid for a sweep)",
        "check-independence": "trace distance between basis ensembles",
    }
    for mode in MODES:
        p = sub.add_parser(mode, help=helps[mode])
        p.add_argument("--config", metavar="PATH", help="JSON config document ('-' for stdin)")
        p.add_argument("--trials", type=int, help="override trial count")
        p.add_argument("--seed", type=int, help="override master seed")
        p.add_argument("--bootstrap", type=int, help="override bootstrap resample count")
        p.add_argument("--out", metavar="PATH", help="also write the stdout artifact to PATH")
        p.add_argument("--csv", metavar="PATH", help="also write the CSV table to PATH")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="stdout artifact format (default json)")
        if mode == "swap":
            p.add_argument("--grid", metavar="P0,P1,...",
                           help="depolarizing sweep grid; emits (p, S_exact) rows")
        if mode == "check-independence":
            p.add_argument("--tol", type=float, help="override pass tolerance")
    return parser


def _error_report(exc: Exception) -> str:
    return render_report({"error": {"type": type(exc).__name__, "message": str(exc)}})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = _read_config_text(args.config) if args.config else "{}"
        doc = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        if "mode" in doc and doc["mode"] != args.mode:
            raise ConfigError(
                f"mode: config says {doc['mode']!r} but the {args.mode!r} subcommand was invoked"
            )
        doc["mode"] = args.mode
        for flag in ("trials", "seed", "bootstrap"):
            if getattr(args, flag, None) is not None:
                doc[flag] = getattr(args, flag)
        if getattr(args, "tol", None) is not None:
            doc["tol"] = args.tol
        if getattr(args, "grid", None) is not None:
            try:
                doc["sweep"] = {"grid": [float(v) for v in args.grid.split(",")]}
            except ValueError as exc:
                raise ConfigError(f"--grid: expected comma-separated numbers: {exc}") from exc
        cfg = config_from_doc(doc)
        report = run(cfg)
        primary = render_report(report) if args.format == "json" else render_csv(report)
        csv_text = render_csv(report) if (args.csv or args.format == "csv") else None
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"config error: invalid JSON: {exc}\n")
        sys.stdout.write(_error_report(ConfigError(f"config is not valid JSON: {exc}")))
        return 2
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        sys.stdout.write(_error_report(exc))
        return 2
    except (protocol.EmptyCellError, lhv.AllDiscardedError, lhv.ZeroSelectionError) as exc:
        sys.stderr.write(f"undefined statistic: {exc}\n")
        sys.stdout.write(_error_report(exc))
        return 3
    except NumericsError as exc:
        sys.stderr.write(f"numerical violation: {exc}\n")
        sys.stdout.write(_error_report(exc))
        return 4
    sys.stdout.write(primary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(primary)
    if args.csv and csv_text is not None:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
