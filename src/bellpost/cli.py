"""Command-line front end.

One subcommand per scenario mode; an optional JSON config document (file path
or ``-`` for stdin) supplies the scenario, and flags override individual
fields.  Every run prints a deterministic report to stdout — identical config
and seed give byte-identical output.
Floats are rounded to 12 significant digits and then written as the shortest
repr of the rounded value (so 1e12 prints as ``1000000000000.0``); the CSV
table uses the same rounding, so the two artifacts always agree.

Exit codes: 0 success, 2 config error, 3 empty-cell / undefined statistic,
4 internal numerical violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, lhv, protocol, swap
from .qcore import EXACT_TOL, NumericsError

# Reports and config documents carry separate versions; a report echoes its
# config's.  CHANGES.md records what each report schema changed.
REPORT_SCHEMA_VERSION = 13
CONFIG_SCHEMA_VERSION = 1

# Margins for the task-completed verdict: a sampled run's violation p-value
# must be below the one-sided five-sigma normal tail, and an exact run must
# clear the classical bound by 1e-9.
_P_THRESHOLD = 0.5 * math.erfc(5.0 / math.sqrt(2.0))
_EXACT_MARGIN = 1e-9


class ConfigError(Exception):
    """The config document (or a flag) failed validation."""


def _number(v, path: str) -> float:
    """A finite float from a config number; bools and non-numbers are errors."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(v).__name__}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{path}: non-finite number {x!r} is not allowed")
    return x


def _list(v, length: int | None, path: str) -> list:
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected a list, got {type(v).__name__}")
    if length is not None and len(v) != length:
        raise ConfigError(f"{path}: expected {length} entries, got {len(v)}")
    return v


def _numbers(v, length: int | None, path: str) -> list[float]:
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(_list(v, length, path))]


def _object(obj, required, optional, path: str) -> dict:
    """``obj`` as an object with every required key and no key outside required + optional."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"missing field(s) for {path}: {missing}")
    unknown = sorted(str(k) for k in obj if k not in required and k not in optional)
    if unknown:
        raise ConfigError(f"unknown field(s) for {path}: {unknown}")
    return obj


def _integer(lo: int, hi: int | None = None):
    """Parser of an integer in [lo, hi]; no upper bound when hi is None."""

    def parse(v, path: str) -> int:
        if isinstance(v, bool) or not isinstance(v, int) or v < lo:
            raise ConfigError(f"{path}: expected an integer >= {lo}, got {v!r}")
        if hi is not None and v > hi:
            raise ConfigError(f"{path}: expected an integer <= {hi}, got {v!r}")
        return v

    return parse


def _scheme(obj, path: str) -> protocol.PreparationScheme:
    _object(obj, ("basis0", "basis1"), (), path)
    angles, priors = [], []
    for a in (0, 1):
        bpath = f"{path}.basis{a}"
        basis = _object(obj[f"basis{a}"], ("angles",), ("priors",), bpath)
        angles.append(_numbers(basis["angles"], 2, f"{bpath}.angles"))
        row = _numbers(basis.get("priors", [0.5, 0.5]), 2, f"{bpath}.priors")
        if any(p < 0.0 for p in row) or abs(sum(row) - 1.0) > EXACT_TOL:
            raise ConfigError(f"{bpath}.priors: must be nonnegative and sum to 1, got {row}")
        priors.append(row)
    return protocol.PreparationScheme(angles, priors)


def _schemes(obj, path: str) -> tuple[protocol.PreparationScheme, protocol.PreparationScheme]:
    _object(obj, ("alice", "bob"), (), path)
    return _scheme(obj["alice"], f"{path}.alice"), _scheme(obj["bob"], f"{path}.bob")


def _schemes_echo(schemes) -> dict:
    return {
        name: {
            f"basis{a}": {"angles": s.angles[a].tolist(), "priors": s.priors[a].tolist()}
            for a in (0, 1)
        }
        for name, s in zip(("alice", "bob"), schemes)
    }


_LHV_DISTS = ("lambda", "lambda_prime")
_LHV_TABLES = ("response_a", "response_b", "select")


def _lhv_model(obj, path: str) -> lhv.LhvSimModel:
    _object(obj, _LHV_DISTS + _LHV_TABLES, (), path)
    kwargs = {}
    for name in _LHV_DISTS:
        dist = _object(obj[name], ("values", "probs"), (), f"{path}.{name}")
        for k in ("values", "probs"):
            kwargs[f"{name}_{k}"] = _numbers(dist[k], None, f"{path}.{name}.{k}")
    for name in _LHV_TABLES:
        rows = _list(obj[name], None, f"{path}.{name}")
        kwargs[name] = [_numbers(r, None, f"{path}.{name}[{i}]") for i, r in enumerate(rows)]
    return lhv.LhvSimModel(**kwargs)


def _lhv_model_echo(m: lhv.LhvSimModel) -> dict:
    echo = {
        name: {k: getattr(m, f"{name}_{k}").tolist() for k in ("values", "probs")}
        for name in _LHV_DISTS
    }
    echo.update((name, getattr(m, name).tolist()) for name in _LHV_TABLES)
    return echo


_ATOM_KEYS = ("weight", "f0", "f1", "g0", "g1")


def _response_model(obj, path: str) -> lhv.ResponseModel:
    atoms = _list(_object(obj, ("atoms",), (), path)["atoms"], None, f"{path}.atoms")
    if not atoms:
        raise ConfigError(f"{path}.atoms: expected a nonempty list")
    rows = []
    for i, atom in enumerate(atoms):
        apath = f"{path}.atoms[{i}]"
        _object(atom, _ATOM_KEYS, (), apath)
        rows.append([_number(atom[k], f"{apath}.{k}") for k in _ATOM_KEYS])
    return lhv.ResponseModel(*np.array(rows).T)


def _response_model_echo(m: lhv.ResponseModel | None) -> dict | None:
    if m is None:
        return None
    atoms = zip(m.weights, m.f0, m.f1, m.g0, m.g1)
    return {"atoms": [dict(zip(_ATOM_KEYS, atom)) for atom in atoms]}


def _trit_weights(v, path: str) -> lhv.TritCellWeights:
    return lhv.TritCellWeights(np.reshape(_numbers(v, 81, path), (3, 3, 3, 3)))


_NOISE_KEYS = tuple(f.name for f in dataclasses.fields(swap.NoiseParams))


def _noise(obj, path: str) -> swap.NoiseParams:
    _object(obj, (), _NOISE_KEYS, path)
    return swap.NoiseParams(**{k: _number(v, f"{path}.{k}") for k, v in obj.items()})


def _order(v, path: str) -> str:
    if v not in swap.ORDERS:
        raise ConfigError(f"{path}: expected one of {swap.ORDERS}, got {v!r}")
    return v


def _sweep(obj, path: str) -> dict:
    # Each grid point is one rendered report row, so the cap bounds the report.
    points = _list(_object(obj, ("grid",), (), path)["grid"], None, f"{path}.grid")
    if len(points) > 10**4:
        raise ConfigError(f"{path}.grid: expected at most {10**4} points, got {len(points)}")
    grid = _numbers(points, None, f"{path}.grid")
    if not grid:
        raise ConfigError(f"{path}.grid: grid must be nonempty")
    if any(not 0.0 <= p <= 1.0 for p in grid):
        raise ConfigError(f"{path}.grid: values must lie in [0, 1], got {grid}")
    return {"grid": grid}


def _grid_flag(text: str) -> dict:
    """The ``--grid`` value, comma-separated numbers, as a ``sweep`` object."""
    try:
        return {"grid": [float(v) for v in text.split(",")]}
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {exc}") from exc


def _tol(v, path: str) -> float:
    # Below EXACT_TOL a tolerance would judge rounding: the exactly
    # independent canonical schemes have distances of a few 1e-17.
    tol = _number(v, path)
    if tol < EXACT_TOL:
        raise ConfigError(f"{path}: expected a finite number >= {EXACT_TOL:g}, got {tol!r}")
    return tol


def _e_dict(e: np.ndarray) -> dict:
    return {f"{a}{b}": float(e[a, b]) for a in (0, 1) for b in (0, 1)}


def _verdict_exact(s: float) -> str:
    return "task completed" if abs(s) > 2.0 + _EXACT_MARGIN else "no violation"


def _verdict_sampled(rep: protocol.BellReport) -> str:
    return "task completed" if rep.p_value < _P_THRESHOLD else "no violation"


def _sampled(
    cfg: SimpleNamespace, law: np.ndarray, exact_law: np.ndarray | None = None
) -> tuple[dict, str, np.ndarray]:
    """A sampled run of the announced law W[a, b, x, y]: results, verdict and exact rates.

    ``exact_law`` (by default ``law``) is post-selected first, so an empty
    basis pair raises EmptyCellError before any trial is drawn; then
    ``cfg.trials`` trials of ``law`` are sampled.  The results are the Bell
    statistics, then the exact table's S.
    """
    exact_table, rates = protocol.postselect(law if exact_law is None else exact_law)
    rep = protocol.bell_report(protocol.sample_tally(cfg.seed, cfg.trials, law))
    results = {
        "e": _e_dict(rep.e),
        "se_e": _e_dict(rep.se_e),
        "s": rep.s,
        "se_s": rep.se_s,
        "p_value": rep.p_value,
        "n_total": rep.n_total,
        "n_selected": rep.n_selected,
        "selection_rate": rep.n_selected / rep.n_total,
        "exact_s": protocol.table_s(exact_table),
    }
    return results, _verdict_sampled(rep), rates


def _no_signaling_gap(table: protocol.CondProbTable) -> float:
    p = table.probs
    alice = np.abs(p.sum(axis=3)[:, 0, :] - p.sum(axis=3)[:, 1, :]).max()
    bob = np.abs(p.sum(axis=2)[0, :, :] - p.sum(axis=2)[1, :, :]).max()
    return float(max(alice, bob))


def _run_quantum_exact(cfg: SimpleNamespace) -> tuple[dict, str]:
    alice, bob = cfg.schemes
    table, rates = protocol.exact_postselected(alice, bob)
    e = protocol.correlations(table)
    s = protocol.bell_s(*e.ravel())
    results = {
        "e": _e_dict(e),
        "s": s,
        "selection_rates": _e_dict(rates),
        "selection_rate_spread": float(rates.max() - rates.min()),
        "no_signaling_gap": _no_signaling_gap(table),
        "conditional_probs": table.probs.tolist(),
    }
    if cfg.schemes is protocol.canonical_schemes():
        # Default canonical run: also evaluate the variant with Bob's basis-1
        # state labels exchanged, which drops the CHSH value to 0.
        results["s_bob_labels_swapped"] = protocol.exact_s(*protocol.bob_labels_swapped())
    return results, _verdict_exact(s)


def _run_quantum_mc(cfg: SimpleNamespace) -> tuple[dict, str]:
    results, verdict, _ = _sampled(cfg, protocol.announced_weights(*cfg.schemes))
    return results, verdict


def _run_lhv_mc(cfg: SimpleNamespace) -> tuple[dict, str]:
    results, verdict, _ = _sampled(cfg, lhv.announced_weights(cfg.lhv_model))
    if cfg.lhv_model.is_deterministic():
        results["s_from_cells"] = lhv.s_from_cells(lhv.cells_from_model(cfg.lhv_model))
    return results, verdict


def _run_lhv_max(cfg: SimpleNamespace) -> tuple[dict, str]:
    max_s, witness = lhv.max_abs_s_deterministic()
    random_max = lhv.random_max_abs_s(np.random.default_rng(cfg.seed), cfg.samples)
    results = {
        "max_abs_s": max_s,
        "witness_cell": list(witness),
        "random_samples": cfg.samples,
        "random_max_abs_s": random_max,
    }
    return results, "classical bound"


def _run_lhv_indet(cfg: SimpleNamespace) -> tuple[dict, str]:
    if cfg.response_model is not None:
        return {"s": lhv.s_indeterministic(cfg.response_model)}, "classical bound"
    worst = lhv.random_max_abs_s_indeterministic(np.random.default_rng(cfg.seed), cfg.samples)
    return {"random_samples": cfg.samples, "max_abs_s": worst}, "classical bound"


def _run_loophole(cfg: SimpleNamespace) -> tuple[dict, str]:
    s, e, retained = lhv.s_with_discards(cfg.trit_weights)
    results = {
        "s": s,
        "e": _e_dict(e),
        "retained": _e_dict(retained),
        "note": "classical trit model with per-basis discards; a value above 2 "
                "exposes the discard loophole, not nonclassical resources",
    }
    return results, _verdict_exact(s)


def _run_swap(cfg: SimpleNamespace) -> tuple[dict, str]:
    if cfg.sweep is not None:
        rows = swap.depolarizing_sweep(cfg.sweep["grid"])
        best = max(abs(s) for _, s in rows)
        results = {"sweep": [{"p": p, "s_exact": s} for p, s in rows]}
        return results, _verdict_exact(best)
    joints = {order: swap.joint_distribution(cfg.noise, order) for order in swap.ORDERS}
    results, verdict, rates = _sampled(cfg, joints[cfg.order], joints["parties-first"])
    results["selection_rates"] = _e_dict(rates)
    results["order_invariance_gap"] = swap.order_invariance(*joints.values())
    return results, verdict


def _run_check_independence(cfg: SimpleNamespace) -> tuple[dict, str]:
    alice, bob = cfg.schemes
    results = {}
    all_pass = True
    for name, scheme in (("alice", alice), ("bob", bob)):
        distance, ok = protocol.check_basis_independence(scheme, cfg.tol)
        results[name] = {"distance": distance, "pass": ok}
        all_pass = all_pass and ok
    results["tol"] = cfg.tol
    return results, "condition satisfied" if all_pass else "condition violated"


class _Mode(NamedTuple):
    """A mode's runner, which returns (results, verdict), and its help line."""

    run: Callable
    help: str


# Every mode, in the order the help text lists them.
_MODES = {
    "quantum-exact": _Mode(
        _run_quantum_exact, "closed-form post-selected statistics of a scheme pair"
    ),
    "quantum-mc": _Mode(_run_quantum_mc, "seeded Monte Carlo of the quantum task"),
    "lhv-mc": _Mode(_run_lhv_mc, "seeded Monte Carlo of a local-hidden-variable model"),
    "lhv-max": _Mode(_run_lhv_max, "enumerate deterministic strategies (classical bound)"),
    "lhv-indet": _Mode(_run_lhv_indet, "indeterministic response-model bound"),
    "loophole": _Mode(_run_loophole, "trit-valued discard variant (detection loophole)"),
    "swap": _Mode(_run_swap, "entanglement-swapping realization (add --grid for a sweep)"),
    "check-independence": _Mode(
        _run_check_independence, "trace distance between basis ensembles"
    ),
}
MODES = tuple(_MODES)


_REQUIRED = object()


class _Field(NamedTuple):
    """One config field.

    ``defaults`` maps each mode that accepts the field to the value it takes
    when the document leaves it out, or to ``_REQUIRED``.  ``parse(value,
    path)`` validates the document's value; ``echo(value)`` renders the
    resolved value for the report, and a None echo leaves the field out.
    ``flag``, when set, is the option string and the ``add_argument``
    keywords of the command-line flag that overrides the field.
    """

    key: str
    defaults: dict
    parse: Callable
    echo: Callable = lambda value: value
    flag: tuple[str, dict] | None = None


# Every config field, in the order the report echoes them.
_FIELDS = (
    _Field("seed", dict.fromkeys(MODES, 0), _integer(0, 2**64 - 1),
           flag=("--seed", {"type": int, "help": "override master seed"})),
    _Field("trials", dict.fromkeys(("quantum-mc", "lhv-mc", "swap"), 1_000_000),
           _integer(1, 10**10), flag=("--trials", {"type": int, "help": "override trial count"})),
    # Absent schemes are the canonical pair itself; quantum-exact then also
    # reports the pair with Bob's basis-1 labels exchanged.
    _Field("schemes",
           dict.fromkeys(("quantum-exact", "quantum-mc", "check-independence"),
                         protocol.canonical_schemes()),
           _schemes, _schemes_echo),
    _Field("lhv_model", {"lhv-mc": _REQUIRED}, _lhv_model, _lhv_model_echo),
    _Field("response_model", {"lhv-indet": None}, _response_model, _response_model_echo),
    _Field("samples", {"lhv-max": 10_000, "lhv-indet": 1_000}, _integer(1, 10**6)),
    _Field("trit_weights", {"loophole": lhv.loophole_max_example()}, _trit_weights,
           lambda w: w.w.ravel().tolist()),
    _Field("noise", {"swap": swap.NoiseParams()}, _noise, dataclasses.asdict),
    _Field("order", {"swap": "parties-first"}, _order),
    _Field("sweep", {"swap": None}, _sweep,
           flag=("--grid", {"type": _grid_flag, "metavar": "P0,P1,...",
                            "help": "depolarizing sweep grid; emits (p, S_exact) rows"})),
    _Field("tol", {"check-independence": 1e-12}, _tol,
           flag=("--tol", {"type": float, "help": "override pass tolerance"})),
)


def config_from_doc(doc) -> SimpleNamespace:
    """Validate a decoded config document into a namespace.

    The namespace holds ``mode`` and, under its key, every field the mode
    accepts, defaults included.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    version = doc.get("schema_version", CONFIG_SCHEMA_VERSION)
    if type(version) is not int or version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: only version {CONFIG_SCHEMA_VERSION} is supported, got {version!r}"
        )
    mode = doc.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode: unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    fields = [f for f in _FIELDS if mode in f.defaults]
    _object(doc, (), ["schema_version", "mode"] + [f.key for f in fields], f"mode {mode}")
    values = {}
    for f in fields:
        if f.key in doc:
            try:
                value = f.parse(doc[f.key], f.key)
            except ValueError as exc:  # a model's own validation
                raise ConfigError(f"{f.key}: {exc}") from exc
        elif f.defaults[mode] is _REQUIRED:
            raise ConfigError(f"{f.key}: required for mode {mode}")
        else:
            value = f.defaults[mode]
        values[f.key] = value
    return SimpleNamespace(mode=mode, **values)


def _decode(text: str):
    """Decode a JSON config document; malformed JSON is a ConfigError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _echo_config(cfg: SimpleNamespace) -> dict:
    echo: dict = {"schema_version": CONFIG_SCHEMA_VERSION, "mode": cfg.mode}
    for f in _FIELDS:
        if cfg.mode in f.defaults:
            value = f.echo(getattr(cfg, f.key))
            if value is not None:
                echo[f.key] = value
    return echo


def run(cfg: SimpleNamespace) -> dict:
    """Execute a validated scenario and return the report document."""
    results, verdict = _MODES[cfg.mode].run(cfg)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "artifact": f"bellpost {__version__}",
        "mode": cfg.mode,
        "seed": cfg.seed,
        "config": _echo_config(cfg),
        "results": results,
        "verdict": verdict,
    }


def _float_text(x: float) -> str:
    """``x`` rounded to 12 significant digits, as the shortest repr of the rounded value.

    Fixed-point ``%.12g`` text already is that repr once it carries a ``.``:
    a decimal of at most 12 digits is the shortest text of the nearest float.
    Exponent text differs from repr between 1e12 and 1e16, so it, like
    ``inf`` and ``nan``, is parsed back.
    """
    text = f"{x:.12g}"
    if "e" in text or "n" in text:
        x = float(text)
        if not math.isfinite(x):
            raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
        return float.__repr__(x)
    return text if "." in text else text + ".0"


def _render(obj, indent: str) -> str:
    """``obj`` as the JSON text ``json.dumps(..., indent=2)`` writes, floats rounded.

    ``indent`` is the current line's indentation; object keys are strings.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_render(v, inner)}" for k, v in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_render(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def render_report(report: dict) -> str:
    """Serialize a report as strict JSON with 12-significant-digit floats.

    The rendering is stable byte-for-byte; a non-finite number anywhere in the
    report is a NumericsError, since strict JSON has no NaN or infinity.
    """
    try:
        return _render(report, "") + "\n"
    except ValueError as exc:
        raise NumericsError(f"report is not strict JSON: {exc}") from exc


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
                se_txt = _fmt(se[f"{a}{b}"]) if se else ""
                lines.append(f"{a},{b},{_fmt(results['e'][f'{a}{b}'])},{se_txt}")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"mode {report['mode']} produces no CSV table")


def _read_config_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


class _HelpRequested(Exception):
    """``-h``/``--help`` was given; the message is the parser's help text."""


class _HelpFormatter(argparse.HelpFormatter):
    """Help wrapped at 78 columns whatever the terminal, so its bytes never vary.

    argparse otherwise wraps to the ``COLUMNS`` width; 78 is what it uses
    when neither ``COLUMNS`` nor a terminal gives one.
    """

    def __init__(self, prog):
        super().__init__(prog, width=78)


class _ArgumentParser(argparse.ArgumentParser):
    """Argument parser whose help and usage errors are reported as JSON.

    Usage errors are config errors (exit 2); the help text goes out inside a
    JSON document (exit 0), so stdout stays strict JSON for every argv.  The
    parser and every subparser wrap their help at one fixed width.
    """

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_HelpFormatter, **kwargs)

    def error(self, message):
        raise ConfigError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one."""
    parser = _ArgumentParser(
        prog="bellpost",
        description="Post-selected three-party CHSH task: quantum strategies, "
                    "classical bounds, and the detection loophole.",
    )
    sub = parser.add_subparsers(dest="mode", required=True, metavar="MODE")
    for mode, spec in _MODES.items():
        p = sub.add_parser(mode, help=spec.help)
        p.add_argument("--config", metavar="PATH", help="JSON config document ('-' for stdin)")
        for f in _FIELDS:
            if f.flag and mode in f.defaults:
                name, kwargs = f.flag
                p.add_argument(name, dest=f.key, **kwargs)
        p.add_argument("--out", metavar="PATH", help="also write the stdout artifact to PATH")
        p.add_argument("--csv", metavar="PATH", help="also write the CSV table to PATH")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="stdout artifact format (default json)")
    return parser


def _error_report(exc: Exception) -> str:
    return render_report({"error": {"type": type(exc).__name__, "message": str(exc)}})


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        doc = _decode(_read_config_text(args.config)) if args.config else {}
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        if "mode" in doc and doc["mode"] != args.mode:
            raise ConfigError(
                f"mode: config says {doc['mode']!r} but the {args.mode!r} subcommand was invoked"
            )
        doc["mode"] = args.mode
        for f in _FIELDS:
            if getattr(args, f.key, None) is not None:
                doc[f.key] = getattr(args, f.key)
        cfg = config_from_doc(doc)
        report = run(cfg)
        primary = render_report(report) if args.format == "json" else render_csv(report)
        side_files = [(args.out, primary)] if args.out else []
        if args.csv:
            side_files.append((args.csv, render_csv(report)))
        for path, text in side_files:
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    except _HelpRequested as exc:
        sys.stdout.write(render_report({"help": str(exc)}))
        return 0
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        sys.stdout.write(_error_report(exc))
        return 2
    except protocol.EmptyCellError as exc:
        sys.stderr.write(f"undefined statistic: {exc}\n")
        sys.stdout.write(_error_report(exc))
        return 3
    except NumericsError as exc:
        sys.stderr.write(f"numerical violation: {exc}\n")
        sys.stdout.write(_error_report(exc))
        return 4
    sys.stdout.write(primary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
