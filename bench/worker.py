"""Workload child process: one client calling ``bellpost.cli.main`` in a closed loop.

Reads a job ``{"plan", "probes", "seconds", "trace"}`` as JSON on stdin.  It
runs one untimed warm-up invocation per mode, then repeats the whole plan
(one pass) until ``seconds`` have elapsed, checks every output, and prints one
JSON object with its metrics as the last line of stdout.  With ``trace`` set,
untraced and traced passes alternate: the traced ones give the per-layer
metrics and the untraced ones the base of the tracing overhead.

Run by ``bench/run.py`` with ``src`` on PYTHONPATH; not meant to be run alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

from bellpost import cli, rng
from tracing import SAMPLERS, TARGETS, Tracer

TOL = 1e-9
SIGMAS = 5.0
SAMPLED_MODES = ("quantum-mc", "lhv-mc", "swap")
JOINT = "swap.joint_distribution"
PHILOX_CHUNK = 1 << 20


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def invoke(inv: dict) -> tuple[int, float, str]:
    """One CLI call with captured stdio: (exit code, seconds, stdout)."""
    sys.stdin = io.StringIO(inv["config"] or "")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(inv["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # An uncaught exception would end the real CLI with a traceback and exit 1.
            traceback.print_exc()
            code = 1
        elapsed = perf_counter() - start
    sys.stdin = sys.__stdin__
    return code, elapsed, out.getvalue()


def _close(value, expected, what: str) -> None:
    if not abs(value - expected) <= TOL:
        raise ValueError(f"{what} = {value!r}, expected {expected!r}")


def check(inv: dict, code: int, doc) -> None:
    """Raise ValueError naming the first way this output is wrong."""
    if code != inv["exit"]:
        raise ValueError(f"exit code {code}, expected {inv['exit']}")
    c = inv["check"]
    if c["kind"] == "rejected":
        if doc["error"]["type"] != "ConfigError":
            raise ValueError(f"error type {doc['error']['type']!r}, expected ConfigError")
        return
    r = doc["results"]
    if c["kind"] == "sampled":
        if r["n_total"] != inv["draws"]:
            raise ValueError(f"n_total {r['n_total']} != trials {inv['draws']}")
        se = max(r["se_s"], c["se"])
        if not abs(r["s"] - c["s"]) <= SIGMAS * se:
            raise ValueError(f"S = {r['s']!r} is over {SIGMAS} x {se!r} from {c['s']!r}")
        for key in c["match"]:
            _close(r[key], c["s"], key)
    elif c["kind"] == "exact":
        _close(r["s"], c["s"], "S")
        for ab, rate in c.get("rates", {}).items():
            _close(r["selection_rates"][ab], rate, f"selection rate {ab}")
    elif c["kind"] == "independence":
        for party in ("alice", "bob"):
            _close(r[party]["distance"], c[party], f"{party} distance")
            if r[party]["pass"] != (c[party] <= c["tol"]):
                raise ValueError(f"{party} pass flag {r[party]['pass']}")
    elif c["kind"] == "sweep":
        if len(r["sweep"]) != len(c["rows"]):
            raise ValueError("sweep row count")
        for row, (p, s) in zip(r["sweep"], c["rows"]):
            _close(row["p"], p, "sweep p")
            _close(row["s_exact"], s, f"S_exact at p = {p}")
    elif c["kind"] == "lhv-max":
        _close(r["max_abs_s"], 2.0, "max |S| over deterministic strategies")
        if r["random_max_abs_s"] > 2.0 + TOL or r["random_samples"] != inv["draws"]:
            raise ValueError("random sweep exceeds the classical bound or sample count")
    elif c["kind"] == "indet-sweep":
        if r["max_abs_s"] > 2.0 + TOL or r["random_samples"] != inv["draws"]:
            raise ValueError("random sweep exceeds the classical bound or sample count")


def evaluate(inv: dict, code: int, text: str) -> tuple[str | None, str, dict | None]:
    """(failure reason or None, digest line, parsed report) for one invocation."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}", f"{code}\n{text}", None
    if isinstance(doc, dict):
        doc.pop("duration_s", None)
    line = f"{code}\n{json.dumps(doc, sort_keys=True)}"
    try:
        check(inv, code, doc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}", line, doc
    return None, line, doc


def outcome(inv: dict) -> str | None:
    """Run one invocation untimed; the failure reason, or None."""
    code, _, text = invoke(inv)
    return evaluate(inv, code, text)[0]


class Pass:
    """One timed pass over the plan, its outputs checked and digested."""

    def __init__(self, plan: list, tracer: Tracer | None) -> None:
        joint = tracer.stats[JOINT] if tracer else [0]
        outputs, joint_calls = [], []
        start = perf_counter()
        for inv in plan:
            before = joint[0]
            outputs.append(invoke(inv))
            joint_calls.append(joint[0] - before)
        self.wall_s = perf_counter() - start
        self.latencies = [elapsed for _, elapsed, _ in outputs]
        self.failures = []
        self.selected = {m: [0, 0] for m in SAMPLED_MODES}
        self.draws, self.draw_time = 0, 0.0
        self.joint_per_run = [0, 0]
        digest = hashlib.sha256()
        for inv, (code, elapsed, text), joints in zip(plan, outputs, joint_calls):
            reason, line, doc = evaluate(inv, code, text)
            digest.update(line.encode())
            if reason:
                self.failures.append(f"{' '.join(inv['argv'])}: {reason}")
                continue
            if inv["draws"]:
                self.draws += inv["draws"]
                self.draw_time += elapsed
            if inv["check"]["kind"] == "sampled":
                self.selected[inv["mode"]][0] += doc["results"]["n_selected"]
                self.selected[inv["mode"]][1] += doc["results"]["n_total"]
            if code == 0 and inv["mode"] == "swap":
                self.joint_per_run[0] += joints
                self.joint_per_run[1] += 1
        self.digest = digest.hexdigest()
        if tracer:
            self.layers = {name: list(stat) for name, stat in tracer.stats.items()}
            self.rows = tracer.rows
            self.table_bytes = tracer.table_bytes
            self.largest_table_bytes = tracer.largest_table_bytes


def philox_reference(rows: int) -> float:
    """Seconds to draw rows * DRAWS_PER_TRIAL raw Philox words, in cache-sized chunks."""
    words = rows * rng.DRAWS_PER_TRIAL
    bitgen = np.random.Philox(key=0)
    start = perf_counter()
    while words > 0:
        bitgen.random_raw(min(words, PHILOX_CHUNK))
        words -= PHILOX_CHUNK
    return perf_counter() - start


def peak_rss_mb() -> float:
    # VmHWM is the high-water mark of this process's own address space.  The
    # kernel folds the parent's peak into ru_maxrss at exec, so ru_maxrss of a
    # child is at least its parent's peak; it is only the fallback here.
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas_threads": _openblas_threads(),
    }
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as fh:
            env["l3_cache"] = fh.read().strip()
    except OSError:
        env["l3_cache"] = "unknown"
    return env


def _openblas_threads():
    try:
        with open("/proc/self/maps", encoding="ascii") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _quantile(values: list, q: int) -> float:
    """The q-th percentile, by the exclusive method of statistics.quantiles."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(untraced: list) -> dict:
    latencies_ms = [t * 1e3 for p in untraced for t in p.latencies]
    draw_time = sum(p.draw_time for p in untraced)
    return {
        "wall_s": (statistics.median(p.wall_s for p in untraced), "s"),
        "call_p50_ms": (statistics.median(latencies_ms), "ms"),
        "call_p90_ms": (_quantile(latencies_ms, 90), "ms"),
        "trials_per_s": (sum(p.draws for p in untraced) / draw_time if draw_time else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(untraced: list, traced: list, attempted: int, failed: int, probes_failed: int,
              philox: list) -> dict:
    last = traced[-1]
    metrics = {}
    for name in TARGETS:
        metrics[f"{name}.calls"] = (last.layers[name][0], "count")
        metrics[f"{name}.total_s"] = (statistics.median(p.layers[name][1] for p in traced), "s")
        metrics[f"{name}.self_s"] = (statistics.median(p.layers[name][2] for p in traced), "s")
    metrics["sampler.derived_transform_count_s"] = (
        statistics.median(sum(p.layers[s][2] for s in SAMPLERS) for p in traced), "s")
    metrics["rng.rows"] = (last.rows, "count")
    metrics["rng.bytes"] = (last.table_bytes, "B")
    metrics["rng.largest_table_bytes"] = (last.largest_table_bytes, "B")
    metrics["rng.philox_raw_s"] = (statistics.median(philox), "s")
    for mode in SAMPLED_MODES:
        selected, total = last.selected[mode]
        metrics[f"sampler.{mode}.selected_frac"] = (selected / total if total else 0.0, "frac")
    joints, runs = last.joint_per_run
    metrics["swap.joint_per_run"] = (joints / runs if runs else 0.0, "calls/run")
    metrics["cli.invocations"] = (len(last.latencies), "count")
    metrics["cli.failed_frac"] = (failed / attempted, "frac")
    metrics["cli.nonfinite_accepted"] = (probes_failed, "count")
    metrics["trace_overhead_frac"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced) - 1.0, "frac")
    return metrics


def main() -> int:
    job = json.load(sys.stdin)
    plan, probes, trace = job["plan"], job["probes"], bool(job["trace"])
    tracer = Tracer() if trace else None

    # The first invocation of each mode, in plan order.  The peak RSS after each
    # is cumulative, so the first mode's figure is that mode's own peak.
    warm_up = {}
    for inv in plan:
        warm_up.setdefault(inv["mode"], inv)
    failures, warm_up_peak_mb = [], {}
    for mode, inv in warm_up.items():
        reason = outcome(inv)
        if reason:
            failures.append(f"warm-up {' '.join(inv['argv'])}: {reason}")
        warm_up_peak_mb[mode] = peak_rss_mb()
    attempted = len(warm_up)

    untraced, traced, philox = [], [], []
    min_passes = 4 if trace else 3
    deadline = perf_counter() + job["seconds"]
    while perf_counter() < deadline or len(untraced) + len(traced) < min_passes:
        if tracer and len(untraced) > len(traced):
            tracer.reset()
            tracer.install()
            try:
                traced.append(Pass(plan, tracer))
            finally:
                tracer.uninstall()
            philox.append(philox_reference(traced[-1].rows))
        else:
            untraced.append(Pass(plan, None))
    passes = untraced + traced
    attempted += sum(len(p.latencies) for p in passes)
    failures += [f for p in passes for f in p.failures]

    probes_failed = sum(1 for inv in probes if outcome(inv))

    digests = {p.digest for p in passes}
    failed = len(failures)
    if trace:
        metrics = per_layer(untraced, traced, attempted, failed, probes_failed, philox)
    else:
        metrics = end_to_end(untraced)
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {
            "environment": environment(),
            "report_digest": sorted(digests),
            "invocations_per_pass": len(plan),
            "untraced_passes": len(untraced),
            "traced_passes": len(traced),
            "latency_samples": sum(len(p.latencies) for p in untraced),
            "median_ms_by_mode": {
                mode: statistics.median(
                    t * 1e3 for p in untraced for inv, t in zip(plan, p.latencies)
                    if inv["mode"] == mode)
                for mode in sorted({inv["mode"] for inv in plan})},
            "warm_up_peak_rss_mb": warm_up_peak_mb,
            "nonfinite_probes_accepted": probes_failed,
            "failures": failures[:5],
        },
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
