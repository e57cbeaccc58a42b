"""The bellpost benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload many-mc --seed 1 --seconds 12 --trace 0

Run from the repository root.  It times a fresh interpreter importing
``bellpost.cli`` (set-up), builds the workload's invocation plan from the
seed, and runs the plan in a fresh child process (``bench/worker.py``) that
calls the CLI in a closed loop with one client.  Every output is checked.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.  The
line before it records the environment, the report digest and the counts the
metrics rest on.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(ROOT, "bench", "worker.py")
SETUP_SAMPLES = 9
TIMEOUT_S = 170.0
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import bellpost.cli; "
    "print(time.perf_counter() - t)"
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(deadline: float) -> float:
    """Median time for a fresh interpreter to import bellpost.cli.

    One untimed import first writes the bytecode cache, as a user's first run would.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, env=_env(),
                             capture_output=True, text=True, check=True,
                             timeout=max(deadline - time.monotonic(), 1.0))
        if i:
            samples.append(float(out.stdout))
    return statistics.median(samples)


def run_worker(job: dict, deadline: float) -> dict:
    proc = subprocess.Popen([sys.executable, WORKER], cwd=ROOT, env=_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S

    if not os.path.isfile(os.path.join(SRC, "bellpost", "cli.py")):
        sys.stderr.write(f"bench: no bellpost sources under {SRC}\n")
        return 1
    try:
        setup_s = None if args.trace else setup_seconds(deadline)
        job = {**workloads.build(args.workload, args.seed), "seconds": args.seconds,
               "trace": args.trace}
        result = run_worker(job, deadline)
    except (OSError, RuntimeError, ValueError, IndexError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"bench: {type(exc).__name__}: {exc}\n")
        return 1

    info = result.pop("info")
    if setup_s is not None:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
