"""Per-function call counts and times for the bellpost layers.

The tracer rebinds a public function's name in every bellpost module whose
namespace holds it (its defining module, for calls from inside that module,
and each module that imported it), so calls are counted wherever they come
from without editing the package.  Records stay in memory; ``uninstall``
restores the original bindings.

Self time is a call's duration minus the durations of the traced calls made
inside it.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Functions traced, named "<defining module>.<function>".
TARGETS = (
    "cli.config_from_doc",
    "cli.run",
    "cli.render_report",
    "cli.render_csv",
    "rng.trial_uniforms",
    "rng.trial_uniforms_block",
    "protocol.run_quantum_mc",
    "protocol.bell_report",
    "protocol.exact_postselected",
    "protocol.selection_probability_table",
    "protocol.check_basis_independence",
    "lhv.simulate_lhv",
    "lhv.s_from_cells",
    "lhv.s_indeterministic",
    "lhv.s_with_discards",
    "swap.run_swap",
    "swap.joint_distribution",
    "swap.exact_postselected_swap",
    "swap.order_invariance",
    "swap.depolarizing_sweep",
    "qcore.born_prob",
    "qcore.tensor",
    "qcore.trace_distance",
)

# Sampler entry points: their self time is the per-trial transform and count,
# i.e. their total minus the traced draws and exact tables they call.
SAMPLERS = ("protocol.run_quantum_mc", "lhv.simulate_lhv", "swap.run_swap")

# The innermost draw function; the arrays it returns are the trial tables.
DRAW = "rng.trial_uniforms_block"


class Tracer:
    def __init__(self) -> None:
        self.stats = {name: [0, 0.0, 0.0] for name in TARGETS}  # calls, total_s, self_s
        self.rows = 0
        self.table_bytes = 0
        self.largest_table_bytes = 0
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.rows = self.table_bytes = self.largest_table_bytes = 0

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("bellpost.")]
        for name in TARGETS:
            modname, func = name.split(".")
            original = getattr(sys.modules[f"bellpost.{modname}"], func, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, func, None) is original:
                    self._saved.append((module, func, original))
                    setattr(module, func, wrapper)

    def uninstall(self) -> None:
        for module, func, original in reversed(self._saved):
            setattr(module, func, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        is_draw = name == DRAW

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if is_draw:
                self.rows += result.shape[0]
                self.table_bytes += result.nbytes
                self.largest_table_bytes = max(self.largest_table_bytes, result.nbytes)
            return result

        return traced
