"""In-memory span tracing of sfqctrl, installed from outside the package.

Every sfqctrl module imports its collaborators by name (``from .objective
import propagate``), so replacing ``sfqctrl.objective.propagate`` would never
reach the optimizer.  A Binding therefore names the *caller's* module global,
for example ``sfqctrl.trustregion.propagate``, and ``installed`` swaps each
one for a recording wrapper and puts every original back on exit, also when
the traced code raises.

A span is ``[name, start_ns, end_ns, parent, steps, flag]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``steps`` the length of the
pulse word the call worked on, ``flag`` a boolean read from the call's result
(whether a trust-region step was accepted).  Calls are sequential, so a
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LAYERS = ("cli", "driver", "trustregion", "adjoint", "objective", "model")


@dataclass(frozen=True)
class Binding:
    """One module global to wrap, and the span its calls record."""

    module: str
    attr: str
    span: str
    size_arg: int | None = None
    flag: Callable | None = None


def _step_accepted(result) -> bool:
    return bool(result[1].accepted)


BINDINGS = (
    Binding("sfqctrl.cli", "main", "cli.main"),
    Binding("sfqctrl.driver", "run_optimize", "driver.run_optimize"),
    Binding("sfqctrl.driver", "run_simulate", "driver.run_simulate"),
    Binding("sfqctrl.driver", "run_sweep", "driver.run_sweep"),
    Binding("sfqctrl.driver", "population_rows", "driver.population_rows"),
    Binding("sfqctrl.driver", "max_top_level_population", "driver.max_top_level_population"),
    Binding("sfqctrl.driver", "multi_restart", "trustregion.multi_restart"),
    Binding("sfqctrl.trustregion", "optimize", "trustregion.optimize"),
    Binding("sfqctrl.trustregion", "tr_step", "trustregion.tr_step", flag=_step_accepted),
    Binding("sfqctrl.trustregion", "solve_subproblem", "trustregion.subproblem"),
    Binding("sfqctrl.trustregion", "fused_sweep", "adjoint.sweep", size_arg=1),
    Binding("sfqctrl.trustregion", "propagate", "objective.propagate", size_arg=0),
    Binding("sfqctrl.trustregion", "infidelity", "objective.infidelity"),
    Binding("sfqctrl.trustregion", "leakage", "objective.leakage"),
    Binding("sfqctrl.driver", "propagate", "objective.propagate", size_arg=0),
    Binding("sfqctrl.driver", "infidelity", "objective.infidelity"),
    Binding("sfqctrl.driver", "leakage", "objective.leakage"),
    Binding("sfqctrl.driver", "precompute_propagators", "model.precompute"),
    Binding("sfqctrl.model", "precompute_propagators", "model.precompute"),
)


@contextlib.contextmanager
def patched(module: str, attr: str, make_wrapper: Callable[[Callable], Callable]):
    """Replace ``module.attr`` by ``make_wrapper(original)`` for the block's duration."""
    mod = importlib.import_module(module)
    original = getattr(mod, attr)
    setattr(mod, attr, make_wrapper(original))
    try:
        yield original
    finally:
        setattr(mod, attr, original)


class Tracer:
    """Collects spans in memory; ``installed`` activates it on every binding."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn: Callable, binding: Binding) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        name, size_arg, flag = binding.span, binding.size_arg, binding.flag

        def traced(*args, **kwargs):
            steps = len(args[size_arg]) if size_arg is not None and len(args) > size_arg else 0
            span = [name, 0, 0, stack[-1] if stack else -1, steps, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if flag is not None:
                span[5] = flag(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for b in BINDINGS:
                stack.enter_context(patched(b.module, b.attr, lambda fn, b=b: self.wrap(fn, b)))
            yield self

    def write_csv(self, path: Path, origin_ns: int) -> None:
        """Write the spans, times relative to origin_ns, one per line."""
        lines = ["id,parent,name,start_ns,end_ns,steps,flag"]
        lines.extend(
            f"{i},{parent},{name},{start - origin_ns},{end - origin_ns},{steps},{int(flag)}"
            for i, (name, start, end, parent, steps, flag) in enumerate(self.spans)
        )
        path.write_text("\n".join(lines) + "\n")


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_metrics(spans: list[list], window_ns: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced window, as name -> (value, unit).

    The six ``<layer>.self_s`` values plus ``bench.self_s`` (time inside the
    window that no sfqctrl span covers: the benchmark's own code and the
    wrappers' bookkeeping) add up to ``traced_wall_s``.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, steps, flag in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = dict.fromkeys(LAYERS, 0)
    busy_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    steps_by: dict[str, int] = {}
    top_ns = 0
    iter_ms: list[float] = []
    accepted = 0
    driver_propagates = 0
    trust_propagates = 0
    for i, (name, start, end, parent, steps, flag) in enumerate(spans):
        dur = end - start
        self_ns[_layer(name)] += dur - child_ns[i]
        busy_ns[name] = busy_ns.get(name, 0) + dur
        calls[name] = calls.get(name, 0) + 1
        steps_by[name] = steps_by.get(name, 0) + steps
        if parent < 0:
            top_ns += dur
        if name == "trustregion.tr_step":
            iter_ms.append(dur / 1e6)
            accepted += flag
        if name == "objective.propagate" and parent >= 0:
            parent_layer = _layer(spans[parent][0])
            driver_propagates += parent_layer == "driver"
            trust_propagates += parent_layer == "trustregion"

    def seconds(ns: int) -> float:
        return ns / 1e9

    def per_step(name: str) -> float:
        return busy_ns.get(name, 0) / steps_by[name] if steps_by.get(name) else 0.0

    restarts = calls.get("trustregion.optimize", 0)
    trials = trust_propagates - restarts
    metrics = {
        "model.precompute_calls": (calls.get("model.precompute", 0), "count"),
        "model.precompute_s": (seconds(busy_ns.get("model.precompute", 0)), "s"),
        "objective.propagate_calls": (calls.get("objective.propagate", 0), "count"),
        "objective.propagate_s": (seconds(busy_ns.get("objective.propagate", 0)), "s"),
        "objective.propagate_ns_per_step": (per_step("objective.propagate"), "ns"),
        "objective.leakage_s": (seconds(busy_ns.get("objective.leakage", 0)), "s"),
        "adjoint.sweep_calls": (calls.get("adjoint.sweep", 0), "count"),
        "adjoint.sweep_s": (seconds(busy_ns.get("adjoint.sweep", 0)), "s"),
        "adjoint.sweep_ns_per_step": (per_step("adjoint.sweep"), "ns"),
        "trustregion.iterations": (len(iter_ms), "count"),
        "trustregion.accepted": (accepted, "count"),
        "trustregion.accept_ratio": (accepted / trials if trials > 0 else 0.0, "1"),
        "trustregion.objective_evals": (trust_propagates, "count"),
        "trustregion.gradient_evals": (calls.get("adjoint.sweep", 0), "count"),
        "trustregion.restarts": (restarts, "count"),
        "trustregion.subproblem_s": (seconds(busy_ns.get("trustregion.subproblem", 0)), "s"),
        "trustregion.iter_ms_p50": (statistics.median(iter_ms) if iter_ms else 0.0, "ms"),
        "trustregion.iter_ms_p90": (statistics.quantiles(iter_ms, n=10)[-1] if len(iter_ms) > 1 else 0.0, "ms"),
        "driver.propagate_calls": (driver_propagates, "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (seconds(self_ns[layer]), "s")
    metrics["bench.self_s"] = (seconds(window_ns - top_ns), "s")
    metrics["traced_wall_s"] = (seconds(window_ns), "s")
    return metrics
