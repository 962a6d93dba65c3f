"""Spans around the calls between qreduce's modules, for the traced run.

Run as ``python3 bench/spans.py <spans.json> <qreduce CLI arguments...>``
with ``src`` on PYTHONPATH. It wraps, in this process only, the names a
module imports from another module (``qreduce.cli.run_hitting_ensemble``,
``qreduce.equivalence.run_hitting_chain_batch``, ...) with timers, runs
the CLI's ``main`` and writes every span and counter to <spans.json>
when the CLI returns. ``src/`` is never edited.

A span is (name, start, end, parent index). Its name is
``<module>.<function>`` of the module that defines the function, and the
module names the layer.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter

# Layers whose self time is reported on its own; the build layer groups
# the three modules that turn a config into a quantity set.
LAYER_OF_MODULE = {
    "config": "config",
    "scenarios": "build",
    "fock": "build",
    "hilbert": "build",
    "hitting": "hitting",
    "continuous": "continuous",
    "ensemble": "ensemble",
    "equivalence": "equivalence",
    "cli": "cli",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))


class Tracer:
    """In-memory span recorder with a stack for parent links, plus counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.errors: list[str] = []

    def start(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_self_times(spans) -> dict[str, float]:
    """Self time summed per layer; spans outside the layer map are skipped."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), own in zip(spans, self_times(spans)):
        layer = LAYER_OF_MODULE.get(name.split(".", 1)[0])
        if layer is not None:
            totals[layer] += own
    return totals


# -- counters taken from a wrapped call's bound arguments and result ----------


def _count_hits(tracer, arguments, records):
    tracer.counters["hits"] += sum(len(rec.events) for rec in records)


def _count_chain(tracer, arguments, result):
    import numpy as np

    batch = arguments["coeffs"].shape[0]
    tracer.counters["chain_hit_rows"] += int(np.broadcast_to(arguments["n_hits"], (batch,)).sum())


def _count_row_steps(tracer, arguments, result):
    steps = (result.sample_times.size - 1) * arguments["config"].steps_per_record
    tracer.counters["row_steps"] += arguments["psi0_rows"].shape[0] * steps


def _count_resolved(tracer, arguments, report):
    tracer.counters["resolved"] += report.n_resolved
    tracer.counters["collapse_attempted"] += report.n_trajectories


def _count_bytes(tracer, arguments, result):
    tracer.counters["artifact_bytes"] += arguments["path"].stat().st_size


# (module, attribute, span name, counter)
WRAPPED = (
    ("qreduce.cli", "load_config", "config.load_config", None),
    ("qreduce.cli", "build_scenario", "scenarios.build_scenario", None),
    ("qreduce.scenarios", "build_fock_lattice", "fock.build_fock_lattice", None),
    ("qreduce.scenarios", "validate_quantity_set", "hilbert.validate_quantity_set", None),
    ("qreduce.fock", "build_number_density", "fock.build_number_density", None),
    ("qreduce.fock", "validate_quantity_set", "hilbert.validate_quantity_set", None),
    ("qreduce.cli", "run_hitting_ensemble", "ensemble.run_hitting_ensemble", _count_hits),
    ("qreduce.cli", "run_continuous_ensemble", "ensemble.run_continuous_ensemble", None),
    ("qreduce.ensemble", "simulate_hitting_trajectory",
     "hitting.simulate_hitting_trajectory", None),
    ("qreduce.ensemble", "simulate_continuous_batch",
     "continuous.simulate_continuous_batch", _count_row_steps),
    ("qreduce.cli", "collapse_statistics", "equivalence.collapse_statistics", _count_resolved),
    ("qreduce.cli", "ensemble_stats", "equivalence.ensemble_stats", None),
    ("qreduce.cli", "engine_comparison", "equivalence.engine_comparison", None),
    ("qreduce.cli", "convergence_sweep", "equivalence.convergence_sweep", None),
    ("qreduce.equivalence", "run_hitting_chain_batch",
     "hitting.run_hitting_chain_batch", _count_chain),
    ("qreduce.equivalence", "simulate_continuous_batch",
     "continuous.simulate_continuous_batch", _count_row_steps),
    ("qreduce.equivalence", "trace_norm_distance", "equivalence.trace_norm_distance", None),
    ("qreduce.equivalence", "hitting_master_evolution",
     "equivalence.hitting_master_evolution", None),
    ("qreduce.equivalence", "lindblad_evolution", "equivalence.lindblad_evolution", None),
    ("qreduce.cli", "_write_trajectories_csv", "cli.write_trajectories_csv", _count_bytes),
    ("qreduce.cli", "_write_events_csv", "cli.write_events_csv", _count_bytes),
)


def timed(tracer: Tracer, fn, name: str, count=None):
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        span = tracer.start(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if count is not None:
            # A counter that no longer fits the program's signatures must not
            # fail the run it observes; the error is reported instead.
            try:
                count(tracer, signature.bind(*args, **kwargs).arguments, result)
            except Exception as exc:
                tracer.errors.append(f"counter of {name}: {exc!r}")
        return result

    return wrapper


def traced_peak_memory(tracer: Tracer, fn, key: str):
    """Record the tracemalloc peak of each call in counters[key] (the largest)."""

    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.counters[key] = max(tracer.counters[key], peak)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every name in WRAPPED; a name the program no longer has is reported."""
    for module_name, attr, span_name, count in WRAPPED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.errors.append(f"{module_name}.{attr} not found; {span_name} reads 0")
            continue
        if span_name == "hilbert.validate_quantity_set":
            fn = traced_peak_memory(tracer, fn, "validate_peak_bytes")
        setattr(module, attr, timed(tracer, fn, span_name, count))
    # A classmethod is wrapped on its class, so every caller sees the timer.
    from qreduce.equivalence import DensityMatrix

    method = DensityMatrix.__dict__.get("from_state_rows")
    if not isinstance(method, classmethod):
        tracer.errors.append("DensityMatrix.from_state_rows not found; its spans read 0")
        return
    DensityMatrix.from_state_rows = classmethod(
        timed(tracer, method.__func__, "equivalence.from_state_rows")
    )


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    span = tracer.start("import.qreduce")
    import qreduce.cli

    tracer.end(span)
    install(tracer)
    span = tracer.start("cli.main")
    try:
        code = qreduce.cli.main(cli_args)
    finally:
        tracer.end(span)
        with open(spans_path, "w") as fh:
            json.dump(
                {"spans": tracer.spans, "counters": tracer.counters, "errors": tracer.errors}, fh
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
