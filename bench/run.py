"""Benchmark of the qreduce CLI, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload run-qubit --seed 1 --seconds 36 --trace 0

``--workload all`` runs every workload in turn.

Every workload runs the real CLI (``python3 -m qreduce.cli``) from
``src`` with ``--workers 1``; the seed is passed on as the CLI's
``--seed``. With ``--trace 0`` a run times fresh set-up processes
(``setup_probe.py``), then whole CLI runs (at least three, more while
``--seconds`` lasts), and reports the end-to-end medians. With
``--trace 1`` it makes one untraced CLI run, one traced run
(``spans.py``) and, where the workload asks for it, a ``--workers 2``
run whose artifacts must be byte-identical, and reports the per-layer
metrics.

Every CLI run is checked (``checks.py``); a run that exits non-zero or
fails a check counts in ``failed``. The last line of standard output is
the JSON result; the full record, with the environment and the spans,
is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A run must end within 180 s; children are killed past this budget.
RUN_DEADLINE_S = 170.0
# Set-up probes: at least MIN_SETUPS, more while they take under
# SETUP_SHARE of --seconds, at most MAX_SETUPS.
MIN_SETUPS, MAX_SETUPS, SETUP_SHARE = 3, 7, 0.1
# CLI runs: at least MIN_RUNS, so that the median drops a run slowed by the
# host (CPU speed here varies by +-10% between back-to-back runs), then
# more while the next one is expected to end within --seconds.
MIN_RUNS = 3
MAX_PRINTED_PROBLEMS = 20

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    command: str          # qreduce subcommand: run or sweep
    config: str           # preset name or config path
    extra: tuple = ()     # further CLI arguments
    invariance: bool = False  # traced run also checks --workers 2

    def cli_args(self, seed: int, workers: int, out: Path) -> list[str]:
        return [self.command, self.config, *self.extra, "--seed", str(seed),
                "--workers", str(workers), "--out", str(out)]


WORKLOADS = {
    "run-qubit": Workload("run", "qubit-equal", invariance=True),
    "run-lattice-d715": Workload("run", str(BENCH / "workloads" / "lattice-d715.json")),
    "sweep-lattice-d120": Workload(
        "sweep", str(BENCH / "workloads" / "lattice-d120.json"),
        ("--param", "mu", "--values", "4", "16", "64"),
    ),
}

QUBIT = ("run-qubit",)
D715 = ("run-lattice-d715",)
D120 = ("sweep-lattice-d120",)
LATTICES = D715 + D120
ALL = QUBIT + LATTICES

# End-to-end metrics: name -> unit.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run: name -> (unit, better, the
# end-to-end metric it should move, the workloads it should move it on).
PER_LAYER = {
    "config.load_config_s": ("s", "lower", "setup_s", ALL),
    "scenarios.build_scenario_s": ("s", "lower", "setup_s", LATTICES),
    "fock.build_fock_lattice_s": ("s", "lower", "setup_s", D715),
    "fock.build_number_density_s": ("s", "lower", "setup_s", D715),
    "hilbert.validate_quantity_set_s": ("s", "lower", "setup_s,wall_s", LATTICES),
    "hilbert.validate_quantity_set_peak_mb": ("MB", "lower", "peak_rss_mb", D715),
    "ensemble.run_hitting_ensemble_s": ("s", "lower", "wall_s", QUBIT),
    "hitting.hits": ("count", "lower", "wall_s", QUBIT),
    "hitting.us_per_hit": ("us", "lower", "wall_s", QUBIT),
    "hitting.run_hitting_chain_batch_s": ("s", "lower", "wall_s", D120),
    "hitting.chain_hit_rows": ("count", "lower", "wall_s", D120),
    "hitting.chain_ns_per_hit_row": ("ns", "lower", "wall_s", D120),
    "ensemble.run_continuous_ensemble_s": ("s", "lower", "wall_s", D715 + QUBIT),
    "continuous.row_steps": ("count", "lower", "wall_s", D715 + QUBIT),
    "continuous.ns_per_row_step": ("ns", "lower", "wall_s", D715 + QUBIT),
    "continuous.simulate_continuous_batch_s": ("s", "lower", "wall_s", D120),
    "equivalence.collapse_statistics_s": ("s", "lower", "wall_s", QUBIT),
    "equivalence.ensemble_stats_s": ("s", "lower", "wall_s", QUBIT),
    "equivalence.engine_comparison_s": ("s", "lower", "wall_s", QUBIT),
    "equivalence.convergence_sweep_s": ("s", "lower", "wall_s", D120),
    "equivalence.from_state_rows_s": ("s", "lower", "wall_s", D120),
    "equivalence.from_state_rows_calls": ("count", "lower", "wall_s", D120),
    "equivalence.trace_norm_distance_s": ("s", "lower", "wall_s", D120),
    "equivalence.trace_norm_distance_calls": ("count", "lower", "wall_s", D120),
    "equivalence.hitting_master_evolution_s": ("s", "lower", "wall_s", D120),
    "equivalence.lindblad_evolution_s": ("s", "lower", "wall_s", D120),
    "equivalence.resolved_frac": ("fraction", "higher", "failed_frac", ALL),
    "cli.write_trajectories_csv_s": ("s", "lower", "wall_s", QUBIT),
    "cli.write_events_csv_s": ("s", "lower", "wall_s", QUBIT),
    "cli.artifact_bytes": ("bytes", "lower", "wall_s", QUBIT),
    "cli.artifact_mb_per_s": ("MB/s", "higher", "wall_s", QUBIT),
    "failed_frac": ("fraction", "lower", "failed_frac", ALL),
    **{
        f"self.{layer}_s": ("s", "lower", "wall_s", ALL)
        for layer in spans.LAYERS
    },
    "trace.import_s": ("s", "lower", "setup_s", ALL),
    "trace.remainder_s": ("s", "lower", "wall_s", ALL),
    "trace.wall_s": ("s", "lower", "wall_s", ALL),
    "trace.overhead_frac": ("fraction", "lower", "-", ALL),
}

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- children -----------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], log_dir: Path, deadline: float) -> Child:
    """Run ``python3 <argv>``; wall time, exit code and the child's own peak RSS.

    ``os.wait4`` gives this child's rusage alone; RUSAGE_CHILDREN would be a
    running maximum over every child reaped so far.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with out_path.open("w") as out, err_path.open("w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=out, stderr=err
        )
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name not in ("stdout.txt", "stderr.txt")
    }


class Runner:
    """Runs and checks the children of one benchmark run; counts failures."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.born_table = None
        self.reference: dict[str, str] | None = None

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def setup(self) -> Child:
        label = f"setup{self.attempted + 1}"
        child = run_child(
            [str(BENCH / "setup_probe.py"), self.workload.config],
            self.work / label, self.deadline,
        )
        if child.code != 0:
            self.record(label, [f"exit code {child.code}: {child.stderr[-500:]}"])
            return child
        self.record(label, [])
        if self.born_table is None:
            self.born_table = json.loads(child.stdout.strip().splitlines()[-1])
        return child

    def cli(self, label: str, *, workers: int = 1, traced: Path | None = None) -> Child:
        """One CLI run, checked; its artifacts must match the first run's bytes.

        The artifacts are deleted once checked; the logs stay.
        """
        out = self.work / label
        args = self.workload.cli_args(self.seed, workers, out)
        if traced is None:
            argv = ["-m", "qreduce.cli", *args]
        else:
            argv = [str(BENCH / "spans.py"), str(traced), *args]
        child = run_child(argv, out, self.deadline)
        if child.code != 0:
            self.record(label, [f"exit code {child.code}: {child.stderr[-500:]}"])
            return child
        problems = checks.check_artifacts(out, self.workload.command, self.born_table or [])
        found = digests(out)
        if self.reference is None:
            self.reference = found
        elif found != self.reference:
            changed = sorted(k for k in found.keys() | self.reference.keys()
                             if found.get(k) != self.reference.get(k))
            problems.append(f"artifacts differ from the first run's: {changed}")
        self.record(label, problems)
        for name in found:
            (out / name).unlink()
        return child


# -- the two kinds of run ------------------------------------------------------


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    begin = time.monotonic()
    setups = []
    while len(setups) < MIN_SETUPS or (
        len(setups) < MAX_SETUPS and sum(c.wall_s for c in setups) < SETUP_SHARE * seconds
    ):
        setups.append(runner.setup())
    runs = []
    while True:
        runs.append(runner.cli(f"run{len(runs) + 1}"))
        expected = statistics.median(c.wall_s for c in runs)
        now = time.monotonic()
        if now + 2 * expected > runner.deadline:
            break
        if len(runs) >= MIN_RUNS and now - begin + expected > seconds:
            break
    return {
        "wall_s": statistics.median(c.wall_s for c in runs),
        "setup_s": statistics.median(c.wall_s for c in setups),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in runs),
    }, {
        "setup_wall_s": [c.wall_s for c in setups],
        "cli_wall_s": [c.wall_s for c in runs],
        "cli_cpu_s": [c.cpu_s for c in runs],
        "cli_peak_rss_mb": [c.peak_rss_mb for c in runs],
    }


def layer_metrics(trace: dict, wall: float, untraced_wall: float) -> dict:
    rows = trace.get("spans", [])
    counters = trace.get("counters", {})
    total = {}
    calls = {}
    for name, start, end, _ in rows:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    def s(name):
        return total.get(name, 0.0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    hits, chain_rows, row_steps = (
        counters.get(k, 0) for k in ("hits", "chain_hit_rows", "row_steps")
    )
    written = counters.get("artifact_bytes", 0)
    write_s = s("cli.write_trajectories_csv") + s("cli.write_events_csv")
    attempted = counters.get("collapse_attempted", 0)
    roots = sum(end - start for _, start, end, parent in rows if parent < 0)
    # a "<module>.<function>_s" metric is the total time of that span
    out = {
        metric: s(metric[:-2])
        for metric in PER_LAYER
        if metric.endswith("_s") and metric.split(".")[0] in spans.LAYER_OF_MODULE
    }
    out.update({
        "hilbert.validate_quantity_set_peak_mb": counters.get("validate_peak_bytes", 0) / 2**20,
        "hitting.hits": hits,
        "hitting.us_per_hit": ratio(s("ensemble.run_hitting_ensemble"), hits, 1e6),
        "hitting.chain_hit_rows": chain_rows,
        "hitting.chain_ns_per_hit_row": ratio(s("hitting.run_hitting_chain_batch"), chain_rows, 1e9),
        "continuous.row_steps": row_steps,
        "continuous.ns_per_row_step": ratio(s("continuous.simulate_continuous_batch"), row_steps, 1e9),
        "equivalence.from_state_rows_calls": calls.get("equivalence.from_state_rows", 0),
        "equivalence.trace_norm_distance_calls": calls.get("equivalence.trace_norm_distance", 0),
        # vacuously 1 where no collapse statistics run (the sweep)
        "equivalence.resolved_frac": ratio(counters.get("resolved", 0), attempted) if attempted else 1.0,
        "cli.artifact_bytes": written,
        "cli.artifact_mb_per_s": ratio(written / 1e6, write_s),
        **{f"self.{k}_s": v for k, v in spans.layer_self_times(rows).items()},
        "trace.import_s": s("import.qreduce"),
        "trace.remainder_s": wall - roots,
        "trace.wall_s": wall,
        "trace.overhead_frac": ratio(wall, untraced_wall) - 1.0,
    })
    return out


def measure_layers(runner: Runner) -> tuple[dict, dict]:
    runner.setup()
    untraced = runner.cli("untraced")
    spans_path = runner.work / "spans.json"
    traced = runner.cli("traced", traced=spans_path)
    if runner.workload.invariance:
        runner.cli("workers2", workers=2)
    trace = json.loads(spans_path.read_text()) if spans_path.is_file() else {}
    metrics = layer_metrics(trace, traced.wall_s, untraced.wall_s)
    return metrics, trace


# -- environment and output ----------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = {}
    version = re.search(r'^version = "(.+)"', (ROOT / "pyproject.toml").read_text(), re.M)
    return {
        "qreduce": version.group(1) if version else "unknown",
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, args, env: dict) -> dict:
    """One benchmark run of one workload; prints its lines, returns the result."""
    work = OUT / f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(WORKLOADS[name], args.seed, work)
    if args.trace:
        values, trace = measure_layers(runner)
        values["failed_frac"] = runner.failed / runner.attempted
        units = {metric: PER_LAYER[metric][0] for metric in PER_LAYER}
        counts = {}
    else:
        values, counts = measure_end_to_end(runner, args.seconds)
        units = END_TO_END
        trace = None

    metrics = {metric: {"value": values[metric], "unit": units[metric]} for metric in units}
    print(f"workload {name}")
    for problem in runner.problems[:MAX_PRINTED_PROBLEMS]:
        print("FAILED " + problem)
    if len(runner.problems) > MAX_PRINTED_PROBLEMS:
        print(f"FAILED ... {len(runner.problems) - MAX_PRINTED_PROBLEMS} more in {work}")
    for note in (trace or {}).get("errors", []):
        print("TRACE " + note)
    for metric, m in metrics.items():
        moves = ""
        if args.trace:
            _, _, target, on = PER_LAYER[metric]
            moves = f"  (moves {target} on {', '.join(on)})"
        print(f"metric {metric} = {m['value']:.6g} {m['unit']}{moves}")
    if counts:
        print("samples " + json.dumps({k: [round(x, 3) for x in v] for k, v in counts.items()}))
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {"env": env, "result": result, "problems": runner.problems, "samples": counts}
    if trace is not None:
        record["trace"] = trace
    (work / "result.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qreduce" / "cli.py").is_file():
        print(f"no qreduce sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args, env) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
