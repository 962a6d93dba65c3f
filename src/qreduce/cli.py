"""Command-line front end: batch ensemble runs and frequency sweeps.

Artifacts are plain CSV for bulky time series and JSON for structured
summaries; every output byte is determined by (config, master seed),
independent of the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

# The package's largest module first, before numpy: a run that finds no
# cached bytecode compiles every module it imports, and this compile's
# temporaries then do not stack on numpy and the other modules, which
# would raise the process's peak memory.
from .equivalence import (
    collapse_statistics,
    convergence_sweep,
    engine_comparison,
    ensemble_stats,
)

import numpy as np

from .config import (
    PREFLIGHT_BYTES,
    ScenarioConfig,
    check_expected_hits,
    checked_int,
    load_config,
)
from .continuous import noise_block_steps, snapped_dt
from .ensemble import CHUNK_SIZE, run_continuous_ensemble, run_hitting_ensemble
from .errors import ConfigError, QReduceError
from .hilbert import COMMUTATOR_TOL
from .scenarios import BuiltScenario, build_scenario
from .trajectory import Ensemble, LiveBlock, live_block, record_count


# Complex L x L matrices that one engine kernel holds with a Hamiltonian:
# its block and its propagator or real step form. tracemalloc peaks of
# one kernel call at L = 200 and 400 read 3.1 (hitting) and 3.9-4.2
# (diffusion) times 16 L^2 B.
KERNEL_HAMILTONIAN_MATRICES = 4

# Complex L x L matrices the oracles hold beside their series, without and
# with a Hamiltonian: the rates, damping and Runge-Kutta temporaries and
# the trace distance's difference and eigensolver copy. tracemalloc peaks
# at L = 100-300 read (2 S + 4.5) and (2 S + 10.6 to 11.6) times 16 L^2 B
# for engine_comparison over S records.
ORACLE_WORK_MATRICES = (5, 12)


def _fmt(value) -> str:
    return repr(float(value))


# The writers below format the Python floats of .tolist() with %r, which
# is exactly _fmt of each value, without a numpy scalar per value. A weight
# column outside an engine's live coordinates is exactly 0 and is a literal
# 0.0 in that engine's row format, so a row costs O(L + K), not O(d + K).
# Both writers stream one trajectory at a time.


def _write_trajectories_csv(path: Path, ensembles: dict[str, Ensemble]):
    first = next(iter(ensembles.values()))
    d = first.dim
    k = first.expectations.shape[2]
    header = (
        ["engine", "trajectory", "time", "event_flag"]
        + [f"w_{i}" for i in range(d)]
        + [f"exp_{p}" for p in range(k)]
    )
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for engine in sorted(ensembles):
            ens = ensembles[engine]
            columns = [",0.0"] * d
            for j in ens.live.tolist():
                columns[j] = ",%r"
            row = "%r,%d" + "".join(columns) + ",%r" * k + "\n"
            times = ens.sample_times.tolist()
            flags = ens.event_flags().tolist()
            for idx in range(len(ens)):
                fmt = f"{engine},{idx}," + row
                fields = zip(
                    times,
                    flags[idx],
                    *ens.weights[:, idx, :].T.tolist(),
                    *ens.expectations[:, idx, :].T.tolist(),
                )
                fh.writelines(fmt % values for values in fields)


def _write_events_csv(path: Path, ensembles: dict[str, Ensemble]):
    k = next(iter(ensembles.values())).expectations.shape[2]
    header = ["engine", "trajectory", "time"] + [f"a_{p}" for p in range(k)]
    row = "%r" + ",%r" * k + "\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for engine in sorted(ensembles):
            ens = ensembles[engine]
            bounds = ens.offsets.tolist()
            for idx, (a, b) in enumerate(zip(bounds, bounds[1:])):
                fmt = f"{engine},{idx}," + row
                columns = zip(ens.times[a:b].tolist(), *ens.centres[a:b].T.tolist())
                fh.writelines(fmt % fields for fields in columns)


def _write_json(path: Path, obj) -> None:
    """``obj`` as indented JSON with sorted keys, streamed to ``path``."""
    with path.open("w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _collapse_json(report) -> dict:
    return {
        "outcomes": [
            {
                "eigenvalues": list(o.eigenvalues),
                "count": o.count,
                "frequency": o.frequency,
                "ci_low": o.ci_low,
                "ci_high": o.ci_high,
            }
            for o in report.outcomes
        ],
        "unlisted_outcomes": report.unlisted_outcomes,
        "n_trajectories": report.n_trajectories,
        "n_resolved": report.n_resolved,
        "unresolved_count": report.unresolved_count,
        "unresolved_fraction": report.unresolved_fraction,
        "threshold": report.threshold,
        "threshold_sensitivity": {
            str(th): frac for th, frac in sorted(report.threshold_sensitivity.items())
        },
    }


def _martingale_json(ens: Ensemble) -> dict:
    """The largest drift of a mean Born weight from time 0, in standard errors.

    The z-score is null with fewer than two trajectories, whose standard
    error is undefined.
    """
    stats = ensemble_stats(ens)
    z = None
    if len(ens) > 1:
        base = stats.mean_weights[0]
        drift = np.abs(stats.mean_weights - base[np.newaxis, :])
        se = np.maximum(stats.mean_weight_se, 1e-300)
        z = float(np.max(drift[1:] / se[1:])) if stats.times.size > 1 else 0.0
    return {"times": stats.times.tolist(), "max_abs_zscore": z}


def _first_hit_moments(built: BuiltScenario, block: LiveBlock, ens: Ensemble) -> dict | None:
    """Moments of each quantity's first hitting centre against psi0's.

    Column p takes each trajectory's first event whose stream hits p; its
    law has psi0's mean and variance cov_pp plus the mean of 1/(2 beta_s)
    over those events, if no Hamiltonian couples live joint coordinates
    with different eigenvalue rows: the ``block``'s Hamiltonian couples
    nothing outside it. Otherwise, or if a column has fewer than two such
    events (its sample variance is then undefined), the moments are None.
    """
    psi0, quantities = built.psi0, built.quantities
    if block.h_joint is not None:
        h_joint, table = np.abs(block.h_joint), block.quantities.eigenvalue_table
        # the rotation to the joint basis leaves rounding-level entries
        k, l = np.nonzero(h_joint > COMMUTATOR_TOL * max(float(h_joint.max()), 1.0))
        if np.any(table[k] != table[l]):
            return None
    starts, ends = ens.offsets[:-1], ens.offsets[1:]
    inv_beta = np.array([1.0 / (2.0 * s.beta) for s in built.streams])
    used, mean, var, expected_var = set(), [], [], []
    for p in range(quantities.num_quantities):
        hits = np.flatnonzero(~np.isnan(ens.centres[:, p]))
        # a trajectory's first hit on p is the first one at or after its start
        at = np.searchsorted(hits, starts)
        inside = at < hits.size
        firsts = hits[at[inside]]
        firsts = firsts[firsts < ends[inside]]
        if firsts.size < 2:
            return None
        used.update(firsts.tolist())
        # reduce whole (events, K) rows along axis 0: numpy then sums column p
        # in event order, where a lone column would be summed pairwise
        rows = ens.centres[firsts]
        mean.append(rows.mean(axis=0)[p])
        var.append(rows.var(axis=0, ddof=1)[p])
        share = np.bincount(ens.stream_ids[firsts], minlength=inv_beta.size) / firsts.size
        expected_var.append(sum(share * inv_beta) + quantities.covariance(psi0, p, p))
    return {
        "n_events": len(used),
        "empirical_mean": [float(x) for x in mean],
        "expected_mean": quantities.expectations(psi0).tolist(),
        "empirical_variance": [float(x) for x in var],
        "expected_variance": [float(x) for x in expected_var],
    }


def _engine_summary(built: BuiltScenario, block: LiveBlock, engine: str, ens: Ensemble) -> dict:
    summary = {
        "collapse": _collapse_json(collapse_statistics(ens, built.quantities)),
        "martingale": _martingale_json(ens),
    }
    if engine == "hitting":
        counts = np.diff(ens.offsets)
        summary["events_total"] = int(counts.sum())
        summary["mean_events_per_trajectory"] = float(np.mean(counts))
        summary["first_hitting_moments"] = _first_hit_moments(built, block, ens)
    return summary


def _scalar(value):
    arr = np.atleast_1d(np.asarray([] if value is None else value, dtype=float))
    if arr.size == 0:
        return None
    return float(arr[0]) if arr.size == 1 else arr.tolist()


def _stream_parameters(built: BuiltScenario) -> dict:
    """beta and mu of the streams: numbers for one stream, lists for several."""
    return {key: _scalar([getattr(s, key) for s in built.streams]) for key in ("beta", "mu")}


def _run_engines(built: BuiltScenario, block: LiveBlock, workers: int):
    config = built.config
    ensembles: dict[str, Ensemble] = {}
    if config.engine in ("hitting", "both"):
        ensembles["hitting"] = run_hitting_ensemble(
            block, built.streams, config.t_end, config.record_interval,
            config.n_trajectories, config.seed, workers=workers,
        )
    if config.engine in ("continuous", "both"):
        ensembles["continuous"] = run_continuous_ensemble(
            block, built.continuous_config(), config.n_trajectories, config.seed,
            workers=workers,
        )
    return ensembles


def _check_footprint(built: BuiltScenario, block: LiveBlock, samples: int, rate_key: str,
                     total_rate: float, oracle_matrices: int) -> dict[str, float]:
    """ConfigError when a run's largest arrays would pass ``PREFLIGHT_BYTES``;
    else their estimated bytes, by the key each is named by.

    Estimated at the live width L of the ``block`` that the engines and
    the oracles run on, per engine: the records, S x n x (L + K) x 8 B of
    weights and expectations and S x n x L x 16 B of states; the hitting
    engine's expected hit arrays at ``total_rate``,
    n x rate x t_end x (17 + 16 K) B, which is also the engine's peak: its
    event clock and its per-row generators take a block of fixed size
    beside them; the noise block of the diffusion's largest chunk at one
    worker, which a run of fewer steps than a block draws shorter; and
    with a Hamiltonian, each kernel's ``KERNEL_HAMILTONIAN_MATRICES``
    complex L x L forms of it. With engine ``both`` the oracles hold
    ``oracle_matrices`` complex L x L matrices of their series beside
    ``ORACLE_WORK_MATRICES`` working ones. The error names the key of the
    largest part. Nothing is allocated.
    """
    config = built.config
    n, k, width = config.n_trajectories, block.quantities.num_quantities, block.live.size
    both = config.engine == "both"
    engines = ("hitting", "continuous") if both else (config.engine,)
    record = samples * n * ((width + k) * 8 + width * 16)
    sizes = {"record_interval": len(engines) * record}
    if "hitting" in engines:
        sizes[rate_key] = n * total_rate * config.t_end * (17 + 16 * k)
    if "continuous" in engines:
        # the largest of the balanced chunks that one worker runs
        rows = -(-n // math.ceil(n / CHUNK_SIZE))
        sizes["n_trajectories"] = rows * noise_block_steps(rows, k) * k * 8
    square = 16 * width**2
    with_h = built.hamiltonian is not None
    if with_h:
        sizes["hamiltonian"] = len(engines) * KERNEL_HAMILTONIAN_MATRICES * square
    if both:
        sizes["initial_state"] = (oracle_matrices + ORACLE_WORK_MATRICES[with_h]) * square
    total = sum(sizes.values())
    if total > PREFLIGHT_BYTES:
        raise ConfigError(
            max(sizes, key=sizes.get),
            f"records, hits, noise and L x L matrices would take about "
            f"{total / 2**30:.3g} GiB; at most {PREFLIGHT_BYTES / 2**30:g} GiB is allowed",
        )
    return sizes


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ConfigError("workers", f"--workers must be >= 1, got {workers}")


def _load_config(args) -> ScenarioConfig:
    """The config of ``args``, with its ``--seed`` override checked as the key is."""
    _check_workers(args.workers)
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = checked_int("seed", args.seed, 0)
    return config


def cmd_run(args) -> int:
    config = _load_config(args)
    built = build_scenario(config)
    block = live_block(built.psi0, built.quantities, built.hamiltonian)
    samples = record_count(config.t_end, config.record_interval)
    # the oracles of engine both hold two series of all the records
    _check_footprint(built, block, samples, "mu", sum(s.mu for s in built.streams),
                     2 * samples)
    out_dir = Path(args.out or config.output_dir or "qreduce-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    ensembles = _run_engines(built, block, args.workers)

    _write_trajectories_csv(out_dir / "trajectories.csv", ensembles)
    _write_events_csv(out_dir / "events.csv", ensembles)

    summary = {
        "scenario": config.scenario,
        "engine": config.engine,
        "seed": config.seed,
        "n_trajectories": config.n_trajectories,
        "parameters": {
            **_stream_parameters(built),
            "gamma": _scalar(built.gamma),
            "dt": _scalar(config.dt),
            "schedule": config.schedule,
            "t_end": config.t_end,
            "record_interval": config.record_interval,
        },
        "engines": {
            engine: _engine_summary(built, block, engine, ens)
            for engine, ens in ensembles.items()
        },
    }
    _write_json(out_dir / "summary.json", summary)

    written = ["trajectories.csv", "events.csv", "summary.json"]
    if config.engine == "both":
        comparison = engine_comparison(
            ensembles["hitting"], ensembles["continuous"], block, built.streams,
            _scalar(built.gamma), seed=config.seed,
        )
        # one row resamples only itself: its bootstrap error reads about 0
        resampled = min(map(len, ensembles.values())) > 1
        compare = {
            "probe_times": comparison.times.tolist(),
            "mc_trace_distance": comparison.mc_distance.tolist(),
            "mc_error": comparison.mc_error.tolist() if resampled else None,
            "oracle_trace_distance": comparison.oracle_distance.tolist(),
            **_stream_parameters(built),
            "gamma": _scalar(built.gamma),
            "n_trajectories": config.n_trajectories,
        }
        _write_json(out_dir / "compare.json", compare)
        written.append("compare.json")
    for name in written:
        print(f"wrote {out_dir / name}")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    if config.engine != "both":
        raise ConfigError("engine", "sweep requires engine=both")
    if args.param != "mu":
        raise ConfigError("param", f"sweep supports param=mu, got {args.param!r}")
    try:
        values = [float(v) for v in args.values]
    except ValueError:
        raise ConfigError("values", f"sweep values must be numbers, got {args.values}") from None
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise ConfigError("values", "sweep values must be finite and > 0")
    for v in values:
        check_expected_hits("values", v, config.t_end)
    ordered = sorted(values)
    if ordered != values:
        print(f"values sorted ascending before execution: {ordered}")

    built = build_scenario(config)
    block = live_block(built.psi0, built.quantities, built.hamiltonian)
    # each swept ensemble records at 0 and t_end; the oracles
    # hold the Lindblad series and two hitting series of 2 matrices each
    _check_footprint(built, block, 2, "values", ordered[-1], 6)
    gamma = _scalar(built.gamma)
    # the diffusion steps as run's does: on the spread of the whole quantity set
    step = snapped_dt(built.quantities, gamma, config.t_end, config.dt)
    rows = convergence_sweep(
        block, built.streams, gamma, ordered, config.n_trajectories, config.t_end,
        config.seed, dt=step, workers=args.workers,
    )
    out_dir = Path(args.out or config.output_dir or "qreduce-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    with path.open("w", newline="") as fh:
        fh.write("mu,beta,channel_distance,mc_distance,mc_error\n")
        for row in rows:
            # one beta per stream, space-separated, in stream order
            beta = " ".join(_fmt(s.beta) for s in row.streams)
            rest = (row.channel_distance, row.mc_distance, row.mc_error)
            fh.write(",".join([_fmt(row.mu), beta, *map(_fmt, rest)]) + "\n")
    print(f"wrote {path}")
    return 0


_WORKERS_HELP = (
    "parallel worker processes (>= 1); results are identical for any count, "
    "and the pool never exceeds the trajectory chunks or the available CPUs"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qreduce",
        description="Stochastic state-vector reduction: hitting and diffusive engines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured ensemble(s)")
    run.add_argument("config", help="config file path or preset name")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    run.add_argument("--out", default=None, help="output directory")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="hitting-frequency convergence sweep")
    sweep.add_argument("config", help="config file path or preset name")
    sweep.add_argument(
        "--param", required=True, help="swept parameter (mu: the total hitting rate)"
    )
    sweep.add_argument("--values", nargs="+", required=True, help="swept values")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error [{exc.key}]: {exc}", file=sys.stderr)
        return 1
    except QReduceError as exc:
        seed = getattr(exc, "seed", None)
        hint = f" (trajectory seed {seed})" if seed is not None else ""
        print(f"runtime error: {exc}{hint}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
