"""Correctness checks on the artifacts of one `qreduce` CLI run.

Each check returns a list of problems; an empty list means the run
passed. The checks read only the artifacts and the expected Born table
printed by ``setup_probe.py``, never the program's internals.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Relative tolerance for matching an outcome's eigenvalue row to a row of
# the expected Born table.
ROW_TOL = 1e-9
# Standard errors a collapse frequency (Wilson interval) or an engine
# distance (bootstrap error) may stray before a run fails. At z = 3, the
# width summary.json's intervals use, a correct program fails 0.27% of
# tests; with two engines and 21 probe times per run, over the dozens of
# seeds a round of benchmark runs uses, some correct run would fail. At
# z = 5 a test fails with probability 6e-7.
Z = 5.0
# Absolute slack for float round-off where a bound is exactly zero in
# exact arithmetic: a Wilson interval's end at count 0 or n, or a
# distance while both ensembles are still at psi0.
ROUND_OFF = 1e-12


def _same_row(a, b) -> bool:
    if len(a) != len(b):
        return False
    scale = max([1.0] + [abs(x) for x in a])
    return all(abs(x - y) <= ROW_TOL * scale for x, y in zip(a, b))


def expected_probability(eigenvalues, born_table) -> float:
    """Born probability of one outcome: the weight of every matching row."""
    return sum(p for row, p in born_table if _same_row(eigenvalues, row))


def wilson_interval(successes: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1.0 + z**2 / n
    centre = (p + z**2 / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2))
    return centre - half, centre + half


def check_summary(summary: dict, born_table) -> list[str]:
    """Born probabilities inside each outcome's Wilson interval; some runs resolved."""
    problems = []
    engines = summary.get("engines") or {}
    if not engines:
        problems.append("summary.json lists no engines")
    for engine, data in sorted(engines.items()):
        collapse = data["collapse"]
        if not collapse["unresolved_fraction"] < 1.0:
            problems.append(f"{engine}: no trajectory resolved")
        for outcome in collapse["outcomes"]:
            p = expected_probability(outcome["eigenvalues"], born_table)
            lo, hi = wilson_interval(outcome["count"], collapse["n_resolved"], Z)
            if not lo - ROUND_OFF <= p <= hi + ROUND_OFF:
                problems.append(
                    f"{engine}: outcome {outcome['eigenvalues']} has Born probability "
                    f"{p:.4f} outside [{lo:.4f}, {hi:.4f}] (count {outcome['count']} "
                    f"of {collapse['n_resolved']})"
                )
    return problems


def check_compare(compare: dict) -> list[str]:
    """MC engine distance within the oracle distance plus Z bootstrap errors."""
    problems = []
    rows = zip(
        compare["probe_times"],
        compare["mc_trace_distance"],
        compare["mc_error"],
        compare["oracle_trace_distance"],
    )
    for t, mc, err, oracle in rows:
        if not mc <= oracle + Z * err + ROUND_OFF:
            problems.append(
                f"compare t={t}: mc distance {mc:.4g} > oracle {oracle:.4g} + {Z:g}*{err:.4g}"
            )
    return problems


def check_sweep(rows: list[dict]) -> list[str]:
    """|mc - channel| <= 3 mc_error + 2 * noise floor, on every sweep row.

    sweep.csv does not carry the ensemble noise floor, so it is estimated
    from the rows themselves: the smallest excess of the Monte Carlo
    distance over the channel distance. At the largest mu the channel
    distance is near zero, so that excess is the finite-ensemble floor.
    """
    if not rows:
        return ["sweep.csv has no rows"]
    floor = max(0.0, min(r["mc_distance"] - r["channel_distance"] for r in rows))
    problems = []
    for r in rows:
        gap = abs(r["mc_distance"] - r["channel_distance"])
        allowance = 3.0 * r["mc_error"] + 2.0 * floor
        if not (math.isfinite(gap) and gap <= allowance):
            problems.append(
                f"sweep mu={r['mu']}: |mc - channel| = {gap:.4g} > {allowance:.4g}"
            )
    return problems


def read_sweep(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_artifacts(out_dir: Path, command: str, born_table) -> list[str]:
    """All checks that apply to the artifacts a `run` or `sweep` left in out_dir."""
    try:
        if command == "sweep":
            return check_sweep(read_sweep(out_dir / "sweep.csv"))
        summary = json.loads((out_dir / "summary.json").read_text())
        problems = check_summary(summary, born_table)
        for name in ("trajectories.csv", "events.csv"):
            if not (out_dir / name).is_file():
                problems.append(f"{name} is missing")
        if summary.get("engine") == "both":
            problems += check_compare(json.loads((out_dir / "compare.json").read_text()))
        return problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"artifacts unreadable: {type(exc).__name__}: {exc}"]
