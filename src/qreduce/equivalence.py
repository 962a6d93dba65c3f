"""Oracles and statistical harnesses for the two reduction processes.

The ensemble of either process has a deterministic statistical operator:
one hitting averages to an elementwise Gaussian damping of off-diagonal
elements in the joint eigenbasis, a Poisson stream of hittings to an
exponential channel, and the diffusive process to a double-commutator
(Lindblad) generator. These closed forms, plus brute-force quadrature
cross-checks, calibrate the Monte Carlo engines and quantify how fast
the hitting process approaches its continuous limit under
beta * mu = 2 * gamma.

The oracle functions take a statistical operator of any dimension d.
The harnesses (:func:`engine_comparison`, :func:`convergence_sweep`)
take the one ``trajectory.LiveBlock`` that a command cuts, and call
them on it, where the engines also run: the L x L ``rho0`` is the outer
product of psi0's live joint coefficients, the quantities are the
basis-free set of the live table rows and the Hamiltonian is the L x L
block of the joint-basis one. Outside that block rho0 is 0 and neither
master equation couples anything into it, so every entry there stays
exactly 0 and each trace distance is the block's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from .errors import DimensionMismatchError
from .hilbert import _SPREAD_BLOCK_ELEMENTS, Hamiltonian, QuantitySet, StateVector
from .hitting import HitStream
from .continuous import ContinuousConfig, gamma_vector, snapped_dt
from .ensemble import (
    SWEEP_STREAM,
    derive_seed,
    run_continuous_ensemble,
    run_hitting_ensemble,
)
from .trajectory import Ensemble, LiveBlock

__all__ = [
    "DensityMatrix",
    "EnsembleStats",
    "trace_norm_distance",
    "exact_hitting_map",
    "hitting_master_evolution",
    "lindblad_evolution",
    "ensemble_density_matrix",
    "ensemble_stats",
    "convergence_sweep",
    "factorization_check",
    "collapse_statistics",
    "wilson_interval",
]


class DensityMatrix:
    """Statistical operator: Hermitian, unit trace, positive semidefinite."""

    __slots__ = ("rho",)

    TRACE_TOL = 1e-10
    HERMITIAN_TOL = 1e-10
    EIGEN_TOL = 1e-8

    def __init__(self, rho, *, validate: bool = True):
        m = np.array(rho, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"density matrix must be square, got {m.shape}")
        if validate:
            tr = complex(np.trace(m))
            if abs(tr - 1.0) > 100 * self.TRACE_TOL:
                raise ValueError(f"trace is {tr!r}, expected 1")
            defect = float(np.max(np.abs(m - m.conj().T)))
            if defect > 100 * self.HERMITIAN_TOL:
                raise ValueError(f"deviates from Hermiticity by {defect:.3e}")
            lowest = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))
            if lowest < -self.EIGEN_TOL:
                raise ValueError(f"negative eigenvalue {lowest:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "rho", m)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityMatrix":
        amps = psi.amplitudes
        return cls(np.outer(amps, amps.conj()), validate=False)

    @classmethod
    def from_state_rows(cls, rows: np.ndarray) -> "DensityMatrix":
        """Equal-weight mixture of the (n, d) state rows."""
        rows = np.asarray(rows, dtype=np.complex128)
        norms2 = np.sum(np.abs(rows) ** 2, axis=1)
        rho = (rows.T @ rows.conj()) / norms2.sum()
        return cls(rho, validate=False)

    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real)

    def min_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh(self.rho)))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def trace_norm_distance(a, b) -> float:
    """Trace norm of the difference of two Hermitian operators.

    Both arguments must be Hermitian (density matrices are): the norm is
    then the sum of the absolute eigenvalues of the difference, which is
    the sum of its singular values at the cost of a Hermitian
    eigensolver. ``eigvalsh`` reads only the lower triangle.
    """
    am = a.rho if isinstance(a, DensityMatrix) else np.asarray(a)
    bm = b.rho if isinstance(b, DensityMatrix) else np.asarray(b)
    return float(np.abs(np.linalg.eigvalsh(am - bm)).sum())


def _rows_distance(rows_a: np.ndarray, rows_b: np.ndarray) -> float:
    """Trace distance between the equal-weight mixtures of two state-row sets."""
    return trace_norm_distance(
        DensityMatrix.from_state_rows(rows_a), DensityMatrix.from_state_rows(rows_b)
    )


def _pairwise_sq_distances(table: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """(d, d) matrix of squared eigenvalue-row separations.

    With ``weights`` element (k, l) is sum_p weights_p (alpha_kp - alpha_lp)^2.
    Built over blocks of rows, as ``QuantitySet.spectral_spread`` is, so
    no (d, d, K) difference array exists at once; every element is the
    same sum as over the whole table at once, bit for bit.
    """
    dim, num_q = table.shape
    out = np.empty((dim, dim))
    block = max(1, _SPREAD_BLOCK_ELEMENTS // (dim * num_q))
    for start in range(0, dim, block):
        diffs = table[start : start + block, np.newaxis, :] - table[np.newaxis, :, :]
        diffs **= 2
        if weights is None:
            np.sum(diffs, axis=-1, out=out[start : start + block])
        else:
            np.einsum("klp,p->kl", diffs, weights, out=out[start : start + block])
    return out


def exact_hitting_map(rho: DensityMatrix, quantities: QuantitySet, beta: float) -> DensityMatrix:
    """Average effect of a single hitting on the statistical operator.

    Integrating S_a rho S_a over all centres leaves the joint-basis
    diagonal untouched and damps element (k, l) by
    exp(-beta/4 * |alpha_k - alpha_l|^2). The limit beta -> 0 is the
    identity map.
    """
    rho_joint = quantities.operator_to_joint(rho.rho)
    damping = np.exp(-0.25 * beta * _pairwise_sq_distances(quantities.eigenvalue_table))
    return DensityMatrix(quantities.operator_from_joint(damping * rho_joint), validate=False)


def _rk4(rho: np.ndarray, rhs, times: np.ndarray, step: float) -> list[np.ndarray]:
    """Fourth-order Runge-Kutta from t = 0 to each of ``times`` in turn.

    Each interval between consecutive times (non-decreasing) is crossed
    in whole steps of at most ``step``, so every returned state is at its
    own time exactly.
    """
    out, now = [], 0.0
    for t in times:
        span = float(t) - now
        n = max(1, math.ceil(span / step - 1e-9)) if span > 0 else 0
        dt = span / n if n else 0.0
        for _ in range(n):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * dt * k1)
            k3 = rhs(rho + 0.5 * dt * k2)
            k4 = rhs(rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(rho)
        now = float(t)
    return out


def _evolution_grid(t_end: float, sample_times) -> np.ndarray:
    if sample_times is None:
        return np.array([0.0, t_end])
    times = np.asarray(sample_times, dtype=float)
    if np.any(times < 0) or np.any(times > t_end + 1e-12):
        raise ValueError("sample times must lie in [0, t_end]")
    if np.any(np.diff(times) < 0):
        raise ValueError("sample times must be non-decreasing")
    return times


def _deterministic_series(
    rho0: DensityMatrix,
    quantities: QuantitySet,
    rate_matrix: np.ndarray,
    hamiltonian: Hamiltonian | None,
    t_end: float,
    sample_times,
    dt: float | None,
) -> tuple[np.ndarray, list[DensityMatrix]]:
    """Shared driver for both master equations.

    ``rate_matrix`` holds the elementwise decay rates of joint-basis
    off-diagonal elements. With no Hamiltonian the solution is the closed
    form rho_kl(0) * exp(-rate_kl * t); otherwise fourth-order
    Runge-Kutta with the step bounded so (fastest rate) * dt <= 0.01, or
    by ``dt`` when given, in whole steps between consecutive sample times.
    """
    rho_joint = quantities.operator_to_joint(rho0.rho)
    times = _evolution_grid(t_end, sample_times)

    def back(m: np.ndarray) -> DensityMatrix:
        return DensityMatrix(quantities.operator_from_joint(m), validate=False)

    if hamiltonian is None:
        series = [back(np.exp(-rate_matrix * t) * rho_joint) for t in times]
        return times, series

    h_joint = quantities.joint_hamiltonian(hamiltonian)

    def rhs(m: np.ndarray) -> np.ndarray:
        comm = h_joint @ m - m @ h_joint
        return -1j * comm - rate_matrix * m

    h_scale = float(np.max(np.abs(np.linalg.eigvalsh(h_joint)))) * 2
    fastest = max(float(np.max(rate_matrix)), h_scale, 1e-12)
    step = dt if dt is not None else 0.01 / fastest
    out = _rk4(rho_joint, rhs, times, step)
    return times, [back(m) for m in out]


def hitting_master_evolution(
    rho0: DensityMatrix,
    quantities: QuantitySet,
    streams: list[HitStream],
    t_end: float,
    *,
    hamiltonian: Hamiltonian | None = None,
    sample_times=None,
    dt: float | None = None,
) -> tuple[np.ndarray, list[DensityMatrix]]:
    """Ensemble evolution under independent Poisson streams of hittings.

    Stream s adds mu_s * (T_s[rho] - rho), with T_s the exact hitting map
    on its own columns, so without a Hamiltonian joint-basis element
    (k, l) decays at rate sum_s mu_s * (1 - exp(-beta_s/4 *
    sum_{p in s} (alpha_kp - alpha_lp)^2)). That tends to the diffusive
    rate 1/2 * sum_p gamma_p (alpha_kp - alpha_lp)^2 as every beta_s -> 0
    with each beta_s * mu_s held, where gamma_p sums beta_s * mu_s / 2
    over the streams that hit p.
    """
    table = quantities.eigenvalue_table
    rates = 0.0
    for s in streams:
        damping = np.exp(-0.25 * s.beta * _pairwise_sq_distances(table[:, s.quantity_indices]))
        rates = rates + s.mu * (1.0 - damping)
    return _deterministic_series(
        rho0, quantities, rates, hamiltonian, t_end, sample_times, dt
    )


def lindblad_evolution(
    rho0: DensityMatrix,
    quantities: QuantitySet,
    gamma,
    t_end: float,
    *,
    hamiltonian: Hamiltonian | None = None,
    sample_times=None,
    dt: float | None = None,
) -> tuple[np.ndarray, list[DensityMatrix]]:
    """Ensemble evolution of the diffusive process.

    Double-commutator generator; in the joint eigenbasis element (k, l)
    decays at rate 1/2 * sum_p gamma_p (alpha_kp - alpha_lp)^2. ``gamma``
    may be scalar or per-quantity.
    """
    rates = 0.5 * _pairwise_sq_distances(
        quantities.eigenvalue_table, gamma_vector(gamma, quantities.num_quantities)
    )
    return _deterministic_series(
        rho0, quantities, rates, hamiltonian, t_end, sample_times, dt
    )


def ensemble_density_matrix(ens: Ensemble, t: float, quantities: QuantitySet) -> DensityMatrix:
    """Monte Carlo statistical operator at ``t``, in the computational basis.

    The L x L mixture of the live joint-basis snapshots is written into
    d x d and rotated back through ``quantities``, the set the ensemble
    ran on.
    """
    block = DensityMatrix.from_state_rows(ens.states[ens.sample_index(t)]).rho
    rho = np.zeros((ens.dim, ens.dim), dtype=np.complex128)
    rho[np.ix_(ens.live, ens.live)] = block
    return DensityMatrix(quantities.operator_from_joint(rho), validate=False)


@dataclass
class EnsembleStats:
    """Per-time ensemble summaries of a trajectory collection."""

    times: np.ndarray
    mean_weights: np.ndarray      # (samples, d)
    mean_weight_se: np.ndarray    # (samples, d)
    trajectory_count: int

    def __post_init__(self):
        sums = self.mean_weights.sum(axis=1)
        worst = float(np.max(np.abs(sums - 1.0))) if sums.size else 0.0
        if worst > 1e-8:
            raise ValueError(f"mean-weight rows deviate from 1 by {worst:.3e}")


def ensemble_stats(ens: Ensemble) -> EnsembleStats:
    """Mean Born weights with standard errors on the ensemble's sample grid.

    Both are reduced over the ensemble's live coordinates and are 0
    elsewhere, as every weight there is.
    """
    n = len(ens)
    mean = np.zeros((ens.sample_times.size, ens.dim))
    se = np.zeros_like(mean)
    mean[:, ens.live] = ens.weights.mean(axis=1)
    if n > 1:
        se[:, ens.live] = ens.weights.std(axis=1, ddof=1) / math.sqrt(n)
    return EnsembleStats(
        times=ens.sample_times,
        mean_weights=mean,
        mean_weight_se=se,
        trajectory_count=n,
    )


# -- collapse statistics ------------------------------------------------------


def wilson_interval(successes: int, n: int, z: float = 3.0) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The interval of 0 successes starts at exactly 0 and that of n
    successes ends at exactly 1 (the closed form, which rounding misses).
    """
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1.0 + z**2 / n
    centre = (p + z**2 / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2))
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == n else min(1.0, centre + half)
    return lo, hi


# Candidate pairs tested per block in _near_pairs; bounds its temporaries.
_PAIR_BLOCK = 1 << 16
_EPS = float(np.finfo(float).eps)


def _near_pairs(rows: np.ndarray, radius: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i < j) of rows that differ by at most ``radius`` in every column.

    The candidates are the rows whose projections on one fixed generic
    direction lie within the projected radius, plus a rounding slack, of
    each other, so they hold every near pair; each candidate then gets
    the exact test ``|row_i - row_j| <= radius``.
    """
    n, k = rows.shape
    direction = np.random.default_rng(0).uniform(1.0, 2.0, k)
    window = float(direction.sum()) * (radius * (1.0 + 8 * _EPS) + 8 * (k + 2) * _EPS * scale)
    proj = rows @ direction
    order = np.argsort(proj, kind="stable")
    proj = proj[order]
    # sorted row r is a candidate with the counts[r] rows after it
    counts = np.searchsorted(proj, proj + window, side="right") - np.arange(1, n + 1)
    offsets = np.cumsum(counts) - counts
    pairs_a, pairs_b = [], []
    lo = 0
    while lo < n:
        hi = max(int(np.searchsorted(offsets, offsets[lo] + _PAIR_BLOCK, side="right")), lo + 1)
        block = counts[lo:hi]
        first = np.repeat(np.arange(lo, hi), block)
        second = first + 1 + np.arange(first.size) - np.repeat(offsets[lo:hi] - offsets[lo], block)
        i, j = order[first], order[second]
        near = np.all(np.abs(rows[i] - rows[j]) <= radius, axis=1)
        pairs_a.append(np.minimum(i, j)[near])
        pairs_b.append(np.maximum(i, j)[near])
        lo = hi
    return np.concatenate(pairs_a), np.concatenate(pairs_b)


# Relative tolerance under which two eigenvalue rows count as one outcome.
_ROW_TOL = 1e-8


def group_eigenvalue_rows(quantities: QuantitySet) -> np.ndarray:
    """Label joint eigenvectors by distinct eigenvalue row.

    Two rows are near when every eigenvalue differs by at most
    ``_ROW_TOL * max(max|table|, 1)``. The labels are those of a greedy pass
    in row order: each row that no earlier label reached opens the next
    label and gives it to every row near it, relabelling rows that an
    earlier label reached. So each row ends with the label of the last
    opener near it; nearness is not transitive, and a chain of near rows
    can split between labels.

    Degenerate rows share a label; collapse statistics aggregate Born
    weights over each label before thresholding. Identical rows are
    merged by one sort, and only the pairs of distinct rows whose
    projections on one direction are within the tolerance are tested:
    O(d log d) plus the near pairs, and no (d, d) array.
    """
    table = quantities.eigenvalue_table
    scale = max(float(np.max(np.abs(table))), 1.0)
    radius = _ROW_TOL * scale
    # identical rows always share a label; number them by first appearance
    rows, first, inverse = np.unique(table, axis=0, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    rows, inverse = rows[by_first], rank[inverse.reshape(-1)]

    a, b = _near_pairs(rows, radius, scale)
    # a row opens a label unless an earlier opener is near it; pairs in
    # order of their later row settle each earlier row before it is read
    opener = np.ones(rows.shape[0], dtype=bool)
    for j, i in sorted(zip(b.tolist(), a.tolist())):
        if opener[i]:
            opener[j] = False
    # each row keeps the label of the last opener near it
    last = np.where(opener, np.arange(rows.shape[0]), -1)
    np.maximum.at(last, b, np.where(opener[a], a, -1))
    np.maximum.at(last, a, np.where(opener[b], b, -1))
    return (np.cumsum(opener) - 1)[last][inverse]


def _sum_by_label(weights: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums of the (n, d) ``weights`` over the columns of each label, and
    the first column of each label, for the distinct labels in ascending
    order.

    Each sum starts at 0.0 and adds the label's columns left to right,
    as ``weights[:, labels == g].sum(axis=1)`` does on that (F-ordered)
    copy, so the sums are bit-identical to it. The loop runs once per
    column rank within a label, not once per label: once when every
    row of the eigenvalue table is distinct.
    """
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    sizes = np.diff(starts, append=order.size)
    grouped = np.zeros((weights.shape[0], starts.size))
    for rank in range(int(sizes.max())):
        has = sizes > rank
        grouped[:, has] += weights[:, order[starts[has] + rank]]
    return grouped, order[starts]


@dataclass
class OutcomeStat:
    eigenvalues: tuple[float, ...]
    count: int
    frequency: float
    ci_low: float
    ci_high: float


@dataclass
class CollapseReport:
    """Terminal-outcome frequencies with Wilson intervals.

    ``outcomes`` lists the eigenvalue-row labels that hold a live
    coordinate of the ensemble; ``unlisted_outcomes`` counts the other
    labels, whose Born weight is exactly 0 on every trajectory.
    ``unresolved`` counts trajectories whose largest aggregated Born
    weight never reached the threshold; they are reported, not errors
    (with few hittings there is a genuine probability that no reduction
    takes place).
    """

    outcomes: list[OutcomeStat]
    unlisted_outcomes: int
    n_trajectories: int
    n_resolved: int
    unresolved_count: int
    unresolved_fraction: float
    threshold: float
    threshold_sensitivity: dict[float, float]


# A trajectory is resolved once its largest aggregated Born weight reaches
# _COLLAPSE_THRESHOLD; the unresolved fraction is also reported at each of
# _SENSITIVITY_THRESHOLDS. Outcome intervals are Wilson intervals at _COLLAPSE_Z.
_COLLAPSE_THRESHOLD = 0.999
_SENSITIVITY_THRESHOLDS = (0.99, 0.9999)
_COLLAPSE_Z = 3.0


def collapse_statistics(ens: Ensemble, quantities: QuantitySet) -> CollapseReport:
    """Frequencies of terminal collapse outcomes across an ensemble.

    Terminal Born weights are summed per label of
    :func:`group_eigenvalue_rows` over the ensemble's live columns
    (:func:`_sum_by_label`) and the winners counted with one
    ``bincount``: O(n L) past the grouping. The labels are those of the
    whole table, and each outcome is named by its label's first row. A
    label with no live column has weight 0, so it never wins a resolved
    trajectory; it is counted in ``unlisted_outcomes``, not listed.
    """
    labels = group_eigenvalue_rows(quantities)
    live_labels = labels[ens.live]
    grouped, firsts = _sum_by_label(ens.weights[-1], live_labels)
    _, group_firsts = np.unique(labels, return_index=True)
    # the labels with a live column, ascending, and the first row of each
    listed = live_labels[firsts]
    group_rows = quantities.eigenvalue_table[group_firsts[listed]].tolist()
    best = grouped.max(axis=1)
    winner = grouped.argmax(axis=1)

    sensitivity = {
        th: float(np.mean(best < th))
        for th in (*_SENSITIVITY_THRESHOLDS, _COLLAPSE_THRESHOLD)
    }
    resolved = best >= _COLLAPSE_THRESHOLD
    n_resolved = int(resolved.sum())
    counts = np.bincount(winner[resolved], minlength=listed.size).tolist()
    outcomes = []
    for row, count in zip(group_rows, counts):
        freq = count / n_resolved if n_resolved else 0.0
        lo, hi = wilson_interval(count, n_resolved, _COLLAPSE_Z)
        outcomes.append(OutcomeStat(tuple(row), count, freq, lo, hi))
    n = len(ens)
    return CollapseReport(
        outcomes=outcomes,
        unlisted_outcomes=group_firsts.size - listed.size,
        n_trajectories=n,
        n_resolved=n_resolved,
        unresolved_count=n - n_resolved,
        unresolved_fraction=(n - n_resolved) / n if n else 0.0,
        threshold=_COLLAPSE_THRESHOLD,
        threshold_sensitivity=sensitivity,
    )


# -- factorization of the joint hitting probability ---------------------------


def factorization_check(
    psi: StateVector, quantities: QuantitySet, beta: float, grid
) -> float:
    """Largest gap between conditional and marginal centre densities.

    For two consecutive hittings the joint density factorizes only in the
    beta -> 0 limit; this evaluates
    max over (a1, a2) of |P(a2 | a1 applied) - P(a2)| on the grid using
    the exact matrix expressions. Zero for eigenstates at any beta.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, np.newaxis]
    if pts.shape[1] != quantities.num_quantities:
        raise DimensionMismatchError(
            f"grid points have {pts.shape[1]} components, expected "
            f"{quantities.num_quantities}"
        )
    table = quantities.eigenvalue_table
    weights = quantities.born_weights(psi)
    dist2 = np.sum(
        (table[:, np.newaxis, :] - pts[np.newaxis, :, :]) ** 2, axis=2
    )  # (d, n)
    damp = np.exp(-beta * dist2)
    pref = (beta / math.pi) ** (quantities.num_quantities / 2.0)
    marginal = pref * (weights @ damp)                      # (n,)
    joint = pref * ((weights[:, np.newaxis] * damp).T @ damp)  # (n, n): a1 rows
    conditional = joint / (weights @ damp)[:, np.newaxis]
    return float(np.max(np.abs(conditional - marginal[np.newaxis, :])))


# -- the infinite-frequency convergence sweep ----------------------------------


@dataclass
class SweepRow:
    """One entry of the convergence study: the streams at total rate ``mu``."""

    mu: float
    streams: list[HitStream]
    channel_distance: float
    mc_distance: float
    mc_error: float


def _streams_at_rate(streams: list[HitStream], gamma: np.ndarray, total: float) -> list[HitStream]:
    """``streams`` at total rate ``total``, rate ratios and strengths held.

    Stream s runs at mu_s' = total * mu_s / M (M = sum of the mu_s) and
    beta_s' = 2 g_s / mu_s'. Its strength g_s is its share by beta * mu
    of ``gamma`` (per quantity) at its first quantity p, which is
    beta_s * mu_s / 2 whenever gamma_p sums beta * mu / 2 over the streams
    hitting p. One stream keeps beta' = 2 gamma / total bit for bit.
    """
    base = sum(s.mu for s in streams)
    out = []
    for s in streams:
        p = s.quantity_indices[0]
        shared = sum(t.beta * t.mu for t in streams if p in t.quantity_indices)
        strength = float(gamma[p]) * (s.beta * s.mu / shared)
        mu = total * (s.mu / base)
        out.append(replace(s, beta=2.0 * strength / mu, mu=mu))
    return out


# The most bytes one block of bootstrap replicates takes in
# _bootstrap_distance, beside the two ensembles' rows: at live d = 2 with
# 1000 + 1000 rows a replicate takes about 110 kB, so 9 replicates share
# a block; at d = 715 a block holds one replicate. A replicate's numbers
# do not depend on its block, so the budget moves no bit.
_BOOTSTRAP_BLOCK_BYTES = 1 << 20


def _resampled_mixtures(cols: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(blk, d, d) mixtures of the n state rows held as the (d, n) ``cols``.

    Row i is weighted by ``counts[:, i]``, so each mixture is
    ``DensityMatrix.from_state_rows`` of the rows drawn ``counts`` times,
    up to rounding.
    """
    rho = (cols * counts[:, np.newaxis, :]) @ cols.T.conj()
    rho /= (counts @ np.sum(np.abs(cols) ** 2, axis=0))[:, np.newaxis, np.newaxis]
    return rho


def _draw_counts(rng: np.random.Generator, n_a: int, n_b: int, m: int) -> np.ndarray:
    """(m, n_a + n_b) float draw counts of m replicates.

    Replicate b draws ``rng.integers(0, n_a, n_a)`` and then
    ``rng.integers(0, n_b, n_b)``; its counts of rows_a fill the first n_a
    columns of row b, those of rows_b the rest. When n_a = n_b one call
    draws all 2m index blocks: numpy's bounded integers of a range below
    2**32 are consecutive 32-bit draws of the bit generator, so its values
    and the generator's state afterwards are those of the 2m calls.
    """
    n = n_a + n_b
    if n_a == n_b:
        keys = rng.integers(0, n_a, m * n).reshape(m, n)
    else:
        keys = np.array(
            [np.concatenate((rng.integers(0, n_a, n_a), rng.integers(0, n_b, n_b)))
             for _ in range(m)]
        )
    keys[:, n_a:] += n_a
    keys += n * np.arange(m)[:, np.newaxis]
    counts = np.bincount(keys.reshape(-1), minlength=m * n)
    del keys
    return counts.reshape(m, n).astype(float)


def _bootstrap_distance(
    rows_a: np.ndarray, rows_b: np.ndarray, n_boot: int, rng: np.random.Generator
) -> float:
    """Standard deviation of the trace distance over ``n_boot`` resamplings.

    Replicate b draws ``rng.integers(0, n_a, n_a)`` and then
    ``rng.integers(0, n_b, n_b)``, replicate after replicate. Its draws
    become count vectors, and a block of replicates is evaluated as one
    stack of density matrices and one batched ``eigvalsh``.
    """
    # contiguous (d, n) columns: the weighting then streams through memory
    cols_a = np.ascontiguousarray(rows_a.T, dtype=np.complex128)
    cols_b = np.ascontiguousarray(rows_b.T, dtype=np.complex128)
    (d, n_a), n_b = cols_a.shape, cols_b.shape[1]
    # per replicate: the draws, their counts as integers and as floats, two
    # weighted row copies, three d x d matrices and eigvalsh's copy
    per_replicate = 24 * (n_a + n_b) + 16 * d * (n_a + n_b + 4 * d)
    blk = max(1, _BOOTSTRAP_BLOCK_BYTES // per_replicate)
    dists = np.empty(n_boot)
    for lo in range(0, n_boot, blk):
        m = min(blk, n_boot - lo)
        counts = _draw_counts(rng, n_a, n_b, m)
        diff = _resampled_mixtures(cols_a, counts[:, :n_a])
        diff -= _resampled_mixtures(cols_b, counts[:, n_a:])
        dists[lo : lo + m] = np.abs(np.linalg.eigvalsh(diff)).sum(axis=1)
    return float(dists.std(ddof=1))


def convergence_sweep(
    block: LiveBlock,
    streams: list[HitStream],
    gamma,
    rates,
    n_trajectories: int,
    t_probe: float,
    master_seed: int,
    *,
    dt: float | None = None,
    n_bootstrap: int = 100,
    workers: int = 1,
) -> list[SweepRow]:
    """Distance between the two processes as the hitting rate grows.

    Each swept value (sorted ascending) is the total rate of the hitting
    process: the streams keep their rate ratios and each its
    beta_s * mu_s (:func:`_streams_at_rate`), so the effectiveness stays
    that of the diffusive process of strength ``gamma`` (scalar or per
    quantity). A single stream runs at mu = value and
    beta = 2 * gamma / value. Reports the deterministic channel distance
    (hitting master equation vs Lindblad at the probe time, both under
    the block's Hamiltonian) and the trace-norm distance between the
    Monte Carlo ensembles at the probe time, with a bootstrap error.
    Every distance, oracle and Monte Carlo, is taken on psi0's live
    ``block``, where both ensembles run and every operator lives, so the
    oracles cost O(L^2), not O(d^2).

    The ensembles come from the ensemble runners with ``workers``
    processes, so the table is the same for any worker count. The
    diffusive ensemble is ``run_continuous_ensemble`` with
    ``master_seed``, stepped at ``continuous.snapped_dt``: the longest
    step at or below ``dt`` (``suggested_dt`` of the block's quantities
    without it) that divides ``t_probe`` into whole steps; a step that
    already divides it is kept bit for bit, so ``qreduce sweep`` passes
    the step it snapped on the whole quantity set. The hitting ensemble
    of the i-th value (i = 1, 2, ...) is ``run_hitting_ensemble`` with
    master seed ``derive_seed(master_seed, SWEEP_STREAM, i)``, and its
    bootstrap draws from ``default_rng(derive_seed(master_seed, 1000 + i))``.
    """
    rates = sorted(float(m) for m in rates)
    gamma_p = gamma_vector(gamma, block.quantities.num_quantities)
    step = snapped_dt(block.quantities, gamma, t_probe, dt)
    config = ContinuousConfig(gamma=gamma, dt=step, t_end=t_probe, record_interval=t_probe)
    cont_rows = run_continuous_ensemble(
        block, config, n_trajectories, master_seed, workers=workers
    ).states[-1]

    rho0 = DensityMatrix(np.outer(block.coeffs, block.coeffs.conj()), validate=False)
    h_block = None if block.h_joint is None else Hamiltonian(block.h_joint)
    _, lind = lindblad_evolution(rho0, block.quantities, gamma, t_probe, hamiltonian=h_block)
    rho_lind = lind[-1]

    rows = []
    for i, total in enumerate(rates, start=1):
        swept = _streams_at_rate(streams, gamma_p, total)
        _, master = hitting_master_evolution(
            rho0, block.quantities, swept, t_probe, hamiltonian=h_block
        )
        channel = trace_norm_distance(master[-1], rho_lind)

        hit_rows = run_hitting_ensemble(
            block, swept, t_probe, t_probe, n_trajectories,
            derive_seed(master_seed, SWEEP_STREAM, i), workers=workers,
        ).states[-1]
        mc = _rows_distance(hit_rows, cont_rows)
        boot_rng = np.random.default_rng(derive_seed(master_seed, 1000 + i))
        err = _bootstrap_distance(hit_rows, cont_rows, n_bootstrap, boot_rng)
        rows.append(SweepRow(total, swept, channel, mc, err))
    return rows


@dataclass
class EngineComparison:
    """Per-time distances between the two engines' ensembles."""

    times: np.ndarray
    mc_distance: np.ndarray
    mc_error: np.ndarray
    oracle_distance: np.ndarray


def engine_comparison(
    hitting: Ensemble,
    continuous: Ensemble,
    block: LiveBlock,
    streams: list[HitStream],
    gamma,
    *,
    n_bootstrap: int = 50,
    seed: int = 0,
) -> EngineComparison:
    """Trace-norm distances per probe time, with bootstrap errors.

    ``streams`` is the hitting process and ``gamma`` (scalar or per
    quantity) the diffusive strength. The oracle distance of a probe time
    is that between the hitting master equation of the streams and the
    Lindblad equation, both from psi0 and under the Hamiltonian of its
    live ``block``. The Monte Carlo distances of a probe time are taken
    between the mixtures of the two ensembles' states on the block's
    live coordinates, where both mixtures live. The oracles run on that
    same block, as L x L series: outside it every entry of both is
    exactly 0, so their distance is the block's. Raises ``ValueError``
    when the two ensembles' sample grids differ, or when either
    ensemble's live coordinates are not the block's.
    """
    times = hitting.sample_times
    other = continuous.sample_times
    if other.shape != times.shape or not np.allclose(other, times):
        raise ValueError("the two ensembles do not share a sample grid")
    for ens in (hitting, continuous):
        if ens.dim != block.dim or not np.array_equal(ens.live, block.live):
            raise ValueError("the ensembles' live coordinates are not those of psi0's block")
    rng = np.random.default_rng(seed)
    mc = np.empty(times.size)
    err = np.empty(times.size)
    for i, (rows_h, rows_c) in enumerate(zip(hitting.states, continuous.states)):
        mc[i] = _rows_distance(rows_h, rows_c)
        err[i] = _bootstrap_distance(rows_h, rows_c, n_bootstrap, rng)
    rho0 = DensityMatrix(np.outer(block.coeffs, block.coeffs.conj()), validate=False)
    h_block = None if block.h_joint is None else Hamiltonian(block.h_joint)
    inner = times.copy()
    inner[0] = 0.0
    _, master = hitting_master_evolution(
        rho0, block.quantities, streams, float(times[-1]), hamiltonian=h_block,
        sample_times=inner,
    )
    _, lind = lindblad_evolution(
        rho0, block.quantities, gamma, float(times[-1]), hamiltonian=h_block,
        sample_times=inner,
    )
    oracle = np.array([trace_norm_distance(m, l) for m, l in zip(master, lind)])
    return EngineComparison(times=times, mc_distance=mc, mc_error=err, oracle_distance=oracle)
