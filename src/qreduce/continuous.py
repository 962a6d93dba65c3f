"""The continuous diffusive reduction process.

An Ito stochastic differential equation drives the state toward joint
eigenvectors of the quantity set:

    d|psi> = [ -(i/hbar) H dt
               + sum_p sqrt(g_p) (A_p - <A_p>) dB_p
               - 1/2 sum_p g_p (A_p - <A_p>)^2 dt ] |psi>

integrated by Euler-Maruyama with per-step renormalization. The
expectation <A_p> is always evaluated at the pre-step state (Ito
convention; a midpoint reading would change the drift). The strength is
a scalar or one value per quantity, and equals beta*mu/2 of the parent
hitting process in the infinite-frequency limit.

In the joint eigenbasis a step multiplies each amplitude by its own
real factor and adds the Hamiltonian term, so an amplitude that is 0 on
a coordinate the Hamiltonian couples to no other stays exactly 0
(``0 * factor + h_ii * 0``). The engine integrates only the other, live
coordinates (:func:`~qreduce.trajectory.run_on_live_block`): a
superposition of a few Fock states costs a kernel of their count, not
of d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionMismatchError, StepRejectedError
from .hilbert import Hamiltonian, QuantitySet, StateVector
from .trajectory import (
    Ensemble,
    TrajectoryRecord,
    _coerce_rng,
    record_grid,
    run_on_live_block,
)

__all__ = [
    "ContinuousConfig",
    "WienerIncrement",
    "strength_from_hitting",
    "suggested_dt",
    "sde_step",
    "simulate_continuous_trajectory",
]


def strength_from_hitting(beta: float, mu: float) -> float:
    """Strength of the continuous process equivalent to a hitting process.

    The effectiveness of a hitting process depends on accuracy and
    frequency only through their product: gamma = beta * mu / 2. The same
    formula gives the per-particle strength alpha * lambda_l / 2 in the
    distinguishable-particle model.
    """
    if beta <= 0 or mu <= 0:
        raise ValueError("beta and mu must be > 0")
    return beta * mu / 2.0


def suggested_dt(quantities: QuantitySet, gamma) -> float:
    """Step size keeping gamma * (spectral spread) * dt at or below 0.01."""
    g = float(np.max(np.asarray(gamma, dtype=float)))
    spread = quantities.spectral_spread()
    if g * spread <= 0:
        return 1e-2
    return 0.01 / (g * spread)


@dataclass(frozen=True)
class ContinuousConfig:
    """Integration parameters for the diffusive process.

    ``gamma`` may be a scalar or a per-quantity sequence. The record
    interval must be an integer multiple of ``dt`` so both engines share
    one sample grid.
    """

    gamma: float | tuple[float, ...]
    dt: float
    t_end: float
    record_interval: float

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if not np.all(np.isfinite(g)):
            raise ValueError("gamma must be finite")
        if np.any(g <= 0):
            raise ValueError("gamma must be > 0")
        object.__setattr__(
            self, "gamma", float(g[0]) if g.size == 1 else tuple(float(x) for x in g)
        )
        for name in ("dt", "t_end", "record_interval"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if self.dt > self.record_interval:
            raise ValueError("dt must not exceed record_interval")
        if self.record_interval > self.t_end:
            raise ValueError("record_interval must not exceed t_end")
        ratio = self.record_interval / self.dt
        if abs(ratio - round(ratio)) > 1e-6:
            raise ValueError("record_interval must be an integer multiple of dt")

    def gamma_vector(self, num_quantities: int) -> np.ndarray:
        g = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if g.size == 1:
            return np.full(num_quantities, g[0])
        if g.size != num_quantities:
            raise DimensionMismatchError(
                f"gamma has {g.size} components for {num_quantities} quantities"
            )
        return g

    @property
    def steps_per_record(self) -> int:
        return max(1, int(round(self.record_interval / self.dt)))


@dataclass(frozen=True)
class WienerIncrement:
    """Independent Gaussian increments, one per quantity, variance dt."""

    dB: np.ndarray

    @classmethod
    def draw(cls, rng: np.random.Generator, dt: float, num_quantities: int):
        return cls(dB=rng.standard_normal(num_quantities) * math.sqrt(dt))


def sde_step(
    psi: StateVector,
    quantities: QuantitySet,
    hamiltonian: Hamiltonian | None,
    gamma,
    dt: float,
    dB,
    *,
    renormalize: bool = True,
) -> StateVector:
    """One Euler-Maruyama update of the diffusive process.

    ``dB`` is a length-K array of Wiener increments (variance dt each) or
    a :class:`WienerIncrement`. Joint eigenvectors are exact fixed points
    when ``hamiltonian`` is None: every centred operator annihilates them.
    """
    increments = dB.dB if isinstance(dB, WienerIncrement) else np.asarray(dB, dtype=float)
    if increments.shape != (quantities.num_quantities,):
        raise DimensionMismatchError(
            f"dB must have shape ({quantities.num_quantities},), got {increments.shape}"
        )
    g = np.full(quantities.num_quantities, gamma, dtype=float) if np.isscalar(gamma) \
        else np.asarray(gamma, dtype=float)
    if g.shape != (quantities.num_quantities,):
        raise DimensionMismatchError("gamma vector length must match the quantity set")

    coeffs = quantities.to_joint(psi)
    delta = np.zeros_like(coeffs)
    for p in range(quantities.num_quantities):
        values = quantities.eigenvalue_table[:, p]
        mean = quantities.expectation(psi, p)
        centred = values * coeffs - mean * coeffs
        delta += math.sqrt(g[p]) * increments[p] * centred
        centred2 = values * centred - mean * centred
        delta -= 0.5 * g[p] * dt * centred2
    if hamiltonian is not None:
        h_joint = quantities.joint_hamiltonian(hamiltonian)
        delta += (-1j * dt / hamiltonian.hbar) * (h_joint @ coeffs)
    out = quantities.from_joint(coeffs + delta)
    if renormalize:
        return StateVector(out, normalize=True)
    return StateVector(out, tol=math.inf)


class _DiffusionKernel:
    """Precomputed joint-basis data for the integration loop.

    The step expands the drift's square once,

        sum_k g_k (A_dk - m_k)^2 = sum_k g_k A_dk^2 - 2 sum_k g_k A_dk m_k
                                   + sum_k g_k m_k^2,

    so a step needs two per-row products with the eigenvalue table and no
    (batch, d, K) offsets. The table is centred column by column at its
    midrange first: the offsets A_dk - m_k do not change, and the rounding
    of the expansion then scales with the spectral spread, not with the
    size of the eigenvalues. Every product over the batch is a per-row
    gufunc (``np.matvec``, ``np.vecmat``, ``np.vecdot``), so no output row
    depends on the other rows of its batch.
    """

    def __init__(
        self,
        quantities: QuantitySet,
        hamiltonian: Hamiltonian | None,
        config: ContinuousConfig,
    ):
        table = quantities.eigenvalue_table
        centred = table - 0.5 * (table.max(axis=0) + table.min(axis=0))
        gamma = config.gamma_vector(quantities.num_quantities)
        self.table_t = np.ascontiguousarray(centred.T)  # (K, d)
        self.noise_scale = math.sqrt(config.dt) * np.sqrt(gamma)
        self.half_dt_gamma = 0.5 * config.dt * gamma
        # (d,): 1 - dt/2 sum_k g_k A_dk^2, the part of the factor no row changes
        self.base_factor = 1.0 - (centred**2) @ self.half_dt_gamma
        self.h_joint = None
        if hamiltonian is not None:
            hj = quantities.joint_hamiltonian(hamiltonian)
            self.h_joint = np.ascontiguousarray((-1j * config.dt / hamiltonian.hbar) * hj)

    def step_batch(self, coeffs: np.ndarray, increments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance every row by one step; returns (new coeffs, norm ratios).

        ``coeffs``: (batch, d) joint-basis rows. ``increments``: (batch, K)
        Wiener increments of variance dt, already scaled by sqrt(gamma)
        (``noise_scale`` does both). The new rows are renormalized; the norm
        ratios are taken before that, for step-rejection checks.
        """
        weights = np.abs(coeffs) ** 2
        norms2 = weights.sum(axis=1)
        means = np.matvec(self.table_t, weights)
        means /= norms2[:, np.newaxis]
        half_drift = self.half_dt_gamma * means
        # with u the increments and A the centred table:
        # factor_d = 1 + sum_k A_dk (u_k + dt g_k m_k)
        #              - sum_k m_k (u_k + dt/2 g_k m_k) - dt/2 sum_k g_k A_dk^2
        factor = np.vecmat(increments + 2.0 * half_drift, self.table_t)
        factor += self.base_factor
        factor -= np.vecdot(means, increments + half_drift)[:, np.newaxis]
        out = coeffs * factor
        if self.h_joint is not None:
            out += np.matvec(self.h_joint, coeffs)
        new_norms2 = np.vecdot(out, out).real
        ratios = np.sqrt(new_norms2 / norms2)
        out *= (1.0 / np.sqrt(new_norms2))[:, np.newaxis]
        return out, ratios


def simulate_continuous_batch(
    psi0_rows: np.ndarray,
    hamiltonian: Hamiltonian | None,
    quantities: QuantitySet,
    config: ContinuousConfig,
    generators: list[np.random.Generator],
    *,
    store_states: bool = False,
    seeds=None,
) -> Ensemble:
    """Integrate a batch of trajectories in lockstep.

    ``psi0_rows`` is (batch, d) in the computational basis, one row per
    generator. Row b draws its (steps, K) standard normals from
    ``generators[b]``, block by block, so a row depends only on its own
    generator, never on the batch it runs in. ``seeds`` (one per row) are
    stored on the ensemble and reported by a :class:`StepRejectedError`,
    raised if any single step changes a norm by more than 50%. The live
    set is the union over the rows, which the runners fill with one psi0.
    """
    run = partial(
        _integrate, config=config, generators=generators, store_states=store_states, seeds=seeds
    )
    return run_on_live_block(run, quantities.to_joint(psi0_rows), quantities, hamiltonian)


def _integrate(
    coeffs: np.ndarray,
    quantities: QuantitySet,
    hamiltonian: Hamiltonian | None,
    *,
    config: ContinuousConfig,
    generators: list[np.random.Generator],
    store_states: bool,
    seeds,
) -> Ensemble:
    """The lockstep Euler-Maruyama loop on (batch, d) joint-basis rows."""
    kernel = _DiffusionKernel(quantities, hamiltonian, config)
    table = quantities.eigenvalue_table
    rec_times = record_grid(config.t_end, config.record_interval)
    steps_per_record = config.steps_per_record
    total_steps = (rec_times.size - 1) * steps_per_record

    batch = coeffs.shape[0]
    weights_out = np.empty((rec_times.size, batch, quantities.dim))
    expect_out = np.empty((rec_times.size, batch, quantities.num_quantities))
    states_out = (
        np.empty((rec_times.size, batch, quantities.dim), dtype=np.complex128)
        if store_states
        else None
    )

    def record(slot: int):
        w = np.abs(coeffs) ** 2
        w /= w.sum(axis=1)[:, np.newaxis]
        weights_out[slot] = w
        expect_out[slot] = np.vecmat(w, table)
        if states_out is not None:
            states_out[slot] = quantities.from_joint(coeffs)

    record(0)
    block = 256
    noise = np.empty((batch, min(block, total_steps), quantities.num_quantities))
    step = 0
    while step < total_steps:
        n = min(block, total_steps - step)
        for g, rows in zip(generators, noise[:, :n], strict=True):
            g.standard_normal(out=rows)
        noise[:, :n] *= kernel.noise_scale
        for i in range(n):
            coeffs, ratios = kernel.step_batch(coeffs, noise[:, i, :])
            drift = float(np.max(np.abs(ratios - 1.0)))
            if not drift <= 0.5:  # a NaN norm is rejected too
                bad = int(np.argmax(np.abs(ratios - 1.0)))
                seed = None if seeds is None else int(seeds[bad])
                raise StepRejectedError(
                    f"step changed a norm by {drift:.2f} (>50%); dt too large",
                    seed=seed,
                )
            step += 1
            if step % steps_per_record == 0:
                record(step // steps_per_record)

    return Ensemble(
        seeds=seeds,
        sample_times=rec_times,
        weights=weights_out,
        expectations=expect_out,
        offsets=np.zeros(batch + 1, dtype=np.intp),
        times=np.empty(0),
        centres=np.empty((0, quantities.num_quantities)),
        states=states_out,
    )


def simulate_continuous_trajectory(
    psi0: StateVector,
    hamiltonian: Hamiltonian | None,
    quantities: QuantitySet,
    config: ContinuousConfig,
    rng,
    *,
    store_states: bool = False,
    seed: int | None = None,
) -> TrajectoryRecord:
    """One realization of the diffusive process on the record grid.

    ``rng`` may be an integer seed (stored on the record) or a
    ``numpy.random.Generator``. The events list is always empty.
    """
    rng, seed = _coerce_rng(rng, seed)
    return simulate_continuous_batch(
        psi0.amplitudes[np.newaxis, :],
        hamiltonian,
        quantities,
        config,
        [rng],
        store_states=store_states,
        seeds=None if seed is None else [seed],
    )[0]
