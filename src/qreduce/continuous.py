"""The continuous diffusive reduction process.

An Ito stochastic differential equation drives the state toward joint
eigenvectors of the quantity set, in natural units (hbar = 1):

    d|psi> = [ -i H dt
               + sum_p sqrt(g_p) (A_p - <A_p>) dB_p
               - 1/2 sum_p g_p (A_p - <A_p>)^2 dt ] |psi>

integrated by Euler-Maruyama with per-step renormalization. The
expectation <A_p> is always evaluated at the pre-step state (Ito
convention; a midpoint reading would change the drift). The strength is
a scalar or one value per quantity (:func:`gamma_vector`), and equals
beta*mu/2 of the parent hitting process in the infinite-frequency limit.

In the joint eigenbasis a step multiplies each amplitude by its own
real factor and adds the Hamiltonian term, so an amplitude that is 0 on
a coordinate the Hamiltonian couples to no other stays exactly 0
(``0 * factor + h_ii * 0``). The engine integrates only the other, live
coordinates, on the block that :func:`~qreduce.trajectory.live_block`
cuts once per command: a superposition of a few Fock states costs a
kernel of their count, not of d.

A batch runs one trajectory per seed, its only random input: row b
draws its Wiener increments from ``default_rng`` of its own seed.

The kernel holds that live block as columns, one per trajectory: a
(2, d, batch) array of real and imaginary planes. A step is then a
sequence of elementwise calls over whole batch rows, about twenty at
d = 2 and K = 1 (the count grows with d and K, not with the batch), and
each column's arithmetic is the same in a batch of any size. Sums over the d
coordinates and over the K quantities run in a fixed order, one call per
term, because the faster-looking routes make a trajectory depend on its
batch: a BLAS product rounds a row differently with the batch's row
count, and ``np.sum`` over the coordinates adds a one-column batch
pairwise but a wider one row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, StepRejectedError
from .hilbert import Hamiltonian, QuantitySet, StateVector
from .trajectory import Ensemble, LiveBlock, record_grid, whole_steps

__all__ = [
    "ContinuousConfig",
    "gamma_vector",
    "strength_from_hitting",
    "suggested_dt",
    "snapped_dt",
    "sde_step",
]


# simulate_continuous_batch draws its (rows, steps, K) float64 noise a
# block at a time: about NOISE_ROW_NORMALS normals per row and generator
# call, so ceil(NOISE_ROW_NORMALS / K) steps, or fewer where the block
# would pass NOISE_BLOCK_BYTES. A call costs about 0.6 us beside 13 ns a
# normal on a 2-core x86_64 host, so 256 normals amortize it; a longer
# block only holds more memory. A generator's normals come out in the
# same order however they are split, so the block length moves no bit.
NOISE_ROW_NORMALS = 256
NOISE_BLOCK_BYTES = 2 << 20


# The most bytes of -i dt H that _DiffusionKernel forms at a time
# while it writes the real form of that matrix. Each entry is one
# elementwise product, so the block moves no bit.
HAMILTONIAN_BLOCK_BYTES = 1 << 20


def noise_block_steps(rows: int, num_quantities: int) -> int:
    """Steps of one noise block of ``rows`` trajectories and K quantities:
    ceil(``NOISE_ROW_NORMALS`` / K), capped by ``NOISE_BLOCK_BYTES``.

    A run of fewer steps draws a block of its steps.
    """
    per_row = -(-NOISE_ROW_NORMALS // num_quantities)
    return max(1, min(per_row, NOISE_BLOCK_BYTES // (8 * rows * num_quantities)))


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


def gamma_vector(gamma, num_quantities: int) -> np.ndarray:
    """The strength ``gamma`` as one value per quantity.

    A number (or a 0-d array) is broadcast to every quantity and a (K,)
    sequence is taken as it is; anything else raises
    :class:`DimensionMismatchError`.
    """
    g = np.asarray(gamma, dtype=float)
    if g.ndim == 0:
        return np.full(num_quantities, g)
    if g.shape != (num_quantities,):
        raise DimensionMismatchError(
            f"gamma of shape {g.shape} does not fit {num_quantities} quantities"
        )
    return g


def suggested_dt(quantities: QuantitySet, gamma) -> float:
    """Step size keeping gamma * (spectral spread) * dt at or below 0.01."""
    g = float(np.max(gamma_vector(gamma, quantities.num_quantities)))
    spread = quantities.spectral_spread()
    if g * spread <= 0:
        return 1e-2
    return 0.01 / (g * spread)


def snapped_dt(quantities: QuantitySet, gamma, record_interval: float,
               dt: float | None = None) -> float:
    """The longest step at or below ``dt``, or :func:`suggested_dt` without
    it, that divides ``record_interval`` into whole steps.

    A cap that makes whole steps by :func:`~qreduce.trajectory.whole_steps`,
    as :class:`ContinuousConfig` tests them, keeps that count of steps, so
    a ``dt`` that the config accepts keeps its count.
    """
    cap = suggested_dt(quantities, gamma) if dt is None else dt
    steps = whole_steps(record_interval, cap)
    if steps is None:
        steps = math.ceil(record_interval / cap)
    return record_interval / max(1, steps)


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
        if whole_steps(self.record_interval, self.dt) is None:
            raise ValueError("record_interval must be an integer multiple of dt")

    @property
    def steps_per_record(self) -> int:
        return whole_steps(self.record_interval, self.dt)


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

    ``dB`` is a length-K array of Wiener increments (variance dt each).
    Joint eigenvectors are exact fixed points when ``hamiltonian`` is
    None: every centred operator annihilates them.
    """
    increments = np.asarray(dB, dtype=float)
    if increments.shape != (quantities.num_quantities,):
        raise DimensionMismatchError(
            f"dB must have shape ({quantities.num_quantities},), got {increments.shape}"
        )
    g = gamma_vector(gamma, quantities.num_quantities)

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
        delta += (-1j * dt) * (h_joint @ coeffs)
    out = quantities.from_joint(coeffs + delta)
    if renormalize:
        return StateVector(out, normalize=True)
    return StateVector(out, tol=math.inf)


class _DiffusionKernel:
    """Precomputed joint-basis data for the integration loop.

    The step works on (2, d, batch) columns in C order, so that every
    operand row is one contiguous batch row. Each operation is an
    elementwise ufunc over such rows, and every sum over coordinates or
    quantities adds its terms left to right (:func:`_sum_rows`): no
    ``@``, whose BLAS rounding changes with the batch's row count, and no
    ``np.sum``, whose order changes when the batch has one column. The
    step expands the drift's square once,

        sum_k g_k (A_dk - m_k)^2 = sum_k g_k A_dk^2 - 2 sum_k g_k A_dk m_k
                                   + sum_k g_k m_k^2,

    so no (d, K, batch) offsets are formed. The table is centred column by
    column at its midrange first: the offsets A_dk - m_k do not change,
    and the rounding of the expansion then scales with the spectral
    spread, not with the size of the eigenvalues. The Hamiltonian term is
    a per-column product with the real 2d x 2d form of -i dt H, for the
    Hermitian joint-basis matrix ``h_joint`` of H.
    """

    def __init__(
        self,
        quantities: QuantitySet,
        h_joint: np.ndarray | None,
        config: ContinuousConfig,
    ):
        table = quantities.eigenvalue_table
        centred = table - 0.5 * (table.max(axis=0) + table.min(axis=0))
        gamma = gamma_vector(config.gamma, quantities.num_quantities)
        # one (K, 1) column of the table per coordinate and one (d, 1)
        # column per quantity, each to multiply a batch row
        self.by_coordinate = list(centred[:, :, np.newaxis])
        self.by_quantity = list(centred.T[:, :, np.newaxis])
        self.noise_scale = math.sqrt(config.dt) * np.sqrt(gamma)
        half_dt_gamma = 0.5 * config.dt * gamma
        self.half_dt_gamma = half_dt_gamma[:, np.newaxis]
        # (d, 1): 1 - dt/2 sum_k g_k A_dk^2, the part of the factor no column changes
        self.base_factor = (1.0 - (centred**2) @ half_dt_gamma)[:, np.newaxis]
        self.h_real = None
        if h_joint is not None:
            # [[Re h, -Im h], [Im h, Re h]] for h = -i dt H, filled a block
            # of rows of h at a time: no d x d complex copy is formed
            scale, dim = -1j * config.dt, h_joint.shape[0]
            self.h_real = np.empty((2 * dim, 2 * dim))
            rows = max(1, HAMILTONIAN_BLOCK_BYTES // (16 * dim))
            for lo in range(0, dim, rows):
                hi = min(lo + rows, dim)
                h = scale * h_joint[lo:hi]
                top, bottom = self.h_real[lo:hi], self.h_real[dim + lo : dim + hi]
                top[:, :dim] = bottom[:, dim:] = h.real
                np.negative(h.imag, out=top[:, dim:])
                bottom[:, :dim] = h.imag

    def step_batch(self, coeffs: np.ndarray, increments: np.ndarray) -> np.ndarray:
        """Advance every column by one step, in place; returns the squared norm ratios.

        ``coeffs``: (2, d, batch) real and imaginary planes. ``increments``:
        (K, batch) Wiener increments of variance dt, already scaled by
        sqrt(gamma) (``noise_scale`` does both). The new columns are
        renormalized; each returned ratio is a column's squared norm just
        before that over its squared norm before the step, for
        step-rejection checks.
        """
        # m_k = sum_d A_dk w_d / sum_d w_d: one (K, batch) term per coordinate
        weights = _weights(coeffs)
        means = _sum_rows(map(np.multiply, self.by_coordinate, weights))
        norms2 = _sum_rows(weights)
        means /= norms2
        # with u the increments and A the centred table:
        # factor_d = 1 + sum_k A_dk (u_k + dt g_k m_k)
        #              - sum_k m_k (u_k + dt/2 g_k m_k) - dt/2 sum_k g_k A_dk^2
        half_drift = self.half_dt_gamma * means
        shifted = increments + half_drift
        factor = self.base_factor - _sum_rows(means * shifted)
        shifted += half_drift
        for column, s in zip(self.by_quantity, shifted):
            factor += column * s
        hamiltonian_term = None
        if self.h_real is not None:
            # per column, on a contiguous copy: a lone column is contiguous
            # and a batch's columns are strided, which BLAS may treat apart
            planes = np.ascontiguousarray(coeffs.reshape(-1, coeffs.shape[-1]).T)
            hamiltonian_term = np.matvec(self.h_real, planes).T.reshape(coeffs.shape)
        coeffs *= factor
        if hamiltonian_term is not None:
            coeffs += hamiltonian_term
        new_norms2 = _sum_rows(_weights(coeffs))
        coeffs /= np.sqrt(new_norms2)
        return new_norms2 / norms2


def _weights(columns: np.ndarray) -> np.ndarray:
    """(d, batch) squared moduli of (2, d, batch) planes."""
    squares = columns * columns
    return squares[0] + squares[1]


def _sum_rows(rows) -> np.ndarray:
    """The rows added left to right, one elementwise call per row."""
    rows = iter(rows)
    total = next(rows)
    for row in rows:
        total = total + row
    return total


def simulate_continuous_batch(
    block: LiveBlock,
    config: ContinuousConfig,
    seeds,
) -> Ensemble:
    """Integrate one trajectory per seed from psi0's live ``block``, in lockstep.

    The kernel steps (2, L, batch) columns, one per seed, each starting
    from ``block.coeffs``; the rows are rebuilt, as the ensemble's
    states, only at record times. Row b draws its (steps, K) standard
    normals from ``default_rng(seeds[b])``, block by block, so a row
    depends only on its own seed, never on the batch it runs in. The
    seeds are stored on the ensemble and reported by a
    :class:`StepRejectedError`, raised if any single step changes a norm
    by more than 50%.
    """
    quantities = block.quantities
    kernel = _DiffusionKernel(quantities, block.h_joint, config)
    rec_times = record_grid(config.t_end, config.record_interval)
    steps_per_record = config.steps_per_record
    total_steps = (rec_times.size - 1) * steps_per_record

    generators = [np.random.default_rng(int(s)) for s in seeds]
    batch = len(generators)
    states_out = np.empty((rec_times.size, batch, quantities.dim), dtype=np.complex128)
    columns = np.empty((2, quantities.dim, batch))  # C order: each row a whole batch
    columns[0] = block.coeffs.real[:, np.newaxis]
    columns[1] = block.coeffs.imag[:, np.newaxis]

    def record(slot: int):
        amplitudes = states_out[slot]
        amplitudes.real, amplitudes.imag = columns[0].T, columns[1].T

    record(0)
    noise_steps = min(noise_block_steps(batch, quantities.num_quantities), total_steps)
    noise = np.empty((batch, noise_steps, quantities.num_quantities))
    step = 0
    while step < total_steps:
        # whole blocks, the last one in part unused: numpy scales a strided
        # part of a block through buffers of about 3 x 64 kB, and the unused
        # normals come after every used one
        for g, rows in zip(generators, noise, strict=True):
            g.standard_normal(out=rows)
        noise *= kernel.noise_scale
        # step i reads the (K, batch) view noise[:, i].T: no second block
        for u in noise[:, : total_steps - step].transpose(1, 2, 0):
            ratios2 = kernel.step_batch(columns, u)
            # |ratio - 1| <= 1/2; a NaN fails both comparisons
            if not (ratios2.min() >= 0.25 and ratios2.max() <= 2.25):
                drifts = np.abs(np.sqrt(ratios2) - 1.0)
                bad = int(np.argmax(drifts))
                raise StepRejectedError(
                    f"step changed a norm by {drifts[bad]:.2f} (>50%); dt too large",
                    seed=int(seeds[bad]),
                )
            step += 1
            if step % steps_per_record == 0:
                record(step // steps_per_record)

    return Ensemble(
        seeds=seeds,
        sample_times=rec_times,
        states=states_out,
        table=quantities.eigenvalue_table,
        offsets=np.zeros(batch + 1, dtype=np.intp),
        times=np.empty(0),
        centres=np.empty((0, quantities.num_quantities)),
        live=block.live,
        dim=block.dim,
    )
