"""The discontinuous reduction process.

A hitting process is a list of streams (:class:`HitStream`). Each stream
hits its own columns of the shared commuting quantity set with Gaussian
sharpening operators of accuracy beta, at times from its own schedule of
frequency mu. One stream over every column is the process of a single
sharpened observable; one stream per particle position is the model of
Ghirardi, Rimini and Weber. The centre of each hit is drawn from the
exact quadratic-form density, which is a mixture of Gaussians over the
joint eigenvectors. Between hits the state evolves unitarily (exactly,
via the Hamiltonian eigensystem). The time window (t_end and the record
interval) is not part of a stream; the runners take it beside the list.

:func:`simulate_hitting_batch` runs a batch of trajectories, one per
seed, in three steps:

1. **Draws.** A trajectory's random draws do not depend on its state,
   so each trajectory takes them up front from ``default_rng`` of its
   own seed, in this order:

   a. the hit times, stream by stream, from :func:`schedule_hittings`
      (for a Poisson stream the count, then the times), merged in time
      order;
   b. one uniform per hit, as one block; it picks the joint eigenvector;
   c. K standard normals per hit, as one (hits, K) block; a hit uses the
      columns of its stream's quantities as the centre's Gaussian offset.

2. **CSR arrays.** The batch's hits are laid out as the
   :class:`~qreduce.trajectory.Ensemble` keeps its events: trajectory i
   owns hits ``offsets[i]:offsets[i + 1]`` of the flat (E,) times,
   stream ids and uniforms and of the (E, K) noise.

3. **One kernel call.** :func:`run_hitting_chain_batch` advances every
   trajectory hit by hit in lockstep and returns the ensemble itself.
   The call sees only the live joint coordinates, on the block that
   :func:`~qreduce.trajectory.live_block` cut once for the whole command
   and that sets the ensemble's ``live`` and ``dim``: elsewhere psi0 is
   0, a hit multiplies 0 by a Gaussian factor, and the Hamiltonian
   couples nothing in, so the amplitude stays exactly 0. The draws do
   not depend on d, so the events are those of a full-d run.

A trajectory therefore depends only on its seed, never on the batch
it runs in. :func:`apply_hitting` and :func:`sample_hitting_centre` are
the one-hit textbook formulas, kept as oracles for the kernel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, VanishingNormError
from .hilbert import QuantitySet, StateVector
from .trajectory import Ensemble, LiveBlock, record_counts, record_grid

VANISHING_NORM_THRESHOLD = 1e-300

__all__ = [
    "Schedule",
    "HitStream",
    "sharpening_operator",
    "apply_hitting",
    "sample_hitting_centre",
    "hitting_density",
    "schedule_hittings",
    "simulate_hitting_batch",
    "run_hitting_chain_batch",
]


class Schedule(enum.Enum):
    """Hitting-time schedules: deterministic grid or Poisson stream."""

    EVENLY_SPACED = "evenly-spaced"
    POISSON = "poisson"


@dataclass(frozen=True)
class HitStream:
    """An independent stream of hits on a subset of the quantities.

    ``quantity_indices`` point into the shared commuting quantity set;
    ``beta`` is the sharpening accuracy (inverse squared width of the
    Gaussian hit) and ``mu`` the mean hitting frequency. Their product
    fixes the effectiveness: the diffusive process with strength
    ``gamma_p = sum of beta * mu / 2 over the streams hitting p`` is the
    infinite-frequency limit.
    """

    quantity_indices: tuple[int, ...]
    beta: float
    mu: float
    schedule: Schedule = Schedule.POISSON

    def __post_init__(self):
        for name in ("beta", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        object.__setattr__(self, "quantity_indices", tuple(self.quantity_indices))
        if not isinstance(self.schedule, Schedule):
            object.__setattr__(self, "schedule", Schedule(self.schedule))


def _centre_vector(centre, num_quantities: int) -> np.ndarray:
    a = np.asarray(centre, dtype=float).reshape(-1)
    if a.size == 1 and num_quantities == 1:
        return a
    if a.size != num_quantities:
        raise DimensionMismatchError(
            f"centre has {a.size} components, expected {num_quantities}"
        )
    return a


def _diagonal_factors(quantities: QuantitySet, centre: np.ndarray, beta: float) -> np.ndarray:
    """Sharpening factors on each joint eigenvector, prefactor included."""
    offsets = quantities.eigenvalue_table - centre[np.newaxis, :]
    dist2 = np.sum(offsets**2, axis=1)
    pref = (beta / math.pi) ** (quantities.num_quantities / 4.0)
    return pref * np.exp(-0.5 * beta * dist2)


def sharpening_operator(quantities: QuantitySet, centre, beta: float) -> np.ndarray:
    """The Gaussian sharpening matrix centred at ``centre``.

    Diagonal in the joint eigenbasis with entries
    ``(beta/pi)^(K/4) * exp(-beta/2 * sum_p (alpha_kp - a_p)^2)``; returned
    in the computational basis.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    a = _centre_vector(centre, quantities.num_quantities)
    factors = _diagonal_factors(quantities, a, beta)
    return quantities.operator_from_joint(np.diag(factors))


def apply_hitting(
    psi: StateVector, quantities: QuantitySet, centre, beta: float
) -> tuple[StateVector, float]:
    """Apply one sharpening and renormalize.

    Returns the post-hit state and the squared norm of the unnormalized
    result, which is the probability density weight of the centre.

    Raises
    ------
    VanishingNormError
        If the squared norm falls below 1e-300: the exact sampler cannot
        produce such a centre, so the trajectory must abort.
    """
    a = _centre_vector(centre, quantities.num_quantities)
    factors = _diagonal_factors(quantities, a, beta)
    coeffs = quantities.to_joint(psi)
    sharpened = factors * coeffs
    norm2 = float(np.sum(np.abs(sharpened) ** 2))
    if norm2 < VANISHING_NORM_THRESHOLD:
        raise VanishingNormError(
            f"hitting at centre {a} annihilated the state (|chi|^2 = {norm2!r})"
        )
    post = quantities.from_joint(sharpened / math.sqrt(norm2))
    return StateVector(post, normalize=True), norm2


def sample_hitting_centre(
    psi: StateVector, quantities: QuantitySet, beta: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw a hitting centre from the exact density.

    The density is a Born-weighted mixture of isotropic Gaussians of
    per-component variance 1/(2 beta) around the eigenvalue rows, so one
    categorical draw plus Gaussian noise reproduces it exactly.
    """
    weights = quantities.born_weights(psi)
    k = int(np.searchsorted(np.cumsum(weights), rng.random()))
    k = min(k, quantities.dim - 1)
    row = quantities.eigenvalue_table[k]
    sigma = math.sqrt(1.0 / (2.0 * beta))
    return row + sigma * rng.standard_normal(quantities.num_quantities)


def hitting_density(
    psi: StateVector, quantities: QuantitySet, centre, beta: float
) -> float:
    """Probability density of a hitting centre; sampler cross-check oracle.

    For the smeared lattice densities, whose eigenvalues are cell counts,
    a density profile is a centre and ``beta`` is the per-site accuracy
    beta / dx that :func:`~qreduce.scenarios.build_scenario` gives their
    stream.
    """
    a = _centre_vector(centre, quantities.num_quantities)
    weights = quantities.born_weights(psi)
    offsets = quantities.eigenvalue_table - a[np.newaxis, :]
    dist2 = np.sum(offsets**2, axis=1)
    pref = (beta / math.pi) ** (quantities.num_quantities / 2.0)
    return float(pref * np.sum(weights * np.exp(-beta * dist2)))


def schedule_hittings(stream: HitStream, t_end: float, rng: np.random.Generator) -> np.ndarray:
    """Hitting times of one stream in (0, t_end], per its schedule.

    Evenly spaced: k/mu for k = 1..floor(mu * t_end). Poisson: a
    homogeneous process of rate mu (count first, then sorted uniforms).
    An empty result is legitimate: the trajectory then evolves purely
    unitarily and is reported as unresolved downstream.
    """
    if stream.schedule is Schedule.EVENLY_SPACED:
        count = int(math.floor(stream.mu * t_end + 1e-9))
        times = np.arange(1, count + 1) / stream.mu
        return np.minimum(times, t_end)
    count = int(rng.poisson(stream.mu * t_end))
    times = t_end * (1.0 - rng.random(count))
    times.sort()
    return times


class _StreamKernel:
    """Per-stream constants of the sharpening update."""

    def __init__(self, stream: HitStream, table: np.ndarray):
        self.cols = np.array(stream.quantity_indices, dtype=int)
        # C order, as every operand below: the layout fixes the order in
        # which numpy sums, and so the last bit of each row
        self.table = np.ascontiguousarray(table[:, self.cols])
        self.beta = float(stream.beta)
        self.sigma = math.sqrt(1.0 / (2.0 * self.beta))
        # squared prefactor of the sharpening operator, as in apply_hitting
        self.pref2 = (self.beta / math.pi) ** (self.cols.size / 2.0)


def _propagator(h_joint: np.ndarray):
    """Exact unitary evolution of joint-basis rows, each over its own dt.

    ``h_joint`` is the Hermitian Hamiltonian matrix in the joint basis of
    the rows. einsum rather than matmul: BLAS may round a row differently
    depending on how many rows share the call, and a trajectory must not
    depend on its batch.
    """
    energies, vecs = np.linalg.eigh(h_joint)
    vecs_conj = vecs.conj()

    def evolve(rows: np.ndarray, dt: np.ndarray) -> np.ndarray:
        eig = np.einsum("bj,jk->bk", rows, vecs_conj)
        eig *= np.exp(-1j * dt[:, np.newaxis] * energies[np.newaxis, :])
        return np.einsum("bk,jk->bj", eig, vecs)

    return evolve


def run_hitting_chain_batch(
    block: LiveBlock,
    streams: list[HitStream],
    offsets: np.ndarray,
    times: np.ndarray,
    stream_ids: np.ndarray,
    uniforms: np.ndarray,
    noise: np.ndarray,
    record_times: np.ndarray,
    seeds,
) -> Ensemble:
    """Advance a batch of hitting trajectories hit by hit in lockstep.

    Every trajectory, one per seed, starts from psi0's live coefficients
    ``block.coeffs``. The hits come in the
    :class:`~qreduce.trajectory.Ensemble`'s CSR layout: row b owns
    hits ``offsets[b]:offsets[b + 1]``, and hit e, at ``times[e]``, is
    made by stream ``stream_ids[e]`` with quantity columns ``cols``. It
    picks an eigenvector with ``uniforms[e]`` and offsets the centre by
    ``sigma * noise[e, cols]`` (sigma = 1/sqrt(2 beta)). A Hamiltonian,
    given as the block's Hermitian ``h_joint``, evolves each row exactly
    over its own interval between hits. Record slot r of row b is the
    state after the last hit at or before ``record_times[r]`` (on the
    clock of :func:`~qreduce.trajectory.record_counts`), evolved to that
    time.

    Returns the ensemble of the batch: ``seeds`` (one per row), the (E, K)
    centres, NaN outside each hit's stream, the (E,) stream ids, and the
    (R, batch, L) states on the block's live coordinates; the ensemble
    derives the Born weights and expectations from them.

    Raises
    ------
    VanishingNormError
        If a hit leaves a squared norm below 1e-300, prefactor included as
        in :func:`apply_hitting`. It carries ``seeds[b]`` of the row.
    """
    table = block.quantities.eigenvalue_table
    record_times = np.asarray(record_times, dtype=float)
    batch, num_r, width = len(seeds), record_times.size, block.live.size
    coeffs = np.empty((batch, width), dtype=np.complex128)
    coeffs[:] = block.coeffs
    counts = np.diff(offsets)
    max_hits = int(counts.max()) if batch else 0
    kernels = [_StreamKernel(stream, table) for stream in streams]
    evolve = None if block.h_joint is None else _propagator(block.h_joint)
    last = np.zeros(batch)  # time of each row's latest hit
    centres_out = np.full((times.size, table.shape[1]), np.nan)
    slot_hits = record_counts(offsets, times, record_times)
    snaps = np.empty((num_r, batch, width), dtype=np.complex128)
    snap_last = np.zeros((num_r, batch))

    for h in range(max_hits + 1):
        due, slots = np.nonzero(slot_hits == h)
        snaps[slots, due] = coeffs[due]
        snap_last[slots, due] = last[due]
        if h == max_hits:
            break
        active = np.nonzero(counts > h)[0]
        hits = offsets[active] + h
        if evolve is not None:
            now = times[hits]
            coeffs[active] = evolve(coeffs[active], now - last[active])
            last[active] = now
        rows = coeffs[active]
        cum = np.cumsum(np.abs(rows) ** 2, axis=1)
        cum /= cum[:, -1:]
        picks = (uniforms[hits][:, np.newaxis] > cum).sum(axis=1)
        ids = None if len(kernels) == 1 else stream_ids[hits]
        for s, kern in enumerate(kernels):
            local = slice(None) if ids is None else np.nonzero(ids == s)[0]
            where, mine = active[local], hits[local]
            shifts = noise[mine[:, np.newaxis], kern.cols]
            centres = kern.table[picks[local]] + shifts * kern.sigma
            diff = kern.table[np.newaxis, :, :] - centres[:, np.newaxis, :]
            dist2 = np.sum(diff**2, axis=2)
            sharpened = np.exp(-0.5 * kern.beta * dist2) * rows[local]
            norm2 = (np.abs(sharpened) ** 2).sum(axis=1)
            chi2 = kern.pref2 * norm2
            if (chi2 < VANISHING_NORM_THRESHOLD).any():
                i = int(np.argmin(chi2))
                raise VanishingNormError(
                    f"hit {h + 1} at t={times[mine[i]]!r} annihilated the state "
                    f"(|chi|^2 = {chi2[i]!r})",
                    seed=int(seeds[where[i]]),
                )
            coeffs[where] = sharpened / np.sqrt(norm2)[:, np.newaxis]
            centres_out[mine[:, np.newaxis], kern.cols] = centres

    if evolve is not None:
        dt = (record_times[:, np.newaxis] - snap_last).reshape(-1)
        snaps = evolve(snaps.reshape(-1, width), dt).reshape(snaps.shape)
    return Ensemble(
        seeds=seeds,
        sample_times=record_times,
        states=snaps,
        table=table,
        offsets=offsets,
        times=times,
        centres=centres_out,
        live=block.live,
        dim=block.dim,
        stream_ids=stream_ids,
    )


def _draw_hits(seeds, streams: list[HitStream], t_end: float, num_quantities: int):
    """Every draw of one trajectory per seed, as the kernel's CSR arrays.

    Returns ``offsets``, ``times``, ``stream_ids``, ``uniforms`` and
    ``noise``, drawn in the order of the module docstring. The per-row
    generators end with this call, before the kernel runs.
    """
    generators = [np.random.default_rng(int(s)) for s in seeds]
    # the ensemble keeps one stream id per hit: the narrowest type that fits
    stream_range = np.arange(len(streams), dtype=np.min_scalar_type(len(streams)))
    times, ids = [], []
    for g in generators:
        parts = [schedule_hittings(s, t_end, g) for s in streams]
        t = np.concatenate(parts)
        i = np.repeat(stream_range, [p.size for p in parts])
        order = np.argsort(t, kind="stable")
        times.append(t[order])
        ids.append(i[order])
    offsets = np.cumsum([0] + [t.size for t in times])
    # joined first: the per-row parts are never alive beside the per-hit draws
    times, ids = np.concatenate(times), np.concatenate(ids)
    uniforms = np.empty(offsets[-1])
    noise = np.empty((offsets[-1], num_quantities))
    for g, a, b in zip(generators, offsets[:-1], offsets[1:]):
        g.random(out=uniforms[a:b])
        g.standard_normal(out=noise[a:b])
    return offsets, times, ids, uniforms, noise


def simulate_hitting_batch(
    block: LiveBlock,
    streams: list[HitStream],
    t_end: float,
    record_interval: float,
    seeds,
) -> Ensemble:
    """One trajectory per seed from psi0's live ``block``, all advanced by
    one kernel call.

    Each trajectory takes its draws from ``default_rng`` of its own seed
    in the order given in the module docstring; the seeds are stored on
    the ensemble and reported by a :class:`VanishingNormError`.
    """
    grid = record_grid(t_end, record_interval)
    offsets, times, ids, uniforms, noise = _draw_hits(
        seeds, streams, t_end, block.quantities.num_quantities
    )
    return run_hitting_chain_batch(
        block, streams, offsets, times, ids, uniforms, noise, grid, seeds
    )
