"""Reproducible parallel ensembles.

A trajectory is a pure function of its inputs and its seed, and every
per-trajectory seed is derived by hashing (master seed, stream tag,
trajectory index). Work is split into balanced chunks, each of at most
``CHUNK_SIZE`` rows and at least one per process of the pool, and
reassembled in index order. Where a chunk boundary falls changes no bit:
each trajectory draws only from its own seed, and both kernels apply
elementwise arithmetic along the batch, so a row's numbers are the same
in any batch. Results are therefore bit-identical for any number of
workers and any chunking.

A runner returns one :class:`~qreduce.trajectory.Ensemble`, its chunks
joined by ``Ensemble.concat`` as they come: (S, n, L) states on the L
live joint coordinates, their (L, K) eigenvalue rows and the hitting
events in CSR form, so a worker process sends back a few arrays. The
ensemble derives its Born weights and expectations from the joined
states, once, when they are first read.

A chunk hands its seeds to a kernel, which draws every trajectory from
``default_rng`` of its own seed. A hitting trajectory draws its hit
times, then one uniform per hit as one block, then its (hits, K)
Gaussian noise as one block. A diffusive trajectory draws its (steps, K)
standard normals block by block, as the integration reaches them. A
chunk then runs as one lockstep kernel call, so a trajectory also does
not depend on the chunk it lands in.

Both kernels run on the live joint coordinates only: psi0's support
plus every coordinate the joint-basis Hamiltonian couples to another.
Both the hitting map and the diffusion step multiply each joint
amplitude by its own real factor, so an amplitude outside that set
stays exactly 0, and so does its weight; the returned ensemble therefore
stores neither. The set depends on psi0 and the Hamiltonian alone, so a
command cuts it once (``trajectory.live_block``) and hands the one
``LiveBlock`` to both runners, which pass it to every chunk. A kernel
spreads only psi0's live coefficients over its chunk's trajectories: no
(n, d) array is formed on the way to the states.

``equivalence.convergence_sweep`` runs its ensembles through the same
runners: the diffusive one with the master seed itself, and the hitting
one of the i-th swept rate (i = 1, 2, ...) with the master seed
``derive_seed(master_seed, SWEEP_STREAM, i)``.
"""

from __future__ import annotations

import math
import os
from functools import partial

import numpy as np

from .continuous import ContinuousConfig, simulate_continuous_batch
from .hitting import HitStream, simulate_hitting_batch
from .trajectory import Ensemble, LiveBlock

# The most rows one lockstep chunk holds. A kernel step is mostly
# per-call overhead at small d, so wider batches pay less per row: a
# d = 2, K = 1 diffusion step costs about 51-63 us at 512 rows, 67-73 us
# at 1000 and 121-131 us at 2000 on a 2-core x86_64 host, so the cost per
# row flattens between 1000 and 2000 rows. A chunk's noise block holds
# about ``continuous.NOISE_ROW_NORMALS`` normals a row, and stays within
# ``continuous.NOISE_BLOCK_BYTES`` whatever its rows. Chunk boundaries
# never change a bit, so the constant trades speed against memory only.
CHUNK_SIZE = 1024

HITTING_STREAM = 0
CONTINUOUS_STREAM = 1
SWEEP_STREAM = 2

__all__ = [
    "derive_seed",
    "trajectory_seeds",
    "run_hitting_ensemble",
    "run_continuous_ensemble",
]


def derive_seed(master_seed: int, *path: int) -> int:
    """Hash a master seed and an index path into an independent 64-bit seed."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def trajectory_seeds(master_seed: int, stream_tag: int, n: int) -> np.ndarray:
    return np.array(
        [derive_seed(master_seed, stream_tag, i) for i in range(n)], dtype=np.uint64
    )


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(seeds: np.ndarray, pool: int) -> list[np.ndarray]:
    """``seeds`` in order, split into balanced chunks.

    Each chunk holds at most ``CHUNK_SIZE`` seeds, there are at least
    ``pool`` chunks when there are that many seeds, and no chunk is empty.
    """
    n = seeds.size
    return np.array_split(seeds, min(n, max(pool, math.ceil(n / CHUNK_SIZE))))


def _run_chunked(worker, seeds: np.ndarray, workers: int) -> Ensemble:
    """``worker`` over balanced chunks of ``seeds``, joined in index order.

    The pool has at most ``workers`` processes, and never more than the
    chunks or the CPUs this process may run on. Each result is joined as
    it comes, so no list of them is held.
    """
    pool = min(workers, _available_cpus())
    chunks = _chunks(seeds, pool)
    if pool <= 1 or len(chunks) <= 1:
        return Ensemble.concat((worker(c) for c in chunks), seeds.size)
    # imported here: a serial run should not pay for loading the
    # process-pool machinery
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(pool, len(chunks))) as executor:
        return Ensemble.concat(executor.map(worker, chunks), seeds.size)


def run_hitting_ensemble(
    block: LiveBlock,
    streams: list[HitStream],
    t_end: float,
    record_interval: float,
    n_trajectories: int,
    master_seed: int,
    *,
    workers: int = 1,
) -> Ensemble:
    """Independent trajectories of the hitting process of ``streams``.

    Every trajectory starts from psi0's live ``block`` and runs the same
    list of streams over the window (0, ``t_end``], recorded every
    ``record_interval``, from its own derived seed. Returns one ensemble
    with its states and the stream id of every event.
    """
    worker = partial(simulate_hitting_batch, block, streams, t_end, record_interval)
    seeds = trajectory_seeds(master_seed, HITTING_STREAM, n_trajectories)
    return _run_chunked(worker, seeds, workers)


def run_continuous_ensemble(
    block: LiveBlock,
    config: ContinuousConfig,
    n_trajectories: int,
    master_seed: int,
    *,
    workers: int = 1,
) -> Ensemble:
    """Diffusive ensemble from psi0's live ``block``, integrated in balanced
    vectorized chunks.

    Returns one ensemble with its states and without events.
    """
    worker = partial(simulate_continuous_batch, block, config)
    seeds = trajectory_seeds(master_seed, CONTINUOUS_STREAM, n_trajectories)
    return _run_chunked(worker, seeds, workers)
