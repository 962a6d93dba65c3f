"""Ensembles of trajectories, shared by both reduction engines."""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .hilbert import Hamiltonian, QuantitySet, StateVector, live_coordinates

# Relative slack of the event clock. Hit times (k / mu) and sample times
# (r * record_interval) come from different grids, so a hit and a record
# meant to coincide may differ in the last bits; the slack is far above
# that rounding and far below any physical time separation.
CLOCK_TOL = 1e-9


# The most events record_counts keys at once: its temporaries are a few
# int64 arrays of this length, whatever the hit count of the run. The
# counts are integers, so the block length moves no bit.
EVENT_BLOCK = 1 << 14


def record_counts(offsets, event_times, sample_times) -> np.ndarray:
    """(n, S) events at or before each sample time; trajectory i owns
    ``event_times[offsets[i]:offsets[i + 1]]``.

    A hit at a record's time counts toward that record ("hit first at
    equal times"), also when the two times were rounded differently. An
    event counts toward record r iff fewer than r + 1 of the strictly
    rising clock limits lie below its time. The events are keyed
    ``EVENT_BLOCK`` at a time, each block by the rows that own it.
    """
    limits = np.asarray(sample_times, dtype=float) * (1.0 + CLOCK_TOL)
    offsets = np.asarray(offsets)
    n, s, total = len(offsets) - 1, limits.size, int(offsets[-1])
    per_slot = np.zeros((n, s + 1), dtype=np.intp)
    for lo in range(0, total, EVENT_BLOCK):
        hi = min(lo + EVENT_BLOCK, total)
        # rows first, ..., last - 1 own events lo, ..., hi - 1
        first = int(np.searchsorted(offsets, lo, side="right")) - 1
        last = int(np.searchsorted(offsets, hi, side="left"))
        owned = np.diff(np.clip(offsets[first : last + 1], lo, hi))
        rows = np.repeat(np.arange(last - first), owned)
        slots = np.searchsorted(limits, event_times[lo:hi], side="left")
        keyed = np.bincount(rows * (s + 1) + slots, minlength=(last - first) * (s + 1))
        per_slot[first:last] += keyed.reshape(last - first, s + 1)
    return per_slot[:, :s].cumsum(axis=1)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """n trajectories on one sample grid of S times, as read-only arrays.

    Both engines run on the live joint coordinates only, on the block
    that :func:`live_block` cuts once per command: ``live`` holds their L
    ascending indices out of the ``dim`` joint coordinates, and
    ``arange(dim)`` when every coordinate is live. ``states`` (S, n, L)
    holds the joint-basis amplitudes on those coordinates, each sample's
    rows one contiguous block, and ``table`` (L, K) their eigenvalue rows;
    outside ``live`` every amplitude is exactly 0 and is not stored. The
    states are the whole record: the Born weights and the quantity means
    are derived from them here (:attr:`weights`, :attr:`expectations`).
    Events are in CSR form: trajectory i owns
    ``times[offsets[i]:offsets[i + 1]]`` and the matching ``centres`` rows
    and, for the hitting engine, ``stream_ids`` (the index of the stream
    that made each hit). ``seeds`` (n,) are the per-trajectory seeds.
    """

    seeds: np.ndarray
    sample_times: np.ndarray
    states: np.ndarray
    table: np.ndarray
    offsets: np.ndarray
    times: np.ndarray
    centres: np.ndarray
    live: np.ndarray
    dim: int
    stream_ids: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "dim", operator.index(self.dim))
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and f.name != "dim":
                value = np.asarray(value)
                value.flags.writeable = False
                object.__setattr__(self, f.name, value)
        if np.any(np.diff(self.sample_times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if self.states.ndim != 3 or self.states.shape[0] != self.sample_times.size:
            raise ValueError("states must hold one (n, L) record per sample time")
        if np.shape(self.seeds) != self.states.shape[1:2]:
            raise ValueError("seeds must hold one seed per row of the states")
        if not self.offsets[-1] == self.times.size == self.centres.shape[0]:
            raise ValueError("event offsets, times and centres disagree in length")
        live = self.live
        if (live.shape != self.states.shape[2:] or np.any(np.diff(live) <= 0)
                or np.any((live < 0) | (live >= self.dim))):
            raise ValueError("live must hold one ascending coordinate per column of the states")
        if self.table.ndim != 2 or self.table.shape[0] != live.size:
            raise ValueError("table must hold one eigenvalue row per live coordinate")
        if self.states.size:
            # one record at a time: no (S, n, L) or (S, n) temporary
            worst = max(float(np.max(np.abs((np.abs(r) ** 2).sum(axis=1) - 1.0)))
                        for r in self.states)
            if worst > 1e-10:
                raise ValueError(f"state rows' squared norms deviate from 1 by {worst:.3e}")

    @cached_property
    def weights(self) -> np.ndarray:
        """(S, n, L) Born weights: each state row's |c|^2 over its sum."""
        weights = np.abs(self.states)
        weights *= weights
        weights /= weights.sum(axis=2)[:, :, np.newaxis]
        weights.flags.writeable = False
        return weights

    @cached_property
    def expectations(self) -> np.ndarray:
        """(S, n, K) quantity means: the Born weights' averages of ``table``."""
        means = np.einsum("rbd,dk->rbk", self.weights, self.table)
        means.flags.writeable = False
        return means

    @classmethod
    def concat(cls, parts: Iterable["Ensemble"], n: int) -> "Ensemble":
        """The ``n`` trajectories of ``parts`` in order, on the grid they share.

        ``parts`` may be an iterator, as the runners pass it. Each part is
        copied into the joined arrays and dropped before the next one is
        taken: the states are allocated at the first part and the events
        grow part by part, so the join holds the joined arrays beside one
        part at a time. A single part is returned as it is.
        """
        parts = iter(parts)
        part = next(parts)
        if len(part) == n:
            return part
        grid, live, dim, table = part.sample_times, part.live, part.dim, part.table
        states = np.empty((grid.size, n) + part.states.shape[2:], part.states.dtype)
        events = {
            name: np.empty((0,) + a.shape[1:], a.dtype)
            for name in ("times", "centres", "stream_ids")
            for a in [getattr(part, name)] if a is not None
        }
        seeds = np.empty(n, part.seeds.dtype)
        offsets = np.zeros(n + 1, dtype=np.intp)
        row = 0
        while part is not None:
            if (part.dim != dim or not np.array_equal(part.live, live)
                    or not np.array_equal(part.table, table)):
                raise ValueError("the parts do not share their live coordinates")
            rows = slice(row, row + len(part))
            states[:, rows] = part.states
            seeds[rows] = part.seeds
            start = offsets[row]
            offsets[rows.start + 1 : rows.stop + 1] = part.offsets[1:] + start
            for name, out in events.items():
                # no view of ``out`` exists, so it may grow in place
                out.resize((start + getattr(part, name).shape[0],) + out.shape[1:],
                           refcheck=False)
                out[start:] = getattr(part, name)
            row = rows.stop
            del part  # before the next part is made
            part = next(parts, None)
        if row != n:
            raise ValueError(f"the parts hold {row} trajectories, not {n}")
        return cls(
            seeds=seeds, sample_times=grid, states=states, table=table, offsets=offsets,
            live=live, dim=dim, **events,
        )

    def __len__(self) -> int:
        return self.states.shape[1]

    def sample_index(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.sample_times - t)))
        if abs(self.sample_times[idx] - t) > 1e-9:
            raise KeyError(f"no sample at t={t}")
        return idx

    def event_flags(self) -> np.ndarray:
        """(n, S) events since the previous sample (all up to t for the first)."""
        counts = record_counts(self.offsets, self.times, self.sample_times)
        return np.diff(counts, axis=1, prepend=0)


class LiveBlock(NamedTuple):
    """One command's dynamics on its live joint coordinates (:func:`live_block`)."""

    live: np.ndarray
    dim: int
    coeffs: np.ndarray
    quantities: QuantitySet
    h_joint: np.ndarray | None


def live_block(psi0: StateVector, quantities: QuantitySet,
               hamiltonian: Hamiltonian | None) -> LiveBlock:
    """The live block of ``psi0`` under ``hamiltonian``: the one cut of a command.

    Outside the live set of :func:`~qreduce.hilbert.live_coordinates`
    every amplitude stays exactly 0 under both processes, and so does
    every entry of a statistical operator built from psi0: the decay of
    either master equation is elementwise in the joint basis, and the
    Hamiltonian couples nothing into that region. So a command cuts the
    block here once and hands it to the pre-flight, the runners, their
    kernels and the closed-form oracles: the L ascending ``live`` indices
    out of the ``dim`` joint coordinates, psi0's (L,) live joint
    coefficients ``coeffs``, a basis-free set of the live table rows and
    the L x L block of the joint-basis Hamiltonian (exactly Hermitian, as
    the whole is; None without a Hamiltonian). Every kernel's ensemble
    takes its ``live`` and ``dim`` from the block.
    """
    h_joint = None if hamiltonian is None else quantities.joint_hamiltonian(hamiltonian)
    coeffs = quantities.to_joint(psi0)
    live = live_coordinates(coeffs, h_joint)
    if h_joint is not None:
        h_joint = h_joint[np.ix_(live, live)]
    table = QuantitySet(quantities.eigenvalue_table[live])
    return LiveBlock(live, quantities.dim, coeffs[live], table, h_joint)


def record_count(t_end: float, record_interval: float) -> int:
    """The number of sample times of :func:`record_grid`, with nothing allocated.

    Raises ``ValueError`` unless 0 < record_interval <= t_end < inf.
    """
    for name, value in (("t_end", t_end), ("record_interval", record_interval)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        if not value > 0:
            raise ValueError(f"{name} must be > 0")
    if record_interval > t_end:
        raise ValueError("record_interval must not exceed t_end")
    return int(np.floor(t_end / record_interval + 1e-9)) + 1


def whole_steps(interval: float, dt: float) -> int | None:
    """``interval / dt`` as a whole number of steps, or None if it is not one.

    A ratio within 1e-6 of a whole number counts as that number, so a
    ``dt`` of a decimal interval that rounds in its last bits still
    divides it. A ratio that overflows to inf is not whole.
    """
    ratio = interval / dt
    if not math.isfinite(ratio):
        return None
    steps = round(ratio)
    return steps if abs(ratio - steps) <= 1e-6 else None


def record_grid(t_end: float, record_interval: float) -> np.ndarray:
    """Sample times 0, r, 2r, ... capped at t_end (t_end included when hit).

    Raises ``ValueError`` unless 0 < record_interval <= t_end < inf.
    """
    times = np.arange(record_count(t_end, record_interval)) * record_interval
    times[-1] = min(times[-1], t_end)
    return times
