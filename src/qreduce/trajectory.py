"""Trajectory recording shared by both reduction engines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative slack of the event clock. Hit times (k / mu) and sample times
# (r * record_interval) come from different grids, so a hit and a record
# meant to coincide may differ in the last bits; the slack is far above
# that rounding and far below any physical time separation.
CLOCK_TOL = 1e-9


def events_up_to(event_times, sample_times) -> np.ndarray:
    """Number of events at or before each sample time.

    ``event_times`` must be sorted. A hit at the same time as a record
    counts toward that record ("hit first at equal times"), also when
    the two times were rounded differently.
    """
    limits = np.asarray(sample_times, dtype=float) * (1.0 + CLOCK_TOL)
    return np.searchsorted(event_times, limits, side="right")


class EventLog:
    """Columnar store of hitting events: times plus centre rows in R^K."""

    __slots__ = ("times", "centres")

    def __init__(self, times=None, centres=None, num_quantities: int = 1):
        if times is None:
            times = np.empty(0)
            centres = np.empty((0, num_quantities))
        self.times = np.asarray(times, dtype=float)
        self.centres = np.asarray(centres, dtype=float)
        if self.centres.ndim == 1:
            self.centres = self.centres.reshape(-1, 1)
        if self.centres.shape[0] != self.times.size:
            raise ValueError("event times and centres disagree in length")
        self.times.flags.writeable = False
        self.centres.flags.writeable = False

    def __len__(self) -> int:
        return self.times.size

    def __reduce__(self):
        # a pickle (records from worker processes) drops the read-only flags
        return (EventLog, (self.times, self.centres))


@dataclass
class TrajectoryRecord:
    """Time series of one stochastic realization.

    ``born_weights`` and ``expectations`` are always present, one row per
    sample time. Full state snapshots are kept only when requested, as one
    read-only (samples, d) array in the computational basis. ``events`` is
    empty for the diffusive engine.
    """

    sample_times: np.ndarray
    born_weights: np.ndarray
    expectations: np.ndarray
    events: EventLog
    seed: int | None = None
    states: np.ndarray | None = None
    _weight_tol: float = field(default=1e-10, repr=False)

    def __post_init__(self):
        self.sample_times = np.asarray(self.sample_times, dtype=float)
        self.born_weights = np.asarray(self.born_weights, dtype=float)
        self.expectations = np.asarray(self.expectations, dtype=float)
        if np.any(np.diff(self.sample_times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        sums = self.born_weights.sum(axis=1)
        worst = float(np.max(np.abs(sums - 1.0))) if sums.size else 0.0
        if worst > self._weight_tol:
            raise ValueError(f"born-weight rows deviate from 1 by {worst:.3e}")
        if self.states is not None:
            self.states = np.asarray(self.states)
            self.states.flags.writeable = False

    def __setstate__(self, state):
        # a pickle drops the read-only flag of the snapshots; restore it
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def num_samples(self) -> int:
        return self.sample_times.size

    @property
    def dim(self) -> int:
        return self.born_weights.shape[1]

    def sample_index(self, t: float, *, tol: float = 1e-9) -> int:
        idx = int(np.argmin(np.abs(self.sample_times - t)))
        if abs(self.sample_times[idx] - t) > tol:
            raise KeyError(f"no sample at t={t}")
        return idx

    def state_at(self, t: float) -> np.ndarray:
        from .errors import MissingSnapshotError

        if self.states is None:
            raise MissingSnapshotError("trajectory was recorded without snapshots")
        return self.states[self.sample_index(t)]

    def events_between(self, start: float, stop: float) -> int:
        """Number of events with start < t <= stop, on the event clock."""
        before, upto = events_up_to(self.events.times, [start, stop])
        return int(upto - before)

    def event_flags(self) -> np.ndarray:
        """Events since the previous sample, per sample (all up to t for the first)."""
        return np.diff(events_up_to(self.events.times, self.sample_times), prepend=0)


def record_grid(t_end: float, record_interval: float) -> np.ndarray:
    """Sample times 0, r, 2r, ... capped at t_end (t_end included when hit)."""
    n = int(np.floor(t_end / record_interval + 1e-9))
    times = np.arange(n + 1) * record_interval
    times[-1] = min(times[-1], t_end)
    return times
