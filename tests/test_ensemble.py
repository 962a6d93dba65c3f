import concurrent.futures
import functools
import json
import math
import multiprocessing
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    SQ2, full_states, full_weights, random_block_basis, random_state, traced_peak,
)
from qreduce.cli import main
from qreduce.hilbert import Hamiltonian, QuantitySet, StateVector, live_coordinates
from qreduce.hitting import HitStream, simulate_hitting_batch
from qreduce.continuous import ContinuousConfig, simulate_continuous_batch
from qreduce import continuous, ensemble, trajectory
from qreduce.ensemble import (
    CHUNK_SIZE,
    CONTINUOUS_STREAM,
    HITTING_STREAM,
    derive_seed,
    run_continuous_ensemble,
    run_hitting_ensemble,
    trajectory_seeds,
)
from qreduce.trajectory import CLOCK_TOL, Ensemble, live_block, record_counts, record_grid


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = derive_seed(123, 0, 5)
        b = derive_seed(123, 0, 5)
        c = derive_seed(123, 0, 6)
        d = derive_seed(124, 0, 5)
        assert a == b
        assert len({a, c, d}) == 3

    def test_trajectory_seeds_shape(self):
        seeds = trajectory_seeds(9, 1, 10)
        assert seeds.shape == (10,)
        assert len(set(seeds.tolist())) == 10


def _weights_matrix(ens):
    """(n, S, d) Born weights: one row per trajectory, written out over all d."""
    return full_weights(ens).swapaxes(0, 1)


class TestWorkerIndependence:
    def test_hitting_identical_across_worker_counts(self, sigma_z_set, equal_qubit):
        streams = [HitStream((0,), beta=0.5, mu=5.0)]
        serial, parallel = (
            run_hitting_ensemble(
                live_block(equal_qubit, sigma_z_set, None), streams, 1.0, 0.5, 600, 7,
                workers=workers,
            )
            for workers in (1, 4)
        )
        assert np.array_equal(_weights_matrix(serial), _weights_matrix(parallel))
        for name in ("offsets", "times", "centres", "seeds"):
            assert np.array_equal(getattr(serial, name), getattr(parallel, name)), name

    def test_continuous_identical_across_worker_counts(self, sigma_z_set, equal_qubit):
        cfg = ContinuousConfig(gamma=0.5, dt=1e-2, t_end=1.0, record_interval=0.5)
        block = live_block(equal_qubit, sigma_z_set, None)
        serial = run_continuous_ensemble(block, cfg, 600, 7, workers=1)
        parallel = run_continuous_ensemble(block, cfg, 600, 7, workers=4)
        assert np.array_equal(_weights_matrix(serial), _weights_matrix(parallel))

    @pytest.mark.parametrize("engine", ["hitting", "continuous"])
    def test_small_chunks_identical_to_one_batch(self, engine, monkeypatch):
        # 40 trajectories: one batch at the default size, six chunks of 6-7
        # rows at CHUNK_SIZE = 7; every coordinate live under a random
        # Hamiltonian
        rng = np.random.default_rng(21)
        quantities = QuantitySet(rng.standard_normal((4, 2)))
        psi0 = random_state(rng, 4)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        hamiltonian = Hamiltonian(m + m.conj().T)
        if engine == "hitting":
            process = ([HitStream((0, 1), beta=0.5, mu=5.0)], 1.0, 0.25)
            run_ensemble = run_hitting_ensemble
        else:
            process = (ContinuousConfig(gamma=0.5, dt=1e-2, t_end=1.0, record_interval=0.25),)
            run_ensemble = run_continuous_ensemble

        def run():
            return run_ensemble(live_block(psi0, quantities, hamiltonian), *process, 40, 7)

        whole = run()
        monkeypatch.setattr(ensemble, "CHUNK_SIZE", 7)
        assert len(ensemble._chunks(whole.seeds, 1)) == 6
        chunked = run()
        for f in fields(Ensemble):
            a, b = getattr(whole, f.name), getattr(chunked, f.name)
            assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True), f.name

    def test_trajectory_depends_only_on_its_seed(self, sigma_z_set, equal_qubit):
        # growing the ensemble must not change earlier trajectories
        cfg = ContinuousConfig(gamma=0.5, dt=1e-2, t_end=1.0, record_interval=0.5)
        block = live_block(equal_qubit, sigma_z_set, None)
        small = run_continuous_ensemble(block, cfg, 100, 7)
        large = run_continuous_ensemble(block, cfg, 700, 7)
        assert np.array_equal(_weights_matrix(small), _weights_matrix(large)[:100])


@pytest.mark.parametrize(
    "n, pool",
    [
        (1, 1),
        (1, 4),
        (3, 8),
        (CHUNK_SIZE - 1, 1),
        (CHUNK_SIZE - 1, 2),
        (CHUNK_SIZE, 1),
        (CHUNK_SIZE + 1, 1),
        (CHUNK_SIZE + 1, 2),
        (3 * CHUNK_SIZE + 1, 1),
        (3 * CHUNK_SIZE + 1, 3),
        (3 * CHUNK_SIZE + 1, 16),
    ],
)
def test_chunk_plan_is_balanced_and_in_order(n, pool):
    seeds = np.arange(n, dtype=np.uint64)
    chunks = ensemble._chunks(seeds, pool)
    sizes = [c.size for c in chunks]
    assert np.array_equal(np.concatenate(chunks), seeds)
    assert len(chunks) == min(n, max(pool, math.ceil(n / CHUNK_SIZE)))
    assert min(sizes) >= 1
    assert max(sizes) <= CHUNK_SIZE
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize(
    "cpus, n, pool_size",
    [(1, 600, None), (2, 600, 2), (64, 5, 5), (64, 600, 64)],
)
def test_pool_is_capped_by_the_chunks_and_the_cpus(
    cpus, n, pool_size, monkeypatch, sigma_z_set, equal_qubit
):
    # a recording stand-in for the process pool: it maps in this process,
    # so a huge worker count starts no process at all
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    streams = [HitStream((0,), beta=0.5, mu=5.0)]
    block = live_block(equal_qubit, sigma_z_set, None)
    serial = run_hitting_ensemble(block, streams, 1.0, 0.5, n, 7)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(ensemble, "_available_cpus", lambda: cpus)
    pooled = run_hitting_ensemble(block, streams, 1.0, 0.5, n, 7, workers=10**6)
    assert made == ([] if pool_size is None else [pool_size])
    assert multiprocessing.active_children() == []
    assert np.array_equal(serial.weights, pooled.weights)
    assert np.array_equal(serial.times, pooled.times)


ONE_STREAM = [HitStream((0,), beta=0.5, mu=5.0)]
HITTING_LAYOUTS = {
    "no-hamiltonian": (None, ONE_STREAM),
    "sigma-x": (np.array([[0, 1], [1, 0]], dtype=complex), ONE_STREAM),
    "two-streams": (None, [HitStream((0,), 1.0, 4.0), HitStream((1,), 0.5, 6.0)]),
}


@pytest.mark.parametrize("layout", sorted(HITTING_LAYOUTS))
def test_hitting_trajectory_depends_only_on_its_seed(
    layout, sigma_z_set, correlated_pair_set, equal_qubit
):
    # the first 100 trajectories run as a batch of 100 rows and as part of
    # one of 700, and must not notice
    matrix, streams = HITTING_LAYOUTS[layout]
    quantities = sigma_z_set if len(streams) == 1 else correlated_pair_set
    hamiltonian = None if matrix is None else Hamiltonian(matrix)
    block = live_block(equal_qubit, quantities, hamiltonian)
    small, large = (
        run_hitting_ensemble(block, streams, 1.0, 0.25, n, 7) for n in (100, 700)
    )
    assert np.array_equal(_weights_matrix(small), _weights_matrix(large)[:100])
    # the first 100 trajectories' events are the first offsets[100] of the 700
    hits = large.offsets[100]
    assert np.array_equal(small.offsets, large.offsets[:101])
    assert np.array_equal(small.times, large.times[:hits])
    assert np.array_equal(small.centres, large.centres[:hits], equal_nan=True)


@functools.cache
def _d16_continuous(layout: str, n: int):
    # d = 16 and K = 8, every coordinate live: a (rows, d) @ (d, K) BLAS
    # product rounds a row differently with the batch's row count, and
    # np.sum over 8 or more terms adds a lone column pairwise but a
    # batch's columns in order
    rng = np.random.default_rng(16)
    quantities = QuantitySet(rng.standard_normal((16, 8)))
    psi0 = random_state(rng, 16)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    hamiltonian = None if layout == "no-hamiltonian" else Hamiltonian(m + m.conj().T)
    cfg = ContinuousConfig(gamma=0.5, dt=5e-3, t_end=0.1, record_interval=0.05)
    records = run_continuous_ensemble(live_block(psi0, quantities, hamiltonian), cfg, n, 7)
    return _weights_matrix(records), records.expectations.swapaxes(0, 1)


@pytest.mark.parametrize("layout", ["no-hamiltonian", "hamiltonian"])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(n=st.integers(1, 700))
@example(n=1)
def test_continuous_trajectory_depends_only_on_its_seed(layout, n):
    # n trajectories run as a batch of n rows and as part of one of 700,
    # and must not notice
    weights, expectations = _d16_continuous(layout, n)
    all_weights, all_expectations = _d16_continuous(layout, 700)
    assert np.array_equal(weights, all_weights[:n])
    assert np.array_equal(expectations, all_expectations[:n])


class TestRecordShape:
    def test_records_share_the_grid(self, sigma_z_set, equal_qubit):
        streams = [HitStream((0,), beta=0.5, mu=5.0)]
        records = run_hitting_ensemble(
            live_block(equal_qubit, sigma_z_set, None), streams, 2.0, 0.25, 20, 3
        )
        times = records.sample_times
        assert times[0] == 0.0 and times[-1] == pytest.approx(2.0)
        assert records.weights.shape[:2] == (times.size, 20)


# engine -> (process arguments, ensemble runner, batch kernel on seeds, stream tag)
ENGINES = {
    "hitting": (
        ([HitStream((0,), beta=0.5, mu=5.0)], 1.0, 0.25),
        run_hitting_ensemble,
        simulate_hitting_batch,
        HITTING_STREAM,
    ),
    "continuous": (
        (ContinuousConfig(gamma=0.5, dt=1e-2, t_end=1.0, record_interval=0.25),),
        run_continuous_ensemble,
        simulate_continuous_batch,
        CONTINUOUS_STREAM,
    ),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_single_trajectory_is_the_ensemble_record(engine, sigma_z_set, equal_qubit):
    # a one-row batch equals row i of the runner
    process, run_ensemble, simulate, stream_tag = ENGINES[engine]
    hamiltonian = Hamiltonian(np.array([[0, 1], [1, 0]], dtype=complex))
    block = live_block(equal_qubit, sigma_z_set, hamiltonian)
    records = run_ensemble(block, *process, 6, 11)
    seeds = trajectory_seeds(11, stream_tag, 6)
    for i in (0, 3, 5):
        single = simulate(block, *process, [int(seeds[i])])
        a, b = records.offsets[i], records.offsets[i + 1]
        assert single.seeds.tolist() == [int(records.seeds[i])] == [int(seeds[i])]
        assert np.array_equal(full_weights(single)[:, 0], full_weights(records)[:, i])
        assert np.array_equal(single.expectations[:, 0], records.expectations[:, i])
        assert np.array_equal(single.states[:, 0], records.states[:, i])
        assert np.array_equal(single.times, records.times[a:b])
        assert np.array_equal(single.centres, records.centres[a:b])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_snapshots_are_one_read_only_array(engine, workers, sigma_z_set, equal_qubit):
    # two workers split 600 trajectories into two chunks of 300 and run
    # a process pool, on a host with at least two CPUs
    process, run_ensemble, _, _ = ENGINES[engine]
    block = live_block(equal_qubit, sigma_z_set, None)
    records = run_ensemble(block, *process, 600, 5, workers=workers)
    assert isinstance(records.states, np.ndarray)
    assert records.states.shape == (records.sample_times.size, 600, records.dim)
    assert not records.states.flags.writeable
    assert not records.times.flags.writeable
    assert not records.centres.flags.writeable


def _per_row_counts(offsets, times, sample_times):
    """Reference event clock: one searchsorted per trajectory."""
    limits = np.asarray(sample_times) * (1.0 + CLOCK_TOL)
    return np.array(
        [np.searchsorted(times[a:b], limits, side="right")
         for a, b in zip(offsets[:-1], offsets[1:])]
    ).reshape(len(offsets) - 1, limits.size)


@settings(derandomize=True, max_examples=50, deadline=None)
@example(counts=[0, 12, 3, 0, 0, 7, 1], interval=0.25, seed=3)
@given(
    counts=st.lists(st.integers(0, 12), min_size=1, max_size=8),
    interval=st.sampled_from([0.1, 0.3, 0.25, 1 / 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_record_counts_match_per_row_clock(counts, interval, seed):
    # event times on, a rounding off, and between the record times
    rng = np.random.default_rng(seed)
    sample_times = record_grid(3.0, interval)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    pool = np.concatenate([
        sample_times,
        np.arange(1, 31) / 10.0,
        sample_times * (1 + 1e-15),
        sample_times * (1 - 1e-15),
        rng.uniform(0.0, 3.5, 20),
    ])
    times = np.concatenate(
        [np.sort(rng.choice(pool, size=c)) for c in counts]
    )
    expected = _per_row_counts(offsets, times, sample_times)
    assert np.array_equal(record_counts(offsets, times, sample_times), expected)
    # blocks of 5 events: blocks split the rows, and a row of more than 5
    # events spans several blocks
    with mock.patch.object(trajectory, "EVENT_BLOCK", 5):
        assert np.array_equal(record_counts(offsets, times, sample_times), expected)


class TestEnsembleArrays:
    @pytest.fixture(scope="class")
    def ensemble(self, sigma_z_set, equal_qubit):
        streams = [HitStream((0,), beta=0.5, mu=5.0)]
        return run_hitting_ensemble(
            live_block(equal_qubit, sigma_z_set, None), streams, 1.0, 0.25, 30, 2
        )

    def test_layout_and_read_only(self, ensemble):
        assert ensemble.weights.shape == (5, 30, 2)
        assert ensemble.expectations.shape == (5, 30, 1)
        assert ensemble.states.shape == (5, 30, 2)
        assert ensemble.table.shape == (2, 1)
        assert ensemble.offsets.shape == (31,)
        assert ensemble.centres.shape == (ensemble.times.size, 1)
        for name in ("seeds", "sample_times", "weights", "expectations", "states",
                     "table", "offsets", "times", "centres"):
            assert not getattr(ensemble, name).flags.writeable
        # each sample's rows are one contiguous block
        assert all(block.flags.c_contiguous for block in ensemble.states)

    def test_states_are_the_only_stored_record(self, ensemble):
        assert {"weights", "expectations"}.isdisjoint(f.name for f in fields(Ensemble))
        # derived once, from the states, with the hitting kernel's formulas
        assert ensemble.weights is ensemble.weights
        assert ensemble.expectations is ensemble.expectations
        weights = np.abs(ensemble.states) ** 2
        weights /= weights.sum(axis=2)[:, :, np.newaxis]
        assert np.array_equal(ensemble.weights, weights)
        means = np.einsum("rbd,dk->rbk", weights, ensemble.table)
        assert np.array_equal(ensemble.expectations, means)
        with pytest.raises(AttributeError):
            ensemble.weights = weights

    def test_concat_of_parts_is_the_whole(self, ensemble, sigma_z_set, equal_qubit):
        seeds = trajectory_seeds(2, HITTING_STREAM, 30)
        parts = [
            simulate_hitting_batch(
                live_block(equal_qubit, sigma_z_set, None), [HitStream((0,), 0.5, 5.0)],
                1.0, 0.25, seeds[a:b],
            )
            for a, b in ((0, 7), (7, 8), (8, 30))
        ]
        joined = Ensemble.concat(parts, 30)
        for name in ("seeds", "weights", "expectations", "states", "table", "offsets",
                     "times", "centres", "stream_ids"):
            assert np.array_equal(getattr(joined, name), getattr(ensemble, name))

    def test_concat_parts_must_share_their_table(self, sigma_z_set, equal_qubit):
        seeds = trajectory_seeds(2, HITTING_STREAM, 4)
        parts = [
            simulate_hitting_batch(
                live_block(equal_qubit, quantities, None), [HitStream((0,), 0.5, 5.0)],
                1.0, 0.25, seeds[a:b],
            )
            for quantities, (a, b) in zip(
                (sigma_z_set, QuantitySet(2.0 * sigma_z_set.eigenvalue_table)),
                ((0, 2), (2, 4)),
            )
        ]
        with pytest.raises(ValueError, match="live coordinates"):
            Ensemble.concat(parts, 4)

    def test_state_rows_must_have_unit_norm(self):
        fields = dict(
            seeds=np.zeros(1, dtype=np.uint64), sample_times=np.array([0.0, 1.0]),
            table=np.array([[1.0], [-1.0]]), offsets=np.array([0, 0]),
            times=np.empty(0), centres=np.empty((0, 1)), live=np.arange(2), dim=2,
        )
        Ensemble(states=np.array([[[SQ2, SQ2]], [[1.0, 0.0]]], dtype=complex), **fields)
        # a squared norm of 1 + 1e-9 in the second record
        with pytest.raises(ValueError, match="norm"):
            Ensemble(states=np.array([[[SQ2, SQ2]], [[1.0, math.sqrt(1e-9)]]], dtype=complex),
                     **fields)

    def test_seeds_must_hold_one_seed_per_row(self):
        fields = dict(
            sample_times=np.array([0.0]), table=np.zeros((1, 1)),
            offsets=np.zeros(3, dtype=int), times=np.empty(0), centres=np.empty((0, 1)),
            live=np.arange(1), dim=1, states=np.ones((1, 2, 1), dtype=complex),
        )
        Ensemble(seeds=np.arange(2), **fields)
        for seeds in (None, np.arange(1), np.arange(3)):
            with pytest.raises(ValueError, match="seed"):
                Ensemble(seeds=seeds, **fields)

    def test_states_must_fit_the_grid_seeds_and_live_coordinates(self):
        fields = dict(
            seeds=np.arange(2), sample_times=np.array([0.0]), table=np.zeros((2, 1)),
            offsets=np.zeros(3, dtype=int), times=np.empty(0), centres=np.empty((0, 1)),
            live=np.array([1, 3]), dim=4,
        )
        Ensemble(states=np.full((1, 2, 2), SQ2, dtype=complex), **fields)
        # the states written out over all d, or with a sample or a row too few
        for shape in ((1, 2, 4), (0, 2, 2), (1, 1, 2)):
            with pytest.raises(ValueError, match="states"):
                Ensemble(states=np.full(shape, 0.5, dtype=complex), **fields)
        # a table row too few or too many
        for rows in (1, 3):
            with pytest.raises(ValueError, match="table"):
                Ensemble(states=np.full((1, 2, 2), SQ2, dtype=complex),
                         **{**fields, "table": np.zeros((rows, 1))})


# -- the live joint coordinates ---------------------------------------------------

# (runner, its process arguments for a quantity set)
LIVE_ENGINES = (
    (
        run_hitting_ensemble,
        lambda quantities: ([HitStream(range(quantities.num_quantities), 0.8, 4.0)], 1.0, 0.5),
    ),
    (
        run_continuous_ensemble,
        lambda quantities: (
            ContinuousConfig(gamma=0.5, dt=2.0**-7, t_end=1.0, record_interval=0.5),
        ),
    ),
)


def _all_coordinates(coeffs, h_joint=None):
    return np.arange(np.shape(coeffs)[-1])


def _assert_live_block_is_the_full_table(psi0, hamiltonian, quantities, n, seed):
    """Both engines on the live block equal the same draws on the full table."""
    h_joint = None if hamiltonian is None else quantities.joint_hamiltonian(hamiltonian)
    expected_live = live_coordinates(quantities.to_joint(psi0), h_joint)
    dead = np.setdiff1d(np.arange(quantities.dim), expected_live)
    for run, process in LIVE_ENGINES:
        args = process(quantities)
        live = run(live_block(psi0, quantities, hamiltonian), *args, n, seed)
        with mock.patch("qreduce.trajectory.live_coordinates", _all_coordinates):
            full = run(live_block(psi0, quantities, hamiltonian), *args, n, seed)
        assert np.array_equal(live.live, expected_live)
        assert np.array_equal(full.live, np.arange(quantities.dim))
        assert live.dim == full.dim == quantities.dim
        for name in ("weights", "expectations", "states"):
            a, b = getattr(live, name), getattr(full, name)
            if name == "weights":
                a, b = full_weights(live), full_weights(full)
            elif name == "states":
                a, b = full_states(live, quantities), full_states(full, quantities)
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12
        assert np.all(full_weights(live)[..., dead] == 0.0)
        assert np.array_equal(live.offsets, full.offsets)
        assert np.array_equal(live.times, full.times)
        assert np.array_equal(live.centres, full.centres, equal_nan=True)
    return dead


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: sum(s) <= 4),
    num_q=st.integers(1, 2),
    # a few distinct eigenvalues, so rows of the table often coincide
    levels=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=10, max_size=10),
    dead_blocks=st.lists(st.booleans(), min_size=3, max_size=3),
    with_hamiltonian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_live_block_runs_equal_full_table_runs(
    sizes, num_q, levels, dead_blocks, with_hamiltonian, seed
):
    # the last block is one joint eigenvector absent from psi0, which no
    # Hamiltonian below couples, so every example with d > 2 has a dead
    # coordinate (at d = 2 the live set is padded to both)
    rng = np.random.default_rng(seed)
    sizes = [*sizes, 1]
    dim = sum(sizes)
    basis, blocks = random_block_basis(rng, sizes)
    quantities = QuantitySet(np.array(levels[: dim * num_q]).reshape(dim, num_q), basis)
    amps = np.zeros(dim, dtype=complex)
    # the first block is always in psi0
    for (rows, _), dead in zip(blocks[:-1], [False, *dead_blocks]):
        if not dead:
            amps[rows] = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
    psi0 = StateVector(amps, normalize=True)
    hamiltonian = None
    if with_hamiltonian:
        # Hermitian blocks on the joint coordinates of each basis block
        h_joint = np.zeros((dim, dim), dtype=complex)
        for _, cols in blocks:
            m = rng.standard_normal((cols.size,) * 2) + 1j * rng.standard_normal((cols.size,) * 2)
            h_joint[np.ix_(cols, cols)] = 0.5 * (m + m.conj().T)
        hamiltonian = Hamiltonian(quantities.operator_from_joint(h_joint))
    dead = _assert_live_block_is_the_full_table(psi0, hamiltonian, quantities, 40, seed)
    assert dead.size > 0 or dim == 2


@pytest.mark.parametrize("with_hamiltonian", [False, True])
def test_single_joint_eigenvector_stays_put(with_hamiltonian, three_level_set):
    # the live set is one coordinate, padded to the two a QuantitySet needs
    psi0 = StateVector([0.0, 1.0, 0.0])
    hamiltonian = Hamiltonian(np.diag([0.3, -1.0, 2.0])) if with_hamiltonian else None
    assert live_coordinates(three_level_set.to_joint(psi0)).tolist() == [0, 1]
    dead = _assert_live_block_is_the_full_table(psi0, hamiltonian, three_level_set, 20, 4)
    assert dead.tolist() == [2]
    for run, process in LIVE_ENGINES:
        ens = run(live_block(psi0, three_level_set, hamiltonian), *process(three_level_set), 20, 4)
        assert np.all(full_weights(ens) == [0.0, 1.0, 0.0])


def test_hamiltonian_coupling_keeps_its_coordinates_live(three_level_set):
    # psi0 on coordinate 1, which the Hamiltonian couples to coordinate 2
    psi0 = StateVector([0.0, 1.0, 0.0])
    hamiltonian = Hamiltonian([[0.3, 0.0, 0.0], [0.0, -1.0, 0.7], [0.0, 0.7, 2.0]])
    dead = _assert_live_block_is_the_full_table(psi0, hamiltonian, three_level_set, 20, 4)
    assert dead.tolist() == [0]


@pytest.mark.parametrize("with_hamiltonian", [False, True])
def test_weights_on_the_live_coordinates_are_the_full_ones(with_hamiltonian):
    # d = 6, psi0 on coordinates 1 and 4; the Hamiltonian couples every
    # neighbouring pair, so with it every coordinate is live
    quantities = QuantitySet(np.array([[0.0], [0.3], [0.5], [1.1], [1.4], [2.0]]))
    amps = np.zeros(6, dtype=complex)
    amps[[1, 4]] = [0.6, 0.8j]
    psi0 = StateVector(amps)
    hamiltonian = None
    if with_hamiltonian:
        hamiltonian = Hamiltonian(np.diag(np.full(5, 0.7), 1) + np.diag(np.full(5, 0.7), -1))
    h_joint = None if hamiltonian is None else quantities.joint_hamiltonian(hamiltonian)
    expected_live = [0, 1, 2, 3, 4, 5] if with_hamiltonian else [1, 4]
    assert live_coordinates(quantities.to_joint(psi0), h_joint).tolist() == expected_live
    for run, process in LIVE_ENGINES:
        ens = run(live_block(psi0, quantities, hamiltonian), *process(quantities), 30, 8)
        assert ens.live.tolist() == expected_live and ens.dim == 6
        assert ens.weights.shape[2] == len(expected_live)
        # the reference: the Born weights of the stored states, written out at full d
        reference = np.abs(quantities.to_joint(full_states(ens, quantities))) ** 2
        reference /= reference.sum(axis=2)[:, :, np.newaxis]
        assert np.array_equal(full_weights(ens), reference)


def test_concat_requires_shared_live_coordinates(three_level_set):
    process = ([HitStream((0,), 0.8, 4.0)], 1.0, 0.5)
    on_two, on_three = (
        run_hitting_ensemble(live_block(StateVector(amps), three_level_set, None), *process, 3, 1)
        for amps in ([0.6, 0.8, 0.0], [0.6, 0.0, 0.8])
    )
    assert on_two.live.tolist() == [0, 1] and on_three.live.tolist() == [0, 2]
    assert len(Ensemble.concat([on_two, on_two], 6)) == 6
    with pytest.raises(ValueError):
        Ensemble.concat([on_two, on_three], 6)


@pytest.mark.parametrize("n", [1, 37])
def test_noise_block_length_moves_no_bit(n, monkeypatch):
    # d = 16, K = 3, 45 steps: one block at the default budget, then blocks
    # of 1 and of 7 steps (the last one 3)
    rng = np.random.default_rng(16)
    quantities = QuantitySet(rng.standard_normal((16, 3)))
    psi0 = random_state(rng, 16)
    config = ContinuousConfig(gamma=0.4, dt=0.02, t_end=0.9, record_interval=0.3)

    def run():
        return run_continuous_ensemble(live_block(psi0, quantities, None), config, n, 3)

    default = run()
    assert continuous.noise_block_steps(n, 3) == 86
    for steps in (1, 7):
        monkeypatch.setattr(continuous, "NOISE_BLOCK_BYTES", steps * 8 * n * 3)
        assert continuous.noise_block_steps(n, 3) == steps
        blocked = run()
        for f in fields(Ensemble):
            a, b = getattr(default, f.name), getattr(blocked, f.name)
            assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True), f.name


def test_noise_block_holds_about_256_normals_a_row(monkeypatch):
    # the shape of a d = 715 lattice run: 200 rows, K = 10 quantities, psi0
    # on L = 2 coordinates, 300 steps and 3 records. Beside what a run of
    # one-step blocks holds (its records, generators and step temporaries),
    # the block adds ceil(256 / K) steps of K normals a row; a block sized
    # by its 2 MB budget alone took 131 steps
    rows, k = 200, 10
    rng = np.random.default_rng(715)
    amps = np.zeros(715)
    amps[[3, 700]] = SQ2
    block = live_block(StateVector(amps), QuantitySet(rng.standard_normal((715, k))), None)
    config = ContinuousConfig(gamma=1.0, dt=0.0008, t_end=0.24, record_interval=0.12)
    seeds = trajectory_seeds(715, CONTINUOUS_STREAM, rows)
    # a first small run keeps one-time imports out of the traced peak
    simulate_continuous_batch(block, config, seeds[:2])
    ens, peak = traced_peak(simulate_continuous_batch, block, config, seeds)
    assert continuous.noise_block_steps(rows, k) == 26
    monkeypatch.setattr(continuous, "NOISE_BLOCK_BYTES", rows * k * 8)
    one_step, base = traced_peak(simulate_continuous_batch, block, config, seeds)
    assert one_step.states.tobytes() == ens.states.tobytes()
    assert peak - base <= rows * (continuous.NOISE_ROW_NORMALS + k) * 8


@pytest.mark.parametrize("num_quantities", [1, 3])
def test_hitting_memory_is_the_preflight_hit_bytes(num_quantities):
    # about 300k hits: the kernel's inputs and outputs take 17 + 16 K bytes
    # per hit (times, uniforms, noise, centres, one stream id), which is
    # what the CLI's pre-flight sizes; an event clock keyed over all hits
    # at once would add three int64 arrays of one entry per hit
    n, mu, t_end = 200, 300.0, 5.0
    quantities = QuantitySet(np.array([[1.0, -1.0, 0.5], [-1.0, 1.0, -0.5]])[:, :num_quantities])
    psi0 = StateVector([SQ2, SQ2])
    streams = [HitStream(tuple(range(num_quantities)), 0.05, mu)]
    # a first small run keeps one-time imports out of the traced peak
    run_hitting_ensemble(live_block(psi0, quantities, None), streams, 1.0, 1.0, 2, 1)
    ens, peak = traced_peak(
        lambda: run_hitting_ensemble(live_block(psi0, quantities, None), streams, t_end, t_end,
                                     n, 3)
    )
    assert 290_000 < ens.times.size < 310_000
    assert peak <= 1.15 * n * mu * t_end * (17 + 16 * num_quantities)


@pytest.mark.parametrize("runner", ["hitting", "continuous"])
def test_hamiltonian_block_is_held_once(runner):
    # every one of d = 700 coordinates live under a nearest-neighbour
    # Hamiltonian: live_block slices the L x L joint-basis block and the
    # kernel builds its own form from it (eigenvectors, or the 2L x 2L real
    # form), with no further copy of the block; one more copy held beside
    # them would take the peak to 4 (hitting) or 4.5 (diffusion) such
    # matrices. The cut is traced with the run, as a command makes it
    d, n = 700, 20
    rng = np.random.default_rng(7)
    quantities = QuantitySet(np.linspace(0.0, 1.0, d)[:, np.newaxis])
    psi0 = random_state(rng, d)
    hopping = np.zeros((d, d))
    hopping[np.arange(d - 1), np.arange(1, d)] = hopping[np.arange(1, d), np.arange(d - 1)] = 1.0
    hamiltonian = Hamiltonian(hopping)
    if runner == "hitting":
        args = (run_hitting_ensemble, [HitStream((0,), 0.5, 4.0)], 1.0, 0.5)
    else:
        args = (run_continuous_ensemble,
                ContinuousConfig(gamma=1.0, dt=0.05, t_end=1.0, record_interval=0.5))
    run, *process = args
    ens, peak = traced_peak(
        lambda: run(live_block(psi0, quantities, hamiltonian), *process, n, 5)
    )
    assert ens.weights.shape == (3, n, d)
    assert peak < 3.5 * 16 * d * d


@pytest.mark.parametrize("runner", ["hitting", "continuous"])
def test_runner_memory_follows_the_live_coordinates(runner):
    # d = 5000 with psi0 on 2 coordinates, 50 trajectories and 4 records:
    # one (S, n, d) float64 array would take 7.6 MiB
    d, n = 5000, 50
    quantities = QuantitySet(np.linspace(0.0, 1.0, d)[:, np.newaxis])
    amps = np.zeros(d, dtype=complex)
    amps[[10, 4000]] = np.sqrt(0.5)
    psi0 = StateVector(amps)
    if runner == "hitting":
        args = (run_hitting_ensemble, [HitStream((0,), 50.0, 20.0)], 0.3, 0.1)
    else:
        args = (run_continuous_ensemble,
                ContinuousConfig(gamma=1.0, dt=0.01, t_end=0.3, record_interval=0.1))
    run, *process = args
    ens, peak = traced_peak(lambda: run(live_block(psi0, quantities, None), *process, n, 11))
    assert ens.weights.shape == (4, n, 2) and ens.live.tolist() == [10, 4000]
    assert peak < 4 * n * d * 8 / 4


@pytest.mark.parametrize("runner", ["hitting", "continuous"])
def test_join_holds_one_chunk_beside_the_joined_arrays(runner, monkeypatch):
    # 6 serial chunks of 40 rows, 201 records on 4 live coordinates: the
    # run's peak is the joined arrays plus the peak of a one-chunk run, as
    # each chunk is copied into the joined arrays and dropped before the
    # next one is made
    monkeypatch.setattr(ensemble, "CHUNK_SIZE", 40)
    quantities = QuantitySet(np.arange(4.0)[:, np.newaxis])
    psi0 = StateVector(np.full(4, 0.5))
    if runner == "hitting":
        args = (run_hitting_ensemble, [HitStream((0,), 0.05, 20.0)], 2.0, 0.01)
    else:
        args = (run_continuous_ensemble,
                ContinuousConfig(gamma=0.5, dt=0.01, t_end=2.0, record_interval=0.01))
    run, *process = args
    _, one_chunk = traced_peak(lambda: run(live_block(psi0, quantities, None), *process, 40, 3))
    ens, peak = traced_peak(lambda: run(live_block(psi0, quantities, None), *process, 240, 3))
    arrays = [getattr(ens, f.name) for f in fields(ens)]
    joined = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    assert peak < joined + one_chunk + 64 * 2**10
    assert ens.weights.shape == (201, 240, 4)


def test_lattice_run_is_worker_invariant_across_chunks(tmp_path):
    # d = 10, psi0 on 2 Fock configurations; two workers split 600
    # trajectories into two chunks of 300
    raw = {
        "scenario": "identical-particles",
        "engine": "both",
        "beta": 0.5,
        "mu": 4.0,
        "dt": 0.01,
        "t_end": 0.5,
        "record_interval": 0.25,
        "n_trajectories": 600,
        "seed": 10,
        "sites": 4,
        "dx": 1.0,
        "alpha": 2.0,
        "species": [{"name": "b", "count": 2}],
        "initial_state": [
            {"occupations": [[2, 0, 0, 0]], "re": 0.7071067811865476},
            {"occupations": [[0, 0, 1, 1]], "re": 0.7071067811865476},
        ],
    }
    cfg_path = tmp_path / "lattice.json"
    cfg_path.write_text(json.dumps(raw))
    outs = [tmp_path / f"w{w}" for w in (1, 2)]
    for workers, out in zip((1, 2), outs):
        assert main(["run", str(cfg_path), "--workers", str(workers), "--out", str(out)]) == 0
    for name in ("trajectories.csv", "events.csv", "summary.json", "compare.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
