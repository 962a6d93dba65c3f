import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SQ2, full_states, full_weights, pure, random_state, random_unitary, within_z,
)
from qreduce.ensemble import run_hitting_ensemble
from qreduce.equivalence import (
    ensemble_density_matrix,
    hitting_master_evolution,
    trace_norm_distance,
)
from qreduce.errors import VanishingNormError
from qreduce.hilbert import Hamiltonian, QuantitySet, StateVector, validate_quantity_set
from qreduce.hitting import (
    HitStream,
    Schedule,
    apply_hitting,
    hitting_density,
    run_hitting_chain_batch,
    sample_hitting_centre,
    schedule_hittings,
    sharpening_operator,
    simulate_hitting_batch,
)
from qreduce.trajectory import live_block, record_counts

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestSharpeningOperator:
    def test_identity_proportional_when_operator_squares_to_identity(self, sigma_z_set):
        # sigma_z with centre 0: (A - 0)^2 = I, so the hit cannot move the state
        beta = 0.7
        s = sharpening_operator(sigma_z_set, [0.0], beta)
        expected = (beta / math.pi) ** 0.25 * math.exp(-beta / 2) * np.eye(2)
        assert np.allclose(s, expected, atol=1e-14)

    def test_qubit_centre_plus_one(self, sigma_z_set):
        s = sharpening_operator(sigma_z_set, [1.0], 1.0)
        pref = (1 / math.pi) ** 0.25
        assert np.allclose(np.diagonal(s), [pref, pref * math.exp(-2.0)], atol=1e-14)
        assert np.allclose(s, np.diag(np.diagonal(s)))

    def test_two_quantity_offsets(self, correlated_pair_set):
        s = sharpening_operator(correlated_pair_set, [1.0, 3.0], 2.0)
        pref = (2 / math.pi) ** 0.5
        assert np.allclose(np.diagonal(s), [pref, pref * math.exp(-5.0)], atol=1e-14)


class TestApplyHitting:
    def test_eigenstates_are_fixed_points(self, sigma_z_set):
        psi = StateVector([0.0, 1.0])
        post, _ = apply_hitting(psi, sigma_z_set, [0.3], 2.0)
        assert np.allclose(post.amplitudes, psi.amplitudes, atol=1e-14)

    def test_sharp_hit_localizes(self, sigma_z_set, equal_qubit):
        # fidelity above 1 - 1e-40 means the residual weight is below 1e-40
        post, _ = apply_hitting(equal_qubit, sigma_z_set, [1.0], 50.0)
        assert abs(post.amplitudes[1]) ** 2 < 1e-40
        assert abs(post.amplitudes[0]) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_norm_weight_of_neutral_centre(self, sigma_z_set, equal_qubit):
        beta = 1.0
        post, norm2 = apply_hitting(equal_qubit, sigma_z_set, [0.0], beta)
        assert np.allclose(post.amplitudes, equal_qubit.amplitudes, atol=1e-14)
        assert norm2 == pytest.approx((beta / math.pi) ** 0.5 * math.exp(-beta))

    def test_vanishing_norm_for_absurd_centre(self, sigma_z_set, equal_qubit):
        with pytest.raises(VanishingNormError):
            apply_hitting(equal_qubit, sigma_z_set, [1e6], 1.0)


class TestSampleHittingCentre:
    def test_eigenstate_moments(self, sigma_z_set):
        rng = np.random.default_rng(11)
        psi = StateVector([1.0, 0.0])
        beta = 2.0
        draws = np.array(
            [sample_hitting_centre(psi, sigma_z_set, beta, rng)[0] for _ in range(20000)]
        )
        se_mean = math.sqrt(1 / (2 * beta)) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 4 * se_mean
        var = draws.var(ddof=1)
        se_var = var * math.sqrt(2.0 / draws.size)
        assert abs(var - 1 / (2 * beta)) < 4 * se_var

    def test_superposition_mean_and_prelimit_variance(self, sigma_z_set, equal_qubit):
        rng = np.random.default_rng(12)
        beta = 0.5
        draws = np.array(
            [sample_hitting_centre(equal_qubit, sigma_z_set, beta, rng)[0] for _ in range(20000)]
        )
        target_var = 1 / (2 * beta) + 1.0  # noise width plus quantum variance
        assert abs(draws.mean()) < 4 * math.sqrt(target_var / draws.size)
        var = draws.var(ddof=1)
        assert abs(var - target_var) < 4 * var * math.sqrt(2.0 / draws.size)

    def test_sampler_matches_density_histogram(self, sigma_z_set, equal_qubit):
        # coarse goodness of fit: bin counts vs integrated density
        rng = np.random.default_rng(13)
        beta = 1.0
        n = 50000
        draws = np.array(
            [sample_hitting_centre(equal_qubit, sigma_z_set, beta, rng)[0] for _ in range(n)]
        )
        edges = np.linspace(-4, 4, 33)
        counts, _ = np.histogram(draws, bins=edges)
        centres = 0.5 * (edges[:-1] + edges[1:])
        widths = np.diff(edges)
        expected = n * widths * np.array(
            [hitting_density(equal_qubit, sigma_z_set, [c], beta) for c in centres]
        )
        inside = expected > 10
        chi2 = float(np.sum((counts[inside] - expected[inside]) ** 2 / expected[inside]))
        from scipy.stats import chi2 as chi2_dist

        dof = int(inside.sum()) - 1
        assert chi2 < chi2_dist.ppf(0.99, dof)


class TestHittingDensity:
    def test_peak_value_on_eigenstate(self, correlated_pair_set):
        psi = StateVector([1.0, 0.0])
        beta = 0.8
        peak = hitting_density(psi, correlated_pair_set, [1.0, 3.0], beta)
        assert peak == pytest.approx((beta / math.pi) ** 1.0)

    def test_superposition_neutral_point(self, sigma_z_set, equal_qubit):
        value = hitting_density(equal_qubit, sigma_z_set, [0.0], 1.0)
        assert value == pytest.approx((1 / math.pi) ** 0.5 * math.exp(-1.0))

    def test_density_normalizes(self, sigma_z_set, equal_qubit):
        grid = np.linspace(-10, 10, 2001)
        values = [hitting_density(equal_qubit, sigma_z_set, [a], 1.0) for a in grid]
        total = np.trapezoid(values, grid)
        assert total == pytest.approx(1.0, abs=1e-3)


class TestScheduleHittings:
    def test_evenly_spaced_grid(self):
        stream = HitStream((0,), beta=1, mu=10, schedule=Schedule.EVENLY_SPACED)
        times = schedule_hittings(stream, 1.0, np.random.default_rng(0))
        assert np.allclose(times, np.arange(1, 11) / 10.0)

    def test_poisson_count_statistics(self):
        stream = HitStream((0,), beta=1, mu=10, schedule=Schedule.POISSON)
        rng = np.random.default_rng(21)
        counts = [schedule_hittings(stream, 1.0, rng).size for _ in range(10000)]
        mean = np.mean(counts)
        se = math.sqrt(10.0 / len(counts))
        assert abs(mean - 10.0) < 3 * se

    def test_rare_hittings_can_be_empty(self):
        stream = HitStream((0,), beta=1, mu=0.5, schedule=Schedule.EVENLY_SPACED)
        times = schedule_hittings(stream, 1.0, np.random.default_rng(0))
        assert times.size == 0

    def test_times_inside_window(self):
        stream = HitStream((0,), beta=1, mu=7.3, schedule=Schedule.POISSON)
        rng = np.random.default_rng(3)
        for _ in range(100):
            times = schedule_hittings(stream, 2.1, rng)
            assert np.all(times > 0) and np.all(times <= 2.1)
            assert np.all(np.diff(times) >= 0)


class TestSimulateHittingTrajectory:
    def test_eigenvector_constant(self, three_level_set):
        psi = StateVector([0.0, 0.0, 1.0])
        streams = [HitStream((0,), beta=0.5, mu=20)]
        ens = simulate_hitting_batch(
            live_block(psi, three_level_set, None), streams, 2.0, 0.25, [5],
        )
        weights = full_weights(ens)[:, 0]
        assert np.allclose(weights, weights[0], atol=1e-10)
        assert np.allclose(weights[0], [0, 0, 1], atol=1e-10)

    def test_born_rule_collapse_fractions(self, sigma_z_set, equal_qubit):
        streams = [HitStream((0,), beta=1.0, mu=10)]
        ens = simulate_hitting_batch(
            live_block(equal_qubit, sigma_z_set, None), streams, 6.0, 6.0, np.arange(600)
        )
        outcomes = full_weights(ens)[-1, :, 0] > 0.5
        frac = np.mean(outcomes)
        assert abs(frac - 0.5) < 5 * math.sqrt(0.25 / len(outcomes))

    def test_pure_unitary_matches_rabi(self, sigma_z_set):
        psi = StateVector([1.0, 0.0])
        ham = Hamiltonian(SX)
        streams = [HitStream((0,), beta=1.0, mu=1e-6, schedule=Schedule.EVENLY_SPACED)]
        ens = simulate_hitting_batch(live_block(psi, sigma_z_set, ham), streams, 1.5, 0.25, [1])
        for t, w in zip(ens.sample_times, full_weights(ens)[:, 0]):
            assert w[0] == pytest.approx(math.cos(t) ** 2, abs=1e-10)

    def test_unit_norm_snapshots_and_seed(self, sigma_z_set, equal_qubit):
        streams = [HitStream((0,), beta=0.5, mu=5)]
        ens = simulate_hitting_batch(
            live_block(equal_qubit, sigma_z_set, None), streams, 2.0, 0.5, [42],
        )
        assert ens.seeds.tolist() == [42]
        for state in ens.states[:, 0]:
            assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_reproduces(self, sigma_z_set, equal_qubit):
        streams = [HitStream((0,), beta=0.5, mu=5)]
        block = live_block(equal_qubit, sigma_z_set, None)
        a = simulate_hitting_batch(block, streams, 2.0, 0.5, [9])
        b = simulate_hitting_batch(block, streams, 2.0, 0.5, [9])
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.centres, b.centres)


class TestMultistream:
    def test_two_streams_cover_their_quantities(self, correlated_pair_set, equal_qubit):
        streams = [
            HitStream(quantity_indices=(0,), beta=1.0, mu=8.0),
            HitStream(quantity_indices=(1,), beta=2.0, mu=3.0),
        ]
        ens = simulate_hitting_batch(
            live_block(equal_qubit, correlated_pair_set, None), streams, 4.0, 1.0, [77]
        )
        centres = ens.centres
        assert centres.shape[1] == 2
        # each event carries exactly one stream's component
        hit_notnan = ~np.isnan(centres)
        assert np.all(hit_notnan.sum(axis=1) == 1)
        assert hit_notnan[:, 0].sum() > 0 and hit_notnan[:, 1].sum() > 0

    def test_multistream_collapses_like_single(self, correlated_pair_set, equal_qubit):
        streams = [
            HitStream(quantity_indices=(0,), beta=2.0, mu=10.0),
            HitStream(quantity_indices=(1,), beta=2.0, mu=10.0),
        ]
        ens = simulate_hitting_batch(
            live_block(equal_qubit, correlated_pair_set, None), streams, 8.0, 2.0, [5]
        )
        assert full_weights(ens)[-1, 0].max() > 0.999


def _chain(block, stream, counts, uniforms, noise, seeds=None):
    """The kernel on one stream from ``block``, ``counts[b]`` hits in row b, all at t = 1.

    Records are taken at t = 0 and t = 1: before any hit and after all.
    Row b's seed is ``seeds[b]``, b itself unless given.
    """
    offsets = np.concatenate([[0], np.cumsum(counts)])
    hits = int(offsets[-1])
    if seeds is None:
        seeds = np.arange(len(counts))
    return run_hitting_chain_batch(
        block, [stream], offsets, np.ones(hits), np.zeros(hits, dtype=int),
        uniforms, noise, np.array([0.0, 1.0]), seeds,
    )


class TestBatchedChain:
    def test_matches_single_hit_distribution(self, sigma_z_set, equal_qubit):
        rng = np.random.default_rng(31)
        n = 40000
        out = _chain(
            live_block(equal_qubit, sigma_z_set, None), HitStream((0,), 0.5, 1.0),
            np.ones(n, dtype=int),
            rng.random(n), rng.standard_normal((n, 1)),
        )
        centres = out.centres[:, 0]
        target_var = 1 / (2 * 0.5) + 1.0
        assert abs(centres.mean()) < 4 * math.sqrt(target_var / n)
        assert abs(centres.var(ddof=1) - target_var) < 4 * target_var * math.sqrt(2 / n)

    def test_per_row_hit_counts_respected(self, sigma_z_set, equal_qubit):
        rng = np.random.default_rng(32)
        block = live_block(equal_qubit, sigma_z_set, None)
        out = _chain(
            block, HitStream((0,), 1.0, 1.0), np.array([0, 2, 5]),
            rng.random(7), rng.standard_normal((7, 1)),
        )
        # a row with 0 hits keeps the initial weights at every record
        assert np.allclose(out.weights[:, 0], np.abs(block.coeffs) ** 2)
        assert np.diff(out.offsets).tolist() == [0, 2, 5]
        assert not np.isnan(out.centres[:, 0]).any()

    def test_evenly_spaced_ensemble_records(self, sigma_z_set, equal_qubit):
        streams = [HitStream((0,), beta=0.5, mu=10.0, schedule=Schedule.EVENLY_SPACED)]
        ens = run_hitting_ensemble(
            live_block(equal_qubit, sigma_z_set, None), streams, 2.0, 0.5, 7, 3,
        )
        assert len(ens) == 7
        assert ens.sample_times.size == 5
        first = ens.times[ens.offsets[0]:ens.offsets[1]]
        assert first.size == 20
        assert np.allclose(first, np.arange(1, 21) / 10.0)


# -- the kernel against the one-hit oracles ------------------------------------


class _FixedDraws:
    """Stands in for a Generator: hands out one hit's pre-drawn values."""

    def __init__(self, uniform, normals):
        self.uniform, self.normals = uniform, normals

    def random(self):
        return self.uniform

    def standard_normal(self, size):
        assert size == self.normals.size
        return self.normals


def _stream_quantities(quantities, cols):
    return QuantitySet(quantities.eigenvalue_table[:, list(cols)], quantities.joint_basis)


def _reference_trajectory(psi0, hamiltonian, quantities, streams, times, ids, uniforms,
                          noise, record_times):
    """Per-hit loop from sample_hitting_centre, apply_hitting and the propagator."""
    psi, now = psi0, 0.0
    centres, snapshots = [], []

    def advance(t):
        if hamiltonian is None or t == now:
            return psi
        return StateVector(hamiltonian.propagator(t - now) @ psi.amplitudes, normalize=True)

    hits = iter(range(len(times)))
    h = next(hits, None)
    for r_time in record_times:
        while h is not None and times[h] <= r_time * (1 + 1e-9):
            stream = streams[ids[h]]
            cols = list(stream.quantity_indices)
            sub = _stream_quantities(quantities, cols)
            psi = advance(times[h])
            now = times[h]
            centre = sample_hitting_centre(
                psi, sub, stream.beta, _FixedDraws(uniforms[h], noise[h, cols])
            )
            psi, _ = apply_hitting(psi, sub, centre, stream.beta)
            full = np.full(quantities.num_quantities, np.nan)
            full[cols] = centre
            centres.append(full)
            h = next(hits, None)
        snapshots.append(quantities.born_weights(advance(r_time)))
    return np.array(snapshots), np.array(centres).reshape(-1, quantities.num_quantities)


ORACLE_CASES = {
    "one-stream": (None, [HitStream((0,), 0.7, 6.0)]),
    "hamiltonian": (SX, [HitStream((0,), 0.7, 6.0)]),
    "two-streams": (None, [HitStream((0,), 1.0, 4.0), HitStream((1,), 0.3, 7.0)]),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_kernel_matches_per_hit_oracle(case, sigma_z_set, correlated_pair_set):
    matrix, streams = ORACLE_CASES[case]
    quantities = correlated_pair_set if len(streams) == 2 else sigma_z_set
    hamiltonian = None if matrix is None else Hamiltonian(matrix)
    psi0 = StateVector([0.6, 0.8j])
    t_end, interval = 2.0, 0.5
    for seed in range(5):
        ens = simulate_hitting_batch(
            live_block(psi0, quantities, hamiltonian), streams, t_end, interval, [seed]
        )
        # the documented draw order: hit times stream by stream, then the
        # uniforms as one block, then the (hits, K) noise as one block
        rng = np.random.default_rng(seed)
        parts = [schedule_hittings(s, t_end, rng) for s in streams]
        times = np.concatenate(parts)
        ids = np.repeat(np.arange(len(streams)), [p.size for p in parts])
        order = np.argsort(times, kind="stable")
        times, ids = times[order], ids[order]
        uniforms = rng.random(times.size)
        noise = rng.standard_normal((times.size, quantities.num_quantities))
        assert np.array_equal(ens.times, times)

        weights, centres = _reference_trajectory(
            psi0, hamiltonian, quantities, streams, times, ids, uniforms, noise,
            ens.sample_times,
        )
        assert np.allclose(full_weights(ens)[:, 0], weights, rtol=0, atol=1e-12)
        assert np.array_equal(np.isnan(ens.centres), np.isnan(centres))
        assert np.allclose(ens.centres, centres, rtol=0, atol=1e-12, equal_nan=True)


class TestKernelNorm:
    def test_vanishing_row_reports_its_seed(self, sigma_z_set, equal_qubit):
        noise = np.zeros((6, 1))
        noise[3, 0] = 1e6  # row 1's second centre lies absurdly far out
        with pytest.raises(VanishingNormError) as err:
            _chain(
                live_block(equal_qubit, sigma_z_set, None), HitStream((0,), 1.0, 1.0),
                np.full(3, 2), np.full(6, 0.5), noise, seeds=[11, 22, 33],
            )
        assert err.value.seed == 22

    def test_threshold_includes_the_prefactor(self, sigma_z_set):
        # exp(-beta (a - 1)^2) = 1e-299 is above the threshold, but times the
        # squared prefactor sqrt(beta / pi) ~ 0.018 it is below, as apply_hitting says
        beta = 1e-3
        offset = math.sqrt(299 * math.log(10) / beta)
        psi = StateVector([1.0, 0.0])
        with pytest.raises(VanishingNormError):
            apply_hitting(psi, sigma_z_set, [1.0 + offset], beta)
        sigma = math.sqrt(1 / (2 * beta))
        with pytest.raises(VanishingNormError):
            _chain(
                live_block(psi, sigma_z_set, None), HitStream((0,), beta, 1.0), [1],
                np.full(1, 0.5), np.full((1, 1), offset / sigma),
            )


class TestEventClock:
    def test_record_reflects_a_hit_at_its_own_time(self, sigma_z_set, equal_qubit):
        # records at 0.3 r are stored as 0.8999999999999999 and so on; each
        # must still reflect the evenly spaced hit at 0.9, 1.8, 2.7
        stream = HitStream((0,), beta=0.2, mu=10.0, schedule=Schedule.EVENLY_SPACED)
        ens = simulate_hitting_batch(
            live_block(equal_qubit, sigma_z_set, None), [stream], 3.0, 0.3, [4],
        )
        assert ens.sample_times[3] < 0.9
        assert ens.times[8] == 0.9
        assert list(ens.event_flags()[0]) == [0] + [3] * 10
        # events in (t_2, t_3] on the event clock
        before, upto = record_counts(ens.offsets, ens.times, ens.sample_times[2:4])[0]
        assert upto - before == 3
        rng = np.random.default_rng(4)
        uniforms = rng.random(30)[:9]
        noise = rng.standard_normal((30, 1))[:9]
        after_nine = _chain(
            live_block(equal_qubit, sigma_z_set, None), stream, [9], uniforms, noise,
        )
        expected = after_nine.weights[-1, 0]
        assert np.allclose(full_weights(ens)[3, 0], expected, rtol=0, atol=1e-14)


def test_hamiltonian_ensemble_follows_master_equation(sigma_z_set, equal_qubit):
    n = 2000
    ham = Hamiltonian(SX)
    streams = [HitStream((0,), beta=0.5, mu=4.0)]
    records = run_hitting_ensemble(
        live_block(equal_qubit, sigma_z_set, ham), streams, 1.5, 0.25, n, 23,
    )
    times = records.sample_times
    _, oracle = hitting_master_evolution(
        pure(equal_qubit), sigma_z_set, streams, float(times[-1]),
        hamiltonian=ham, sample_times=times,
    )
    for t, rho_det in zip(times, oracle):
        rho_mc = ensemble_density_matrix(records, float(t), sigma_z_set)
        assert trace_norm_distance(rho_mc, rho_det) < 5.0 / math.sqrt(n)


# -- the kernel on random small tables -------------------------------------------

@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    dim=st.integers(2, 4),
    num_q=st.integers(1, 2),
    # a few distinct eigenvalues, so rows of the table often coincide
    levels=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=8, max_size=8),
    # (beta, mu, column mask) per stream; the columns of two streams may overlap
    stream_specs=st.lists(
        st.tuples(st.floats(0.2, 3.0), st.floats(0.5, 6.0), st.integers(1, 3)),
        min_size=1, max_size=2,
    ),
    with_hamiltonian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_tables_keep_the_martingale_and_the_master_equation(
    dim, num_q, levels, stream_specs, with_hamiltonian, seed
):
    rng = np.random.default_rng(seed)
    table = np.array(levels[: dim * num_q]).reshape(dim, num_q)
    quantities = QuantitySet(table, random_unitary(rng, dim))
    psi0 = random_state(rng, dim)
    hamiltonian = None
    if with_hamiltonian:
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        hamiltonian = Hamiltonian(0.5 * (m + m.conj().T))
    streams = []
    for beta, mu, mask in stream_specs:
        # a mask with no bit below num_q hits every column
        cols = tuple(p for p in range(num_q) if mask >> p & 1) or tuple(range(num_q))
        streams.append(HitStream(cols, beta, mu))
    ens = run_hitting_ensemble(
        live_block(psi0, quantities, hamiltonian), streams, 1.0, 0.5, 500, seed,
    )

    if hamiltonian is None:
        # E[w(t)] = w(0): the Born weights are a martingale
        assert within_z(ens.weights, quantities.born_weights(psi0))

    # a step of 2^-9 puts every record time on the oracle's step grid
    _, oracle = hitting_master_evolution(
        pure(psi0), quantities, streams, 1.0,
        hamiltonian=hamiltonian, sample_times=ens.sample_times, dt=2.0**-9,
    )
    states = full_states(ens, quantities)
    outer = states[:, :, :, np.newaxis] * states[:, :, np.newaxis, :].conj()
    rho = np.stack(oracle)
    assert within_z(outer.real, rho.real)
    assert within_z(outer.imag, rho.imag)
