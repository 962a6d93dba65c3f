import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import poisson

from conftest import (
    SQ2, full_states, pure, random_block_basis, random_state, random_unitary, traced_peak,
)
from qreduce.config import ScenarioConfig
from qreduce.scenarios import build_scenario
from qreduce.hilbert import Hamiltonian, QuantitySet, StateVector, validate_quantity_set
from qreduce.hitting import HitStream, Schedule, sharpening_operator, simulate_hitting_batch
from qreduce.continuous import ContinuousConfig, snapped_dt, suggested_dt
from qreduce.ensemble import (
    SWEEP_STREAM,
    derive_seed,
    run_continuous_ensemble,
    run_hitting_ensemble,
)
from qreduce import equivalence
from qreduce.trajectory import Ensemble, live_block
from qreduce.equivalence import (
    _bootstrap_distance,
    _pairwise_sq_distances,
    _rows_distance,
    collapse_statistics,
    convergence_sweep,
    engine_comparison,
    ensemble_density_matrix,
    ensemble_stats,
    exact_hitting_map,
    factorization_check,
    group_eigenvalue_rows,
    hitting_master_evolution,
    lindblad_evolution,
    state_mixture,
    trace_norm_distance,
    wilson_interval,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def hitting_batch(psi, quantities, streams, t_end, interval, seeds):
    """One ensemble whose trajectory i runs from ``default_rng(seeds[i])``."""
    return simulate_hitting_batch(
        live_block(psi, quantities, None), streams, t_end, interval, seeds,
    )


def rotated_six_level():
    """A rotated 6-level set of blocks 3, 2 and 1, psi0 and a Hamiltonian.

    psi0 misses the 1-block, and the Hamiltonian, block-diagonal in the
    joint basis, couples coordinates inside the other blocks, so both
    processes live on their 5 coordinates. Returns the set, psi0, the
    Hamiltonian and the (rows, columns) of each block.
    """
    rng = np.random.default_rng(18)
    basis, blocks = random_block_basis(rng, [3, 2, 1])
    quantities = QuantitySet(rng.standard_normal((6, 2)), basis)
    amps = np.zeros(6, dtype=complex)
    h_joint = np.diag(rng.standard_normal(6)).astype(complex)
    for rows, cols in blocks[:2]:
        amps[rows] = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
        m = rng.standard_normal((cols.size,) * 2) + 1j * rng.standard_normal((cols.size,) * 2)
        h_joint[np.ix_(cols, cols)] = 0.5 * (m + m.conj().T)
    psi0 = StateVector(amps, normalize=True)
    hamiltonian = Hamiltonian(quantities.operator_from_joint(h_joint))
    return quantities, psi0, hamiltonian, blocks


@pytest.fixture(scope="module")
def plus_rho(equal_qubit):
    return pure(equal_qubit)


class TestDensityMatrix:
    def test_from_rows_trace_one(self):
        rows = np.array([[1.0, 0.0], [SQ2, SQ2]], dtype=complex)
        rho = state_mixture(rows)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_gram_matches_einsum_for_unnormalized_rows(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((150, 120)) + 1j * rng.standard_normal((150, 120))
        rows *= rng.uniform(0.1, 10.0, size=(150, 1))
        reference = np.einsum("ni,nj->ij", rows, rows.conj()) / np.sum(np.abs(rows) ** 2)
        rho = state_mixture(rows)
        assert np.linalg.norm(rho - reference) <= 1e-14 * np.linalg.norm(reference)

    def test_trace_norm_distance_offdiagonal(self):
        a = np.array([[0.5, 0.2], [0.2, 0.5]])
        b = np.array([[0.5, 0.1], [0.1, 0.5]])
        assert trace_norm_distance(a, b) == pytest.approx(0.2)

    @pytest.mark.parametrize("dim", [2, 3, 7, 30, 120])
    def test_trace_norm_distance_is_the_singular_value_sum(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            a, b = (
                state_mixture(
                    rng.standard_normal((5, dim)) + 1j * rng.standard_normal((5, dim))
                )
                for _ in range(2)
            )
            svd_sum = np.sum(np.linalg.svd(a - b, compute_uv=False))
            assert abs(trace_norm_distance(a, b) - svd_sum) <= 1e-12


class TestExactHittingMap:
    def test_diagonal_invariant(self, sigma_z_set):
        rho = np.diag([0.3, 0.7]).astype(complex)
        out = exact_hitting_map(rho, sigma_z_set, 0.5)
        assert np.allclose(out, rho, atol=1e-14)

    def test_qubit_damping_factor(self, sigma_z_set, plus_rho):
        out = exact_hitting_map(plus_rho, sigma_z_set, 0.1)
        assert out[0, 1].real == pytest.approx(0.5 * 0.9048374180359595, abs=1e-12)

    def test_small_beta_is_identity(self, sigma_z_set, plus_rho):
        out = exact_hitting_map(plus_rho, sigma_z_set, 1e-14)
        assert np.allclose(out, plus_rho, atol=1e-12)

    def test_brute_force_quadrature_agreement(self, sigma_z_set, plus_rho):
        # independent oracle: trapezoid quadrature of the centre integral
        beta = 0.37
        grid = np.linspace(-60.0, 60.0, 24001)
        da = grid[1] - grid[0]
        acc = np.zeros((2, 2), dtype=complex)
        for a in grid:
            s = sharpening_operator(sigma_z_set, [a], beta)
            acc += s @ plus_rho @ s * da
        mapped = exact_hitting_map(plus_rho, sigma_z_set, beta)
        assert np.max(np.abs(acc - mapped)) < 1e-6

    def test_rotated_basis(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 2)
        qs = validate_quantity_set([u @ np.diag([1.0, -1.0]) @ u.conj().T])
        psi = StateVector(u @ np.array([SQ2, SQ2]))
        rho = pure(psi)
        out = exact_hitting_map(rho, qs, 0.1)
        joint = qs.joint_basis.conj().T @ out @ qs.joint_basis
        assert abs(joint[0, 1]) == pytest.approx(0.5 * math.exp(-0.1), abs=1e-10)


class TestHittingMasterEvolution:
    def test_closed_form_value(self, sigma_z_set, plus_rho):
        streams = [HitStream((0,), 0.1, 10.0)]
        _, series = hitting_master_evolution(plus_rho, sigma_z_set, streams, 1.0)
        factor = series[-1][0, 1].real * 2
        assert factor == pytest.approx(math.exp(-10 * (1 - math.exp(-0.1))), abs=1e-12)

    def test_zero_frequency_constant(self, sigma_z_set, plus_rho):
        # no stream at all: the process never hits
        _, series = hitting_master_evolution(plus_rho, sigma_z_set, [], 3.0)
        assert np.allclose(series[-1], plus_rho, atol=1e-14)

    def test_poisson_mixture_of_map_powers(self, sigma_z_set, plus_rho):
        # independent oracle: average the n-fold exact map over the Poisson
        # count distribution
        beta, mu, t = 0.2, 4.0, 1.5
        acc = np.zeros((2, 2), dtype=complex)
        rho_n = plus_rho
        for n in range(200):
            acc += poisson.pmf(n, mu * t) * rho_n
            rho_n = exact_hitting_map(rho_n, sigma_z_set, beta)
        _, series = hitting_master_evolution(plus_rho, sigma_z_set, [HitStream((0,), beta, mu)], t)
        assert np.max(np.abs(acc - series[-1])) < 1e-8

    def test_rate_approaches_continuous_limit(self, sigma_z_set):
        # mu * (1 - exp(-beta)) -> gamma * delta^2 / 2 = 2 gamma under beta*mu = 2 gamma
        gamma = 0.5
        rates = []
        for mu in (10.0, 1e2, 1e3, 1e4):
            beta = 2 * gamma / mu
            rates.append(mu * (1 - math.exp(-beta * 4.0 / 4.0)))
        target = gamma * 4.0 / 2.0
        gaps = [abs(r - target) for r in rates]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4

    def test_rk4_with_zero_hamiltonian_matches_closed_form(self, sigma_z_set, plus_rho):
        ham = Hamiltonian(np.zeros((2, 2)))
        _, with_h = hitting_master_evolution(
            plus_rho, sigma_z_set, [HitStream((0,), 0.3, 5.0)], 1.0, hamiltonian=ham
        )
        _, closed = hitting_master_evolution(
            plus_rho, sigma_z_set, [HitStream((0,), 0.3, 5.0)], 1.0
        )
        assert np.max(np.abs(with_h[-1] - closed[-1])) < 1e-8


@pytest.mark.parametrize("oracle", ["lindblad", "hitting-master"])
def test_oracle_records_land_on_their_times(oracle):
    # d = 4, Hamiltonian eigenvalues up to 8.7025: the default step bound
    # is 1 / 1740.5, so a grid of equal steps from 0 to 1 has 1741 of them
    # and does not pass through t = 0.5
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = m + m.conj().T
    hamiltonian = Hamiltonian(h * (8.7025 / np.max(np.abs(np.linalg.eigvalsh(h)))))
    quantities = QuantitySet(rng.standard_normal((4, 1)))
    rho0 = pure(random_state(rng, 4))
    times = np.array([0.0, 0.5, 1.0])

    def series(dt):
        if oracle == "lindblad":
            return lindblad_evolution(
                rho0, quantities, 0.5, 1.0, hamiltonian=hamiltonian, sample_times=times, dt=dt
            )[1]
        return hitting_master_evolution(
            rho0, quantities, [HitStream((0,), 0.5, 4.0)], 1.0, hamiltonian=hamiltonian,
            sample_times=times, dt=dt,
        )[1]

    for coarse, fine in zip(series(None), series(2.0**-10)):
        assert np.max(np.abs(coarse - fine)) < 1e-8


class TestLindbladEvolution:
    def test_closed_form_value(self, sigma_z_set, plus_rho):
        _, series = lindblad_evolution(plus_rho, sigma_z_set, 0.5, 1.0)
        assert series[-1][0, 1].real * 2 == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_zero_strength_is_von_neumann(self, sigma_z_set):
        psi = StateVector([1.0, 0.0])
        rho0 = pure(psi)
        ham = Hamiltonian(SX)
        _, series = lindblad_evolution(rho0, sigma_z_set, 0.0, 1.2, hamiltonian=ham)
        u = expm(-1j * SX * 1.2)
        oracle = u @ rho0 @ u.conj().T
        assert np.max(np.abs(series[-1] - oracle)) < 1e-8

    def test_diagonal_constant(self, sigma_z_set):
        rho = np.diag([0.25, 0.75]).astype(complex)
        _, series = lindblad_evolution(rho, sigma_z_set, 2.0, 5.0)
        assert np.allclose(series[-1], rho, atol=1e-14)

    def test_trace_and_positivity_over_horizon(self, sigma_z_set, plus_rho):
        ham = Hamiltonian(SX)
        times = np.linspace(0, 3.0, 13)
        _, series = lindblad_evolution(
            plus_rho, sigma_z_set, 0.7, 3.0, hamiltonian=ham, sample_times=times
        )
        for rho in series:
            assert abs(np.trace(rho) - 1.0) < 1e-9
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_vector_gamma(self, correlated_pair_set, equal_qubit):
        rho0 = pure(equal_qubit)
        _, series = lindblad_evolution(rho0, correlated_pair_set, (0.5, 0.25), 1.0)
        # rate = (0.5 * 1 + 0.25 * 4) / 2 = 0.75
        assert series[-1][0, 1].real * 2 == pytest.approx(math.exp(-0.75), abs=1e-12)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    dim=st.integers(2, 4),
    num_q=st.integers(1, 2),
    # a few distinct eigenvalues, so rows of the table often coincide
    levels=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=8, max_size=8),
    beta=st.floats(0.05, 3.0),
    mu=st.floats(0.5, 6.0),
    gamma=st.floats(0.0, 2.0),
    mixed=st.booleans(),
    with_hamiltonian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_oracles_return_statistical_operators(
    dim, num_q, levels, beta, mu, gamma, mixed, with_hamiltonian, seed
):
    # each oracle maps a statistical operator to one: Hermitian, unit trace
    # and positive semidefinite, on a rotated table, from a pure or a mixed
    # rho0, with or without a Hamiltonian
    rng = np.random.default_rng(seed)
    table = np.array(levels[: dim * num_q]).reshape(dim, num_q)
    quantities = QuantitySet(table, random_unitary(rng, dim))
    shape = (3 if mixed else 1, dim)
    rho0 = state_mixture(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    hamiltonian = None
    if with_hamiltonian:
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        hamiltonian = Hamiltonian(0.5 * (m + m.conj().T))
    times = np.array([0.0, 0.3, 1.0])
    streams = [HitStream(tuple(range(num_q)), beta, mu)]
    out = [exact_hitting_map(rho0, quantities, beta)]
    for oracle, rate in ((hitting_master_evolution, streams), (lindblad_evolution, gamma)):
        out += oracle(rho0, quantities, rate, 1.0, hamiltonian=hamiltonian, sample_times=times)[1]
    for rho in out:
        assert rho.shape == (dim, dim)
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
        assert abs(np.trace(rho) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


class TestPairwiseSeparations:
    def test_blocks_give_the_whole_table_sums_exactly(self, monkeypatch):
        rng = np.random.default_rng(9)
        table = rng.standard_normal((50, 3))
        weights = rng.uniform(0.1, 2.0, size=3)
        diffs = table[:, np.newaxis, :] - table[np.newaxis, :, :]
        # 7-row blocks; the last block has one row
        monkeypatch.setattr(equivalence, "_SPREAD_BLOCK_ELEMENTS", 7 * 50 * 3)
        assert np.array_equal(_pairwise_sq_distances(table), np.sum(diffs**2, axis=-1))
        assert np.array_equal(
            _pairwise_sq_distances(table, weights), np.einsum("klp,p->kl", diffs**2, weights)
        )

    @pytest.mark.parametrize("oracle", ["lindblad", "hitting-master"])
    def test_oracle_memory_at_d715(self, oracle):
        # a (d, d, K) difference array alone is 41 MB here
        rng = np.random.default_rng(10)
        quantities = QuantitySet(rng.standard_normal((715, 10)))
        rho0 = pure(random_state(rng, 715))
        if oracle == "lindblad":
            _, peak = traced_peak(lindblad_evolution, rho0, quantities, 0.5, 1.0)
        else:
            _, peak = traced_peak(
                hitting_master_evolution, rho0, quantities, [HitStream(range(10), 0.5, 4.0)], 1.0
            )
        assert peak < 60e6


class TestEngineComparison:
    def test_snapshot_stack_matches_state_at_loop(self, three_level_set):
        psi = StateVector([0.5, 0.5, SQ2])
        streams = [HitStream((0,), beta=0.5, mu=4.0)]
        block = live_block(psi, three_level_set, None)
        hitting = run_hitting_ensemble(block, streams, 1.0, 0.25, 150, 3)
        continuous = run_continuous_ensemble(
            block, ContinuousConfig(gamma=1.0, dt=5e-3, t_end=1.0, record_interval=0.25),
            120, 3,
        )
        got = engine_comparison(hitting, continuous, block, streams, 1.0, n_bootstrap=10, seed=4)
        rng = np.random.default_rng(4)
        for i, t in enumerate(hitting.sample_times):
            # each trajectory's snapshot at t, one row at a time
            rows_h, rows_c = (
                np.stack([ens.states[:, j][ens.sample_index(t)] for j in range(len(ens))])
                for ens in (hitting, continuous)
            )
            mc = trace_norm_distance(
                state_mixture(rows_h), state_mixture(rows_c)
            )
            assert got.mc_distance[i] == mc
            assert got.mc_error[i] == _bootstrap_distance(rows_h, rows_c, 10, rng)

    def test_bootstrap_memory_is_one_block_of_replicates(self, sigma_z_set, equal_qubit):
        # qubit-equal's shape: 1000 + 1000 rows, 50 replicates a record; all
        # 50 in one block would take 2.5 MiB beside the rows
        n, streams = 1000, [HitStream((0,), beta=0.2, mu=10.0)]
        block = live_block(equal_qubit, sigma_z_set, None)
        hitting = run_hitting_ensemble(block, streams, 1.5, 0.75, n, 1)
        continuous = run_continuous_ensemble(
            block, ContinuousConfig(gamma=1.0, dt=0.01, t_end=1.5, record_interval=0.75), n, 2,
        )
        _, peak = traced_peak(lambda: engine_comparison(
            hitting, continuous, live_block(equal_qubit, sigma_z_set, None), streams, 1.0
        ))
        # the two ensembles' rows, a block of at most 1 MiB and a fixed slack
        rows = 16 * hitting.live.size * 2 * n
        assert equivalence._BOOTSTRAP_BLOCK_BYTES <= 2**20
        assert peak <= rows + 2**20 + 256 * 2**10


    def test_distances_on_the_joint_support_match_the_full_ones(self, monkeypatch):
        # lattice-like rows: both ensembles live on 5 of 40 columns
        rng = np.random.default_rng(12)
        rows_a = np.zeros((60, 40), dtype=complex)
        rows_b = np.zeros((50, 40), dtype=complex)
        rows_a[:, [3, 17, 30]] = rng.standard_normal((60, 3)) + 1j * rng.standard_normal((60, 3))
        rows_b[:, [3, 8, 39]] = rng.standard_normal((50, 3))
        full = trace_norm_distance(
            state_mixture(rows_a), state_mixture(rows_b)
        )
        assert abs(equivalence._rows_distance(rows_a, rows_b) - full) <= 1e-12
        # one live column, padded by 39 zero ones
        lone_a = np.zeros((7, 40), dtype=complex)
        lone_b = np.zeros((9, 40), dtype=complex)
        lone_a[:, 5] = rng.standard_normal(7)
        lone_b[:, 5] = 1j * rng.standard_normal(9)

        def check(rows_a, rows_b, n_boot):
            # the same resampled rows, as full 40 x 40 density matrices, and
            # the same draws in the same order
            loop_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
            n_a, n_b = len(rows_a), len(rows_b)
            dists = []
            for _ in range(n_boot):
                ra = rows_a[loop_rng.integers(0, n_a, n_a)]
                rb = rows_b[loop_rng.integers(0, n_b, n_b)]
                dists.append(trace_norm_distance(
                    state_mixture(ra), state_mixture(rb)
                ))
            boot = _bootstrap_distance(rows_a, rows_b, n_boot, rng)
            assert abs(boot - np.std(dists, ddof=1)) <= 1e-12
            assert rng.random() == loop_rng.random()

        check(rows_a, rows_b, 20)
        check(rows_b, rows_a[:7], 2)
        check(lone_a, lone_b, 2)
        check(lone_b, lone_a, 5)
        # equal sizes: one draw call per block gives the per-replicate draws
        check(rows_a[:50], rows_b, 20)
        check(lone_a, lone_b[:7], 3)
        # blocks of three replicates: 20 = 3 + ... + 3 + 2
        width = 40
        for n_a, n_b in ((60, 50), (50, 50)):
            rows = n_a + n_b
            monkeypatch.setattr(
                equivalence, "_BOOTSTRAP_BLOCK_BYTES",
                3 * (24 * rows + 16 * width * (rows + 4 * width)),
            )
            check(rows_a[:n_a], rows_b, 20)

    @pytest.mark.parametrize("t_end, record_interval", [(1.0, 0.5), (2.0, 0.5)])
    def test_different_record_grids_raise(
        self, t_end, record_interval, sigma_z_set, equal_qubit
    ):
        # the hitting grid is 0, 0.25, ..., 1: first fewer samples, then
        # as many samples at other times
        streams = [HitStream((0,), beta=0.5, mu=4.0)]
        block = live_block(equal_qubit, sigma_z_set, None)
        hitting = run_hitting_ensemble(block, streams, 1.0, 0.25, 20, 3)
        continuous = run_continuous_ensemble(
            block,
            ContinuousConfig(gamma=1.0, dt=5e-3, t_end=t_end, record_interval=record_interval),
            20, 3,
        )
        with pytest.raises(ValueError):
            engine_comparison(hitting, continuous, block, streams, 1.0, n_bootstrap=5)

    def test_different_live_coordinates_raise(self, three_level_set):
        # psi0 on coordinates {0, 1} for one engine and {0, 2} for the other
        streams = [HitStream((0,), beta=0.8, mu=4.0)]
        block = live_block(StateVector([0.6, 0.8, 0.0]), three_level_set, None)
        hitting = run_hitting_ensemble(block, streams, 1.0, 0.5, 3, 1)
        continuous = run_continuous_ensemble(
            live_block(StateVector([0.6, 0.0, 0.8]), three_level_set, None),
            ContinuousConfig(gamma=1.6, dt=5e-3, t_end=1.0, record_interval=0.5), 3, 1,
        )
        assert hitting.live.tolist() == [0, 1] and continuous.live.tolist() == [0, 2]
        with pytest.raises(ValueError, match="live"):
            engine_comparison(hitting, continuous, block, streams, 1.6, n_bootstrap=5)

    def test_rotated_set_distances_are_the_full_ones(self):
        # the engines run on the 5 live coordinates of the rotated 6-level
        # set, and the distance of the L x L mixtures must equal that of the
        # d x d computational-basis matrices
        quantities, psi0, hamiltonian, blocks = rotated_six_level()
        streams = [HitStream((0, 1), beta=0.4, mu=5.0)]
        block = live_block(psi0, quantities, hamiltonian)
        hitting = run_hitting_ensemble(block, streams, 1.0, 0.25, 40, 6)
        continuous = run_continuous_ensemble(
            block, ContinuousConfig(gamma=1.0, dt=2.0**-8, t_end=1.0, record_interval=0.25),
            30, 6,
        )
        expected_live = np.sort(np.concatenate([blocks[0][1], blocks[1][1]]))
        assert np.array_equal(hitting.live, expected_live)
        assert np.array_equal(continuous.live, expected_live)
        got = engine_comparison(hitting, continuous, block, streams, 1.0, n_bootstrap=5, seed=2)
        rows_h, rows_c = full_states(hitting, quantities), full_states(continuous, quantities)
        for i, t in enumerate(hitting.sample_times):
            rho_h = ensemble_density_matrix(hitting, float(t), quantities)
            rho_c = ensemble_density_matrix(continuous, float(t), quantities)
            # the mixtures of the computational-basis rows at full d
            for rho, rows in ((rho_h, rows_h[i]), (rho_c, rows_c[i])):
                assert np.max(np.abs(rho - state_mixture(rows))) <= 1e-12
            assert abs(got.mc_distance[i] - trace_norm_distance(rho_h, rho_c)) <= 1e-12
        # the ensembles have separated by the last record
        assert got.mc_distance[-1] > 0.01


class TestEnsembleDensityMatrix:
    def test_single_trajectory_projector(self, sigma_z_set, equal_qubit):
        streams = [HitStream((0,), beta=0.5, mu=4.0)]
        ens = hitting_batch(equal_qubit, sigma_z_set, streams, 1.0, 0.5, [3])
        rho = ensemble_density_matrix(ens, 1.0, sigma_z_set)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)

    def test_identical_trajectories_stay_pure(self, sigma_z_set, equal_qubit):
        streams = [HitStream((0,), beta=0.5, mu=4.0)]
        ens = hitting_batch(equal_qubit, sigma_z_set, streams, 1.0, 0.5, [3] * 4)
        rho = ensemble_density_matrix(ens, 0.5, sigma_z_set)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)

    def test_hitting_ensemble_near_master_oracle(self, sigma_z_set, equal_qubit):
        n = 2000
        streams = [HitStream((0,), beta=0.4, mu=5.0)]
        records = run_hitting_ensemble(
            live_block(equal_qubit, sigma_z_set, None), streams, 1.0, 0.5, n, 77,
        )
        rho_mc = ensemble_density_matrix(records, 1.0, sigma_z_set)
        _, oracle = hitting_master_evolution(
            pure(equal_qubit), sigma_z_set, streams, 1.0
        )
        assert trace_norm_distance(rho_mc, oracle[-1]) < 5.0 / math.sqrt(n)


class TestCollapseStatistics:
    def test_eigenvector_hundred_percent(self, sigma_z_set):
        psi = StateVector([1.0, 0.0])
        streams = [HitStream((0,), beta=1.0, mu=5.0)]
        recs = hitting_batch(psi, sigma_z_set, streams, 1.0, 0.5, range(20))
        report = collapse_statistics(recs, sigma_z_set)
        assert report.unresolved_count == 0
        assert report.outcomes[0].frequency == 1.0
        assert report.outcomes[1].count == 0

    def test_live_coordinates_keep_their_labels(self):
        # weights stored on joint coordinates 1 and 3 of d = 4 (rows 1 and 2
        # share a label); terminal rows resolve to coordinate 3, to
        # coordinate 1, to coordinate 1 at 0.9995, and not at all
        quantities = QuantitySet(np.array([[0.0], [1.0], [1.0], [3.0]]))
        terminal = np.array([[0.0, 1.0], [1.0, 0.0], [0.9995, 0.0005], [0.5, 0.5]])
        weights = np.stack([np.full((4, 2), 0.5), terminal])
        ens = Ensemble(
            seeds=np.arange(4), sample_times=np.array([0.0, 1.0]),
            states=np.sqrt(weights + 0j), table=quantities.eigenvalue_table[[1, 3]],
            offsets=np.zeros(5, dtype=int), times=np.empty(0), centres=np.empty((0, 1)),
            live=np.array([1, 3]), dim=4,
        )
        report = collapse_statistics(ens, quantities)
        # the label of row 0 holds no live coordinate: counted, not listed
        assert [o.eigenvalues for o in report.outcomes] == [(1.0,), (3.0,)]
        assert [o.count for o in report.outcomes] == [2, 1]
        assert report.unlisted_outcomes == 1
        assert report.unresolved_count == 1
        stats = ensemble_stats(ens)
        # the weights derived from the square roots of ``weights``
        assert np.allclose(ens.weights, weights, rtol=0, atol=1e-15)
        # one column per live coordinate, 1 and 3; the dead ones are not formed
        assert np.array_equal(stats.mean_weights, ens.weights.mean(axis=1))
        assert stats.mean_weight_se.shape == (2, 2)
        assert np.all(stats.mean_weight_se[1] > 0)

    def test_weighted_qubit_frequencies(self, sigma_z_set):
        psi = StateVector([0.5, math.sqrt(0.75)])
        streams = [HitStream((0,), beta=1.0, mu=10.0)]
        recs = run_hitting_ensemble(live_block(psi, sigma_z_set, None), streams, 6.0, 3.0, 2000, 13)
        report = collapse_statistics(recs, sigma_z_set)
        se = math.sqrt(0.25 * 0.75 / report.n_resolved)
        assert abs(report.outcomes[0].frequency - 0.25) < 4 * se
        assert report.outcomes[0].ci_low < 0.25 < report.outcomes[0].ci_high

    def test_unresolved_fraction_matches_zero_count_probability(
        self, sigma_z_set, equal_qubit
    ):
        # mu * t_end = 1 with huge beta: any hit resolves, so the unresolved
        # fraction estimates the Poisson zero-count probability exp(-1)
        streams = [HitStream((0,), beta=60.0, mu=1.0)]
        recs = run_hitting_ensemble(
            live_block(equal_qubit, sigma_z_set, None), streams, 1.0, 0.5, 3000, 15,
        )
        report = collapse_statistics(recs, sigma_z_set)
        target = math.exp(-1.0)
        se = math.sqrt(target * (1 - target) / len(recs))
        assert abs(report.unresolved_fraction - target) < 4 * se

    def test_degenerate_rows_aggregate(self):
        qs = validate_quantity_set([np.diag([1.0, 1.0, 2.0])])
        labels = group_eigenvalue_rows(qs)
        assert labels[0] == labels[1] != labels[2]
        # a superposition inside the degenerate subspace is already sharp
        psi = StateVector([SQ2, SQ2, 0.0])
        streams = [HitStream((0,), beta=1.0, mu=10.0)]
        recs = hitting_batch(psi, qs, streams, 2.0, 1.0, range(10))
        report = collapse_statistics(recs, qs)
        assert report.unresolved_count == 0
        assert report.outcomes[0].frequency == 1.0
        assert report.outcomes[0].eigenvalues == (1.0,)

    def test_wilson_interval_basics(self):
        lo, hi = wilson_interval(50, 100, z=2.0)
        assert lo < 0.5 < hi
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_wilson_interval_ends_are_exact(self):
        # centre - half of 0 successes rounds to 1.39e-17 at n = 49, z = 3
        for z in (2.0, 3.0, 5.0):
            for n in range(1, 2001):
                assert wilson_interval(0, n, z)[0] == 0.0
                assert wilson_interval(n, n, z)[1] == 1.0

    def test_sum_by_label_is_bit_identical_to_per_label_sums(self):
        # the parent loop's sums, with labels of 1 to 40 columns each
        rng = np.random.default_rng(7)
        for n_labels, largest in ((5, 9), (7, 40), (64, 1), (30, 4)):
            sizes = rng.integers(1, largest + 1, n_labels)
            labels = rng.permutation(np.repeat(np.arange(n_labels), sizes))
            d = labels.size
            weights = rng.random((25, d)) * rng.choice([1.0, 1e-9, 1e6], size=(25, d))
            grouped, firsts = equivalence._sum_by_label(weights, labels)
            expected = np.stack(
                [weights[:, labels == g].sum(axis=1) for g in range(n_labels)], axis=1
            )
            assert np.array_equal(grouped, expected)
            assert firsts.tolist() == [int(np.flatnonzero(labels == g)[0]) for g in range(n_labels)]


def _greedy_labels(table: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """The O(d^2) greedy pass that group_eigenvalue_rows reproduces: the oracle."""
    scale = max(float(np.max(np.abs(table))), 1.0)
    labels = -np.ones(table.shape[0], dtype=int)
    next_label = 0
    for k in range(table.shape[0]):
        if labels[k] >= 0:
            continue
        same = np.all(np.abs(table - table[k]) <= tol * scale, axis=1)
        labels[same] = next_label
        next_label += 1
    return labels


@st.composite
def _near_row_tables(draw):
    """(d, K) tables of a few levels, each entry moved by 0 to 4 half
    tolerances: rows 0.5, 1 and 2 tolerances apart, and chains of them."""
    d = draw(st.integers(2, 16))
    k = draw(st.integers(1, 3))
    levels = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -2.0, 3.5]), min_size=d * k, max_size=d * k)))
    halves = np.array(draw(st.lists(st.integers(0, 4), min_size=d * k, max_size=d * k)))
    scale = max(float(np.max(np.abs(levels))), 1.0)
    return (levels + halves * 0.5e-8 * scale).reshape(d, k)


class TestGroupEigenvalueRows:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_near_row_tables())
    def test_labels_equal_the_greedy_pass(self, table):
        labels = group_eigenvalue_rows(QuantitySet(table))
        assert labels.tolist() == _greedy_labels(table).tolist()

    def test_a_non_transitive_chain_splits(self):
        tol = 1e-8 * 3.0
        # row 1 is near rows 0 and 2, which are not near each other; row 2
        # opens label 1 and takes row 1 from label 0
        table = np.array([[3.0], [3.0 + 0.7 * tol], [3.0 + 1.5 * tol], [3.0], [-1.0]])
        labels = group_eigenvalue_rows(QuantitySet(table))
        assert labels.tolist() == [0, 1, 1, 0, 2] == _greedy_labels(table).tolist()

    def test_labels_hold_across_candidate_blocks(self, monkeypatch):
        # candidate pairs tested 3 at a time: every block boundary is crossed
        monkeypatch.setattr(equivalence, "_PAIR_BLOCK", 3)
        rng = np.random.default_rng(11)
        for _ in range(20):
            table = 2.0 + rng.integers(0, 5, (30, 2)) * 0.5e-8 * 2.0
            table[rng.random(30) < 0.3, 0] = -1.0
            labels = group_eigenvalue_rows(QuantitySet(table))
            assert labels.tolist() == _greedy_labels(table).tolist()

    def test_d4368_lattice_labels_in_bounded_memory(self):
        config = ScenarioConfig.from_dict({
            "scenario": "identical-particles", "engine": "continuous", "gamma": 1.0,
            "t_end": 0.1, "record_interval": 0.05, "n_trajectories": 2, "seed": 1,
            "sites": 12, "dx": 1.0, "alpha": 2.0, "species": [{"name": "b", "count": 5}],
            "initial_state": [{"occupations": [[5] + [0] * 11], "re": 1.0}],
        })
        quantities = build_scenario(config).quantities
        d = quantities.dim
        assert (d, quantities.num_quantities) == (4368, 12)
        labels, peak = traced_peak(group_eigenvalue_rows, quantities)
        # every occupation vector has its own density profile
        assert labels.tolist() == list(range(d))
        # a (d, d) boolean array alone would take 18.2 MiB
        assert peak < 4 * 2**20


class TestFactorization:
    def test_eigenstate_zero_discrepancy(self, sigma_z_set):
        psi = StateVector([1.0, 0.0])
        grid = np.linspace(-4, 4, 41)
        assert factorization_check(psi, sigma_z_set, 1.0, grid) < 1e-14

    def test_discrepancy_shrinks_with_beta(self, sigma_z_set, equal_qubit):
        wide = lambda beta: np.linspace(-1 - 5 / math.sqrt(beta), 1 + 5 / math.sqrt(beta), 81)
        d_coarse = factorization_check(equal_qubit, sigma_z_set, 1.0, wide(1.0))
        d_fine = factorization_check(equal_qubit, sigma_z_set, 0.01, wide(0.01))
        assert d_fine < d_coarse / 50.0

    def test_nonnegative(self, sigma_z_set, equal_qubit):
        grid = np.linspace(-3, 3, 21)
        assert factorization_check(equal_qubit, sigma_z_set, 0.5, grid) >= 0.0


def _window_increments(ens, beta, mu, window, n_windows):
    """Window increments dB = sqrt(2 beta / mu) * sum_i (a_i - <A> at window
    start), built one trajectory at a time, and each window's hit count.

    Windows (t_w, t_w + window] tile each trajectory, one per record
    interval. A hit on a window boundary belongs to the earlier window,
    whatever the rounding of evenly spaced times.
    """
    rows, counts = [], []
    for i in range(len(ens)):
        a, b = ens.offsets[i], ens.offsets[i + 1]
        anchors = ens.expectations[:n_windows, i]
        bins = np.ceil(ens.times[a:b] / window - 1e-9).astype(int) - 1
        valid = (bins >= 0) & (bins < n_windows)
        count = np.bincount(bins[valid], minlength=n_windows).astype(float)
        sums = np.zeros(anchors.shape)
        np.add.at(sums, bins[valid], ens.centres[a:b][valid])
        rows.append(math.sqrt(2 * beta / mu) * (sums - count[:, None] * anchors))
        counts.append(count)
    return np.concatenate(rows), np.concatenate(counts)


class TestDbStatistics:
    def test_chain_moments_small(self, sigma_z_set, equal_qubit):
        # at beta * mu = 3 the increments of 0.02-long windows are near the
        # Wiener increments of the limit: mean 0 and variance the window
        beta, mu, window = 1e-3, 3000.0, 0.02
        streams = [HitStream((0,), beta=beta, mu=mu, schedule=Schedule.EVENLY_SPACED)]
        recs = run_hitting_ensemble(
            live_block(equal_qubit, sigma_z_set, None), streams, 2.0, 0.02, 50, 5,
        )
        db, counts = _window_increments(recs, beta, mu, window, 100)
        assert counts.mean() == pytest.approx(60.0)
        n = db.shape[0]
        mean = db.mean(axis=0)
        mean_se = db.std(axis=0, ddof=1) / math.sqrt(n)
        variance = np.sum((db - mean) ** 2, axis=0) / (n - 1)
        assert abs(mean[0]) < 4 * mean_se[0]
        assert variance[0] == pytest.approx(0.02, rel=0.05)


class TestConvergenceSweep:
    def test_channel_distances_decrease_with_slope_one(self, sigma_z_set, equal_qubit):
        rows = convergence_sweep(
            live_block(equal_qubit, sigma_z_set, None), [HitStream((0,), 0.1, 10.0)], 0.5,
            [10.0, 100.0, 1000.0], 500, 1.0, 3,
        )
        channel = [r.channel_distance for r in rows]
        assert channel[0] > channel[1] > channel[2] > 0
        betas = [r.streams[0].beta for r in rows]
        assert betas == [2 * 0.5 / r.mu for r in rows]
        slope = np.polyfit(np.log(betas), np.log(channel), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.15)

    def test_sorted_ascending_and_mc_error_bars(self, sigma_z_set, equal_qubit):
        rows = convergence_sweep(
            live_block(equal_qubit, sigma_z_set, None), [HitStream((0,), 0.1, 10.0)], 0.5,
            [100.0, 10.0],
            2000, 1.0, 4,
        )
        assert rows[0].mu == 10.0 and rows[1].mu == 100.0
        # the noise floor: half the distance between the halves of the
        # sweep's diffusive ensemble, rebuilt from the runner
        step = snapped_dt(sigma_z_set, 0.5, 1.0)
        cfg = ContinuousConfig(gamma=0.5, dt=step, t_end=1.0, record_interval=1.0)
        cont = run_continuous_ensemble(live_block(equal_qubit, sigma_z_set, None), cfg, 2000, 4)
        floor = _rows_distance(cont.states[-1][:1000], cont.states[-1][1000:]) / 2.0
        for row in rows:
            allowance = 3 * row.mc_error + 2 * floor
            assert abs(row.mc_distance - row.channel_distance) <= allowance

    def test_ensembles_come_from_the_ensemble_runners(self, three_level_set):
        psi0 = StateVector([0.5, 0.5, SQ2])
        gamma, t_probe, n, master = 0.5, 1.0, 300, 8
        rows = convergence_sweep(
            live_block(psi0, three_level_set, None), [HitStream((0,), 0.25, 4.0)], gamma,
            [40.0, 4.0], n,
            t_probe, master, dt=0.01,
        )
        cfg = ContinuousConfig(gamma=gamma, dt=0.01, t_end=t_probe, record_interval=t_probe)
        cont = run_continuous_ensemble(live_block(psi0, three_level_set, None), cfg, n, master)
        rho_cont = state_mixture(cont.states[-1])
        for i, row in enumerate(rows, start=1):
            assert row.streams == [HitStream((0,), 2 * gamma / row.mu, row.mu)]
            hitting = run_hitting_ensemble(
                live_block(psi0, three_level_set, None), row.streams, t_probe, t_probe,
                n, derive_seed(master, SWEEP_STREAM, i),
            )
            rho_hit = state_mixture(hitting.states[-1])
            assert row.mc_distance == trace_norm_distance(rho_hit, rho_cont)


    def test_dt_less_diffusion_steps_at_most_suggested_dt(self, sigma_z_set, equal_qubit,
                                                          monkeypatch):
        # suggested_dt is 0.01 / (0.5 * 4) = 0.005, and 0.007 / 0.005 = 1.4
        # steps: rounding to 1 step would take dt = 0.007; snapping up, as
        # BuiltScenario.continuous_config does, takes 2 steps
        assert suggested_dt(sigma_z_set, 0.5) == 0.005
        seen, run = [], equivalence.run_continuous_ensemble

        def recording(block, config, *args, **kwargs):
            seen.append(config.dt)
            return run(block, config, *args, **kwargs)

        monkeypatch.setattr(equivalence, "run_continuous_ensemble", recording)
        convergence_sweep(
            live_block(equal_qubit, sigma_z_set, None), [HitStream((0,), 0.1, 10.0)], 0.5, [10.0],
            4, 0.007, 1,
            n_bootstrap=2,
        )
        assert seen == [0.007 / 2] == [snapped_dt(sigma_z_set, 0.5, 0.007)]

    def test_diffusion_steps_at_most_the_configured_dt(self, sigma_z_set, equal_qubit,
                                                       monkeypatch):
        # a sweep config of t_end 1.0, record_interval 0.3 and dt 0.3 is
        # valid; 1.0 / 0.3 rounded to 3 steps would step at 0.333
        raw = {
            "scenario": "explicit-matrices", "engine": "both", "beta": 0.5, "mu": 8.0,
            "dt": 0.3, "t_end": 1.0, "record_interval": 0.3, "n_trajectories": 4,
            "operators": [{"dim": 2, "re": [1, 0, 0, -1], "im": [0, 0, 0, 0]}],
            "initial_state": {"re": [SQ2, SQ2]},
        }
        assert ScenarioConfig.from_dict(raw).dt == 0.3
        seen, run = [], equivalence.run_continuous_ensemble

        def recording(block, config, *args, **kwargs):
            seen.append(config.dt)
            return run(block, config, *args, **kwargs)

        monkeypatch.setattr(equivalence, "run_continuous_ensemble", recording)
        convergence_sweep(
            live_block(equal_qubit, sigma_z_set, None), [HitStream((0,), 0.1, 10.0)], 0.5, [10.0],
            4, 1.0, 1,
            dt=0.3, n_bootstrap=2,
        )
        assert seen == [0.25]
        # a dt that divides the probe time keeps its bits, as d120's 0.5 / 0.00125
        assert snapped_dt(sigma_z_set, 0.5, 0.5, 0.00125) == 0.00125

    def test_one_stream_keeps_beta_two_gamma_over_rate_bit_for_bit(self):
        # the lattice scales beta and gamma by 1 / dx; at dx = 0.45 the product
        # beta * mu / value rounds differently from 2 * gamma / value
        raw = {
            "scenario": "identical-particles", "engine": "both", "beta": 0.5, "mu": 3.0,
            "t_end": 1.0, "record_interval": 0.5, "sites": 3, "dx": 0.45, "alpha": 2.0,
            "species": [{"name": "b", "count": 1}],
            "initial_state": [{"occupations": [[1, 0, 0]], "re": 1.0}],
        }
        built = build_scenario(ScenarioConfig.from_dict(raw))
        gamma = np.full(built.quantities.num_quantities, built.gamma)
        [stream] = built.streams
        values = (3.0, 10.0, 40.0)
        assert any(stream.beta * stream.mu / v != 2.0 * built.gamma / v for v in values)
        for v in values:
            [swept] = equivalence._streams_at_rate(built.streams, gamma, v)
            assert (swept.beta, swept.mu) == (2.0 * built.gamma / v, v)

    def test_streams_keep_rate_ratios_and_strengths(self):
        # overlapping streams; gamma_p sums beta * mu / 2 over the streams hitting p
        streams = [
            HitStream((0,), 0.5, 8.0), HitStream((0, 1), 3.0, 2.0), HitStream((1,), 1.0, 5.0)
        ]
        gamma = np.array([(0.5 * 8.0 + 3.0 * 2.0) / 2, (3.0 * 2.0 + 1.0 * 5.0) / 2])
        for total in (1.5, 30.0, 1e4):
            swept = equivalence._streams_at_rate(streams, gamma, total)
            assert sum(s.mu for s in swept) == pytest.approx(total, rel=1e-14)
            for old, new in zip(streams, swept):
                assert new.quantity_indices == old.quantity_indices
                assert new.mu / total == pytest.approx(old.mu / 15.0, rel=1e-14)
                assert new.beta * new.mu == pytest.approx(old.beta * old.mu, rel=1e-14)


def lattice_config(sites, count, occupations, **overrides) -> ScenarioConfig:
    """An engine-``both`` boson lattice with psi0 spread evenly over ``occupations``."""
    raw = {
        "scenario": "identical-particles", "engine": "both", "beta": 0.5, "mu": 4.0,
        "dt": 0.005, "t_end": 0.5, "record_interval": 0.25, "n_trajectories": 4,
        "seed": 3, "sites": sites, "dx": 1.0, "alpha": 2.0,
        "species": [{"name": "b", "count": count}],
        "initial_state": [{"occupations": [occ], "re": 1.0} for occ in occupations],
    }
    return ScenarioConfig.from_dict({**raw, **overrides})


def engine_pair(block, streams, gamma, n, *, dt=0.005):
    """Both engines from ``block`` over (0, 0.5], recorded every 0.25, with states."""
    hitting = run_hitting_ensemble(block, streams, 0.5, 0.25, n, 3)
    continuous = run_continuous_ensemble(
        block, ContinuousConfig(gamma=gamma, dt=dt, t_end=0.5, record_interval=0.25), n, 3,
    )
    return hitting, continuous


def full_oracle_distances(psi0, quantities, streams, gamma, times, hamiltonian=None,
                          steps=(None, None)):
    """Trace distances of the two oracles at full d, in the computational basis.

    ``steps`` holds the Runge-Kutta step of the hitting master equation and
    of the Lindblad equation, or None for each oracle's own.
    """
    rho0 = pure(psi0)
    t_end = float(times[-1])
    _, master = hitting_master_evolution(
        rho0, quantities, streams, t_end, hamiltonian=hamiltonian, sample_times=times,
        dt=steps[0],
    )
    _, lind = lindblad_evolution(
        rho0, quantities, gamma, t_end, hamiltonian=hamiltonian, sample_times=times,
        dt=steps[1],
    )
    assert master[0].shape == (quantities.dim,) * 2
    return np.array([trace_norm_distance(m, l) for m, l in zip(master, lind)])


def record_rk4_steps(monkeypatch) -> list:
    """The step of every Runge-Kutta series the oracles integrate, in call order."""
    steps, rk4 = [], equivalence._rk4

    def recording(rho, rhs, times, step):
        steps.append(step)
        return rk4(rho, rhs, times, step)

    monkeypatch.setattr(equivalence, "_rk4", recording)
    return steps


class TestOraclesOnTheLiveBlock:
    def test_lattice_distances_are_the_full_ones(self):
        # d = 21 with psi0 on 3 Fock states: both callers run their oracles
        # on those 3 coordinates
        occupations = [[2, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 0, 2]]
        built = build_scenario(lattice_config(6, 2, occupations))
        quantities, psi0, streams, gamma = built.quantities, built.psi0, built.streams, built.gamma
        assert quantities.dim == 21
        block = live_block(psi0, quantities, None)
        hitting, continuous = engine_pair(block, streams, gamma, 4)
        assert hitting.live.size == 3
        got = engine_comparison(hitting, continuous, block, streams, gamma, n_bootstrap=2)
        times = np.array([0.0, 0.25, 0.5])
        full = full_oracle_distances(psi0, quantities, streams, gamma, times)
        assert full[-1] > 1e-3
        assert np.max(np.abs(got.oracle_distance - full)) <= 1e-12
        rows = convergence_sweep(block, streams, gamma, [4.0, 40.0], 4, 0.5, 3, n_bootstrap=2)
        for row in rows:
            full = full_oracle_distances(psi0, quantities, row.streams, gamma, times[[0, 2]])
            assert abs(row.channel_distance - full[-1]) <= 1e-12

    @pytest.mark.parametrize("with_hamiltonian", [False, True])
    def test_rotated_set_oracle_distances_are_the_full_ones(
        self, with_hamiltonian, monkeypatch
    ):
        # with a Hamiltonian the block integrates at a step of its own rates
        # and spectrum; given that step, the full-d oracles agree
        quantities, psi0, hamiltonian, _ = rotated_six_level()
        if not with_hamiltonian:
            hamiltonian = None
        streams, gamma = [HitStream((0, 1), beta=0.4, mu=5.0)], 1.0
        block = live_block(psi0, quantities, hamiltonian)
        hitting, continuous = engine_pair(block, streams, gamma, 4, dt=2.0**-8)
        assert hitting.live.size == 5
        steps = record_rk4_steps(monkeypatch)
        got = engine_comparison(hitting, continuous, block, streams, gamma, n_bootstrap=2)
        rows = convergence_sweep(
            block, streams, gamma, [5.0, 50.0], 4, 0.5, 3, dt=2.0**-8, n_bootstrap=2
        )
        monkeypatch.undo()
        # engine_comparison integrates the master equation, then Lindblad; the
        # sweep Lindblad once, then the master equation of each rate
        assert len(steps) == (5 if with_hamiltonian else 0)
        steps = steps or [None] * 5
        times = np.array([0.0, 0.25, 0.5])
        full = full_oracle_distances(
            psi0, quantities, streams, gamma, times, hamiltonian, (steps[0], steps[1])
        )
        assert full[-1] > 1e-3
        assert np.max(np.abs(got.oracle_distance - full)) <= 1e-12
        for row, master_step in zip(rows, steps[3:]):
            full = full_oracle_distances(
                psi0, quantities, row.streams, gamma, times[[0, 2]], hamiltonian,
                (master_step, steps[2]),
            )
            assert abs(row.channel_distance - full[-1]) <= 1e-12

    def test_live_set_of_psi0_must_be_the_ensembles(self, three_level_set):
        # both ensembles run from psi0 on {0, 1}; the comparison is told {0, 2}
        streams = [HitStream((0,), beta=0.8, mu=4.0)]
        hitting, continuous = engine_pair(
            live_block(StateVector([0.6, 0.8, 0.0]), three_level_set, None), streams, 1.6, 3
        )
        with pytest.raises(ValueError, match="psi0"):
            engine_comparison(
                hitting, continuous,
                live_block(StateVector([0.6, 0.0, 0.8]), three_level_set, None), streams, 1.6,
                n_bootstrap=2,
            )

    def test_engine_comparison_memory_at_d715(self):
        # d = 715 with psi0 on 2 Fock states; one d x d complex matrix alone
        # takes 8.2 MB, and the full-d oracles held 11 of them
        occupations = [[2, 2] + [0] * 8, [0] * 8 + [2, 2]]
        built = build_scenario(lattice_config(10, 4, occupations))
        quantities, psi0, streams, gamma = built.quantities, built.psi0, built.streams, built.gamma
        assert quantities.dim == 715
        hitting, continuous = engine_pair(live_block(psi0, quantities, None), streams, gamma, 20)
        got, peak = traced_peak(lambda: engine_comparison(
            hitting, continuous, live_block(psi0, quantities, None), streams, gamma
        ))
        assert got.oracle_distance[-1] > 1e-3
        # a block of bootstrap replicates and a fixed slack
        assert peak <= 2**20 + 256 * 2**10


class TestMartingaleHitting:
    def test_ensemble_mean_weights_constant(self, sigma_z_set, equal_qubit):
        streams = [HitStream((0,), beta=0.5, mu=5.0)]
        records = run_hitting_ensemble(
            live_block(equal_qubit, sigma_z_set, None), streams, 2.0, 0.25, 2000, 19
        )
        stats = ensemble_stats(records)
        drift = np.abs(stats.mean_weights[1:] - stats.mean_weights[0])
        z = drift / np.maximum(stats.mean_weight_se[1:], 1e-12)
        assert z.max() < 4.0

    def test_offdiagonal_decay_against_oracle(self, sigma_z_set, equal_qubit):
        n = 2000
        streams = [HitStream((0,), beta=0.5, mu=4.0)]
        records = run_hitting_ensemble(
            live_block(equal_qubit, sigma_z_set, None), streams, 1.5, 0.25, n, 21,
        )
        rho0 = pure(equal_qubit)
        times = records.sample_times
        _, oracle = hitting_master_evolution(
            rho0, sigma_z_set, streams, float(times[-1]), sample_times=times
        )
        for t, rho_det in zip(times[1:], oracle[1:]):
            rho_mc = ensemble_density_matrix(records, float(t), sigma_z_set)
            assert trace_norm_distance(rho_mc, rho_det) < 5.0 / math.sqrt(n)
