import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SQ2, full_states, full_weights, random_block_basis, random_state, traced_peak, within_z,
)
from qreduce.errors import DimensionMismatchError, StepRejectedError
from qreduce.hilbert import Hamiltonian, QuantitySet, StateVector, validate_quantity_set
from qreduce.continuous import (
    ContinuousConfig,
    _DiffusionKernel,
    gamma_vector,
    sde_step,
    simulate_continuous_batch,
    strength_from_hitting,
    suggested_dt,
)
from qreduce.ensemble import run_continuous_ensemble
from qreduce.equivalence import DensityMatrix, convergence_sweep, lindblad_evolution
from qreduce.hitting import HitStream
from qreduce.trajectory import live_block

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestStrengthFromHitting:
    def test_arithmetic(self):
        assert strength_from_hitting(0.01, 100.0) == pytest.approx(0.5)

    def test_round_trip(self):
        gamma, mu = 0.37, 12.0
        assert strength_from_hitting(2 * gamma / mu, mu) == pytest.approx(gamma)

    def test_per_particle_variant(self):
        # localization accuracy alpha and frequency lambda give alpha*lambda/2
        alpha, lam = 1.5, 0.2
        assert strength_from_hitting(alpha, lam) == pytest.approx(alpha * lam / 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            strength_from_hitting(0.0, 1.0)


class TestSdeStep:
    def test_eigenvector_fixed_point_any_increment(self, three_level_set):
        psi = StateVector([0.0, 1.0, 0.0])
        for db in ([0.5], [-2.0], [0.0]):
            out = sde_step(psi, three_level_set, None, 1.3, 1e-3, np.array(db))
            assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-12)

    def test_zero_strength_is_first_order_unitary(self, sigma_z_set):
        # gamma -> 0 equivalent: tiny gamma with zero increment, Hamiltonian on
        psi = StateVector([1.0, 0.0])
        dt = 1e-3
        ham = Hamiltonian(SX)
        out = sde_step(psi, sigma_z_set, ham, 1e-30, dt, np.zeros(1))
        exact = np.cos(dt) * psi.amplitudes - 1j * np.sin(dt) * (SX @ psi.amplitudes)
        assert np.max(np.abs(out.amplitudes - exact)) < 2 * dt**2

    def test_single_step_weight_shift(self, sigma_z_set, equal_qubit):
        gamma, dt = 1.0, 1e-4
        db = math.sqrt(dt)
        out = sde_step(equal_qubit, sigma_z_set, None, gamma, dt, np.array([db]))
        w0 = abs(out.amplitudes[0]) ** 2
        up = 0.5 * (1 + math.sqrt(gamma) * db) ** 2
        down = 0.5 * (1 - math.sqrt(gamma) * db) ** 2
        assert w0 == pytest.approx(up / (up + down), abs=20 * dt**1.5)


def _random_hamiltonian(rng: np.random.Generator, dim: int) -> Hamiltonian:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Hamiltonian(m + m.conj().T)


def _columns(rows: np.ndarray) -> np.ndarray:
    """(batch, d) complex rows as the kernel's (2, d, batch) planes."""
    return np.ascontiguousarray(np.stack([rows.real.T, rows.imag.T]))


def _rows(columns: np.ndarray) -> np.ndarray:
    return columns[0].T + 1j * columns[1].T


def _check_step_against_sde_step(quantities, hamiltonian, gamma, dt, rng):
    cfg = ContinuousConfig(gamma=gamma, dt=dt, t_end=dt, record_interval=dt)
    num_q = quantities.num_quantities
    gammas = gamma_vector(cfg.gamma, num_q)
    rows = np.stack([random_state(rng, quantities.dim).amplitudes for _ in range(5)])
    dB = rng.standard_normal((5, num_q)) * math.sqrt(dt)
    h_joint = None if hamiltonian is None else quantities.joint_hamiltonian(hamiltonian)
    kernel = _DiffusionKernel(quantities, h_joint, cfg)
    columns = _columns(rows)
    ratios2 = kernel.step_batch(columns, (dB * np.sqrt(gammas)).T)
    for row, db, got, ratio2 in zip(rows, dB, _rows(columns), ratios2):
        psi = StateVector(row)
        expected = sde_step(psi, quantities, hamiltonian, gammas, dt, db)
        raw = sde_step(psi, quantities, hamiltonian, gammas, dt, db, renormalize=False)
        assert np.max(np.abs(got - expected.amplitudes)) < 1e-12
        assert math.sqrt(ratio2) == pytest.approx(np.linalg.norm(raw.amplitudes), abs=1e-12)


class TestDiffusionKernel:
    @pytest.mark.parametrize("with_hamiltonian", [False, True])
    @pytest.mark.parametrize("gamma", [0.7, (0.7, 1.3, 0.2)])
    def test_step_matches_sde_step_row_by_row(self, with_hamiltonian, gamma):
        # with a 1e4 offset the expanded square cancels terms of order
        # dt * gamma * 1e8 unless the kernel centres the table first
        rng = np.random.default_rng(11)
        dim, num_q = 6, 3
        quantities = QuantitySet(rng.standard_normal((dim, num_q)) + 1e4)
        hamiltonian = _random_hamiltonian(rng, dim) if with_hamiltonian else None
        _check_step_against_sde_step(quantities, hamiltonian, gamma, 1e-3, rng)

    @pytest.mark.parametrize("with_hamiltonian", [False, True])
    def test_step_matches_sde_step_on_the_qubit_shape(self, with_hamiltonian):
        # d = 2, K = 1: the live block of every preset and workload
        rng = np.random.default_rng(13)
        quantities = QuantitySet(np.array([[1.0], [-1.0]]))
        hamiltonian = _random_hamiltonian(rng, 2) if with_hamiltonian else None
        _check_step_against_sde_step(quantities, hamiltonian, 0.7, 1e-3, rng)

    def test_step_memory_is_a_few_coefficient_arrays(self):
        # one (d, K, batch) float array alone would be 27 MB here
        rng = np.random.default_rng(12)
        dim, num_q, batch = 4368, 12, 64
        cfg = ContinuousConfig(gamma=1.0, dt=1e-4, t_end=1e-4, record_interval=1e-4)
        kernel = _DiffusionKernel(QuantitySet(rng.random((dim, num_q))), None, cfg)
        coeffs = rng.standard_normal((2, dim, batch))
        increments = rng.standard_normal((num_q, batch)) * kernel.noise_scale[:, np.newaxis]
        _, peak = traced_peak(kernel.step_batch, coeffs, increments)
        assert peak < 4 * coeffs.nbytes


class TestSimulateContinuous:
    def test_eigenvector_constant(self, sigma_z_set):
        psi = StateVector([1.0, 0.0])
        cfg = ContinuousConfig(gamma=2.0, dt=1e-3, t_end=1.0, record_interval=0.25)
        ens = simulate_continuous_batch(live_block(psi, sigma_z_set, None), cfg, [4])
        weights = full_weights(ens)[:, 0]
        assert np.allclose(weights, weights[0], atol=1e-10)
        assert ens.times.size == 0

    def test_unit_norm_records(self, sigma_z_set, equal_qubit):
        cfg = ContinuousConfig(gamma=1.0, dt=1e-3, t_end=1.0, record_interval=0.25)
        ens = simulate_continuous_batch(live_block(equal_qubit, sigma_z_set, None), cfg, [8])
        for state in ens.states[:, 0]:
            assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_collapse_fractions_match_born_weights(self, three_level_set):
        psi = StateVector([0.5, 0.5, SQ2])
        cfg = ContinuousConfig(gamma=1.0, dt=2e-3, t_end=12.0, record_interval=12.0)
        records = run_continuous_ensemble(live_block(psi, three_level_set, None), cfg, 1200, 17)
        terminal = full_weights(records)[-1]
        winners = terminal.argmax(axis=1)
        resolved = terminal.max(axis=1) > 0.999
        assert resolved.mean() > 0.98
        for level, weight in enumerate((0.25, 0.25, 0.5)):
            frac = np.mean(winners[resolved] == level)
            se = math.sqrt(weight * (1 - weight) / resolved.sum())
            assert abs(frac - weight) < 4 * se

    def test_step_rejected_for_huge_dt(self, sigma_z_set, equal_qubit, monkeypatch):
        cfg = ContinuousConfig(gamma=200.0, dt=0.5, t_end=1.0, record_interval=0.5)
        block = live_block(equal_qubit, sigma_z_set, None)
        with pytest.raises(StepRejectedError) as err:
            simulate_continuous_batch(block, cfg, [1])
        assert err.value.seed == 1
        # columns 0 and 2 kept in bounds, as an eigenvector's would be: only
        # column 1's own huge step is rejected, and the error names its seed
        step = _DiffusionKernel.step_batch

        def only_column_1(self, coeffs, increments):
            ratios = step(self, coeffs, increments)
            ratios[[0, 2]] = 1.0
            return ratios

        monkeypatch.setattr(_DiffusionKernel, "step_batch", only_column_1)
        with pytest.raises(StepRejectedError) as err:
            simulate_continuous_batch(block, cfg, [7, 1, 3])
        assert err.value.seed == 1

    def test_step_with_nan_norm_ratio_rejected(self, sigma_z_set, equal_qubit, monkeypatch):
        # an overflowed step gives a NaN norm ratio, which no bound admits
        step = _DiffusionKernel.step_batch

        def nan_step(self, coeffs, increments):
            return np.full_like(step(self, coeffs, increments), np.nan)

        monkeypatch.setattr(_DiffusionKernel, "step_batch", nan_step)
        cfg = ContinuousConfig(gamma=0.5, dt=0.01, t_end=0.1, record_interval=0.05)
        with pytest.raises(StepRejectedError, match="nan"):
            simulate_continuous_batch(live_block(equal_qubit, sigma_z_set, None), cfg, [1])

    def test_suggested_dt_bound(self, sigma_z_set):
        dt = suggested_dt(sigma_z_set, 0.5)
        assert 0.5 * sigma_z_set.spectral_spread() * dt <= 0.010000001


class TestEnsembleProperties:
    def test_martingale_mean_weights(self, sigma_z_set, equal_qubit):
        cfg = ContinuousConfig(gamma=0.5, dt=2e-3, t_end=2.0, record_interval=0.25)
        records = run_continuous_ensemble(live_block(equal_qubit, sigma_z_set, None), cfg, 2000, 23)
        weights = full_weights(records).swapaxes(0, 1)  # (n, s, d)
        mean = weights.mean(axis=0)
        se = weights.std(axis=0, ddof=1) / math.sqrt(weights.shape[0])
        drift = np.abs(mean[1:] - mean[0]) / np.maximum(se[1:], 1e-12)
        assert drift.max() < 4.0

    def test_variance_growth_includes_initial_slope(self, sigma_z_set, equal_qubit):
        # Var[<A>] grows like 4 * gamma * (quantum variance)^2 * t at short times
        gamma = 0.5
        cfg = ContinuousConfig(gamma=gamma, dt=5e-4, t_end=0.05, record_interval=0.005)
        records = run_continuous_ensemble(
            live_block(equal_qubit, sigma_z_set, None), cfg, 20000, 29,
        )
        expectations = records.expectations[:, :, 0].T  # (n, s)
        variances = expectations.var(axis=0, ddof=1)
        times = records.sample_times
        slope = np.polyfit(times, variances, 1)[0]
        assert slope == pytest.approx(4 * gamma * 1.0**2, rel=0.10)

    def test_weak_order_one_halving(self, sigma_z_set, equal_qubit):
        # terminal off-diagonal of the ensemble statistical operator vs the
        # closed form; halving dt should roughly halve the bias
        from qreduce.equivalence import DensityMatrix, lindblad_evolution, trace_norm_distance

        gamma, t_end, n = 0.5, 1.0, 60000
        _, oracle = lindblad_evolution(
            DensityMatrix.from_state(equal_qubit), sigma_z_set, gamma, t_end
        )
        errors = {}
        for dt in (0.1, 0.05):
            cfg = ContinuousConfig(gamma=gamma, dt=dt, t_end=t_end, record_interval=t_end)
            records = run_continuous_ensemble(
                live_block(equal_qubit, sigma_z_set, None), cfg, n, 31,
            )
            rows = records.states[-1]
            rho = DensityMatrix.from_state_rows(rows)
            errors[dt] = abs(rho.rho[0, 1].real - oracle[-1].rho[0, 1].real)
        noise = 1.0 / (2 * math.sqrt(n))
        assert errors[0.05] <= 0.65 * errors[0.1] + 3 * noise


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: sum(s) <= 5),
    num_q=st.integers(1, 2),
    # a few distinct eigenvalues, so rows of the table often coincide
    levels=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=10, max_size=10),
    dead_blocks=st.lists(st.booleans(), min_size=2, max_size=2),
    gamma=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_tables_keep_the_martingale_and_the_lindblad_equation(
    sizes, num_q, levels, dead_blocks, gamma, seed
):
    from qreduce.equivalence import DensityMatrix, lindblad_evolution

    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    if dim < 2:
        sizes, dim = [*sizes, 1], dim + 1
    basis, blocks = random_block_basis(rng, sizes)
    quantities = QuantitySet(np.array(levels[: dim * num_q]).reshape(dim, num_q), basis)
    # psi0 holds the first block and misses each later block it is dealt
    # a True for: those joint coordinates are exactly 0
    amps = np.zeros(dim, dtype=complex)
    for (rows, _), dead in zip(blocks, [False, *dead_blocks]):
        if not dead:
            amps[rows] = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
    psi0 = StateVector(amps, normalize=True)
    # the suggested step rounded down to a power of two, so that the
    # records at 0.5 and 1 lie on the step grid
    dt = 2.0 ** min(-7, math.floor(math.log2(suggested_dt(quantities, gamma))))
    cfg = ContinuousConfig(gamma=gamma, dt=dt, t_end=1.0, record_interval=0.5)
    ens = run_continuous_ensemble(live_block(psi0, quantities, None), cfg, 500, seed)

    # E[w(t)] = w(0): the Born weights are a martingale
    assert within_z(full_weights(ens), quantities.born_weights(psi0))

    # without a Hamiltonian the oracle is its closed form at each record time
    _, oracle = lindblad_evolution(
        DensityMatrix.from_state(psi0), quantities, gamma, cfg.t_end,
        sample_times=ens.sample_times,
    )
    states = full_states(ens, quantities)
    outer = states[:, :, :, np.newaxis] * states[:, :, np.newaxis, :].conj()
    rho = np.stack([r.rho for r in oracle])
    assert within_z(outer.real, rho.real)
    assert within_z(outer.imag, rho.imag)


class TestGammaVector:
    def test_a_number_broadcasts_and_a_vector_of_k_passes(self):
        assert gamma_vector(0.5, 3).tolist() == [0.5, 0.5, 0.5]
        assert gamma_vector(np.array(0.5), 3).tolist() == [0.5, 0.5, 0.5]
        assert gamma_vector((0.1, 0.2), 2).tolist() == [0.1, 0.2]
        assert gamma_vector([0.5], 1).tolist() == [0.5]
        for bad in ((0.1, 0.2), [0.5], [[0.1, 0.2, 0.3]]):
            with pytest.raises(DimensionMismatchError):
                gamma_vector(bad, 3)


def _gamma_callers():
    """Each reader of a strength, as gamma -> its result (K = 2, d = 3)."""
    quantities = QuantitySet(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]]))
    psi0 = StateVector(np.array([0.6, 0.64, 0.48]))
    streams = [HitStream((0, 1), 0.5, 4.0)]

    def kernel(gamma):
        cfg = ContinuousConfig(gamma=gamma, dt=0.01, t_end=0.01, record_interval=0.01)
        return _DiffusionKernel(quantities, None, cfg).base_factor

    def step(gamma):
        return sde_step(psi0, quantities, None, gamma, 0.01, [0.05, -0.1]).amplitudes

    def lindblad(gamma):
        _, series = lindblad_evolution(DensityMatrix.from_state(psi0), quantities, gamma, 0.5)
        return np.stack([r.rho for r in series])

    def sweep(gamma):
        rows = convergence_sweep(live_block(psi0, quantities, None), streams, gamma, [4.0], 4,
                                 0.1, 1, n_bootstrap=2)
        return np.array([(r.channel_distance, r.mc_distance, r.mc_error) for r in rows])

    def step_size(gamma):
        return np.array(suggested_dt(quantities, gamma))

    return {"kernel": kernel, "sde_step": step, "lindblad_evolution": lindblad,
            "convergence_sweep": sweep, "suggested_dt": step_size}


@pytest.mark.parametrize("caller", list(_gamma_callers()))
def test_every_gamma_reader_takes_a_number_or_one_value_per_quantity(caller):
    # a number, a numpy scalar, a 0-d array and a (K,) vector of it are one
    # strength, bit for bit; a vector of another length is refused by name
    call = _gamma_callers()[caller]
    expected = call(0.7).tobytes()
    for gamma in (np.float64(0.7), np.array(0.7), (0.7, 0.7), np.array([0.7, 0.7])):
        assert call(gamma).tobytes() == expected
    with pytest.raises(DimensionMismatchError):
        call((0.7, 0.7, 0.7))
