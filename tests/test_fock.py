import json
import math
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf as scipy_erf

from conftest import SQ2, traced_peak
from qreduce.config import ScenarioConfig, load_preset
from qreduce.errors import ConfigError, DimensionMismatchError
from qreduce.hilbert import QuantitySet, StateVector, validate_quantity_set
from qreduce.hitting import hitting_density, simulate_hitting_batch
from qreduce.continuous import ContinuousConfig
from qreduce.ensemble import run_continuous_ensemble, run_hitting_ensemble
from qreduce.equivalence import (
    DensityMatrix,
    collapse_statistics,
    ensemble_density_matrix,
    lindblad_evolution,
    trace_norm_distance,
)
from qreduce import fock
from qreduce.fock import (
    Species,
    _count_occupation_vectors,
    _erf,
    _occupation_vectors,
    build_fock_lattice,
    build_mass_density,
    build_number_density,
    smearing_kernel,
)
from qreduce.scenarios import build_scenario
from qreduce.trajectory import live_block

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


def one_boson_lattice(sites=2, dx=1.0):
    return build_fock_lattice(sites, dx, [Species("b", count=1)])


def lattice_config(lat, alpha, initial_state, *, use_mass=False, **rates) -> dict:
    """A lattice config over ``lat``'s sites, dx and species.

    ``initial_state`` holds (occupations, amplitude) pairs; ``rates`` are
    the engine and its beta, mu or gamma (engine hitting by default).
    """
    return {
        "scenario": "mass-density" if use_mass else "identical-particles",
        "engine": "hitting",
        "t_end": 1.0,
        "record_interval": 0.5,
        "sites": lat.num_sites,
        "dx": lat.dx,
        "alpha": alpha,
        "species": [
            {"name": sp.name, "mass": sp.mass, "statistics": sp.statistics,
             "count": sp.count}
            for sp in lat.species
        ],
        "initial_state": [
            {"occupations": np.asarray(occ).tolist(), "re": complex(amp).real,
             "im": complex(amp).imag}
            for occ, amp in initial_state
        ],
        **rates,
    }


def lattice_scenario(lat, alpha, initial_state, **kwargs):
    """``build_scenario`` of :func:`lattice_config`."""
    return build_scenario(
        ScenarioConfig.from_dict(lattice_config(lat, alpha, initial_state, **kwargs))
    )


def recursive_occupation_vectors(total, sites, cap):
    """The recursive enumeration the iterative one must reproduce, row for row."""
    if sites == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(min(total, cap), -1, -1):
        for rest in recursive_occupation_vectors(total - first, sites - 1, cap):
            yield (first,) + rest


def lattice_parameters():
    """(sites, dx, alpha) of every shipped lattice preset and benchmark workload."""
    presets = resources.files("qreduce").joinpath("presets")
    raws = [load_preset(p.name.removesuffix(".json")) for p in presets.iterdir()]
    raws += [json.loads(p.read_text()) for p in sorted(WORKLOADS.glob("*.json"))]
    return sorted({(r["sites"], r["dx"], r["alpha"]) for r in raws if "sites" in r})


class TestSpecies:
    def test_fermion_occupation_capped(self):
        sp = Species("f", statistics="fermion", count=1)
        assert sp.max_occupation == 1
        with pytest.raises(ValueError):
            Species("f", statistics="fermion", count=1, max_occupation=2)

    def test_unknown_statistics(self):
        with pytest.raises(ValueError):
            Species("x", statistics="anyon")


class TestLatticeBasis:
    def test_single_boson_configs(self):
        lat = one_boson_lattice(3)
        assert lat.dim == 3
        assert sorted(map(tuple, lat.configs[:, 0, :])) == [
            (0, 0, 1), (0, 1, 0), (1, 0, 0),
        ]

    def test_two_bosons_two_sites(self):
        lat = build_fock_lattice(2, 1.0, [Species("b", count=2)])
        assert lat.dim == 3  # (2,0), (1,1), (0,2)

    def test_fermions_pauli_blocked(self):
        lat = build_fock_lattice(3, 1.0, [Species("f", statistics="fermion", count=2)])
        assert lat.dim == 3  # choose 2 of 3 sites
        assert np.all(lat.configs <= 1)

    def test_filled_fermion_sector_is_one_dimensional_and_rejected(self):
        # two fermions on two sites: a single configuration; no reduction
        # scenario exists in a one-dimensional space
        lat = build_fock_lattice(2, 1.0, [Species("f", statistics="fermion", count=2)])
        assert lat.dim == 1
        with pytest.raises(ConfigError) as err:
            lattice_scenario(lat, 1.0, [(np.array([[1, 1]]), 1.0)], beta=1.0, mu=1.0)
        assert err.value.key == "species"

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            build_fock_lattice(40, 1.0, [Species("b", count=5)])

    @pytest.mark.parametrize(
        "total, sites, cap",
        [(3, 4, 3), (5, 6, 5), (0, 3, 0), (2, 5, 1), (3, 3, 1), (4, 2, 1), (7, 4, 2),
         (6, 5, 2), (9, 3, 4),
         # past half filling, where the sum runs over the holes, and full
         (4, 5, 1), (5, 5, 1), (10, 4, 3), (12, 4, 3), (8, 3, 3), (9, 3, 3), (2, 1, 2),
         # more particles than places
         (13, 4, 3), (1, 3, 0)],
    )
    def test_dimension_counted_in_closed_form(self, total, sites, cap):
        # bosons (cap = count), fermions (cap 1) and capped bosons
        expected = len(list(_occupation_vectors(total, sites, cap)))
        assert _count_occupation_vectors(total, sites, cap) == expected

    def test_count_near_full_filling_is_fast(self):
        # 4998 fermions on 4999 sites: one hole, so 4999 configurations
        start = time.perf_counter()
        assert _count_occupation_vectors(4998, 4999, 1) == 4999
        assert time.perf_counter() - start < 0.5

    def test_enumeration_matches_recursive_reference(self):
        for total in range(6):
            for sites in range(1, 6):
                for cap in range(6):
                    expected = np.array(
                        list(recursive_occupation_vectors(total, sites, cap)), dtype=np.int64
                    ).reshape(-1, sites)
                    got = _occupation_vectors(total, sites, cap)
                    assert got.shape == expected.shape
                    assert np.array_equal(got, expected), (total, sites, cap)

    def test_several_species_take_the_product_last_fastest(self):
        species = [
            Species("a", count=2),
            Species("f", statistics="fermion", count=1),
            Species("c", count=1),
        ]
        lat = build_fock_lattice(3, 1.0, species)
        per_species = [
            list(recursive_occupation_vectors(sp.count, 3, sp.max_occupation))
            for sp in species
        ]
        expected = [
            [a, f, c] for a in per_species[0] for f in per_species[1] for c in per_species[2]
        ]
        assert np.array_equal(lat.configs, np.array(expected))

    def test_one_boson_on_1500_sites_builds(self):
        # the recursive enumeration hit the interpreter's recursion limit here
        sites = 1500
        raw = {
            "scenario": "identical-particles",
            "engine": "continuous",
            "gamma": 1.0,
            "t_end": 0.1,
            "record_interval": 0.05,
            "n_trajectories": 2,
            "seed": 1,
            "sites": sites,
            "dx": 1.0,
            "alpha": 2.0,
            "species": [{"name": "b", "count": 1}],
            "initial_state": [{"occupations": [[1] + [0] * (sites - 1)], "re": 1.0}],
        }
        built = build_scenario(ScenarioConfig.from_dict(raw))
        assert built.quantities.dim == sites
        assert built.psi0.dim == sites

    def test_index_roundtrip(self):
        lat = build_fock_lattice(
            2, 1.0, [Species("a", count=1), Species("b", count=1)]
        )
        for i in range(lat.dim):
            assert lat.index_of(lat.configs[i]) == i


class TestSmearingKernel:
    def test_rows_bounded_by_one(self):
        lat = one_boson_lattice(6)
        kernel = smearing_kernel(lat.positions, lat.dx, 0.5)
        assert np.all(kernel.sum(axis=1) <= 1.0 + 1e-12)
        assert np.allclose(kernel, kernel.T)

    def test_interior_rows_nearly_normalized(self):
        lat = one_boson_lattice(30, 0.5)
        kernel = smearing_kernel(lat.positions, lat.dx, 1.0)
        assert kernel.sum(axis=1)[15] == pytest.approx(1.0, abs=1e-6)

    def test_matches_midpoint_formula_when_resolved(self):
        # alpha * dx^2 = 0.04: the cell integral reduces to the Gaussian
        # midpoint weight (alpha/2pi)^(1/2) exp(-alpha (xj-xj')^2 / 2) dx
        lat = one_boson_lattice(12, 0.2)
        alpha = 1.0
        kernel = smearing_kernel(lat.positions, lat.dx, alpha)
        x = lat.positions
        midpoint = (
            math.sqrt(alpha / (2 * math.pi))
            * np.exp(-0.5 * alpha * (x[:, None] - x[None, :]) ** 2)
            * lat.dx
        )
        assert np.max(np.abs(kernel - midpoint)) < 2e-3 * midpoint.max()

    def test_quadrature_oracle(self):
        lat = one_boson_lattice(4, 0.7)
        alpha = 2.3
        kernel = smearing_kernel(lat.positions, lat.dx, alpha)
        x = lat.positions
        for j in range(4):
            for jp in range(4):
                val, _ = quad(
                    lambda y: math.sqrt(alpha / (2 * math.pi))
                    * math.exp(-0.5 * alpha * (y - x[j]) ** 2),
                    x[jp] - lat.dx / 2,
                    x[jp] + lat.dx / 2,
                )
                assert kernel[j, jp] == pytest.approx(val, abs=1e-12)

    def test_delta_limit_concentrates_on_site(self):
        lat = one_boson_lattice(4)
        kernel = smearing_kernel(lat.positions, lat.dx, 1e8)
        assert np.allclose(kernel, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("alpha_dx2", [2.0, 0.01])
    def test_band_is_the_dense_kernel(self, alpha_dx2):
        sites, dx = 400, 0.5
        alpha = alpha_dx2 / dx**2
        x = (np.arange(sites) + 0.5) * dx
        # the dense expression, every entry evaluated: the oracle
        scaled = math.sqrt(alpha / 2.0)
        upper = _erf(scaled * (x[np.newaxis, :] - x[:, np.newaxis] + dx / 2.0))
        lower = _erf(scaled * (x[np.newaxis, :] - x[:, np.newaxis] - dx / 2.0))
        dense = 0.5 * (upper - lower)
        assert smearing_kernel(x, dx, alpha).tobytes() == dense.tobytes()
        # most entries lie outside the band
        assert np.count_nonzero(dense) < dense.size / 2

    def test_traced_peak_is_about_the_kernel(self):
        sites, dx = 2000, 0.5
        x = (np.arange(sites) + 0.5) * dx
        kernel, peak = traced_peak(smearing_kernel, x, dx, 2.0 / dx**2)
        assert peak < 1.3 * kernel.nbytes


class TestCephesErf:
    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(20170215)
        n = 250_000
        magnitudes = np.concatenate(
            [
                rng.uniform(0.0, 1.0, n),
                rng.uniform(1.0, 8.0, n),
                rng.uniform(8.0, 26.7, n),
                rng.uniform(26.7, 1e3, n),
                rng.uniform(5.9, 6.1, n // 10),  # where erf saturates at 1
            ]
        )
        x = magnitudes * rng.choice([-1.0, 1.0], magnitudes.size)
        edges = [
            0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0,
            np.nextafter(1.0, 2.0), 6.0, np.nextafter(6.0, 0.0), 8.0, 26.7,
            5e-324, -5e-324, 1e308,
        ]
        x = np.concatenate([x, edges])
        got, expected = _erf(x), scipy_erf(x)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize("sites, dx, alpha", lattice_parameters())
    def test_kernel_matches_the_scipy_formula(self, sites, dx, alpha):
        x = (np.arange(sites) + 0.5) * dx
        scaled = math.sqrt(alpha / 2.0)
        upper = scipy_erf(scaled * (x[np.newaxis, :] - x[:, np.newaxis] + dx / 2.0))
        lower = scipy_erf(scaled * (x[np.newaxis, :] - x[:, np.newaxis] - dx / 2.0))
        assert np.array_equal(smearing_kernel(x, dx, alpha), 0.5 * (upper - lower))


class TestNumberDensity:
    def test_delta_limit_is_on_site_number_operator(self):
        lat = one_boson_lattice(3)
        table = build_number_density(lat, 0, 1e8)
        assert table.shape == (lat.dim, lat.num_sites)
        for j in range(lat.num_sites):
            assert np.allclose(table[:, j], lat.configs[:, 0, j], atol=1e-12)

    def test_expectations_are_kernel_weights(self):
        lat = one_boson_lattice(2)
        alpha = 2.0
        ops = [np.diag(column) for column in build_number_density(lat, 0, alpha).T]
        kernel = smearing_kernel(lat.positions, lat.dx, alpha)
        psi = StateVector([1.0, 0.0])  # |10>
        for j in range(2):
            value = np.vdot(psi.amplitudes, ops[j] @ psi.amplitudes).real
            assert value == pytest.approx(kernel[j, 0], abs=1e-12)

    def test_operators_commute_and_validate(self):
        lat = one_boson_lattice(4)
        table = build_number_density(lat, 0, 0.8)
        qs = validate_quantity_set([np.diag(column) for column in table.T])
        assert qs.num_quantities == 4
        assert qs.joint_basis is None  # the identity
        assert np.array_equal(qs.eigenvalue_table, table)


class TestMassDensity:
    def test_single_unit_mass_equals_number_density(self):
        lat = one_boson_lattice(3)
        nd = build_number_density(lat, 0, 1.5)
        md = build_mass_density(lat, 1.5)
        assert nd.shape == md.shape == (lat.dim, lat.num_sites)
        assert np.allclose(nd, md, atol=1e-14)

    def test_two_species_delta_limit_sums_masses(self):
        lat = build_fock_lattice(
            2, 1.0, [Species("a", mass=1.0, count=1), Species("b", mass=2.0, count=1)]
        )
        table = build_mass_density(lat, 1e8)
        both_at_first = lat.index_of(np.array([[1, 0], [1, 0]]))
        assert table[both_at_first, 0] == pytest.approx(3.0, abs=1e-9)

    def test_smearing_is_linear_in_masses(self):
        lat = build_fock_lattice(
            3, 0.8, [Species("a", mass=1.0, count=1), Species("b", mass=2.0, count=1)]
        )
        alpha = 1.1
        md = build_mass_density(lat, alpha)
        kernel = smearing_kernel(lat.positions, lat.dx, alpha)
        combined = (
            1.0 * lat.site_numbers(0) + 2.0 * lat.site_numbers(1)
        ) @ kernel.T
        for j in range(3):
            assert np.max(np.abs(md[:, j] - combined[:, j])) < 1e-12


class TestProfileProbability:
    def test_peaks_at_own_smeared_profile(self):
        lat = one_boson_lattice(2)
        scenario = lattice_scenario(lat, 2.0, [(np.array([[1, 0]]), 1.0)], beta=1.0, mu=1.0)
        qs = scenario.quantities
        psi = scenario.psi0
        own = qs.eigenvalue_table[qs.born_weights(psi).argmax()]
        other = qs.eigenvalue_table[1 - qs.born_weights(psi).argmax()]
        p_own = hitting_density(psi, qs, own, 1.0 / lat.dx)
        p_other = hitting_density(psi, qs, other, 1.0 / lat.dx)
        assert p_own > p_other

    def test_symmetric_superposition_symmetric_density(self):
        lat = one_boson_lattice(2)
        scenario = lattice_scenario(
            lat, 2.0, [(np.array([[1, 0]]), SQ2), (np.array([[0, 1]]), SQ2)], beta=1.0, mu=1.0
        )
        qs, psi = scenario.quantities, scenario.psi0
        p_a = hitting_density(psi, qs, [0.9, 0.1], 1.0 / lat.dx)
        p_b = hitting_density(psi, qs, [0.1, 0.9], 1.0 / lat.dx)
        assert p_a == pytest.approx(p_b, rel=1e-12)

    def test_grid_quadrature_normalizes(self):
        lat = one_boson_lattice(2)
        scenario = lattice_scenario(
            lat, 2.0, [(np.array([[1, 0]]), SQ2), (np.array([[0, 1]]), SQ2)], beta=0.5, mu=1.0
        )
        qs, psi = scenario.quantities, scenario.psi0
        grid = np.linspace(-4.5, 5.5, 121)
        step = grid[1] - grid[0]
        table = np.array(
            [
                [hitting_density(psi, qs, [n1, n2], 0.5 / lat.dx) for n2 in grid]
                for n1 in grid
            ]
        )
        assert float(table.sum() * step * step) == pytest.approx(1.0, abs=1e-3)

    def test_profile_length_checked(self):
        lat = one_boson_lattice(2)
        scenario = lattice_scenario(lat, 2.0, [(np.array([[1, 0]]), 1.0)], beta=0.5, mu=1.0)
        with pytest.raises(DimensionMismatchError):
            hitting_density(scenario.psi0, scenario.quantities, [1.0], 0.5 / lat.dx)


class TestScenarios:
    def test_one_boson_two_sites_collapses_evenly(self):
        lat = one_boson_lattice(2)
        scenario = lattice_scenario(
            lat, 2.0, [(np.array([[1, 0]]), SQ2), (np.array([[0, 1]]), SQ2)], beta=2.0, mu=10.0
        )
        records = run_hitting_ensemble(
            live_block(scenario.psi0, scenario.quantities, None), scenario.streams,
            15.0, 7.5, 1500, 41
        )
        report = collapse_statistics(records, scenario.quantities)
        assert report.unresolved_fraction < 0.02
        se = math.sqrt(0.25 / report.n_resolved)
        assert abs(report.outcomes[0].frequency - 0.5) < 4 * se

    def test_gamma_derived_from_beta_mu(self):
        # the config derives gamma = beta * mu / 2 for the diffusion
        lat = one_boson_lattice(2, dx=0.5)
        scenario = lattice_scenario(
            lat, 2.0, [(np.array([[1, 0]]), 1.0)], engine="both", beta=2.0, mu=10.0
        )
        assert scenario.streams[0].beta == pytest.approx(4.0)  # beta / dx
        assert scenario.gamma == pytest.approx(20.0)  # beta*mu/2 / dx

    @pytest.mark.parametrize("use_mass", [False, True])
    def test_build_scenario_matches_the_fock_functions(self, use_mass):
        # the table, psi0, the per-site accuracy beta/dx and strength gamma/dx,
        # bit for bit
        species = [Species("a", mass=1.0, count=2)]
        if use_mass:
            species.append(Species("f", mass=2.5, statistics="fermion", count=1))
        lat = build_fock_lattice(4, 0.7, species)
        alpha, beta, mu = 1.3, 0.9, 6.0
        entries = [(lat.configs[1], 0.6), (lat.configs[-2], 0.3 - 0.5j)]
        built = lattice_scenario(
            lat, alpha, entries, use_mass=use_mass, engine="both", beta=beta, mu=mu
        )
        if use_mass:
            table = fock.build_mass_density(lat, alpha)
        else:
            table = fock.build_number_density(lat, 0, alpha)
        assert built.quantities.joint_basis is None
        assert built.quantities.eigenvalue_table.tobytes() == table.tobytes()
        psi0 = lat.state_from_amplitudes(entries)
        assert built.psi0.amplitudes.tobytes() == psi0.amplitudes.tobytes()
        assert built.streams[0].beta == beta / lat.dx
        assert built.streams[0].mu == mu
        assert built.gamma == beta * mu / 2.0 / lat.dx

        hitting_only = lattice_scenario(lat, alpha, entries, use_mass=use_mass, beta=beta, mu=mu)
        assert hitting_only.gamma is None
        assert hitting_only.streams[0].beta == beta / lat.dx

    def test_number_density_needs_single_species(self):
        lat = build_fock_lattice(
            2, 1.0, [Species("a", count=1), Species("b", count=1)]
        )
        with pytest.raises(ConfigError) as err:
            lattice_scenario(lat, 1.0, [(np.array([[1, 0], [1, 0]]), 1.0)], beta=1.0, mu=1.0)
        assert err.value.key == "species"

    def test_two_branch_mass_superposition_decoheres_at_closed_rate(self):
        lat = build_fock_lattice(
            2, 1.0, [Species("a", mass=1.0, count=1), Species("b", mass=2.0, count=1)]
        )
        scenario = lattice_scenario(
            lat, 2.0,
            [(np.array([[1, 0], [0, 1]]), SQ2), (np.array([[0, 1], [1, 0]]), SQ2)],
            use_mass=True, engine="both", beta=4.0, mu=10.0,
        )
        qs = scenario.quantities
        ka = lat.index_of(np.array([[1, 0], [0, 1]]))
        kb = lat.index_of(np.array([[0, 1], [1, 0]]))
        # the closed-form rate: gamma / 2 times the squared profile difference
        table = qs.eigenvalue_table
        rate = 0.5 * scenario.gamma * np.sum((table[ka] - table[kb]) ** 2)
        n = 1500
        cfg = ContinuousConfig(gamma=scenario.gamma, dt=2.5e-3, t_end=1.0, record_interval=0.5)
        records = run_continuous_ensemble(live_block(scenario.psi0, qs, None), cfg, n, 43)
        rho_mc = ensemble_density_matrix(records, 1.0, qs)
        _, oracle = lindblad_evolution(
            DensityMatrix.from_state(scenario.psi0), qs, scenario.gamma, 1.0
        )
        coherence = abs(oracle[-1].rho[ka, kb])
        assert coherence == pytest.approx(0.5 * math.exp(-rate), abs=1e-10)
        assert trace_norm_distance(rho_mc, oracle[-1]) < 5.0 / math.sqrt(n)

    def test_conserves_particle_number_with_hopping(self):
        lat = one_boson_lattice(3)
        scenario = lattice_scenario(lat, 1.0, [(np.array([[1, 0, 0]]), 1.0)], beta=1.0, mu=5.0)
        # single-particle hopping in the occupation basis conserves the count
        hop = np.zeros((3, 3), dtype=complex)
        for i, j in ((0, 1), (1, 2)):
            a = lat.index_of(np.eye(3, dtype=int)[i][np.newaxis, :])
            b = lat.index_of(np.eye(3, dtype=int)[j][np.newaxis, :])
            hop[a, b] = hop[b, a] = -1.0
        from qreduce.hilbert import Hamiltonian

        ens = simulate_hitting_batch(
            live_block(scenario.psi0, scenario.quantities, Hamiltonian(hop)), scenario.streams,
            2.0, 0.25, [3],
        )
        for state in ens.states[:, 0]:
            total = sum(
                np.vdot(state, np.diag(lat.configs[:, 0, j]).astype(complex) @ state).real
                for j in range(3)
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_site_relabeling_symmetry(self):
        # reversing the lattice is a basis permutation: operators and Born
        # weights depend on density profiles, not on site labels
        lat = one_boson_lattice(4)
        alpha = 0.9
        diag = build_number_density(lat, 0, alpha).T  # (sites, dim)
        # permutation of basis states induced by reversing the site order
        perm = [
            lat.index_of(row[:, ::-1]) for row in lat.configs
        ]
        for j in range(4):
            assert np.allclose(diag[3 - j][perm], diag[j], atol=1e-12)

    def test_refining_grid_keeps_decoherence_rate(self):
        gamma, alpha = 1.0, 0.1
        rates = []
        for sites, dx, (ia, ib) in ((8, 1.0, (2, 6)), (16, 0.5, (4, 12))):
            lat = build_fock_lattice(sites, dx, [Species("b", count=1)])
            qs = QuantitySet(build_number_density(lat, 0, alpha))
            occ_a = np.zeros(sites, dtype=int)
            occ_a[ia] = 1
            occ_b = np.zeros(sites, dtype=int)
            occ_b[ib] = 1
            ka = lat.index_of(occ_a[np.newaxis, :])
            kb = lat.index_of(occ_b[np.newaxis, :])
            assert alpha * dx**2 <= 0.1
            # the decay rate of the (ka, kb) coherence over t = 1
            psi = lat.state_from_amplitudes([(occ_a, SQ2), (occ_b, SQ2)])
            _, series = lindblad_evolution(DensityMatrix.from_state(psi), qs, gamma / dx, 1.0)
            rates.append(-math.log(2.0 * abs(series[-1].rho[ka, kb])))
        assert abs(rates[1] - rates[0]) / rates[0] < 0.05
