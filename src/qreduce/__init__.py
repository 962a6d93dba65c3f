"""Stochastic state-vector reduction in finite Hilbert spaces.

Two physically equivalent formulations: a discontinuous process of
Gaussian sharpening hits and its infinite-frequency limit, a continuous
diffusion, related by beta * mu = 2 * gamma. The equivalence module
holds the deterministic oracles and statistical harnesses that verify
the limit numerically.

The public names below are imported from their submodule on first
access (PEP 562), so ``import qreduce.config`` loads only what the
config module itself imports.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports here
_EXPORTS = {
    "errors": (
        "ConfigError",
        "DimensionMismatchError",
        "NonCommutingError",
        "NonHermitianError",
        "NonRealExpectationError",
        "QReduceError",
        "StepRejectedError",
        "VanishingNormError",
    ),
    "hilbert": (
        "Hamiltonian",
        "QuantitySet",
        "StateVector",
        "validate_quantity_set",
    ),
    "trajectory": ("Ensemble",),
    "hitting": (
        "HitStream",
        "Schedule",
        "apply_hitting",
        "hitting_density",
        "sample_hitting_centre",
        "schedule_hittings",
        "sharpening_operator",
    ),
    "continuous": (
        "ContinuousConfig",
        "sde_step",
        "strength_from_hitting",
        "suggested_dt",
    ),
    "equivalence": (
        "DensityMatrix",
        "EnsembleStats",
        "collapse_statistics",
        "convergence_sweep",
        "ensemble_density_matrix",
        "ensemble_stats",
        "exact_hitting_map",
        "factorization_check",
        "hitting_master_evolution",
        "lindblad_evolution",
        "trace_norm_distance",
        "wilson_interval",
    ),
    "fock": (
        "FockLattice",
        "Species",
        "build_fock_lattice",
        "build_mass_density",
        "build_number_density",
        "smearing_kernel",
    ),
    "ensemble": (
        "derive_seed",
        "run_continuous_ensemble",
        "run_hitting_ensemble",
    ),
    "config": ("ScenarioConfig", "load_config", "load_preset"),
    "scenarios": ("BuiltScenario", "build_scenario"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
