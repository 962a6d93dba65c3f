"""Stochastic state-vector reduction in finite Hilbert spaces.

Two physically equivalent formulations: a discontinuous process of
Gaussian sharpening hits and its infinite-frequency limit, a continuous
diffusion, related by beta * mu = 2 * gamma. The equivalence module
holds the deterministic oracles and statistical harnesses that verify
the limit numerically.
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    InsufficientEventsError,
    MissingSnapshotError,
    NonCommutingError,
    NonHermitianError,
    NonRealExpectationError,
    QReduceError,
    StepRejectedError,
    VanishingNormError,
)
from .hilbert import (
    Hamiltonian,
    QuantitySet,
    StateVector,
    born_weights,
    expectation,
    quantum_covariance,
    validate_quantity_set,
)
from .trajectory import Ensemble
from .hitting import (
    HitStream,
    Schedule,
    apply_hitting,
    hitting_density,
    sample_hitting_centre,
    schedule_hittings,
    sharpening_operator,
)
from .continuous import (
    ContinuousConfig,
    sde_step,
    strength_from_hitting,
    suggested_dt,
)
from .equivalence import (
    DensityMatrix,
    EnsembleStats,
    collapse_statistics,
    convergence_sweep,
    db_statistics,
    ensemble_density_matrix,
    ensemble_stats,
    exact_hitting_map,
    factorization_check,
    hitting_master_evolution,
    lindblad_evolution,
    sample_factorized_db_windows,
    trace_norm_distance,
    wilson_interval,
)
from .fock import (
    FockLattice,
    Species,
    build_fock_lattice,
    build_mass_density,
    build_number_density,
    scenario_identical_particles,
    smearing_kernel,
)
from .ensemble import (
    derive_seed,
    run_continuous_ensemble,
    run_hitting_ensemble,
)
from .config import ScenarioConfig, load_config, load_preset
from .scenarios import BuiltScenario, build_scenario

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DimensionMismatchError",
    "InsufficientEventsError",
    "MissingSnapshotError",
    "NonCommutingError",
    "NonHermitianError",
    "NonRealExpectationError",
    "QReduceError",
    "StepRejectedError",
    "VanishingNormError",
    "Hamiltonian",
    "QuantitySet",
    "StateVector",
    "born_weights",
    "expectation",
    "quantum_covariance",
    "validate_quantity_set",
    "Ensemble",
    "HitStream",
    "Schedule",
    "apply_hitting",
    "hitting_density",
    "sample_hitting_centre",
    "schedule_hittings",
    "sharpening_operator",
    "ContinuousConfig",
    "sde_step",
    "strength_from_hitting",
    "suggested_dt",
    "DensityMatrix",
    "EnsembleStats",
    "collapse_statistics",
    "convergence_sweep",
    "db_statistics",
    "ensemble_density_matrix",
    "ensemble_stats",
    "exact_hitting_map",
    "factorization_check",
    "hitting_master_evolution",
    "lindblad_evolution",
    "sample_factorized_db_windows",
    "trace_norm_distance",
    "wilson_interval",
    "FockLattice",
    "Species",
    "build_fock_lattice",
    "build_mass_density",
    "build_number_density",
    "scenario_identical_particles",
    "smearing_kernel",
    "derive_seed",
    "run_continuous_ensemble",
    "run_hitting_ensemble",
    "ScenarioConfig",
    "load_config",
    "load_preset",
    "BuiltScenario",
    "build_scenario",
]
