"""Build engine-ready objects from a validated configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .config import (
    PREFLIGHT_BYTES,
    ScenarioConfig,
    check_expected_hits,
    checked_int,
    hamiltonian_matrix_from_spec,
    matrix_from_json,
)
from .continuous import ContinuousConfig, snapped_dt
from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonCommutingError,
    NonHermitianError,
)
from .fock import DIMENSION_CAP, Species, build_fock_lattice
from .hilbert import Hamiltonian, QuantitySet, StateVector, validate_quantity_set
from .hitting import HitStream, Schedule


@dataclass
class BuiltScenario:
    """Everything the runners need for one scenario.

    ``streams`` is the hitting process, a list of :class:`HitStream`:
    one stream over every quantity for the explicit and lattice kinds,
    one per particle for ``distinguishable-particles``. It is empty only
    for a config without beta and mu, which runs the continuous engine
    alone. ``gamma`` (scalar or per quantity) is the continuous strength,
    or None for a hitting-only config.
    """

    config: ScenarioConfig
    psi0: StateVector
    quantities: QuantitySet
    hamiltonian: Hamiltonian | None
    streams: list[HitStream]
    gamma: float | np.ndarray | None

    def continuous_config(self) -> ContinuousConfig:
        if self.gamma is None:
            raise ConfigError("gamma", "scenario has no continuous strength")
        dt = self.config.dt
        if dt is None:
            dt = snapped_dt(self.quantities, self.gamma, self.config.record_interval)
        g = self.gamma
        return ContinuousConfig(
            gamma=tuple(np.atleast_1d(g).tolist()) if np.ndim(g) else float(g),
            dt=dt,
            t_end=self.config.t_end,
            record_interval=self.config.record_interval,
        )


def _state_from_amplitude_spec(spec, dim: int) -> StateVector:
    if not isinstance(spec, dict) or "re" not in spec:
        raise ConfigError("initial_state", "initial_state must carry re (and im) arrays")
    re = np.asarray(spec["re"], dtype=float)
    im = np.asarray(spec.get("im", np.zeros_like(re)), dtype=float)
    if re.size != dim or im.size != dim:
        raise ConfigError("initial_state", f"initial_state must have {dim} amplitudes")
    return _normalized(re + 1j * im)


def _normalized(amplitudes) -> StateVector:
    try:
        return StateVector(amplitudes, normalize=True)
    except ValueError as exc:
        raise ConfigError("initial_state", str(exc)) from None


def _one_stream(config: ScenarioConfig, quantities: QuantitySet, beta) -> list[HitStream]:
    """The stream that hits every quantity, or none without beta and mu."""
    if beta is None or config.mu is None:
        return []
    columns = tuple(range(quantities.num_quantities))
    return [HitStream(columns, beta, config.mu, Schedule(config.schedule))]


def _hamiltonian(config: ScenarioConfig, dim: int) -> Hamiltonian | None:
    """The config's Hamiltonian on a ``dim``-dimensional space, or None."""
    h_matrix = hamiltonian_matrix_from_spec(config.hamiltonian)
    if h_matrix is None:
        return None
    try:
        hamiltonian = Hamiltonian(h_matrix)
    except NonHermitianError as exc:
        raise ConfigError("hamiltonian", str(exc)) from None
    if hamiltonian.dim != dim:
        raise ConfigError(
            "hamiltonian", f"hamiltonian dimension {hamiltonian.dim} does not match "
            f"the Hilbert dimension {dim}"
        )
    return hamiltonian


def _build_explicit(config: ScenarioConfig) -> BuiltScenario:
    ops_spec = config.payload.get("operators")
    if not ops_spec:
        raise ConfigError("operators", "operators are required for explicit-matrices")
    operators = [matrix_from_json(m, f"operators[{i}]") for i, m in enumerate(ops_spec)]
    try:
        quantities = validate_quantity_set(operators)
    except (NonHermitianError, NonCommutingError, DimensionMismatchError) as exc:
        raise ConfigError("operators", str(exc)) from None
    psi0 = _state_from_amplitude_spec(config.payload.get("initial_state"), quantities.dim)
    return BuiltScenario(
        config=config,
        psi0=psi0,
        quantities=quantities,
        hamiltonian=_hamiltonian(config, quantities.dim),
        streams=_one_stream(config, quantities, config.beta),
        gamma=config.gamma,
    )


def _lattice_from_payload(config: ScenarioConfig) -> tuple:
    payload = config.payload
    sites = checked_int("sites", payload.get("sites"), 2)
    try:
        dx = float(payload["dx"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError("dx", "dx must be a number") from None
    if not (math.isfinite(dx) and dx > 0):
        raise ConfigError("dx", "dx must be finite and > 0")
    try:
        alpha = float(payload["alpha"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError("alpha", "alpha must be a number") from None
    if not (math.isfinite(alpha) and alpha > 0):
        raise ConfigError("alpha", "alpha must be finite and > 0")
    return sites, dx, alpha


def _build_lattice_scenario(config: ScenarioConfig, use_mass: bool) -> BuiltScenario:
    """Smeared number or mass densities on a Fock lattice, with per-site strengths.

    The spatially white noise field discretizes to independent per-site
    increments of variance dt/dx. The smeared operators are cell counts
    (one factor of dx relative to densities), so after rewriting with
    unit-variance increments the per-site accuracy and strength are
    beta/dx and gamma/dx; the induced decoherence rates are then Riemann
    sums, invariant under grid refinement. gamma is the config's own
    (beta * mu / 2 when derived), so a hitting-only config has none.
    """
    if config.hamiltonian is not None:
        raise ConfigError(
            "hamiltonian", "lattice scenarios run the pure reduction process"
        )
    sites, dx, alpha = _lattice_from_payload(config)
    # refused before the lattice or its dense sites x sites kernel of floats is built
    if 8 * sites**2 > PREFLIGHT_BYTES:
        raise ConfigError(
            "sites", f"the smearing kernel of {sites} sites would take 8 x {sites}^2 B; "
            f"at most {PREFLIGHT_BYTES / 2**30:g} GiB is allowed"
        )
    species_spec = config.payload.get("species")
    if not species_spec:
        raise ConfigError("species", "species list is required for lattice scenarios")
    if not use_mass and len(species_spec) != 1:
        raise ConfigError(
            "species", "number-density sharpening applies to a single species; "
            "use the mass density for several kinds"
        )
    species = []
    for i, sp in enumerate(species_spec):
        try:
            cap = sp.get("max_occupation")
            if cap is not None:
                cap = checked_int("species", cap, name=f"species[{i}].max_occupation")
            species.append(
                Species(
                    name=str(sp.get("name", f"species{i}")),
                    mass=float(sp.get("mass", 1.0)),
                    statistics=str(sp.get("statistics", "boson")),
                    count=checked_int("species", sp["count"], name=f"species[{i}].count"),
                    max_occupation=cap,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("species", f"species[{i}] is malformed: {exc}") from None
    try:
        lattice = build_fock_lattice(sites, dx, species)
    except ValueError as exc:
        raise ConfigError("species", str(exc)) from None
    if lattice.dim < 2:
        raise ConfigError(
            "species", f"the species fill the lattice in {lattice.dim} way; "
            "reduction needs at least 2 basis states"
        )

    entries_spec = config.payload.get("initial_state")
    if not entries_spec:
        raise ConfigError("initial_state", "initial_state entries are required")
    entries = []
    for i, entry in enumerate(entries_spec):
        try:
            occ = np.asarray(entry["occupations"], dtype=object)
            occ = np.array(
                [checked_int("initial_state", n, name=f"initial_state[{i}].occupations")
                 for n in occ.reshape(-1)], dtype=int,
            ).reshape(occ.shape)
            amp = complex(float(entry["re"]), float(entry.get("im", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                "initial_state", f"initial_state[{i}] is malformed: {exc}"
            ) from None
        entries.append((occ, amp))
    try:
        psi0 = lattice.state_from_amplitudes(entries)
    except (DimensionMismatchError, KeyError, ValueError) as exc:
        raise ConfigError("initial_state", str(exc)) from None

    # through the module, so that a wrapper on fock's attribute sees the call
    if use_mass:
        table = fock.build_mass_density(lattice, alpha)
    else:
        table = fock.build_number_density(lattice, 0, alpha)
    quantities = QuantitySet(table)
    beta = None if config.beta is None else config.beta / dx
    return BuiltScenario(
        config=config,
        psi0=psi0,
        quantities=quantities,
        hamiltonian=None,
        streams=_one_stream(config, quantities, beta),
        gamma=None if config.gamma is None else config.gamma / dx,
    )


def _build_distinguishable(config: ScenarioConfig) -> BuiltScenario:
    sites, dx, alpha = _lattice_from_payload(config)
    particles = config.payload.get("particles")
    if not particles:
        raise ConfigError("particles", "particles list is required")
    rates = []
    for i, p in enumerate(particles):
        try:
            rate = float(p["rate"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError("particles", f"particles[{i}].rate must be a number") from None
        if not (math.isfinite(rate) and rate > 0):
            raise ConfigError("particles", f"particles[{i}].rate must be finite and > 0")
        if config.engine != "continuous":
            check_expected_hits("particles", rate, config.t_end)
        if config.engine != "hitting" and not math.isfinite(alpha * rate / 2.0):
            raise ConfigError(
                "particles", f"particles[{i}]: gamma = alpha * rate / 2 must be finite"
            )
        rates.append(rate)
    n_particles = len(rates)
    dim = sites**n_particles
    if dim > DIMENSION_CAP:
        raise ConfigError(
            "particles", f"Hilbert dimension {dim} exceeds the cap {DIMENSION_CAP}"
        )

    # basis index i holds particle l at base-`sites` digit l of i, most
    # significant first; quantity l is that particle's position
    positions = (np.arange(sites) + 0.5) * dx
    place = sites ** np.arange(n_particles - 1, -1, -1)
    digits = (np.arange(dim)[:, np.newaxis] // place[np.newaxis, :]) % sites
    quantities = QuantitySet(positions[digits])

    entries = config.payload.get("initial_state")
    if not entries:
        raise ConfigError("initial_state", "initial_state entries are required")
    amps = np.zeros(dim, dtype=complex)
    for i, entry in enumerate(entries):
        try:
            where = [checked_int("initial_state", s, name=f"initial_state[{i}].sites")
                     for s in entry["sites"]]
            amp = complex(float(entry["re"]), float(entry.get("im", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                "initial_state", f"initial_state[{i}] is malformed: {exc}"
            ) from None
        if len(where) != n_particles or any(not 0 <= s < sites for s in where):
            raise ConfigError(
                "initial_state", f"initial_state[{i}].sites must hold {n_particles} "
                f"site indices below {sites}"
            )
        index = 0
        for s in where:
            index = index * sites + s
        amps[index] += amp
    psi0 = _normalized(amps)

    # one stream per particle: localization frequency rate_l, accuracy alpha
    schedule = Schedule(config.schedule)
    streams = [HitStream((l,), alpha, rate, schedule) for l, rate in enumerate(rates)]
    # per-particle strengths alpha * rate / 2; a hitting-only run has none
    gamma = None
    if config.engine != "hitting":
        gamma = np.array([alpha * rate / 2.0 for rate in rates])
    return BuiltScenario(
        config=config,
        psi0=psi0,
        quantities=quantities,
        hamiltonian=_hamiltonian(config, dim),
        streams=streams,
        gamma=gamma,
    )


def build_scenario(config: ScenarioConfig) -> BuiltScenario:
    if config.scenario == "explicit-matrices":
        return _build_explicit(config)
    if config.scenario == "identical-particles":
        return _build_lattice_scenario(config, use_mass=False)
    if config.scenario == "mass-density":
        return _build_lattice_scenario(config, use_mass=True)
    if config.scenario == "distinguishable-particles":
        return _build_distinguishable(config)
    raise ConfigError("scenario", f"unhandled scenario kind {config.scenario!r}")
