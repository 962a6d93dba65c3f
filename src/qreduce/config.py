"""Scenario configuration: JSON parsing, validation, presets."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .trajectory import whole_steps

SCENARIO_KINDS = (
    "explicit-matrices",
    "distinguishable-particles",
    "identical-particles",
    "mass-density",
)
ENGINES = ("hitting", "continuous", "both")
SCHEDULES = ("poisson", "evenly-spaced")

# numpy's Poisson sampler rejects a mean above about 9.22e18 (and an
# evenly spaced count must fit an int64): no hit count beyond this is drawn
MAX_EXPECTED_HITS = 9.2e18

# The most bytes that a run's records, hit arrays, noise block and L x L
# matrices, or a lattice's smearing kernel, may be estimated to take.
# ``run`` and ``sweep`` refuse a larger config before they allocate it or
# create the output directory.
PREFLIGHT_BYTES = 1 << 30

PRESET_NAMES = (
    "qubit-equal",
    "three-level-weighted",
    "boson-2site",
    "two-species-mass",
)


def matrix_from_json(obj, key: str = "matrix") -> np.ndarray:
    """Parse the textual matrix format: dim plus row-major re/im arrays."""
    if not isinstance(obj, dict):
        raise ConfigError(key, f"{key} must be an object with dim/re/im")
    try:
        dim = checked_int(key, obj["dim"], name=f"{key} dim")
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros(dim * dim)), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(key, f"{key} is malformed: {exc}") from None
    if re.size != dim * dim or im.size != dim * dim:
        raise ConfigError(key, f"{key} re/im must hold dim*dim = {dim * dim} entries")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ConfigError(key, f"{key} entries must be finite")
    return (re + 1j * im).reshape(dim, dim)


def matrix_to_json(matrix: np.ndarray) -> dict:
    m = np.asarray(matrix, dtype=complex)
    return {
        "dim": m.shape[0],
        "re": m.real.ravel().tolist(),
        "im": m.imag.ravel().tolist(),
    }


_PAULIS = {
    "sigma_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "sigma_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "sigma_z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def hamiltonian_matrix_from_spec(spec, key: str = "hamiltonian") -> np.ndarray | None:
    """None, an explicit matrix object, or a named preset with a scale."""
    if spec is None:
        return None
    if isinstance(spec, dict) and "name" in spec:
        name = spec["name"]
        if name not in _PAULIS:
            raise ConfigError(
                key, f"{key} name must be one of {sorted(_PAULIS)}, got {name!r}"
            )
        try:
            scale = float(spec.get("scale", 1.0))
        except (TypeError, ValueError):
            raise ConfigError(key, f"{key} scale must be a number") from None
        if not math.isfinite(scale):
            raise ConfigError(key, f"{key} scale must be finite, got {scale}")
        return scale * _PAULIS[name]
    return matrix_from_json(spec, key)


def check_expected_hits(key: str, rate: float, t_end: float) -> None:
    """ConfigError naming ``key`` if ``rate`` hits over (0, t_end] cannot be drawn."""
    if rate * t_end > MAX_EXPECTED_HITS:
        raise ConfigError(
            key,
            f"{key} = {rate:g} over t_end = {t_end:g} expects {rate * t_end:.3g} hits "
            f"per trajectory; at most {MAX_EXPECTED_HITS:.3g} can be drawn",
        )


def checked_int(key: str, value, minimum: int | None = None, *, name: str | None = None) -> int:
    """``value`` as an integer of at least ``minimum``, else ``ConfigError(key)``.

    The one rule of every integer key: a boolean, or a number with a
    fractional part, is refused rather than truncated. ``name`` is what
    the message calls the value, ``key`` unless given.
    """
    name = name or key
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(key, f"{name} must be an integer") from None
    if isinstance(value, bool) or (isinstance(value, float) and number != value):
        raise ConfigError(key, f"{name} must be an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(key, f"{name} must be >= {minimum}, got {number}")
    return number


def _positive(raw: dict, key: str, *, required: bool) -> float | None:
    if key not in raw or raw[key] is None:
        if required:
            raise ConfigError(key, f"{key} is required for this scenario")
        return None
    try:
        value = float(raw[key])
    except (TypeError, ValueError):
        raise ConfigError(key, f"{key} must be a number") from None
    if not math.isfinite(value):
        raise ConfigError(key, f"{key} must be finite, got {value}")
    if not value > 0:
        raise ConfigError(key, f"{key} must be > 0")
    return value


@dataclass
class ScenarioConfig:
    """Validated run configuration.

    With engine ``both`` and beta, mu given, gamma is forced to
    beta * mu / 2 unless explicitly overridden (which warns): the two
    engines are then parent and limit of each other.
    """

    scenario: str
    engine: str
    t_end: float
    record_interval: float
    n_trajectories: int
    seed: int
    beta: float | None = None
    mu: float | None = None
    gamma: float | None = None
    dt: float | None = None
    schedule: str = "poisson"
    hamiltonian: object = None
    output_dir: str | None = None
    payload: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config", "configuration must be a JSON object")
        scenario = raw.get("scenario")
        if scenario not in SCENARIO_KINDS:
            raise ConfigError(
                "scenario", f"scenario must be one of {SCENARIO_KINDS}, got {scenario!r}"
            )
        engine = raw.get("engine")
        if engine not in ENGINES:
            raise ConfigError("engine", f"engine must be one of {ENGINES}, got {engine!r}")
        schedule = raw.get("schedule", "poisson")
        if schedule not in SCHEDULES:
            raise ConfigError(
                "schedule", f"schedule must be one of {SCHEDULES}, got {schedule!r}"
            )

        t_end = _positive(raw, "t_end", required=True)
        record_interval = _positive(raw, "record_interval", required=True)
        if record_interval > t_end:
            raise ConfigError(
                "record_interval", "record_interval must not exceed t_end"
            )
        n_trajectories = checked_int("n_trajectories", raw.get("n_trajectories", 1), 1)
        seed = checked_int("seed", raw.get("seed", 0), 0)

        # a distinguishable-particle model carries its rates and accuracy
        # per particle, so top-level strengths would mean nothing
        per_particle = scenario == "distinguishable-particles"
        for key in ("beta", "mu", "gamma"):
            if per_particle and key in raw:
                raise ConfigError(
                    key, f"{key} has no meaning for {scenario}: set particles[].rate and alpha"
                )
        needs_hitting = engine in ("hitting", "both") and not per_particle
        beta = _positive(raw, "beta", required=needs_hitting)
        mu = _positive(raw, "mu", required=needs_hitting)
        gamma = _positive(raw, "gamma", required=False)
        dt = _positive(raw, "dt", required=False)

        if engine in ("continuous", "both") and not per_particle:
            derived = beta * mu / 2.0 if (beta is not None and mu is not None) else None
            if gamma is None:
                if derived is None:
                    raise ConfigError(
                        "gamma", "gamma is required (or derivable from beta and mu)"
                    )
                gamma = derived
                if not math.isfinite(gamma):
                    raise ConfigError("gamma", f"gamma = beta * mu / 2 must be finite, got {gamma}")
            elif derived is not None and abs(gamma - derived) > 1e-9 * max(derived, 1.0):
                warnings.warn(
                    f"gamma={gamma} overrides beta*mu/2={derived}; the engines "
                    "are no longer an equivalent pair",
                    stacklevel=2,
                )
        if dt is not None and engine in ("continuous", "both"):
            # ContinuousConfig's own test: whole steps per record interval
            if dt > record_interval or whole_steps(record_interval, dt) is None:
                raise ConfigError(
                    "dt", f"dt = {dt:g} must divide record_interval = "
                    f"{record_interval:g} into whole steps"
                )
        if needs_hitting:
            check_expected_hits("mu", mu, t_end)

        known = {
            "scenario", "engine", "schedule", "t_end", "record_interval",
            "n_trajectories", "seed", "beta", "mu", "gamma", "dt",
            "hamiltonian", "output_dir",
        }
        payload = {k: v for k, v in raw.items() if k not in known}
        return cls(
            scenario=scenario,
            engine=engine,
            t_end=t_end,
            record_interval=record_interval,
            n_trajectories=n_trajectories,
            seed=seed,
            beta=beta,
            mu=mu,
            gamma=gamma,
            dt=dt,
            schedule=schedule,
            hamiltonian=raw.get("hamiltonian"),
            output_dir=raw.get("output_dir"),
            payload=payload,
        )


def load_preset(name: str) -> dict:
    if name not in PRESET_NAMES:
        raise ConfigError("config", f"unknown preset {name!r}; have {PRESET_NAMES}")
    text = resources.files("qreduce").joinpath(f"presets/{name}.json").read_text()
    return json.loads(text)


def load_config(path_or_preset: str) -> ScenarioConfig:
    """Load a config file; bare preset names resolve to shipped presets."""
    path = Path(path_or_preset)
    if path.exists():
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"config is not valid JSON: {exc}") from None
    else:
        raw = load_preset(path_or_preset)
    return ScenarioConfig.from_dict(raw)
