import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import jsonschema
from conftest import SQ2, full_weights, traced_peak

import qreduce
from qreduce import cli, trajectory
from qreduce.cli import _first_hit_moments, _write_events_csv, _write_trajectories_csv, main
from qreduce.continuous import ContinuousConfig
from qreduce.hitting import HitStream, simulate_hitting_batch
from qreduce.config import (
    ScenarioConfig,
    load_config,
    load_preset,
    matrix_from_json,
    matrix_to_json,
)
from qreduce.errors import ConfigError
from qreduce.fock import Species, build_fock_lattice
from qreduce.hilbert import QuantitySet
from qreduce.ensemble import CHUNK_SIZE, run_hitting_ensemble
from qreduce.equivalence import (
    DensityMatrix,
    OutcomeStat,
    collapse_statistics,
    ensemble_density_matrix,
    group_eigenvalue_rows,
    hitting_master_evolution,
    lindblad_evolution,
    trace_norm_distance,
    wilson_interval,
)
from qreduce.scenarios import BuiltScenario, build_scenario
from qreduce.trajectory import Ensemble, live_block


def _child_env() -> dict:
    """The environment of a child Python that imports this qreduce."""
    src = str(Path(qreduce.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}


def minimal_qubit_config(**overrides) -> dict:
    raw = {
        "scenario": "explicit-matrices",
        "engine": "both",
        "beta": 0.5,
        "mu": 8.0,
        "dt": 0.005,
        "t_end": 2.0,
        "record_interval": 0.5,
        "n_trajectories": 40,
        "seed": 5,
        "operators": [{"dim": 2, "re": [1, 0, 0, -1], "im": [0, 0, 0, 0]}],
        "initial_state": {"re": [0.7071067811865476, 0.7071067811865476]},
    }
    raw.update(overrides)
    return raw


def _block(built):
    """The live block that ``qreduce run`` cuts for ``built``."""
    return live_block(built.psi0, built.quantities, built.hamiltonian)


def _cap_address_space():
    # should a child ever try to allocate what its config asks for, it
    # fails by MemoryError rather than by the host's OOM killer
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _assert_refused_before_any_output(tmp_path, raw: dict, command: list, key: str):
    """``qreduce <command>`` of ``raw``, in a child with a 2 GiB address space,
    exits 1 within 2 s naming ``key``, with no traceback and no output."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out_dir = tmp_path / "out"
    argv = [command[0], str(cfg_path), *command[1:], "--out", str(out_dir)]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "qreduce.cli", *argv],
        capture_output=True, text=True, timeout=60, env=_child_env(),
        preexec_fn=_cap_address_space,
    )
    assert time.perf_counter() - start < 2.0
    assert done.returncode == 1
    assert f"config error [{key}]" in done.stderr and "Traceback" not in done.stderr
    assert not out_dir.exists()


def _assert_refused_in_process(tmp_path, raw: dict, command: list, key: str):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out_dir = tmp_path / "out"
    args = cli.build_parser().parse_args(
        [command[0], str(cfg_path), *command[1:], "--out", str(out_dir)]
    )
    with pytest.raises(ConfigError) as err:
        args.func(args)
    assert err.value.key == key
    assert not out_dir.exists()


# 12 sites and 5 bosons: d = 4368, with psi0 on two Fock states
_D4368 = {
    "scenario": "identical-particles", "engine": "both", "beta": 0.5, "mu": 4.0,
    "dt": 0.0008, "t_end": 0.24, "record_interval": 0.12, "n_trajectories": 4, "seed": 1,
    "sites": 12, "dx": 1.0, "alpha": 2.0,
    "species": [{"name": "boson", "mass": 1.0, "statistics": "boson", "count": 5}],
    "initial_state": [
        {"occupations": [[3, 2] + [0] * 10], "re": 0.7071067811865476},
        {"occupations": [[0] * 10 + [2, 3]], "re": 0.7071067811865476},
    ],
}


def _explicit_d40(**overrides) -> dict:
    """An explicit 40-level config with psi0 on 2 coordinates."""
    raw = minimal_qubit_config(
        mu=4.0, dt=0.01, t_end=1.0, n_trajectories=2,
        operators=[matrix_to_json(np.diag(np.linspace(0.0, 1.0, 40)))],
        initial_state={"re": [1.0, 1.0] + [0.0] * 38},
    )
    return {**raw, **overrides}


class TestMatrixFormat:
    def test_round_trip(self):
        m = np.array([[1.0, 2j], [-2j, 3.0]])
        again = matrix_from_json(matrix_to_json(m))
        assert np.allclose(m, again)

    def test_size_mismatch_names_key(self):
        with pytest.raises(ConfigError) as err:
            matrix_from_json({"dim": 2, "re": [1, 0, 0], "im": [0, 0, 0]}, "operators[0]")
        assert err.value.key == "operators[0]"


class TestScenarioConfig:
    def test_negative_beta_names_key(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(minimal_qubit_config(beta=-1.0))
        assert err.value.key == "beta"
        assert "beta must be > 0" in str(err.value)

    def test_missing_mu_for_hitting(self):
        raw = minimal_qubit_config(engine="hitting")
        del raw["mu"]
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.key == "mu"

    def test_gamma_derived_for_both(self):
        cfg = ScenarioConfig.from_dict(minimal_qubit_config())
        assert cfg.gamma == pytest.approx(0.5 * 8.0 / 2.0)

    def test_gamma_override_warns(self):
        with pytest.warns(UserWarning):
            cfg = ScenarioConfig.from_dict(minimal_qubit_config(gamma=9.0))
        assert cfg.gamma == 9.0

    def test_record_interval_bound(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(minimal_qubit_config(record_interval=3.0))
        assert err.value.key == "record_interval"

    def test_store_states_key_is_only_payload(self):
        # states are stored exactly when engine is both; an old key is kept unread
        cfg = ScenarioConfig.from_dict(minimal_qubit_config(store_states=True))
        assert cfg.payload["store_states"] is True
        assert not hasattr(cfg, "store_states")

    def test_unknown_engine(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(minimal_qubit_config(engine="warp"))
        assert err.value.key == "engine"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("key", ["beta", "mu", "gamma", "dt", "t_end", "record_interval"])
    def test_non_finite_parameter_names_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(minimal_qubit_config(**{key: value}))
        assert err.value.key == key
        assert "finite" in str(err.value) or "must be > 0" in str(err.value)

    @pytest.mark.parametrize("engine", ["continuous", "both"])
    def test_overflowing_derived_gamma_names_key(self, engine):
        raw = minimal_qubit_config(engine=engine, beta=1e308, mu=1e308)
        with pytest.raises(ConfigError, match="finite") as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.key == "gamma"

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["gamma", "dt", "t_end", "record_interval"])
    def test_continuous_config_rejects_non_finite(self, name, value):
        args = {"gamma": 1.0, "dt": 0.01, "t_end": 1.0, "record_interval": 0.5, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ContinuousConfig(**args)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["beta", "mu", "t_end", "record_interval"])
    def test_hitting_config_rejects_non_finite(self, name, value, sigma_z_set, equal_qubit):
        # a stream's beta and mu, and the window the process runs over
        args = {"beta": 1.0, "mu": 2.0, "t_end": 1.0, "record_interval": 0.5, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            stream = HitStream((0,), args["beta"], args["mu"])
            simulate_hitting_batch(
                live_block(equal_qubit, sigma_z_set, None), [stream], args["t_end"],
                args["record_interval"], [0],
            )

    def test_continuous_config_rejects_a_non_finite_gamma_entry(self):
        with pytest.raises(ValueError, match="gamma must be finite"):
            ContinuousConfig(gamma=(1.0, math.inf), dt=0.01, t_end=1.0, record_interval=0.5)


class TestPresets:
    @pytest.mark.parametrize(
        "name", ["qubit-equal", "three-level-weighted", "boson-2site", "two-species-mass"]
    )
    def test_presets_build(self, name):
        cfg = ScenarioConfig.from_dict(load_preset(name))
        built = build_scenario(cfg)
        assert built.psi0.dim == built.quantities.dim
        # one stream over every quantity, at the config's (lattice-scaled) beta and mu
        columns = tuple(range(built.quantities.num_quantities))
        assert [(s.quantity_indices, s.mu) for s in built.streams] == [(columns, cfg.mu)]
        built.continuous_config()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_preset("no-such-preset")


class TestScenarioBuilders:
    def test_distinguishable_two_particles(self):
        raw = {
            "scenario": "distinguishable-particles",
            "engine": "hitting",
            "t_end": 1.0,
            "record_interval": 0.5,
            "n_trajectories": 4,
            "seed": 1,
            "sites": 3,
            "dx": 1.0,
            "alpha": 2.0,
            "particles": [{"rate": 4.0}, {"rate": 1.0}],
            "initial_state": [
                {"sites": [0, 2], "re": 0.7071067811865476},
                {"sites": [2, 0], "re": 0.7071067811865476},
            ],
        }
        built = build_scenario(ScenarioConfig.from_dict(raw))
        assert built.quantities.dim == 9
        assert built.quantities.num_quantities == 2
        assert len(built.streams) == 2
        assert built.streams[0].beta == 2.0  # localization accuracy alpha
        assert built.streams[0].mu == 4.0
        # a hitting-only run has no continuous strength; with the diffusion,
        # the per-particle strengths are alpha * rate / 2
        assert built.gamma is None
        both = build_scenario(ScenarioConfig.from_dict({**raw, "engine": "both"}))
        assert np.allclose(both.gamma, [4.0, 1.0])
        # quantity l is the position operator of particle l: kron factors
        # of diag(positions) at slot l and identities elsewhere
        x = np.diag((np.arange(3) + 0.5) * 1.0)
        ops = [np.kron(x, np.eye(3)), np.kron(np.eye(3), x)]
        assert built.quantities.joint_basis is None  # the identity
        for l, op in enumerate(ops):
            assert np.array_equal(built.quantities.eigenvalue_table[:, l], np.diagonal(op))

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("key", ["dx", "alpha", "rate"])
    def test_non_finite_lattice_parameter_names_key(self, key, value):
        raw = {
            "scenario": "distinguishable-particles", "engine": "hitting",
            "t_end": 1.0, "record_interval": 0.5, "sites": 3, "dx": 1.0,
            "alpha": 2.0, "particles": [{"rate": 4.0}],
            "initial_state": [{"sites": [0], "re": 1.0}],
        }
        if key == "rate":
            raw["particles"] = [{"rate": 4.0}, {"rate": value}]
        else:
            raw[key] = value
        with pytest.raises(ConfigError, match="finite") as err:
            build_scenario(ScenarioConfig.from_dict(raw))
        assert err.value.key == ("particles" if key == "rate" else key)

    def test_d4368_lattice_builds_in_bounded_memory(self):
        from qreduce.continuous import suggested_dt

        raw = {
            "scenario": "identical-particles",
            "engine": "continuous",
            "gamma": 1.0,
            "t_end": 0.1,
            "record_interval": 0.05,
            "n_trajectories": 2,
            "seed": 1,
            "sites": 12,
            "dx": 1.0,
            "alpha": 2.0,
            "species": [{"name": "b", "count": 5}],
            "initial_state": [
                {"occupations": [[5] + [0] * 11], "re": 1.0},
            ],
        }
        config = ScenarioConfig.from_dict(raw)

        def build():
            built = build_scenario(config)
            return built, suggested_dt(built.quantities, built.gamma)

        (built, dt), peak = traced_peak(build)
        assert built.quantities.dim == 4368
        assert dt > 0
        assert peak < 64 * 2**20

    def test_lattice_rejects_hamiltonian(self):
        raw = json.loads(json.dumps(load_preset("boson-2site")))
        raw["hamiltonian"] = {"name": "sigma_x"}
        with pytest.raises(ConfigError) as err:
            build_scenario(ScenarioConfig.from_dict(raw))
        assert err.value.key == "hamiltonian"

    def test_named_hamiltonian(self):
        raw = minimal_qubit_config(hamiltonian={"name": "sigma_x", "scale": 0.5})
        built = build_scenario(ScenarioConfig.from_dict(raw))
        assert np.allclose(built.hamiltonian.matrix, 0.5 * np.array([[0, 1], [1, 0]]))


@pytest.fixture(scope="module")
def artifact_schema():
    from importlib import resources

    text = resources.files("qreduce").joinpath("schemas/artifacts.schema.json").read_text()
    return json.loads(text)


def distinguishable_config(**overrides) -> dict:
    """Two particles on 3 sites, localized at rates 8 and 2 with accuracy 0.5."""
    raw = {
        "scenario": "distinguishable-particles",
        "engine": "both",
        "dt": 0.01,
        "t_end": 1.0,
        "record_interval": 0.5,
        "n_trajectories": 400,
        "seed": 3,
        "sites": 3,
        "dx": 1.0,
        "alpha": 0.5,
        "particles": [{"rate": 8.0}, {"rate": 2.0}],
        "initial_state": [
            {"sites": [0, 2], "re": 0.7071067811865476},
            {"sites": [2, 0], "re": 0.7071067811865476},
        ],
    }
    raw.update(overrides)
    return raw


def two_site_boson_config(**overrides) -> dict:
    """One boson on two sites, hitting only."""
    raw = {
        "scenario": "identical-particles",
        "engine": "hitting",
        "beta": 0.5,
        "mu": 8.0,
        "t_end": 1.0,
        "record_interval": 0.5,
        "n_trajectories": 4,
        "seed": 5,
        "sites": 2,
        "dx": 1.0,
        "alpha": 2.0,
        "species": [{"name": "b", "count": 1}],
        "initial_state": [{"occupations": [[1, 0]], "re": 1.0}],
    }
    raw.update(overrides)
    return raw


SIGMA_X = {"dim": 2, "re": [0, 1, 1, 0]}
SIGMA_Z = {"dim": 2, "re": [1, 0, 0, -1]}

# a config the CLI must refuse with a ConfigError, and the key it must name
MALFORMED = {
    "non-hermitian-operator": (
        minimal_qubit_config(operators=[{"dim": 2, "re": [1, 1, 0, -1]}]), "operators"
    ),
    "non-commuting-operators": (minimal_qubit_config(operators=[SIGMA_Z, SIGMA_X]), "operators"),
    "non-finite-operator": (
        minimal_qubit_config(operators=[{"dim": 2, "re": [math.nan, 0, 0, -1]}]), "operators[0]"
    ),
    "non-hermitian-hamiltonian": (
        minimal_qubit_config(hamiltonian={"dim": 2, "re": [0, 1, 0, 0]}), "hamiltonian"
    ),
    "infinite-hamiltonian-scale": (
        minimal_qubit_config(hamiltonian={"name": "sigma_x", "scale": math.inf}), "hamiltonian"
    ),
    "zero-initial-state": (minimal_qubit_config(initial_state={"re": [0, 0]}), "initial_state"),
    "one-dimensional-lattice": (
        two_site_boson_config(
            species=[{"name": "f", "statistics": "fermion", "count": 2}],
            initial_state=[{"occupations": [[1, 1]], "re": 1.0}],
        ),
        "species",
    ),
    "occupations-of-wrong-shape": (
        two_site_boson_config(initial_state=[{"occupations": [[1, 0, 0]], "re": 1.0}]),
        "initial_state",
    ),
    "number-density-of-two-species": (
        two_site_boson_config(
            species=[{"name": "a", "count": 1}, {"name": "b", "count": 1}],
            initial_state=[{"occupations": [[1, 0], [1, 0]], "re": 1.0}],
        ),
        "species",
    ),
    "one-site": (two_site_boson_config(sites=1), "sites"),
    "overflowing-particle-strength": (
        distinguishable_config(alpha=1e300, particles=[{"rate": 1e300}],
                               initial_state=[{"sites": [0], "re": 1.0}]),
        "particles",
    ),
    # qubit-equal records every 0.75: dt must divide that into whole steps
    "dt-not-dividing-the-record-interval": ({**load_preset("qubit-equal"), "dt": 0.0007}, "dt"),
    "dt-above-the-record-interval": ({**load_preset("qubit-equal"), "dt": 2.0}, "dt"),
    "dt-of-one-and-a-half-steps": ({**load_preset("qubit-equal"), "dt": 0.5}, "dt"),
    # numpy's SeedSequence takes no negative seed
    "negative-seed": (minimal_qubit_config(seed=-3), "seed"),
    # an integer key takes no boolean and no fractional part: each of these
    # once ran truncated, as seed 1, seed 1, 2 trajectories, 8 sites, 3
    # bosons, a 2 x 2 matrix and site 1
    "fractional-seed": (minimal_qubit_config(seed=1.9), "seed"),
    "boolean-seed": (minimal_qubit_config(seed=True), "seed"),
    "fractional-n-trajectories": (minimal_qubit_config(n_trajectories=2.7), "n_trajectories"),
    "fractional-lattice-sites": (
        two_site_boson_config(sites=8.7, initial_state=[{"occupations": [[1] + [0] * 7],
                                                         "re": 1.0}]),
        "sites",
    ),
    "fractional-species-count": (
        two_site_boson_config(species=[{"name": "b", "count": 3.5}],
                              initial_state=[{"occupations": [[3, 0]], "re": 1.0}]),
        "species",
    ),
    "fractional-matrix-dim": (
        minimal_qubit_config(operators=[{"dim": 2.5, "re": [1, 0, 0, -1]}]), "operators[0]"
    ),
    "fractional-particle-site": (
        distinguishable_config(initial_state=[{"sites": [0, 1.5], "re": 1.0}]), "initial_state"
    ),
    # once ran as the Fock state [[1, 0]]
    "fractional-occupation": (
        two_site_boson_config(initial_state=[{"occupations": [[1.7, 0.2]], "re": 1.0}]),
        "initial_state",
    ),
}


def _run_cli(tmp_path: Path, raw: dict, out: str, extra=()) -> Path:
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    out_dir = tmp_path / out
    rc = main(["run", str(cfg_path), "--out", str(out_dir), *extra])
    assert rc == 0
    return out_dir


class TestCliRun:
    def test_artifacts_written_and_schema_valid(self, tmp_path, artifact_schema):
        out = _run_cli(tmp_path, minimal_qubit_config(), "out")
        for name in ("trajectories.csv", "events.csv", "summary.json", "compare.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        jsonschema.validate(
            summary, {**artifact_schema, "$ref": "#/$defs/summary"}
        )
        compare = json.loads((out / "compare.json").read_text())
        jsonschema.validate(
            compare, {**artifact_schema, "$ref": "#/$defs/compare"}
        )
        header = (out / "trajectories.csv").read_text().splitlines()[0]
        assert header == "engine,trajectory,time,event_flag,w_0,w_1,exp_0"

    def test_invalid_config_exit_code_and_message(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(minimal_qubit_config(beta=-2.0)))
        rc = main(["run", str(cfg_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "beta" in err and "must be > 0" in err

    def test_infinite_gamma_exits_1_before_any_artifact(self, tmp_path, capsys):
        raw = minimal_qubit_config(engine="continuous", gamma=math.inf)
        cfg_path = tmp_path / "inf.json"
        cfg_path.write_text(json.dumps(raw))  # written as the JSON literal Infinity
        assert "Infinity" in cfg_path.read_text()
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error [gamma]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("schedule", ["poisson", "evenly-spaced"])
    def test_huge_finite_mu_exits_1_before_any_draw(self, tmp_path, capsys, schedule):
        # gamma = beta * mu / 2 is a modest 0.5, but no sampler draws 1e300 hits
        raw = minimal_qubit_config(engine="hitting", beta=1e-300, mu=1e300, schedule=schedule)
        cfg_path = tmp_path / "fast.json"
        cfg_path.write_text(json.dumps(raw))
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error [mu]" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()
        # the same mu is harmless when no hits are drawn
        assert ScenarioConfig.from_dict({**raw, "engine": "continuous"}).gamma == 0.5

    def test_distinguishable_rejects_a_rate_no_sampler_can_draw(self):
        raw = distinguishable_config(particles=[{"rate": 8.0}, {"rate": 1e300}])
        with pytest.raises(ConfigError) as info:
            build_scenario(ScenarioConfig.from_dict(raw))
        assert info.value.key == "particles"

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        # a absurdly large dt makes the first diffusive step blow up
        raw = minimal_qubit_config(
            engine="continuous", gamma=500.0, dt=0.5, beta=None, mu=None
        )
        raw = {k: v for k, v in raw.items() if v is not None}
        cfg_path = tmp_path / "hot.json"
        cfg_path.write_text(json.dumps(raw))
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_config_exits_1_naming_its_key(self, tmp_path, capsys, case):
        raw, key = MALFORMED[case]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        out_dir = tmp_path / "o"
        rc = main(["run", str(cfg_path), "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"config error [{key}]" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_hitting_only_config_takes_any_dt(self):
        raw = minimal_qubit_config(engine="hitting", dt=0.0007)
        assert ScenarioConfig.from_dict(raw).dt == 0.0007

    def test_preset_name_resolves_like_a_path(self):
        cfg = load_config("qubit-equal")
        assert cfg.scenario == "explicit-matrices"
        assert cfg.gamma == pytest.approx(1.0)  # beta * mu / 2 of the preset

    def test_bit_identical_reruns_and_worker_counts(self, tmp_path):
        raw = minimal_qubit_config()
        out1 = _run_cli(tmp_path, raw, "a", ("--workers", "1"))
        out2 = _run_cli(tmp_path, raw, "b", ("--workers", "4"))
        out3 = _run_cli(tmp_path, raw, "c", ("--workers", "1"))
        for name in ("trajectories.csv", "events.csv", "summary.json", "compare.json"):
            bytes1 = (out1 / name).read_bytes()
            assert bytes1 == (out2 / name).read_bytes()
            assert bytes1 == (out3 / name).read_bytes()

    def test_worker_counts_bit_identical_across_a_chunk_boundary(self, tmp_path):
        # two workers split 600 trajectories into two chunks of 300 and run
        # a process pool, on a host with at least two CPUs; the pool's
        # workers get the Hamiltonian by pickling it
        h = {"dim": 2, "re": [0.3, 1.0, 1.0, -0.3], "im": [0.0, -0.5, 0.5, 0.0]}
        for label, hamiltonian in (("free", None), ("driven", h)):
            raw = minimal_qubit_config(
                n_trajectories=600, t_end=0.5, record_interval=0.25, hamiltonian=hamiltonian,
            )
            out1 = _run_cli(tmp_path, raw, f"{label}-serial", ("--workers", "1"))
            out2 = _run_cli(tmp_path, raw, f"{label}-pool", ("--workers", "2"))
            for name in ("trajectories.csv", "events.csv", "summary.json", "compare.json"):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_workers_below_one_exit_1_before_any_artifact(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_qubit_config()))
        for workers in ("0", "-3"):
            out_dir = tmp_path / f"workers{workers}"
            rc = main(["run", str(cfg_path), "--workers", workers, "--out", str(out_dir)])
            assert rc == 1
            err = capsys.readouterr().err
            assert "config error [workers]" in err and "Traceback" not in err
            assert not out_dir.exists()

    def test_multistream_run_logs_each_stream_on_its_own_quantity(self, tmp_path):
        raw = {
            "scenario": "distinguishable-particles",
            "engine": "hitting",
            "t_end": 1.0,
            "record_interval": 0.5,
            "n_trajectories": 6,
            "seed": 3,
            "sites": 3,
            "dx": 1.0,
            "alpha": 2.0,
            "particles": [{"rate": 4.0}, {"rate": 1.0}],
            "initial_state": [
                {"sites": [0, 2], "re": 0.7071067811865476},
                {"sites": [2, 0], "re": 0.7071067811865476},
            ],
        }
        out = _run_cli(tmp_path, raw, "multi")
        rows = [r.split(",") for r in (out / "events.csv").read_text().splitlines()[1:]]
        assert rows
        for row in rows:
            assert sorted(field == "nan" for field in row[3:]) == [False, True]

    def test_multistream_engine_both_compares_to_the_oracle(self, tmp_path, artifact_schema):
        out = _run_cli(tmp_path, distinguishable_config(), "both")
        compare = json.loads((out / "compare.json").read_text())
        jsonschema.validate(compare, {**artifact_schema, "$ref": "#/$defs/compare"})
        assert compare["beta"] == [0.5, 0.5] and compare["mu"] == [8.0, 2.0]
        assert compare["gamma"] == [2.0, 0.5]
        rows = zip(compare["mc_trace_distance"], compare["mc_error"],
                   compare["oracle_trace_distance"])
        for mc, err, oracle in rows:
            assert mc <= oracle + 5 * err + 1e-12
        summary = json.loads((out / "summary.json").read_text())
        jsonschema.validate(summary, {**artifact_schema, "$ref": "#/$defs/summary"})
        assert summary["parameters"]["mu"] == [8.0, 2.0]

    @pytest.mark.parametrize(
        "key, engine", [("beta", "hitting"), ("mu", "both"), ("gamma", "continuous")]
    )
    def test_distinguishable_rejects_top_level_strengths(self, tmp_path, capsys, key, engine):
        # the rates and the accuracy are per particle; a top-level one would be ignored
        raw = distinguishable_config(engine=engine, **{key: 99.0})
        with pytest.raises(ConfigError, match=key) as err:
            ScenarioConfig.from_dict(raw)
        assert err.value.key == key
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert f"config error [{key}]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_first_hitting_moments_null_under_a_non_commuting_hamiltonian(self, tmp_path):
        raw = minimal_qubit_config(
            engine="hitting", beta=5.0, mu=2.0, n_trajectories=200,
            initial_state={"re": [1.0, 0.0]}, hamiltonian={"name": "sigma_y", "scale": 2.0},
        )
        summary = json.loads((_run_cli(tmp_path, raw, "y") / "summary.json").read_text())
        assert summary["engines"]["hitting"]["first_hitting_moments"] is None
        # a Hamiltonian diagonal in the joint basis leaves psi0's moments
        raw["hamiltonian"] = {"name": "sigma_z", "scale": 2.0}
        summary = json.loads((_run_cli(tmp_path, raw, "z") / "summary.json").read_text())
        moments = summary["engines"]["hitting"]["first_hitting_moments"]
        assert moments["expected_mean"] == [1.0]
        assert moments["expected_variance"] == [pytest.approx(0.1)]
        # so does A^2 for a rotated A, whose joint-basis matrix is diagonal
        # only up to rounding
        rng = np.random.default_rng(0)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        a = u @ np.diag([1.0, 2.0, 3.0]) @ u.conj().T
        raw.update(
            operators=[matrix_to_json(a)], hamiltonian=matrix_to_json(a @ a),
            initial_state={"re": [1.0, 0.0, 0.0]},
        )
        summary = json.loads((_run_cli(tmp_path, raw, "a2") / "summary.json").read_text())
        assert summary["engines"]["hitting"]["first_hitting_moments"] is not None

    def test_one_trajectory_summary_is_strict_json(self, tmp_path):
        # one first hit on the quantity: no sample variance, so no moments
        raw = minimal_qubit_config(engine="hitting", n_trajectories=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _run_cli(tmp_path, raw, "one")

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["engines"]["hitting"]["events_total"] > 0
        assert summary["engines"]["hitting"]["first_hitting_moments"] is None

    @pytest.mark.parametrize("engine", ["hitting", "continuous"])
    def test_one_trajectory_has_no_martingale_zscore(self, tmp_path, artifact_schema, engine):
        # one row has no standard error, so its weight drift has no z-score;
        # the continuous engine runs at gamma = beta * mu / 2 = 2
        for n, label in ((1, "one"), (2, "two")):
            raw = minimal_qubit_config(engine=engine, n_trajectories=n)
            summary = json.loads((_run_cli(tmp_path, raw, label) / "summary.json").read_text())
            jsonschema.validate(summary, {**artifact_schema, "$ref": "#/$defs/summary"})
            z = summary["engines"][engine]["martingale"]["max_abs_zscore"]
            assert z is None if n == 1 else math.isfinite(z)

    def test_one_trajectory_has_no_bootstrap_error(self, tmp_path, artifact_schema):
        # a bootstrap of one row resamples only that row: its error read
        # about 1e-17 beside a distance of 1.2 and an oracle's of 0.07
        for n, label in ((1, "one"), (2, "two")):
            out = _run_cli(tmp_path, minimal_qubit_config(n_trajectories=n), label)
            compare = json.loads((out / "compare.json").read_text())
            jsonschema.validate(compare, {**artifact_schema, "$ref": "#/$defs/compare"})
            if n == 1:
                assert compare["mc_error"] is None
            else:
                # every row starts at psi0, so the error at time 0 is 0
                assert len(compare["mc_error"]) == 5
                assert all(math.isfinite(e) and e > 0.1 for e in compare["mc_error"][1:])

    def test_a_hitting_run_rotates_the_hamiltonian_once(self, tmp_path, monkeypatch):
        # the first-hit moments read the block's joint-basis Hamiltonian
        # rather than rotating the whole one again
        calls = []
        rotate = QuantitySet.joint_hamiltonian
        monkeypatch.setattr(QuantitySet, "joint_hamiltonian",
                            lambda qs, h: calls.append(qs.dim) or rotate(qs, h))
        raw = minimal_qubit_config(engine="hitting", hamiltonian={"name": "sigma_x", "scale": 0.7})
        summary = json.loads((_run_cli(tmp_path, raw, "h") / "summary.json").read_text())
        assert calls == [2]
        assert summary["engines"]["hitting"]["first_hitting_moments"] is None

    @pytest.mark.parametrize("command, given_by", [
        ("run", "--seed"), ("sweep", "--seed"), ("sweep", "config"),
    ])
    def test_negative_seed_exits_1_before_any_artifact(self, tmp_path, capsys, command,
                                                       given_by):
        raw = minimal_qubit_config(seed=-3 if given_by == "config" else 5)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out_dir = tmp_path / "o"
        argv = [command, str(cfg_path), "--out", str(out_dir)]
        if command == "sweep":
            argv += ["--param", "mu", "--values", "4"]
        if given_by == "--seed":
            argv += ["--seed", "-1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error [seed]" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        import subprocess
        import sys

        code = "import sys, qreduce.cli; print('scipy.stats' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            check=True, env=_child_env(),
        )
        assert done.stdout.strip() == "False"

    def test_cli_run_loads_no_scipy_and_no_process_pool(self, tmp_path):
        import subprocess
        import sys

        raw = {
            "scenario": "identical-particles",
            "engine": "both",
            "beta": 2.0,
            "mu": 10.0,
            "dt": 0.01,
            "t_end": 0.5,
            "record_interval": 0.25,
            "n_trajectories": 4,
            "seed": 2,
            "sites": 3,
            "dx": 1.0,
            "alpha": 2.0,
            "species": [{"name": "b", "count": 1}],
            "initial_state": [
                {"occupations": [[1, 0, 0]], "re": 0.7071067811865476},
                {"occupations": [[0, 0, 1]], "re": 0.7071067811865476},
            ],
        }
        cfg_path = tmp_path / "lattice.json"
        cfg_path.write_text(json.dumps(raw))
        code = (
            "import json, sys, qreduce.cli\n"
            "rc = qreduce.cli.main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')\n"
            "          or m == 'concurrent.futures.process']\n"
            "print(json.dumps([rc, sorted(loaded)]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(cfg_path), str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120, check=True, env=_child_env(),
        )
        assert json.loads(done.stdout.splitlines()[-1]) == [0, []]
        assert (tmp_path / "out" / "compare.json").exists()

    @pytest.mark.parametrize(
        "command, overrides, key",
        [
            # 1.5e10 hits per trajectory: 112 GiB for one trajectory's hit times
            (["run"], {"beta": 1e-9, "mu": 1e9}, "mu"),
            # 1.5e8 records per trajectory
            (["run"], {"engine": "hitting", "record_interval": 1e-7}, "record_interval"),
            # 1.5e10 hits per trajectory at the largest swept rate
            (["sweep", "--param", "mu", "--values", "10", "1e9"], {}, "values"),
        ],
    )
    def test_oversized_config_fails_before_any_output(self, tmp_path, command, overrides, key):
        raw = {**load_preset("qubit-equal"), **overrides}
        _assert_refused_before_any_output(tmp_path, raw, command, key)

    def test_smearing_kernel_beyond_the_budget_fails_before_any_output(self, tmp_path):
        # one boson on 12000 sites: its dense 12000 x 12000 smearing kernel
        # would take 1.07 GiB, so the sites are refused before the lattice
        # is enumerated
        raw = two_site_boson_config(
            sites=12000, initial_state=[{"occupations": [[1] + [0] * 11999], "re": 1.0}],
        )
        _assert_refused_before_any_output(tmp_path, raw, ["run"], "sites")

    def test_full_support_oracles_fail_before_any_output(self, tmp_path):
        # d = 4368 with psi0 on every Fock state and 2 records: records, hits
        # and noise take a few MB, but the oracles' 4368 x 4368 series 2.6 GiB
        lattice = build_fock_lattice(12, 1.0, [Species("b", count=5)])
        raw = {
            **_D4368, "t_end": 0.1, "record_interval": 0.1, "n_trajectories": 2,
            "initial_state": [{"occupations": c.tolist(), "re": 1.0} for c in lattice.configs],
        }
        _assert_refused_before_any_output(tmp_path, raw, ["run"], "initial_state")

    def test_d4368_lattice_runs_both_engines_in_bounded_memory(self, tmp_path):
        # psi0 on two Fock states: both engines and both oracles run on those
        # 2 coordinates; one 4368 x 4368 complex matrix alone takes 305 MB
        cfg_path = tmp_path / "d4368.json"
        cfg_path.write_text(json.dumps(_D4368))
        code = (
            "import json, sys, tracemalloc, qreduce.cli\n"
            "tracemalloc.start()\n"
            "rc = qreduce.cli.main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(json.dumps([rc, tracemalloc.get_traced_memory()[1]]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(cfg_path), str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120, env=_child_env(),
            preexec_fn=_cap_address_space,
        )
        rc, peak = json.loads(done.stdout.splitlines()[-1])
        assert rc == 0 and peak < 32 * 2**20
        compare = json.loads((tmp_path / "out" / "compare.json").read_text())
        assert len(compare["oracle_trace_distance"]) == 3
        assert compare["oracle_trace_distance"][-1] > 0

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "mu", "--values", "4", "8"]])
    def test_oracle_matrices_alone_exceed_the_budget(self, tmp_path, monkeypatch, command):
        # d = 40 with psi0 on every coordinate: the oracles' L x L matrices take
        # about 0.28 MB, everything else under 20 kB
        raw = _explicit_d40(initial_state={"re": [1.0] * 40})
        monkeypatch.setattr(cli, "PREFLIGHT_BYTES", 64 * 2**10)
        _assert_refused_in_process(tmp_path, raw, command, "initial_state")
        # without the oracles, or on 2 live coordinates, the config fits
        for fits in ({**raw, "engine": "continuous"}, _explicit_d40()):
            built = build_scenario(ScenarioConfig.from_dict(fits))
            cli._check_footprint(built, _block(built), 3, "mu", 4.0, 6)

    def test_kernel_hamiltonian_alone_exceeds_the_budget(self, tmp_path, monkeypatch):
        # a Hamiltonian coupling all 40 coordinates: the diffusion kernel's
        # L x L forms of it take about 0.1 MB, everything else under 10 kB
        rng = np.random.default_rng(4)
        m = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        h = 0.1 * (m + m.conj().T)
        raw = _explicit_d40(engine="continuous", hamiltonian=matrix_to_json(h))
        monkeypatch.setattr(cli, "PREFLIGHT_BYTES", 64 * 2**10)
        _assert_refused_in_process(tmp_path, raw, ["run"], "hamiltonian")
        built = build_scenario(ScenarioConfig.from_dict({**raw, "hamiltonian": None}))
        cli._check_footprint(built, _block(built), 3, "mu", 4.0, 6)

    def test_states_alone_exceed_the_budget(self, tmp_path, monkeypatch, capsys):
        # hitting alone, 100 trajectories, 21 records of a qubit: weights and
        # expectations take 50.4 kB and the hits 6.6 kB; the states add
        # 16 L = 32 B a record row, 67.2 kB, and pass the 64 KiB budget
        raw = minimal_qubit_config(
            engine="hitting", mu=1.0, t_end=2.0, record_interval=0.1, n_trajectories=100,
        )
        monkeypatch.setattr(cli, "PREFLIGHT_BYTES", 64 * 2**10)
        cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 1
        assert "config error [record_interval]" in capsys.readouterr().err
        assert not out_dir.exists()
        # with the budget raised by the states' bytes, the config fits
        monkeypatch.setattr(cli, "PREFLIGHT_BYTES", 64 * 2**10 + 21 * 100 * 16 * 2)
        built = build_scenario(ScenarioConfig.from_dict(raw))
        cli._check_footprint(built, _block(built), 21, "mu", 1.0, 42)

    def test_single_engine_states_are_those_of_both(self):
        # the same seeds give each engine the same states, bit for bit, alone
        # (here in 2 chunks on 2 workers) and beside the other engine
        raw = minimal_qubit_config(n_trajectories=30)
        built = build_scenario(ScenarioConfig.from_dict(raw))
        both = cli._run_engines(built, _block(built), 1)
        for engine in ("hitting", "continuous"):
            built = build_scenario(ScenarioConfig.from_dict({**raw, "engine": engine}))
            alone = cli._run_engines(built, _block(built), 2)
            assert list(alone) == [engine]
            assert alone[engine].states.shape == both[engine].states.shape == (5, 30, 2)
            assert alone[engine].states.tobytes() == both[engine].states.tobytes()

    def test_density_matrix_of_a_continuous_only_run(self):
        n = 400
        raw = minimal_qubit_config(
            engine="continuous", t_end=1.0, n_trajectories=n, beta=None, mu=None, gamma=2.0,
        )
        built = build_scenario(ScenarioConfig.from_dict(raw))
        ens = cli._run_engines(built, _block(built), 1)["continuous"]
        rho = ensemble_density_matrix(ens, 1.0, built.quantities)
        _, oracle = lindblad_evolution(
            DensityMatrix.from_state(built.psi0), built.quantities, 2.0, 1.0
        )
        assert trace_norm_distance(rho, oracle[-1]) < 5.0 / math.sqrt(n)

    def test_evenly_spaced_event_flags_count_hits_on_the_record(self, tmp_path):
        # records at 0.9, 1.8 and 2.7 are stored a rounding below the hit
        # at that time; the hit still counts toward the record
        raw = minimal_qubit_config(
            engine="hitting", schedule="evenly-spaced", mu=10.0, t_end=3.0,
            record_interval=0.3, n_trajectories=2,
        )
        out = _run_cli(tmp_path, raw, "even")
        rows = (out / "trajectories.csv").read_text().splitlines()[1:]
        for traj in ("0", "1"):
            flags = [int(r.split(",")[3]) for r in rows if r.split(",")[1] == traj]
            assert flags == [0] + [3] * 10

    def test_csv_fields_are_float_reprs(self, tmp_path):
        # amplitudes whose Born weights are 5e-324 and 1.0 (sqrt(5e-324)
        # squares back to 5e-324), about 1/4 and 3/4, about 1/3 and 2/3, and
        # exactly 1.0 and 0.0; the first and last records' expectations are
        # then exactly table rows 1 and 0
        states = np.array([
            [math.sqrt(5e-324), 1.0],
            [0.5, math.sqrt(0.75)],
            [math.sqrt(1 / 3), math.sqrt(2 / 3)],
            [1.0, 0.0],
        ], dtype=complex)
        table = np.array([[np.pi, -np.e], [-1e-300, 2.5e-17]])
        times = np.array([0.05, 0.1, 0.2])
        centres = np.array([[np.nan, -3.5], [1e-310, np.nan], [-7.0, 1 / 7]])
        # two identical trajectories
        ens = Ensemble(
            seeds=np.arange(2),
            sample_times=np.array([0.0, 0.1, 0.30000000000000004, 0.4]),
            states=np.stack([states, states], axis=1),
            table=table,
            offsets=np.array([0, 3, 6]),
            times=np.concatenate([times, times]),
            centres=np.concatenate([centres, centres]),
            live=np.arange(2),
            dim=2,
        )
        weights, expectations = ens.weights[:, 0], ens.expectations[:, 0]
        assert weights[0].tolist() == [5e-324, 1.0]
        assert weights[3].tolist() == [1.0, 0.0]
        assert np.array_equal(expectations[[0, 3]], table[[1, 0]])
        engines = {"hitting": ens}
        _write_trajectories_csv(tmp_path / "t.csv", engines)
        _write_events_csv(tmp_path / "e.csv", engines)
        t_rows = [r.split(",") for r in (tmp_path / "t.csv").read_text().splitlines()[1:]]
        e_rows = [r.split(",") for r in (tmp_path / "e.csv").read_text().splitlines()[1:]]
        assert len(t_rows) == 8 and len(e_rows) == 6
        for i, row in enumerate(t_rows):
            s = i % 4
            values = [ens.sample_times[s], *weights[s], *expectations[s]]
            assert row[:2] == ["hitting", str(i // 4)]
            assert row[2] == repr(float(values[0]))
            assert row[3] == str([0, 2, 1, 0][s])
            assert row[4:] == [repr(float(x)) for x in values[1:]]
        for i, row in enumerate(e_rows):
            values = [times[i % 3], *centres[i % 3]]
            assert row[:2] == ["hitting", str(i // 3)]
            assert row[2:] == [repr(float(x)) for x in values]


def test_first_hitting_moments_of_overlapping_streams(correlated_pair_set, equal_qubit):
    # column 0 is hit by both streams, column 1 by the second alone
    streams = [HitStream((0,), 0.5, 8.0), HitStream((0, 1), 2.0, 2.0)]
    n = 4000
    ens = run_hitting_ensemble(
        live_block(equal_qubit, correlated_pair_set, None), streams, 2.0, 1.0, n, 9,
    )
    built = BuiltScenario(None, equal_qubit, correlated_pair_set, None, streams, None)
    moments = _first_hit_moments(built, live_block(equal_qubit, correlated_pair_set, None), ens)
    used = set()
    for p in (0, 1):
        # reference: each trajectory's first event with a centre in column p;
        # an event with a centre in column 1 is the second stream's
        firsts, betas = [], []
        for i in range(len(ens)):
            centres = ens.centres[ens.offsets[i]:ens.offsets[i + 1]]
            hit = np.flatnonzero(~np.isnan(centres[:, p]))
            if hit.size:
                used.add((i, hit[0]))
                centre = centres[hit[0]]
                firsts.append(centre[p])
                betas.append(streams[0 if np.isnan(centre[1]) else 1].beta)
        x = np.array(firsts)
        expected_var = correlated_pair_set.covariance(equal_qubit, p, p) + np.mean(
            1 / (2 * np.array(betas))
        )
        assert moments["empirical_mean"][p] == pytest.approx(x.mean(), abs=1e-12)
        assert moments["empirical_variance"][p] == pytest.approx(x.var(ddof=1), abs=1e-12)
        assert moments["expected_variance"][p] == pytest.approx(expected_var, abs=1e-12)
        # and the law: psi0's mean, and its variance plus the hits' own
        var = x.var(ddof=1)
        se_var = math.sqrt(np.mean((x - x.mean()) ** 4) - var**2) / math.sqrt(x.size)
        assert abs(x.mean() - moments["expected_mean"][p]) <= 5 * math.sqrt(var / x.size)
        assert abs(var - expected_var) <= 5 * se_var
    assert moments["expected_mean"] == [1.5, 4.0]
    assert moments["n_events"] == len(used)  # distinct events read


def _reference_trajectories_csv(path: Path, ensembles: dict[str, Ensemble]):
    """The trajectories.csv writer that formats every field with %r: the oracle."""
    first = next(iter(ensembles.values()))
    d = first.dim
    k = first.expectations.shape[2]
    header = (
        ["engine", "trajectory", "time", "event_flag"]
        + [f"w_{i}" for i in range(d)]
        + [f"exp_{p}" for p in range(k)]
    )
    row = "%r,%d" + ",%r" * (d + k) + "\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for engine in sorted(ensembles):
            ens = ensembles[engine]
            weights = full_weights(ens)
            times = ens.sample_times.tolist()
            flags = ens.event_flags().tolist()
            for idx in range(len(ens)):
                fmt = f"{engine},{idx}," + row
                columns = zip(
                    times,
                    flags[idx],
                    *weights[:, idx, :].T.tolist(),
                    *ens.expectations[:, idx, :].T.tolist(),
                )
                fh.writelines(fmt % fields for fields in columns)


def _ensemble_with_columns(rng, live: list[int], d: int = 6, n: int = 4, edit=None) -> Ensemble:
    """An ensemble of n trajectories, 3 records and K = 2 on the ``live``
    columns of d, whose (3, n, len(live)) real amplitudes are passed to
    ``edit`` and then normalized; events at random times."""
    amplitudes = rng.random((3, n, len(live))) + 0.1
    if edit is not None:
        edit(amplitudes)
    amplitudes /= np.sqrt((amplitudes**2).sum(axis=2, keepdims=True))
    counts = rng.integers(0, 4, n)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return Ensemble(
        seeds=np.arange(n),
        sample_times=np.array([0.0, 0.5, 1.0]),
        states=amplitudes + 0j,
        table=rng.normal(size=(len(live), 2)),
        offsets=offsets,
        times=rng.random(offsets[-1]),
        centres=rng.normal(size=(offsets[-1], 2)),
        live=np.array(live),
        dim=d,
    )


def _count_live_block_calls(monkeypatch) -> list:
    """Record every call of ``trajectory.live_block``, under any name a module gave it."""
    calls, cut = [], trajectory.live_block

    def counted(*args, **kwargs):
        calls.append(args)
        return cut(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "qreduce" or name.startswith("qreduce."):
            for attr in [a for a, value in vars(module).items() if value is cut]:
                monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize(
    "command", [["run"], ["sweep", "--param", "mu", "--values", "4", "8", "16"]]
)
def test_each_command_cuts_the_live_block_once(tmp_path, monkeypatch, command):
    # engine both under a Hamiltonian, with one trajectory more than a chunk
    # holds, at one worker: the pre-flight, both runners, every chunk and
    # the oracles take the one block the command cut
    h = {"dim": 2, "re": [0.3, 1.0, 1.0, -0.3], "im": [0.0, -0.5, 0.5, 0.0]}
    raw = minimal_qubit_config(n_trajectories=CHUNK_SIZE + 1, t_end=0.5, record_interval=0.25,
                               hamiltonian=h)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    calls = _count_live_block_calls(monkeypatch)
    argv = [command[0], str(cfg_path), *command[1:], "--workers", "1", "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    assert len(calls) == 1


class TestTrajectoriesWriterOracle:
    """The writer's bytes equal those of the all-%r reference writer."""

    def _assert_same_bytes(self, tmp_path, ensembles):
        _write_trajectories_csv(tmp_path / "new.csv", ensembles)
        _reference_trajectories_csv(tmp_path / "ref.csv", ensembles)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_all_columns_live(self, tmp_path):
        rng = np.random.default_rng(1)
        self._assert_same_bytes(tmp_path, {"hitting": _ensemble_with_columns(rng, [0, 1, 2, 3, 4, 5])})

    def test_one_live_column(self, tmp_path):
        rng = np.random.default_rng(2)
        ens = _ensemble_with_columns(rng, [3])
        assert np.all(ens.weights[:, :, np.searchsorted(ens.live, 3)] == 1.0)
        self._assert_same_bytes(tmp_path, {"continuous": ens})

    def test_column_zero_in_all_records_but_one(self, tmp_path):
        rng = np.random.default_rng(3)

        def edit(amplitudes):
            # live column 1 is 0 in every record but one
            amplitudes[:, :, 1] = 0.0
            amplitudes[1, 2, :] = [SQ2, 0.5, 0.5]

        ens = _ensemble_with_columns(rng, [0, 1, 2], edit=edit)
        self._assert_same_bytes(tmp_path, {"hitting": ens})
        text = (tmp_path / "new.csv").read_text()
        assert ",0.25,0.25,0.0,0.0,0.0," in text
        assert np.count_nonzero(ens.weights[:, :, 1]) == 1

    def test_negative_zero_keeps_its_column(self, tmp_path):
        rng = np.random.default_rng(4)

        def edit(amplitudes):
            # live columns 4 and 5; |c|^2 is never -0.0, so both zeros are +0.0
            amplitudes[:, :, 2] = 0.0
            amplitudes[2, 1, 2] = 0.5  # one nonzero entry in an otherwise zero column
            amplitudes[:, :, 3] = -0.0  # a column of zeros only

        ens = _ensemble_with_columns(rng, [0, 1, 4, 5], edit=edit)
        self._assert_same_bytes(tmp_path, {"hitting": ens})
        rows = (tmp_path / "new.csv").read_text().splitlines()[1:]
        assert all(r.split(",")[9] == "0.0" for r in rows)
        assert sum(r.split(",")[8] != "0.0" for r in rows) == 1

    def test_two_engines_with_different_dead_sets(self, tmp_path):
        rng = np.random.default_rng(5)
        ensembles = {
            "hitting": _ensemble_with_columns(rng, [0, 4]),
            "continuous": _ensemble_with_columns(rng, [1, 2, 5], n=3),
        }
        self._assert_same_bytes(tmp_path, ensembles)


class TestCliSweep:
    def test_sweep_writes_sorted_table(self, tmp_path, capsys):
        raw = minimal_qubit_config(n_trajectories=400, t_end=1.0, record_interval=0.5)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out_dir = tmp_path / "sweep"
        rc = main(
            [
                "sweep", str(cfg_path), "--param", "mu",
                "--values", "100", "10",
                "--out", str(out_dir),
            ]
        )
        assert rc == 0
        assert "sorted ascending" in capsys.readouterr().out
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "mu,beta,channel_distance,mc_distance,mc_error"
        mus = [float(line.split(",")[0]) for line in lines[1:]]
        assert mus == sorted(mus)
        dets = [float(line.split(",")[2]) for line in lines[1:]]
        assert dets[0] > dets[1]

    def test_sweep_bit_identical_for_worker_counts(self, tmp_path):
        # two workers split 600 trajectories into two chunks of 300 and run
        # a process pool, on a host with at least two CPUs
        raw = minimal_qubit_config(n_trajectories=600, t_end=1.0, record_interval=0.5)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        tables = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"workers-{workers}"
            rc = main(
                [
                    "sweep", str(cfg_path), "--param", "mu", "--values", "10", "100",
                    "--workers", workers, "--out", str(out_dir),
                ]
            )
            assert rc == 0
            tables.append((out_dir / "sweep.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_sweep_requires_engine_both(self, tmp_path):
        raw = minimal_qubit_config(engine="hitting")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        rc = main(["sweep", str(cfg_path), "--param", "mu", "--values", "10"])
        assert rc == 1

    def test_sweep_unknown_param(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_qubit_config()))
        rc = main(["sweep", str(cfg_path), "--param", "beta", "--values", "10"])
        assert rc == 1

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_sweep_rejects_non_finite_values(self, tmp_path, capsys, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_qubit_config()))
        rc = main(["sweep", str(cfg_path), "--param", "mu", "--values", "10", value])
        assert rc == 1
        assert "config error [values]" in capsys.readouterr().err

    def test_sweep_rejects_a_value_that_is_no_number(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        rc = main(["sweep", "qubit-equal", "--param", "mu", "--values", "4", "abc",
                   "--out", str(out_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error [values]" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_sweep_rejects_workers_below_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_qubit_config()))
        for workers in ("0", "-3"):
            out_dir = tmp_path / f"workers{workers}"
            rc = main(
                ["sweep", str(cfg_path), "--param", "mu", "--values", "10",
                 "--workers", workers, "--out", str(out_dir)]
            )
            assert rc == 1
            err = capsys.readouterr().err
            assert "config error [workers]" in err and "Traceback" not in err
            assert not out_dir.exists()

    def test_sweep_rejects_a_rate_no_sampler_can_draw(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_qubit_config()))
        rc = main(["sweep", str(cfg_path), "--param", "mu", "--values", "10", "1e300"])
        assert rc == 1
        assert "config error [values]" in capsys.readouterr().err

    def test_sweep_runs_a_multistream_scenario(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(distinguishable_config(n_trajectories=200)))
        out_dir = tmp_path / "sweep"
        rc = main(
            ["sweep", str(cfg_path), "--param", "mu", "--values", "10", "40",
             "--out", str(out_dir)]
        )
        assert rc == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "mu,beta,channel_distance,mc_distance,mc_error"
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            total = float(row[0])
            # rates 8 : 2 and beta_s * mu_s = 4 and 1 held: both betas are 5 / total
            assert [float(b) for b in row[1].split(" ")] == [
                pytest.approx(5.0 / total), pytest.approx(5.0 / total)
            ]
        assert float(rows[0][2]) > float(rows[1][2]) > 0

    @pytest.mark.parametrize("amplitudes", [[0.7071067811865476, 0.7071067811865476], [1.0, 0.0]])
    def test_sweep_passes_the_hamiltonian_on(self, tmp_path, amplitudes):
        # qubit-equal's |+> commutes with sigma_x at every time; |0> does not
        raw = {
            **load_preset("qubit-equal"), "n_trajectories": 200, "t_end": 1.0,
            "record_interval": 0.5, "hamiltonian": {"name": "sigma_x", "scale": 1.0},
            "initial_state": {"re": amplitudes},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out_dir = tmp_path / "sweep"
        rc = main(
            ["sweep", str(cfg_path), "--param", "mu", "--values", "10", "--out", str(out_dir)]
        )
        assert rc == 0
        channel = float((out_dir / "sweep.csv").read_text().splitlines()[1].split(",")[2])
        built = build_scenario(ScenarioConfig.from_dict(raw))
        rho0 = DensityMatrix.from_state(built.psi0)
        h = built.hamiltonian
        stream = [HitStream((0,), 2 * built.gamma / 10.0, 10.0)]
        _, master = hitting_master_evolution(rho0, built.quantities, stream, 1.0, hamiltonian=h)
        _, lind = lindblad_evolution(rho0, built.quantities, built.gamma, 1.0, hamiltonian=h)
        assert channel == trace_norm_distance(master[-1], lind[-1])
        if amplitudes[1] == 0.0:
            _, free_master = hitting_master_evolution(rho0, built.quantities, stream, 1.0)
            _, free_lind = lindblad_evolution(rho0, built.quantities, built.gamma, 1.0)
            assert abs(channel - trace_norm_distance(free_master[-1], free_lind[-1])) > 1e-3


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


def _workload(name: str) -> dict:
    return json.loads((WORKLOADS / f"{name}.json").read_text())


@pytest.mark.parametrize("raw", [
    # one chunk of 200 rows, K = 10: blocks of 26 steps
    _workload("lattice-d715"),
    # CHUNK_SIZE + 1 rows run as two chunks of 513 and 512
    minimal_qubit_config(engine="continuous", n_trajectories=CHUNK_SIZE + 1),
], ids=["d715", "two-chunks"])
def test_preflight_noise_term_is_the_block_the_kernel_draws(tmp_path, monkeypatch, raw):
    sizes, blocks = [], set()
    check = cli._check_footprint
    monkeypatch.setattr(cli, "_check_footprint", lambda *args: sizes.append(check(*args)))
    default_rng = np.random.default_rng

    class Recording:
        """A generator that records the block its normals are drawn into."""

        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, *, out):
            blocks.add(out.base.nbytes)
            return self.rng.standard_normal(out=out)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    _run_cli(tmp_path, raw, "out")
    assert [size["n_trajectories"] for size in sizes] == [max(blocks)]


def _every_outcome(ens: Ensemble, quantities: QuantitySet) -> list[OutcomeStat]:
    """The entry of every label of the whole table, as the report once listed them."""
    labels = group_eigenvalue_rows(quantities)
    live_labels = labels[ens.live]
    terminal = ens.weights[-1]
    groups = np.unique(labels)
    grouped = np.stack([terminal[:, live_labels == g].sum(axis=1) for g in groups], axis=1)
    resolved = grouped.max(axis=1) >= 0.999
    n_resolved = int(resolved.sum())
    counts = np.bincount(grouped.argmax(axis=1)[resolved], minlength=groups.size).tolist()
    firsts = [int(np.flatnonzero(labels == g)[0]) for g in groups]
    return [
        OutcomeStat(tuple(quantities.eigenvalue_table[first].tolist()), count,
                    count / n_resolved if n_resolved else 0.0,
                    *wilson_interval(count, n_resolved, 3.0))
        for first, count in zip(firsts, counts)
    ]


@pytest.mark.parametrize("raw", [
    *(load_preset(name) for name in sorted(qreduce.config.PRESET_NAMES)),
    _workload("lattice-d120"),
    _workload("lattice-d715"),
], ids=[*sorted(qreduce.config.PRESET_NAMES), "lattice-d120", "lattice-d715"])
def test_collapse_lists_the_outcomes_with_a_live_coordinate(raw):
    built = build_scenario(ScenarioConfig.from_dict({**raw, "n_trajectories": 40}))
    block = _block(built)
    labels = group_eigenvalue_rows(built.quantities)
    for ens in cli._run_engines(built, block, 1).values():
        report = collapse_statistics(ens, built.quantities)
        every = _every_outcome(ens, built.quantities)
        listed = sorted(set(labels[block.live].tolist()))
        assert report.outcomes == [every[g] for g in listed]
        assert all(every[g].count == 0 for g in set(range(len(every))) - set(listed))
        assert report.unlisted_outcomes + len(report.outcomes) == len(every)
        assert cli._collapse_json(report)["unlisted_outcomes"] == report.unlisted_outcomes
