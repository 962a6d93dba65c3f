"""The public surface: every exported name resolves, and none is listed twice."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qreduce

SUBMODULES = sorted(
    f"qreduce.{info.name}" for info in pkgutil.iter_modules(qreduce.__path__)
)


def test_package_exports_resolve_without_duplicates():
    missing = [name for name in qreduce.__all__ if not hasattr(qreduce, name)]
    assert missing == []
    assert len(set(qreduce.__all__)) == len(qreduce.__all__)


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_submodule_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
    assert len(set(exported)) == len(exported)


# a removed name -> the submodule that held it
REMOVED = {
    "HittingConfig": "hitting",
    "simulate_multistream_hitting_trajectory": "hitting",
    "EventLog": "trajectory",
    "TrajectoryRecord": "trajectory",
    "simulate_hitting_trajectory": "hitting",
    "simulate_continuous_trajectory": "continuous",
    "WienerIncrement": "continuous",
    "DbMomentReport": "equivalence",
    "db_statistics": "equivalence",
    "sample_factorized_db_windows": "equivalence",
    "InsufficientEventsError": "errors",
    "LatticeScenario": "fock",
    "scenario_identical_particles": "fock",
    "born_weights": "hilbert",
    "expectation": "hilbert",
    "quantum_covariance": "hilbert",
    "MissingSnapshotError": "errors",
    "run_on_live_block": "trajectory",
}


@pytest.mark.parametrize("name", list(REMOVED))
def test_one_hitting_process_model(name):
    # a hitting process is a list of HitStream and its result one Ensemble of
    # seeded rows; the one-stream config, the per-trajectory record view, the
    # single-trajectory wrappers and the window-increment harnesses built on
    # them are gone from every surface, as are the second lattice scenario
    # type (scenarios builds every kind), the module-level spellings of
    # the QuantitySet queries, the error of an ensemble without states,
    # which every ensemble now records, and the wrapper that ran a kernel
    # on the live block, which each command now cuts once with live_block
    assert name not in qreduce.__all__ and not hasattr(qreduce, name)
    module = importlib.import_module(f"qreduce.{REMOVED[name]}")
    assert name not in getattr(module, "__all__", []) and not hasattr(module, name)


def test_no_module_imports_scipy():
    # scipy is a test dependency only; imports inside functions count too
    found = []
    for path in sorted(Path(qreduce.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}" for name in names
                if name == "scipy" or name.startswith("scipy.")
            ]
    assert found == []


def test_no_function_takes_store_states():
    # every ensemble records its states: no kernel, runner or harness takes
    # an option to leave them out
    found = []
    for path in sorted(Path(qreduce.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if "store_states" in names:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_natural_units_throughout():
    # hbar = 1: no parameter, attribute or name anywhere is called hbar
    found = []
    for path in sorted(Path(qreduce.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.arg if isinstance(node, ast.arg)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name == "hbar":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
