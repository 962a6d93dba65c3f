"""The public surface: every exported name resolves, and none is listed twice."""

import importlib
import pkgutil

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


@pytest.mark.parametrize(
    "name", ["HittingConfig", "simulate_multistream_hitting_trajectory"]
)
def test_one_hitting_process_model(name):
    # a hitting process is a list of HitStream; the one-stream config and the
    # multistream trajectory wrapper are gone from every surface
    assert name not in qreduce.__all__ and not hasattr(qreduce, name)
    hitting = importlib.import_module("qreduce.hitting")
    assert name not in hitting.__all__ and not hasattr(hitting, name)
