"""The lazy package namespace: each public name resolves on first use to
the object its submodule defines; and the names the benchmark tracer wraps."""

import importlib
import importlib.util
import pathlib
import sys

import pytest

import fixcensus


SUBMODULES = ["ff", "dynamics", "claims", "stats", "nfcount"]


@pytest.mark.parametrize("name", [name for name in fixcensus.__all__ if name != "__version__"])
def test_public_name_is_its_submodules_object(name):
    modules = [importlib.import_module(f"fixcensus.{m}") for m in SUBMODULES]
    listed = [getattr(module, name) for module in modules if name in module.__all__]
    assert listed
    assert all(getattr(fixcensus, name) is value for value in listed)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fixcensus import *", namespace)
    assert set(fixcensus.__all__) <= set(namespace)
    assert namespace["__version__"] == fixcensus.__version__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fixcensus.no_such_name
    with pytest.raises(ImportError):
        exec("from fixcensus import no_such_name", {})


def test_submodules_import_by_name():
    from fixcensus import claims, stats

    assert claims is importlib.import_module("fixcensus.claims")
    assert stats.Selector is fixcensus.Selector


def test_benchmark_tracer_names_exist(monkeypatch):
    # bench/tracer.py wraps each LAYERS name with getattr on every module it
    # lists, so a name that moves breaks every traced benchmark run
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for name, _info, modules in tracer.LAYERS:
        attr = name.rsplit(".", 1)[1]
        for module in modules:
            assert callable(getattr(module, attr, None)), f"{name}: {module.__name__}.{attr}"
    assert hasattr(tracer.ff.FieldOps, "mul_table")  # _ops_info reads it
