"""Every function the benchmark's tracer wraps still exists under its name.

`bench/tracer.install` looks each target up with `getattr`, so a function
that is renamed or moved out of its module would crash every traced
benchmark run.
"""

import functools
import importlib
import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@functools.cache
def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # the tracer's dataclasses look their module up in sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


TARGETS = _load("bench_tracer", ROOT / "bench" / "tracer.py").TARGETS


def _module(name):
    if name.startswith("uqd"):
        return importlib.import_module(name)
    return _load(name, ROOT / "scripts" / f"{name}.py")


@pytest.mark.parametrize("target", TARGETS, ids=lambda target: target.span)
def test_traced_target_resolves(target):
    assert callable(getattr(_module(target.module), target.function))

