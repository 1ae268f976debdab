"""The benchmark's span tracer (`bench/tracing.py`) patches named attributes
of `routee` in place. Install and uninstall it here so that a rename or a
move of a traced name fails in the unit tests, not only in a traced run."""

import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("role", ["inproc", "daemon"])
def test_tracer_installs_and_restores_every_hook(role):
    tracer = _load_tracing().Tracer()
    try:
        tracer.install(role)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, (owner, attr)
