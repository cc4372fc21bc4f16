"""The benchmark's tracer wraps program functions by name; a name it wraps
that the program no longer has fails here, not only in the minute-long
benchmark self-test. The benchmark's files are only read."""

import importlib.util
from pathlib import Path

import salign
import salign.cli

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_finds_every_name_and_unwrap_restores_it():
    tracing = load_tracing()
    owners = [salign.cli, salign.training, salign.evaluation, salign.loss, salign.gradcheck,
              salign.model.ModelParams]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer(salign.Graph)
    try:
        tracing.install(tracer, salign)  # KeyError if a wrapped name is gone
        wrapped = [(owner, attr) for owner, old in zip(owners, before)
                   for attr, value in vars(owner).items() if old.get(attr) is not value]
    finally:
        tracer.unwrap()
    assert (salign.cli, "predict_batch") in wrapped
    assert (salign.evaluation, "saliency_scores") in wrapped
    for owner, old in zip(owners, before):
        assert all(vars(owner)[attr] is value for attr, value in old.items())
