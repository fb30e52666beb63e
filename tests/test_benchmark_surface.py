"""The package surface the benchmark reads.

``benchmarks/tracing.py`` wraps Tape ops, entry points and gradient-check
probes by name, and ``BENCHMARK.json`` declares the per-layer metrics a
traced run must print.  Removing any of those names from ``src/`` breaks a
traced run; these checks fail first.  Both files are only read here.
"""

import importlib.util
import inspect
import json
import os
import sys

import focusface
from focusface import checks, data, model

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "benchmarks", "tracing.py")
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads(monkeypatch):
    # workloads.py imports its sibling by the bare name ``tracing``, and its
    # dataclasses look their own module up in sys.modules while being built
    monkeypatch.setitem(sys.modules, "tracing", load_tracing())
    path = os.path.join(ROOT, "benchmarks", "workloads.py")
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = load_tracing().Tracer()
    before = {name: getattr(focusface.autodiff.Tape, name)
              for name in ("conv2d", "dot", "backward")}
    try:
        tracer.install(focusface)
    finally:
        tracer.uninstall()
    assert {name: getattr(focusface.autodiff.Tape, name) for name in before} == before


def test_embed_images_keeps_its_thread_parameter():
    # the benchmark's verify workload checks and sweeps it
    assert "threads" in inspect.signature(model.embed_images).parameters


def test_traced_metric_names_are_the_declared_ones():
    tracing = load_tracing()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    tracer = tracing.Tracer()
    names = set(tracing.layer_metrics(tracer, tracer.snapshot(), ops=1, passes=1,
                                      check_names=list(checks.ALL_CHECKS)))
    names |= {f"trace_overhead.{m['name']}" for m in declared["end_to_end"]}
    per_layer = [m["name"] for m in declared["per_layer"]]
    assert len(per_layer) == len(set(per_layer)) == 99
    assert names == set(per_layer)


def test_saved_corpus_reloads_as_the_benchmark_compares_it(monkeypatch, tmp_path):
    # Train.final_checks calls a run incorrect unless load_corpus returns,
    # dtypes and dataclass types included, the corpus save_corpus wrote
    same = load_workloads(monkeypatch)._same
    built = data.build_splits(num_identities=4, samples_per_identity=2, dataset_seed=0)
    data.save_corpus(built, str(tmp_path))
    assert same(built, data.load_corpus(str(tmp_path)))
