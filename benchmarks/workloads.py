"""The benchmark's two workloads and the loop that measures them.

Each workload is closed loop and single process: the next operation starts
when the previous one returns.  A workload sets itself up from its seed,
then runs whole passes until the time is up; a pass is the unit whose
outputs must repeat bit for bit.

- ``train``: passes are ``fit`` runs of ``TRAIN_STEPS`` steps on the
  default corpus; an operation is one step (``train_batch`` plus
  ``train_iteration``).  The only workload with a backward pass at model
  scale.
- ``verify``: forward-only scoring of a seeded model, loaded from a
  checkpoint, on an 80-identity test split; a pass is one ``um``, one
  ``mm`` and one mask-detection query, and an operation is one query.

The traced ``train`` run also measures the ``checks`` layer, on one
``checks.run_all(seed)`` (see ``Train.extra_layers``).
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from tracing import Patches, layer_metrics

SETUP_REPS = 5
TRAIN_STEPS = 200  # two validations at the default eval_interval of 100
SWEEP_REPS = 5


@dataclass
class Phase:
    """What one set-up plus timed loop measured."""

    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    pass_s: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    wall_s: float = 0.0
    items: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    timed_mark: object = None

    def end_to_end(self) -> dict:
        """The end-to-end metrics as {name: (value, unit)}."""
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "op_ms_p50": (1e3 * statistics.median(self.op_s), "ms"),
            "op_ms_p90": (1e3 * statistics.quantiles(self.op_s, n=10)[8], "ms"),
            "items_per_s": (self.items / sum(self.pass_s), "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }


def _clear_caches(modules):
    """Empty the package's memo caches so every set-up starts cold."""
    for module in modules:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def import_seconds(src: str) -> float:
    """Seconds a fresh interpreter takes to import focusface from ``src``."""
    code = ("import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import focusface; print(time.perf_counter() - t0)")
    child = subprocess.run([sys.executable, "-c", code, src], check=True,
                           capture_output=True, text=True, timeout=120)
    return float(child.stdout)


def measure(workload, seconds=None, passes=None, tracer=None) -> Phase:
    """Prepare, set up SETUP_REPS times, warm up, then run passes.

    A set-up repetition is a fresh interpreter's import of the package plus
    the workload's ``setup``.  A full garbage collection, untimed, ends the
    warm-up and every pass, so each pass starts from the same heap: the
    package's tapes are reference cycles, and left to the collector's own
    schedule their garbage piles up over a varying number of passes, which
    made peak memory and pass times wander from run to run.

    Runs passes until one as long as the last would end more than half a
    pass past ``seconds`` (at least one pass), so a run lasts ``seconds``
    give or take half a pass; or, when ``passes`` is given, exactly that
    many.  With a tracer, the warm-up's
    spans are discarded and ``timed_mark`` marks where the timed loop began.
    """
    phase = Phase()
    workload.prepare()
    src = os.path.dirname(os.path.dirname(workload.fx.package.__file__))
    for _ in range(SETUP_REPS):
        import_s = import_seconds(src)
        _clear_caches(workload.fx.modules)
        t0 = time.perf_counter()
        workload.setup()
        phase.setup_s.append(import_s + time.perf_counter() - t0)
    mark = tracer.snapshot() if tracer else None
    workload.warm_up()
    gc.collect()
    if tracer:
        tracer.restore(mark)
        phase.timed_mark = tracer.snapshot()
    patches = Patches()
    workload.install_timers(patches, phase)
    try:
        start = time.perf_counter()
        while True:
            done = len(phase.pass_s)
            if passes is not None and done >= passes:
                break
            if (passes is None and done and
                    time.perf_counter() - start + phase.pass_s[-1] / 2 >= seconds):
                break
            t0 = time.perf_counter()
            phase.outputs.append(workload.run_pass(phase))
            phase.pass_s.append(time.perf_counter() - t0)
            gc.collect()
        phase.wall_s = time.perf_counter() - start
    finally:
        patches.undo()
    phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return phase


def _same(a, b) -> bool:
    """Bit-for-bit equality of nested tuples, arrays, floats and dataclasses."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and list(a) == list(b)
                and all(_same(a[k], b[k]) for k in a))
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


def repeat_errors(phase: Phase, reference=None, label="pass") -> list:
    """Messages for passes whose outputs differ from the first (or ``reference``)."""
    if not phase.outputs:
        return []
    expected = phase.outputs[0] if reference is None else reference
    return [f"{label} {i} output differs bit for bit from the reference"
            for i, out in enumerate(phase.outputs)
            if out is not None and not _same(out, expected)]


class Workload:
    """Interface shared by the workloads."""

    name = ""

    def __init__(self, fx, seed: int, workdir: str):
        self.fx = fx
        self.seed = seed
        self.workdir = workdir

    def prepare(self):
        """Untimed work before the set-up repetitions, once per phase."""

    def setup(self):
        """Build the inputs from the seed; timed as one set-up repetition."""

    def warm_up(self):
        """Run each code path once so the timed loop sees a warm process."""

    def install_timers(self, patches: Patches, phase: Phase):
        """Wrap the package calls that bound one operation, when the loop can't."""

    def run_pass(self, phase: Phase):
        """One pass: count operations into ``phase`` and return its outputs."""
        raise NotImplementedError

    def final_checks(self) -> list:
        """Correctness checks outside the timed loop; messages for failures."""
        return []

    def quality(self, phase: Phase) -> dict:
        return {}

    def extra_layers(self, tracer_factory, child_env) -> tuple:
        """(per-layer metrics, failure messages) measured after the traced phase.

        ``child_env`` is the environment as the benchmark found it, for work
        that must run with BLAS threads at their default.
        """
        return {}, []


class Train(Workload):
    name = "train"

    def prepare(self):
        """Write the seed's default corpus to disk, as ``gen-data`` would."""
        self.corpus_dir = os.path.join(self.workdir, "corpus")
        shutil.rmtree(self.corpus_dir, ignore_errors=True)
        self._built = self.fx.data.build_splits(dataset_seed=self.seed)
        self.fx.data.save_corpus(self._built, self.corpus_dir)

    def setup(self):
        self.corpus = self.fx.data.load_corpus(self.corpus_dir)
        self.config = self.fx.training.TrainConfig(seed=self.seed,
                                                   max_iterations=TRAIN_STEPS)

    def warm_up(self):
        config = replace(self.config, max_iterations=5, eval_interval=5)
        self.fx.training.fit(config, self.corpus)

    def install_timers(self, patches, phase):
        training = self.fx.training
        train_batch, train_iteration = training.train_batch, training.train_iteration
        batch_size = self.config.batch_size
        batch_s = [0.0]
        self._losses = []

        def timed_batch(*args, **kwargs):
            t0 = time.perf_counter()
            batch = train_batch(*args, **kwargs)
            batch_s[0] = time.perf_counter() - t0
            return batch

        def timed_iteration(*args, **kwargs):
            phase.attempted += 1
            t0 = time.perf_counter()
            breakdown = train_iteration(*args, **kwargs)
            phase.op_s.append(batch_s[0] + time.perf_counter() - t0)
            phase.items += 2 * batch_size
            if not math.isfinite(breakdown["comb"]):
                phase.failed += 1
            self._losses.append(tuple(breakdown.items()))
            return breakdown

        patches.set(training, "train_batch", timed_batch)
        patches.set(training, "train_iteration", timed_iteration)

    def run_pass(self, phase):
        self._losses = []
        try:
            state, log = self.fx.training.fit(self.config, self.corpus)
        except RuntimeError as exc:  # sgd_step refuses a non-finite gradient
            phase.failed += 1
            phase.errors.append(str(exc))
            return None
        params = tuple((k, v.copy()) for k, v in state.model.params.items())
        return (tuple(self._losses), tuple(log), params)

    def final_checks(self):
        if _same(self._built, self.corpus):
            return []
        return ["load_corpus does not reproduce the corpus save_corpus wrote"]

    def extra_layers(self, tracer_factory, child_env):
        """The ``checks`` layer, traced over one ``checks.run_all(seed)``.

        No workload times the gradient-check registry: its probe points are
        tiny Python-bound tapes, whose speed on the development machine
        swung by 30 % between runs, more than any bound allows.
        """
        checks = self.fx.checks
        tracer = tracer_factory()
        tracer.install(self.fx.package)
        try:
            mark = tracer.snapshot()
            results = checks.run_all(self.seed)
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer, mark, ops=1, passes=1,
                               check_names=list(checks.ALL_CHECKS))
        errors = [f"{r.name}: relative error {r.max_rel_error:.3g} above {r.tolerance:g}"
                  for r in results if not r.passed]
        return {k: v for k, v in layers.items() if k.startswith("checks.")}, errors

    def quality(self, phase):
        first = next((out for out in phase.outputs if out is not None), None)
        if first is None:
            return {}
        losses, log = first[0], first[1]
        fmr100_column = 2 + self.fx.training.EVAL_FIELDS.index("fmr100")
        evals = [line.split("\t") for line in log if line.startswith("eval\t")]
        return {
            "final_combined_loss": dict(losses[-1])["comb"],
            "last_val_fmr100": float(evals[-1][fmr100_column]) if evals else None,
            "steps_per_pass": TRAIN_STEPS,
        }


class Verify(Workload):
    name = "verify"
    MODES = ("um", "mm", "mask-roc")

    def setup(self):
        fx = self.fx
        corpus = fx.data.build_splits(num_identities=330, samples_per_identity=4,
                                      dataset_seed=self.seed)
        config = fx.model.ToyBackboneConfig(num_classes=corpus.num_classes)
        saved = fx.model.ToyModel.init(config, seed=self.seed)
        path = os.path.join(self.workdir, "model.ckpt")
        fx.model.save_checkpoint(saved, path, seed=self.seed)
        self.model, _ = fx.model.load_checkpoint(path)
        self.split = corpus.test
        self.roc_images, self.roc_labels = fx.metrics.split_mask_detection_set(self.split)
        refs, probes = self.split.references, self.split.probes
        n_probes = int(probes.masked.sum())
        self.images = {"um": int((~refs.masked).sum()) + n_probes,
                       "mm": int(refs.masked.sum()) + n_probes,
                       "mask-roc": len(self.roc_images)}
        self._saved = saved

    def query(self, mode):
        metrics = self.fx.metrics
        if mode == "mask-roc":
            points, auc = metrics.mask_detection_roc(self.model, self.roc_images,
                                                     self.roc_labels)
            return (tuple(points), auc)
        report = metrics.compute_metrics(metrics.protocol_scores(self.model, self.split, mode))
        return tuple(report.as_dict().items())

    def warm_up(self):
        for mode in self.MODES:
            self.query(mode)

    def run_pass(self, phase):
        results = []
        for mode in self.MODES:
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                result = self.query(mode)
            except ValueError as exc:
                phase.failed += 1
                phase.errors.append(f"{mode}: {exc}")
                result = None
            phase.op_s.append(time.perf_counter() - t0)
            phase.items += self.images[mode]
            if result is not None and not _finite(result):
                phase.failed += 1
                phase.errors.append(f"{mode}: non-finite result")
            results.append(result)
        return tuple(results)

    def final_checks(self):
        errors = []
        rounded = {k: v.astype(np.float32).astype(np.float64)
                   for k, v in self._saved.params.items()}
        if not _same(rounded, self.model.params):
            errors.append("load_checkpoint does not return the float32-rounded "
                          "saved parameters")
        fx = self.fx
        images = self.roc_images[:, None]
        threads = max(2, os.cpu_count() or 1)
        one = fx.model.embed_images(self.model, images, threads=1)
        many = fx.model.embed_images(self.model, images, threads=threads)
        if not _same(one, many):
            errors.append(f"embed_images differs between 1 and {threads} pool threads")
        worked = fx.metrics.compute_metrics(fx.metrics.ScoreSet(
            genuine=np.array([0.9, 0.7, 0.6, 0.4]),
            impostor=np.array([0.5, 0.3, 0.2, 0.1])))
        if not (worked.eer == 0.25 and worked.fmr100 == 0.25):
            errors.append(f"compute_metrics worked example gave eer {worked.eer} "
                          f"fmr100 {worked.fmr100}, expected 0.25 and 0.25")
        return errors

    def extra_layers(self, tracer_factory, child_env):
        """embed_images throughput at pool threads 1 and nproc, BLAS at its default.

        The timed process has BLAS pinned to one thread, so the sweep runs in
        a child interpreter (``sweep.py``) with the environment as found.
        """
        sweep = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweep.py")
        workdir = os.path.join(self.workdir, "sweep")
        os.makedirs(workdir, exist_ok=True)
        child = subprocess.run([sys.executable, sweep, str(self.seed), workdir],
                               env=child_env, capture_output=True, text=True,
                               timeout=150)
        if child.returncode != 0:
            return {}, [f"sweep.py exited with {child.returncode}: "
                        f"{child.stderr.strip()[-300:]}"]
        per_s = json.loads(child.stdout.splitlines()[-1])
        return {f"model.embed_images_per_s.threads_{k}": (v, "1/s")
                for k, v in per_s.items()}, []


def embed_sweep(workload: "Verify") -> dict:
    """Images per second of embed_images over the mask-detection set, by pool size.

    Returns {"1": ..., "nproc": ...}; the two sizes alternate over SWEEP_REPS
    rounds and each reports its median.
    """
    images = workload.roc_images[:, None]
    nproc = os.cpu_count() or 1
    times = {1: [], nproc: []}
    for rep in range(SWEEP_REPS):
        order = (1, nproc) if rep % 2 == 0 else (nproc, 1)
        for threads in order:
            t0 = time.perf_counter()
            workload.fx.model.embed_images(workload.model, images, threads=threads)
            times[threads].append(time.perf_counter() - t0)
    return {"1": len(images) / statistics.median(times[1]),
            "nproc": len(images) / statistics.median(times[nproc])}


def _finite(result) -> bool:
    values = []

    def collect(x):
        if isinstance(x, (tuple, list)):
            for y in x:
                collect(y)
        elif isinstance(x, (int, float)):
            values.append(float(x))

    collect(result)
    return all(math.isfinite(v) for v in values)


WORKLOADS = {w.name: w for w in (Train, Verify)}
