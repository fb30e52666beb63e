"""Benchmark of the focusface toolkit: one workload per run, one JSON result.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload {train,verify} \\
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` next to this directory, never from an
installed copy.  ``--trace 0`` measures the end-to-end metrics.  ``--trace 1``
measures the workload untraced for half the time, then the same number of
passes again with every package boundary wrapped (see ``tracing.py``), and
reports the per-layer metrics, the tracing overhead of each end-to-end
metric, and whether the traced outputs equal the untraced ones bit for bit.

Standard output ends with two JSON lines: a report (environment, sample
counts, quality values, failed checks) and the result, whose keys are
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FOCUSFACE_THREADS")
# The timed workloads run BLAS on one thread: two BLAS threads spin on both
# cores of a small machine, so any other load on either core shows in every
# timing (and outputs repeat bit for bit only at a fixed BLAS thread count).
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def pin_blas_threads():
    """Pin BLAS threads before numpy loads; returns the environment as found.

    The returned environment is what child processes get when they must run
    with BLAS threads at their default (the pool sweep of ``sweep.py``).
    """
    found = dict(os.environ)
    os.environ.update(BLAS_PIN)
    return found


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_package():
    """Import focusface from ``src/``; returns a namespace of its modules."""
    if not os.path.isfile(os.path.join(SRC, "focusface", "__init__.py")):
        raise SystemExit(f"error: no focusface sources under {SRC}")
    sys.path.insert(0, SRC)
    import focusface
    from focusface import autodiff, checks, data, losses, metrics, model, training
    if os.path.dirname(os.path.dirname(os.path.abspath(focusface.__file__))) != SRC:
        raise SystemExit(f"error: focusface was imported from {focusface.__file__}")
    fx = types.SimpleNamespace(
        package=focusface, autodiff=autodiff, checks=checks, data=data, losses=losses,
        metrics=metrics, model=model, training=training,
        modules=(autodiff, checks, data, losses, metrics, model, training))
    return fx


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, check=True,
                                capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def environment(np, seed, pool_threads, found_env):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        pass
    sha, dirty = git_state()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {k: found_env.get(k) for k in THREAD_VARS},
        "timed_thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "pool_threads": pool_threads,
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "determinism_scope": "outputs are bit-identical only at a fixed BLAS "
                             "thread count",
    }


def result_line(correct, attempted, failed, metrics):
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise SystemExit(f"error: metric {name} is not finite ({value})")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv=None):
    args = parse_args(argv)
    found_env = pin_blas_threads()
    fx = import_package()
    import numpy as np
    import tracing
    import workloads

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        workload = workloads.WORKLOADS[args.workload](fx, args.seed, workdir)
        if not args.trace:
            phase = workloads.measure(workload, seconds=args.seconds)
            phases = [phase]
            errors = workloads.repeat_errors(phase)
            metrics = phase.end_to_end()
        else:
            base = workloads.measure(workload, seconds=args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install(fx.package)
            try:
                phase = workloads.measure(workload, passes=len(base.pass_s),
                                          tracer=tracer)
            finally:
                tracer.uninstall()
            phases = [base, phase]
            errors = workloads.repeat_errors(base) + workloads.repeat_errors(
                phase, reference=base.outputs[0], label="traced pass")
            metrics = tracing.layer_metrics(tracer, phase.timed_mark,
                                            ops=len(phase.op_s),
                                            passes=len(phase.pass_s),
                                            check_names=list(fx.checks.ALL_CHECKS))
            extra, extra_errors = workload.extra_layers(tracing.Tracer, found_env)
            metrics.update(extra)
            errors += extra_errors
            untraced = base.end_to_end()
            for name, (value, unit) in phase.end_to_end().items():
                metrics[f"trace_overhead.{name}"] = (value - untraced[name][0], unit)
        errors += workload.final_checks()
        quality = workload.quality(phases[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(np, args.seed, pool_threads=1, found_env=found_env),
        "samples": [{"setup_reps": len(p.setup_s), "ops": len(p.op_s),
                     "passes": len(p.pass_s), "wall_s": p.wall_s} for p in phases],
        "failure_ratio": failed / attempted if attempted else 0.0,
        "quality": quality,
        "failed_checks": errors,
        "failed_operations": [e for p in phases for e in p.errors][:20],
    }
    print(json.dumps({"report": report}))
    print(result_line(not errors and not failed, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
