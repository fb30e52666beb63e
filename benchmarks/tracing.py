"""Outside-in tracing of the focusface package, for the benchmark's traced runs.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
public functions and methods of the package with wrappers that time each
call and then call through unchanged, so a traced run computes exactly what
an untraced one does; ``Tracer.uninstall`` puts the originals back.

Wrapped boundaries:

- every ``Tape`` op method (forward time per recorded op kind), the
  ``backward_fn`` of every node those ops record (backward time per kind),
  ``Tape.backward`` and ``Tape.__init__``;
- the public entry points of ``data``, ``model``, ``losses``, ``training``,
  ``metrics`` and ``checks`` that the per-layer metrics name, plus the probe
  callables of ``checks.ALL_CHECKS``.

Spans are aggregated in memory by name (calls, total and child time) rather
than kept one by one: one run of the gradient-check registry records
millions of tape ops.  A span's self time is its total minus the time of
the spans nested inside it.
"""

from __future__ import annotations

import copy
import inspect
import time
import weakref
from collections import defaultdict

# Tape methods that record one node each; ``apply`` only dispatches to them.
TAPE_OPS = ("leaf", "add", "sub", "mul", "scale", "matmul", "dot", "sum",
            "flatten", "prelu", "l2_normalize", "conv2d", "custom")

# (module, function) entry points timed as spans named "<module>.<function>".
ENTRY_POINTS = (
    ("data", ("build_splits", "save_corpus", "load_corpus", "train_batch")),
    ("model", ("embed_images", "load_checkpoint")),
    ("losses", ("arcface_loss", "arcface_margin", "cross_entropy",
                "contrastive_mse", "branch_loss", "combined_loss")),
    ("training", ("fit", "train_iteration", "sgd_step")),
    ("metrics", ("protocol_scores", "score_pairs", "compute_metrics",
                 "mask_detection_roc")),
    ("checks", ("run_check", "grad_check")),
)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]
                           if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def set_item(self, mapping, key, value):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def replace_function(self, package_modules, original, wrapper):
        """Point every package module's reference to ``original`` at ``wrapper``.

        Catches the ``from .x import f`` copies that other modules call through.
        """
        for module in package_modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, wrapper)

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)


class Tracer:
    """Span and counter aggregation over the wrapped package boundaries."""

    def __init__(self):
        # name -> [calls, total_ns, child_ns]
        self.spans = defaultdict(lambda: [0, 0, 0])
        # (parent name, child name) -> [calls, total_ns]
        self.nested = defaultdict(lambda: [0, 0])
        self.counters = defaultdict(float)
        # [name, child_ns] per open span; traced runs call the package from
        # one thread, so one stack serves (embed_images stays at threads=1)
        self._stack = []
        self._tape_bytes = weakref.WeakKeyDictionary()  # tape -> nbytes per node
        self._patches = Patches()

    # -- aggregation ---------------------------------------------------------

    def snapshot(self):
        return copy.deepcopy((dict(self.spans), dict(self.nested),
                              dict(self.counters)))

    def restore(self, snap):
        spans, nested, counters = copy.deepcopy(snap)
        self.spans.clear(), self.nested.clear(), self.counters.clear()
        self.spans.update(spans), self.nested.update(nested)
        self.counters.update(counters)

    def since(self, snap):
        """(spans, nested, counters) accumulated after ``snap`` was taken."""
        spans0, nested0, counters0 = snap
        spans = {k: [a - b for a, b in zip(v, spans0.get(k, (0, 0, 0)))]
                 for k, v in self.spans.items()}
        nested = {k: [a - b for a, b in zip(v, nested0.get(k, (0, 0)))]
                  for k, v in self.nested.items()}
        counters = {k: v - counters0.get(k, 0.0) for k, v in self.counters.items()}
        return spans, nested, counters

    def call(self, name, fn, args, kwargs):
        """``fn(*args, **kwargs)`` timed as one span called ``name``."""
        frame = [name, 0]
        stack = self._stack
        stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter_ns() - t0
            stack.pop()
            s = self.spans[name]
            s[0] += 1
            s[1] += dt
            s[2] += frame[1]
            if stack:
                parent = stack[-1]
                parent[1] += dt
                p = self.nested[(parent[0], name)]
                p[0] += 1
                p[1] += dt

    def wrap(self, name, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, kwargs, result)`` runs on success."""
        call = self.call

        def traced(*args, **kwargs):
            result = call(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- install -------------------------------------------------------------

    def install(self, package):
        """Wrap the public boundaries of ``package``, the imported ``focusface``."""
        autodiff, checks, model = package.autodiff, package.checks, package.model
        modules = [m for m in vars(package).values()
                   if inspect.ismodule(m) and m.__name__.startswith(package.__name__)]
        modules.append(package)
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        tape_cls = autodiff.Tape
        self._embed_signature = inspect.signature(model.embed_images)

        for op in TAPE_OPS:
            self._patches.set(tape_cls, op, self._tape_op(op, getattr(tape_cls, op)))
        self._patches.set(tape_cls, "backward",
                          self.wrap("autodiff.backward", tape_cls.backward,
                                    after=self._after_backward))
        init = tape_cls.__init__

        def counted_init(tape, *args, **kwargs):
            init(tape, *args, **kwargs)
            self.counters["autodiff.tapes"] += 1
            self._tape_bytes[tape] = []

        self._patches.set(tape_cls, "__init__", counted_init)

        toy = model.ToyModel
        self._patches.set(toy, "forward", self.wrap("model.forward", toy.forward))
        init_fn = toy.__dict__["init"].__func__
        self._patches.set(toy, "init", classmethod(self.wrap("model.init", init_fn)))

        hooks = {"embed_images": self._after_embed,
                 "protocol_scores": self._after_scores}
        for module_name, functions in ENTRY_POINTS:
            module = by_name[module_name]
            for fn_name in functions:
                original = getattr(module, fn_name)
                if fn_name == "run_check":
                    wrapper = self._run_check_wrapper(original)
                else:
                    wrapper = self.wrap(f"{module_name}.{fn_name}", original,
                                        after=hooks.get(fn_name))
                self._patches.replace_function(modules, original, wrapper)

        for check_name, probe in list(checks.ALL_CHECKS.items()):
            self._patches.set_item(checks.ALL_CHECKS, check_name,
                                   self._counted_probe(probe))

    def uninstall(self):
        self._patches.undo()

    # -- wrappers with bookkeeping ---------------------------------------------

    def _tape_op(self, op, method):
        tape_bytes = self._tape_bytes

        def after(args, kwargs, out):
            tape = args[0]
            kind = args[1] if op == "custom" else op
            node = tape.nodes[out.node_id]
            if node.backward_fn is not None:
                node.backward_fn = self.wrap(f"autodiff.bwd.{kind}", node.backward_fn)
            sizes = tape_bytes.get(tape)
            if sizes is not None:
                sizes.append(out.data.nbytes)
            self.counters[f"autodiff.calls.{kind}"] += 1

        if op == "custom":
            # the span is named after the recorded kind (cross_entropy, ...)
            def custom(*args, **kwargs):
                out = self.call(f"autodiff.fwd.{args[1]}", method, args, kwargs)
                after(args, kwargs, out)
                return out
            return custom
        return self.wrap(f"autodiff.fwd.{op}", method, after=after)

    def _after_backward(self, args, kwargs, grads):
        """Gradient-buffer accounting for one ``Tape.backward`` call.

        Every node gets a buffer the size of its value; a buffer is useful
        when its node is a trainable leaf or depends on one, so gradient can
        flow from it to a parameter.
        """
        tape = args[0]
        sizes = self._tape_bytes.get(tape, [])
        trainable = set(tape.parameters)
        reach = []
        useful = 0
        for node_id, node in enumerate(tape.nodes):
            r = node_id in trainable or any(reach[i] for i in node.input_ids)
            reach.append(r)
            if r and node_id < len(sizes):
                useful += sizes[node_id]
        c = self.counters
        c["autodiff.backward_nodes"] += len(tape.nodes)
        c["autodiff.grad_bytes"] += sum(sizes)
        c["autodiff.useful_grad_bytes"] += useful

    def _after_embed(self, args, kwargs, result):
        bound = self._embed_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self.counters["model.embed_images.images"] += len(bound.arguments["images"])
        self.counters["model.embed_images.threads"] += bound.arguments["threads"]

    def _after_scores(self, args, kwargs, scores):
        self.counters["metrics.scores"] += scores.genuine.size + scores.impostor.size

    def _run_check_wrapper(self, original):
        def run_check(name, *args, **kwargs):
            return self.call(f"checks.run_check.{name}", original,
                             (name,) + args, kwargs)
        return run_check

    def _counted_probe(self, probe):
        def counted(rng):
            self.counters["checks.probe_draws"] += 1
            return probe(rng)
        return counted


# -- per-layer metrics ---------------------------------------------------------

# Op kinds a default training step records, plus ``dot`` (gradient checks only).
KINDS = ("leaf", "conv2d", "prelu", "add", "matmul", "l2_normalize", "scale",
         "flatten", "sub", "mul", "sum", "cross_entropy", "arcface_margin", "dot")

PER_CALL = (  # (metric, span, unit): mean time per call of the span
    ("model.forward_ms", "model.forward", "ms"),
    ("model.embed_images_ms", "model.embed_images", "ms"),
    ("model.init_ms", "model.init", "ms"),
    ("model.load_checkpoint_ms", "model.load_checkpoint", "ms"),
    ("losses.arcface_loss_ms", "losses.arcface_loss", "ms"),
    ("losses.cross_entropy_ms", "losses.cross_entropy", "ms"),
    ("losses.contrastive_mse_ms", "losses.contrastive_mse", "ms"),
    ("losses.branch_loss_ms", "losses.branch_loss", "ms"),
    ("losses.combined_loss_ms", "losses.combined_loss", "ms"),
    ("data.train_batch_ms", "data.train_batch", "ms"),
    ("data.build_splits_s", "data.build_splits", "s"),
    ("data.save_corpus_s", "data.save_corpus", "s"),
    ("data.load_corpus_s", "data.load_corpus", "s"),
    ("training.train_iteration_ms", "training.train_iteration", "ms"),
    ("training.sgd_step_ms", "training.sgd_step", "ms"),
    ("metrics.protocol_scores_ms", "metrics.protocol_scores", "ms"),
    ("metrics.score_pairs_ms", "metrics.score_pairs", "ms"),
    ("metrics.compute_metrics_ms", "metrics.compute_metrics", "ms"),
    ("metrics.mask_detection_roc_ms", "metrics.mask_detection_roc", "ms"),
    ("checks.grad_check_ms", "checks.grad_check", "ms"),
)

_SCALE = {"ms": 1e-6, "s": 1e-9}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, timed_mark, ops, passes, check_names):
    """Per-layer metrics of a traced phase as {name: (value, unit)}.

    Per-call times average every call after set-up began (warm-up calls are
    discarded by the caller); per-op and per-pass values divide what the
    timed loop did by ``ops``, the operations it completed, or ``passes``.
    A layer the workload never calls reads 0.
    """
    spans, nested, counters = tracer.spans, tracer.nested, tracer.counters
    t_spans, t_nested, t_counters = tracer.since(timed_mark)
    out = {}

    def per_call(span, unit):
        calls, total, _ = spans.get(span, (0, 0, 0))
        return _ratio(total * _SCALE[unit], calls)

    def per_op_ms(span):
        return _ratio(t_spans.get(span, (0, 0, 0))[1] * 1e-6, ops)

    for kind in KINDS:
        # a fused op's forward work happens in the losses function that
        # records it, before Tape.custom is called
        fwd = f"losses.{kind}" if f"losses.{kind}" in spans else f"autodiff.fwd.{kind}"
        out[f"autodiff.fwd_ms.{kind}"] = (per_op_ms(fwd), "ms/op")
        if kind != "leaf":
            out[f"autodiff.bwd_ms.{kind}"] = (per_op_ms(f"autodiff.bwd.{kind}"), "ms/op")
        out[f"autodiff.calls.{kind}"] = (
            _ratio(t_counters.get(f"autodiff.calls.{kind}", 0.0), ops), "count/op")
    b_calls, b_total, b_child = spans.get("autodiff.backward", (0, 0, 0))
    out["autodiff.backward_ms"] = (_ratio(b_total * 1e-6, b_calls), "ms")
    out["autodiff.backward_self_ms"] = (_ratio((b_total - b_child) * 1e-6, b_calls), "ms")
    out["autodiff.nodes_per_tape"] = (
        _ratio(counters.get("autodiff.backward_nodes", 0.0), b_calls), "count")
    grad_bytes = counters.get("autodiff.grad_bytes", 0.0)
    out["autodiff.grad_bytes_per_backward"] = (_ratio(grad_bytes, b_calls), "B")
    out["autodiff.useful_grad_byte_ratio"] = (
        _ratio(counters.get("autodiff.useful_grad_bytes", 0.0), grad_bytes), "ratio")
    out["autodiff.tapes_built"] = (
        _ratio(t_counters.get("autodiff.tapes", 0.0), ops), "count/op")

    for metric, span, unit in PER_CALL:
        out[metric] = (per_call(span, unit), unit)

    e_calls, e_total, _ = spans.get("model.embed_images", (0, 0, 0))
    out["model.embed_images_per_s"] = (
        _ratio(counters.get("model.embed_images.images", 0.0), e_total * 1e-9), "1/s")
    out["model.pool_threads"] = (
        _ratio(counters.get("model.embed_images.threads", 0.0), e_calls), "count")
    for threads in ("1", "nproc"):  # the verify workload's pool sweep sets these
        out[f"model.embed_images_per_s.threads_{threads}"] = (0.0, "1/s")

    # validation is the scoring fit does between steps
    v_calls, v_scores = nested.get(("training.fit", "metrics.protocol_scores"), (0, 0))
    v_metrics = nested.get(("training.fit", "metrics.compute_metrics"), (0, 0))[1]
    fit_total = spans.get("training.fit", (0, 0, 0))[1]
    out["training.validation_ms"] = (_ratio((v_scores + v_metrics) * 1e-6, v_calls), "ms")
    out["training.validation_share"] = (_ratio(v_scores + v_metrics, fit_total), "ratio")

    out["metrics.scores_per_query"] = (
        _ratio(counters.get("metrics.scores", 0.0),
               spans.get("metrics.protocol_scores", (0, 0, 0))[0]), "count")

    # a pass of the registry runs every check once at its default point count
    for name in check_names:
        total = t_spans.get(f"checks.run_check.{name}", (0, 0, 0))[1]
        out[f"checks.run_check_ms.{name}"] = (_ratio(total * 1e-6, passes), "ms/pass")
    draws = t_counters.get("checks.probe_draws", 0.0)
    out["checks.probe_draws"] = (_ratio(draws, passes), "count/pass")
    out["checks.probe_draw_ratio"] = (
        _ratio(t_spans.get("checks.grad_check", (0, 0, 0))[0], draws), "ratio")
    return out
