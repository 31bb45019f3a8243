"""Spans around fedprompt's layer boundaries, recorded from outside the package.

Nothing under src/ knows about tracing.  install() replaces chosen public
functions with timing wrappers in every fedprompt namespace that binds
them, so a call through `federation.translate_one` or
`evaluation.sample_image` is caught where the caller looks the name up.
The small autograd ops and Tensor methods stay unwrapped: they run
hundreds of times per step, and a wrapper on each would cost more than
the work it times.  Their cost lands in the self time of the layer
that calls them.

Each span is [name, start, end, parent index, run id], kept in memory
and written out when the run ends.  Self time is a span's duration
minus the durations of its direct children.
"""

import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

# defining module -> public functions wrapped wherever they are bound
TRACED = {
    "cli": ("main",),
    "config": ("load_config",),
    "seeding": ("rng_for",),
    "world": ("build_world", "sample_image", "text_feature"),
    "partition": ("partition_classes", "build_client_dataset"),
    "translator": ("init_translator_params", "translate_one"),
    "autograd": ("backward", "cross_entropy", "grad_check"),
    "federation": ("run_training", "local_update", "class_logits", "sgd_step", "fedavg"),
    "container": ("save_checkpoint", "load_checkpoint"),
    "evaluation": ("evaluate_both_splits", "evaluate", "class_features"),
    "diagnostics": ("composite_grad_check",),
}

# per-layer metrics: name -> (unit, how it is computed)
#   ("ms", span)        median per-call duration of the span
#   ("self_ms", span)   median per-call self time
#   ("calls", span)     calls per traced cycle
#   ("observed", key)   structural value read from call arguments
#   ("trace", key)      tracing overhead and self-time coverage
LAYER_METRICS = {
    "autograd.nodes_per_step": ("count", ("observed", "nodes_per_step")),
    "autograd.backward.ms": ("ms", ("ms", "autograd.backward")),
    "autograd.cross_entropy.ms": ("ms", ("ms", "autograd.cross_entropy")),
    "translator.translate_one.calls": ("count", ("calls", "translator.translate_one")),
    "translator.translate_one.ms": ("ms", ("ms", "translator.translate_one")),
    "world.text_feature.ms": ("ms", ("ms", "world.text_feature")),
    "world.sample_image.calls": ("count", ("calls", "world.sample_image")),
    "world.sample_image.ms": ("ms", ("ms", "world.sample_image")),
    "federation.class_logits.ms": ("ms", ("ms", "federation.class_logits")),
    "federation.local_update.self_ms": ("ms", ("self_ms", "federation.local_update")),
    "federation.sgd_step.ms": ("ms", ("ms", "federation.sgd_step")),
    "federation.sgd_step.scalars": ("count", ("observed", "sgd_step_scalars")),
    "federation.fedavg.ms": ("ms", ("ms", "federation.fedavg")),
    "federation.fedavg.bytes": ("bytes_computed", ("observed", "fedavg_bytes")),
    "container.save_checkpoint.ms": ("ms", ("ms", "container.save_checkpoint")),
    "container.save_checkpoint.bytes": ("bytes", ("observed", "checkpoint_bytes")),
    "container.load_checkpoint.ms": ("ms", ("ms", "container.load_checkpoint")),
    "evaluation.class_features.ms": ("ms", ("ms", "evaluation.class_features")),
    "evaluation.evaluate.ms": ("ms", ("ms", "evaluation.evaluate")),
    "diagnostics.loss_evals": ("count", ("observed", "loss_evals")),
    "diagnostics.grad_check.ms": ("ms", ("ms", "autograd.grad_check")),
    "partition.build_client_dataset.ms": ("ms", ("ms", "partition.build_client_dataset")),
    "seeding.rng_for.calls": ("count", ("calls", "seeding.rng_for")),
    "config.load_config.ms": ("ms", ("ms", "config.load_config")),
    "trace.overhead_pct": ("%", ("trace", "overhead_pct")),
    "trace.estimated_overhead_pct": ("%", ("trace", "estimated_overhead_pct")),
    "trace.self_cover_pct": ("%", ("trace", "self_cover_pct")),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = ""
        self.observed = {}
        self.op_histogram = None
        self._stack = []

    @contextmanager
    def span(self, name):
        """Span around code of the benchmark itself, named bench.*."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if observe is not None:
                observe(self, args)
            return result

        return traced

    def install(self, modules):
        """Wrap every TRACED function in each of `modules` that binds it.

        `modules` maps a short name ("world", "cli", ...) to a freshly
        imported fedprompt module; the package itself may be included.
        """
        for home, names in TRACED.items():
            for fn_name in names:
                original = getattr(modules[home], fn_name)
                wrapped = self.wrap(f"{home}.{fn_name}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, run_id in self.spans:
                f.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "run": run_id}
                ) + "\n")


def _observe_backward(tracer, args):
    # one exact walk of the first step's graph: the loss node's parents, transitively
    if tracer.op_histogram is not None:
        return
    with tracer.span("bench.graph_walk"):
        seen, stack, ops = set(), [args[0]], Counter()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            ops[node.op] += 1
            stack.extend(node.parents)
    tracer.op_histogram = dict(sorted(ops.items()))
    tracer.observed["nodes_per_step"] = sum(ops.values())


def _observe_sgd_step(tracer, args):
    tracer.observed["sgd_step_scalars"] = args[0].n_scalars()


def _observe_fedavg(tracer, args):
    updates = args[0]
    # computed, not measured: float64 payload of every update read once
    tracer.observed["fedavg_bytes"] = len(updates) * updates[0].params.n_scalars() * 8


def _observe_save_checkpoint(tracer, args):
    tracer.observed["checkpoint_bytes"] = os.path.getsize(args[0])


OBSERVERS = {
    "autograd.backward": _observe_backward,
    "federation.sgd_step": _observe_sgd_step,
    "federation.fedavg": _observe_fedavg,
    "container.save_checkpoint": _observe_save_checkpoint,
}


def summarize(tracer, cycles):
    """Per-layer metrics and a self-time table from the traced cycles.

    `cycles` holds one pair per traced cycle: the untraced and the traced
    cycle, each as (wall s, rescaled s).  Every traced cycle does the same
    work, so counts are exact per-cycle numbers.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations, self_times = defaultdict(list), defaultdict(list)
    for i, (name, start, end, _, _) in enumerate(spans):
        durations[name].append(end - start)
        self_times[name].append(end - start - child_time[i])

    n_cycles = len(cycles)
    traced_wall = sum(wall for _, (wall, _) in cycles)
    observed = dict(tracer.observed)
    grad_checks = len(durations["autograd.grad_check"])
    observed["loss_evals"] = (
        sum(1 for i, s in enumerate(spans)
            if s[0] == "autograd.cross_entropy" and _under(spans, i, "autograd.grad_check"))
        / grad_checks if grad_checks else 0
    )
    untraced_wall = statistics.median(wall for (wall, _), _ in cycles)
    trace = {
        "overhead_pct": statistics.median(100.0 * (t / u - 1.0) for (_, u), (_, t) in cycles),
        # the wrapper's own cost times the spans of a cycle: a floor for
        # overhead_pct that host speed drift between cycles cannot hide
        "estimated_overhead_pct": 100.0 * len(spans) / n_cycles * span_cost_s() / untraced_wall,
        "self_cover_pct": 100.0 * sum(sum(v) for v in self_times.values()) / traced_wall,
    }

    metrics = {}
    for metric, (unit, (kind, key)) in LAYER_METRICS.items():
        if kind == "ms":
            value = 1000.0 * statistics.median(durations[key])
        elif kind == "self_ms":
            value = 1000.0 * statistics.median(self_times[key])
        elif kind == "calls":
            value = len(durations[key]) / n_cycles
        elif kind == "observed":
            value = observed[key]
        else:
            value = trace[key]
        metrics[metric] = (value, unit)

    layers = {
        name: {
            "calls": len(durations[name]) / n_cycles,
            "total_ms": 1000.0 * sum(durations[name]) / n_cycles,
            "self_ms": 1000.0 * sum(self_times[name]) / n_cycles,
        }
        for name in sorted(durations, key=lambda n: -sum(self_times[n]))
    }
    return metrics, {
        "cycles": n_cycles,
        "traced_cycle_s": [t for _, t in cycles],
        "untraced_cycle_s": [u for u, _ in cycles],
        "op_histogram": tracer.op_histogram,
        "self_time_by_layer": layers,
    }


def span_cost_s(calls=20000):
    """Seconds one span adds to a call, timed on a no-op function."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - start - bare, 0.0) / calls


def _under(spans, i, ancestor):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False
