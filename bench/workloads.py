"""The benchmark's workloads and the closed-loop run that measures one of them.

Every workload runs the whole user cycle -- `fedprompt train`, then
`fedprompt eval` on the checkpoint, then `fedprompt gradcheck` -- one
operation at a time in this process, so every end-to-end metric has
samples on every workload.  The workloads differ in configuration and
in which part of the cycle the measuring time goes to: the training
workloads repeat `train` until the time is spent, `probe` repeats eval
and gradcheck on a checkpoint it trained first.

Each operation is an attempt; it fails on an exception, a non-zero exit
code from the command line, or a failed output check.
"""

import bisect
import hashlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[str, ...]
    # "train": repeated training gets the measuring time; "probe": eval and gradcheck do
    timed: str


# why each workload exists is recorded in BENCHMARK.json and bench/README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_default", (), "train"),
        Workload(
            "train_wide",
            (
                "world.d=128",
                "world.n_base=120",
                "federation.n_clients=40",
                "federation.classes_per_client=3",
                "federation.shots=2",
                "federation.rounds=10",
            ),
            "train",
        ),
        Workload("probe", ("federation.rounds=10",), "probe"),
    )
}

SETUP_REPEATS = 11
MIN_TRAIN_REPS = 2  # two same-seed runs, so their bytes can be compared
EVALS_PER_PASS = 5  # evals are short and vary run to run, so take several

# behaviour fingerprint of train_default at seed 0 before any perf change;
# recorded next to each result, never gated on
REFERENCE_FINGERPRINT = {
    "checkpoint_sha256": "e1eb24bbb0331ca6da820b2a71aa1b8acc40adf6f0b057d3864d38418f6391b4",
    "trained": {"base": 68.8, "new": 57.8},
    "zero_context": {"base": 50.36666666666667, "new": 63.8},
}

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "round_ms.p50": "ms",
    "round_ms.tail": "ms",
    "samples_per_s": "1/s",
    "eval_s": "s",
    "gradcheck_s": "s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    pass


class Aborted(Exception):
    """An attempt failed; the run stops measuring and reports what it has."""


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# The host this was tuned on changes speed by up to 1.8x within a minute,
# far more than any bound could absorb.  Fixed work in the program's own
# style -- small float64 arrays copied, finite-checked and multiplied in
# a Python loop -- slows down with the program.  The benchmark times it
# between operations, between rounds and inside gradchecks, and rescales
# each timing by the median reference from REFERENCE_WINDOW_S before it to
# REFERENCE_WINDOW_S after it: times read as seconds on a host where
# reference_s() takes REFERENCE_NOMINAL_S.  The median drops the
# millisecond bursts a single reference can catch.  Raw wall times go to
# the detail record.
REFERENCE_NOMINAL_S = 0.008
REFERENCE_WINDOW_S = 2.0
REFERENCES_PER_EDGE = 3
REFERENCE_EVERY_LOSSES = 100  # inside a gradcheck, which has no other breaks
_REFERENCE_X = np.full((4, 32), 0.5)
_REFERENCE_W = np.eye(32)


def reference_s():
    start = time.perf_counter()
    for _ in range(1500):
        y = np.array(_REFERENCE_X, dtype=np.float64, copy=True)
        np.all(np.isfinite(y))
        y @ _REFERENCE_W
    return time.perf_counter() - start


class ReferenceClock:
    """Wall-time intervals and the reference timings taken around them."""

    def __init__(self):
        self.references = []  # (time, seconds), in time order
        self.intervals = defaultdict(list)  # metric -> [(start, end, paused s)]

    def reference(self):
        start = time.perf_counter()
        seconds = reference_s()
        self.references.append((start, seconds))
        return time.perf_counter() - start

    def scale(self, start, end):
        """Nominal over the median reference from REFERENCE_WINDOW_S before to after."""
        times = [t for t, _ in self.references]
        lo = bisect.bisect_left(times, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(times, end + REFERENCE_WINDOW_S)
        return REFERENCE_NOMINAL_S / statistics.median(s for _, s in self.references[lo:hi])

    def raw(self, metric):
        return [end - start - paused for start, end, paused in self.intervals[metric]]

    def rescaled(self, metric):
        return [
            (end - start - paused) * self.scale(start, end)
            for start, end, paused in self.intervals[metric]
        ]


def fresh_import(tracer=None):
    """Import fedprompt from scratch, as a new process would.

    numpy and scipy stay loaded; every fedprompt module is dropped and
    imported again.  With a tracer, the new modules get its wrappers.
    """
    for name in [m for m in sys.modules if m == "fedprompt" or m.startswith("fedprompt.")]:
        del sys.modules[name]
    with tracer.span("bench.import") if tracer else nullcontext():
        package = importlib.import_module("fedprompt")
    modules = {
        name.rpartition(".")[2]: module
        for name, module in sys.modules.items()
        if name.startswith("fedprompt.")
    }
    if tracer is not None:
        tracer.install({**modules, "fedprompt": package})
    return SimpleNamespace(**modules)


def tail(values):
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Run:
    def __init__(self, workload, seed, workdir, tracer=None):
        self.workload = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.tracer = tracer  # set for the traced run only
        self.overrides = (*workload.overrides, f"master_seed={seed}")
        self.clock = ReferenceClock()
        self.trainings = []  # (first round, rounds, samples trained) per training
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.checks = defaultdict(int)
        self.detail = {}
        self.fp = None
        self.active = None  # the tracer while a traced cycle runs

    # ----------------------------------------------------------- bookkeeping

    def attempt(self, what, fn, *args, metric=None):
        """Run one operation; with `metric`, record its time as a sample."""
        self.attempted += 1
        try:
            with self.active.span(f"bench.{what}") if self.active else nullcontext():
                if metric is None:
                    return fn(*args)
                for _ in range(REFERENCES_PER_EDGE):
                    self.reference()
                start = time.perf_counter()
                result = fn(*args)
                self.clock.intervals[metric].append((start, time.perf_counter(), 0.0))
                for _ in range(REFERENCES_PER_EDGE):
                    self.reference()
                return result
        except Exception as err:  # any failure of the program under test counts
            self.failed += 1
            self.failures.append(f"{what}: {type(err).__name__}: {err}")
            raise Aborted from err

    def reference(self):
        with self.active.span("bench.reference") if self.active else nullcontext():
            self.clock.reference()

    def check(self, name, ok, message):
        if not ok:
            raise CheckFailed(f"{name}: {message}")
        self.checks[name] += 1

    def path(self, name):
        return str(self.workdir / name)

    # ------------------------------------------------------------ operations

    def setup(self):
        """What `fedprompt train` does before its first round."""
        fp = fresh_import(self.active)
        cfg = fp.config.load_config(None, self.overrides)
        world = fp.world.build_world(cfg.world)
        blocks = fp.partition.partition_classes(
            cfg.world.n_base, cfg.n_clients, cfg.classes_per_client, cfg.master_seed
        )
        datasets = {
            cid: fp.partition.build_client_dataset(world, block, cfg.shots, cfg.master_seed, cid)
            for cid, block in enumerate(blocks)
        }
        fp.translator.init_translator_params(cfg.translator, cfg.master_seed)
        self.fp, self.cfg, self.world = fp, cfg, world
        self.dataset_sizes = {cid: len(ds) for cid, ds in datasets.items()}

    def setup_probe(self):
        """What `fedprompt eval` does before its first evaluation."""
        fp = fresh_import(self.active)
        checkpoint = self.checkpoint
        params, echo = fp.container.load_checkpoint(checkpoint)
        cfg = fp.config.build_config(fp.config.parse_config_text(echo, source=checkpoint))
        expected = tuple(sorted(fp.translator.translator_schema(cfg.translator)))
        self.check("checkpoint-schema", params.schema() == expected, "schema differs from its config")
        world = fp.world.build_world(cfg.world)
        self.fp, self.cfg, self.world, self.params = fp, cfg, world, params

    def train(self, rep):
        """One `fedprompt train`, timed round by round, then its output checks."""
        fp, cfg = self.fp, self.cfg
        checkpoint, log = self.path(f"train{rep}.ftpg"), self.path(f"train{rep}.jsonl")
        rounds = self.clock.intervals["round_s"]
        first_round = len(rounds)
        run_training = fp.cli.run_training

        def timed_run_training(*args, on_round, **kwargs):
            # a round ends after the CLI's checkpoint and log write; the
            # reference runs between rounds, outside their times
            self.reference()
            start = time.perf_counter()

            def on_round_timed(params, round_log):
                nonlocal start
                on_round(params, round_log)
                rounds.append((start, time.perf_counter(), 0.0))
                self.reference()
                start = time.perf_counter()

            return run_training(*args, on_round=on_round_timed, **kwargs)

        set_args = [arg for o in self.overrides for arg in ("--set", o)]
        fp.cli.run_training = timed_run_training
        try:
            with redirect_stdout(io.StringIO()):
                code = fp.cli.main(["train", *set_args, "--checkpoint", checkpoint, "--log", log])
        finally:
            fp.cli.run_training = run_training
        self.check("train-exit", code == 0, f"fedprompt train exited with {code}")

        params, echo = fp.container.load_checkpoint(checkpoint)
        expected = tuple(sorted(fp.translator.translator_schema(cfg.translator)))
        self.check("checkpoint-schema", params.schema() == expected, "schema differs from config")
        self.check(
            "checkpoint-marker",
            echo == fp.config.with_round_marker(fp.config.canonical_text(cfg), cfg.rounds),
            f"config echo or marker is not rounds={cfg.rounds}",
        )
        lines = Path(log).read_text(encoding="utf-8").splitlines()
        self.check("log-rounds", len(lines) == cfg.rounds, f"{len(lines)} log lines")
        logged = [json.loads(line) for line in lines]
        losses = [v for r in logged for v in r["client_loss"].values()]
        self.check("loss-finite", all(math.isfinite(v) for v in losses), "non-finite loss")

        digests = (sha256(checkpoint), sha256(log))
        if rep == 0:
            self.first_digests = digests
        self.check(
            "same-seed-bytes", digests == self.first_digests,
            f"run {rep} differs from run 0 with the same seed",
        )
        trained = cfg.local_epochs * sum(self.dataset_sizes[c] for r in logged for c in r["selected"])
        self.trainings.append((first_round, len(rounds) - first_round, trained))
        self.checkpoint, self.params = checkpoint, params

    def evaluate(self):
        """The work of `fedprompt eval`: trained and zero-context scores."""
        fp, cfg = self.fp, self.cfg
        args = (self.world, cfg.translator, cfg.n_test, cfg.optimizer.temperature, cfg.master_seed)
        trained = fp.evaluation.evaluate_both_splits(self.params, *args)
        zero = fp.evaluation.evaluate_both_splits(None, *args)
        if not hasattr(self, "scores"):
            self.scores = (trained, zero)
        # fields, not objects: each fresh import brings its own EvalResult class
        self.check(
            "eval-repeatable",
            [(r.base_acc, r.new_acc) for r in (trained, zero)]
            == [(r.base_acc, r.new_acc) for r in self.scores],
            "repeat eval differs",
        )

    def eval_command(self):
        """`fedprompt eval` must write what a direct evaluation computes."""
        out = self.path("eval.json")
        with redirect_stdout(io.StringIO()):
            code = self.fp.cli.main(["eval", "--checkpoint", self.checkpoint, "--out", out])
        self.check("eval-exit", code == 0, f"fedprompt eval exited with {code}")
        self.check(
            "eval-matches-direct",
            Path(out).read_text(encoding="utf-8") == self.fp.reporting.eval_result_json(*self.scores),
            "eval.json differs from evaluate_both_splits on the loaded checkpoint",
        )

    def gradcheck(self):
        """One composite gradient check, with references between its loss
        evaluations in the untraced run; their time is taken out again."""
        fp = self.fp
        grad_check = fp.diagnostics.grad_check
        paused = 0.0

        def grad_check_with_references(loss_fn, params, h):
            losses = 0

            def loss_fn_with_references():
                nonlocal losses, paused
                losses += 1
                if losses % REFERENCE_EVERY_LOSSES == 0:
                    paused += self.clock.reference()
                return loss_fn()

            return grad_check(loss_fn_with_references, params, h=h)

        if self.tracer is None:
            fp.diagnostics.grad_check = grad_check_with_references
        try:
            start = time.perf_counter()
            err, _, _ = fp.diagnostics.composite_grad_check()
            self.clock.intervals["gradcheck_s"].append((start, time.perf_counter(), paused))
        finally:
            fp.diagnostics.grad_check = grad_check
        self.check(
            "gradcheck", err < fp.diagnostics.GRADCHECK_TOLERANCE,
            f"max relative error {err:.3e} over tolerance",
        )

    # ------------------------------------------------------------------ runs

    def measure(self, seconds):
        """The untraced run behind the end-to-end metrics."""
        if self.workload.timed == "train":
            for _ in range(SETUP_REPEATS):
                self.attempt("setup", self.setup, metric="setup_s")
            start, rep = time.perf_counter(), 0
            while rep < MIN_TRAIN_REPS or time.perf_counter() - start < seconds:
                self.attempt("train", self.train, rep)
                for _ in range(EVALS_PER_PASS):
                    self.attempt("eval", self.evaluate, metric="eval_s")
                rep += 1
            self.attempt("gradcheck", self.gradcheck)
        else:
            self.attempt("setup", self.setup)
            for rep in range(MIN_TRAIN_REPS):
                self.attempt("train", self.train, rep)
            for _ in range(SETUP_REPEATS):
                self.attempt("setup", self.setup_probe, metric="setup_s")
            start = time.perf_counter()
            while not self.clock.intervals["gradcheck_s"] or time.perf_counter() - start < seconds:
                for _ in range(EVALS_PER_PASS):
                    self.attempt("eval", self.evaluate, metric="eval_s")
                self.attempt("gradcheck", self.gradcheck)
        self.attempt("eval-command", self.eval_command)
        self.record_fingerprint()

    def cycle(self, rep, tracer=None):
        """One whole user cycle; traced and untraced cycles do the same work."""
        self.active = tracer
        try:
            start = time.perf_counter()
            self.attempt("setup", self.setup, metric="setup_s")
            self.attempt("train", self.train, rep)
            if self.workload.timed == "probe":
                self.attempt("setup", self.setup_probe, metric="setup_s")
            self.attempt("eval", self.evaluate, metric="eval_s")
            self.attempt("eval-command", self.eval_command)
            self.attempt("gradcheck", self.gradcheck)
            end = time.perf_counter()
            return end - start, (end - start) * self.clock.scale(start, end)
        finally:
            self.active = None

    def measure_traced(self, seconds):
        """Untraced and traced cycles in turn, until the time is spent.

        Returns ((raw, rescaled) untraced s, (raw, rescaled) traced s) per
        pair.  A set-up and a training first warm the process up.  The
        traced training must write the same bytes as the untraced one.
        """
        self.attempt("setup", self.setup)
        self.attempt("train", self.train, 0)
        pairs = []
        start = time.perf_counter()
        while not pairs or time.perf_counter() - start < seconds:
            untraced = self.cycle(2 * len(pairs) + 1)
            self.tracer.run_id = f"cycle{len(pairs)}"
            traced = self.cycle(2 * len(pairs) + 2, self.tracer)
            pairs.append((untraced, traced))
        return pairs

    def record_fingerprint(self):
        trained, zero = self.scores
        fingerprint = {
            "seed": self.seed,
            "checkpoint_sha256": self.first_digests[0],
            "trained": {"base": trained.base_acc, "new": trained.new_acc},
            "zero_context": {"base": zero.base_acc, "new": zero.new_acc},
        }
        if self.workload.name == "train_default" and self.seed == 0:
            fingerprint["matches_reference"] = all(
                fingerprint[k] == v for k, v in REFERENCE_FINGERPRINT.items()
            )
        self.detail["fingerprint"] = fingerprint

    def end_to_end(self):
        """metric -> (value, unit, sample count), for the metrics with samples."""
        clock = self.clock
        rounds = clock.rescaled("round_s")
        samples = {metric: clock.rescaled(metric) for metric in ("setup_s", "eval_s", "gradcheck_s")}
        samples["train_s"] = [sum(rounds[i : i + n]) for i, n, _ in self.trainings]
        samples["samples_per_s"] = [
            trained / train_s for (_, _, trained), train_s in zip(self.trainings, samples["train_s"])
        ]
        out = {}
        for metric, values in samples.items():
            if values:
                out[metric] = (statistics.median(values), END_TO_END[metric], len(values))
        if rounds:
            rounds_ms = [1000.0 * r for r in rounds]
            out["round_ms.p50"] = (statistics.median(rounds_ms), "ms", len(rounds))
            value, percentile = tail(rounds_ms)
            out["round_ms.tail"] = (value, "ms", len(rounds))
            self.detail["round_ms_tail_percentile"] = percentile
        self.detail["raw_wall_median_s"] = {
            metric: statistics.median(clock.raw(metric)) for metric, v in clock.intervals.items() if v
        }
        if clock.references:
            self.detail["reference_median_s"] = statistics.median(s for _, s in clock.references)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["peak_rss_mb"] = (peak_kib / 1024.0, "MB", 1)
        return out
