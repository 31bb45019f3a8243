"""Benchmark of fedprompt: one workload, measured in one process.

    python3 bench/run.py --workload train_default --seed 0 --seconds 20 --trace 0

Run from the repository root (or any copy of it that holds src/).  With
--trace 0 it measures the end-to-end metrics; with --trace 1 it measures
the per-layer metrics and the tracing overhead instead.  It prints one
line per metric, then the environment, fingerprint and checks, and as
the last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The full record is also written to bench/out/.
See bench/README.md for what each workload and metric is for.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# BLAS threads capped at nproc before numpy loads; the matrices here are
# small enough that the cap mostly keeps OpenBLAS from spinning idle threads
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="Measure one fedprompt benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="master_seed of every input")
    p.add_argument("--seconds", type=int, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be in [0, 2**63)")
    if args.seconds < 1:
        p.error("--seconds must be positive")
    return args


def check_declared(workloads, end_to_end, per_layer):
    """BENCHMARK.json must declare the workloads, metrics and units measured here."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in declared["workloads"]] != list(workloads):
        raise SystemExit("BENCHMARK.json workloads differ from bench/workloads.py")
    for key, ours in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        if {m["name"]: m["unit"] for m in declared[key]} != ours:
            raise SystemExit(f"BENCHMARK.json {key} metrics differ from the benchmark's")


def environment(seed):
    import numpy
    import scipy

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fedprompt" / "__init__.py").is_file():
        print(f"error: no fedprompt sources at {SRC.relative_to(ROOT)}/; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import_start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401

    import fedprompt
    from tracing import LAYER_METRICS, Tracer, summarize
    from workloads import END_TO_END, WORKLOADS, Aborted, Run

    # the sources measured must be this checkout's, not an installed copy
    if Path(fedprompt.__file__).resolve().parent != SRC / "fedprompt":
        print(f"error: fedprompt imports from {fedprompt.__file__}", file=sys.stderr)
        return 2

    check_declared(WORKLOADS, END_TO_END, {name: unit for name, (unit, _) in LAYER_METRICS.items()})
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "interpreter_start_to_main_s": import_start - PROCESS_START,
        "numpy_scipy_import_s": time.perf_counter() - import_start,
    }

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    tracer = Tracer() if args.trace else None
    run = Run(WORKLOADS[args.workload], args.seed, workdir, tracer)
    metrics = {}
    try:
        if tracer is None:
            run.measure(args.seconds)
            metrics = run.end_to_end()
        else:
            pairs = run.measure_traced(args.seconds)
    except Aborted:
        pass  # the failure is counted; report what was attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    correct = run.failed == 0
    if tracer is not None and correct:
        layer, layer_detail = summarize(tracer, pairs)
        metrics = {name: (value, unit, layer_detail["cycles"]) for name, (value, unit) in layer.items()}
        detail.update(layer_detail)
        tracer.write_jsonl(OUT / f"{stem}-spans.jsonl")

    detail.update(run.detail)
    detail["checks_passed"] = dict(run.checks)
    detail["failures"] = run.failures
    detail["failed_frac"] = run.failed / max(run.attempted, 1)
    detail["samples"] = {name: n for name, (_, _, n) in metrics.items()}

    for name, (value, unit, n) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}  (n={n})")
    print(f"{args.workload} failed_frac = {detail['failed_frac']:g}  ({run.failed}/{run.attempted})")
    for key in ("environment", "fingerprint", "checks_passed", "failures", "op_histogram"):
        if detail.get(key):
            print(f"{key}: {json.dumps(detail[key], sort_keys=True)}")

    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
