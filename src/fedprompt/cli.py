"""Command line front end.

Six subcommands cover the full experiment cycle: make-world samples and
stores a synthetic embedding world, train runs the federated loop and
checkpoints every round, eval scores a checkpoint on base and new
classes, report renders the reference comparison and writes its five
files (two CSV tables, the summary JSON and two SVG charts), and
gradcheck/selftest are built-in health probes.

Exit codes: 0 on success, 1 for usage, configuration and contract errors
(an empty path option, or an output option naming the file of another
path option, is refused before any work), 2 for I/O and file format
errors.
"""

import argparse
import ctypes
import os
import sys

import numpy as np

from fedprompt.charts import error_rate_chart, gap_chart
from fedprompt.config import (
    KEYS,
    apply_overrides,
    build_config,
    canonical_text,
    check_world_echo,
    extract_round,
    load_config,
    parse_config_text,
    with_round_marker,
)
from fedprompt.container import (
    load_checkpoint,
    load_embeddings_file,
    save_checkpoint,
    save_embeddings,
)
from fedprompt.diagnostics import (
    GRADCHECK_TOLERANCE,
    composite_grad_check,
    run_selftest,
)
from fedprompt.errors import ContractError, FormatError, NumericError
from fedprompt.evaluation import evaluate_both_splits
from fedprompt.federation import run_training
from fedprompt.partition import build_client_dataset, partition_classes
from fedprompt.reporting import (
    compare_to_reference,
    comparison_csv,
    eval_result_json,
    fixture_results,
    fmt2,
    overall_text,
    summarize,
    summary_csv,
    summary_json,
)
from fedprompt.translator import init_translator_params, translator_schema
from fedprompt.world import build_world, load_embeddings, world_arrays

# generated from the key registry so this listing cannot drift from
# what the parser accepts
_KEY_LINES = "\n".join(
    f"  {name:<32} {key.default!s:<10} {key.doc}" for name, key in sorted(KEYS.items())
)

USAGE = f"""\
usage: fedprompt <command> [options]

commands:
  make-world   sample a synthetic embedding world and save it
  train        run federated training and checkpoint every round
  eval         score a checkpoint on base and new classes
  report       write the reference comparison tables and charts
  gradcheck    verify analytic gradients against central differences
  selftest     run the built-in correctness probes

config keys (for --config files and --set KEY=VALUE, with defaults):
{_KEY_LINES}

run 'fedprompt <command> --help' for command options
"""


class _Parser(argparse.ArgumentParser):
    """Argparse that reports bad usage as a config error (exit code 1)."""

    def error(self, message):
        raise ContractError(f"{self.prog}: {message}")


def _path(text: str) -> str:
    """Argparse type of every path option: an empty path is a usage error,
    refused before any work is done."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path is not allowed")
    return text


def _parser(command: str, description: str) -> _Parser:
    return _Parser(prog=f"fedprompt {command}", description=description)


def _add_config_options(p: _Parser):
    p.add_argument("--config", type=_path, metavar="PATH", help="key=value config file")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override one config key; repeatable, applied after the file",
    )


def _refuse_shared_paths(a, outputs, inputs) -> None:
    """Refuse, before any file is opened, an output option that names the
    file of another path option of the command: writing one would
    destroy the other."""
    first = {}  # real path -> the first option naming it
    for flag in (*outputs, *inputs):
        if (path := getattr(a, flag[2:])) is not None:
            real = os.path.realpath(path)
            if first.get(real) in outputs:
                raise ContractError(f"{first[real]} and {flag} name the same file {real}")
            first.setdefault(real, flag)


def _world_for(cfg, world_path):
    """The experiment's world: loaded from a stored file made under the
    same world keys, or rebuilt."""
    if world_path is None:
        return build_world(cfg.world)
    arrays, echo = load_embeddings_file(world_path)
    check_world_echo(echo, cfg, world_path)
    return load_embeddings(arrays, cfg.world)


def _cmd_make_world(args) -> int:
    p = _parser("make-world", "Sample the synthetic embedding world and save it.")
    _add_config_options(p)
    p.add_argument("--out", type=_path, default="world.ftpe", metavar="PATH")
    a = p.parse_args(args)
    _refuse_shared_paths(a, ("--out",), ("--config",))
    cfg = load_config(a.config, a.overrides)
    world = build_world(cfg.world)
    save_embeddings(a.out, world_arrays(world), canonical_text(cfg))
    print(
        f"wrote {a.out}: {cfg.world.n_base} base + {cfg.world.n_new} new classes, "
        f"d={cfg.world.d}, seed={cfg.master_seed}"
    )
    return 0


def _cmd_train(args) -> int:
    p = _parser("train", "Run federated training; checkpoint after every round.")
    _add_config_options(p)
    p.add_argument(
        "--world", type=_path, metavar="PATH", help="stored world file; default rebuilds from config"
    )
    p.add_argument("--checkpoint", type=_path, default="model.ftpg", metavar="PATH")
    p.add_argument("--log", type=_path, default="train_log.jsonl", metavar="PATH")
    a = p.parse_args(args)
    _refuse_shared_paths(a, ("--checkpoint", "--log"), ("--config", "--world"))
    cfg = load_config(a.config, a.overrides)
    world = _world_for(cfg, a.world)
    blocks = partition_classes(
        cfg.world.n_base, cfg.n_clients, cfg.classes_per_client, cfg.master_seed
    )
    datasets = {
        cid: build_client_dataset(world, block, cfg.shots, cfg.master_seed, cid)
        for cid, block in enumerate(blocks)
    }
    init = init_translator_params(cfg.translator, cfg.master_seed)
    echo = canonical_text(cfg)

    # append mode opens a bad path before any work but keeps the previous
    # run's lines until this run's first checkpoint is written
    with open(a.log, "a", encoding="utf-8") as log_file:

        def on_round(params, log):
            # the marker counts completed rounds, so the final file reads rounds=T
            save_checkpoint(a.checkpoint, params, with_round_marker(echo, log.round + 1))
            if log.round == 0:
                log_file.truncate(0)
            log_file.write(log.to_json_line() + "\n")
            log_file.flush()
            loss = float(np.mean(list(log.client_loss.values())))
            print(
                f"round {log.round}: lr={log.lr:.6g} "
                f"clients={len(log.selected)} loss={loss:.4f}"
            )

        run_training(
            world,
            datasets,
            cfg.optimizer,
            cfg.translator,
            init,
            cfg.rounds,
            cfg.local_epochs,
            cfg.fraction,
            cfg.master_seed,
            on_round=on_round,
        )
    print(f"saved {a.checkpoint} after {cfg.rounds} rounds; log in {a.log}")
    return 0


def _cmd_eval(args) -> int:
    p = _parser("eval", "Score a checkpoint on the base and new splits.")
    p.add_argument("--checkpoint", type=_path, required=True, metavar="PATH")
    p.add_argument(
        "--world", type=_path, metavar="PATH", help="stored world file; default rebuilds from config"
    )
    p.add_argument("--out", type=_path, default="eval.json", metavar="PATH")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override keys from the checkpoint's embedded config",
    )
    a = p.parse_args(args)
    _refuse_shared_paths(a, ("--out",), ("--checkpoint", "--world"))
    params, echo = load_checkpoint(a.checkpoint)
    values = parse_config_text(echo, source=f"{a.checkpoint} config")
    cfg = build_config(apply_overrides(values, a.overrides))
    expected = tuple(sorted(translator_schema(cfg.translator)))
    if params.schema() != expected:
        raise ContractError(
            f"checkpoint tensors do not match the configured model: "
            f"{params.schema()} vs {expected}"
        )
    world = _world_for(cfg, a.world)
    try:
        result = evaluate_both_splits(
            params, world, cfg.translator, cfg.n_test, cfg.optimizer.temperature, cfg.master_seed
        )
    except NumericError as err:
        raise NumericError(f"{a.checkpoint}: {err}") from None
    baseline = evaluate_both_splits(
        None, world, cfg.translator, cfg.n_test, cfg.optimizer.temperature, cfg.master_seed
    )
    with open(a.out, "w", encoding="utf-8") as f:
        f.write(eval_result_json(result, baseline))
    completed = extract_round(echo)
    if completed is not None:
        print(f"checkpoint after round {completed}")
    print(
        f"base {fmt2(result.base_acc)}  new {fmt2(result.new_acc)}  "
        f"gap {fmt2(result.gap, signed=True)}"
    )
    print(f"zero-context baseline: base {fmt2(baseline.base_acc)}  new {fmt2(baseline.new_acc)}")
    print(f"wrote {a.out}")
    return 0


def _cmd_report(args) -> int:
    p = _parser("report", "Write the reference comparison tables and charts.")
    p.add_argument(
        "--out-dir", type=_path, default="reports", metavar="DIR", help="default: reports"
    )
    out_dir = p.parse_args(args).out_dir
    summary = summarize(fixture_results())
    table = compare_to_reference(summary)
    files = {
        "summary.csv": summary_csv(summary),
        "summary.json": summary_json(summary),
        "comparison.csv": comparison_csv(table),
        "error_rates.svg": error_rate_chart(summary.names, summary.base, summary.new),
        "gaps.svg": gap_chart(summary.names, summary.gaps),
    }
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
            f.write(text)
    print(overall_text(table))
    print(f"wrote {len(files)} files to {out_dir}")
    return 0


def _cmd_gradcheck(args) -> int:
    p = _parser("gradcheck", "Check analytic gradients against central differences.")
    p.parse_args(args)
    err, n_scalars, elapsed = composite_grad_check()
    print(f"checked {n_scalars} scalars in {elapsed:.2f}s")
    print(f"max relative error {err:.3e} (tolerance {GRADCHECK_TOLERANCE:.0e})")
    if err < GRADCHECK_TOLERANCE:
        print("PASS")
        return 0
    print("FAIL")
    return 1


def _cmd_selftest(args) -> int:
    p = _parser("selftest", "Run the built-in correctness probes.")
    p.parse_args(args)
    results = run_selftest()
    for r in results:
        print(f"{'ok' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    passed = sum(r.passed for r in results)
    print(f"selftest: {passed}/{len(results)} passed")
    return 0 if passed == len(results) else 1


COMMANDS = {
    "make-world": _cmd_make_world,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "report": _cmd_report,
    "gradcheck": _cmd_gradcheck,
    "selftest": _cmd_selftest,
}


def _dispatch(argv) -> int:
    if not argv:
        sys.stderr.write(USAGE)
        return 1
    if argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0
    if argv[0] not in COMMANDS:
        sys.stderr.write(f"unknown command {argv[0]!r}\n\n{USAGE}")
        return 1
    return COMMANDS[argv[0]](argv[1:])


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _fix_malloc_thresholds() -> None:
    """Keep freed heap memory in the process for reuse, under glibc.

    A lockstep training step allocates and frees temporaries of a few
    hundred kilobytes.  glibc's self-adjusting thresholds hand that
    memory back to the system after each step and fault it in again on
    the next: about a thousand page faults per default round, a sixth of
    its time.  Fixed thresholds keep up to 16 MB of freed heap and still
    map blocks above 4 MB on their own, which leaves peak memory as it
    was.  Without glibc's mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no dlopen(NULL)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    _fix_malloc_thresholds()
    try:
        return _dispatch(argv)
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except ContractError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FormatError as e:
        print(f"format error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
