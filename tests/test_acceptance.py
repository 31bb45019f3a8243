"""End-to-end acceptance checks for the shipped guarantees.

One test per guarantee, each printing a single PASS/FAIL line with the
measured numbers, so `pytest -s tests/test_acceptance.py` reads as a
checklist.  Thresholds are frozen here on purpose; loosening them is a
contract change, not a test fix.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fedprompt
from fedprompt.autograd import Parameter, ParameterSet
from fedprompt.cli import main
from fedprompt.config import build_run, load_config
from fedprompt.container import load_checkpoint, save_checkpoint
from fedprompt.diagnostics import (
    GRADCHECK_TOLERANCE,
    composite_grad_check,
    dead_gradient_tensors,
    randomized_translator_params,
)
from fedprompt.errors import FormatError
from fedprompt.evaluation import class_features, evaluate_both_splits
from fedprompt.federation import (
    ClientUpdate,
    cosine_lr,
    fedavg,
    local_update,
    run_training,
)
from fedprompt.reporting import compare_to_reference, fixture_results, fmt2, summarize
from fedprompt.seeding import rng_for
from fedprompt.translator import TranslatorConfig
from fedprompt.world import WorldConfig, build_world

GRADCHECK_TIME_BUDGET_S = 10.0
LEARNING_TIME_BUDGET_S = 120.0
LEARNING_MASTER_SEED = 0
MIN_BASE_GAIN_PP = 5.0
MIN_NEW_ACCURACY = 20.0  # 4x the 5% chance rate over 20 new classes


def _line(name: str, ok: bool, detail: str) -> str:
    tag = "PASS" if ok else "FAIL"
    message = f"{tag} {name}: {detail}"
    print(message)
    return message


def test_gradient_check_composite():
    err, n_scalars, elapsed = composite_grad_check()
    ok = err < GRADCHECK_TOLERANCE and elapsed < GRADCHECK_TIME_BUDGET_S
    msg = _line(
        "gradient-check",
        ok,
        f"max rel err {err:.3e} over {n_scalars} scalars in {elapsed:.1f}s",
    )
    assert ok, msg


def test_zero_context_identity_hundred_classes():
    world = build_world(WorldConfig(n_base=80, n_new=20, seed=123))
    tcfg = TranslatorConfig(d_model=32)
    ids = list(world.base_ids) + list(world.new_ids)
    assert len(ids) == 100
    feats = class_features(None, world, tcfg, ids)
    diff = float(np.abs(feats - world.class_embeddings).max())
    ok = diff <= 1e-12
    msg = _line("zero-context-identity", ok, f"100 classes, max |diff| {diff:.2e}")
    assert ok, msg


def test_live_gradients():
    dead = dead_gradient_tensors()
    ok = not dead
    msg = _line(
        "live-gradients",
        ok,
        "every parameter tensor has a nonzero gradient on the gradcheck instance"
        if ok
        else f"zero gradient in {dead}",
    )
    assert ok, msg


def test_fedavg_identities():
    cfg = TranslatorConfig(d_model=16, n_ctx=4, ffn_mult=2)

    def update(client_id, seed):
        return ClientUpdate(client_id, randomized_translator_params(cfg, seed), 0.0)

    single = update(0, 1)
    single_ok = np.array_equal(
        fedavg([single]).flatten(), single.params.flatten()
    )

    identical_ok = True
    for k in (3, 7):
        copies = [ClientUpdate(i, single.params, 0.0) for i in range(k)]
        identical_ok &= np.array_equal(
            fedavg(copies).flatten(), single.params.flatten()
        )

    distinct = [update(i, 10 + i) for i in range(3)]
    shuffled = [distinct[2], distinct[0], distinct[1]]
    order_ok = np.array_equal(
        fedavg(distinct).flatten(), fedavg(shuffled).flatten()
    )

    ok = single_ok and identical_ok and order_ok
    msg = _line(
        "fedavg-identities",
        ok,
        f"single={single_ok} identical(k=3,7)={identical_ok} order={order_ok}, all bitwise",
    )
    assert ok, msg


def test_centralized_equivalence():
    seed = 3
    rounds = 5
    cfg = load_config(
        None,
        [
            "world.d=16",
            "world.n_base=6",
            "world.n_new=2",
            "federation.n_clients=1",
            "federation.classes_per_client=6",
            "federation.shots=4",
            f"federation.rounds={rounds}",
            f"master_seed={seed}",
        ],
    )
    world, datasets, init = build_run(cfg)

    federated, _ = run_training(
        world, datasets, cfg.optimizer, cfg.translator, init, rounds, 1, 1.0, seed
    )

    params = init
    for t in range(rounds):
        lr = cosine_lr(cfg.optimizer.lr0, t, rounds)
        (upd,) = local_update(
            params, world, [datasets[0]], cfg.optimizer, cfg.translator, 1, lr,
            [rng_for(seed, "local", t, 0)], [0],
        )
        params = upd.params

    ok = np.array_equal(federated.flatten(), params.flatten())
    msg = _line(
        "centralized-equivalence", ok, f"N=1 fraction=1 T={rounds} matches sequential, bitwise"
    )
    assert ok, msg


def test_fixture_arithmetic():
    summary = summarize(fixture_results())
    table = compare_to_reference(summary)
    got = {
        "base_avg": fmt2(summary.base_avg),
        "new_avg": fmt2(summary.new_avg),
        "gap_avg": fmt2(summary.gap_avg, signed=True),
        "delta_base": fmt2(table.overall["delta_base"], signed=True),
        "delta_new": fmt2(table.overall["delta_new"], signed=True),
    }
    want = {
        "base_avg": "74.58",
        "new_avg": "76.00",
        "gap_avg": "+1.43",
        "delta_base": "+0.11",
        "delta_new": "-0.23",
    }
    ok = got == want
    msg = _line(
        "fixture-arithmetic",
        ok,
        " ".join(f"{k}={v}" for k, v in got.items()),
    )
    assert ok, msg


def test_synthetic_learning_beats_baseline():
    start = time.perf_counter()
    cfg = load_config(None, [f"master_seed={LEARNING_MASTER_SEED}"])
    world, datasets, init = build_run(cfg)
    params, _ = run_training(
        world, datasets, cfg.optimizer, cfg.translator, init,
        cfg.rounds, cfg.local_epochs, cfg.fraction, cfg.master_seed,
    )
    baseline = evaluate_both_splits(
        None, world, cfg.translator, cfg.n_test, cfg.optimizer.temperature, cfg.master_seed
    )
    trained = evaluate_both_splits(
        params, world, cfg.translator, cfg.n_test, cfg.optimizer.temperature, cfg.master_seed
    )
    elapsed = time.perf_counter() - start
    gain = trained.base_acc - baseline.base_acc
    ok = (
        gain >= MIN_BASE_GAIN_PP
        and trained.new_acc >= MIN_NEW_ACCURACY
        and elapsed < LEARNING_TIME_BUDGET_S
    )
    msg = _line(
        "synthetic-learning",
        ok,
        f"base {baseline.base_acc:.2f}->{trained.base_acc:.2f} (gain {gain:+.2f}pp, "
        f"need >={MIN_BASE_GAIN_PP}), new {trained.new_acc:.2f} "
        f"(need >={MIN_NEW_ACCURACY}), {elapsed:.0f}s",
    )
    assert ok, msg


SMALL_RUN = """\
world.d=16
world.n_base=8
world.n_new=3
federation.n_clients=2
federation.classes_per_client=4
federation.shots=4
federation.rounds=3
eval.n_test=8
master_seed=13
"""


def test_full_run_determinism(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_RUN)

    outputs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        ckpt = str(d / "model.ftpg")
        log = str(d / "log.jsonl")
        ev = str(d / "eval.json")
        rep = str(d / "rep")
        assert main(["train", "--config", str(cfg_path), "--checkpoint", ckpt, "--log", log]) == 0
        assert main(["eval", "--checkpoint", ckpt, "--out", ev]) == 0
        assert main(["report", "--out-dir", rep]) == 0
        blobs = {
            "checkpoint": Path(ckpt).read_bytes(),
            "log": Path(log).read_bytes(),
            "eval": Path(ev).read_bytes(),
        }
        for name in ("summary.csv", "summary.json", "comparison.csv", "error_rates.svg", "gaps.svg"):
            blobs[name] = Path(rep, name).read_bytes()
        outputs.append(blobs)

    mismatched = [k for k in outputs[0] if outputs[0][k] != outputs[1][k]]
    ok = not mismatched
    msg = _line(
        "determinism",
        ok,
        "checkpoint, log, eval, and 5 report files byte-identical across runs"
        if ok
        else f"mismatched: {mismatched}",
    )
    assert ok, msg


def _cli_in_subprocess(env: dict, commands: list[list[str]]) -> None:
    """Run each command line through main(), in order, in one new process."""
    code = ("import json, sys; from fedprompt.cli import main\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    if main(args) != 0:\n"
            "        sys.exit(1)")
    subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def test_bytes_independent_of_blas_threads(tmp_path):
    # the package starts no threads, but BLAS may split a gemm across
    # threads; the default configuration (one lockstep chunk of 6 clients)
    # and a wide one that steps in several chunks must still write the
    # same bytes
    src = str(Path(fedprompt.__file__).resolve().parent.parent)
    runs = {
        "default": ["--set", "federation.rounds=2"],
        "chunked": ["--set", "federation.rounds=2", "--set", "world.d=64",
                    "--set", "world.n_base=40", "--set", "federation.n_clients=16",
                    "--set", "federation.classes_per_client=2",
                    "--set", "federation.shots=2", "--set", "eval.n_test=10"],
    }
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        commands, files = [], {}
        for run, settings in runs.items():
            d = tmp_path / f"{run}-threads{threads}"
            d.mkdir()
            ckpt, log, ev = str(d / "model.ftpg"), str(d / "log.jsonl"), str(d / "eval.json")
            commands += [["train", *settings, "--checkpoint", ckpt, "--log", log],
                         ["eval", "--checkpoint", ckpt, "--out", ev]]
            files.update({f"{run} checkpoint": ckpt, f"{run} log": log, f"{run} eval": ev})
        _cli_in_subprocess(env, commands)
        outputs.append({name: Path(path).read_bytes() for name, path in files.items()})

    mismatched = [k for k in outputs[0] if outputs[0][k] != outputs[1][k]]
    ok = not mismatched
    msg = _line(
        "blas-threads",
        ok,
        "checkpoint, log, eval byte-identical at 1 and 2 BLAS threads, one chunk and several"
        if ok
        else f"mismatched: {mismatched}",
    )
    assert ok, msg


def test_container_round_trip_and_rejection(tmp_path):
    cfg = TranslatorConfig(d_model=16, n_ctx=4, ffn_mult=2)
    params = randomized_translator_params(cfg, seed=21)
    ckpt = tmp_path / "model.ftpg"
    save_checkpoint(str(ckpt), params, "probe=1\n")
    loaded, echo = load_checkpoint(str(ckpt))
    ckpt_ok = (
        np.array_equal(loaded.flatten(), params.flatten()) and echo == "probe=1\n"
    )

    blob = ckpt.read_bytes()
    rejected = 0
    probes = list(range(0, len(blob), max(1, len(blob) // 16)))
    for cut in probes:
        bad = tmp_path / "cut.ftpg"
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(str(bad))
        rejected += 1
    corrupt = tmp_path / "corrupt.ftpg"
    for magic in (b"XXXX", b"FTPE"):  # FTPE: the retired embedding-world files
        corrupt.write_bytes(magic + blob[4:])
        with pytest.raises(FormatError):
            load_checkpoint(str(corrupt))
    leftovers = [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]

    ok = ckpt_ok and not leftovers
    msg = _line(
        "container-round-trip",
        ok,
        f"checkpoint bitwise, {rejected} truncations and bad magic rejected, "
        f"no partial files",
    )
    assert ok, msg
