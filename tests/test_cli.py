import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedprompt
from fedprompt import cli, container
from fedprompt.autograd import Parameter, ParameterSet
from fedprompt.cli import main
from fedprompt.config import (
    KEYS,
    canonical_text,
    extract_round,
    load_config,
    with_round_marker,
)
from fedprompt.container import (
    load_checkpoint,
    load_embeddings_file,
    save_checkpoint,
    save_embeddings,
)
from fedprompt.translator import init_translator_params
from fedprompt.world import build_world, world_arrays

TINY = """\
world.d=16
world.n_base=6
world.n_new=2
federation.n_clients=2
federation.classes_per_client=3
federation.shots=4
federation.rounds=2
eval.n_test=5
master_seed=7
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def _fedprompt(cwd, *args):
    """`python -m fedprompt` in a subprocess, so stderr shows what a user sees."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-m", "fedprompt", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def _train(tmp_path, tiny_cfg, *extra):
    ckpt = str(tmp_path / "model.ftpg")
    log = str(tmp_path / "log.jsonl")
    code = main(["train", "--config", tiny_cfg, "--checkpoint", ckpt, "--log", log, *extra])
    assert code == 0
    return ckpt, log


# every path option, with whatever else the command would need to start
# work if the empty path got through
EMPTY_PATH_CASES = [
    ("report", "--out-dir", []),
    ("eval", "--out", ["--checkpoint", "model.ftpg"]),
    ("eval", "--checkpoint", []),
    ("eval", "--world", ["--checkpoint", "model.ftpg"]),
    ("train", "--checkpoint", ["--set", "federation.rounds=1"]),
    ("train", "--log", ["--set", "federation.rounds=1"]),
    ("train", "--world", ["--set", "federation.rounds=1"]),
    ("make-world", "--out", []),
]


class TestDispatch:
    def test_no_arguments_prints_usage_and_fails(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("make-world", "train", "eval", "report", "gradcheck", "selftest"):
            assert command in out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "unknown command" in capsys.readouterr().err

    def test_subcommand_help_exits_zero(self, capsys):
        assert main(["train", "--help"]) == 0
        assert "--checkpoint" in capsys.readouterr().out

    def test_bad_flag_is_config_error(self, capsys):
        assert main(["train", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_runs_without_glibc_mallopt(self, monkeypatch, capsys):
        # the malloc thresholds are set only where glibc offers mallopt
        def no_libc(name):
            raise OSError(f"cannot load {name}")

        monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
        assert main(["--help"]) == 0
        assert "train" in capsys.readouterr().out

    def test_python_m_fedprompt_without_warning(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "fedprompt", "--help"], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0
        assert "make-world" in done.stdout
        assert "RuntimeWarning" not in done.stderr

    @pytest.mark.parametrize("command, flag, extra", EMPTY_PATH_CASES,
                             ids=[f"{c} {f}" for c, f, _ in EMPTY_PATH_CASES])
    def test_empty_path_option_refused_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, flag, extra
    ):
        monkeypatch.chdir(tmp_path)
        assert main([command, flag, "", *extra]) == 1
        assert f"argument {flag}: an empty path is not allowed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestReadme:
    def test_layout_lists_every_module(self):
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        layout = readme.split("\n## Layout\n", 1)[1].split("```")[1]
        listed = re.findall(r"^  (\S+\.py) ", layout, flags=re.M)
        assert len(listed) == len(set(listed)), "README lists a module twice"
        modules = {p.name for p in (root / "src" / "fedprompt").glob("*.py")} - {"__init__.py"}
        assert set(listed) == modules

    def test_library_example_imports_the_package_api(self):
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        example = readme.split("\n## Library use\n", 1)[1].split("```")[1]
        imported = re.search(r"^from fedprompt import \((.*?)\)", example, flags=re.M | re.S)
        names = [n.strip() for n in imported.group(1).split(",") if n.strip()]
        assert sorted(names) == sorted(set(fedprompt.__all__) - {"main"})


class TestMakeWorld:
    def test_writes_loadable_file(self, tmp_path, tiny_cfg, capsys):
        out = str(tmp_path / "w.ftpe")
        assert main(["make-world", "--config", tiny_cfg, "--out", out]) == 0
        assert "6 base + 2 new" in capsys.readouterr().out
        arrays, echo = load_embeddings_file(out)
        assert arrays["base_centers"].shape == (6, 16)
        assert "master_seed=7" in echo

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        code = main(["make-world", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2

    def test_set_override_applies(self, tmp_path, tiny_cfg):
        out = str(tmp_path / "w.ftpe")
        assert main(
            ["make-world", "--config", tiny_cfg, "--set", "world.n_new=3", "--out", out]
        ) == 0
        arrays, _ = load_embeddings_file(out)
        assert arrays["new_centers"].shape == (3, 16)

    def test_bad_override_key(self, tiny_cfg, capsys):
        assert main(["make-world", "--config", tiny_cfg, "--set", "world.zzz=1"]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_non_finite_override_writes_nothing(self, tmp_path, tiny_cfg, capsys):
        out = tmp_path / "w.ftpe"
        for raw in ("nan", "inf", "-inf"):
            args = ["make-world", "--config", tiny_cfg, "--set", f"world.sigma_text={raw}"]
            assert main([*args, "--out", str(out)]) == 1
            assert "world.sigma_text" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [Path(tiny_cfg)]

    @pytest.mark.parametrize("seed, code",
                             [(2**63, 1), (-2**63 - 1, 1), (2**63 - 1, 0), (-2**63, 0)])
    def test_master_seed_bounds(self, tmp_path, tiny_cfg, capsys, seed, code):
        # seeds are hashed as 8-byte two's complement
        out = tmp_path / "w.ftpe"
        args = ["make-world", "--config", tiny_cfg, "--set", f"master_seed={seed}"]
        assert main([*args, "--out", str(out)]) == code
        if code:
            assert "master_seed" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert f"master_seed={seed}" in load_embeddings_file(str(out))[1]


class TestTrain:
    def test_writes_checkpoint_and_log(self, tmp_path, tiny_cfg):
        ckpt, log = _train(tmp_path, tiny_cfg)
        params, echo = load_checkpoint(ckpt)
        assert extract_round(echo) == 2
        lines = [json.loads(l) for l in open(log)]
        assert [l["round"] for l in lines] == [0, 1]
        assert all(l["selected"] == [0, 1] for l in lines)

    def test_round_marker_counts_completed_rounds(self, tmp_path, tiny_cfg):
        ckpt, _ = _train(tmp_path, tiny_cfg, "--set", "federation.rounds=1")
        _, echo = load_checkpoint(ckpt)
        assert extract_round(echo) == 1

    def test_two_runs_bitwise_identical(self, tmp_path, tiny_cfg):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        ckpt_a, log_a = _train(a, tiny_cfg)
        ckpt_b, log_b = _train(b, tiny_cfg)
        assert open(ckpt_a, "rb").read() == open(ckpt_b, "rb").read()
        assert open(log_a).read() == open(log_b).read()

    def test_stored_world_matches_rebuilt(self, tmp_path, tiny_cfg):
        world_file = str(tmp_path / "w.ftpe")
        assert main(["make-world", "--config", tiny_cfg, "--out", world_file]) == 0
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        ckpt_a, _ = _train(a, tiny_cfg, "--world", world_file)
        ckpt_b, _ = _train(b, tiny_cfg)
        assert open(ckpt_a, "rb").read() == open(ckpt_b, "rb").read()

    @pytest.mark.parametrize("override", ["world.sigma_text=0.5", "master_seed=3"])
    def test_stored_world_of_other_world_keys_refused(self, tmp_path, tiny_cfg, capsys, override):
        world_file = tmp_path / "w.ftpe"
        args = ["make-world", "--config", tiny_cfg, "--set", override, "--out", str(world_file)]
        assert main(args) == 0
        code = main(["train", "--config", tiny_cfg, "--world", str(world_file),
                     "--checkpoint", str(tmp_path / "model.ftpg"),
                     "--log", str(tmp_path / "log.jsonl")])
        assert code == 1
        assert f"world was made with {override}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == sorted([Path(tiny_cfg), world_file])

    def test_stored_world_missing_a_world_key_refused(self, tmp_path, tiny_cfg, capsys):
        cfg = load_config(tiny_cfg)
        lines = canonical_text(cfg).splitlines(keepends=True)
        echo = "".join(line for line in lines if not line.startswith("world.n_new="))
        world_file = str(tmp_path / "w.ftpe")
        save_embeddings(world_file, world_arrays(build_world(cfg.world)), echo)
        code = main(["train", "--config", tiny_cfg, "--world", world_file,
                     "--checkpoint", str(tmp_path / "model.ftpg"),
                     "--log", str(tmp_path / "log.jsonl")])
        assert code == 1
        assert "no world.n_new line" in capsys.readouterr().err

    def test_stored_world_ignores_other_echo_lines(self, tmp_path, tiny_cfg):
        # written under another round count and a key since removed
        cfg = load_config(tiny_cfg, ["federation.rounds=9"])
        echo = canonical_text(cfg) + "translator.n_heads=4\n"
        world_file = str(tmp_path / "w.ftpe")
        save_embeddings(world_file, world_arrays(build_world(cfg.world)), echo)
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        ckpt_a, _ = _train(a, tiny_cfg, "--world", world_file)
        ckpt_b, _ = _train(b, tiny_cfg)
        assert open(ckpt_a, "rb").read() == open(ckpt_b, "rb").read()

    def test_line_break_in_value_writes_nothing(self, tmp_path, tiny_cfg, capsys):
        code = main(["train", "--config", tiny_cfg, "--set", "federation.rounds=1\n2",
                     "--checkpoint", str(tmp_path / "model.ftpg"),
                     "--log", str(tmp_path / "log.jsonl")])
        assert code == 1
        assert "malformed value for 'federation.rounds'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [Path(tiny_cfg)]

    def test_failed_checkpoint_write_keeps_previous_bytes(self, tmp_path, tiny_cfg, monkeypatch):
        ckpt, log = _train(tmp_path, tiny_cfg)
        before = Path(ckpt).read_bytes()
        # the log must keep agreeing with the checkpoint that survives
        before_log = Path(log).read_bytes()
        assert len(before_log.splitlines()) == 2

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(container.os, "replace", failing_replace)
        code = main(["train", "--config", tiny_cfg, "--set", "optimizer.lr0=0.5",
                     "--checkpoint", ckpt, "--log", log])
        assert code == 2
        assert Path(ckpt).read_bytes() == before
        assert Path(log).read_bytes() == before_log
        assert not list(tmp_path.glob("*.tmp"))

    def test_rerun_replaces_previous_log(self, tmp_path, tiny_cfg):
        ckpt, log = _train(tmp_path, tiny_cfg)
        first = Path(log).read_bytes()
        Path(log).write_text("stale line\n" * 5)
        _train(tmp_path, tiny_cfg)
        assert Path(log).read_bytes() == first

    def test_round_line_prints_small_rate_readably(self, tmp_path, tiny_cfg, capsys):
        # six significant digits, not six decimals: 1e-9 would print 0.000000
        _train(tmp_path, tiny_cfg, "--set", "optimizer.lr0=1e-9")
        rates = re.findall(r"^round \d+: lr=(\S+) ", capsys.readouterr().out, re.M)
        assert rates == ["1e-09", "5e-10"]

    def test_overflowing_training_names_round_and_client(self, tmp_path):
        # the default model overflows in its first round at this rate
        done = _fedprompt(tmp_path, "train", "--set", "optimizer.lr0=1e150",
                          "--set", "federation.rounds=3")
        assert done.returncode == 1
        assert "RuntimeWarning" not in done.stderr
        assert re.search(r"error: round \d+, client \d+: ", done.stderr), done.stderr

    def test_saturating_training_names_round_and_client(self, tmp_path, tiny_cfg):
        # the tiny model stays finite at this rate but its head output
        # outgrows the squared norm in round 1; a zeroed feature would
        # log ln 3 and exit 0
        done = _fedprompt(tmp_path, "train", "--config", tiny_cfg,
                          "--set", "optimizer.lr0=1e150")
        assert done.returncode == 1
        assert "RuntimeWarning" not in done.stderr
        assert re.search(r"error: round \d+, client \d+: ", done.stderr), done.stderr

    def test_echo_reproduces_config(self, tmp_path, tiny_cfg):
        from fedprompt.config import build_config, parse_config_text

        ckpt, _ = _train(tmp_path, tiny_cfg)
        _, echo = load_checkpoint(ckpt)
        assert build_config(parse_config_text(echo)) == load_config(tiny_cfg)


class TestEval:
    def test_eval_writes_json(self, tmp_path, tiny_cfg, capsys):
        ckpt, _ = _train(tmp_path, tiny_cfg)
        out = str(tmp_path / "eval.json")
        assert main(["eval", "--checkpoint", ckpt, "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert set(payload) >= {"base", "new", "gap", "zero_context_baseline"}
        assert "checkpoint after round 2" in capsys.readouterr().out

    def test_default_run_eval_is_pinned(self, tmp_path, capsys):
        # accuracy counts do not depend on the host's BLAS kernels, so the
        # default run's eval.json and scores are fixed bytes
        ckpt, log = str(tmp_path / "model.ftpg"), str(tmp_path / "log.jsonl")
        assert main(["train", "--checkpoint", ckpt, "--log", log]) == 0
        out = tmp_path / "eval.json"
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "b7d98eecc59183704c224e29376e4038998276abeeef54957a9fa6103cdc64d6"
        )
        assert "base 68.80  new 57.80  gap -11.00" in printed
        assert "zero-context baseline: base 50.37  new 63.80" in printed

    def test_zero_lr_single_round_matches_zero_context_baseline(self, tmp_path, tiny_cfg):
        # a no-op optimizer leaves the zero-started block closed, so the
        # trained model scores exactly like the zero-context baseline
        ckpt, _ = _train(
            tmp_path, tiny_cfg, "--set", "optimizer.lr0=0.0", "--set", "federation.rounds=1"
        )
        params, _ = load_checkpoint(ckpt)
        cfg = load_config(None, [l.replace("\n", "") for l in TINY.splitlines()])
        init = init_translator_params(cfg.translator, cfg.master_seed)
        assert np.array_equal(params.flatten(), init.flatten())
        out = str(tmp_path / "eval.json")
        assert main(["eval", "--checkpoint", ckpt, "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["base"] == payload["zero_context_baseline"]["base"]
        assert payload["new"] == payload["zero_context_baseline"]["new"]

    def test_stored_world_of_other_world_keys_refused(self, tmp_path, tiny_cfg, capsys):
        ckpt, _ = _train(tmp_path, tiny_cfg)
        world_file = str(tmp_path / "w.ftpe")
        out = tmp_path / "eval.json"
        args = ["make-world", "--config", tiny_cfg, "--set", "world.sigma_text=0.5"]
        assert main([*args, "--out", world_file]) == 0
        assert main(["eval", "--checkpoint", ckpt, "--world", world_file, "--out", str(out)]) == 1
        assert "world.sigma_text" in capsys.readouterr().err
        assert not out.exists()
        # a world made under the checkpoint's world keys scores like the rebuilt one
        assert main(["make-world", "--config", tiny_cfg, "--out", world_file]) == 0
        assert main(["eval", "--checkpoint", ckpt, "--world", world_file, "--out", str(out)]) == 0
        rebuilt = tmp_path / "rebuilt.json"
        assert main(["eval", "--checkpoint", ckpt, "--out", str(rebuilt)]) == 0
        assert out.read_bytes() == rebuilt.read_bytes()

    def test_eval_override_n_test(self, tmp_path, tiny_cfg):
        ckpt, _ = _train(tmp_path, tiny_cfg)
        out = str(tmp_path / "eval.json")
        assert main(["eval", "--checkpoint", ckpt, "--set", "eval.n_test=3", "--out", out]) == 0

    def test_corrupt_checkpoint_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ftpg"
        bad.write_bytes(b"FTPGxxxx")
        assert main(["eval", "--checkpoint", str(bad)]) == 2

    def test_wrong_container_kind_is_format_error(self, tmp_path, tiny_cfg):
        world_file = str(tmp_path / "w.ftpe")
        assert main(["make-world", "--config", tiny_cfg, "--out", world_file]) == 0
        assert main(["eval", "--checkpoint", world_file]) == 2

    def test_missing_checkpoint_flag(self, capsys):
        assert main(["eval"]) == 1

    def test_checkpoint_with_attention_tensors_refused(self, tmp_path, capsys):
        # layout written before the block lost its query/key projections,
        # first layer norm and the translator.kv_len/n_heads keys
        d, n_ctx, d_ffn = 16, 4, 64
        shapes = {
            "queries": (n_ctx, d), "W_q": (d, d), "W_k": (d, d), "W_v": (d, d),
            "W_o": (d, d), "ln1_gain": (d,), "ln1_bias": (d,), "ln2_gain": (d,),
            "ln2_bias": (d,), "ffn_in": (d, 2 * d_ffn), "ffn_out": (d_ffn, d),
        }
        params = ParameterSet([Parameter(name, np.zeros(shape)) for name, shape in shapes.items()])
        echo = canonical_text(load_config(None, ["world.d=16"]))
        echo += "translator.kv_len=1\ntranslator.n_heads=4\n"
        ckpt = str(tmp_path / "old.ftpg")
        save_checkpoint(ckpt, params, with_round_marker(echo, 50))
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", ckpt, "--out", str(out)]) == 1
        assert "translator.kv_len" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_with_report_dir_key_refused(self, tmp_path, capsys):
        # echo written while the report directory was a config key
        cfg = load_config(None, ["world.d=16"])
        echo = canonical_text(cfg) + "eval.report_dir=reports\n"
        ckpt = str(tmp_path / "old.ftpg")
        save_checkpoint(ckpt, init_translator_params(cfg.translator, 0),
                        with_round_marker(echo, 50))
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", ckpt, "--out", str(out)]) == 1
        assert "unknown config key 'eval.report_dir'" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_checkpoint_refused(self, tmp_path):
        # finite weights whose products overflow in the forward pass; the
        # error names the checkpoint, and numpy prints no warning first
        cfg = load_config(None, ["world.d=16"])
        params = init_translator_params(cfg.translator, 0)
        for name in ("W_v", "W_o"):
            params[name].set_value(np.full(params[name].shape, 1e300))
        ckpt = str(tmp_path / "huge.ftpg")
        save_checkpoint(ckpt, params, with_round_marker(canonical_text(cfg), 50))
        done = _fedprompt(tmp_path, "eval", "--checkpoint", ckpt, "--out", "eval.json")
        assert done.returncode == 1
        assert "RuntimeWarning" not in done.stderr
        assert f"error: {ckpt}: " in done.stderr
        assert not (tmp_path / "eval.json").exists()


class TestReport:
    def test_report_files_and_overall_block(self, tmp_path, capsys):
        out_dir = str(tmp_path / "rep")
        assert main(["report", "--out-dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert "+0.11" in out
        assert "-0.23" in out
        names = sorted(p.name for p in (tmp_path / "rep").iterdir())
        assert names == [
            "comparison.csv",
            "error_rates.svg",
            "gaps.svg",
            "summary.csv",
            "summary.json",
        ]

    def test_report_is_byte_deterministic(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        assert main(["report", "--out-dir", a]) == 0
        assert main(["report", "--out-dir", b]) == 0
        for name in ("comparison.csv", "summary.csv", "summary.json", "error_rates.svg", "gaps.svg"):
            assert (
                open(f"{a}/{name}", "rb").read() == open(f"{b}/{name}", "rb").read()
            ), name

    def test_report_bytes_are_pinned(self, tmp_path, capsys):
        # the report is derived from embedded constants only, so its bytes
        # are fixed; a refactor that changes any of them fails here
        out_dir = str(tmp_path / "rep")
        assert main(["report", "--out-dir", out_dir]) == 0
        assert capsys.readouterr().out == (
            "               base      new      gap\n"
            "original      74.47    76.23    +1.76\n"
            "ours          74.58    76.00    +1.43\n"
            "delta         +0.11    -0.23    -0.33\n"
            "\n"
            f"wrote 5 files to {out_dir}\n"
        )
        pinned = {
            "comparison.csv": "4a4141148d3f137d2fb7e3714e542e8c430cceb1ce2264b468c091e207871c7d",
            "summary.csv": "a4cc2fb8a2c42b7fb5291cffc952a73ec65d210cb2db77828b738ca0de7862db",
            "summary.json": "723de7d9e0bb1ca07bbaccc5b684e0b3a225884cdc9c20b00fac2630b59aa9a4",
            "error_rates.svg": "06a11d880e4a8264642053bbe634a32377c495bcc21ddfce7f862fef356b3788",
            "gaps.svg": "83a98136eb795505bc7366c4c1c06989f7574ea608773568cfec048ef75c1ff4",
        }
        got = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (tmp_path / "rep").iterdir()
        }
        assert got == pinned

    def test_report_takes_only_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("eval.n_test=3\n")
        for option in (["--config", "run.cfg"], ["--set", "eval.n_test=3"]):
            assert main(["report", *option]) == 1
            assert "unrecognized arguments" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
        assert main(["report"]) == 0
        assert (tmp_path / "reports" / "summary.csv").exists()


class TestSelftest:
    def test_selftest_passes_on_clean_build(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "6/6 passed" in out
        assert "FAIL" not in out


class TestSharedPaths:
    """An output option naming another path option's file is refused
    before any file is opened, and the other file keeps its bytes."""

    def test_eval_out_naming_the_checkpoint(self, tmp_path, tiny_cfg, capsys):
        ckpt, _ = _train(tmp_path, tiny_cfg)
        before = Path(ckpt).read_bytes()
        link = tmp_path / "link.json"
        link.symlink_to(ckpt)
        for out in (ckpt, str(link)):
            assert main(["eval", "--checkpoint", ckpt, "--out", out]) == 1
            assert "--out and --checkpoint name the same file" in capsys.readouterr().err
        assert Path(ckpt).read_bytes() == before

    def test_train_checkpoint_naming_the_world(self, tmp_path, tiny_cfg, capsys):
        world_file = tmp_path / "w.ftpe"
        assert main(["make-world", "--config", tiny_cfg, "--out", str(world_file)]) == 0
        before = world_file.read_bytes()
        code = main(["train", "--config", tiny_cfg, "--world", str(world_file),
                     "--checkpoint", str(world_file), "--log", str(tmp_path / "log.jsonl")])
        assert code == 1
        assert "--checkpoint and --world name the same file" in capsys.readouterr().err
        assert world_file.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == sorted([Path(tiny_cfg), world_file])

    def test_train_log_naming_the_checkpoint(self, tmp_path, tiny_cfg, capsys):
        _, log = _train(tmp_path, tiny_cfg)
        before = Path(log).read_bytes()
        code = main(["train", "--config", tiny_cfg, "--checkpoint", log, "--log", log])
        assert code == 1
        assert "--checkpoint and --log name the same file" in capsys.readouterr().err
        assert Path(log).read_bytes() == before


# for each key, a valid value other than the one the run below uses
VARIED = {
    "master_seed": "8",
    "world.d": "8",
    "world.n_base": "7",
    "world.n_new": "3",
    "world.sigma_img": "0.5",
    "world.sigma_text": "0.1",
    "world.interp_lo": "0.4",
    "world.interp_hi": "0.6",
    "translator.n_ctx": "2",
    "translator.ffn_mult": "2",
    "optimizer.lr0": "0.05",
    "optimizer.momentum": "0.5",
    "optimizer.weight_decay": "0.01",
    "optimizer.batch_size": "4",
    "optimizer.temperature": "0.25",
    "federation.n_clients": "1",
    "federation.classes_per_client": "2",
    "federation.shots": "3",
    "federation.rounds": "1",
    "federation.local_epochs": "2",
    "federation.fraction": "0.5",
    "eval.n_test": "4",
}


def _results(run_dir, tiny_cfg, *overrides):
    """What a world, a training run and an evaluation produce, without the
    config echoes the files carry."""
    run_dir.mkdir()
    world_file, ckpt, log, out = (
        str(run_dir / name) for name in ("w.ftpe", "model.ftpg", "log.jsonl", "eval.json")
    )
    # each client takes at least two steps a round, so momentum acts
    sets = [arg for item in ("optimizer.batch_size=5", *overrides) for arg in ("--set", item)]
    assert main(["make-world", "--config", tiny_cfg, *sets, "--out", world_file]) == 0
    assert main(["train", "--config", tiny_cfg, *sets, "--world", world_file,
                 "--checkpoint", ckpt, "--log", log]) == 0
    assert main(["eval", "--checkpoint", ckpt, "--world", world_file, "--out", out]) == 0
    arrays, _ = load_embeddings_file(world_file)
    params, _ = load_checkpoint(ckpt)
    return (
        {name: (a.shape, a.tobytes()) for name, a in arrays.items()},
        {p.name: (p.value.shape, p.value.tobytes()) for p in params},
        Path(log).read_bytes(),
        Path(out).read_bytes(),
    )


def test_every_config_key_changes_a_result(tmp_path, tiny_cfg):
    base = _results(tmp_path / "base", tiny_cfg)
    unchanged = [
        key for key in KEYS
        if _results(tmp_path / key, tiny_cfg, f"{key}={VARIED[key]}") == base
    ]
    assert unchanged == []
