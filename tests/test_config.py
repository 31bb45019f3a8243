import dataclasses
import re
from pathlib import Path

import pytest

from fedprompt.config import (
    KEYS,
    ExperimentConfig,
    apply_overrides,
    build_config,
    build_run,
    canonical_text,
    config_values,
    default_values,
    extract_round,
    load_config,
    parse_config_text,
    with_round_marker,
)
from fedprompt.errors import ConfigError
from fedprompt.federation import OptimizerConfig
from fedprompt.partition import build_client_dataset, partition_classes
from fedprompt.translator import TranslatorConfig, init_translator_params
from fedprompt.world import WorldConfig, build_world


class TestDefaults:
    def test_empty_text_gives_default_config(self):
        assert build_config(parse_config_text("")) == ExperimentConfig()

    def test_defaults_match_dataclass_fields(self):
        values = default_values()
        assert values["world.d"] == WorldConfig().d
        assert values["world.sigma_img"] == WorldConfig().sigma_img
        assert values["translator.n_ctx"] == TranslatorConfig().n_ctx
        assert values["optimizer.lr0"] == OptimizerConfig().lr0
        assert values["federation.rounds"] == ExperimentConfig().rounds

    def test_load_config_without_path_is_default(self):
        assert load_config() == ExperimentConfig()

    def test_every_key_documented(self):
        for key, spec in KEYS.items():
            assert spec.doc, f"{key} has no description"

    def test_readme_table_matches_registry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([^`]+)` \| `([^`]*)` \| (.+?) \|$", readme, flags=re.M)
        table = {key: (default, doc) for key, default, doc in rows}
        assert len(table) == len(rows), "README lists a key twice"
        assert table == {key: (str(spec.default), spec.doc) for key, spec in KEYS.items()}


SECTIONS = {"world": WorldConfig, "translator": TranslatorConfig, "optimizer": OptimizerConfig}

# a valid value other than the default for every key
NON_DEFAULT = {
    "master_seed": "5",
    "world.d": "16",
    "world.n_base": "61",
    "world.n_new": "7",
    "world.sigma_img": "0.5",
    "world.sigma_text": "0.1",
    "world.interp_lo": "0.4",
    "world.interp_hi": "0.6",
    "translator.n_ctx": "2",
    "translator.ffn_mult": "3",
    "optimizer.lr0": "0.003",
    "optimizer.momentum": "0.5",
    "optimizer.weight_decay": "0.0",
    "optimizer.batch_size": "16",
    "optimizer.temperature": "0.07",
    "federation.n_clients": "3",
    "federation.classes_per_client": "5",
    "federation.shots": "2",
    "federation.rounds": "7",
    "federation.local_epochs": "2",
    "federation.fraction": "0.5",
    "eval.n_test": "9",
}


class TestKeyTable:
    def test_type_and_default_read_from_field_path(self):
        for key, spec in KEYS.items():
            section, _, name = key.rpartition(".")
            owner = SECTIONS.get(section, ExperimentConfig)
            (f,) = [f for f in dataclasses.fields(owner) if f.name == name]
            assert spec.type in (int, float), key
            assert spec.type is f.type, key
            assert spec.default == f.default, key

    def test_every_key_changes_exactly_itself_and_round_trips(self):
        assert set(NON_DEFAULT) == set(KEYS)
        defaults = default_values()
        for key, raw in NON_DEFAULT.items():
            cfg = build_config(apply_overrides(defaults, [f"{key}={raw}"]))
            values = config_values(cfg)
            assert values[key] == KEYS[key].type(raw) != defaults[key], key
            assert [k for k in KEYS if values[k] != defaults[k]] == [key]
            assert build_config(parse_config_text(canonical_text(cfg))) == cfg, key

    def test_world_keys_are_the_keys_that_change_the_world(self):
        default_world = ExperimentConfig().world
        changes_world = [
            key for key, raw in NON_DEFAULT.items()
            if load_config(None, [f"{key}={raw}"]).world != default_world
        ]
        assert sorted(changes_world) == sorted(
            [key for key in KEYS if key.startswith("world.")] + ["master_seed"]
        )


class TestParsing:
    def test_key_value_lines(self):
        values = parse_config_text("world.d=16\nfederation.rounds=3\n")
        assert values["world.d"] == 16
        assert values["federation.rounds"] == 3

    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\n   \nworld.d=16\n  # indented comment\n"
        assert parse_config_text(text)["world.d"] == 16

    def test_whitespace_around_equals(self):
        assert parse_config_text("  world.d = 16 \n")["world.d"] == 16

    def test_later_line_wins(self):
        values = parse_config_text("world.d=16\nworld.d=8\n")
        assert values["world.d"] == 8

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"world\.dd.*line 2"):
            parse_config_text("world.d=16\nworld.dd=3\n")

    def test_malformed_value_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"world\.d.*line 1"):
            parse_config_text("world.d=sixteen\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just some words\n")

    def test_float_keys_accept_scientific_notation(self):
        values = parse_config_text("optimizer.weight_decay=1e-4\n")
        assert values["optimizer.weight_decay"] == 1e-4


def _malformed(key, where):
    return re.escape(f"malformed value for {key!r} ({where})")


class TestOverrides:
    def test_override_applies_after_file(self):
        values = parse_config_text("federation.rounds=3\n")
        values = apply_overrides(values, ["federation.rounds=9"])
        assert values["federation.rounds"] == 9

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="--set"):
            apply_overrides(default_values(), ["nope=1"])

    def test_override_without_equals(self):
        with pytest.raises(ConfigError, match="--set"):
            apply_overrides(default_values(), ["federation.rounds"])

    # the value string of an int and of a float key, with a break inside
    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x1c", "\u2028"])
    def test_line_break_in_string_value_rejected_naming_key(self, brk):
        for key, raw in (("federation.rounds", f"1{brk}2"), ("optimizer.lr0", f"0.1{brk}2")):
            with pytest.raises(ConfigError, match=_malformed(key, "--set")):
                apply_overrides(default_values(), [f"{key}={raw}"])

    def test_line_break_rejected_over_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("federation.rounds=3\n")
        assert load_config(path).rounds == 3
        with pytest.raises(ConfigError, match=_malformed("federation.rounds", "--set")):
            load_config(path, ["federation.rounds=3\n4"])
        # the file's own lines are split first, so the tail is a bad line
        path.write_text("federation.rounds=3\u20284\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"run\.cfg line 2: expected key=value, got '4'"):
            load_config(path)

    # the value string left empty, or holding only blanks
    @pytest.mark.parametrize("raw", ["", "  ", "\t"])
    def test_empty_string_value_rejected_naming_key(self, raw):
        for key in ("federation.rounds", "optimizer.lr0"):
            with pytest.raises(ConfigError, match=_malformed(key, "--set")):
                apply_overrides(default_values(), [f"{key}={raw}"])
            with pytest.raises(ConfigError, match=_malformed(key, "run.cfg line 2")):
                parse_config_text(f"world.d=16\n{key}={raw}\n", "run.cfg")

    def test_outer_line_breaks_are_stripped(self):
        overrides = ["federation.rounds=\n3\r\n", "optimizer.lr0=0.5\n"]
        values = apply_overrides(default_values(), overrides)
        assert values["federation.rounds"] == 3
        assert values["optimizer.lr0"] == 0.5

    def test_comment_marker_in_override_is_a_key(self):
        # only file lines are comments; --set '#x=1' names an unknown key
        with pytest.raises(ConfigError, match=r"unknown config key '#x' \(--set\)"):
            apply_overrides(default_values(), ["#x=1"])
        with pytest.raises(ConfigError, match=r"unknown config key '' \(--set\)"):
            apply_overrides(default_values(), ["=1"])

    def test_malformed_override_value(self):
        with pytest.raises(ConfigError, match=r"federation\.rounds"):
            apply_overrides(default_values(), ["federation.rounds=many"])


    def test_non_finite_float_rejected_naming_key(self):
        float_keys = [key for key, spec in KEYS.items() if spec.type is float]
        assert len(float_keys) == 9
        for key in float_keys:
            for raw in ("nan", "inf", "-inf"):
                with pytest.raises(ConfigError, match=re.escape(key)):
                    parse_config_text(f"{key}={raw}\n")
                with pytest.raises(ConfigError, match=re.escape(key)):
                    apply_overrides(default_values(), [f"{key}={raw}"])


class TestValidation:
    def test_partition_capacity_enforced(self):
        with pytest.raises(ConfigError, match="exceeds"):
            build_config(apply_overrides(default_values(), ["world.n_base=10"]))

    def test_translator_width_follows_world(self):
        cfg = build_config(apply_overrides(default_values(), ["world.d=16"]))
        assert cfg.translator.d_model == 16

    def test_any_positive_width_builds(self):
        # no head count constrains the width
        assert load_config(None, ["world.d=30"]).translator.d_model == 30

    def test_retired_attention_keys_unknown(self):
        for key in ("translator.n_heads", "translator.kv_len"):
            with pytest.raises(ConfigError, match=key):
                load_config(None, [f"{key}=4"])

    def test_run_without_novel_classes_rejected_naming_key(self):
        # eval could never score the novel split; a bare world may have none
        with pytest.raises(ConfigError, match=r"world\.n_new must be at least 1, got 0"):
            load_config(None, ["world.n_new=0"])
        assert WorldConfig(n_new=0).n_classes == WorldConfig().n_base

    def test_nonpositive_rounds_rejected(self):
        with pytest.raises(ConfigError, match="rounds"):
            build_config(apply_overrides(default_values(), ["federation.rounds=0"]))

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="fraction"):
            build_config(apply_overrides(default_values(), ["federation.fraction=1.5"]))

    def test_master_seed_reaches_world(self):
        cfg = build_config(apply_overrides(default_values(), ["master_seed=42"]))
        assert cfg.world.seed == 42
        assert cfg.master_seed == 42


class TestCanonicalText:
    def test_round_trip_is_identity(self):
        cfg = load_config(None, ["world.d=16", "optimizer.lr0=0.01", "master_seed=-3"])
        text = canonical_text(cfg)
        assert build_config(parse_config_text(text)) == cfg

    def test_sorted_and_complete(self):
        lines = canonical_text(ExperimentConfig()).splitlines()
        keys = [line.split("=", 1)[0] for line in lines]
        assert keys == sorted(KEYS)

    def test_registry_and_serialization_agree(self):
        # the documented keys are exactly the serialized keys
        assert set(config_values(ExperimentConfig())) == set(KEYS)

    def test_float_values_survive_exactly(self):
        cfg = load_config(None, ["optimizer.weight_decay=1e-05", "optimizer.lr0=0.003"])
        back = build_config(parse_config_text(canonical_text(cfg)))
        assert back.optimizer.weight_decay == cfg.optimizer.weight_decay
        assert back.optimizer.lr0 == cfg.optimizer.lr0


class TestRoundMarker:
    def test_marker_appends_and_extracts(self):
        text = canonical_text(ExperimentConfig())
        marked = with_round_marker(text, 17)
        assert extract_round(marked) == 17

    def test_marked_text_still_parses(self):
        marked = with_round_marker(canonical_text(ExperimentConfig()), 3)
        assert build_config(parse_config_text(marked)) == ExperimentConfig()

    def test_missing_marker_gives_none(self):
        assert extract_round(canonical_text(ExperimentConfig())) is None


def test_build_run_matches_the_chain_by_hand():
    # a config off every default the chain reads, so a step given the
    # wrong key or seed cannot match by accident
    cfg = load_config(None, ["world.d=16", "federation.n_clients=3",
                             "federation.classes_per_client=4", "federation.shots=2",
                             "master_seed=7"])
    world, datasets, init = build_run(cfg)

    want_world = build_world(cfg.world)
    blocks = partition_classes(cfg.world.n_base, 3, 4, 7)
    want = [build_client_dataset(want_world, block, 2, 7, cid) for cid, block in enumerate(blocks)]
    want_init = init_translator_params(cfg.translator, 7)

    assert world.class_embeddings.tobytes() == want_world.class_embeddings.tobytes()
    assert list(datasets) == [0, 1, 2]
    for cid, ds in datasets.items():
        assert ds.class_ids == want[cid].class_ids
        assert ds.images.tobytes() == want[cid].images.tobytes()
        assert ds.labels.tobytes() == want[cid].labels.tobytes()
    assert init.schema() == want_init.schema()
    for name, p in init.items():
        assert p.value.tobytes() == want_init[name].value.tobytes(), name


def test_config_is_frozen():
    cfg = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.rounds = 5
