"""Tests for split evaluation and the zero-context baseline."""

import numpy as np
import pytest

from fedprompt.errors import ConfigError, ContractError
from fedprompt.evaluation import (
    EvalResult,
    class_features,
    evaluate,
    evaluate_both_splits,
    split_class_ids,
)
from fedprompt.federation import class_logits
from fedprompt.translator import TranslatorConfig, init_translator_params
from fedprompt.world import WorldConfig, build_world

TRANS = TranslatorConfig(d_model=16, n_ctx=2, ffn_mult=2)


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig(d=16, n_base=10, n_new=5, sigma_img=0.2,
                                   sigma_text=0.1, seed=4))


class TestSplits:
    def test_split_ids(self, world):
        assert split_class_ids(world, "base") == list(range(10))
        assert split_class_ids(world, "new") == list(range(10, 15))

    def test_unknown_split(self, world):
        with pytest.raises(ConfigError):
            split_class_ids(world, "test")

    def test_empty_split_rejected(self):
        w = build_world(WorldConfig(d=16, n_base=4, n_new=0, seed=1))
        with pytest.raises(ContractError):
            split_class_ids(w, "new")


class TestGap:
    def test_known_values(self):
        assert abs(EvalResult(96.84, 95.41).gap - (-1.43)) < 1e-9
        assert abs(EvalResult(71.60, 78.30).gap - 6.70) < 1e-9

    def test_antisymmetry(self):
        assert EvalResult(3.0, 7.5).gap == -EvalResult(7.5, 3.0).gap

    def test_equal_inputs(self):
        assert EvalResult(50.0, 50.0).gap == 0.0


class TestEvaluate:
    def test_zero_noise_baseline_is_perfect(self):
        w = build_world(WorldConfig(d=16, n_base=8, n_new=4, sigma_img=0.0,
                                    sigma_text=0.0, seed=2))
        assert evaluate(None, w, TRANS, "base", 10, 0.01, seed=0) == 100.0

    def test_deterministic(self, world):
        a = evaluate(None, world, TRANS, "base", 20, 0.01, seed=5)
        b = evaluate(None, world, TRANS, "base", 20, 0.01, seed=5)
        assert a == b

    def test_eval_seed_changes_draws(self, world):
        a = evaluate(None, world, TRANS, "base", 20, 0.01, seed=5)
        values = {evaluate(None, world, TRANS, "base", 20, 0.01, seed=s) for s in range(8)}
        assert a in values
        assert len(values) > 1

    def test_temperature_does_not_change_argmax(self, world):
        a = evaluate(None, world, TRANS, "base", 20, 0.01, seed=6)
        b = evaluate(None, world, TRANS, "base", 20, 1.0, seed=6)
        assert a == b

    def test_accuracy_range_and_granularity(self, world):
        acc = evaluate(None, world, TRANS, "new", 7, 0.01, seed=7)
        assert 0.0 <= acc <= 100.0
        # 5 classes x 7 draws = 35 samples, so accuracy is a multiple of 100/35
        assert abs(acc * 35 / 100 - round(acc * 35 / 100)) < 1e-9

    def test_params_not_mutated(self, world):
        params = init_translator_params(TRANS, 9)
        before = params.flatten()
        evaluate(params, world, TRANS, "base", 5, 0.01, seed=8)
        assert np.array_equal(params.flatten(), before)

    def test_bad_n_test(self, world):
        with pytest.raises(ConfigError):
            evaluate(None, world, TRANS, "base", 0, 0.01, seed=0)


class TestFeatures:
    def test_zero_context_features_equal_embeddings(self, world):
        feats = class_features(None, world, TRANS, list(range(15)))
        assert np.max(np.abs(feats - world.class_embeddings)) < 1e-12

    def test_translator_features_unit_norm(self, world):
        params = init_translator_params(TRANS, 11)
        feats = class_features(params, world, TRANS, [0, 3, 12])
        assert np.allclose(np.linalg.norm(feats, axis=1), 1.0, rtol=0, atol=1e-9)

    def test_training_logits_use_eval_features(self, world):
        params = init_translator_params(TRANS, 12)
        params["W_o"].set_value(np.random.default_rng(0).standard_normal((16, 16)))
        ids = [1, 4, 7]
        images = np.stack([world.center(c) for c in ids])
        logits = class_logits(params, TRANS, world, ids, images, 0.5).value
        feats = class_features(params, world, TRANS, ids)
        assert np.allclose(logits, images @ feats.T / 0.5, rtol=0, atol=1e-12)


class TestBothSplits:
    def test_result_fields(self, world):
        res = evaluate_both_splits(None, world, TRANS, 10, 0.01, seed=3)
        assert isinstance(res, EvalResult)
        assert abs(res.gap - (res.new_acc - res.base_acc)) < 1e-9
