"""Tests for split evaluation and the zero-context baseline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedprompt import evaluation
from fedprompt.errors import ConfigError, ContractError
from fedprompt.evaluation import (
    EvalResult,
    class_features,
    evaluate,
    evaluate_both_splits,
    split_class_ids,
)
from fedprompt.federation import OptimizerConfig, class_logits, run_training
from fedprompt.partition import build_client_dataset, partition_classes
from fedprompt.seeding import rng_for
from fedprompt.translator import TranslatorConfig, init_translator_params
from fedprompt.world import WorldConfig, build_world
import reference_graph as ref

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


# d=16 worlds with a one-class new split, with and without image noise
# (text noise keeps the noiseless one below 100% on base), and a d=128
# world whose base split spans many blocks
BLOCK_WORLDS = {
    "d16": WorldConfig(d=16, n_base=10, n_new=1, sigma_img=0.3, sigma_text=0.1, seed=4),
    "d16_no_image_noise": WorldConfig(d=16, n_base=10, n_new=1, sigma_img=0.0,
                                      sigma_text=1.0, seed=4),
    "d128": WorldConfig(d=128, n_base=120, n_new=20, sigma_img=0.25, sigma_text=0.2, seed=4),
}


@pytest.fixture(scope="module", params=sorted(BLOCK_WORLDS))
def block_case(request):
    """A world, its translator config and two parameter sets: None (zero
    context) and the result of two federated rounds on it."""
    cfg = BLOCK_WORLDS[request.param]
    w = build_world(cfg)
    tcfg = TranslatorConfig(d_model=cfg.d, n_ctx=2, ffn_mult=2)
    blocks = partition_classes(cfg.n_base, 2, 3, seed=1)
    datasets = {c: build_client_dataset(w, b, 2, 1, c) for c, b in enumerate(blocks)}
    opt = OptimizerConfig(lr0=0.05, temperature=0.5, batch_size=4)
    trained, _ = run_training(w, datasets, opt, tcfg, init_translator_params(tcfg, 1),
                              total_rounds=2, epochs_per_round=1, fraction=1.0, seed=1)
    return w, tcfg, (None, trained)


class TestBlocks:
    # block_classes None keeps the module's BLOCK_BYTES; 3 shrinks a block
    # to three classes, which divides neither a 10-, 1- nor 20-class split
    @pytest.mark.parametrize("block_classes", [None, 3])
    @pytest.mark.parametrize("n_test", [1, 7, 50])
    def test_accuracies_equal_per_class_loop(self, block_case, n_test, block_classes,
                                             monkeypatch):
        w, tcfg, param_sets = block_case
        if block_classes is not None:
            monkeypatch.setattr(evaluation, "BLOCK_BYTES", block_classes * n_test * w.cfg.d * 8)
        for params in param_sets:
            for split in ("base", "new"):
                got = evaluate(params, w, tcfg, split, n_test, 0.07, seed=3)
                want = ref.evaluate(params, w, tcfg, split, n_test, 0.07, seed=3)
                assert got == want, (split, params is None)

    def test_default_block_splits_unevenly(self):
        # 120 classes of 7 samples at d=128 do not fill a whole number of blocks
        per_block = evaluation.BLOCK_BYTES // (7 * 128 * 8)
        assert 1 < per_block < 120 and 120 % per_block

    @pytest.mark.parametrize("n_test", [1, 7, 50])
    def test_block_logits_equal_per_class_logits_bitwise(self, block_case, n_test,
                                                         monkeypatch):
        # the samples evaluate draws keep every product taken with them, so
        # the scores it argmaxes can be held to the per-class products of
        # raw samples, drawn class by class from the split's stream
        products = []

        class Recorded(np.ndarray):
            def __matmul__(self, other):
                out = np.asarray(self) @ other
                products.append(out)
                return out

        sample = evaluation.sample_raw
        monkeypatch.setattr(evaluation, "sample_raw", lambda *a: sample(*a).view(Recorded))
        w, tcfg, param_sets = block_case
        ids = split_class_ids(w, "base")
        for params in param_sets:
            products.clear()
            evaluate(params, w, tcfg, "base", n_test, 0.07, seed=3)
            feats = class_features(params, w, tcfg, ids)
            scores = np.concatenate(products)
            assert scores.shape == (len(ids), n_test, len(ids))
            rng = rng_for(3, "eval", "base")
            for i, class_id in enumerate(ids):
                raw = ref.raw_sample(w, class_id, rng, n_test)
                assert scores[i].tobytes() == (raw @ feats.T).tobytes()


def _one_round(world, tcfg, seed):
    """Parameters after one federated round of one client that holds
    every base class of world."""
    blocks = partition_classes(world.cfg.n_base, 1, world.cfg.n_base, seed=seed)
    datasets = {c: build_client_dataset(world, b, 2, seed, c) for c, b in enumerate(blocks)}
    opt = OptimizerConfig(lr0=0.5, temperature=0.5, batch_size=4)
    trained, _ = run_training(world, datasets, opt, tcfg, init_translator_params(tcfg, seed),
                              total_rounds=1, epochs_per_round=1, fraction=1.0, seed=seed)
    return trained


class TestDefinition:
    """evaluate, which argmaxes raw dot products, equals the cosine/temperature
    definition in reference_graph on small random worlds."""

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(1, 8),
        n_base=st.integers(2, 6),
        n_new=st.integers(1, 4),
        sigma_img=st.sampled_from([0.0, 0.05, 0.3, 1.0, 3.0]),
        sigma_text=st.sampled_from([0.0, 0.1, 0.5]),
        n_test=st.sampled_from([1, 2, 7]),
        temperature=st.sampled_from([0.07, 0.3, 3.0]),
        trained=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_evaluate_equals_definition(self, d, n_base, n_new, sigma_img, sigma_text,
                                        n_test, temperature, trained, seed):
        w = build_world(WorldConfig(d=d, n_base=n_base, n_new=n_new, sigma_img=sigma_img,
                                    sigma_text=sigma_text, seed=seed))
        tcfg = TranslatorConfig(d_model=d, n_ctx=2, ffn_mult=2)
        params = _one_round(w, tcfg, seed) if trained else None
        for split in ("base", "new"):
            got = evaluate(params, w, tcfg, split, n_test, temperature, seed)
            want = ref.evaluate(params, w, tcfg, split, n_test, temperature, seed)
            assert got == want, split
