"""Tests for the synthetic embedding world."""

import numpy as np
import pytest

from fedprompt import autograd as ag
from fedprompt.autograd import Parameter, ParameterSet
from fedprompt.errors import ConfigError, DimensionError, NumericError
from fedprompt.seeding import rng_for
from fedprompt.world import (
    WorldConfig,
    build_world,
    sample_image,
    sample_raw,
    text_feature,
)
import reference_graph as ref

CFG = WorldConfig(d=32, n_base=60, n_new=20, sigma_img=0.1, sigma_text=0.05, seed=77)


@pytest.fixture(scope="module")
def world():
    return build_world(CFG)


class TestConfig:
    def test_needs_two_base_classes(self):
        with pytest.raises(ConfigError):
            WorldConfig(n_base=1)

    def test_interp_range_checked(self):
        with pytest.raises(ConfigError):
            WorldConfig(interp_lo=0.8, interp_hi=0.2)
        with pytest.raises(ConfigError):
            WorldConfig(interp_lo=-0.1)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            WorldConfig(sigma_img=-0.5)

    def test_one_dimension_builds(self):
        with pytest.raises(ConfigError):
            WorldConfig(d=0)
        w = build_world(WorldConfig(d=1, n_base=3, n_new=2, seed=1))
        assert w.centers.shape == (5, 1)
        assert np.array_equal(np.abs(w.centers[w.base_ids]), np.ones((3, 1)))

    @pytest.mark.parametrize("lo, hi", [(0.0, 0.4), (0.0, 0.0), (1.0, 1.0)])
    def test_interp_bounds_inclusive(self, lo, hi):
        w = build_world(WorldConfig(d=8, n_base=4, n_new=3, interp_lo=lo, interp_hi=hi, seed=2))
        assert np.allclose(np.linalg.norm(w.centers, axis=1), 1.0, rtol=0, atol=1e-12)


class TestGeometry:
    def test_deterministic(self, world):
        again = build_world(CFG)
        assert np.array_equal(world.centers, again.centers)
        assert np.array_equal(world.class_embeddings, again.class_embeddings)
        assert np.array_equal(world.head.W1, again.head.W1)

    def test_seed_matters(self, world):
        other = build_world(WorldConfig(d=32, n_base=60, n_new=20, seed=78))
        assert not np.array_equal(world.centers[world.base_ids], other.centers[other.base_ids])

    def test_unit_norms(self, world):
        for rows in (world.centers, world.class_embeddings):
            norms = np.sqrt((rows * rows).sum(axis=1))
            assert np.allclose(norms, 1.0, rtol=0, atol=1e-9)

    def test_id_ranges_disjoint(self, world):
        assert list(world.base_ids) == list(range(60))
        assert list(world.new_ids) == list(range(60, 80))

    def test_new_centers_lie_near_base_mass(self, world):
        # every novel center is a normalized blend of two base centers, so
        # its best base cosine is far above the random-direction level
        cos = world.centers[world.new_ids] @ world.centers[world.base_ids].T
        assert cos.max(axis=1).min() > 0.3

    @pytest.mark.parametrize("lo, hi", [(0.3, 0.7), (0.5, 0.5)])
    def test_new_center_is_positive_mix_of_two_base_centers(self, lo, hi):
        # unit(alpha * a + beta * b) for distinct base centers a, b, with
        # alpha, beta > 0 and alpha / (alpha + beta) inside [lo, hi]
        cfg = WorldConfig(d=16, n_base=10, n_new=6, interp_lo=lo, interp_hi=hi, seed=3)
        w = build_world(cfg)
        base = w.centers[w.base_ids]
        for c in w.centers[w.new_ids]:
            mixes = []
            for a in range(cfg.n_base):
                for b in range(a + 1, cfg.n_base):
                    pair = base[[a, b]].T
                    coef = np.linalg.lstsq(pair, c, rcond=None)[0]
                    if np.max(np.abs(pair @ coef - c)) < 1e-12:
                        mixes.append(coef)
            assert len(mixes) == 1
            alpha, beta = mixes[0]
            assert alpha > 0 and beta > 0
            ratios = (alpha / (alpha + beta), beta / (alpha + beta))
            assert any(lo - 1e-12 <= r <= hi + 1e-12 for r in ratios)

    def test_new_centers_distinct_from_base(self, world):
        cos = world.centers[world.new_ids] @ world.centers[world.base_ids].T
        assert cos.max() < 0.999

    def test_zero_text_noise_reproduces_centers_bitwise(self):
        cfg = WorldConfig(d=16, n_base=10, n_new=4, sigma_text=0.0, seed=5)
        w = build_world(cfg)
        assert np.array_equal(w.class_embeddings, w.centers)

    def test_embeddings_stay_nearest_own_center(self, world):
        cos = world.class_embeddings @ world.centers.T
        assert np.array_equal(cos.argmax(axis=1), np.arange(80))


class TestImages:
    def test_zero_noise_returns_center_bitwise(self):
        cfg = WorldConfig(d=16, n_base=4, n_new=0, sigma_img=0.0, seed=3)
        w = build_world(cfg)
        imgs = sample_image(w, [2, 0], [np.random.default_rng(0), np.random.default_rng(1)], 3)
        assert imgs.shape == (2, 3, 16)
        assert all(np.array_equal(img, w.centers[2]) for img in imgs[0])
        assert all(np.array_equal(img, w.centers[0]) for img in imgs[1])

    def test_unit_norm(self, world):
        rng = np.random.default_rng(1)
        imgs = sample_image(world, [0, 33, 79], [rng, rng, rng], 5)
        assert imgs.shape == (3, 5, CFG.d)
        assert np.max(np.abs(np.linalg.norm(imgs, axis=-1) - 1.0)) < 1e-9

    def test_mean_cosine_matches_noise_level(self, world):
        # cos to the center concentrates near 1/sqrt(1 + sigma^2 d); for
        # sigma 0.1 and d 32 that is about 0.87
        imgs = sample_image(world, [0], [np.random.default_rng(2)], 1000)[0]
        cos = imgs @ world.centers[0]
        assert 0.85 < np.mean(cos) < 0.89

    def test_images_cluster_around_own_center(self, world):
        rng = np.random.default_rng(3)
        ids = list(range(0, 80, 4))
        imgs = sample_image(world, ids, [rng] * len(ids), 5)
        hits = int(((imgs @ world.centers.T).argmax(axis=-1) == np.array(ids)[:, None]).sum())
        assert hits >= 95  # of 100

    def test_bad_class_id(self, world):
        with pytest.raises(IndexError):
            sample_image(world, [0, 80], [np.random.default_rng(0)] * 2, 1)

    # a negative id once counted back from the last class: in a 2+20
    # world center(-1) was class 19's center, in the default world it hit
    # numpy's own bounds error
    @pytest.mark.parametrize("cfg", [WorldConfig(d=8, n_base=2, n_new=20, seed=1), WorldConfig()],
                             ids=["n_base2_n_new20", "default"])
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_class_id_outside_world_refused(self, cfg, side):
        w = build_world(cfg)
        class_id = -1 if side == "below" else cfg.n_classes
        match = f"class id {class_id} out of range"
        with pytest.raises(IndexError, match=match):
            w.center(class_id)
        with pytest.raises(IndexError, match=match):
            sample_image(w, [0, class_id], [np.random.default_rng(0)] * 2, 1)
        with pytest.raises(IndexError, match=match):
            sample_raw(w, [0, class_id], np.random.default_rng(0), 1)

    def test_one_stream_per_class(self, world):
        with pytest.raises(DimensionError):
            sample_image(world, [0, 1], [np.random.default_rng(0)], 1)

    @pytest.mark.parametrize("sigma_img", [0.25, 0.0])
    @pytest.mark.parametrize("d", [16, 129])
    def test_n_draws_equal_n_single_draws_bitwise(self, sigma_img, d):
        w = build_world(WorldConfig(d=d, n_base=4, n_new=2, sigma_img=sigma_img, seed=9))
        batched = sample_image(w, [5], [np.random.default_rng(4)], 7)[0]
        rng = np.random.default_rng(4)
        single = np.concatenate([sample_image(w, [5], [rng], 1)[0] for _ in range(7)])
        assert batched.shape == (7, d)
        assert batched.tobytes() == single.tobytes()

    @pytest.mark.parametrize("sigma_img", [0.25, 0.0])
    @pytest.mark.parametrize("d", [16, 129])
    def test_class_set_equals_per_class_draws_bitwise(self, sigma_img, d):
        w = build_world(WorldConfig(d=d, n_base=4, n_new=2, sigma_img=sigma_img, seed=9))
        ids = [5, 0, 3]
        imgs = sample_image(w, ids, [np.random.default_rng(10 + c) for c in ids], 6)
        assert imgs.shape == (3, 6, d)
        for rows, class_id in zip(imgs, ids):
            one = ref.sample_image(w, class_id, np.random.default_rng(10 + class_id), 6)
            assert rows.tobytes() == one.tobytes()

    @pytest.mark.parametrize("d", [1, 16, 129])
    def test_one_block_draw_equals_consecutive_class_draws_bitwise(self, d):
        # one [k, n, d] draw takes the values of k [n, d] draws in turn
        block = np.random.default_rng(5).standard_normal((3, 7, d))
        rng = np.random.default_rng(5)
        per_class = np.stack([rng.standard_normal((7, d)) for _ in range(3)])
        assert block.tobytes() == per_class.tobytes()

    @pytest.mark.parametrize("sigma_img", [0.25, 0.0])
    @pytest.mark.parametrize("d", [16, 129])
    def test_raw_block_equals_consecutive_class_draws_bitwise(self, sigma_img, d):
        w = build_world(WorldConfig(d=d, n_base=4, n_new=2, sigma_img=sigma_img, seed=9))
        ids = [5, 0, 3]
        raw = sample_raw(w, ids, np.random.default_rng(6), 4)
        assert raw.shape == (3, 4, d)
        rng = np.random.default_rng(6)
        for rows, class_id in zip(raw, ids):
            assert rows.tobytes() == ref.raw_sample(w, class_id, rng, 4).tobytes()

    @pytest.mark.parametrize("n_new", [0, 3])
    @pytest.mark.parametrize("sigma_text", [0.05, 1.0])
    @pytest.mark.parametrize("d", [16, 129])
    def test_text_noise_draw_equals_per_class_draws_bitwise(self, d, sigma_text, n_new):
        cfg = WorldConfig(d=d, n_base=5, n_new=n_new, sigma_text=sigma_text, seed=11)
        w = build_world(cfg)
        # replay the draw order with one d-draw per class-name embedding
        rng = rng_for(cfg.seed, "world")
        rng.standard_normal((cfg.n_base, d))
        for _ in range(n_new):
            rng.choice(cfg.n_base, size=2, replace=False)
            rng.uniform(cfg.interp_lo, cfg.interp_hi)
        emb = np.empty_like(w.centers)
        for c in range(cfg.n_classes):
            noisy = w.centers[c] + sigma_text * rng.standard_normal(d)
            emb[c] = noisy / max(np.sqrt((noisy * noisy).sum()), 1e-8)
        W1 = rng.standard_normal((d, d)) / np.sqrt(d)
        W2 = rng.standard_normal((d, d)) / np.sqrt(d)
        assert w.class_embeddings.tobytes() == emb.tobytes()
        assert w.head.W1.tobytes() == W1.tobytes()
        assert w.head.W2.tobytes() == W2.tobytes()


def emb_rows(world, class_ids):
    return world.class_embeddings[list(class_ids)]


class TestTextFeature:
    def test_zero_context_identity(self, world):
        ids = range(0, 80, 7)
        emb = emb_rows(world, ids)
        zero_ctx = ag.constant(np.zeros((len(emb), CFG.d)))
        feat = text_feature(world.head, emb, zero_ctx).value
        assert feat.shape == emb.shape
        assert np.max(np.abs(feat - emb)) < 1e-12

    def test_nonzero_context_moves_feature(self, world):
        ctx = ag.constant(np.random.default_rng(4).standard_normal((1, CFG.d)))
        emb = emb_rows(world, [0])
        feat = text_feature(world.head, emb, ctx).value
        assert np.max(np.abs(feat - emb)) > 1e-3
        assert abs(np.linalg.norm(feat) - 1.0) < 1e-9

    def test_width_mismatch_rejected(self, world):
        with pytest.raises(DimensionError):
            text_feature(world.head, emb_rows(world, [0]), ag.constant(np.zeros((4, 16))))

    def test_one_context_row_per_class(self, world):
        # each class's feature is its embedding plus the head of its one row
        emb = emb_rows(world, [3, 11])
        ctx = np.random.default_rng(12).standard_normal((2, CFG.d))
        feat = text_feature(world.head, emb, ag.constant(ctx)).value
        z = ctx @ world.head.W1
        x = emb + (z * ag.quick_gelu_gate(z)) @ world.head.W2
        want = x / np.linalg.norm(x, axis=1, keepdims=True)
        assert np.max(np.abs(feat - want)) < 1e-12

    def test_ctx_rows_must_split_into_classes(self, world):
        # exactly one row per class: 12 rows (n_ctx = 4 for each class) are
        # refused too, and so is a stack with one class too many
        emb = emb_rows(world, [0, 1, 2])
        for rows in (12, 4, 2, 0):
            with pytest.raises(DimensionError, match="one row for each of 3 classes"):
                text_feature(world.head, emb, ag.constant(np.zeros((rows, CFG.d))))
        with pytest.raises(DimensionError, match="one row for each of 3 classes"):
            text_feature(world.head, np.stack([emb] * 2), ag.constant(np.zeros((2, 4, CFG.d))))

    def test_classes_pool_only_their_own_rows(self, world):
        ids = [3, 8, 40]
        ctx = np.random.default_rng(7).standard_normal((3, CFG.d))
        batched = text_feature(world.head, emb_rows(world, ids), ag.constant(ctx)).value
        for i, class_id in enumerate(ids):
            one = text_feature(
                world.head, emb_rows(world, [class_id]), ag.constant(ctx[i : i + 1])
            ).value
            assert np.max(np.abs(batched[i] - one[0])) < 1e-12

    def test_overflowing_squared_norm_raises(self, world):
        # a finite head output beyond about 1e154 overflows sum(x * x), and
        # dividing by that infinite norm would zero every feature
        ctx = np.random.default_rng(8).standard_normal((2, CFG.d)) * 1e160
        emb = emb_rows(world, [3, 11])
        with np.errstate(over="ignore"):
            z = ctx @ world.head.W1
            x = emb + (z * ag.quick_gelu_gate(z)) @ world.head.W2
            assert np.isfinite(x).all() and np.isinf((x * x).sum(axis=1)).all()
            with pytest.raises(NumericError, match="norm"):
                text_feature(world.head, emb, ag.constant(ctx))

    @pytest.mark.parametrize("emb_lead, ctx_lead", [((1,), (4,)), ((4,), (1,)), ((), (4,))])
    def test_mixed_leads_equal_full_broadcast_bitwise(self, world, emb_lead, ctx_lead):
        rng = np.random.default_rng(9)
        emb = np.broadcast_to(emb_rows(world, [3, 11]), (*emb_lead, 2, CFG.d))
        if emb_lead == (4,):
            emb = emb + 0.01 * rng.standard_normal(emb.shape)
        ctx = rng.standard_normal((*ctx_lead, 2, CFG.d))
        got = text_feature(world.head, emb, ag.constant(ctx)).value
        want = text_feature(
            world.head,
            np.broadcast_to(emb, (4, 2, CFG.d)),
            ag.constant(np.broadcast_to(ctx, (4, 2, CFG.d))),
        ).value
        assert got.shape == (4, 2, CFG.d)
        assert got.tobytes() == want.tobytes()

    def test_leads_that_do_not_broadcast_rejected(self, world):
        emb = np.broadcast_to(emb_rows(world, [3, 11]), (2, 2, CFG.d))
        with pytest.raises(DimensionError, match="broadcast"):
            text_feature(world.head, emb, ag.constant(np.zeros((3, 2, CFG.d))))

    def test_backward_refuses_context_gradient_at_another_lead(self, world):
        emb = np.broadcast_to(emb_rows(world, [3, 11]), (3, 2, CFG.d))
        ctx = ag.constant(np.random.default_rng(10).standard_normal((1, 2, CFG.d)))
        feats = text_feature(world.head, emb, ctx)
        probe = np.random.default_rng(11).standard_normal(feats.shape)
        with pytest.raises(DimensionError, match="does not match parent"):
            ag.backward(ref.probe_sum(feats, probe))

    def test_gradient_reaches_context(self, world):
        ctx = Parameter("ctx", np.random.default_rng(5).standard_normal((2, CFG.d)) * 0.1)
        params = ParameterSet([ctx])
        emb = emb_rows(world, [3, 11])
        probe = np.random.default_rng(6).standard_normal((CFG.d, 1))

        def loss():
            feats = text_feature(world.head, emb, ctx)
            return ref.matmul(ag.constant(np.ones((1, 2))), ref.matmul(feats, ag.constant(probe)))

        assert ref.grad_check(loss, params) < 1e-6

    def test_gradient_through_zero_norm_row(self, world):
        # a zero class embedding with zero context gives a zero row, which
        # is divided by L2_NORM_EPS; a step of 1e-13 keeps the perturbed
        # rows below it, so the differences take that branch too
        ctx = Parameter("ctx", np.zeros((1, CFG.d)))
        params = ParameterSet([ctx])
        emb = np.zeros((1, CFG.d))
        probe = np.random.default_rng(13).standard_normal((1, CFG.d))

        def loss():
            feats = text_feature(world.head, emb, ctx)
            # a row at or above the epsilon would come out unit-norm
            assert np.linalg.norm(feats.value) < 0.5
            return ref.probe_sum(feats, probe)

        assert ref.grad_check(loss, params, h=1e-13) < 1e-6
