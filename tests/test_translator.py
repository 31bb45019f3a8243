"""Tests for the prompt translator block."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedprompt import autograd as ag
from fedprompt.autograd import Parameter, ParameterSet
from fedprompt.errors import ConfigError, DimensionError
from fedprompt.seeding import rng_for
from fedprompt.translator import (
    TranslatorConfig,
    init_translator_params,
    translate_one,
    translator_schema,
)
import reference_graph as ref

CFG16 = TranslatorConfig(d_model=16, n_ctx=4, ffn_mult=2)


def randomized_params(cfg, seed, scale=0.3):
    """Init params with the zero-started tensors replaced by random values,
    so both residual branches actually carry signal."""
    rng = np.random.default_rng(seed)
    params = init_translator_params(cfg, seed)
    params["W_o"].set_value(rng.standard_normal((cfg.d_model, cfg.d_model)) * scale)
    params["ffn_out"].set_value(rng.standard_normal((cfg.d_ffn, cfg.d_model)) * scale)
    return params


class TestConfig:
    def test_positive_dims_enforced(self):
        with pytest.raises(ConfigError):
            TranslatorConfig(n_ctx=0)

    def test_derived_sizes(self):
        assert CFG16.d_ffn == 32


class TestSchema:
    def test_tensor_count(self):
        assert len(translator_schema(CFG16)) == 7

    def test_scalar_count_reference_config(self):
        # 64 queries + 2*256 projections + 2*16 norm + 1024 + 512 ffn
        assert init_translator_params(CFG16, 0).n_scalars() == 2144

    def test_schema_matches_built_params(self):
        params = init_translator_params(CFG16, 0)
        assert params.schema() == tuple(sorted(translator_schema(CFG16)))

    def test_flatten_round_trip(self):
        params = randomized_params(CFG16, 5)
        flat = params.flatten()
        assert flat.shape == (2144,)
        order = sorted(name for name, _ in translator_schema(CFG16))
        assert np.array_equal(flat, np.concatenate([params[n].value.ravel() for n in order]))
        rebuilt = ref.unflatten(params, flat)
        for name, p in params.items():
            assert rebuilt[name].value.tobytes() == p.value.tobytes()


class TestInit:
    def test_deterministic_for_seed(self):
        a = init_translator_params(CFG16, 123)
        b = init_translator_params(CFG16, 123)
        for name, p in a.items():
            assert np.array_equal(p.value, b[name].value)

    def test_seed_changes_values(self):
        a = init_translator_params(CFG16, 1)
        b = init_translator_params(CFG16, 2)
        assert not np.array_equal(a["queries"].value, b["queries"].value)

    def test_zero_started_tensors(self):
        params = init_translator_params(CFG16, 7)
        assert params["W_v"].value.any()  # projections stay random
        assert not params["W_o"].value.any()
        assert not params["ffn_out"].value.any()
        assert np.array_equal(params["ln2_gain"].value, np.ones(16))
        assert not params["ln2_bias"].value.any()

    def test_retired_draws_keep_later_values(self):
        # two [d, d] draws between queries and W_v hold the place of the
        # retired query/key projections, so W_v matches older releases
        rng = rng_for(5, "translator-init")
        rng.standard_normal((4, 16))
        rng.standard_normal((16, 16))
        rng.standard_normal((16, 16))
        expected = rng.standard_normal((16, 16)) / 4.0
        params = init_translator_params(CFG16, 5)
        assert np.array_equal(params["W_v"].value, expected)

    def test_query_scale(self):
        cfg = TranslatorConfig(d_model=64, n_ctx=64, ffn_mult=2)
        params = init_translator_params(cfg, 11)
        std = params["queries"].value.std()
        assert 0.015 < std < 0.025


def pooled_reference(params, cfg, emb):
    """Each class's mean row of the small-op block's context rows, [k, d]."""
    return ref.pool(ref.translate_one(params, cfg, ag.constant(emb)), len(emb))


class TestAttention:
    """Single-key attention reduces to one projected value row per query."""

    def test_single_key_output_is_projected_value_row(self):
        params = randomized_params(CFG16, 61)
        params["ffn_out"].set_value(np.zeros((CFG16.d_ffn, 16)))  # close the feed-forward
        emb = np.random.default_rng(8).standard_normal((1, 16))
        out = translate_one(params, CFG16, emb).value
        row = (emb @ params["W_v"].value) @ params["W_o"].value
        expected = params["queries"].value.mean(axis=0) + row
        assert out.shape == (1, 16)
        assert np.max(np.abs(out - expected)) < 1e-12


class TestForward:
    def test_context_equals_queries_at_init(self):
        params = init_translator_params(CFG16, 3)
        emb = np.random.default_rng(0).standard_normal((1, 16))
        out = translate_one(params, CFG16, emb)
        assert np.array_equal(out.value, params["queries"].value.mean(axis=0, keepdims=True))

    def test_wrong_width_rejected(self):
        params = init_translator_params(CFG16, 3)
        for shape in ((2, 8), (1, 17), (0, 16)):
            with pytest.raises(DimensionError):
                translate_one(params, CFG16, np.ones(shape))

    def test_params_of_another_shape_rejected(self):
        emb = np.ones((2, 16))
        for cfg in (TranslatorConfig(d_model=16, n_ctx=2, ffn_mult=2),
                    TranslatorConfig(d_model=16, n_ctx=4, ffn_mult=1)):
            with pytest.raises(DimensionError):
                translate_one(init_translator_params(cfg, 3), CFG16, emb)

    def test_batch_output_shape(self):
        # one context row per class, for one client and for a stack of three
        params = init_translator_params(CFG16, 9)
        emb = np.random.default_rng(4).standard_normal((5, 16))
        assert translate_one(params, CFG16, emb).shape == (5, 16)
        stacked = np.stack([emb] * 3)
        assert translate_one(params.stacked(3), CFG16, stacked).shape == (3, 5, 16)

    def test_batch_rows_are_single_class_contexts(self):
        params = randomized_params(CFG16, 21)
        emb = np.random.default_rng(6).standard_normal((3, 16))
        batched = translate_one(params, CFG16, emb).value
        for i in range(3):
            one = translate_one(params, CFG16, emb[i : i + 1]).value
            assert np.max(np.abs(batched[i] - one[0])) < 1e-12

    def test_distinct_kv_give_distinct_context(self):
        params = randomized_params(CFG16, 41)
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((1, 16)), rng.standard_normal((1, 16))
        ctx_a = translate_one(params, CFG16, a).value
        ctx_b = translate_one(params, CFG16, b).value
        assert not np.array_equal(ctx_a, ctx_b)


def lead_stacks(params, stacked, n, seed):
    """params with the named tensor stacked [n, *shape], perturbed per
    set, and every other one at lead 1, as grad_check holds them."""
    rng = np.random.default_rng(seed)
    return ParameterSet([
        p.twin(p.value + 0.01 * rng.standard_normal((n, *p.shape)) if name == stacked
               else p.value[None])
        for name, p in params.items()
    ])


class TestMixedLeads:
    """Leads that broadcast against one another, as in grad_check: the
    result is bitwise the one from every operand broadcast to the
    stack."""

    @pytest.mark.parametrize("stacked", [name for name, _ in translator_schema(CFG16)] + ["emb"])
    @pytest.mark.parametrize("emb_lead", [(), (1,)])
    def test_equals_full_broadcast_bitwise(self, stacked, emb_lead):
        params = randomized_params(CFG16, 61)
        emb = np.random.default_rng(10).standard_normal((*emb_lead, 3, 16))
        if stacked == "emb":
            emb = emb + 0.01 * np.random.default_rng(11).standard_normal((4, 3, 16))
        mixed = lead_stacks(params, stacked, 4, 12)
        full = ParameterSet([p.twin(np.broadcast_to(p.value, (4, *p.shape[1:]))) for p in mixed])
        got = translate_one(mixed, CFG16, emb)
        want = translate_one(full, CFG16, np.broadcast_to(emb, (4, 3, 16))).value
        assert got.shape == (4, 3, 16)
        assert got.value.tobytes() == want.tobytes()
        # every tensor at lead 1 gets its gradient at the stack's lead, which
        # backward() refuses before the rule writes into an array of its own
        probe = np.random.default_rng(13).standard_normal(got.shape)
        with pytest.raises(DimensionError, match="does not match parent"):
            ag.backward(ref.probe_sum(got, probe))

    def test_leads_that_do_not_broadcast_rejected(self):
        params = randomized_params(CFG16, 62)
        emb = np.ones((3, 2, 16))
        with pytest.raises(DimensionError):
            translate_one(params.stacked(2), CFG16, emb)
        mixed = ParameterSet([
            p.twin(np.broadcast_to(p.value, ((3 if name == "W_o" else 2), *p.shape)))
            for name, p in params.items()
        ])
        with pytest.raises(DimensionError):
            translate_one(mixed, CFG16, emb[0])

    def test_backward_refuses_gradients_at_another_lead(self):
        params = lead_stacks(randomized_params(CFG16, 63), "W_o", 4, 13)
        out = translate_one(params, CFG16, np.random.default_rng(14).standard_normal((3, 16)))
        probe = np.random.default_rng(15).standard_normal(out.shape)
        with pytest.raises(DimensionError, match="does not match parent"):
            ag.backward(ref.probe_sum(out, probe))


class TestGradients:
    def test_full_block_grad_check(self):
        cfg = TranslatorConfig(d_model=8, n_ctx=2, ffn_mult=2)
        params = randomized_params(cfg, 51)
        kv = np.random.default_rng(6).standard_normal((1, 8))
        probe_rng = np.random.default_rng(7)
        u = ag.constant(probe_rng.standard_normal((1, 1)))
        v = ag.constant(probe_rng.standard_normal((8, 1)))

        def loss():
            out = translate_one(params, cfg, kv)
            return ref.matmul(ref.matmul(u, out), v)

        assert ref.grad_check(loss, params) < 1e-6

    def test_every_gradient_matches_reference_at_three_classes(self):
        # the block is one node whose parents are the seven parameters; the
        # embedding is data and gets no gradient.  The layer norm's gain and
        # bias leave their init of one and zero, where a gain factor missing
        # from (or inverted in) the rule would not show
        params = randomized_params(CFG16, 52)
        norm_rng = np.random.default_rng(10)
        params["ln2_gain"].set_value(1.0 + 0.5 * norm_rng.standard_normal(16))
        params["ln2_bias"].set_value(0.5 * norm_rng.standard_normal(16))
        rng = np.random.default_rng(9)
        emb = rng.standard_normal((3, 16))
        probe = rng.standard_normal((3, 16))
        out = translate_one(params, CFG16, emb)
        assert out.op == "translate" and len(out.parents) == 7
        ag.backward(ref.probe_sum(out, probe))
        fused = {name: p.grad.copy() for name, p in params.items()}
        pooled = pooled_reference(params, CFG16, emb)
        assert np.max(np.abs(out.value - pooled.value)) / np.abs(pooled.value).max() < 1e-12
        ag.backward(ref.probe_sum(pooled, probe))
        for name, p in params.items():
            scale = np.abs(p.grad).max()
            assert np.max(np.abs(fused[name] - p.grad)) / scale < 1e-12, name

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(1, 4),
        n_ctx=st.integers(1, 4),
        ffn_mult=st.integers(1, 3),
        clients=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_output_and_gradients_match_reference(self, k, n_ctx, ffn_mult, clients, seed):
        # clients None is a lone client; otherwise every tensor and the
        # embeddings are stacked, each client's slice perturbed, and each
        # slice is held to the reference run on that client alone
        cfg = TranslatorConfig(d_model=6, n_ctx=n_ctx, ffn_mult=ffn_mult)
        rng = np.random.default_rng(seed)
        base = randomized_params(cfg, seed)
        base["ln2_gain"].set_value(1.0 + 0.5 * rng.standard_normal(6))
        base["ln2_bias"].set_value(0.5 * rng.standard_normal(6))
        n = 1 if clients is None else clients
        values = {name: p.value + 0.1 * rng.standard_normal((n, *p.shape))
                  for name, p in base.items()}
        emb = rng.standard_normal((n, k, 6))
        probe = rng.standard_normal((n, k, 6))

        def lone(x):
            return x[0] if clients is None else x

        params = ParameterSet([Parameter(name, lone(v)) for name, v in values.items()])
        out = translate_one(params, cfg, lone(emb))
        assert out.shape == lone(probe).shape
        ag.backward(ref.probe_sum(out, lone(probe)))
        got = out.value.reshape(n, k, 6)
        grads = {name: p.grad.reshape(n, *base[name].shape) for name, p in params.items()}

        def close(fused, want):
            return np.max(np.abs(fused - want)) <= 1e-12 * np.abs(want).max()

        for c in range(n):
            one = ParameterSet([Parameter(name, v[c]) for name, v in values.items()])
            pooled = pooled_reference(one, cfg, emb[c])
            assert close(got[c], pooled.value)
            ag.backward(ref.probe_sum(pooled, probe[c]))
            for name, p in one.items():
                assert close(grads[name][c], p.grad), name
