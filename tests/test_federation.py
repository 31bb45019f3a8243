"""Tests for the optimizer, aggregation, and the federated loop."""

import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedprompt.autograd import Parameter, ParameterSet, backward
from fedprompt import autograd as ag
from fedprompt import federation
from fedprompt.diagnostics import (
    GRADCHECK_HEAD_SCALE,
    GRADCHECK_RAND_STD,
    GRADCHECK_SEED,
    randomized_translator_params,
)
from fedprompt.errors import ConfigError, ContractError, NumericError, SchemaError
from fedprompt.federation import (
    CHUNK_SCALARS,
    ClientUpdate,
    OptimizerConfig,
    RoundLog,
    class_logits,
    class_text_features,
    client_chunks,
    cosine_lr,
    fedavg,
    local_update,
    run_training,
    select_clients,
    sgd_step,
)
from fedprompt.partition import build_client_dataset, partition_classes
from fedprompt.seeding import rng_for
from fedprompt.translator import TranslatorConfig, init_translator_params, translate_one
from fedprompt.world import FrozenTextHead, WorldConfig, build_world, text_feature
import reference_graph as ref

TRANS = TranslatorConfig(d_model=16, n_ctx=2, ffn_mult=2)
OPT = OptimizerConfig(lr0=0.05, temperature=0.5, batch_size=4)


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig(d=16, n_base=12, n_new=4, sigma_img=0.3, sigma_text=0.2, seed=2))


@pytest.fixture(scope="module")
def roomy_world():
    # base classes for up to 5 clients of 4 classes each
    return build_world(WorldConfig(d=16, n_base=20, n_new=2, sigma_img=0.3, sigma_text=0.2, seed=6))


def small_setup(world, n_clients=2, classes_per_client=3, shots=2, seed=10):
    blocks = partition_classes(world.cfg.n_base, n_clients, classes_per_client, seed)
    datasets = {
        cid: build_client_dataset(world, block, shots, seed, cid)
        for cid, block in enumerate(blocks)
    }
    params = init_translator_params(TRANS, seed)
    return datasets, params


class TestCosineLr:
    def test_endpoints(self):
        assert cosine_lr(0.003, 0, 50) == 0.003
        assert abs(cosine_lr(0.003, 25, 50) - 0.0015) < 1e-18
        assert cosine_lr(0.003, 50, 50) < 1e-18

    def test_monotone_decrease(self):
        values = [cosine_lr(1.0, t, 20) for t in range(21)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            cosine_lr(0.003, 51, 50)
        with pytest.raises(ContractError):
            cosine_lr(0.003, -1, 50)


class TestSgdStep:
    def test_two_steps_frozen_values(self):
        # theta 1, grad 1, momentum 0.9, lr 0.1, no decay:
        # v1=1, theta=0.9; v2=1.9, theta=0.71
        p = Parameter("w", [1.0])
        cfg = OptimizerConfig(lr0=0.1, momentum=0.9, weight_decay=0.0)
        vel = {"w": np.zeros(1)}
        for expected in (0.9, 0.71):
            p.grad = np.array([1.0])
            sgd_step(ParameterSet([p]), vel, 0.1, cfg)
            assert abs(p.value[0] - expected) < 1e-15
        assert abs(vel["w"][0] - 1.9) < 1e-15

    def test_weight_decay_joins_gradient(self):
        p = Parameter("w", [2.0])
        p.grad = np.array([0.0])
        cfg = OptimizerConfig(lr0=0.1, momentum=0.0, weight_decay=0.5)
        sgd_step(ParameterSet([p]), {"w": np.zeros(1)}, 0.1, cfg)
        # v = 0 + 0.5*2 = 1, theta = 2 - 0.1
        assert abs(p.value[0] - 1.9) < 1e-15

    def test_missing_grad_rejected(self):
        p = Parameter("w", [1.0])
        with pytest.raises(ContractError):
            sgd_step(ParameterSet([p]), {"w": np.zeros(1)}, 0.1, OptimizerConfig())

    def test_reduces_to_vanilla_descent(self):
        rng = np.random.default_rng(6)
        theta = rng.standard_normal(20)
        grad = rng.standard_normal(20)
        p = Parameter("w", theta)
        p.grad = np.array(grad)
        cfg = OptimizerConfig(lr0=0.07, momentum=0.0, weight_decay=0.0)
        sgd_step(ParameterSet([p]), {"w": np.zeros(20)}, 0.07, cfg)
        assert np.max(np.abs(p.value - (theta - 0.07 * grad))) < 1e-15

    def test_stacked_step_names_lowest_failing_client(self):
        # "a" steps first and fails for client 2, "b" fails for client 1:
        # the step finishes every tensor and names client 1
        a, b = Parameter("a", np.ones((3, 2))), Parameter("b", np.ones((3, 2)))
        a.grad = np.where(np.arange(3)[:, None] == 2, np.inf, 0.0) * np.ones((3, 2))
        b.grad = np.where(np.arange(3)[:, None] == 1, np.inf, 0.0) * np.ones((3, 2))
        with pytest.raises(NumericError) as err, np.errstate(invalid="ignore"):
            sgd_step(ParameterSet([a, b]), {}, 0.1, OptimizerConfig())
        assert err.value.index == 1
        assert a.grad is None and b.grad is None


class TestSelectClients:
    def test_full_participation(self):
        assert select_clients(6, 1.0, seed=1, t=0) == [0, 1, 2, 3, 4, 5]

    def test_at_least_one(self):
        assert len(select_clients(10, 0.01, seed=1, t=3)) == 1

    def test_sorted_and_deterministic(self):
        a = select_clients(10, 0.5, seed=4, t=7)
        assert a == sorted(a)
        assert a == select_clients(10, 0.5, seed=4, t=7)

    def test_round_changes_selection(self):
        picks = {tuple(select_clients(10, 0.3, seed=5, t=t)) for t in range(20)}
        assert len(picks) > 1

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            select_clients(5, 0.0, seed=1, t=0)


class TestFedAvg:
    def make_update(self, cid, values):
        return ClientUpdate(cid, ParameterSet([Parameter("w", values)]), 0.5)

    def test_mean_frozen_value(self):
        merged = fedavg([self.make_update(0, [1.0]), self.make_update(1, [2.0]),
                         self.make_update(2, [6.0])])
        assert merged["w"].value[0] == 3.0

    def test_single_client_bitwise(self):
        values = np.random.default_rng(0).standard_normal(7)
        merged = fedavg([self.make_update(3, values)])
        assert np.array_equal(merged["w"].value, values)

    def test_identical_clients_bitwise(self):
        values = np.random.default_rng(1).standard_normal(9)
        merged = fedavg([self.make_update(i, values) for i in range(3)])
        assert np.array_equal(merged["w"].value, values)

    def test_order_invariant_bitwise(self):
        rng = np.random.default_rng(2)
        updates = [self.make_update(i, rng.standard_normal(11)) for i in range(4)]
        a = fedavg(updates)
        b = fedavg(list(reversed(updates)))
        assert np.array_equal(a["w"].value, b["w"].value)

    def test_schema_mismatch_names_clients(self):
        bad = ClientUpdate(9, ParameterSet([Parameter("w", [1.0, 2.0])]), 0.5)
        with pytest.raises(SchemaError) as err:
            fedavg([self.make_update(0, [1.0]), bad])
        assert "0" in str(err.value) and "9" in str(err.value)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ContractError):
            fedavg([self.make_update(1, [1.0]), self.make_update(1, [2.0])])

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            fedavg([])

    def test_running_mean_folds_ascending_only(self):
        running = federation.RunningMean()
        with pytest.raises(ContractError):
            running.params()
        fedavg([self.make_update(2, [1.0]), self.make_update(4, [2.0])], running)
        for late in (4, 3):
            with pytest.raises(ContractError):
                fedavg([self.make_update(late, [3.0]), self.make_update(7, [3.0])], running)
        assert fedavg([self.make_update(5, [6.0])], running) is None
        assert running.count == 3 and running.params()["w"].value[0] == 3.0

    @settings(max_examples=40, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 50), min_size=1, max_size=7, unique=True),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_any_arrival_order_and_chunking_is_one_call(self, ids, seed, data):
        rng = np.random.default_rng(seed)
        updates = [
            ClientUpdate(cid, ParameterSet([Parameter("W", rng.standard_normal((3, 4))),
                                            Parameter("s", rng.standard_normal(()))]), 0.0)
            for cid in ids
        ]
        whole = value_bytes(fedavg(updates))
        arrived = data.draw(st.permutations(updates))
        assert value_bytes(fedavg(arrived)) == whole
        # consecutive chunks of the sorted updates, each folded on arrival
        ordered = sorted(updates, key=lambda u: u.client_id)
        cuts = data.draw(st.lists(st.booleans(), min_size=len(ordered) - 1,
                                  max_size=len(ordered) - 1))
        chunks, running = [[ordered[0]]], federation.RunningMean()
        for cut, u in zip(cuts, ordered[1:]):
            if cut:
                chunks.append([])
            chunks[-1].append(u)
        for chunk in chunks:
            fedavg(data.draw(st.permutations(chunk)), running)
        assert value_bytes(running.params()) == whole


def loop_features(params, world, class_ids):
    """Reference: one translator and one head graph per class (k = 1)."""
    feats = []
    for class_id in class_ids:
        emb = world.class_embeddings[class_id : class_id + 1]
        if params is None:
            ctx = ag.constant(np.zeros((1, TRANS.d_model)))
        else:
            ctx = translate_one(params, TRANS, emb)
        feats.append(text_feature(world.head, emb, ctx))
    return feats


def graph_size(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


class TestClassTextFeatures:
    IDS = [1, 4, 5, 9, 13]

    def trained_params(self, world):
        datasets, params = small_setup(world)
        return local_update(params, world, [datasets[0]], OPT, TRANS, 2, 0.05,
                            [np.random.default_rng(11)], [0])[0].params

    def test_trained_features_match_per_class_loop(self, world):
        params = self.trained_params(world)
        assert params["W_o"].value.any() and params["ffn_out"].value.any()
        batched = class_text_features(params, TRANS, world, self.IDS).value
        loop = np.concatenate([f.value for f in loop_features(params, world, self.IDS)])
        assert batched.shape == (5, 16)
        assert np.max(np.abs(batched - loop)) < 1e-12

    def test_zero_context_features_match_per_class_loop(self, world):
        batched = class_text_features(None, TRANS, world, self.IDS).value
        loop = np.concatenate([f.value for f in loop_features(None, world, self.IDS)])
        assert np.max(np.abs(batched - loop)) < 1e-12

    def test_gradients_match_per_class_loop(self, world):
        params = self.trained_params(world)
        k = len(self.IDS)
        probe = np.random.default_rng(12).standard_normal((k, TRANS.d_model))

        def total(rows):
            # sum_i <feature_i, probe_i> as a scalar node
            out = ref.matmul(rows[0], ag.constant(probe[:1].T))
            for i, row in enumerate(rows[1:], start=1):
                out = ref.add(out, ref.matmul(row, ag.constant(probe[i : i + 1].T)))
            return out

        feats = class_text_features(params, TRANS, world, self.IDS)
        backward(total([ref.matmul(ag.constant(np.eye(k)[i : i + 1]), feats) for i in range(k)]))
        batched = {name: p.grad.copy() for name, p in params.items()}
        backward(total(loop_features(params, world, self.IDS)))
        scale = max(np.abs(p.grad).max() for p in params)
        assert scale > 0
        for name, p in params.items():
            assert np.max(np.abs(batched[name] - p.grad)) / scale < 1e-12, name

    def test_step_graph_size_independent_of_class_count(self, world):
        params = init_translator_params(TRANS, 3)
        images = np.random.default_rng(13).standard_normal((4, 16))
        sizes = {}
        for n_clients in (1, 3):
            stack = params.stacked(n_clients)
            for k in (1, 3, 12):
                ids = [list(range(i, i + k)) for i in range(n_clients)]
                logits = class_logits(stack, TRANS, world, ids, np.stack([images] * n_clients), 0.5)
                loss = ag.cross_entropy(logits, np.zeros((n_clients, 4), dtype=int))
                sizes[n_clients, k] = graph_size(loss)
                assert loss.means.shape == (n_clients,)
        # 7 parameters, the translator, text-head and logits nodes and
        # cross_entropy, whatever the clients and classes
        assert set(sizes.values()) == {11}, sizes

    def test_negative_class_id_rejected(self, world):
        with pytest.raises(IndexError):
            class_text_features(None, TRANS, world, [0, -1])

    def test_overflowing_forward_raises(self, world):
        # finite weights whose products overflow inside the translator
        params = init_translator_params(TRANS, 0)
        for name in ("W_v", "W_o"):
            params[name].set_value(np.full(params[name].shape, 1e300))
        with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
            class_text_features(params, TRANS, world, [0, 1])


def fused_and_reference_case(shape, k):
    """World, translator config and randomized params at one of two shapes:
    the default model, or the gradcheck probe's (width 16, ffn_mult 1, unit
    std weights, doubled head)."""
    if shape == "default":
        tcfg = TranslatorConfig()
        world = build_world(WorldConfig(seed=4))
        return world, tcfg, randomized_translator_params(tcfg, 4)
    tcfg = TranslatorConfig(d_model=16, n_ctx=4, ffn_mult=1)
    # at k = 3 this is the gradcheck world itself: two base classes, one new
    world = build_world(WorldConfig(d=16, n_base=max(k - 1, 2), n_new=1, sigma_img=0.1,
                                    sigma_text=0.05, seed=GRADCHECK_SEED))
    head = FrozenTextHead(GRADCHECK_HEAD_SCALE * world.head.W1, GRADCHECK_HEAD_SCALE * world.head.W2)
    params = randomized_translator_params(tcfg, GRADCHECK_SEED, std=GRADCHECK_RAND_STD)
    return replace(world, head=head), tcfg, params


@pytest.mark.parametrize("k", [1, 3, 12])
@pytest.mark.parametrize("shape", ["default", "gradcheck"])
class TestFusedAgainstReference:
    """The one-node translator and text head against the small-op composition."""

    def test_features_match(self, shape, k):
        world, tcfg, params = fused_and_reference_case(shape, k)
        ids = list(range(k))
        fused = class_text_features(params, tcfg, world, ids).value
        reference = ref.class_text_features(params, tcfg, world, ids).value
        assert fused.shape == (k, tcfg.d_model)
        assert np.max(np.abs(fused - reference)) < 1e-12

    def test_every_gradient_matches(self, shape, k):
        world, tcfg, params = fused_and_reference_case(shape, k)
        ids = list(range(k))
        probe = np.random.default_rng(k).standard_normal((k, tcfg.d_model))
        backward(ref.probe_sum(class_text_features(params, tcfg, world, ids), probe))
        fused = {name: p.grad.copy() for name, p in params.items()}
        backward(ref.probe_sum(ref.class_text_features(params, tcfg, world, ids), probe))
        for name, p in params.items():
            scale = np.abs(p.grad).max()
            assert scale > 0, name
            assert np.max(np.abs(fused[name] - p.grad)) / scale < 1e-12, name

    def test_zero_context_gives_raw_embedding(self, shape, k):
        world, tcfg, _ = fused_and_reference_case(shape, k)
        feats = class_text_features(None, tcfg, world, range(k)).value
        assert np.max(np.abs(feats - world.class_embeddings[:k])) < 1e-12


class TestLocalUpdate:
    def test_global_params_untouched(self, world):
        datasets, params = small_setup(world)
        before = params.flatten()
        local_update(params, world, [datasets[0]], OPT, TRANS, 1, 0.05,
                     [np.random.default_rng(0)], [0])[0]
        assert np.array_equal(params.flatten(), before)

    def test_global_values_and_grads_untouched(self, world):
        datasets, params = small_setup(world)
        loss = ag.cross_entropy(class_logits(params, TRANS, world, datasets[0].class_ids,
                                             datasets[0].images, 0.5), datasets[0].labels)
        backward(loss)
        values = {name: p.value for name, p in params.items()}
        grads = {name: p.grad for name, p in params.items()}
        before = {name: (p.value.tobytes(), p.grad.tobytes()) for name, p in params.items()}
        update = local_update(params, world, [datasets[0]], OPT, TRANS, 2, 0.05,
                              [np.random.default_rng(0)], [0])[0]
        for name, p in params.items():
            assert p.value is values[name] and p.grad is grads[name]
            assert (p.value.tobytes(), p.grad.tobytes()) == before[name]
            assert not np.shares_memory(update.params[name].value, p.value)

    def test_deterministic_given_rng_seed(self, world):
        datasets, params = small_setup(world)
        a = local_update(params, world, [datasets[0]], OPT, TRANS, 2, 0.05,
                         [np.random.default_rng(5)], [0])[0]
        b = local_update(params, world, [datasets[0]], OPT, TRANS, 2, 0.05,
                         [np.random.default_rng(5)], [0])[0]
        assert np.array_equal(a.params.flatten(), b.params.flatten())
        assert a.mean_loss == b.mean_loss

    def test_training_moves_parameters(self, world):
        datasets, params = small_setup(world)
        update = local_update(params, world, [datasets[0]], OPT, TRANS, 1, 0.05,
                              [np.random.default_rng(1)], [0])[0]
        assert not np.array_equal(update.params.flatten(), params.flatten())

    def test_overflowing_step_raises(self, world):
        # decay 10 at lr 1e308 sends W_v (std 1/4) past the float64 range
        # in the first step, before any forward pass sees the new values
        datasets, params = small_setup(world)
        opt = OptimizerConfig(lr0=0.05, temperature=0.5, batch_size=4, weight_decay=10.0)
        with pytest.raises(NumericError), np.errstate(over="ignore"):
            local_update(params, world, [datasets[0]], opt, TRANS, 1, 1e308,
                         [np.random.default_rng(2)], [0])[0]

    def test_zero_lr_keeps_values(self, world):
        datasets, params = small_setup(world)
        update = local_update(params, world, [datasets[0]], OPT, TRANS, 1, 0.0,
                              [np.random.default_rng(2)], [0])[0]
        assert np.array_equal(update.params.flatten(), params.flatten())

    def test_loss_decreases_over_epochs(self, world):
        datasets, params = small_setup(world, shots=4)
        opt = OptimizerConfig(lr0=0.2, temperature=0.5, batch_size=8)
        first = local_update(params, world, [datasets[0]], opt, TRANS, 1, 0.2,
                             [np.random.default_rng(3)], [0])[0]
        many = local_update(params, world, [datasets[0]], opt, TRANS, 8, 0.2,
                            [np.random.default_rng(3)], [0])[0]
        assert many.mean_loss < first.mean_loss


def value_bytes(params):
    return {name: p.value.tobytes() for name, p in params.items()}


class TestLockstep:
    """A chunk of clients stepped as one stack against each client alone."""

    def test_chunk_matches_clients_alone(self, world):
        datasets, params = small_setup(world, n_clients=3, classes_per_client=3, shots=3)
        opt = OptimizerConfig(lr0=0.05, momentum=0.9, weight_decay=1e-2, batch_size=4)
        ids = [0, 1, 2]
        chunk = local_update(params, world, [datasets[c] for c in ids], opt, TRANS, 2, 0.05,
                             [np.random.default_rng(30 + c) for c in ids], ids)
        assert [u.client_id for u in chunk] == ids
        for c, update in zip(ids, chunk):
            (alone,) = local_update(params, world, [datasets[c]], opt, TRANS, 2, 0.05,
                                    [np.random.default_rng(30 + c)], [c])
            reference = ref.local_update(params, world, datasets[c], opt, TRANS, 2, 0.05,
                                         np.random.default_rng(30 + c), c)
            for other in (alone, reference):
                assert value_bytes(update.params) == value_bytes(other.params)
                assert update.mean_loss == other.mean_loss
            assert update.params.schema() == params.schema()

    def test_chunks_cut_by_shape_and_cap(self, world):
        def fake(k, shots):
            return build_client_dataset(world, range(k), shots, 0, 0)

        datasets = {0: fake(2, 2), 1: fake(2, 2), 2: fake(2, 2), 3: fake(1, 4),
                    4: fake(2, 2), 5: fake(2, 2)}
        n = 1000
        assert client_chunks(datasets, list(range(6)), n) == [[0, 1, 2], [3], [4, 5]]
        assert client_chunks(datasets, [0, 2, 4, 5], n) == [[0, 2, 4, 5]]
        with mock.patch.object(federation, "CHUNK_SCALARS", 2 * n + 1):
            assert client_chunks(datasets, list(range(6)), n) == [[0, 1], [2], [3], [4, 5]]
        assert client_chunks(datasets, [1, 4], CHUNK_SCALARS + 1) == [[1], [4]]

    def test_mixed_shapes_rejected(self, world):
        datasets, params = small_setup(world, n_clients=2)
        small = build_client_dataset(world, [0, 1], 2, 0, 0)
        with pytest.raises(ContractError):
            local_update(params, world, [datasets[0], small], OPT, TRANS, 1, 0.05,
                         [np.random.default_rng(0)] * 2, [0, 1])
        with pytest.raises(ContractError):
            local_update(params, world, [datasets[0]], OPT, TRANS, 1, 0.05,
                         [np.random.default_rng(0)] * 2, [0])

    @pytest.mark.parametrize("failing", [[2], [3, 1]])
    def test_overflow_names_lowest_failing_client_of_chunk(self, world, failing):
        datasets, params = small_setup(world, n_clients=4, classes_per_client=3)
        assert client_chunks(datasets, [0, 1, 2, 3], params.n_scalars()) == [[0, 1, 2, 3]]
        emb = world.class_embeddings.copy()
        for c in failing:
            emb[datasets[c].class_ids[0]] *= 1e200
        bad = replace(world, class_embeddings=emb)
        with pytest.raises(NumericError) as err:
            run_training(bad, datasets, OPT, TRANS, params, 2, 1, 1.0, seed=5)
        assert str(err.value).startswith(f"round 0, client {min(failing)}: "), err.value

    @settings(max_examples=25, deadline=None)
    @given(
        n_clients=st.integers(1, 5),
        classes=st.integers(1, 4),
        shots=st.integers(1, 3),
        batch=st.integers(1, 5),
        epochs=st.integers(1, 2),
        fraction=st.sampled_from([0.3, 0.6, 1.0]),
        chunk_cap=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_run_training_matches_per_client_reference(
        self, roomy_world, n_clients, classes, shots, batch, epochs, fraction, chunk_cap, seed
    ):
        world = roomy_world
        datasets, params = small_setup(world, n_clients, classes, shots, seed)
        opt = OptimizerConfig(lr0=0.1, momentum=0.9, weight_decay=1e-2, batch_size=batch)
        rounds = 2
        with mock.patch.object(federation, "CHUNK_SCALARS", chunk_cap * params.n_scalars()):
            trained, logs = run_training(world, datasets, opt, TRANS, params, rounds, epochs,
                                         fraction, seed)
        current = params
        for t in range(rounds):
            lr = cosine_lr(opt.lr0, t, rounds)
            updates = [
                ref.local_update(current, world, datasets[cid], opt, TRANS, epochs, lr,
                                 rng_for(seed, "local", t, cid), cid)
                for cid in select_clients(n_clients, fraction, seed, t)
            ]
            current = ref.fedavg(updates)
            assert logs[t].client_loss == {u.client_id: u.mean_loss for u in updates}
        assert value_bytes(trained) == value_bytes(current)


class TestParameterPathAgainstReference:
    """The in-place sgd_step and the tensor-by-tensor fedavg against their
    out-of-place references, bitwise."""

    def random_set(self, seed):
        rng = np.random.default_rng(seed)
        return ParameterSet([
            Parameter("W", rng.standard_normal((20, 30))),
            Parameter("b", rng.standard_normal(7)),
            Parameter("s", rng.standard_normal(())),
        ])

    def test_sgd_steps_match_reference(self):
        cfg = OptimizerConfig(momentum=0.9, weight_decay=1e-2)
        ours, theirs = self.random_set(0), self.random_set(0)
        vel_ours = {name: np.zeros(p.shape) for name, p in ours.items()}
        vel_ref = {name: np.zeros(p.shape) for name, p in ours.items()}
        held = dict(vel_ours)
        rng = np.random.default_rng(1)
        for lr in (0.1, 0.07, 0.03, 0.011, 0.0):
            for name, p in ours.items():
                g = rng.standard_normal(p.shape)
                p.grad, theirs[name].grad = g, g.copy()
            sgd_step(ours, vel_ours, lr, cfg)
            ref.sgd_step(theirs, vel_ref, lr, cfg)
            assert value_bytes(ours) == value_bytes(theirs)
            assert {n: v.tobytes() for n, v in vel_ours.items()} == {
                n: np.asarray(v).tobytes() for n, v in vel_ref.items()
            }
        # the velocity is stepped in place, and the new values are frozen
        assert all(vel_ours[name] is held[name] for name in held)
        assert not any(p.value.flags.writeable for p in ours)

    def test_first_step_velocity_matches_reference(self):
        # an empty velocity dict is zero velocity: the first step's array
        # becomes the velocity, and later steps update it in place
        cfg = OptimizerConfig(momentum=0.9, weight_decay=1e-2)
        ours, theirs = self.random_set(0), self.random_set(0)
        vel_ours = {}
        vel_ref = {name: np.zeros(p.shape) for name, p in ours.items()}
        held = None
        rng = np.random.default_rng(1)
        for lr in (0.1, 0.0, 0.07, 0.03, 0.011):
            arrays = [p.value for p in ours]
            for name, p in ours.items():
                g = rng.standard_normal(p.shape)
                p.grad, theirs[name].grad = g, g.copy()
                arrays.append(g)
            sgd_step(ours, vel_ours, lr, cfg)
            ref.sgd_step(theirs, vel_ref, lr, cfg)
            assert value_bytes(ours) == value_bytes(theirs)
            assert vel_ours.keys() == vel_ref.keys()
            assert all(np.array_equal(vel_ours[n], vel_ref[n]) for n in vel_ref)
            assert all(p.grad is None for p in ours)
            if held is None:
                held = dict(vel_ours)
                arrays += [p.value for p in ours]
                for name, v in held.items():
                    assert not any(np.shares_memory(v, a) for a in arrays), name
            assert all(vel_ours[name] is held[name] for name in held)

    def test_fedavg_matches_reference(self):
        updates = [ClientUpdate(cid, self.random_set(10 + cid), 0.0) for cid in (4, 0, 3, 1, 2)]
        ours = fedavg(updates)
        assert value_bytes(ours) == value_bytes(ref.fedavg(updates))
        for name, p in ours.items():
            assert not p.value.flags.writeable
            assert not any(np.shares_memory(p.value, u.params[name].value) for u in updates)

    def test_three_rounds_match_reference_loop(self, world):
        datasets, params = small_setup(world, n_clients=3)
        opt = OptimizerConfig(lr0=0.05, momentum=0.9, weight_decay=1e-2, batch_size=4)
        seed, total_rounds, epochs, fraction = 42, 3, 2, 0.7
        trained, logs = run_training(world, datasets, opt, TRANS, params, total_rounds,
                                     epochs, fraction, seed)
        current = params
        for t in range(total_rounds):
            lr = cosine_lr(opt.lr0, t, total_rounds)
            updates = [
                ref.local_update(current, world, datasets[cid], opt, TRANS, epochs, lr,
                                 rng_for(seed, "local", t, cid), cid)
                for cid in select_clients(len(datasets), fraction, seed, t)
            ]
            current = ref.fedavg(updates)
            assert logs[t].client_loss == {u.client_id: u.mean_loss for u in updates}
        assert value_bytes(trained) == value_bytes(current)


class TestRunTraining:
    def test_deterministic_end_to_end(self, world):
        datasets, params = small_setup(world)
        a, logs_a = run_training(world, datasets, OPT, TRANS, params, 3, 1, 1.0, seed=42)
        b, logs_b = run_training(world, datasets, OPT, TRANS, params, 3, 1, 1.0, seed=42)
        assert np.array_equal(a.flatten(), b.flatten())
        assert [l.to_json_line() for l in logs_a] == [l.to_json_line() for l in logs_b]

    def test_manual_loop_reproduces_bitwise(self, world):
        datasets, params = small_setup(world)
        seed = 42
        total_rounds = 3
        trained, _ = run_training(world, datasets, OPT, TRANS, params, total_rounds, 1, 1.0, seed)

        current = params
        for t in range(total_rounds):
            lr = cosine_lr(OPT.lr0, t, total_rounds)
            updates = [
                local_update(current, world, [datasets[cid]], OPT, TRANS, 1, lr,
                             [rng_for(seed, "local", t, cid)], [cid])[0]
                for cid in select_clients(len(datasets), 1.0, seed, t)
            ]
            current = fedavg(updates)
        assert np.array_equal(trained.flatten(), current.flatten())

    def test_round_log_contents(self, world):
        datasets, params = small_setup(world)
        _, logs = run_training(world, datasets, OPT, TRANS, params, 2, 1, 1.0, seed=7)
        assert [log.round for log in logs] == [0, 1]
        assert logs[0].lr == OPT.lr0
        assert logs[0].selected == [0, 1]
        assert set(logs[0].client_loss) == {0, 1}

    def test_round_log_json_round_trip(self):
        log = RoundLog(3, 0.0015, [0, 2], {0: 1.5, 2: 0.25})
        payload = json.loads(log.to_json_line())
        assert payload == {
            "round": 3, "lr": 0.0015, "selected": [0, 2], "client_loss": {"0": 1.5, "2": 0.25},
        }

    def test_round_holds_one_value_set_per_client(self, monkeypatch):
        # a round keeps the global set, the running mean, and one chunk of
        # K clients: its stacked values, velocity and gradients (3 K sets),
        # plus scratch; a gradient or a zero-filled velocity kept per
        # client, or every client kept until one fedavg, would exceed it
        wide = build_world(WorldConfig(d=128, n_base=40, seed=3))
        tcfg = TranslatorConfig(d_model=128)
        blocks = partition_classes(wide.cfg.n_base, 16, 2, 3)
        datasets = {cid: build_client_dataset(wide, block, 2, 3, cid)
                    for cid, block in enumerate(blocks)}
        params = init_translator_params(tcfg, 3)
        chunk = CHUNK_SCALARS // params.n_scalars()
        assert 1 < chunk < len(datasets) // 4
        chunks, grads_kept = [], []

        def checked_local_update(*args):
            updates = local_update(*args)
            chunks.append([u.client_id for u in updates])
            grads_kept.extend(sum(p.grad is not None for p in u.params) for u in updates)
            return updates

        monkeypatch.setattr(federation, "local_update", checked_local_update)
        tracemalloc.start()
        try:
            run_training(wide, datasets, OptimizerConfig(), tcfg, params, 1, 1, 1.0, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        set_bytes = params.n_scalars() * 8
        assert chunks == [list(range(i, i + chunk)) for i in range(0, len(datasets), chunk)]
        assert peak < (3 * chunk + 4) * set_bytes, peak / set_bytes
        assert grads_kept == [0] * len(datasets)

    def test_bad_dataset_keys_rejected(self, world):
        datasets, params = small_setup(world)
        with pytest.raises(ConfigError):
            run_training(world, {1: datasets[0]}, OPT, TRANS, params, 1, 1, 1.0, seed=1)
