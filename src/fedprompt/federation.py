"""Federated optimization of the prompt translator.

Each round, participating clients start from the current global
parameters, run a few epochs of local SGD on their own class subset, and
send the resulting parameters back; the server replaces the global model
with the uniform coordinatewise mean.  Clients hold disjoint classes, so
locally the task is a small closed-set classification problem over each
client's own label space.  Each local step builds one graph for the
client's whole class set: one translator pass and one text-head pass over
all of its classes, whatever their number.

Parameter values are read-only arrays, so a client's start shares the
global arrays instead of copying them; each SGD step computes every
tensor's new value in one new array, and the average is built tensor by
tensor in place, so a round makes no full-size pass over the parameters
that its float operations do not need.  A client also allocates and keeps
only what its steps and the average read: its momentum velocity starts
as its first step rather than as zeros, and each step drops the gradient
it applied, so a finished client holds one value set and nothing else.

Everything here is deterministic: client selection, batch shuffling and
the aggregation order are all fixed functions of the master seed, and
aggregation always sums in ascending client id order so the result does
not depend on arrival order.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from fedprompt import autograd as ag
from fedprompt.autograd import Parameter, ParameterSet
from fedprompt.errors import ConfigError, ContractError, NumericError, SchemaError
from fedprompt.partition import FewShotSet
from fedprompt.seeding import rng_for
from fedprompt.translator import TranslatorConfig, translate_one
from fedprompt.world import SyntheticWorld, text_feature


@dataclass(frozen=True)
class OptimizerConfig:
    # temperature only shapes the training loss; accuracy is argmax and
    # does not see it.  The default keeps the class probabilities soft
    # enough that few-shot fitting pulls class features toward their
    # sample means instead of stalling at the first separating margin.
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-5
    batch_size: int = 32
    temperature: float = 0.5

    def __post_init__(self):
        if self.lr0 < 0:
            raise ConfigError(f"lr0 must be non-negative, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")


def cosine_lr(lr0: float, t: int, total_rounds: int) -> float:
    """Cosine-annealed learning rate for round t of total_rounds.

    Round indices are zero based; t equal to total_rounds is allowed and
    gives exactly zero, anything beyond is a contract error.
    """
    if total_rounds < 1:
        raise ConfigError(f"total_rounds must be positive, got {total_rounds}")
    if not 0 <= t <= total_rounds:
        raise ContractError(f"round index {t} outside [0, {total_rounds}]")
    return lr0 * 0.5 * (1.0 + np.cos(np.pi * t / total_rounds))


def sgd_step(
    params: ParameterSet, velocity: dict[str, np.ndarray], lr: float, cfg: OptimizerConfig
) -> None:
    """One in-place SGD step with momentum and coupled weight decay.

    The decay term joins the gradient before the momentum update:
    v <- momentum * v + (grad + weight_decay * theta), theta <- theta - lr * v.
    The caller's velocity arrays are updated in place.  A tensor missing
    from velocity has zero velocity: its step array, weight_decay * theta
    + grad, becomes its velocity as it is, so no zeros are allocated,
    scaled or added to.  That keeps every value bitwise: 0 * momentum + s
    differs from s only where s is -0.0, and theta - lr * v then differs
    only where theta is -0.0 too, which no value is (init values are +0.0
    or Gaussian, and a sum or difference is -0.0 only from a -0.0
    operand); the velocity itself may differ in the sign of a zero.

    Each gradient is dropped (p.grad becomes None) as soon as it has
    joined the step array, so stepped parameters hold their values and
    nothing else, and the new value can take the gradient's memory.  That
    new value is computed into one fresh array that the Parameter adopts
    without a copy, finite-checked and frozen.  Raises if any parameter
    is missing its gradient.
    """
    for name, p in params.items():
        if p.grad is None:
            raise ContractError(f"parameter {name!r} has no gradient; run backward first")
        step = np.multiply(p.value, cfg.weight_decay, out=np.empty_like(p.value))
        step += p.grad
        p.grad = None
        v = velocity.get(name)
        if v is None:
            velocity[name] = v = step
            step = np.empty_like(v)
        else:
            v *= cfg.momentum
            v += step
        np.multiply(v, lr, out=step)
        np.subtract(p.value, step, out=step)
        p.set_value(step, copy=False)


@dataclass
class ClientUpdate:
    client_id: int
    params: ParameterSet
    mean_loss: float


def class_text_features(
    params: ParameterSet | None,
    trans_cfg: TranslatorConfig,
    world: SyntheticWorld,
    class_ids,
) -> ag.DiffNode:
    """Unit text features [len(class_ids), d], one row per class.

    This is the one path from class id to text feature, used by training
    and evaluation alike.  The whole class set runs as one graph: one
    translator pass gives every class its context, one head pass every
    feature.  With params None the context is all zeros, which reduces
    every feature to the raw class-name embedding: the zero-context
    baseline.  Raises NumericError (from text_feature, whose norms see
    every overflow on the way) if any feature would not be finite.
    """
    ids = list(class_ids)
    if min(ids, default=0) < 0:
        raise IndexError(f"class id {min(ids)} out of range")
    emb = world.class_embeddings[ids]
    # an overflow is reported by text_feature's norm check
    with np.errstate(all="ignore"):
        if params is None:
            ctx = ag.constant(np.zeros((len(emb) * trans_cfg.n_ctx, trans_cfg.d_model)))
        else:
            ctx = translate_one(params, trans_cfg, ag.constant(emb))
        return text_feature(world.head, emb, ctx)


def class_logits(
    params: ParameterSet,
    trans_cfg: TranslatorConfig,
    world: SyntheticWorld,
    class_ids,
    images: np.ndarray,
    temperature: float,
) -> ag.DiffNode:
    """Cosine-similarity logits of unit images against per-class features."""
    feat_matrix = class_text_features(params, trans_cfg, world, class_ids)
    return ag.scale(ag.matmul(ag.constant(images), ag.transpose(feat_matrix)), 1.0 / temperature)


def local_update(
    global_params: ParameterSet,
    world: SyntheticWorld,
    dataset: FewShotSet,
    opt_cfg: OptimizerConfig,
    trans_cfg: TranslatorConfig,
    epochs: int,
    lr: float,
    rng: np.random.Generator,
    client_id: int,
) -> ClientUpdate:
    """Local epochs of SGD starting from the global parameters.

    The client steps its own Parameters (ParameterSet.copy), which share
    the global values until the first step replaces them, so global_params
    and their grads are never touched.  The velocity starts at zero each
    call, as an empty dict that the first sgd_step fills, and batches are
    drawn from a seeded shuffle per epoch.  Returns the client's
    parameters together with the mean per-batch loss; since each step
    drops the gradient it applied, those parameters hold values only, and
    a round that keeps every client's update until fedavg keeps one value
    set per client.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be positive, got {epochs}")
    params = global_params.copy()
    velocity = {}
    losses = []
    # overflow surfaces as a NumericError from the features, the loss or
    # the updated parameters, so numpy's own warnings add nothing
    with np.errstate(all="ignore"):
        for _ in range(epochs):
            order = rng.permutation(len(dataset))
            for start in range(0, len(order), opt_cfg.batch_size):
                batch = order[start : start + opt_cfg.batch_size]
                logits = class_logits(
                    params,
                    trans_cfg,
                    world,
                    dataset.class_ids,
                    dataset.images[batch],
                    opt_cfg.temperature,
                )
                loss = ag.cross_entropy(logits, dataset.labels[batch])
                ag.backward(loss)
                sgd_step(params, velocity, lr, opt_cfg)
                losses.append(loss.value.item())
    return ClientUpdate(client_id, params, float(np.mean(losses)))


def select_clients(n_clients: int, fraction: float, seed: int, t: int) -> list[int]:
    """Ids participating in round t, sorted ascending.

    At least one client always participates; the count is
    max(1, round(fraction * n_clients)).
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    if n_clients < 1:
        raise ConfigError(f"n_clients must be positive, got {n_clients}")
    count = max(1, round(fraction * n_clients))
    picked = rng_for(seed, "select", t).choice(n_clients, size=count, replace=False)
    return sorted(int(c) for c in picked)


def fedavg(updates: list[ClientUpdate]) -> ParameterSet:
    """Uniform coordinatewise mean of client parameters.

    Updates are re-sorted by client id before accumulation, so the
    result never depends on arrival order.  The mean is computed tensor
    by tensor and incrementally, m += (x_i - m) / i, with the difference
    and its quotient in one scratch array; unlike a sum-then-divide this
    keeps a crucial identity exact in floating point: aggregating any
    number of bitwise-identical updates returns those values unchanged,
    because every increment is exactly zero.  The mean arrays become the
    new Parameters' values without a copy.
    """
    if not updates:
        raise ContractError("fedavg needs at least one update")
    ordered = sorted(updates, key=lambda u: u.client_id)
    ids = [u.client_id for u in ordered]
    if len(set(ids)) != len(ids):
        raise ContractError(f"duplicate client ids in aggregation: {ids}")
    schema_owner = ordered[0].params
    for u in ordered[1:]:
        try:
            schema_owner.check_same_schema(u.params)
        except SchemaError as err:
            raise SchemaError(
                f"clients {ordered[0].client_id} and {u.client_id} disagree: {err}"
            ) from None
    merged = []
    for name, p in schema_owner.items():
        mean = p.value.copy()
        diff = np.empty_like(mean)
        for i, u in enumerate(ordered[1:], start=2):
            np.subtract(u.params[name].value, mean, out=diff)
            diff /= i
            mean += diff
        merged.append(Parameter(name, mean, copy=False))
    return ParameterSet(merged)


@dataclass
class RoundLog:
    """What happened in one federated round."""

    round: int
    lr: float
    selected: list[int]
    client_loss: dict[int, float] = field(default_factory=dict)

    def to_json_line(self) -> str:
        payload = {
            "round": self.round,
            "lr": self.lr,
            "selected": self.selected,
            "client_loss": {str(k): v for k, v in self.client_loss.items()},
        }
        return json.dumps(payload, sort_keys=True)


def run_training(
    world: SyntheticWorld,
    datasets: dict[int, FewShotSet],
    opt_cfg: OptimizerConfig,
    trans_cfg: TranslatorConfig,
    init_params: ParameterSet,
    total_rounds: int,
    epochs_per_round: int,
    fraction: float,
    seed: int,
    on_round=None,
) -> tuple[ParameterSet, list[RoundLog]]:
    """Full federated run; returns final parameters and per-round logs.

    Per round t: the learning rate is cosine_lr(lr0, t, total_rounds),
    participants come from the (seed, "select", t) stream, and each
    participant's batch shuffling uses the (seed, "local", t, client)
    stream.  A manual loop with the same derivations reproduces the run
    bitwise.  on_round, if given, is called with (aggregated params,
    RoundLog) after each aggregation; it must not mutate the params.  A
    NumericError in a local update is raised again naming the round and
    the client.
    """
    if total_rounds < 1:
        raise ConfigError(f"total_rounds must be positive, got {total_rounds}")
    n_clients = len(datasets)
    if sorted(datasets) != list(range(n_clients)):
        raise ConfigError("datasets must be keyed by contiguous client ids starting at 0")
    params = init_params.copy()
    logs = []
    for t in range(total_rounds):
        lr = cosine_lr(opt_cfg.lr0, t, total_rounds)
        selected = select_clients(n_clients, fraction, seed, t)
        updates = []
        for client_id in selected:
            try:
                update = local_update(
                    params,
                    world,
                    datasets[client_id],
                    opt_cfg,
                    trans_cfg,
                    epochs_per_round,
                    lr,
                    rng_for(seed, "local", t, client_id),
                    client_id,
                )
            except NumericError as err:
                raise NumericError(f"round {t}, client {client_id}: {err}") from None
            updates.append(update)
        params = fedavg(updates)
        log = RoundLog(t, lr, selected, {u.client_id: u.mean_loss for u in updates})
        logs.append(log)
        if on_round is not None:
            on_round(params, log)
    return params, logs
