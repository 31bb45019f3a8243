"""Federated optimization of the prompt translator.

Each round, participating clients start from the current global
parameters, run a few epochs of local SGD on their own class subset, and
send the resulting parameters back; the server replaces the global model
with the uniform coordinatewise mean.  Clients hold disjoint classes, so
locally the task is a small closed-set classification problem over each
client's own label space.  A round's clients step in lockstep chunks
(client_chunks): each local step builds one graph for a whole chunk, with
every parameter stacked along a leading client axis, and one translator
pass and one text-head pass cover every class of every client in it.

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

    Every operation is elementwise, so stacked parameters ([C, *shape],
    possibly a broadcast of one value set) step each client's slice
    exactly as that client alone.  Each gradient is dropped (p.grad
    becomes None) as soon as it has joined the step array, so stepped
    parameters hold their values and nothing else, and the new value can
    take the gradient's memory.  That new value is computed into one
    fresh array that the Parameter adopts without a copy, finite-checked
    and frozen.  Every tensor is stepped before a non-finite value is
    raised, so the NumericError's index is the lowest failing client over
    the whole step.  Raises if any parameter is missing its gradient.
    """
    failed = []
    for name, p in params.items():
        if p.grad is None:
            raise ContractError(f"parameter {name!r} has no gradient; run backward first")
        step = np.multiply(p.value, cfg.weight_decay, out=np.empty(p.shape))
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
        try:
            p.set_value(step, copy=False)
        except NumericError as err:
            failed.append(err)
    if failed:
        raise min(failed, key=lambda err: err.index or 0)


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
    """Unit text features [..., k, d], one row per class.

    This is the one path from class id to text feature, used by training
    and evaluation alike.  class_ids is one client's k ids, or [C, k]
    ids of C clients whose parameters are stacked [C, *shape].  The whole
    class set runs as one graph: one translator pass gives every class
    its pooled context, one [..., k, d] row per class, and one head pass
    every feature.  With params None that context is all zeros, which
    reduces every feature to the raw class-name embedding: the
    zero-context baseline.  Raises NumericError (from text_feature,
    whose norms see every overflow on the way) if any feature would not
    be finite.
    """
    ids = np.asarray(class_ids, dtype=np.int64)
    if ids.size and ids.min() < 0:
        raise IndexError(f"class id {ids.min()} out of range")
    emb = world.class_embeddings[ids]
    # an overflow is reported by text_feature's norm check
    with np.errstate(all="ignore"):
        if params is None:
            ctx = ag.constant(np.zeros((*emb.shape[:-1], trans_cfg.d_model)))
        else:
            ctx = translate_one(params, trans_cfg, emb)
        return text_feature(world.head, emb, ctx)


def class_logits(
    params: ParameterSet,
    trans_cfg: TranslatorConfig,
    world: SyntheticWorld,
    class_ids,
    images: np.ndarray,
    temperature: float,
) -> ag.DiffNode:
    """Cosine-similarity logits [..., b, k] of unit images [..., b, d]
    against the per-class features, scaled by 1 / temperature.

    One graph node over the features: images are data and get no
    gradient.  The features are transposed into a C-order copy, not a
    strided view, and each product runs the way a lone client's matrix
    product and scaling did, because BLAS rounds a product with a
    transposed operand differently.
    """
    feats = class_text_features(params, trans_cfg, world, class_ids)
    s = 1.0 / temperature
    images_t = images.swapaxes(-1, -2)
    value = (images @ np.ascontiguousarray(feats.value.swapaxes(-1, -2))) * s

    def rule(g):
        return ((images_t @ (g * s)).swapaxes(-1, -2),)

    return ag.DiffNode(value, (feats,), rule, op="logits")


# A chunk of lockstep clients holds at most this many stacked parameter
# scalars (4 MB per stacked value set); see client_chunks.  Measured on a
# 2-core host: every default client fits one chunk, and two d=128
# clients per chunk gave faster rounds than one or four at the same
# peak memory.
CHUNK_SCALARS = 2**19


def client_chunks(
    datasets: dict[int, FewShotSet], selected: list[int], n_scalars: int
) -> list[list[int]]:
    """The selected ids cut into runs that can step in lockstep.

    A chunk is a run of consecutive ids whose datasets have equal class
    counts and sizes, so every step of every client in it has the same
    shapes, and it stacks at most CHUNK_SCALARS scalars of n_scalars per
    client (always at least one client).
    """
    cap = max(1, CHUNK_SCALARS // max(n_scalars, 1))
    chunks = []
    for cid in selected:
        shape = (len(datasets[cid].class_ids), len(datasets[cid]))
        if chunks and len(chunks[-1][1]) < cap and chunks[-1][0] == shape:
            chunks[-1][1].append(cid)
        else:
            chunks.append((shape, [cid]))
    return [ids for _, ids in chunks]


def local_update(
    global_params: ParameterSet,
    world: SyntheticWorld,
    datasets: list[FewShotSet],
    opt_cfg: OptimizerConfig,
    trans_cfg: TranslatorConfig,
    epochs: int,
    lr: float,
    rngs: list[np.random.Generator],
    client_ids: list[int],
) -> list[ClientUpdate]:
    """Local epochs of SGD for a chunk of clients, in lockstep, each
    starting from the global parameters.

    The clients' parameters are stacked [C, *shape] and start as a
    broadcast of the global values, so nothing is copied and
    global_params and their grads are never touched.  Every step is one
    graph over all C clients; since no operation mixes clients, each
    client's values and losses are bitwise those of the client stepped
    alone.  The datasets must share their class count and size (see
    client_chunks).  The velocity starts at zero each call, as an empty
    dict that the first sgd_step fills, and each client draws its
    batches from its own rng, one shuffle per epoch.  Returns one update
    per client, in the given order, with the client's mean per-batch
    loss; its parameters are read-only views of its row of the stack,
    so a chunk holds one stacked value set once it is done.

    A NumericError carries the position in the chunk of the lowest
    client that failed at the first failing check.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be positive, got {epochs}")
    if not len(datasets) == len(rngs) == len(client_ids):
        raise ContractError("local_update needs one rng and one client id per dataset")
    if len({(len(d.class_ids), len(d)) for d in datasets}) != 1:
        raise ContractError("clients in lockstep need equal class counts and dataset sizes")
    n_clients, n = len(datasets), len(datasets[0])
    params = global_params.stacked(n_clients)
    class_ids = [d.class_ids for d in datasets]
    images = np.stack([d.images for d in datasets])
    labels = np.stack([d.labels for d in datasets])
    rows = np.arange(n_clients)[:, None]
    velocity = {}
    losses = [[] for _ in datasets]
    # overflow surfaces as a NumericError from the features, the loss or
    # the updated parameters, so numpy's own warnings add nothing
    with np.errstate(all="ignore"):
        for _ in range(epochs):
            order = np.stack([rng.permutation(n) for rng in rngs])
            for start in range(0, n, opt_cfg.batch_size):
                batch = (rows, order[:, start : start + opt_cfg.batch_size])
                loss = ag.cross_entropy(
                    class_logits(params, trans_cfg, world, class_ids, images[batch],
                                 opt_cfg.temperature),
                    labels[batch],
                )
                ag.backward(loss)
                sgd_step(params, velocity, lr, opt_cfg)
                for client_losses, mean in zip(losses, loss.means.tolist()):
                    client_losses.append(mean)
                # the graph holds every stacked activation: let it go now
                del loss
    return [
        ClientUpdate(cid, params.row(i), float(np.mean(losses[i])))
        for i, cid in enumerate(client_ids)
    ]


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


class RunningMean:
    """A round's FedAvg mean while clients are folded into it: the mean of
    count clients, up to client last_id, as writable arrays by name.

    params() hands the arrays over, frozen, as a new ParameterSet; after
    that nothing more can be folded in.
    """

    def __init__(self):
        self.count = 0
        self.last_id = -1
        self.first_id = -1
        self.schema: tuple = ()
        self.arrays: dict[str, np.ndarray] = {}

    def params(self) -> ParameterSet:
        if not self.count:
            raise ContractError("no client has been folded into the mean")
        return ParameterSet([Parameter(name, m, copy=False) for name, m in self.arrays.items()])


def fedavg(updates: list[ClientUpdate], running: RunningMean | None = None) -> ParameterSet | None:
    """Uniform coordinatewise mean of client parameters.

    Updates are re-sorted by client id before accumulation, so the
    result never depends on arrival order.  The mean is computed tensor
    by tensor and incrementally, m += (x_i - m) / i, with the difference
    and its quotient in one scratch array; unlike a sum-then-divide this
    keeps a crucial identity exact in floating point: aggregating any
    number of bitwise-identical updates returns those values unchanged,
    because every increment is exactly zero.  The mean arrays become the
    new Parameters' values without a copy.

    With running given, the updates are folded into it and nothing is
    returned: a round passes its chunks of clients as they finish, each
    with ids above every client folded before, and the final mean is
    bitwise one fedavg over all of its updates, without the round ever
    holding them all.
    """
    if not updates:
        raise ContractError("fedavg needs at least one update")
    ordered = sorted(updates, key=lambda u: u.client_id)
    ids = [u.client_id for u in ordered]
    if len(set(ids)) != len(ids):
        raise ContractError(f"duplicate client ids in aggregation: {ids}")
    mean = RunningMean() if running is None else running
    if ids[0] <= mean.last_id:
        raise ContractError(f"client {ids[0]} folded after client {mean.last_id}")
    if not mean.count:
        first = ordered.pop(0)
        mean.arrays = {name: p.value.copy() for name, p in first.params.items()}
        mean.schema, mean.first_id, mean.count = first.params.schema(), first.client_id, 1
    for u in ordered:
        if u.params.schema() != mean.schema:
            raise SchemaError(
                f"clients {mean.first_id} and {u.client_id} disagree: "
                f"{mean.schema} vs {u.params.schema()}"
            )
    for name, m in mean.arrays.items():
        diff = np.empty_like(m)
        for i, u in enumerate(ordered, start=mean.count + 1):
            np.subtract(u.params[name].value, m, out=diff)
            diff /= i
            m += diff
    mean.count += len(ordered)
    mean.last_id = ids[-1]
    return mean.params() if running is None else None


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
    stream.  The participants step in lockstep chunks (client_chunks),
    each folded into the round's mean as soon as it is done, in
    ascending client id; a manual loop with the same derivations, over
    chunks of any size, reproduces the run bitwise.  on_round, if given,
    is called with (aggregated params, RoundLog) after each round; it
    must not mutate the params.  A NumericError in a local update is
    raised again naming the round and the lowest client that failed at
    the first failing step.
    """
    if total_rounds < 1:
        raise ConfigError(f"total_rounds must be positive, got {total_rounds}")
    n_clients = len(datasets)
    if sorted(datasets) != list(range(n_clients)):
        raise ConfigError("datasets must be keyed by contiguous client ids starting at 0")
    params = init_params
    logs = []
    for t in range(total_rounds):
        lr = cosine_lr(opt_cfg.lr0, t, total_rounds)
        selected = select_clients(n_clients, fraction, seed, t)
        mean, losses = RunningMean(), {}
        for chunk in client_chunks(datasets, selected, params.n_scalars()):
            try:
                updates = local_update(
                    params,
                    world,
                    [datasets[c] for c in chunk],
                    opt_cfg,
                    trans_cfg,
                    epochs_per_round,
                    lr,
                    [rng_for(seed, "local", t, c) for c in chunk],
                    chunk,
                )
            except NumericError as err:
                client = chunk[err.index or 0]
                raise NumericError(f"round {t}, client {client}: {err}") from None
            fedavg(updates, mean)
            losses.update((u.client_id, u.mean_loss) for u in updates)
            # the chunk's stack is folded in: free it before the next chunk
            del updates
        params = mean.params()
        log = RoundLog(t, lr, selected, losses)
        logs.append(log)
        if on_round is not None:
            on_round(params, log)
    return params, logs
