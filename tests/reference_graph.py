"""Reference composition of the training graph from small autograd ops,
and the plain per-client, out-of-place form of the parameter path.

The package runs the translator block, the frozen text head and the
logits as one graph node each, with hand-written backward rules, and
steps a round's clients in lockstep.  This module keeps the same map as
a chain of small ops, each with its own textbook rule, so the tests can
hold the fused nodes against it: scale, matmul, transpose, add,
layer_norm, gelu, geglu and l2_normalize, plus translate_one,
pool, text_feature and class_text_features built from them with the
constant 0/1 tiling and pooling matmuls, and probe_sum to reduce a
matrix node to a scalar.  Here translate_one returns every class's
n_ctx context rows and text_feature pools them; the package's
translator node returns each class's mean row, which the tests hold to
pool over translate_one.  class_logits is the per-client logits chain
the package ran before its fused node: the package's features,
transposed into a C-order copy, multiplied and scaled.

The package steps and averages parameters in place, tensor by tensor,
for a whole chunk of clients at once.  The same float operations written
the direct way, one client after another, are sgd_step (new arrays for
velocity and value), fedavg (over flatten() vectors, with unflatten to
rebuild the set) and local_update (one client on a private copy of
every value, through class_logits above), so the tests can hold the
package to them bitwise.

The package's grad_check evaluates its central differences as stacked
parameter sets.  grad_check here is the per-coordinate loop it
replaced, one loss per perturbed value, so it also checks losses that
only take 2-D operands, like the small ops above, and the tests can
hold the stacked check to it.

The package samples a whole class set's images in one call, and
scores an evaluation split in blocks of classes, each block one draw
of raw samples whose raw dot products it argmaxes.  raw_sample and
sample_image here draw one class at a time, raw and unit-normalized.
evaluate here is the definition the blocks replaced: one class at a
time, each drawn next from the split's one stream, its unit samples
scored by cosine/temperature, then argmax and count.  Nothing here is
used outside tests/.
"""

import numpy as np

from fedprompt import autograd as ag
from fedprompt.autograd import DiffNode, Parameter, ParameterSet, require_finite
from fedprompt.errors import DimensionError
from fedprompt.evaluation import class_features, split_class_ids
from fedprompt.federation import ClientUpdate, class_text_features as fused_features
from fedprompt.seeding import rng_for
from fedprompt.translator import LAYER_NORM_EPS
from fedprompt.world import L2_NORM_EPS

# sigmoid(y) = (1 + tanh(y / 2)) / 2, so at half of QuickGELU's 1.702 this
# is the package's gate through a separate formula
_HALF_SCALE = 0.851


def _node(x) -> DiffNode:
    return x if isinstance(x, DiffNode) else ag.constant(x)


def _need_2d(x: DiffNode, op: str) -> None:
    if x.value.ndim != 2:
        raise DimensionError(f"{op} needs a 2-D operand, got shape {x.shape}")


def scale(a, s: float) -> DiffNode:
    a = _node(a)
    s = float(s)
    return DiffNode(a.value * s, (a,), lambda g: (g * s,), op="scale")


def matmul(a, b) -> DiffNode:
    a, b = _node(a), _node(b)
    _need_2d(a, "matmul")
    _need_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    av, bv = a.value, b.value
    return DiffNode(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g), op="matmul")


def transpose(a) -> DiffNode:
    a = _node(a)
    _need_2d(a, "transpose")
    # a C-order copy, not the strided view: BLAS rounds a matmul with a
    # transposed operand differently
    return DiffNode(np.ascontiguousarray(a.value.T), (a,), lambda g: (g.T,), op="transpose")


def add(a, b) -> DiffNode:
    a, b = _node(a), _node(b)
    if a.shape != b.shape:
        raise DimensionError(f"add needs equal shapes, got {a.shape} and {b.shape}")
    return DiffNode(a.value + b.value, (a, b), lambda g: (g, g), op="add")


def layer_norm(x, gain, bias) -> DiffNode:
    """Row-wise layer normalization with a learned affine pair broadcast
    over rows; population variance, epsilon inside the square root."""
    x, gain, bias = _node(x), _node(gain), _node(bias)
    _need_2d(x, "layer_norm")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm affine must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    xv = x.value
    xc = xv - xv.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + LAYER_NORM_EPS)
    y = xc * inv

    def rule(g):
        gy = g * gain.value
        s1 = gy.sum(axis=1, keepdims=True)
        s2 = (gy * y).sum(axis=1, keepdims=True)
        dx = (inv / d) * (d * gy - s1 - y * s2)
        return dx, (g * y).sum(axis=0), g.sum(axis=0)

    return DiffNode(y * gain.value + bias.value, (x, gain, bias), rule, op="layer_norm")


def _gelu_forward(x):
    return 0.5 * x * (1.0 + np.tanh(_HALF_SCALE * x))


def _gelu_derivative(x):
    t = np.tanh(_HALF_SCALE * x)
    return 0.5 * (1.0 + t) + x * (0.5 * _HALF_SCALE) * (1.0 - t * t)


def gelu(x) -> DiffNode:
    """QuickGELU, x * sigmoid(1.702 x), in its tanh form."""
    x = _node(x)
    xv = x.value
    return DiffNode(_gelu_forward(xv), (x,), lambda g: (g * _gelu_derivative(xv),), op="gelu")


def geglu(x) -> DiffNode:
    """QuickGELU-gated linear unit over the last axis: the first half of
    the columns carries the value, the second half the gate."""
    x = _node(x)
    _need_2d(x, "geglu")
    w = x.shape[1]
    if w % 2 != 0:
        raise DimensionError(f"geglu needs an even column count, got {w}")
    a, b = x.value[:, : w // 2], x.value[:, w // 2 :]
    gate = _gelu_forward(b)

    def rule(g):
        return (np.concatenate([g * gate, g * a * _gelu_derivative(b)], axis=1),)

    return DiffNode(a * gate, (x,), rule, op="geglu")


def l2_normalize(x) -> DiffNode:
    """Scale each row to unit norm; rows with norm below the epsilon are
    divided by the epsilon instead."""
    x = _node(x)
    _need_2d(x, "l2_normalize")
    xv = x.value
    norms = np.sqrt((xv * xv).sum(axis=1, keepdims=True))
    denom = np.maximum(norms, L2_NORM_EPS)
    y = xv / denom

    def rule(g):
        full = (g - y * (y * g).sum(axis=1, keepdims=True)) / denom
        return (np.where(norms >= L2_NORM_EPS, full, g / L2_NORM_EPS),)

    return DiffNode(y, (x,), rule, op="l2_normalize")


def translate_one(params, cfg, emb: DiffNode) -> DiffNode:
    """The translator block as small ops: [k, d] embeddings to k * n_ctx
    context rows [k * n_ctx, d], class by class."""
    k, n = emb.shape[0], cfg.n_ctx
    value_rows = matmul(emb, params["W_v"])
    tiled = matmul(ag.constant(np.kron(np.eye(k), np.ones((n, 1)))), value_rows)
    queries = matmul(ag.constant(np.kron(np.ones((k, 1)), np.eye(n))), params["queries"])
    u = add(queries, matmul(tiled, params["W_o"]))
    u_in = layer_norm(u, params["ln2_gain"], params["ln2_bias"])
    return add(u, matmul(geglu(matmul(u_in, params["ffn_in"])), params["ffn_out"]))


def pool(ctx: DiffNode, k: int) -> DiffNode:
    """Each class's mean context row: [k * n_ctx, d] rows to [k, d]."""
    n_ctx = ctx.shape[0] // k
    return matmul(ag.constant(np.kron(np.eye(k), np.full((1, n_ctx), 1.0 / n_ctx))), ctx)


def text_feature(head, class_emb: np.ndarray, ctx: DiffNode) -> DiffNode:
    """The frozen text head as small ops: context rows, pooled per class,
    to unit features."""
    pooled = pool(ctx, class_emb.shape[0])
    corr = matmul(gelu(matmul(pooled, ag.constant(head.W1))), ag.constant(head.W2))
    return l2_normalize(add(ag.constant(class_emb), corr))


def class_text_features(params, cfg, world, class_ids) -> DiffNode:
    """federation.class_text_features over the reference composition."""
    emb = world.class_embeddings[list(class_ids)]
    if params is None:
        ctx = ag.constant(np.zeros((len(emb) * cfg.n_ctx, cfg.d_model)))
    else:
        ctx = translate_one(params, cfg, ag.constant(emb))
    return text_feature(world.head, emb, ctx)


def class_logits(params, cfg, world, class_ids, images, temperature) -> DiffNode:
    """One client's logits as the op chain: scale(images @ transpose(features))."""
    feats = fused_features(params, cfg, world, class_ids)
    return scale(matmul(ag.constant(images), transpose(feats)), 1.0 / temperature)


def probe_sum(x: DiffNode, probe: np.ndarray) -> DiffNode:
    """Scalar sum(x * probe), so every entry of x gets its own weight."""
    return DiffNode(np.array((x.value * probe).sum()), (x,), lambda g: (g * probe,), op="probe")


def sgd_step(params: ParameterSet, velocity: dict, lr: float, cfg) -> None:
    """federation.sgd_step with a new array for every result."""
    for name, p in params.items():
        g = p.grad + cfg.weight_decay * p.value
        velocity[name] = cfg.momentum * velocity[name] + g
        p.set_value(p.value - lr * velocity[name])


def unflatten(like: ParameterSet, flat: np.ndarray) -> ParameterSet:
    """The set with like's schema whose flatten() is flat."""
    assert flat.shape == (like.n_scalars(),)
    out, offset = [], 0
    for name, p in like.items():
        out.append(Parameter(name, flat[offset : offset + p.value.size].reshape(p.shape)))
        offset += p.value.size
    return ParameterSet(out)


def fedavg(updates: list) -> ParameterSet:
    """federation.fedavg over whole flattened vectors."""
    ordered = sorted(updates, key=lambda u: u.client_id)
    mean = ordered[0].params.flatten()
    for i, u in enumerate(ordered[1:], start=2):
        mean += (u.params.flatten() - mean) / i
    return unflatten(ordered[0].params, mean)


def local_update(global_params, world, dataset, opt_cfg, trans_cfg, epochs, lr, rng, client_id):
    """federation.local_update for one client alone, on private copies,
    through class_logits and sgd_step above."""
    params = ParameterSet([Parameter(name, p.value) for name, p in global_params.items()])
    velocity = {name: np.zeros(p.shape) for name, p in params.items()}
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(dataset))
        for start in range(0, len(order), opt_cfg.batch_size):
            batch = order[start : start + opt_cfg.batch_size]
            logits = class_logits(params, trans_cfg, world, dataset.class_ids,
                                  dataset.images[batch], opt_cfg.temperature)
            loss = ag.cross_entropy(logits, dataset.labels[batch])
            ag.backward(loss)
            sgd_step(params, velocity, lr, opt_cfg)
            losses.append(loss.value.item())
    return ClientUpdate(client_id, params, float(np.mean(losses)))


def grad_check(loss_fn, params: ParameterSet, h: float = 1e-5) -> float:
    """autograd.grad_check with one scalar loss evaluation per perturbed
    coordinate value; loss_fn needs to take only the plain values."""
    for p in params:
        p.grad = None
    ag.backward(loss_fn())
    analytic = {name: p.grad if p.grad is not None else np.zeros(p.shape)
                for name, p in params.items()}
    for name, g in analytic.items():
        require_finite(g, f"gradient of {name!r} has non-finite values")
    originals = {name: p.value for name, p in params.items()}
    worst = 0.0
    try:
        for name, p in params.items():
            base = originals[name].copy()
            flat = base.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                p.set_value(base)
                lo_hi = loss_fn().value.item()
                flat[i] = keep - h
                p.set_value(base)
                lo_lo = loss_fn().value.item()
                flat[i] = keep
                numeric = (lo_hi - lo_lo) / (2.0 * h)
                a = float(analytic[name].reshape(-1)[i])
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                worst = max(worst, err)
            p.value = originals[name]
    finally:
        for p in params:
            p.value = originals[p.name]
    return worst


def raw_sample(world, class_id: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """world.sample_raw for one class: [n, d] rows center + sigma_img *
    noise from one draw, not normalized."""
    center = world.center(class_id)
    if world.cfg.sigma_img == 0.0:
        return np.tile(center, (n, 1))
    return center + world.cfg.sigma_img * rng.standard_normal((n, world.cfg.d))


def sample_image(world, class_id: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """world.sample_image for one class: [n, d] unit rows from one draw."""
    x = raw_sample(world, class_id, rng, n)
    if world.cfg.sigma_img == 0.0:
        return x
    return x / np.maximum(np.sqrt((x * x).sum(axis=1, keepdims=True)), L2_NORM_EPS)


def evaluate(params, world, trans_cfg, split, n_test, temperature, seed) -> float:
    """evaluation.evaluate by its definition, one class at a time: each
    class's unit samples, drawn next from the split's one stream, scored
    by cosine/temperature against the unit text features."""
    class_ids = split_class_ids(world, split)
    feats = class_features(params, world, trans_cfg, class_ids)
    rng = rng_for(seed, "eval", split)
    correct = 0
    for local, class_id in enumerate(class_ids):
        images = sample_image(world, class_id, rng, n_test)
        logits = images @ feats.T / temperature
        correct += int((logits.argmax(axis=1) == local).sum())
    return 100.0 * correct / (n_test * len(class_ids))
