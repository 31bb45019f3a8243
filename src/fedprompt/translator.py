"""Prompt generator that turns class-name embeddings into context vectors.

A fixed bank of learned query vectors takes one additive update from the
class-name embedding, then a gated feed-forward refines the result under
a pre-normalized residual connection.  Its gate is QuickGELU,
x * sigmoid(1.702 x), the activation of CLIP's text transformer.

The update is what cross-attention of the queries over a single key row
reduces to: with one key every attention weight is exactly 1, so every
query receives the same value row e @ W_v, projected by W_o.  The block
computes that directly as queries + (ones(n_ctx, 1) @ (e @ W_v)) @ W_o.
It has no query or key projection, no heads and no attention weights,
because with one key none of them can change the output or receive a
gradient.  Attention over several keys, such as a task's whole set of
class names, would be a different model.

A whole class set runs as one graph node: k embedding rows give each
class n_ctx context rows, [k * n_ctx, d_model] class by class, adding
each class's update row to the queries by broadcasting; the layer norm
and the feed-forward then work row by row, so the classes never mix.
The node returns one row per class, [k, d_model]: the mean of that
class's n_ctx rows, which is all the text head reads.  The mean is
linear, so it commutes with the residual add and with ffn_out, and the
node takes it before them: a class's row is mean(queries) + its update
row + (the mean of its GEGLU rows) @ ffn_out.  In real arithmetic that
is the mean of the rows the full block would return; ffn_out's product
and both of its backward products then run on k rows, not k * n_ctx.
A leading client axis, [C, k, d_model] with every parameter stacked as
[C, *shape], runs C clients' class sets through the same node without
mixing them either.  The embeddings are frozen data, so the node's
parents are the seven parameters alone.  Its backward rule is written
out by hand (layer norm, GEGLU and both residual paths) and returns
their seven gradients; the tests hold it against each class's mean of
the same block's rows, composed from small autograd ops.

Parameter tensors have a fixed schema; see translator_schema().  The
output projection and the second feed-forward matrix start at zero, which
closes both residual branches at initialization: each class's pooled
context equals the mean of the raw query bank until training moves the
weights.
"""

from dataclasses import dataclass

import numpy as np

from fedprompt import autograd as ag
from fedprompt.autograd import DiffNode, Parameter, ParameterSet
from fedprompt.errors import ConfigError, DimensionError
from fedprompt.seeding import rng_for

QUERY_INIT_STD = 0.02
LAYER_NORM_EPS = 1e-5


@dataclass(frozen=True)
class TranslatorConfig:
    d_model: int = 32
    n_ctx: int = 4
    ffn_mult: int = 4

    def __post_init__(self):
        for field in ("d_model", "n_ctx", "ffn_mult"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be positive, got {getattr(self, field)}")

    @property
    def d_ffn(self) -> int:
        return self.ffn_mult * self.d_model


def translator_schema(cfg: TranslatorConfig) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Tensor names and shapes, in declaration order."""
    d, m, f = cfg.d_model, cfg.n_ctx, cfg.d_ffn
    return (
        ("queries", (m, d)),
        ("W_v", (d, d)),
        ("W_o", (d, d)),
        ("ln2_gain", (d,)),
        ("ln2_bias", (d,)),
        ("ffn_in", (d, 2 * f)),
        ("ffn_out", (f, d)),
    )


def init_translator_params(cfg: TranslatorConfig, seed: int) -> ParameterSet:
    """Fresh parameters for the given seed.

    Gaussian draws happen in schema declaration order so the mapping from
    seed to values is part of the format.  Queries use std 0.02, the
    projection matrices std 1/sqrt(d).  W_o and ffn_out start at zero so
    the block is the identity on its residual stream; the layer norm gain
    starts at one, its bias at zero.
    """
    rng = rng_for(seed, "translator-init")
    d = cfg.d_model
    w_std = 1.0 / np.sqrt(d)
    params = []
    for name, shape in translator_schema(cfg):
        if name == "queries":
            value = rng.standard_normal(shape) * QUERY_INIT_STD
            # two [d, d] draws that once seeded query and key projections;
            # skipping them would change W_v and ffn_in for every seed
            rng.standard_normal((2, d, d))
        elif name in ("W_v", "ffn_in"):
            value = rng.standard_normal(shape) * w_std
        elif name in ("W_o", "ffn_out"):
            value = np.zeros(shape)
        elif name.endswith("_gain"):
            value = np.ones(shape)
        else:  # ln bias
            value = np.zeros(shape)
        params.append(Parameter(name, value))
    return ParameterSet(params)


def translate_one(params: ParameterSet, cfg: TranslatorConfig, emb: np.ndarray) -> DiffNode:
    """Pooled context for k classes; emb is [..., k, d_model], the result
    is [..., k, d_model], row i the mean of class i's n_ctx context
    vectors.  The mean is taken before ffn_out and the residual add,
    which is exact in real arithmetic since both are linear; see the
    module docstring.

    A leading axis of emb stacks clients, and every parameter then holds
    one value per client along the same axis, [..., *shape]; a 2-D emb
    takes the plain parameters.  The leads of emb and the parameters may
    also differ where they broadcast, as in grad_check, where one tensor
    is stacked and every other sits at lead 1; the result then has the
    broadcast lead, and backward() refuses the gradient of a parameter
    at a smaller one.
    Leads that do not broadcast raise DimensionError.  emb is data and
    gets no gradient: one graph node whose parents are the seven
    parameters, in schema order, and whose backward rule returns their
    seven gradients.  Every product and sum runs within one client and
    one class, so a stack computes each client's slice with the same
    float operations, in the same order, as that client alone.
    """
    if emb.ndim < 2 or emb.shape[-2] < 1 or emb.shape[-1] != cfg.d_model:
        raise DimensionError(f"emb must be (..., k, {cfg.d_model}) with k >= 1, got {emb.shape}")
    lead, k = emb.shape[:-2], emb.shape[-2]
    n, d, f = cfg.n_ctx, cfg.d_model, cfg.d_ffn
    schema = translator_schema(cfg)
    tensors = tuple(params[name] for name, _ in schema)
    if any(p.value.shape != lead + shape for p, (_, shape) in zip(tensors, schema)):
        # leads that differ must still broadcast, as grad_check's stacks do
        shapes = [(p.value.shape, shape) for p, (_, shape) in zip(tensors, schema)]
        if any(got[-len(shape):] != shape for got, shape in shapes) or not ag.leads_broadcast(
            lead, *(got[: -len(shape)] for got, shape in shapes)
        ):
            raise DimensionError(
                f"translator parameters {params.schema()} do not match {cfg} over {lead}"
            )
    q, w_v, w_o, gain, bias, ffn_in, ffn_out = (p.value for p in tensors)

    def tr(x):
        return x.swapaxes(-1, -2)

    def by_class(x):
        return x.reshape(*x.shape[:-2], k, n, x.shape[-1])

    def by_row(x):
        return x.reshape(*x.shape[:-3], k * n, x.shape[-1])

    # the update row of each class, broadcast over that class's n_ctx queries
    vrow = emb @ w_v
    row = vrow @ w_o
    u = by_row(q[..., None, :, :] + row[..., :, None, :])
    # pre-norm: population variance, epsilon inside the square root
    uc = u - u.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((uc * uc).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    y = uc * inv
    u_in = y * gain[..., None, :] + bias[..., None, :]
    # GEGLU under QuickGELU: the first f columns of ffn_in give the value,
    # the last f the gate, each as its own contiguous product
    a = u_in @ ffn_in[..., :f]
    b = u_in @ ffn_in[..., f:]
    s = ag.quick_gelu_gate(b)
    gate = b * s
    # each class's mean row, taken before ffn_out
    m_bar = by_class(a * gate).mean(axis=-2)
    out = q.mean(axis=-2)[..., None, :] + row + m_bar @ ffn_out

    def rule(g):
        # every row of a class takes 1/n of that class's gradient
        g_m = ((g @ tr(ffn_out)) / n)[..., :, None, :]
        g_a = by_row(g_m * by_class(gate))
        g_b = by_row(g_m * by_class(a))
        g_b *= ag.quick_gelu_slope(s, gate)
        g_in = g_a @ tr(ffn_in[..., :f]) + g_b @ tr(ffn_in[..., f:])
        gy = g_in * gain[..., None, :]
        s1 = gy.sum(axis=-1, keepdims=True)
        s2 = (gy * y).sum(axis=-1, keepdims=True)
        # the residual stream takes g directly and through the norm
        g_u = by_class((inv / d) * (d * gy - s1 - y * s2))
        g_u += (g / n)[..., :, None, :]
        g_row = g_u.sum(axis=-2)
        g_vrow = g_row @ tr(w_o)
        # at the lead of u_in and g_a, so backward() refuses a smaller one
        g_ffn_in = np.empty(np.broadcast_shapes(u_in.shape[:-2], g_a.shape[:-2]) + (d, 2 * f))
        np.matmul(tr(u_in), g_a, out=g_ffn_in[..., :f])
        np.matmul(tr(u_in), g_b, out=g_ffn_in[..., f:])
        return (
            g_u.sum(axis=-3),
            tr(emb) @ g_vrow,
            tr(vrow) @ g_row,
            (g_in * y).sum(axis=-2),
            g_in.sum(axis=-2),
            g_ffn_in,
            tr(m_bar) @ g,
        )

    return DiffNode(out, tensors, rule, op="translate")
