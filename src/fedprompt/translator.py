"""Prompt generator that turns class-name embeddings into context vectors.

A fixed bank of learned query vectors takes one additive update from the
class-name embedding, then a gated feed-forward refines the result under
a pre-normalized residual connection.

The update is what cross-attention of the queries over a single key row
reduces to: with one key every attention weight is exactly 1, so every
query receives the same value row e @ W_v, projected by W_o.  The block
computes that directly as queries + (ones(n_ctx, 1) @ (e @ W_v)) @ W_o.
It has no query or key projection, no heads and no attention weights,
because with one key none of them can change the output or receive a
gradient.  Attention over several keys, such as a task's whole set of
class names, would be a different model.

A whole class set runs as one graph: k embedding rows give k contexts
stacked as [k * n_ctx, d_model] rows, class by class.  Every step after
the tiling works row by row, so the classes never mix.

Parameter tensors have a fixed schema; see translator_schema().  The
output projection and the second feed-forward matrix start at zero, which
closes both residual branches at initialization: the produced context
equals the raw query bank until training moves the weights.
"""

from dataclasses import dataclass

import numpy as np

from fedprompt import autograd as ag
from fedprompt.autograd import DiffNode, Parameter, ParameterSet
from fedprompt.errors import ConfigError, DimensionError
from fedprompt.seeding import rng_for

QUERY_INIT_STD = 0.02


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


def translate_one(params: ParameterSet, cfg: TranslatorConfig, emb: DiffNode) -> DiffNode:
    """Context vectors for k classes; emb is [k, d_model], the result is
    [k * n_ctx, d_model] with class i in rows i * n_ctx to (i + 1) * n_ctx."""
    if len(emb.shape) != 2 or emb.shape[0] < 1 or emb.shape[1] != cfg.d_model:
        raise DimensionError(f"emb must be (k, {cfg.d_model}) with k >= 1, got {emb.shape}")
    k, n = emb.shape[0], cfg.n_ctx
    # tile after W_v and before W_o; tiling the embedding before W_v
    # rounds differently (about 1e-16) and shifts every trained result
    value_rows = ag.matmul(emb, params["W_v"])
    tiled = ag.matmul(ag.constant(np.kron(np.eye(k), np.ones((n, 1)))), value_rows)
    queries = ag.matmul(ag.constant(np.kron(np.ones((k, 1)), np.eye(n))), params["queries"])
    u = ag.add(queries, ag.matmul(tiled, params["W_o"]))
    u_in = ag.layer_norm(u, params["ln2_gain"], params["ln2_bias"])
    ffn = ag.matmul(ag.geglu(ag.matmul(u_in, params["ffn_in"])), params["ffn_out"])
    return ag.add(u, ffn)
