"""Synthetic embedding world that stands in for frozen image and text encoders.

Real encoders map images and class names into a shared unit sphere; here
each class is a random unit direction, images are noisy draws around it,
and the class-name embedding is a separately perturbed copy of the same
direction.  Novel classes live between random pairs of base classes so
they are related to, but distinct from, anything seen in training.

A small frozen two-layer head turns prompt context vectors into an
additive correction on the class-name embedding.  With zero context the
head contributes nothing, so the text feature degenerates to the raw
class embedding; that identity anchors several tests.  The head takes a
whole class set at once: k embedding rows and their contexts stacked as
[k * n_ctx, d] rows give k features from one graph node, which pools
each class's rows as a [k, n_ctx, d] mean and carries a hand-written
backward rule for the context gradient.  A leading client axis runs
several clients' class sets through the same node.
"""

from dataclasses import dataclass

import numpy as np

from fedprompt import autograd as ag
from fedprompt.autograd import DiffNode
from fedprompt.errors import ConfigError, DimensionError
from fedprompt.seeding import rng_for

L2_NORM_EPS = 1e-8
LOAD_NORM_ATOL = 1e-6


@dataclass(frozen=True)
class WorldConfig:
    # default noise levels calibrated so the zero-context baseline sits
    # around 50% on base classes with ample trained headroom above it
    d: int = 32
    n_base: int = 60
    n_new: int = 20
    sigma_img: float = 0.25
    sigma_text: float = 0.2
    interp_lo: float = 0.3
    interp_hi: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"d must be positive, got {self.d}")
        if self.n_base < 2:
            raise ConfigError(f"n_base must be at least 2, got {self.n_base}")
        if self.n_new < 0:
            raise ConfigError(f"n_new must be non-negative, got {self.n_new}")
        if self.sigma_img < 0 or self.sigma_text < 0:
            raise ConfigError("noise scales must be non-negative")
        if not (0.0 <= self.interp_lo <= self.interp_hi <= 1.0):
            raise ConfigError(
                f"interpolation range [{self.interp_lo}, {self.interp_hi}] "
                "must be ordered and inside [0, 1]"
            )

    @property
    def n_classes(self) -> int:
        return self.n_base + self.n_new


@dataclass(frozen=True)
class FrozenTextHead:
    """Frozen two-layer correction head applied to pooled context."""

    W1: np.ndarray
    W2: np.ndarray


@dataclass(frozen=True)
class SyntheticWorld:
    cfg: WorldConfig
    base_centers: np.ndarray  # [n_base, d], unit rows
    new_centers: np.ndarray  # [n_new, d], unit rows
    class_embeddings: np.ndarray  # [n_base + n_new, d], unit rows
    head: FrozenTextHead

    @property
    def base_ids(self) -> range:
        return range(self.cfg.n_base)

    @property
    def new_ids(self) -> range:
        return range(self.cfg.n_base, self.cfg.n_classes)

    def center(self, class_id: int) -> np.ndarray:
        n_base = self.cfg.n_base
        if 0 <= class_id < n_base:
            return self.base_centers[class_id]
        if class_id < self.cfg.n_classes:
            return self.new_centers[class_id - n_base]
        raise IndexError(f"class id {class_id} out of range")


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    return x / np.maximum(norms, 1e-8)


def build_world(cfg: WorldConfig) -> SyntheticWorld:
    """Materialize the world for cfg.seed.

    Draw order is fixed and part of the format: base centers, then per
    novel class a parent pair and mixing weight, then every class-name
    embedding in class id order (one [n_classes, d] draw takes the same
    values, row by row, as one draw of d per class), then the two head
    matrices.  Zero noise scales skip both the draw and the
    renormalization, so the embeddings reproduce the centers bitwise.
    """
    rng = rng_for(cfg.seed, "world")
    base = _unit_rows(rng.standard_normal((cfg.n_base, cfg.d)))

    new_rows = []
    for _ in range(cfg.n_new):
        a, b = rng.choice(cfg.n_base, size=2, replace=False)
        lam = rng.uniform(cfg.interp_lo, cfg.interp_hi)
        new_rows.append(lam * base[a] + (1.0 - lam) * base[b])
    new = _unit_rows(np.stack(new_rows)) if new_rows else np.empty((0, cfg.d))

    centers = np.concatenate([base, new], axis=0)
    if cfg.sigma_text == 0.0:
        emb = centers.copy()
    else:
        emb = _unit_rows(centers + cfg.sigma_text * rng.standard_normal((cfg.n_classes, cfg.d)))

    head = FrozenTextHead(
        W1=rng.standard_normal((cfg.d, cfg.d)) / np.sqrt(cfg.d),
        W2=rng.standard_normal((cfg.d, cfg.d)) / np.sqrt(cfg.d),
    )
    return SyntheticWorld(cfg, base, new, emb, head)


def sample_image(
    world: SyntheticWorld, class_id: int, rng: np.random.Generator, n: int
) -> np.ndarray:
    """n unit-norm image embeddings [n, d] for the given class.

    One [n, d] draw takes the same values, row by row, as n draws of d.
    """
    center = world.center(class_id)
    if world.cfg.sigma_img == 0.0:
        return np.tile(center, (n, 1))
    return _unit_rows(center + world.cfg.sigma_img * rng.standard_normal((n, world.cfg.d)))


def text_feature(head: FrozenTextHead, class_emb: np.ndarray, ctx: DiffNode) -> DiffNode:
    """Classifier weights [..., k, d] for k classes given their prompt contexts.

    class_emb holds k class-name embedding rows; ctx stacks each class's
    n_ctx context vectors, class by class, as [..., k * n_ctx, d].  A
    leading axis stacks clients, each with its own classes and contexts.
    Averages each class's context rows, pushes the result through the
    frozen head, adds it to the class-name embedding, and renormalizes
    each row (rows with norm below 1e-8 are divided by that epsilon
    instead).  Returns one graph node whose backward rule gives the
    gradient of ctx, its only parent.

    Raises NumericError if any row norm is not finite, indexed by the
    first failing position along the leading axis.  A finite row can
    still overflow its squared norm (|x| beyond about 1e154), and
    dividing by that infinite norm would silently zero the feature,
    leaving every logit equal instead of reporting the diverged model.
    The caller decides whether numpy warns about the overflow on the way.
    """
    lead, (k, d) = class_emb.shape[:-2], class_emb.shape[-2:]
    c = ctx.value
    if c.shape[-1] != d:
        raise DimensionError(f"context width {c.shape} does not match embedding ({d})")
    rows = c.shape[-2]
    if c.shape[:-2] != lead or k < 1 or rows < k or rows % k:
        raise DimensionError(f"context {c.shape} does not split into {k} classes")
    n_ctx = rows // k
    z = c.reshape(*lead, k, n_ctx, d).mean(axis=-2) @ head.W1
    cdf = ag.gelu_cdf(z)
    x = class_emb + (z * cdf) @ head.W2
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    ag.require_finite(norms, "text feature norms are not finite")
    denom = np.maximum(norms, L2_NORM_EPS)
    y = x / denom

    def rule(g):
        g_x = np.where(
            norms >= L2_NORM_EPS,
            (g - y * (y * g).sum(axis=-1, keepdims=True)) / denom,
            g / L2_NORM_EPS,
        )
        g_pooled = ((g_x @ head.W2.T) * ag.gelu_slope(z, cdf)) @ head.W1.T
        return (np.repeat(g_pooled / n_ctx, n_ctx, axis=-2),)

    return DiffNode(y, (ctx,), rule, op="text_feature")


def load_embeddings(arrays: dict[str, np.ndarray], cfg: WorldConfig) -> SyntheticWorld:
    """Rebuild a world from stored tensors.

    Expects the five tensors written by the world container.  Center and
    embedding rows are renormalized if any has drifted from unit norm by
    more than 1e-6; exactly stored rows pass through bitwise.
    """
    required = {
        "base_centers": (cfg.n_base, cfg.d),
        "new_centers": (cfg.n_new, cfg.d),
        "class_embeddings": (cfg.n_classes, cfg.d),
        "head_W1": (cfg.d, cfg.d),
        "head_W2": (cfg.d, cfg.d),
    }
    got = {}
    for name, shape in required.items():
        if name not in arrays:
            raise ConfigError(f"embeddings are missing tensor {name!r}")
        arr = np.asarray(arrays[name], dtype=np.float64)
        if arr.shape != shape:
            raise DimensionError(f"tensor {name!r} has shape {arr.shape}, expected {shape}")
        got[name] = arr

    def maybe_renorm(x):
        if x.size == 0:
            return x
        norms = np.sqrt((x * x).sum(axis=1))
        return x if np.allclose(norms, 1.0, rtol=0, atol=LOAD_NORM_ATOL) else _unit_rows(x)

    return SyntheticWorld(
        cfg,
        maybe_renorm(got["base_centers"]),
        maybe_renorm(got["new_centers"]),
        maybe_renorm(got["class_embeddings"]),
        FrozenTextHead(got["head_W1"], got["head_W2"]),
    )


def world_arrays(world: SyntheticWorld) -> dict[str, np.ndarray]:
    """Tensors to persist, inverse of load_embeddings."""
    return {
        "base_centers": world.base_centers,
        "new_centers": world.new_centers,
        "class_embeddings": world.class_embeddings,
        "head_W1": world.head.W1,
        "head_W2": world.head.W2,
    }
