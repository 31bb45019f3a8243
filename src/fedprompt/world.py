"""Synthetic embedding world that stands in for frozen image and text encoders.

Real encoders map images and class names into a shared unit sphere; here
each class is a random unit direction, images are noisy draws around it,
and the class-name embedding is a separately perturbed copy of the same
direction.  Novel classes live between random pairs of base classes so
they are related to, but distinct from, anything seen in training.
Training images are sampled for a whole class set at once, class by
class in order, each class from its own stream, so a class's images
never depend on which classes are drawn beside it.  Evaluation draws a
block of classes as one draw from its split's one stream, so the
classes take consecutive draws from it, and keeps the samples raw:
normalizing a sample scales all of its scores by one positive factor,
which cannot change which class scores highest.

A small frozen two-layer head, with QuickGELU between its layers, turns
prompt context vectors into an additive correction on the class-name
embedding.  QuickGELU(0) = 0, so with zero context the head contributes
nothing and the text feature degenerates to the raw class embedding;
that identity anchors several tests.  The head takes a
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
    centers: np.ndarray  # [n_base + n_new, d], unit rows, base classes first
    class_embeddings: np.ndarray  # [n_base + n_new, d], unit rows
    head: FrozenTextHead

    @property
    def base_ids(self) -> range:
        return range(self.cfg.n_base)

    @property
    def new_ids(self) -> range:
        return range(self.cfg.n_base, self.cfg.n_classes)

    def class_centers(self, class_ids) -> np.ndarray:
        """[k, d] centers of k class ids, gathered by one index.

        An id outside [0, n_classes) raises IndexError; a negative id
        would otherwise count back from the last class.
        """
        ids = np.asarray(class_ids)
        outside = (ids < 0) | (ids >= self.cfg.n_classes)
        if outside.any():
            raise IndexError(f"class id {ids[outside][0]} out of range")
        return self.centers[ids]

    def center(self, class_id: int) -> np.ndarray:
        return self.class_centers([class_id])[0]


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """x with every row along its last axis scaled to unit norm, in place."""
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    x /= np.maximum(norms, 1e-8)
    return x


def build_world(cfg: WorldConfig) -> SyntheticWorld:
    """Materialize the world for cfg.seed.

    Every command rebuilds the world this way; none is stored.  Draw
    order is fixed, since every result depends on it: base centers, then
    per novel class a parent pair and mixing weight, then every class-name
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
    return SyntheticWorld(cfg, centers, emb, head)


def _around_centers(world: SyntheticWorld, centers: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """[k, n, d] raw samples centers + sigma_img * noise, computed in
    noise's buffer."""
    noise *= world.cfg.sigma_img
    noise += centers[:, None, :]
    return noise


def sample_image(
    world: SyntheticWorld, class_ids, rngs, n: int
) -> np.ndarray:
    """n unit-norm image embeddings per class, [k, n, d] for k class ids.

    Classes are drawn one after another in the order given: class i's
    rows are one [n, d] draw from rngs[i], which takes the same values,
    row by row, as n draws of d.  Distinct streams give each class the
    draw it would get alone, and every float operation on a row is the
    same as for a class sampled on its own.  Zero image noise takes no
    draw and repeats each center bitwise.
    """
    centers = world.class_centers(class_ids)
    if len(rngs) != len(centers):
        raise DimensionError(f"{len(centers)} classes need as many streams, got {len(rngs)}")
    if world.cfg.sigma_img == 0.0:
        return np.repeat(centers[:, None, :], n, axis=1)
    x = np.empty((len(centers), n, world.cfg.d))
    for rows, rng in zip(x, rngs):
        rng.standard_normal(rows.shape, out=rows)
    return _unit_rows(_around_centers(world, centers, x))


def sample_raw(world: SyntheticWorld, class_ids, rng: np.random.Generator, n: int) -> np.ndarray:
    """n raw image samples per class, centers + sigma_img * noise, not
    normalized: [k, n, d] for k class ids.

    The noise is one [k, n, d] draw from rng, which takes the same values
    as k consecutive [n, d] draws, so class i's rows are the draw it
    would get next from rng after the classes before it.  Each row is
    sample_image's row before its unit scaling.  Zero image noise takes
    no draw and repeats each center bitwise.
    """
    centers = world.class_centers(class_ids)
    if world.cfg.sigma_img == 0.0:
        return np.repeat(centers[:, None, :], n, axis=1)
    return _around_centers(world, centers, rng.standard_normal((len(centers), n, world.cfg.d)))


def text_feature(head: FrozenTextHead, class_emb: np.ndarray, ctx: DiffNode) -> DiffNode:
    """Classifier weights [..., k, d] for k classes given their prompt contexts.

    class_emb holds k class-name embedding rows; ctx stacks each class's
    n_ctx context vectors, class by class, as [..., k * n_ctx, d].  A
    leading axis stacks clients, each with its own classes and contexts.
    The two leads may also differ where they broadcast, and the result
    has the broadcast lead; backward() then refuses ctx's gradient
    unless that is ctx's own lead.  Leads that do not broadcast raise
    DimensionError.
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
    if c.shape[:-2] != lead and not ag.leads_broadcast(c.shape[:-2], lead):
        raise DimensionError(
            f"context {c.shape} does not broadcast against embeddings {class_emb.shape}"
        )
    if k < 1 or rows < k or rows % k:
        raise DimensionError(f"context {c.shape} does not split into {k} classes")
    n_ctx = rows // k
    z = c.reshape(*c.shape[:-2], k, n_ctx, d).mean(axis=-2) @ head.W1
    s = ag.quick_gelu_gate(z)
    zs = z * s
    x = class_emb + zs @ head.W2
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
        g_pooled = ((g_x @ head.W2.T) * ag.quick_gelu_slope(s, zs)) @ head.W1.T
        return (np.repeat(g_pooled / n_ctx, n_ctx, axis=-2),)

    return DiffNode(y, (ctx,), rule, op="text_feature")

