"""Accuracy measurement on the base and new class splits.

Evaluation classifies fresh test samples against the text features of
every class in one split: base classes measure what training saw, new
classes measure generalization to held-out classes.  Each split draws
its test samples from one stream derived with an "eval" label, so they
never collide with training data, and the zero-context baseline (all
context vectors zero) is available as the untrained reference point.
A split is sampled and scored a block of classes at a time, one draw
per block, so the samples in flight stay within a fixed byte budget
however large the split is.  Only the class that scores highest
counts, so a block is scored with the raw dot products of its raw
samples against the unit text features: the cosine/temperature score
of the model is each sample's raw products times one positive factor,
which orders the classes the same way.
"""

from dataclasses import dataclass

import numpy as np

from fedprompt.autograd import ParameterSet
from fedprompt.errors import ConfigError, ContractError
from fedprompt.federation import class_text_features
from fedprompt.seeding import rng_for
from fedprompt.translator import TranslatorConfig
from fedprompt.world import SyntheticWorld, sample_raw

SPLITS = ("base", "new")

# Bytes of test samples drawn and scored per block.  Timed in-process as
# two evaluate_both_splits calls, the medians of two sets of interleaved
# rounds on a 2-vCPU Intel Xeon host, 2**17, 2**18 and 2**19 bytes took
# 6.6/6.2/7.8 and 8.1/8.1/9.3 ms at d=32, and at d=128 48/50/51 and
# 67/65/64 ms, within the rounds' spread of 3-8 ms.
BLOCK_BYTES = 2**18


@dataclass(frozen=True)
class EvalResult:
    """Base and new split accuracies of one evaluated model, in percent;
    gap is the points by which new-class accuracy beats base accuracy."""

    base_acc: float
    new_acc: float

    @property
    def gap(self) -> float:
        return self.new_acc - self.base_acc


def split_class_ids(world: SyntheticWorld, split: str) -> list[int]:
    if split not in SPLITS:
        raise ConfigError(f"split must be one of {SPLITS}, got {split!r}")
    ids = list(world.base_ids if split == "base" else world.new_ids)
    if not ids:
        raise ContractError(f"split {split!r} has no classes")
    return ids


def class_features(
    params: ParameterSet | None,
    world: SyntheticWorld,
    trans_cfg: TranslatorConfig,
    class_ids,
) -> np.ndarray:
    """Read-only unit text features for the given classes, one row per class.

    With params None the context is all zeros, which reduces every
    feature to the raw class-name embedding: the zero-context baseline.
    """
    return class_text_features(params, trans_cfg, world, class_ids).value


def evaluate(
    params: ParameterSet | None,
    world: SyntheticWorld,
    trans_cfg: TranslatorConfig,
    split: str,
    n_test: int,
    temperature: float,
    seed: int,
) -> float:
    """Accuracy percent over the chosen split.

    The label space is exactly the split's classes.  Text features for
    the whole split come from one graph.  The split's samples come from
    one stream, n_test per class, class by class in split order, and
    each sample is assigned to the class with the highest
    cosine/temperature score.  That score is the raw sample's dot product
    with a unit feature times 1 / (|sample| * temperature), one positive
    factor per sample, so evaluate argmaxes the raw dot products, which
    pick the same class (rounding could part the two only where two of a
    sample's scores agree to the last bits).  temperature cannot change
    an accuracy; it stays a parameter, checked positive, because callers
    pass it by position.

    The split is scored in blocks of consecutive classes whose samples
    fit in BLOCK_BYTES, each drawn with one call on the split's stream.
    A block's [b, n_test, k] dot products come from one stacked matmul,
    which multiplies each class's samples as its own product, so every
    score is the one a class scored alone would get.
    """
    if n_test < 1:
        raise ConfigError(f"n_test must be positive, got {n_test}")
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    class_ids = split_class_ids(world, split)
    feats_t = class_features(params, world, trans_cfg, class_ids).T
    rng = rng_for(seed, "eval", split)
    per_block = max(1, BLOCK_BYTES // (n_test * world.cfg.d * 8))
    correct = 0
    for start in range(0, len(class_ids), per_block):
        block = class_ids[start : start + per_block]
        scores = sample_raw(world, block, rng, n_test) @ feats_t
        labels = np.arange(start, start + len(block))[:, None]
        correct += np.count_nonzero(scores.argmax(axis=-1) == labels)
    return 100.0 * correct / (n_test * len(class_ids))


def evaluate_both_splits(
    params: ParameterSet | None,
    world: SyntheticWorld,
    trans_cfg: TranslatorConfig,
    n_test: int,
    temperature: float,
    seed: int,
) -> EvalResult:
    base = evaluate(params, world, trans_cfg, "base", n_test, temperature, seed)
    new = evaluate(params, world, trans_cfg, "new", n_test, temperature, seed)
    return EvalResult(base, new)
