"""Accuracy measurement on the base and new class splits.

Evaluation classifies fresh test samples against the text features of
every class in one split: base classes measure what training saw, new
classes measure generalization to held-out classes.  Test draws come
from streams derived with an "eval" label, so they never collide with
training data, and the zero-context baseline (all context vectors zero)
is available as the untrained reference point.
"""

from dataclasses import dataclass

import numpy as np

from fedprompt.autograd import ParameterSet
from fedprompt.errors import ConfigError, ContractError
from fedprompt.federation import class_text_features
from fedprompt.seeding import rng_for
from fedprompt.translator import TranslatorConfig
from fedprompt.world import SyntheticWorld, sample_image

SPLITS = ("base", "new")


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
    the whole split come from one graph; each class draws its n_test
    samples at once, and each sample is assigned to the feature with the
    highest cosine/temperature score.
    """
    if n_test < 1:
        raise ConfigError(f"n_test must be positive, got {n_test}")
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    class_ids = split_class_ids(world, split)
    feats = class_features(params, world, trans_cfg, class_ids)
    correct = 0
    for local, class_id in enumerate(class_ids):
        images = sample_image(world, class_id, rng_for(seed, "eval", split, class_id), n_test)
        logits = images @ feats.T / temperature
        correct += int((logits.argmax(axis=1) == local).sum())
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
