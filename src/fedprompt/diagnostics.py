"""Built-in correctness probes behind the gradcheck and selftest commands.

These run the same checks the test suite pins down, but packaged so a
deployed install can prove itself healthy without pytest present.
"""

import os
import tempfile
import time
from dataclasses import replace
from decimal import Decimal
from typing import Callable

import numpy as np

from fedprompt import autograd as ag
from fedprompt.autograd import ParameterSet, grad_check
from fedprompt.container import load_checkpoint, save_checkpoint
from fedprompt.evaluation import class_features
from fedprompt.federation import ClientUpdate, class_logits, fedavg
from fedprompt.reporting import (
    compare_to_reference,
    fixture_results,
    fmt2,
    round2,
    summarize,
)
from fedprompt.seeding import rng_for, rngs_for
from fedprompt.translator import TranslatorConfig, init_translator_params
from fedprompt.world import FrozenTextHead, WorldConfig, build_world

GRADCHECK_TOLERANCE = 1e-6
# central-difference step of the composite check; see the probe instance
GRADCHECK_STEP = 1e-5


def randomized_translator_params(cfg: TranslatorConfig, seed: int, std: float = 0.05) -> ParameterSet:
    """Init params with the zero-started tensors filled in.

    W_o and ffn_out are zero at init, which silences the gradient paths
    running through them; Gaussian values turn every path back on so a
    gradient check exercises the whole block.
    """
    params = init_translator_params(cfg, seed)
    rng = rng_for(seed, "gradcheck")
    for name in ("W_o", "ffn_out"):
        p = params[name]
        p.set_value(rng.normal(0.0, std, p.shape))
    return params


# Probe instance for the composite check, frozen after a conditioning
# scan.  Central differences at GRADCHECK_STEP carry an absolute noise floor
# around 1e-11, so the instance must keep every live gradient
# coordinate well above ~1e-5 or the comparison measures roundoff, not
# correctness.  The seed maximizes the smallest nonzero gradient, the
# frozen head is doubled so prompt-path gradients stay strong, and the
# temperature is 1.0 because the production value saturates the class
# probabilities and buries the differences in cancellation.  On the
# doubled head QuickGELU's steep gate has a large third derivative, so at
# GRADCHECK_STEP most of the error left (about 4e-7) is the h^2
# truncation of the central difference, not roundoff.  A wrong gradient
# rule still fails by orders of magnitude on any instance.
GRADCHECK_SEED = 703
GRADCHECK_HEAD_SCALE = 2.0
GRADCHECK_RAND_STD = 1.0


def _grad_check_instance() -> tuple[ParameterSet, Callable[[], ag.Loss]]:
    """Parameters and loss of the composite probe instance.

    The loss covers the whole composite: context generation, the frozen
    text head, cosine scoring, and cross-entropy, at width 16 with 4
    context vectors over a 2-image batch.  Its class ids and images stay
    plain and broadcast against whatever leads the parameter values
    hold, as grad_check asks; only the labels take the logits' lead.
    Plain values give the one probe loss, and one value stacked
    [n, *shape] with every other at lead 1 gives n losses over the same
    batch, computing the part of the loss upstream of the stacked
    tensor once.
    """
    seed = GRADCHECK_SEED
    # noise levels pinned so recalibrating the production defaults
    # cannot shift the probe instance the seed scan conditioned
    wcfg = WorldConfig(d=16, n_base=2, n_new=1, sigma_img=0.1, sigma_text=0.05, seed=seed)
    world = build_world(wcfg)
    world = replace(
        world,
        head=FrozenTextHead(
            GRADCHECK_HEAD_SCALE * world.head.W1, GRADCHECK_HEAD_SCALE * world.head.W2
        ),
    )
    tcfg = TranslatorConfig(d_model=16, n_ctx=4, ffn_mult=1)
    params = randomized_translator_params(tcfg, seed, std=GRADCHECK_RAND_STD)

    rng = rng_for(seed, "gradcheck", "batch")
    images = np.stack(
        [
            world.center(0) + 0.1 * rng.normal(size=16),
            world.center(1) + 0.1 * rng.normal(size=16),
        ]
    )
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    labels = np.array([0, 1])
    class_ids = np.array(world.base_ids)

    def loss_fn():
        logits = class_logits(params, tcfg, world, class_ids, images, 1.0)
        return ag.cross_entropy(logits, np.broadcast_to(labels, logits.shape[:-1]))

    return params, loss_fn


def composite_grad_check() -> tuple[float, int, float]:
    """Gradient check of the full training loss on the probe instance.

    Returns (max relative error over every scalar, scalar count,
    elapsed seconds).
    """
    params, loss_fn = _grad_check_instance()
    start = time.perf_counter()
    err = grad_check(loss_fn, params, h=GRADCHECK_STEP)
    elapsed = time.perf_counter() - start
    return err, params.n_scalars(), elapsed


def dead_gradient_tensors() -> list[str]:
    """Names of parameter tensors whose gradient on the probe instance is
    exactly zero everywhere; a tensor listed here cannot be trained."""
    params, loss_fn = _grad_check_instance()
    ag.backward(loss_fn())
    return [name for name, p in params.items() if not p.grad.any()]


class CheckResult:
    def __init__(self, name: str, passed: bool, detail: str):
        self.name = name
        self.passed = passed
        self.detail = detail


def _check_fixture_tables() -> CheckResult:
    summary = summarize(fixture_results())
    table = compare_to_reference(summary)
    got = (
        fmt2(summary.base_avg),
        fmt2(summary.new_avg),
        fmt2(summary.gap_avg, signed=True),
        fmt2(table.overall["delta_base"], signed=True),
        fmt2(table.overall["delta_new"], signed=True),
    )
    want = ("74.58", "76.00", "+1.43", "+0.11", "-0.23")
    return CheckResult(
        "reference-tables", got == want, f"averages and deltas {' '.join(got)}"
    )


def _check_zero_context_identity() -> CheckResult:
    wcfg = WorldConfig(seed=5)
    world = build_world(wcfg)
    tcfg = TranslatorConfig(d_model=wcfg.d)
    ids = list(world.base_ids) + list(world.new_ids)
    feats = class_features(None, world, tcfg, ids)
    diff = float(np.abs(feats - world.class_embeddings).max())
    return CheckResult("zero-context-identity", diff <= 1e-12, f"max |diff| = {diff:.2e}")


def _check_live_gradients() -> CheckResult:
    dead = dead_gradient_tensors()
    detail = f"zero gradient in {', '.join(dead)}" if dead else "every tensor has a gradient"
    return CheckResult("live-gradients", not dead, detail)


def _check_fedavg_identity() -> CheckResult:
    tcfg = TranslatorConfig(d_model=16, n_ctx=4, ffn_mult=2)
    params = randomized_translator_params(tcfg, seed=3)
    updates = [ClientUpdate(i, params, 0.0) for i in range(3)]
    merged = fedavg(updates)
    same = np.array_equal(merged.flatten(), params.flatten())
    return CheckResult("fedavg-identity", same, "3 identical updates, bitwise")


def _check_container_round_trip() -> CheckResult:
    tcfg = TranslatorConfig(d_model=16, n_ctx=4, ffn_mult=2)
    params = randomized_translator_params(tcfg, seed=9)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probe.ftpg")
        save_checkpoint(path, params, "probe=1\n")
        loaded, echo = load_checkpoint(path)
    same = np.array_equal(loaded.flatten(), params.flatten()) and echo == "probe=1\n"
    return CheckResult("container-round-trip", same, "checkpoint save/load, bitwise")


def _check_rounding_convention() -> CheckResult:
    up = round2(Decimal("1.425")) == Decimal("1.43")
    down = round2(Decimal("-0.335")) == Decimal("-0.34")
    return CheckResult("half-up-rounding", up and down, "ties away from zero at 2 decimals")


def _check_stream_derivation() -> CheckResult:
    # rngs_for reimplements numpy's SeedSequence mixing, so an install
    # under another numpy proves its streams are still rng_for's
    ids = [0, 1, -1, 79, 2**63 - 1, -(2**63)]
    labels = [(0, "eval", "base"), (-1, "eval", "new"), (2**63 - 1, "data", 3)]
    pairs = [
        (rng, rng_for(*label, i))
        for label in labels
        for i, rng in zip(ids, rngs_for(*label, ids=ids))
    ]
    differ = sum(a.bit_generator.state != b.bit_generator.state for a, b in pairs)
    detail = f"{differ} of {len(pairs)} bulk streams differ from rng_for"
    return CheckResult("stream-derivation", not differ, detail)


def run_selftest() -> list[CheckResult]:
    return [
        _check_fixture_tables(),
        _check_rounding_convention(),
        _check_zero_context_identity(),
        _check_live_gradients(),
        _check_fedavg_identity(),
        _check_container_round_trip(),
        _check_stream_derivation(),
    ]
