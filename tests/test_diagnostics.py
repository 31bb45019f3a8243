"""The composite gradient check behind `fedprompt gradcheck`: the same
worst error as the per-coordinate loop, a fixed number of loss
evaluations, and a failure on a wrong backward rule."""

import numpy as np

from fedprompt import diagnostics, federation
from fedprompt.autograd import grad_check
from fedprompt.cli import main
from fedprompt.diagnostics import (
    GRADCHECK_STEP,
    GRADCHECK_TOLERANCE,
    _grad_check_instance,
    composite_grad_check,
)
import reference_graph as ref


def test_stacked_check_equals_reference_loop():
    params, loss_fn = _grad_check_instance()
    stacked = grad_check(loss_fn, params, h=GRADCHECK_STEP)
    params, loss_fn = _grad_check_instance()
    assert stacked == ref.grad_check(loss_fn, params, h=GRADCHECK_STEP)
    assert stacked < GRADCHECK_TOLERANCE


def test_composite_check_makes_24_loss_evaluations(monkeypatch):
    # one analytic pass, then one stacked pass per run of up to 64
    # coordinates of one tensor, 4 + 4 + 8 + 4 + 1 + 1 + 1 in name order,
    # where one loss per perturbed value made 2 * 1376 + 1 = 2753
    evals = 0
    check = diagnostics.grad_check

    def counting(loss_fn, params, h):
        def counted():
            nonlocal evals
            evals += 1
            return loss_fn()

        return check(counted, params, h=h)

    monkeypatch.setattr(diagnostics, "grad_check", counting)
    err, n_scalars, _ = composite_grad_check()
    assert (evals, n_scalars) == (24, 1376)
    assert err < GRADCHECK_TOLERANCE


def _composite_error(h):
    params, loss_fn = _grad_check_instance()
    return grad_check(loss_fn, params, h=h)


def _skew_translate_rule(monkeypatch):
    """Scale the translator's W_v gradient by 1.001: a wrong rule."""
    translate_one = federation.translate_one

    def skewed(params, cfg, emb):
        node = translate_one(params, cfg, emb)
        rule = node._rule

        def wrong(g):
            grads = list(rule(g))
            grads[1] = grads[1] * 1.001
            return tuple(grads)

        node._rule = wrong
        return node

    monkeypatch.setattr(federation, "translate_one", skewed)


def test_wrong_translate_rule_fails(monkeypatch, capsys):
    _skew_translate_rule(monkeypatch)
    err = composite_grad_check()[0]
    assert err > GRADCHECK_TOLERANCE and np.isfinite(err)
    assert main(["gradcheck"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_error_is_central_difference_truncation(monkeypatch):
    # a correct rule leaves only the truncation error of the central
    # difference, which grows as h^2: tenfold the step, a hundredfold the
    # error (100.0 measured).  A wrong rule adds an error that does not
    # shrink with h, so the ratio falls towards 1 (3.7 measured).
    assert _composite_error(1e-3) / _composite_error(1e-4) > 20
    _skew_translate_rule(monkeypatch)
    assert _composite_error(1e-3) / _composite_error(1e-4) < 20
