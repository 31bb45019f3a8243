"""Unit tests for the reverse-mode engine: frozen forward oracles plus
central-difference gradient checks for every op, both the package's and
the small ops of the test-side reference composition (reference_graph)."""

import math

import numpy as np
import pytest

from fedprompt.autograd import (
    DiffNode,
    Parameter,
    ParameterSet,
    backward,
    constant,
    cross_entropy,
    grad_check,
    quick_gelu_gate,
    quick_gelu_slope,
)
from fedprompt.errors import DimensionError, NumericError, SchemaError
from reference_graph import (
    add,
    geglu,
    gelu,
    grad_check as loop_grad_check,
    l2_normalize,
    layer_norm,
    matmul,
    scale,
    transpose,
    unflatten,
)

# QuickGELU's gate at 1.0, sigmoid(1.702), through the scalar math library
SIG_1 = 1.0 / (1.0 + math.exp(-1.702))


def probe(node: DiffNode, seed: int) -> DiffNode:
    """Reduce a matrix node to a scalar via a random rank-1 bilinear form."""
    rng = np.random.default_rng(seed)
    r, c = node.shape
    u = constant(rng.standard_normal((1, r)))
    v = constant(rng.standard_normal((c, 1)))
    return matmul(matmul(u, node), v)


class TestParameterValue:
    def test_dtype_and_layout(self):
        p = Parameter("w", [[1, 2], [3, 4]])
        assert p.value.dtype == np.float64
        assert p.value.flags.c_contiguous
        fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        p.set_value(fortran)
        assert p.value.flags.c_contiguous
        assert np.array_equal(p.value, fortran)

    def test_value_is_a_private_copy(self):
        src = np.ones(3)
        p = Parameter("w", src)
        src[0] = 5.0
        p.set_value(src)
        src[1] = 7.0
        assert np.array_equal(p.value, [5.0, 1.0, 1.0])

    def test_rejects_nan_and_inf(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NumericError):
                Parameter("w", [1.0, bad])
            p = Parameter("w", [1.0, 2.0])
            with pytest.raises(NumericError):
                p.set_value([bad, 2.0])

    def test_values_read_only(self):
        a = Parameter("a", np.ones((2, 3)))
        gain, bias = Parameter("gain", np.ones(3)), Parameter("bias", np.zeros(3))
        nodes = [
            a,
            add(a, a),
            scale(a, 2.0),
            matmul(a, transpose(a)),
            transpose(a),
            layer_norm(a, gain, bias),
            gelu(a),
            geglu(matmul(a, constant(np.ones((3, 4))))),
            l2_normalize(a),
            cross_entropy(a, [0, 2]),
            constant(np.ones(2)),
        ]
        for node in nodes:
            assert isinstance(node.value, np.ndarray) and node.value.dtype == np.float64
            with pytest.raises(ValueError):
                node.value[...] = 0.0
        a.set_value(np.zeros((2, 3)))
        assert not a.value.flags.writeable


class TestValueLayout:
    def test_transpose_is_c_contiguous(self):
        x = Parameter("x", np.arange(6.0).reshape(2, 3))
        out = transpose(x)
        assert out.value.flags.c_contiguous
        assert np.array_equal(out.value, np.arange(6.0).reshape(2, 3).T)

    def test_constant_leaves_caller_array_writable(self):
        x = np.zeros((2, 2))
        node = constant(x)
        assert not node.value.flags.writeable
        x[0, 0] = 1.0
        assert x.flags.writeable


class TestForwardOracles:
    def test_matmul_small(self):
        out = matmul(constant([[1.0, 2.0], [3.0, 4.0]]), constant([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.value, [[19.0, 22.0], [43.0, 50.0]])

    def test_matmul_shape_error(self):
        with pytest.raises(DimensionError):
            matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))

    def test_add_rejects_broadcasting(self):
        with pytest.raises(DimensionError):
            add(constant(np.ones((2, 3))), constant(np.ones((1, 3))))

    def test_layer_norm_matches_reference_formula(self):
        x = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]])
        gain = np.array([1.5, 1.0, 0.5])
        bias = np.array([0.1, -0.2, 0.0])
        out = layer_norm(constant(x), constant(gain), constant(bias))
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)  # population variance
        expected = (x - mu) / np.sqrt(var + 1e-5) * gain + bias
        assert np.allclose(out.value, expected, rtol=0, atol=1e-15)

    def test_gelu_known_points(self):
        out = gelu(constant([[0.0, 1.0, -1.0]]))
        expected = np.array([[0.0, SIG_1, -(1.0 - SIG_1)]])
        assert np.allclose(out.value, expected, rtol=0, atol=1e-12)

    def test_geglu_halves(self):
        out = geglu(constant([[2.0, 0.5, 1.0, 0.0]]))
        # value [2, 0.5] gated by gelu([1, 0]) = [SIG_1, 0]
        assert np.allclose(out.value, [[2.0 * SIG_1, 0.0]], rtol=0, atol=1e-12)

    def test_geglu_odd_width_rejected(self):
        with pytest.raises(DimensionError):
            geglu(constant(np.ones((1, 3))))

    def test_l2_normalize_rows(self):
        out = l2_normalize(constant([[3.0, 4.0], [0.0, 2.0]]))
        assert np.allclose(out.value, [[0.6, 0.8], [0.0, 1.0]], rtol=0, atol=1e-15)

    def test_l2_normalize_tiny_row_uses_epsilon(self):
        x = np.array([[1e-12, 0.0]])
        out = l2_normalize(constant(x))
        assert np.allclose(out.value, x / 1e-8, rtol=0, atol=1e-20)

    def test_cross_entropy_uniform(self):
        logits = constant(np.zeros((3, 5)))
        out = cross_entropy(logits, [0, 2, 4])
        assert abs(out.value.item() - np.log(5.0)) < 1e-15

    def test_cross_entropy_known_value(self):
        out = cross_entropy(constant([[0.0, np.log(3.0)]]), [1])
        assert abs(out.value.item() - (-np.log(0.75))) < 1e-15

    def test_cross_entropy_rejects_non_finite_logits(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(NumericError), np.errstate(invalid="ignore"):
                cross_entropy(constant([[bad, 0.0], [1.0, 2.0]]), [1, 0])

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(constant(np.zeros((1, 3))), [3])


class TestQuickGelu:
    def test_slope_matches_central_difference_into_the_tails(self):
        # the grid reaches |x| = 40, where the gate is saturated at 0 or 1
        x = np.linspace(-40.0, 40.0, 801)
        h = 1e-5

        def f(v):
            return v * quick_gelu_gate(v)

        s = quick_gelu_gate(x)
        slope = quick_gelu_slope(s, x * s)
        numeric = (f(x + h) - f(x - h)) / (2.0 * h)
        err = np.abs(slope - numeric) / np.maximum(np.abs(slope), np.abs(numeric))
        assert err.max() < 1e-6
        assert abs(slope[0]) < 1e-25 and slope[-1] == 1.0

    def test_gate_at_zero_is_one_half(self):
        assert quick_gelu_gate(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    def test_overflowing_exp_gives_zero_gate_and_finite_slope(self):
        # below about -417 the exp of -1.702 x overflows to inf
        x = np.array([-500.0, -1e4, -1e300])
        with np.errstate(all="ignore"):
            s = quick_gelu_gate(x)
            slope = quick_gelu_slope(s, x * s)
        assert s.tolist() == [0.0, 0.0, 0.0]
        assert np.isfinite(slope).all()


class TestBackward:
    def test_fan_out_accumulates(self):
        x = Parameter("x", [[2.0]])
        y = add(x, x)
        backward(y)
        assert x.grad[0, 0] == 2.0

    def test_gradients_read_only(self):
        a = Parameter("a", np.arange(6.0).reshape(2, 3))
        b = Parameter("b", np.ones((3, 2)))
        # fan-out, a transposed view and a first gradient stored uncopied
        ab = matmul(a, b)
        root = cross_entropy(add(ab, transpose(transpose(ab))), [0, 1])
        backward(root)
        nodes, stack = [], [root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.parents)
        for node in nodes:
            assert not node.grad.flags.writeable, node.op
            with pytest.raises(ValueError):
                node.grad[...] = 0.0

    def test_second_backward_overwrites(self):
        x = Parameter("x", [[2.0]])
        y = add(x, x)
        backward(y)
        backward(y)
        assert x.grad[0, 0] == 2.0  # not 4.0

    def test_scalar_root_required(self):
        x = Parameter("x", np.ones((2, 2)))
        y = add(x, x)
        with pytest.raises(DimensionError):
            backward(y)

    def test_matmul_grads_exact(self):
        a = Parameter("a", [[1.0, 2.0], [3.0, 4.0]])
        b = Parameter("b", [[5.0], [6.0]])
        out = matmul(constant([[1.0, 1.0]]), matmul(a, b))
        backward(out)
        assert np.array_equal(a.grad, [[5.0, 6.0], [5.0, 6.0]])
        assert np.array_equal(b.grad, [[4.0], [6.0]])

def check_unary(op, shape, seed, **kwargs):
    rng = np.random.default_rng(seed)
    x = Parameter("x", rng.standard_normal(shape))
    params = ParameterSet([x])
    err = loop_grad_check(lambda: probe(op(x, **kwargs) if kwargs else op(x), seed + 1), params)
    assert err < 1e-6, f"{op.__name__}: max relative error {err}"


class TestGradCheckPerOp:
    def test_nan_gradient_raises(self):
        x = Parameter("x", np.ones((1, 2)))

        def loss():
            nan_rule = DiffNode(np.ones((1, 2)), (x,), lambda g: (g * np.nan,), op="nan_rule")
            return cross_entropy(add(x, nan_rule), [0])

        with pytest.raises(NumericError):
            grad_check(loss, ParameterSet([x]))

    def test_add_scale(self):
        rng = np.random.default_rng(0)
        a = Parameter("a", rng.standard_normal((3, 4)))
        b = Parameter("b", rng.standard_normal((3, 4)))
        params = ParameterSet([a, b])
        err = loop_grad_check(lambda: probe(add(scale(add(a, b), 2.5), scale(b, -1.0)), 5), params)
        assert err < 1e-6

    def test_matmul(self):
        rng = np.random.default_rng(1)
        a = Parameter("a", rng.standard_normal((3, 5)))
        b = Parameter("b", rng.standard_normal((5, 2)))
        params = ParameterSet([a, b])
        err = loop_grad_check(lambda: probe(matmul(a, b), 6), params)
        assert err < 1e-6

    def test_transpose(self):
        check_unary(transpose, (3, 4), 2)

    def test_gelu(self):
        check_unary(gelu, (3, 6), 5)

    def test_geglu(self):
        check_unary(geglu, (3, 8), 6)

    def test_l2_normalize(self):
        check_unary(l2_normalize, (4, 5), 7)

    def test_layer_norm(self):
        rng = np.random.default_rng(10)
        x = Parameter("x", rng.standard_normal((4, 6)))
        gain = Parameter("gain", rng.standard_normal(6))
        bias = Parameter("bias", rng.standard_normal(6))
        params = ParameterSet([x, gain, bias])
        err = loop_grad_check(lambda: probe(layer_norm(x, gain, bias), 11), params)
        assert err < 1e-6

    def test_cross_entropy(self):
        rng = np.random.default_rng(12)
        x = Parameter("x", rng.standard_normal((4, 6)))
        labels = [0, 5, 2, 2]
        params = ParameterSet([x])
        err = loop_grad_check(lambda: cross_entropy(x, labels), params)
        assert err < 1e-6

    def test_deep_composition(self):
        rng = np.random.default_rng(13)
        x = Parameter("x", rng.standard_normal((3, 8)))
        w = Parameter("w", rng.standard_normal((4, 8)))
        gain = Parameter("gain", np.ones(8))
        bias = Parameter("bias", np.zeros(8))
        params = ParameterSet([x, w, gain, bias])

        def loss():
            h = layer_norm(x, gain, bias)
            h = geglu(matmul(h, constant(np.tile(np.eye(8), (1, 2)))))
            h = l2_normalize(add(h, x))
            logits = matmul(h, transpose(w))
            return cross_entropy(scale(logits, 3.0), [1, 0, 3])

        err = loop_grad_check(loss, params)
        assert err < 1e-6


class TestGradCheckStack:
    """The package's grad_check evaluates its central differences as
    stacked parameter sets; the loss has to broadcast over them."""

    def test_equals_reference_loop_over_several_chunks(self):
        # 140 coordinates: two full stacks and a part one
        x = Parameter("x", np.random.default_rng(14).standard_normal((20, 7)))
        params = ParameterSet([x])
        labels = np.arange(20) % 7

        def loss():
            return cross_entropy(x, np.broadcast_to(labels, x.value.shape[:-1]))

        assert grad_check(loss, params) == loop_grad_check(loss, params)

    @pytest.mark.parametrize("check", [grad_check, loop_grad_check])
    def test_values_restored_when_loss_raises(self, check):
        rng = np.random.default_rng(15)
        x = Parameter("x", rng.standard_normal((2, 3)))
        y = Parameter("y", rng.standard_normal(3))
        params = ParameterSet([x, y])
        before = {name: p.value for name, p in params.items()}
        calls = 0

        def loss():
            nonlocal calls
            calls += 1
            if calls > 1:
                raise NumericError("loss failed on a perturbed value")
            return cross_entropy(x, [0, 2])

        with pytest.raises(NumericError):
            check(loss, params)
        assert calls == 2
        for name, p in params.items():
            assert p.value is before[name], name

    def test_tensor_the_loss_ignores_gives_zero_differences(self):
        # perturbing y leaves x at lead 1, so the loss reads one set only
        rng = np.random.default_rng(15)
        x = Parameter("x", rng.standard_normal((2, 3)))
        y = Parameter("y", rng.standard_normal(3))
        params = ParameterSet([x, y])

        def loss():
            return cross_entropy(x, np.broadcast_to([0, 2], x.value.shape[:-1]))

        assert grad_check(loss, params) == loop_grad_check(loss, params) == 1.3245633591577058e-10

    def test_loss_ignoring_stack_raises(self):
        x = Parameter("x", np.ones((1, 2)))
        before = x.value

        # one loss whatever x holds: nothing to read the differences from
        def loss():
            return cross_entropy(constant(np.zeros((1, 2))), [0])

        with pytest.raises(DimensionError, match="4 stacked losses"):
            grad_check(loss, ParameterSet([x]))
        assert x.value is before


class TestParameterSet:
    def make(self):
        return ParameterSet(
            [
                Parameter("queries", np.arange(6.0).reshape(2, 3)),
                Parameter("W_q", np.ones((3, 3))),
                Parameter("bias", np.array([7.0, 8.0])),
            ]
        )

    def test_lexicographic_order(self):
        ps = self.make()
        assert [p.name for p in ps] == ["W_q", "bias", "queries"]

    def test_flatten_round_trip_bitwise(self):
        ps = self.make()
        flat = ps.flatten()
        # lexicographic: W_q, then bias, then queries
        assert np.array_equal(flat, [1.0] * 9 + [7.0, 8.0] + list(range(6)))
        rebuilt = unflatten(ps, flat)
        for name, p in ps.items():
            assert rebuilt[name].value.tobytes() == p.value.tobytes()

    def test_flatten_length_is_schema_size(self):
        ps = self.make()
        assert ps.flatten().shape == (ps.n_scalars(),) == (17,)
        assert ps.n_scalars() == sum(int(np.prod(shape)) for _, shape in ps.schema())
        assert ParameterSet([]).flatten().shape == (0,)

    def test_duplicate_name_rejected(self):
        with pytest.raises(SchemaError):
            ParameterSet([Parameter("a", [1.0]), Parameter("a", [2.0])])

    def test_row_twin_is_independent(self):
        ps = self.make()
        dup = ps.stacked(1).row(0)
        dup["bias"].set_value(np.array([0.0, 0.0]))
        dup["W_q"].grad = np.ones((3, 3))
        assert np.array_equal(ps["bias"].value, [7.0, 8.0])
        assert ps["W_q"].grad is None

    def test_row_twin_shares_read_only_values(self):
        ps = self.make()
        ps["bias"].grad = np.ones(2)
        dup = ps.stacked(1).row(0)
        assert dup.schema() == ps.schema()
        for name, p in ps.items():
            assert dup[name] is not p and dup[name].name == name
            assert np.shares_memory(dup[name].value, p.value)
            assert np.array_equal(dup[name].value, p.value)
            assert not dup[name].value.flags.writeable and not p.value.flags.writeable
            assert dup[name].grad is None

    def test_missing_name(self):
        with pytest.raises(SchemaError):
            self.make()["nope"]
