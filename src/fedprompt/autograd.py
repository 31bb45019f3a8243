"""Reverse-mode automatic differentiation over float64 numpy arrays.

The graph is built eagerly: every op returns a DiffNode holding its value,
its parent nodes, and a closure that maps the output gradient to parent
gradients.  backward() walks the graph once in reverse topological order
and overwrites .grad on every node it visits, so calling it twice on the
same graph gives identical results.

The only generic op is cross_entropy, the loss at the root.  The blocks
of the model are single nodes with hand-written backward rules built on
the same DiffNode: translator.translate_one, world.text_feature and
federation.class_logits.  The first two gate with CLIP's QuickGELU,
x * sigmoid(1.702 x), taking the sigmoid from quick_gelu_gate and the
derivative from quick_gelu_slope here, so the backward pass reuses the
forward's sigmoid and evaluates no second exp.  Every op works on any
leading axes: a 2-D matrix is one client's, and a leading axis stacks
clients that share nothing but the code, so a round's clients can take
each step as one graph.  grad_check stacks the same way: its central
differences perturb up to GRAD_CHECK_COORDS coordinates at once, as that
many pairs of parameter sets in one loss.  There only the perturbed
tensor holds a stack; every other one sits at lead 1, and the blocks
broadcast leads against one another, so each op upstream of the
perturbed tensor runs once.  backward() needs every gradient shaped
like its parent, so a graph whose leads differ can be evaluated but not
differentiated.

All math is float64 on plain, read-only ndarrays: node values and the
gradients backward() stores are frozen, so an array may be shared
between nodes, between a gradient and the rule output it came from, and
between a Parameter and its stacks or rows, without ever being copied.
Finiteness is checked where state and results leave the graph, raising
NumericError that names the first failing position along the leading
axis, for a stack the client: Parameter values (init, load, fedavg,
every SGD step), the cross_entropy loss of each client, the analytic
gradients in grad_check, and the row norms in world.text_feature.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from fedprompt.errors import ContractError, DimensionError, NumericError, SchemaError

# QuickGELU's sigmoid scale, as in CLIP's text transformer
QUICK_GELU_SCALE = 1.702


def require_finite(arr: np.ndarray, message: str) -> None:
    """Raise NumericError(message) unless every entry of arr is finite.

    The error's index is the lowest position along arr's leading axis that
    holds a non-finite entry (None for a 0-d arr): for a stacked value,
    the first failing client.
    """
    finite = np.isfinite(arr)
    if not finite.all():
        index = int(np.argmin(finite.reshape(len(arr), -1).all(axis=1))) if arr.ndim else None
        raise NumericError(message, index)


def leads_broadcast(*leads: tuple[int, ...]) -> bool:
    """Whether the given leading-axis shapes broadcast against one another."""
    try:
        np.broadcast_shapes(*leads)
    except ValueError:
        return False
    return True


def _checked(name: str, value, copy: bool) -> np.ndarray:
    arr = np.array(value, dtype=np.float64, order="C", copy=True if copy else None)
    require_finite(arr, f"parameter {name!r} has non-finite values")
    arr.setflags(write=False)
    return arr


class DiffNode:
    """One node of the compute graph.

    value is the forward result, parents the input nodes, and the backward
    rule maps d(loss)/d(value) to one gradient array per parent.  Leaves
    have no parents and no rule.
    """

    __slots__ = ("value", "parents", "grad", "op", "_rule")

    def __init__(
        self,
        value: np.ndarray,
        parents: tuple[DiffNode, ...] = (),
        rule: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None,
        op: str = "leaf",
    ):
        value.setflags(write=False)
        self.value = value
        self.parents = parents
        self.grad: np.ndarray | None = None
        self.op = op
        self._rule = rule

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self):
        return f"DiffNode(op={self.op!r}, shape={self.shape})"


class Parameter(DiffNode):
    """Named trainable leaf; its value is a float64 C-order array, finite
    (else NumericError naming the tensor) and read-only.

    By default the value is a private copy of what the caller passed.
    With copy=False a float64 C-order array is adopted as it is (anything
    else is still converted): the caller hands it over, and it is checked
    and frozen in place.  Since a value is never written, twins of a
    Parameter over views of it share its memory.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, value, *, copy: bool = True):
        super().__init__(_checked(name, value, copy), op="param")
        self.name = name

    def set_value(self, value, *, copy: bool = True) -> None:
        """Replace the stored value, as the constructor takes one; the
        existing grad is kept as-is."""
        self.value = _checked(self.name, value, copy)

    def twin(self, view: np.ndarray) -> "Parameter":
        """A new leaf of the same name, with no grad, over a view of the
        frozen value (a broadcast stack, or one client's row of a stack).
        The value is already finite, so it is neither copied nor checked
        again."""
        twin = Parameter.__new__(Parameter)
        DiffNode.__init__(twin, view, op="param")
        twin.name = self.name
        return twin

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


class ParameterSet:
    """Collection of uniquely named parameters with a fixed flattening order.

    Iteration and flatten() use lexicographic name order, so two sets
    with equal schemas serialize coordinates identically.
    """

    def __init__(self, params: Sequence[Parameter]):
        by_name: dict[str, Parameter] = {}
        for p in params:
            if p.name in by_name:
                raise SchemaError(f"duplicate parameter name {p.name!r}")
            by_name[p.name] = p
        self._params = {name: by_name[name] for name in sorted(by_name)}

    def __iter__(self):
        return iter(self._params.values())

    def __getitem__(self, name: str) -> Parameter:
        try:
            return self._params[name]
        except KeyError:
            raise SchemaError(f"no parameter named {name!r}") from None

    def items(self):
        return self._params.items()

    def schema(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return tuple((name, p.shape) for name, p in self._params.items())

    def n_scalars(self) -> int:
        return sum(p.value.size for p in self)

    def flatten(self) -> np.ndarray:
        """All coordinates as one new vector, lexicographic name order."""
        if not self._params:
            return np.empty(0)
        return np.concatenate([p.value.reshape(-1) for p in self])

    def stacked(self, n: int) -> "ParameterSet":
        """New Parameters over [n, *shape] read-only broadcasts of these
        values: a stack of n identical clients that copies nothing."""
        return ParameterSet([p.twin(np.broadcast_to(p.value, (n, *p.shape))) for p in self])

    def row(self, i: int) -> "ParameterSet":
        """New Parameters over row i of each stacked value: one client's
        set, as views into the stack."""
        return ParameterSet([p.twin(p.value[i]) for p in self])


def constant(value) -> DiffNode:
    """Leaf node for data that needs no gradient of its own; it holds a
    read-only view, and the caller's array stays writable."""
    return DiffNode(np.asarray(value, dtype=np.float64).view(), op="const")


def quick_gelu_gate(x: np.ndarray) -> np.ndarray:
    """sigmoid(1.702 x), the gate of QuickGELU x * sigmoid(1.702 x), as a
    new array.

    Computed as 1 / (1 + exp(-1.702 x)), which keeps its relative
    precision as the gate goes to 0.  Below about -417 the exp overflows
    to inf and the gate is exactly 0; the caller decides whether numpy
    warns about that.
    """
    s = np.multiply(x, -QUICK_GELU_SCALE)
    np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def quick_gelu_slope(s: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Derivative of QuickGELU, s + 1.702 x s (1 - s), as a new array,
    from the forward's gate s = quick_gelu_gate(x) and its output
    xs = x * s, so a backward rule evaluates no second exp."""
    slope = np.subtract(1.0, s)
    slope *= xs
    slope *= QUICK_GELU_SCALE
    slope += s
    return slope


class Loss(DiffNode):
    """Scalar root over stacked clients: the sum of their mean losses,
    which it keeps, read-only, as means."""

    __slots__ = ("means",)


def cross_entropy(logits: DiffNode, labels) -> Loss:
    """Mean negative log-likelihood of the given class labels, per client.

    logits is [..., batch, classes] and labels the matching [..., batch]
    ints in range: a 2-D logits matrix is one client's, a leading axis
    stacks clients.  Returns a scalar node whose value is the sum of the
    client means, so every client's mean gets gradient one and the
    clients' gradients never mix; .means holds the means, shaped like
    the leading axes.
    """
    xv = logits.value
    if xv.ndim < 2:
        raise DimensionError(f"cross_entropy needs [..., batch, classes] logits, got {xv.shape}")
    n, k = xv.shape[-2:]
    lab = np.asarray(labels, dtype=np.int64)
    if lab.shape != xv.shape[:-1]:
        raise DimensionError(f"cross_entropy got labels {lab.shape} for logits {xv.shape}")
    if lab.size and (lab.min() < 0 or lab.max() >= k):
        raise IndexError(f"label out of range for {k} classes")
    # every row's label entry, through the rows of the [-1, classes] view
    picks = (np.arange(lab.size), lab.reshape(-1))
    z = xv - xv.max(axis=-1, keepdims=True)
    e = np.exp(z)
    sums = e.sum(axis=-1, keepdims=True)
    logp = z - np.log(sums)
    means = np.asarray(-logp.reshape(-1, k)[picks].reshape(lab.shape).mean(axis=-1))
    value = np.asarray(means.sum()) if means.ndim else means
    # every mean is non-negative, so their sum is finite exactly when each
    # mean is, unless finite means overflow the sum
    if not np.isfinite(value):
        require_finite(means, "cross_entropy loss is not finite")
        raise NumericError("cross_entropy loss summed over clients is not finite")

    def rule(g):
        p = e / sums
        p.reshape(-1, k)[picks] -= 1.0
        return (float(g) * p / n,)

    loss = Loss(value, (logits,), rule, op="cross_entropy")
    means.setflags(write=False)
    loss.means = means
    return loss


def _toposort(root: DiffNode) -> list[DiffNode]:
    # iterative post-order so deep graphs cannot hit the recursion limit
    order: list[DiffNode] = []
    seen: set[int] = set()
    stack: list[tuple[DiffNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: DiffNode) -> None:
    """Populate .grad on every node reachable from the scalar root.

    Gradients accumulate across fan-out within one call, but each call
    overwrites whatever a previous backward left behind.  A node's first
    gradient is stored as its rule returned it, with no copy, and further
    ones are added out of place; every stored gradient is frozen, so the
    arrays this sharing aliases are never written.
    """
    if root.value.size != 1:
        raise DimensionError(f"backward needs a scalar root, got shape {root.shape}")
    order = _toposort(root)
    acc: dict[int, np.ndarray] = {id(root): np.ones(root.value.shape)}
    for node in reversed(order):
        # reversed post-order: every consumer of node has already run
        g = acc[id(node)]
        g.setflags(write=False)
        node.grad = g
        if node._rule is None:
            continue
        parent_grads = node._rule(g)
        if len(parent_grads) != len(node.parents):
            raise SchemaError(f"{node.op} rule returned {len(parent_grads)} gradients")
        for parent, pg in zip(node.parents, parent_grads):
            if pg.shape != parent.value.shape:
                raise DimensionError(
                    f"{node.op} gradient shape {pg.shape} does not match parent {parent.value.shape}"
                )
            prev = acc.get(id(parent))
            acc[id(parent)] = pg if prev is None else prev + pg


# Coordinates of one tensor that grad_check perturbs in one loss
# evaluation, so each evaluation stacks 2 * GRAD_CHECK_COORDS value sets.
# Measured on a 2-core host, after a default train and eval in the same
# process (42.7 MB peak RSS), with the composite check's median time and
# what it adds to the peak: 64 takes 11-12 ms and adds 0.2 MB, 128 takes
# 10.6 ms and adds 0.4 MB, 256 takes 10-11 ms and adds 1.9 MB.
GRAD_CHECK_COORDS = 64


def grad_check(
    loss_fn: Callable[[], Loss],
    params: ParameterSet,
    h: float = 1e-5,
) -> float:
    """Compare analytic gradients against central differences.

    loss_fn rebuilds the loss from the current parameter values and
    returns its cross_entropy node.  It must broadcast its data and the
    parameters' leading axes against one another: with plain values it
    is one loss, and with one value stacked [n, *shape] and every other
    at lead 1, [1, *shape], it is n independent losses, read from
    Loss.means.  A loss that reads none of the stacked values gives
    means shaped (1,), which count as n equal losses; means of any other
    shape than (n,) raise DimensionError.

    The analytic gradients come from one backward pass over the plain
    values; a non-finite one raises NumericError, since compared as below
    it would read as an error of zero.  The central differences take up
    to GRAD_CHECK_COORDS coordinates of one tensor per loss evaluation:
    that tensor holds a fresh stack with base + h at coordinate i in set
    2j and base - h in set 2j + 1, every other tensor a read-only
    [1, *shape] view of its value, so the loss computes what only
    depends on those once.  Since the sets never mix, each difference is
    the float a loss per coordinate would give.  Returns the worst
    relative error over every coordinate of every parameter, where the
    relative error uses max(|analytic|, |numeric|, 1e-8) as the
    denominator.  A step h that is not finite and positive raises
    ContractError.  Every Parameter gets its own value array back, also
    when loss_fn raises.
    """
    if not 0.0 < h < np.inf:
        raise ContractError(f"grad_check needs a finite positive step h, got {h!r}")
    for p in params:
        p.grad = None
    root = loss_fn()
    backward(root)
    analytic = {name: p.grad if p.grad is not None else np.zeros(p.shape)
                for name, p in params.items()}
    for name, g in analytic.items():
        require_finite(g, f"gradient of {name!r} has non-finite values")
    originals = {name: p.value for name, p in params.items()}
    worst = 0.0
    try:
        for name, p in params.items():
            for q in params:
                q.value = originals[q.name][None]
            base = originals[name].reshape(-1)
            for start in range(0, base.size, GRAD_CHECK_COORDS):
                coords = np.arange(start, min(start + GRAD_CHECK_COORDS, base.size))
                n = 2 * coords.size
                stack = np.repeat(base[None], n, axis=0)
                keep = base[coords]
                rows = 2 * np.arange(coords.size)
                stack[rows, coords] = keep + h
                stack[rows + 1, coords] = keep - h
                p.set_value(stack.reshape(n, *originals[name].shape), copy=False)
                means = getattr(loss_fn(), "means", None)
                if np.shape(means) == (1,):
                    means = np.broadcast_to(means, (n,))
                if np.shape(means) != (n,):
                    raise DimensionError(
                        f"grad_check needs {n} stacked losses, got shape {np.shape(means)}"
                    )
                numeric = (means[0::2] - means[1::2]) / (2.0 * h)
                a = analytic[name].reshape(-1)[coords]
                err = np.abs(a - numeric) / np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
                worst = max(worst, float(err.max()))
    finally:
        for q in params:
            q.value = originals[q.name]
    return worst
