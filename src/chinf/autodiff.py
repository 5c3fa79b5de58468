"""Minimal reverse-mode gradient engine over dense float64 arrays.

Primitives record onto an explicit :class:`Tape`; :func:`backward` walks the
tape in reverse and returns the gradient of a scalar loss restricted to a
named parameter subset. No broadcasting beyond bias addition, no control
flow on the tape: every shape is explicit so the backward pass stays
auditable. :func:`finite_difference_gradient` is the independent oracle the
engine is validated against.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import _readonly


class NonFiniteError(ValueError):
    """A primitive produced inf or nan on the tape."""


@dataclass(frozen=True)
class ParamSelector:
    """Names the parameter subset whose gradients are materialized."""

    selector_id: str
    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) == 0:
            raise ValueError("selector must name at least one parameter")
        if len(set(self.names)) != len(self.names):
            raise ValueError("selector names must be unique")


@dataclass(frozen=True)
class GradientVector:
    """Flat gradient over one parameter subset, tagged with its selector."""

    values: np.ndarray
    selector_id: str

    def __post_init__(self):
        values = _readonly(self.values)
        if values.ndim != 1:
            raise ValueError(f"gradient must be a flat vector, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("gradient has non-finite entries")
        object.__setattr__(self, "values", values)


class TapeNode:
    """One recorded value: a leaf or the output of a primitive.

    The node holds its tape weakly. The tape holds its nodes, so a strong
    back-reference would make a cycle that keeps every tape and all its
    intermediate arrays alive until the cyclic garbage collector runs.
    """

    __slots__ = ("_tape", "idx", "value", "parents", "vjp", "name")

    def __init__(self, tape, idx, value, parents, vjp, name=None):
        self._tape = weakref.ref(tape)
        self.idx = idx
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.name = name

    @property
    def tape(self) -> "Tape":
        tape = self._tape()
        if tape is None:
            raise ValueError("node outlived its tape; keep a reference to the tape")
        return tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


class Tape:
    """Topologically ordered record of primitive applications."""

    __slots__ = ("nodes", "__weakref__")

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def leaf(self, value, name: str | None = None) -> TapeNode:
        arr = np.asarray(value, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"leaf {name!r} has non-finite entries")
        return self._record(arr, (), None, name)

    def _record(self, value, parents, vjp, name=None) -> TapeNode:
        if parents and not np.isfinite(value).all():
            raise NonFiniteError(
                f"primitive at tape position {len(self.nodes)} produced non-finite values"
            )
        node = TapeNode(self, len(self.nodes), value, parents, vjp, name)
        self.nodes.append(node)
        return node


def _tape_of(*nodes: TapeNode) -> Tape:
    tape = nodes[0].tape
    for n in nodes[1:]:
        if n.tape is not tape:
            raise ValueError("operands were recorded on different tapes")
    return tape


# ---------------------------------------------------------------------------
# Primitives. Each validates shapes, computes the forward value, and records
# a vector-Jacobian closure returning one adjoint per parent.
# ---------------------------------------------------------------------------

def matmul(a: TapeNode, b: TapeNode) -> TapeNode:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    av, bv = a.value, b.value

    def vjp(g):
        return g @ bv.T, av.T @ g

    return _tape_of(a, b)._record(av @ bv, (a, b), vjp)


def add(a: TapeNode, b: TapeNode) -> TapeNode:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _tape_of(a, b)._record(a.value + b.value, (a, b), lambda g: (g, g))


def add_bias(a: TapeNode, b: TapeNode) -> TapeNode:
    """Add bias vector b (length m) to every column of a (m, n)."""
    if a.value.ndim != 2 or b.value.ndim != 1 or a.shape[0] != b.shape[0]:
        raise ValueError(f"add_bias shape mismatch: {a.shape} + {b.shape}")
    return _tape_of(a, b)._record(
        a.value + b.value[:, None], (a, b), lambda g: (g, g.sum(axis=1))
    )


def scale(a: TapeNode, s: float) -> TapeNode:
    s = float(s)
    return a.tape._record(a.value * s, (a,), lambda g: (g * s,))


def relu(a: TapeNode) -> TapeNode:
    mask = a.value > 0
    return a.tape._record(np.where(mask, a.value, 0.0), (a,), lambda g: (g * mask,))


def tanh(a: TapeNode) -> TapeNode:
    out = np.tanh(a.value)
    return a.tape._record(out, (a,), lambda g: (g * (1.0 - out * out),))


def subtract(a: TapeNode, b: TapeNode) -> TapeNode:
    if a.shape != b.shape:
        raise ValueError(f"subtract shape mismatch: {a.shape} vs {b.shape}")
    return _tape_of(a, b)._record(a.value - b.value, (a, b), lambda g: (g, -g))


def square(a: TapeNode) -> TapeNode:
    av = a.value
    return a.tape._record(av * av, (a,), lambda g: (2.0 * av * g,))


def reduce_sum(a: TapeNode) -> TapeNode:
    shape = a.shape
    return a.tape._record(
        np.asarray(a.value.sum()), (a,), lambda g: (np.broadcast_to(g, shape).copy(),)
    )


def reduce_mean(a: TapeNode) -> TapeNode:
    size = a.value.size
    shape = a.shape
    return a.tape._record(
        np.asarray(a.value.mean()),
        (a,),
        lambda g: (np.broadcast_to(g / size, shape).copy(),),
    )


def blocks_to_columns(a: TapeNode, b: int, w: int, n: int) -> TapeNode:
    """Reinterpret b row-stacked (w, n) blocks as one column-stacked (w, b*n).

    Block k occupies rows [k*w, (k+1)*w) of the input and columns
    [k*n, (k+1)*n) of the output. Pure rearrangement, so the vjp is the
    inverse rearrangement.
    """
    if a.shape != (b * w, n):
        raise ValueError(f"expected shape {(b * w, n)} for {b} blocks, got {a.shape}")
    out = a.value.reshape(b, w, n).transpose(1, 0, 2).reshape(w, b * n)

    def vjp(g):
        return (g.reshape(w, b, n).transpose(1, 0, 2).reshape(b * w, n),)

    return a.tape._record(out, (a,), vjp)


def slice_columns(a: TapeNode, j: int, k: int) -> TapeNode:
    if a.value.ndim != 2:
        raise ValueError(f"slice_columns needs a 2-D operand, got shape {a.shape}")
    if not 0 <= j < k <= a.shape[1]:
        raise ValueError(f"column slice [{j}:{k}] out of range for shape {a.shape}")
    shape = a.shape

    def vjp(g):
        out = np.zeros(shape)
        out[:, j:k] = g
        return (out,)

    return a.tape._record(a.value[:, j:k].copy(), (a,), vjp)


# ---------------------------------------------------------------------------
# Reverse accumulation
# ---------------------------------------------------------------------------

def backward(tape: Tape, loss: TapeNode, selector: ParamSelector) -> GradientVector:
    """Gradient of a scalar loss node w.r.t. the selected leaf parameters.

    Adjoints are only propagated through nodes that lie on a path from a
    selected leaf to the loss; gradients of unselected parameters are never
    materialized.
    """
    if loss.tape is not tape:
        raise ValueError("loss node does not belong to this tape")
    if loss.value.shape != ():
        raise ValueError(f"loss node must be scalar, got shape {loss.value.shape}")

    leaves = {}
    for node in tape.nodes:
        if node.vjp is None and node.name is not None:
            leaves[node.name] = node
    selected = []
    for name in selector.names:
        if name not in leaves:
            raise ValueError(f"selector references unknown parameter {name!r}")
        selected.append(leaves[name])

    # Nodes needing adjoints: descendants of a selected leaf that are also
    # ancestors of the loss.
    n = len(tape.nodes)
    from_selected = np.zeros(n, dtype=bool)
    for node in selected:
        from_selected[node.idx] = True
    for node in tape.nodes:
        if node.parents and any(from_selected[p.idx] for p in node.parents):
            from_selected[node.idx] = True
    to_loss = np.zeros(n, dtype=bool)
    to_loss[loss.idx] = True
    for node in reversed(tape.nodes[: loss.idx + 1]):
        if to_loss[node.idx]:
            for p in node.parents:
                to_loss[p.idx] = True
    live = from_selected & to_loss

    adjoints: dict[int, np.ndarray] = {loss.idx: np.asarray(1.0)}
    for node in reversed(tape.nodes[: loss.idx + 1]):
        g = adjoints.get(node.idx)
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if not live[parent.idx]:
                continue
            acc = adjoints.get(parent.idx)
            adjoints[parent.idx] = pg if acc is None else acc + pg

    parts = []
    for node in selected:
        g = adjoints.get(node.idx)
        parts.append(np.zeros(node.value.size) if g is None else np.ravel(g))
    return GradientVector(np.concatenate(parts), selector.selector_id)


def finite_difference_gradient(
    loss_fn: Callable[[dict[str, np.ndarray]], float],
    params: dict[str, np.ndarray],
    selector: ParamSelector,
    h: float = 1e-5,
) -> GradientVector:
    """Central-difference gradient, the independent check on :func:`backward`.

    ``loss_fn`` must be a deterministic function of the parameter dict.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    for name in selector.names:
        if name not in params:
            raise ValueError(f"selector references unknown parameter {name!r}")
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    parts = []
    for name in selector.names:
        p = work[name]
        grad = np.zeros(p.size)
        flat = p.reshape(-1)
        for k in range(p.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_fn(work)
            flat[k] = orig - h
            down = loss_fn(work)
            flat[k] = orig
            grad[k] = (up - down) / (2.0 * h)
        parts.append(grad)
    return GradientVector(np.concatenate(parts), selector.selector_id)
