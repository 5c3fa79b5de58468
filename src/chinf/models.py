"""Small window reconstruction and forecasting models with per-channel losses.

Three architectures share one convention: a window is a (rows, N) matrix and
the model maps the first `window` rows to a prediction of the target rows
(the same rows when horizon is 0, the trailing `horizon` rows otherwise).

linear_ci and mlp_ci apply one shared map to every channel column, so they
accept any channel count. mlp_mix first multiplies by an N x N mixing matrix
and is pinned to the channel count it was built with.

The per-channel loss is the SUM of squared errors on that channel's column.
Summing (rather than averaging) over channels is what makes the per-channel
losses add up to the whole-window loss exactly, which the influence module
relies on.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GradientVector, ParamSelector, Tape
from .core import MtsWindow, _readonly

ARCHITECTURES = ("linear_ci", "mlp_ci", "mlp_mix")
ACTIVATIONS = ("relu", "tanh")

CHECKPOINT_FORMAT = "chinf-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelSpec:
    architecture: str
    window: int
    channels: int
    hidden: int = 0
    activation: str = "tanh"
    horizon: int = 0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}, expected one of {ARCHITECTURES}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}"
            )
        if self.window < 1:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.channels < 1:
            raise ValueError(f"channels must be positive, got {self.channels}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {self.horizon}")
        if self.architecture != "linear_ci" and self.hidden < 1:
            raise ValueError(
                f"hidden must be at least 1 for {self.architecture}, got {self.hidden}"
            )

    @property
    def out_rows(self) -> int:
        """Rows predicted: the window itself, or the forecast horizon."""
        return self.horizon if self.horizon > 0 else self.window

    @property
    def total_rows(self) -> int:
        """Rows a window must carry: inputs plus forecast targets."""
        return self.window + self.horizon


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Named parameter shapes in canonical (initialization) order."""
    w, h, out = spec.window, spec.hidden, spec.out_rows
    if spec.architecture == "linear_ci":
        return {"weight": (out, w), "bias": (out,)}
    shapes = {"w1": (h, w), "b1": (h,), "w2": (out, h), "b2": (out,)}
    if spec.architecture == "mlp_mix":
        return {"mix": (spec.channels, spec.channels), **shapes}
    return shapes


# fan_in per weight name: the contraction length of its matmul
def _fan_in(spec: ModelSpec, name: str) -> int:
    if name in ("weight", "w1"):
        return spec.window
    if name == "w2":
        return spec.hidden
    return spec.channels  # mix


@dataclass(frozen=True)
class ModelState:
    spec: ModelSpec
    params: dict[str, np.ndarray]
    trained_lr: float = 0.0

    def __post_init__(self):
        expected = param_shapes(self.spec)
        if set(self.params) != set(expected):
            raise ValueError(
                f"parameter names {sorted(self.params)} do not match "
                f"expected {sorted(expected)}"
            )
        frozen = {}
        for name, shape in expected.items():
            arr = np.asarray(self.params[name], dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(
                    f"parameter {name!r} has shape {arr.shape}, expected {shape}"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"parameter {name!r} has non-finite entries")
            frozen[name] = _readonly(arr)
        object.__setattr__(self, "params", frozen)
        if not self.trained_lr >= 0:
            raise ValueError(f"trained_lr must be non-negative, got {self.trained_lr}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    learning_rate: float = 1e-2
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        # 0 is allowed so a no-op training step stays expressible
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(
                f"learning_rate must be finite and non-negative, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")


def init_params(spec: ModelSpec, seed: int) -> ModelState:
    """Deterministic init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(spec).items():
        if name in ("bias", "b1", "b2"):
            params[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(_fan_in(spec, name))
            params[name] = rng.uniform(-bound, bound, size=shape)
    return ModelState(spec, params)


def all_params_selector(spec: ModelSpec) -> ParamSelector:
    return ParamSelector(f"{spec.architecture}/all", tuple(param_shapes(spec)))


def last_layer_selector(spec: ModelSpec) -> ParamSelector:
    if spec.architecture == "linear_ci":
        names = ("weight", "bias")
    else:
        names = ("w2", "b2")
    return ParamSelector(f"{spec.architecture}/last_layer", names)


def _split_xy(spec: ModelSpec, window: MtsWindow) -> tuple[np.ndarray, np.ndarray]:
    values = window.values
    rows, n = values.shape
    if rows != spec.total_rows:
        raise ValueError(
            f"window has {rows} rows, model expects {spec.total_rows} "
            f"(window {spec.window} + horizon {spec.horizon})"
        )
    if spec.architecture == "mlp_mix" and n != spec.channels:
        raise ValueError(f"window has {n} channels, model expects {spec.channels}")
    if spec.horizon > 0:
        return values[: spec.window], values[spec.window :]
    return values, values


def _act_np(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    if spec.activation == "tanh":
        return np.tanh(x)
    return np.maximum(x, 0.0)


def _forward_parts(spec: ModelSpec, params: dict[str, np.ndarray], x: np.ndarray):
    """Forward pass on one (window, N) input or a (B, window, N) stack.

    Returns the prediction together with the mixed input and the hidden
    pre- and post-activations (None for linear_ci) that the closed-form
    backward step reuses.
    """
    xm = x @ params["mix"] if spec.architecture == "mlp_mix" else x
    if spec.architecture == "linear_ci":
        return params["weight"] @ xm + params["bias"][:, None], xm, None, None
    a = params["w1"] @ xm + params["b1"][:, None]
    h = _act_np(spec, a)
    return params["w2"] @ h + params["b2"][:, None], xm, a, h


def _forward_np(spec: ModelSpec, params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    return _forward_parts(spec, params, x)[0]


def reconstruct(state: ModelState, window: MtsWindow) -> np.ndarray:
    """Model output for one window: (window, N) or (horizon, N)."""
    x, _ = _split_xy(state.spec, window)
    return _forward_np(state.spec, state.params, x)


def channel_loss(state: ModelState, window: MtsWindow, j: int) -> float:
    """Sum of squared errors on channel j over the predicted rows."""
    x, target = _split_xy(state.spec, window)
    n = x.shape[1]
    if not 0 <= j < n:
        raise ValueError(f"channel index {j} out of range for {n} channels")
    y = _forward_np(state.spec, state.params, x)
    d = y[:, j] - target[:, j]
    return float(d @ d)


def window_loss(state: ModelState, window: MtsWindow) -> float:
    """Sum of squared errors over all predicted entries of one window."""
    x, target = _split_xy(state.spec, window)
    y = _forward_np(state.spec, state.params, x)
    d = (y - target).ravel()
    return float(d @ d)


def _stack_xy(
    spec: ModelSpec, windows: list[MtsWindow], what: str
) -> tuple[np.ndarray, np.ndarray]:
    """(B, window, N) inputs and (B, out_rows, N) targets of a window list."""
    if len(windows) == 0:
        raise ValueError(f"{what} must be nonempty")
    pairs = [_split_xy(spec, win) for win in windows]
    n = pairs[0][0].shape[1]
    for x, _ in pairs:
        if x.shape[1] != n:
            raise ValueError(f"{what} disagree on channel count")
    return np.stack([x for x, _ in pairs]), np.stack([t for _, t in pairs])


def _act_grad_np(spec: ModelSpec, a: np.ndarray, h: np.ndarray) -> np.ndarray:
    if spec.activation == "tanh":
        return 1.0 - h * h
    return a > 0


def _check_finite(what: str, *arrays) -> None:
    for arr in arrays:
        if arr is not None and not np.isfinite(arr).all():
            raise ad.NonFiniteError(f"{what} produced non-finite values")


def channel_gradient_rows(
    state: ModelState, windows: list[MtsWindow], selector: ParamSelector | None = None
) -> np.ndarray:
    """(B, N, P) gradients of every channel's loss for a list of windows.

    Row [b, j] is window b's channel-j loss gradient over the selected
    parameters, in selector order and row-major within each parameter (the
    layout of autodiff.backward). One batched forward pass plus the
    hand-derived backward step: with residual r = 2 (y - t), channel j's
    loss reaches the output layer only through column j, so its output
    weight gradient is r_j h_j^T and its output bias gradient is r_j. One
    more step gives the hidden layer, da_j = (W2^T r_j) * act'(a_j), and the
    mixing matrix gets channel j's signal in its column j only.

    The rows are C-contiguous: reductions over them then run in the same
    order for every batch size, so results do not depend on how callers
    chunk a window list.
    """
    spec = state.spec
    if selector is None:
        selector = last_layer_selector(spec)
    shapes = param_shapes(spec)
    for name in selector.names:
        if name not in shapes:
            raise ValueError(f"selector references unknown parameter {name!r}")
    params = state.params
    x, target = _stack_xy(spec, windows, "windows")
    y, xm, a, h = _forward_parts(spec, params, x)
    # an overflow in the mixed input reaches a (or y) too
    _check_finite("forward pass", a, y)
    r = 2.0 * (y - target)
    b, _, n = r.shape

    sizes = [int(np.prod(shapes[name])) for name in selector.names]
    rows = np.empty((b, n, sum(sizes)))
    # (B, N, *shape) views of rows, one per selected parameter; splitting the
    # contiguous last axis never copies, so writing a block fills the rows
    blocks = {}
    pos = 0
    for name, size in zip(selector.names, sizes):
        blocks[name] = rows[:, :, pos : pos + size].reshape(b, n, *shapes[name])
        pos += size

    def put_outer(name, u, v):
        # per channel j: u[:, :, j] v[:, :, j]^T of (B, k, N) and (B, l, N)
        if name in blocks:
            u_t, v_t = u.transpose(0, 2, 1), v.transpose(0, 2, 1)
            np.multiply(u_t[:, :, :, None], v_t[:, :, None, :], out=blocks[name])

    def put(name, value):
        if name in blocks:
            blocks[name][...] = value

    if spec.architecture == "linear_ci":
        put_outer("weight", r, xm)
        put("bias", r.transpose(0, 2, 1))
    else:
        put_outer("w2", r, h)
        put("b2", r.transpose(0, 2, 1))
    if blocks.keys() & {"w1", "b1", "mix"}:
        da = (params["w2"].T @ r) * _act_grad_np(spec, a, h)
        put_outer("w1", da, xm)
        put("b1", da.transpose(0, 2, 1))
        if "mix" in blocks:
            # column j of the mixing matrix is x^T (W1^T da_j), the rest is 0
            c = x.transpose(0, 2, 1) @ (params["w1"].T @ da)
            mix = blocks["mix"]
            mix[...] = 0.0
            cols = np.arange(n)
            mix[:, cols, :, cols] = c.transpose(2, 0, 1)
    _check_finite("channel gradients", rows)
    return rows


def channel_gradients(
    state: ModelState, window: MtsWindow, selector: ParamSelector | None = None
) -> list[GradientVector]:
    """Gradient of every channel's loss for one window."""
    if selector is None:
        selector = last_layer_selector(state.spec)
    rows = channel_gradient_rows(state, [window], selector)[0]
    return [GradientVector(row, selector.selector_id) for row in rows]


def channel_gradient(
    state: ModelState,
    window: MtsWindow,
    j: int,
    selector: ParamSelector | None = None,
) -> GradientVector:
    n = window.n_channels
    if not 0 <= j < n:
        raise ValueError(f"channel index {j} out of range for {n} channels")
    return channel_gradients(state, window, selector)[j]


def _act_tape(spec: ModelSpec, node):
    if spec.activation == "tanh":
        return ad.tanh(node)
    return ad.relu(node)


def _ci_tape(tape: Tape, spec: ModelSpec, params, x_node):
    """Shared per-channel map on an already-mixed (w, columns) node."""
    if spec.architecture == "linear_ci":
        w = tape.leaf(params["weight"], "weight")
        b = tape.leaf(params["bias"], "bias")
        return ad.add_bias(ad.matmul(w, x_node), b)
    w1 = tape.leaf(params["w1"], "w1")
    b1 = tape.leaf(params["b1"], "b1")
    w2 = tape.leaf(params["w2"], "w2")
    b2 = tape.leaf(params["b2"], "b2")
    h = _act_tape(spec, ad.add_bias(ad.matmul(w1, x_node), b1))
    return ad.add_bias(ad.matmul(w2, h), b2)


def _squared_error_tape(spec: ModelSpec, params, inputs: np.ndarray, targets: np.ndarray):
    """Tape with the squared-error matrix of a window batch recorded.

    The (b, window, N) inputs are row-stacked, so mixing multiplies channel
    columns row-wise before the blocks are rearranged into one
    column-stacked (window, b*N) node for the shared per-channel map.
    """
    b, _, n = inputs.shape
    tape = Tape()
    x_node = tape.leaf(inputs.reshape(b * spec.window, n))
    if spec.architecture == "mlp_mix":
        x_node = ad.matmul(x_node, tape.leaf(params["mix"], "mix"))
    h = ad.blocks_to_columns(x_node, b, spec.window, n)
    y = _ci_tape(tape, spec, params, h)
    t_cols = targets.transpose(1, 0, 2).reshape(spec.out_rows, b * n)
    return tape, ad.square(ad.subtract(y, tape.leaf(t_cols)))


def whole_gradient(
    state: ModelState, window: MtsWindow, selector: ParamSelector | None = None
) -> GradientVector:
    """Gradient of the whole-window loss, taken in one tape backward pass.

    The tape shares no arithmetic with channel_gradient_rows, so the
    per-channel gradients summing to this is a check, not an identity of
    the code.
    """
    if selector is None:
        selector = last_layer_selector(state.spec)
    x, target = _split_xy(state.spec, window)
    tape, sq = _squared_error_tape(state.spec, state.params, x[None], target[None])
    return ad.backward(tape, ad.reduce_sum(sq), selector)


def _unflatten(spec: ModelSpec, names: tuple[str, ...], flat: np.ndarray) -> dict[str, np.ndarray]:
    shapes = param_shapes(spec)
    out = {}
    pos = 0
    for name in names:
        size = int(np.prod(shapes[name]))
        out[name] = flat[pos : pos + size].reshape(shapes[name])
        pos += size
    return out


def train(
    state: ModelState,
    train_windows: list[MtsWindow],
    config: TrainConfig,
    trainable: ParamSelector | None = None,
) -> ModelState:
    """Plain minibatch gradient descent on mean squared error.

    Deterministic: shuffling comes only from config.seed. Windows in a batch
    are row-stacked so each step costs one tape and one backward pass.
    ``trainable`` restricts updates to a parameter subset; the default is
    every parameter.
    """
    spec = state.spec
    inputs, targets = _stack_xy(spec, train_windows, "training windows")
    n = inputs.shape[2]

    selector = trainable if trainable is not None else all_params_selector(spec)
    params = {name: np.array(v) for name, v in state.params.items()}
    rng = np.random.default_rng(config.seed)
    count = len(train_windows)
    for epoch in range(config.epochs):
        perm = rng.permutation(count)
        for batch_idx, start in enumerate(range(0, count, config.batch_size)):
            batch = perm[start : start + config.batch_size]
            b = len(batch)
            try:
                tape, sq = _squared_error_tape(spec, params, inputs[batch], targets[batch])
                loss = ad.scale(ad.reduce_sum(sq), 1.0 / (b * spec.out_rows * n))
            except ad.NonFiniteError as e:
                raise RuntimeError(
                    f"training loss is not finite at epoch {epoch}, batch {batch_idx}"
                ) from e
            if not np.isfinite(float(loss.value)):
                raise RuntimeError(
                    f"training loss is not finite at epoch {epoch}, batch {batch_idx}"
                )
            grad = ad.backward(tape, loss, selector)
            for name, g in _unflatten(spec, selector.names, grad.values).items():
                params[name] = params[name] - config.learning_rate * g
    return ModelState(spec, params, trained_lr=config.learning_rate)


def mean_window_mse(state: ModelState, windows: list[MtsWindow]) -> float:
    """Per-element mean squared error over a window list."""
    if len(windows) == 0:
        raise ValueError("windows must be nonempty")
    total = 0.0
    entries = 0
    for win in windows:
        x, target = _split_xy(state.spec, win)
        d = (_forward_np(state.spec, state.params, x) - target).ravel()
        total += float(d @ d)
        entries += d.size
    return total / entries


def save_checkpoint(state: ModelState, path: str) -> None:
    """Write a JSON checkpoint; float64 payloads survive bit-exactly."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "spec": {
            "architecture": state.spec.architecture,
            "window": state.spec.window,
            "channels": state.spec.channels,
            "hidden": state.spec.hidden,
            "activation": state.spec.activation,
            "horizon": state.spec.horizon,
        },
        "trained_lr": state.trained_lr,
        "params": {
            name: {"shape": list(arr.shape), "data": [float(v) for v in arr.ravel()]}
            for name, arr in state.params.items()
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_checkpoint(path: str) -> ModelState:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a model checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')!r}")
    spec = ModelSpec(**doc["spec"])
    params = {
        name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in doc["params"].items()
    }
    return ModelState(spec, params, trained_lr=float(doc["trained_lr"]))
