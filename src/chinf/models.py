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
import math
from dataclasses import asdict, dataclass
from numbers import Real

import numpy as np

from . import autodiff as ad
from .autodiff import GradientVector, ParamSelector
from .core import MtsWindow, Windows, WindowStack, _integral, _number, _readonly, as_window_stack

ARCHITECTURES = ("linear_ci", "mlp_ci", "mlp_mix")
ACTIVATIONS = ("relu", "tanh")

CHECKPOINT_FORMAT = "chinf-checkpoint"
CHECKPOINT_VERSION = 1

# Forward-pass entries held at once by channel_losses and mean_window_mse
_FORWARD_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ModelSpec:
    architecture: str
    window: int
    channels: int
    hidden: int = 0
    activation: str = "tanh"
    horizon: int = 0

    def __post_init__(self):
        for name in ("window", "channels", "hidden", "horizon"):
            object.__setattr__(self, name, _integral(getattr(self, name), name))
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
    """Named parameter shapes in canonical (initialization) order, the one
    statement of the layout: biases are the 1-D entries, a weight's fan-in is
    its column count, and the output layer (weight, bias) is the last two."""
    w, h, out = spec.window, spec.hidden, spec.out_rows
    if spec.architecture == "linear_ci":
        return {"weight": (out, w), "bias": (out,)}
    shapes = {"w1": (h, w), "b1": (h,), "w2": (out, h), "b2": (out,)}
    if spec.architecture == "mlp_mix":
        return {"mix": (spec.channels, spec.channels), **shapes}
    return shapes


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
            arr = _readonly(self.params[name])
            if arr.shape != shape:
                raise ValueError(
                    f"parameter {name!r} has shape {arr.shape}, expected {shape}"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"parameter {name!r} has non-finite entries")
            frozen[name] = arr
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
        for name in ("epochs", "batch_size", "seed"):
            object.__setattr__(self, name, _integral(getattr(self, name), name))
        if isinstance(self.learning_rate, bool) or not isinstance(self.learning_rate, Real):
            raise ValueError(f"learning_rate must be a number, got {self.learning_rate!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        # 0 is allowed so a no-op training step stays expressible
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(
                f"learning_rate must be finite and non-negative, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def init_params(spec: ModelSpec, seed: int) -> ModelState:
    """Deterministic init in param_shapes order: the biases (its 1-D
    entries) are zero, and each weight is uniform in +-1/sqrt(fan_in), its
    fan-in being its column count."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(spec).items():
        if len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[1])
            params[name] = rng.uniform(-bound, bound, size=shape)
    return ModelState(spec, params)


def all_params_selector(spec: ModelSpec) -> ParamSelector:
    return ParamSelector(f"{spec.architecture}/all", tuple(param_shapes(spec)))


def last_layer_selector(spec: ModelSpec) -> ParamSelector:
    """The output layer: the last two entries of param_shapes, its weight
    and its bias."""
    names = tuple(param_shapes(spec))[-2:]
    return ParamSelector(f"{spec.architecture}/last_layer", names)


def _split_xy(spec: ModelSpec, win: MtsWindow | WindowStack) -> tuple[np.ndarray, np.ndarray]:
    """Inputs and targets of one window, or (B, ...) views of a stack's."""
    values = win.values
    rows, n = values.shape[-2:]
    if rows != spec.total_rows:
        raise ValueError(
            f"window has {rows} rows, model expects {spec.total_rows} "
            f"(window {spec.window} + horizon {spec.horizon})"
        )
    if spec.architecture == "mlp_mix" and n != spec.channels:
        raise ValueError(f"window has {n} channels, model expects {spec.channels}")
    if spec.horizon > 0:
        return values[..., : spec.window, :], values[..., spec.window :, :]
    return values, values


def _act_np(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    if spec.activation == "tanh":
        return np.tanh(x)
    return np.maximum(x, 0.0)


def _shared_map(spec: ModelSpec, params: dict[str, np.ndarray], x: np.ndarray):
    """The per-channel map on already-mixed input with `window` rows.

    Returns the prediction and the hidden pre- and post-activations (None
    for linear_ci) that the closed-form backward steps reuse.
    """
    weight, bias = tuple(params)[-2:]
    a = h = None
    if spec.architecture != "linear_ci":
        a = params["w1"] @ x
        a += params["b1"][:, None]
        x = h = _act_np(spec, a)
    y = params[weight] @ x
    y += params[bias][:, None]
    return y, a, h


def _forward_parts(spec: ModelSpec, params: dict[str, np.ndarray], x: np.ndarray):
    """Forward pass on one (window, N) input or a (B, window, N) stack.

    Returns the prediction together with the mixed input and the hidden
    pre- and post-activations (None for linear_ci).
    """
    xm = x @ params["mix"] if spec.architecture == "mlp_mix" else x
    y, a, h = _shared_map(spec, params, xm)
    return y, xm, a, h


def reconstruct(state: ModelState, window: MtsWindow) -> np.ndarray:
    """Model output for one window: (window, N) or (horizon, N)."""
    x, _ = _split_xy(state.spec, window)
    return _forward_parts(state.spec, state.params, x)[0]


def channel_loss(state: ModelState, window: MtsWindow, j: int) -> float:
    """Sum of squared errors on channel j over the predicted rows."""
    n = window.n_channels
    if not 0 <= j < n:
        raise ValueError(f"channel index {j} out of range for {n} channels")
    return float(channel_losses(state, [window])[0, j])


def window_loss(state: ModelState, window: MtsWindow) -> float:
    """Sum of squared errors over all predicted entries of one window."""
    x, target = _split_xy(state.spec, window)
    y = _forward_parts(state.spec, state.params, x)[0]
    d = (y - target).ravel()
    return float(d @ d)


def _residual_chunks(state: ModelState, windows: Windows):
    """Prediction-minus-target (b, out_rows, N) stacks, a chunk of windows
    at a time, so inputs, activations and residuals stay in a fixed budget."""
    spec = state.spec
    inputs, targets = _split_xy(spec, as_window_stack(windows))
    # x and mixed x, hidden a and h, then prediction, target and residual
    rows_per_channel = 2 * spec.window + 2 * spec.hidden + 3 * spec.out_rows
    step = max(1, _FORWARD_CHUNK_ENTRIES // (inputs.shape[2] * rows_per_channel))
    for start in range(0, len(inputs), step):
        chunk = slice(start, start + step)
        yield _forward_parts(spec, state.params, inputs[chunk])[0] - targets[chunk]


def channel_losses(state: ModelState, windows: Windows) -> np.ndarray:
    """(B, N) per-channel sums of squared errors of a stack or window list.

    Each contiguous channel residual is reduced as a (1, R) @ (R, 1) product,
    which rounds like a one-window d @ d whatever the list length or chunking.
    """
    parts = []
    for d in _residual_chunks(state, windows):
        cols = np.ascontiguousarray(d.transpose(0, 2, 1))[:, :, None, :]
        parts.append((cols @ cols.transpose(0, 1, 3, 2))[:, :, 0, 0])
    return np.concatenate(parts)


def _act_grad_np(spec: ModelSpec, a: np.ndarray, h: np.ndarray) -> np.ndarray:
    if spec.activation == "tanh":
        return 1.0 - h * h
    return a > 0


def _check_finite(what: str, *arrays) -> None:
    for arr in arrays:
        if arr is not None and not np.isfinite(arr).all():
            raise ad.NonFiniteError(f"{what} produced non-finite values")


def _selection(
    spec: ModelSpec, selector: ParamSelector | None
) -> tuple[ParamSelector, dict[str, tuple[int, ...]]]:
    """The one place a selector is resolved: None means the last layer, and
    a name the spec lacks is rejected. Returns it with param_shapes(spec)."""
    if selector is None:
        selector = last_layer_selector(spec)
    shapes = param_shapes(spec)
    for name in selector.names:
        if name not in shapes:
            raise ValueError(f"selector references unknown parameter {name!r}")
    return selector, shapes


def channel_gradient_rows(
    state: ModelState, windows: Windows, selector: ParamSelector | None = None
) -> np.ndarray:
    """(B, N, P) gradients of every channel's loss for a stack or window list.

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
    selector, shapes = _selection(spec, selector)
    params = state.params
    x, target = _split_xy(spec, as_window_stack(windows))
    y, xm, a, h = _forward_parts(spec, params, x)
    # an overflow in the mixed input reaches a (or y) too
    _check_finite("forward pass", a, y)
    r = 2.0 * (y - target)
    b, _, n = r.shape

    sizes = [math.prod(shapes[name]) for name in selector.names]
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

    weight, bias = tuple(shapes)[-2:]
    put_outer(weight, r, xm if h is None else h)
    put(bias, r.transpose(0, 2, 1))
    if blocks.keys() - {weight, bias}:
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
    selector = _selection(state.spec, selector)[0]
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


def whole_gradient(
    state: ModelState, window: MtsWindow, selector: ParamSelector | None = None
) -> GradientVector:
    """Row 0 of whole_gradient_rows for the one-window stack [window]."""
    selector = _selection(state.spec, selector)[0]
    return GradientVector(whole_gradient_rows(state, [window], selector)[0], selector.selector_id)


def whole_gradient_rows(
    state: ModelState, windows: Windows, selector: ParamSelector | None = None
) -> np.ndarray:
    """(B, P) gradients of each window's loss (the sum of squared errors, not
    their mean): train's closed-form step on B one-window batches stacked
    along a leading axis (the per-example layout), so row b does not depend
    on B. Derived apart from channel_gradient_rows, so the per-channel
    gradients summing to a row is a check, not an identity of the code."""
    spec = state.spec
    selector = _selection(spec, selector)[0]
    x, target = _split_xy(spec, as_window_stack(windows))
    grads = _batch_gradients(spec, state.params, x, target, selector.names, 1.0)
    return np.concatenate([grads[name].reshape(len(x), -1) for name in selector.names], -1)


def _batch_gradients(
    spec: ModelSpec,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    t: np.ndarray,
    names: tuple[str, ...],
    scale: float,
) -> dict[str, np.ndarray]:
    """Gradients of scale times one batch's sum of squared errors.

    A batch of b windows comes column-stacked, x (window, b*N) and t
    (out_rows, b*N) with window k in columns kN to (k+1)N; a leading axis on
    both stacks batches, and the gradients carry it too (with b = 1 a window
    stack is already in this layout). train passes scale = 1 / t.size (the
    batch mean), whole_gradient_rows 1 (one window's sum). The arithmetic
    and operand layouts are those of the tape oracle in tests/test_models.py,
    so the gradients are bit-identical to it. With residual d and G = 2 d *
    scale, the output layer gets G H^T and the row sums of G; da = (W2^T G)
    * act'(a) feeds the hidden layer. mlp_mix mixes the row-stacked
    (b*window, N) inputs, since a gemm on reordered rows can round
    differently, and its mixing matrix gets their transpose times the input
    adjoint put back into row blocks.

    params come in param_shapes order, as a ModelState's do, so the last
    two name the output layer. Raises NonFiniteError for any non-finite
    forward value the tape would have recorded, and ValueError for a
    non-finite gradient. Parameters are not checked here: a ModelState's
    are finite, and train checks its own.
    """
    *lead, w, b_times_n = x.shape
    mixed = spec.architecture == "mlp_mix"
    if mixed:
        b, n = b_times_n // spec.channels, spec.channels
        x_rows = x.reshape(*lead, w, b, n).swapaxes(-3, -2).reshape(*lead, b * w, n)
        xm = x_rows @ params["mix"]
        x = xm.reshape(*lead, b, w, n).swapaxes(-3, -2).reshape(*lead, w, b_times_n)
    y, a, h = _shared_map(spec, params, x)
    d = np.subtract(y, t, out=y)
    # a non-finite prediction, residual or square makes a batch's
    # squared-error total non-finite; the activation can hide a non-finite
    # pre-activation, and the hidden layer a non-finite mixed input
    total = (d * d).sum(axis=(-2, -1))
    _check_finite("forward pass", xm if mixed else None, a, total)
    g = np.multiply(d, 2.0, out=d)
    g *= scale

    grads = {}
    weight, bias = tuple(params)[-2:]
    if weight in names:
        grads[weight] = g @ (x if h is None else h).mT
    if bias in names:
        grads[bias] = g.sum(axis=-1)
    if set(names) - {weight, bias}:
        da = params["w2"].T @ g
        da *= _act_grad_np(spec, a, h)
        if "w1" in names:
            grads["w1"] = da @ x.mT
        if "b1" in names:
            grads["b1"] = da.sum(axis=-1)
        if "mix" in names:
            dx = (params["w1"].T @ da).reshape(*lead, w, b, n).swapaxes(-3, -2)
            grads["mix"] = x_rows.mT @ dx.reshape(*lead, b * w, n)
    for grad in grads.values():
        if not np.isfinite(grad).all():
            raise ValueError("gradient has non-finite entries")
    return grads


def train(
    state: ModelState,
    train_windows: Windows,
    config: TrainConfig,
    trainable: ParamSelector | None = None,
) -> ModelState:
    """Plain minibatch gradient descent on mean squared error.

    Deterministic: shuffling comes only from config.seed. The stack is laid
    out once as (rows, B, N), so each step's one take is a column-stacked
    batch whose row views are its inputs and targets; the step's gradient is
    closed-form (_batch_gradients), with no tape. ``trainable`` restricts
    updates to a parameter subset; the default is every parameter.
    """
    spec = state.spec
    stack = as_window_stack(train_windows)
    _split_xy(spec, stack)  # rejects a row or channel count the model cannot take
    cols = np.ascontiguousarray(stack.values.transpose(1, 0, 2))
    w = spec.window

    names = _selection(spec, trainable or all_params_selector(spec))[0].names
    params = dict(state.params)
    rng = np.random.default_rng(config.seed)
    for epoch in range(config.epochs):
        perm = rng.permutation(len(stack))
        for batch_idx, start in enumerate(range(0, len(perm), config.batch_size)):
            batch = perm[start : start + config.batch_size]
            block = np.take(cols, batch, axis=1).reshape(spec.total_rows, -1)
            x, t = (block[:w], block[w:]) if spec.horizon > 0 else (block, block)
            try:
                # the only parameters that change, and an update can overflow
                _check_finite("parameters", *(params[name] for name in names))
                grads = _batch_gradients(spec, params, x, t, names, 1.0 / t.size)
            except ad.NonFiniteError as e:
                raise RuntimeError(
                    f"training loss is not finite at epoch {epoch}, batch {batch_idx}"
                ) from e
            for name, g in grads.items():
                params[name] = params[name] - config.learning_rate * g
    return ModelState(spec, params, trained_lr=config.learning_rate)


def mean_window_mse(state: ModelState, windows: Windows) -> float:
    """Per-element mean squared error over a stack or window list."""
    sums = []
    entries = 0
    for d in _residual_chunks(state, windows):
        flat = d.reshape(d.shape[0], 1, -1)
        sums.append((flat @ flat.transpose(0, 2, 1))[:, 0, 0])
        entries += d.size
    # accumulate adds the window sums one by one in window order, so the
    # total rounds exactly like a running sum
    return float(np.add.accumulate(np.concatenate(sums))[-1]) / entries


def save_checkpoint(state: ModelState, path: str) -> None:
    """Write a JSON checkpoint; float64 payloads survive bit-exactly."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "spec": asdict(state.spec),
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
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    # a UnicodeDecodeError or a JSONDecodeError
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a model checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')!r}")
    try:
        spec = ModelSpec(**doc["spec"])
        params = {}
        for name, entry in doc["params"].items():
            data = [_number(v, f"parameter {name!r} entry") for v in entry["data"]]
            params[name] = np.array(data, dtype=np.float64).reshape(entry["shape"])
        return ModelState(spec, params, trained_lr=_number(doc["trained_lr"], "trained_lr"))
    # OverflowError: float() of an integer beyond the float range
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: malformed checkpoint ({type(e).__name__}: {e})") from None
