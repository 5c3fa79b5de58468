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

import numpy as np

from . import autodiff as ad  # noqa: F401 (perfbench wraps chinf.models.ad.backward)
from .autodiff import GradientVector, ParamSelector
from .core import _FINITE_DOT_BOUND, MtsWindow, NonFiniteError, Windows, WindowStack, _choice
from .core import _aligned_empty, _finite, _finite_number, _integral, _number, _readonly
from .core import _write_lines, as_window_stack

ARCHITECTURES = ("linear_ci", "mlp_ci", "mlp_mix")
ACTIVATIONS = ("relu", "tanh")

CHECKPOINT_FORMAT = "chinf-checkpoint"
CHECKPOINT_VERSION = 1

# Forward-pass entries held at once by channel_losses, mean_window_mse and
# channel_gradient_norms: 2^17 float64 entries, 1 MB per chunk, which is
# 199 windows of detect's model (mlp_ci, h = 16, 8 channels) and 31 of the
# pruning scenario's (linear_ci, window 48, horizon 12, 32 channels).
# Measured on the column-stacked chunks with tools/ab_pairs.py against
# 2^17 (detect_cif, seed 3, 10 pairs of 4 s, 2-core Xeon): 2^16 read
# items_per_s 0.932 (0 of 10 pairs won) and 2^18 1.012 (7 of 10, no
# gain); prune_sweep read 1.002 at 2^16. Chunking changes no value.
_FORWARD_CHUNK_ENTRIES = 1 << 17

# the smallest normal float64: a squared norm below it has lost bits
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class ModelSpec:
    architecture: str
    window: int
    channels: int
    hidden: int = 0
    activation: str = "tanh"
    horizon: int = 0

    def __post_init__(self):
        for name, low in (("window", 1), ("channels", 1), ("hidden", 0), ("horizon", 0)):
            object.__setattr__(self, name, _integral(getattr(self, name), name, low))
        _choice(self.architecture, ARCHITECTURES, "architecture")
        _choice(self.activation, ACTIVATIONS, "activation")
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
            frozen[name] = _finite(arr, f"parameter {name!r} has non-finite entries")
        object.__setattr__(self, "params", frozen)
        object.__setattr__(self, "trained_lr", _finite_number(self.trained_lr, "trained_lr"))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    learning_rate: float = 1e-2
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            object.__setattr__(self, name, _integral(getattr(self, name), name, low))
        # 0 is allowed so a no-op training step stays expressible
        rate = _finite_number(self.learning_rate, "learning_rate")
        object.__setattr__(self, "learning_rate", rate)


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


def _row_stacked(x: np.ndarray, n: int) -> np.ndarray:
    """Column-stacked windows (..., window, b*N) as (..., b*window, N), the
    windows' rows one under another: the layout mlp_mix mixes in, since a
    gemm on reordered rows can round differently. b = 1 comes back as is."""
    *lead, w, b_times_n = x.shape
    if b_times_n == n:
        return x
    return x.reshape(*lead, w, -1, n).swapaxes(-3, -2).reshape(*lead, -1, n)


def _forward_parts(spec: ModelSpec, params: dict[str, np.ndarray], x: np.ndarray, out=None):
    """Forward pass on column-stacked windows (..., window, b*N). train's
    batches and the scoring kernels' chunks (_forward_chunks) are 2-D
    (window, b*N) blocks, so each layer is one gemm and each bias add runs
    along rows of b*N entries; one (window, N) window and the (B, window,
    N) stacks of the gradient-row kernels are the case b = 1. The
    prediction is written to out when given (train's aligned residual
    buffer), else to a new array.

    Returns the prediction and the parts that _factors reuses: the input as
    mixed (x, or its _row_stacked copy), the mixed input in x's layout, and
    the hidden pre- and post-activations (None for linear_ci). This is the
    one place the mixing matrix is applied, row-stacked as in the tape oracle.
    """
    x_rows = xm = x
    if spec.architecture == "mlp_mix":
        n = spec.channels
        x_rows = _row_stacked(x, n)
        xm = x_rows @ params["mix"]
        if x_rows is not x:
            xm = xm.reshape(*x.shape[:-2], -1, spec.window, n).swapaxes(-3, -2).reshape(x.shape)
    weight, bias = tuple(params)[-2:]
    a = h = None
    if spec.architecture != "linear_ci":
        a = params["w1"] @ xm
        a += params["b1"][:, None]
        h = _act_np(spec, a)
    y = np.matmul(params[weight], xm if h is None else h, out=out)
    y += params[bias][:, None]
    return y, x_rows, xm, a, h


def channel_loss(state: ModelState, window: MtsWindow, j: int) -> float:
    """Sum of squared errors on channel j over the predicted rows."""
    n = window.n_channels
    if not 0 <= j < n:
        raise ValueError(f"channel index {j} out of range for {n} channels")
    return float(channel_losses(state, [window])[0, j])


def _gatherer(spec: ModelSpec, stack: WindowStack, width: int):
    """gather(picked): the stack's windows at picked, copied into the
    prefix of one buffer as a column-stacked (rows, b*N) block, window k in
    columns kN to (k+1)N. Returns the block's row views (inputs, targets),
    the gemm layout of _forward_parts.

    A slice (a chunk) is copied from the stack's strided view of it, an
    index array (a shuffled batch) taken straight from the rows the stack
    views (WindowStack._layout); both write the same bytes. At detect's
    199-window chunk the copy took 3.8 us against 10.0 for the take, and
    at the pruning scenario's 31-window one 13.0 against 18.0 (2-core
    Xeon). The take uses mode="clip" because with out= the default
    mode="raise" copies through a temporary; every index is a row of a
    window, so clipping moves none.

    The buffer holds width windows, is allocated once and starts on a
    64-byte boundary (core._aligned_empty), so every block's x is aligned.
    Each gather overwrites the last block."""
    _split_xy(spec, stack)  # rejects a row or channel count the model cannot take
    count, rows, n = stack.values.shape
    buffer = _aligned_empty(rows * min(width, count) * n)
    source, starts = stack._layout()
    offsets = np.arange(rows)[:, None]

    def gather(picked) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(picked, slice):
            windows = stack.values[picked].swapaxes(0, 1)
            out = buffer[: windows.size].reshape(windows.shape)
            np.copyto(out, windows)
        else:
            index = starts[picked] + offsets
            out = buffer[: index.size * n].reshape(*index.shape, n)
            source.take(index, axis=0, out=out, mode="clip")
        block = out.reshape(rows, -1)
        return (block[: spec.window], block[spec.window :]) if spec.horizon > 0 else (block, block)

    return gather


def _forward_chunks(spec: ModelSpec, stack: WindowStack):
    """(inputs, targets) of a stack, a chunk of windows at a time, as
    column-stacked (rows, b*N) blocks (_gatherer), so each layer of the
    forward pass is one gemm per chunk and inputs, activations and residuals
    stay in a fixed budget. The blocks share one buffer: each is valid
    until the next is yielded."""
    # x and mixed x, hidden a and h, then prediction, target and residual
    rows_per_channel = 2 * spec.window + 2 * spec.hidden + 3 * spec.out_rows
    step = max(1, _FORWARD_CHUNK_ENTRIES // (stack.values.shape[2] * rows_per_channel))
    gather = _gatherer(spec, stack, step)
    for start in range(0, len(stack), step):
        yield gather(slice(start, start + step))


def _residual_chunks(state: ModelState, stack: WindowStack):
    """_residual's checked (out_rows, b*N) residuals, one per forward chunk,
    each window judged on its own."""
    n = stack.values.shape[2]
    for x, target in _forward_chunks(state.spec, stack):
        yield _residual(state.spec, state.params, x, target, channels=n)[0]


def _self_dots(rows: np.ndarray) -> np.ndarray:
    """r @ r for each row of a C-contiguous (k, m) block, as k (1, m) @ (m, 1)
    products: each rounds like a one-row d @ d, whatever k, so a value does
    not depend on how its caller chunks or batches the rows."""
    return (rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


def channel_losses(state: ModelState, windows: Windows) -> np.ndarray:
    """(B, N) per-channel sums of squared errors of a stack or window list.

    Each (window, channel) residual column is copied out contiguous and
    reduced by _self_dots. A refused forward pass (_residual, which judges
    each window alone) or an overflowing sum raises.
    """
    stack = as_window_stack(windows)
    parts = [_self_dots(np.ascontiguousarray(d.T)) for d in _residual_chunks(state, stack)]
    losses = np.concatenate(parts).reshape(len(stack), -1)
    return _finite(losses, "forward pass produced non-finite values")


def _act_grad_np(spec: ModelSpec, a: np.ndarray, h: np.ndarray) -> np.ndarray:
    if spec.activation == "tanh":
        return 1.0 - h * h
    return a > 0


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


def _factors(spec: ModelSpec, params, g, x_rows, xm, a, h, names) -> dict[str, tuple]:
    """The backward step, written once: each named parameter's gradient as
    a factor pair (u, v), from the loss adjoint g = dL/dy and the parts of
    the forward pass (_forward_parts).

    The output weight is (g, h), or (g, xm) for linear_ci, and the output
    bias (g, None). The hidden adjoint da = (W2^T g) * act'(a), formed only
    when a hidden-layer parameter is named, gives w1 (da, xm) and b1
    (da, None); mix pairs the row-stacked input and input adjoint W1^T da.
    Over all columns a pair contracts to u v^T, the row sums of u when v is
    None, and u^T v for mix (_batch_gradients). With b = 1, channel j's
    gradient is column j's: the outer product of the columns j, column j of
    u, or a mixing block whose only nonzero column j is that of u^T v
    (channel_gradient_rows, channel_gradient_norms). params come in
    param_shapes order, so the last two name the output layer.
    """
    weight, bias = tuple(params)[-2:]
    table = {weight: (g, xm if h is None else h), bias: (g, None)}
    if set(names) - {weight, bias}:
        da = params["w2"].T @ g
        da *= _act_grad_np(spec, a, h)
        table.update(w1=(da, xm), b1=(da, None))
        if "mix" in names:
            table["mix"] = (x_rows, _row_stacked(params["w1"].T @ da, spec.channels))
    return {name: table[name] for name in names}


def _gradient_table(state: ModelState, windows: Windows, names) -> tuple[np.ndarray, dict]:
    """Stacked inputs x (B, window, N) and the named parameters' _factors table on the
    checked forward pass: what _channel_rows and _whole_rows contract, writing nothing."""
    spec = state.spec
    x, target = _split_xy(spec, as_window_stack(windows))
    adjoint = _batch_adjoint(spec, state.params, x, target, 1.0)
    return x, _factors(spec, state.params, *adjoint, names)


def _channel_rows(state: ModelState, x: np.ndarray, table: dict) -> np.ndarray:
    """channel_gradient_rows of a _gradient_table, checked."""
    b, _, n = x.shape
    sizes = [state.params[name].size for name in table]
    rows = np.empty((b, n, sum(sizes)))
    pos = 0
    for (name, (u, v)), size in zip(table.items(), sizes):
        # a (B, N, *shape) view: splitting the contiguous last axis never
        # copies, so writing the block fills the rows
        block = rows[:, :, pos : pos + size].reshape(b, n, *state.params[name].shape)
        pos += size
        if v is None:
            block[...] = u.mT
        elif name == "mix":
            block[...] = 0.0
            cols = np.arange(n)
            block[:, cols, :, cols] = (u.mT @ v).transpose(2, 0, 1)
        else:
            np.multiply(u.mT[..., None], v.mT[..., None, :], out=block)
    return _finite(rows, "channel gradients produced non-finite values")


def channel_gradient_rows(
    state: ModelState, windows: Windows, selector: ParamSelector | None = None
) -> np.ndarray:
    """(B, N, P) gradients of every channel's loss for a stack or window list.

    Row [b, j] is window b's channel-j loss gradient over the selected
    parameters, in selector order and row-major within each parameter (the
    layout of autodiff.backward): channel j's contraction of each _factors
    pair (_gradient_table), under one errstate, so an overflow is refused
    with no warning first. The tests hold them to the tape oracle (bit for
    bit for the last layer, 1e-12 otherwise) and to finite differences.

    The rows are C-contiguous: reductions over them then run in the same
    order for every batch size, so results do not depend on how callers
    chunk a window list.
    """
    selector = _selection(state.spec, selector)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        return _channel_rows(state, *_gradient_table(state, windows, selector.names))


def _column_norms(u: np.ndarray) -> np.ndarray:
    """Squared norms of the columns of u (..., k, c), summed over k."""
    return np.einsum("...kc,...kc->...c", u, u)


def _scaled_column_norms(f: np.ndarray, picked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of a (k, c) factor at the picked column indices, each
    written as m 2^e with e the np.frexp exponent of its largest entry:
    (||m||^2, e). Scaling by a power of two rounds no entry that counts at
    float precision, and ||m||^2 <= k cannot overflow; an infinite entry
    gives e = 0 and an infinite ||m||^2."""
    cols = f.T[picked]
    e = np.frexp(np.abs(cols).max(axis=-1))[1]
    m = np.ldexp(cols, -e[:, None])
    return np.einsum("mk,mk->m", m, m), e


def _norm_product(u: np.ndarray, v: np.ndarray, u2: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Products u2 * v2 of the squared column norms of two (k, c) factors:
    the squared norms of their column blocks u_j v_j^T. Such a product is
    exact to rounding when both norms are normal numbers and it is finite.
    Elsewhere (a squared norm that overflowed, 0 * inf, or one below the
    normal range, which has lost bits) it is formed again from the scaled
    columns (_scaled_column_norms), as ||m_u||^2 ||m_v||^2 2^(2 e_u + 2 e_v):
    finite wherever the block's squared norm is, and 0 where a factor column
    is 0, as that block of the rows is. The caller silences the overflow
    and the 0 * inf this puts right."""
    product = u2 * v2
    # min and max pass over NaN as False; with no NaN, max < inf means finite
    if min(u2.min(), v2.min()) >= _TINY and product.max() < math.inf:
        return product
    redo = ~((u2 >= _TINY) & (v2 >= _TINY) & (product < math.inf))
    (mu2, eu), (mv2, ev) = (_scaled_column_norms(f, redo) for f in (u, v))
    zero = (mu2 == 0) | (mv2 == 0)
    product[redo] = np.where(zero, 0.0, np.ldexp(mu2 * mv2, 2 * (eu + ev)))
    return product


def _mix_norms(spec: ModelSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The b*N squared norms of the columns of each window's u^T v, the mix
    blocks, from the row-stacked (b*window, N) factors of a chunk."""
    u, v = (f.reshape(-1, spec.window, spec.channels) for f in (u, v))
    return _column_norms(u.mT @ v).ravel()


def channel_gradient_norms(
    state: ModelState, windows: Windows, selector: ParamSelector | None = None
) -> np.ndarray:
    """(B, N) squared norms of the channel_gradient_rows rows, with no row
    written: the self-influence diagonal that detect and prune read.

    Channel j's block of a _factors pair is the outer product of their
    columns j, and ||u v^T||^2 = ||u||^2 ||v||^2 (the per-example gradient
    norm trick, applied per channel), so each selected parameter adds a
    product of column norms (_norm_product); a bias adds ||u_j||^2, and mix
    the squared norm of column j of u^T v, formed per window from its
    row-stacked factors. The factors are column-stacked chunks of windows
    (_forward_chunks), so every term is reduced per (window, channel)
    column and the sum, in selector order, reshaped to (b, N) at the end of
    each chunk; memory stays that of the forward pass and each window's
    value does not depend on the chunking. The tests hold the result to the
    rows at 1e-12.

    A product of two column norms is formed again from scaled columns where
    it is not finite, so a norm comes back finite wherever the rows' is; one
    that overflows comes back as an infinity, not an error or a warning.
    The forward pass is checked as in channel_gradient_rows (_batch_adjoint),
    each window on its own.
    """
    spec = state.spec
    selector = _selection(spec, selector)[0]
    stack = as_window_stack(windows)
    n = stack.values.shape[2]
    parts = []
    # _norm_product puts right an overflowed norm and the NaN of 0 * inf
    with np.errstate(over="ignore", invalid="ignore"):
        for x, target in _forward_chunks(spec, stack):
            adjoint = _batch_adjoint(spec, state.params, x, target, 1.0, channels=n)
            table = _factors(spec, state.params, *adjoint, selector.names)
            # a bias shares its weight's u, so each distinct factor is squared once
            distinct = {id(f): f for name, pair in table.items() if name != "mix" for f in pair}
            squares = {key: _column_norms(f) for key, f in distinct.items() if f is not None}
            terms = [
                _mix_norms(spec, u, v) if name == "mix"
                else squares[id(u)] if v is None
                else _norm_product(u, v, squares[id(u)], squares[id(v)])
                for name, (u, v) in table.items()
            ]
            parts.append(sum(terms).reshape(-1, n))
    return np.concatenate(parts)


def channel_gradients(
    state: ModelState, window: MtsWindow, selector: ParamSelector | None = None
) -> list[GradientVector]:
    """Gradient of every channel's loss for one window."""
    selector = _selection(state.spec, selector)[0]
    rows = channel_gradient_rows(state, [window], selector)[0]
    return [GradientVector(row, selector.selector_id) for row in rows]


def whole_gradient(
    state: ModelState, window: MtsWindow, selector: ParamSelector | None = None
) -> GradientVector:
    """Row 0 of whole_gradient_rows for the one-window stack [window]."""
    selector = _selection(state.spec, selector)[0]
    return GradientVector(whole_gradient_rows(state, [window], selector)[0], selector.selector_id)


def _whole_rows(x: np.ndarray, table: dict) -> np.ndarray:
    """whole_gradient_rows of a _gradient_table, checked."""
    grads = _batch_gradients(table)
    rows = np.concatenate([g.reshape(len(x), -1) for g in grads.values()], -1)
    return _finite(rows, "gradient has non-finite entries")


def whole_gradient_rows(
    state: ModelState, windows: Windows, selector: ParamSelector | None = None
) -> np.ndarray:
    """(B, P) gradients of each window's loss (the sum of squared errors, not
    their mean): train's closed-form step on B one-window batches stacked
    along a leading axis (the per-example layout), so row b does not depend
    on B. The rows and channel_gradient_rows contract the same _factors
    table (_gradient_table), under one errstate; the tests check the rows
    against the tape oracle, finite differences and the per-channel rows."""
    selector = _selection(state.spec, selector)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        return _whole_rows(*_gradient_table(state, windows, selector.names))


def _residual(spec: ModelSpec, params, x: np.ndarray, t: np.ndarray, out=None, channels=None):
    """The checked forward pass, the one rule for refusing one: (d, x_rows,
    xm, a, h), the residual d = y - t and the rest of the _factors arguments.

    x (window, b*N) and t (out_rows, b*N) are b column-stacked windows,
    window k in columns kN to (k+1)N, and a leading axis batches (a window
    stack is the case b = 1); the arithmetic is the tape oracle's in
    tests/test_models.py. Raises NonFiniteError for what the tape refuses: a
    non-finite pre-activation (which a non-finite mixed input becomes), or a
    batch whose squared-error total is not finite. A batch is one (window,
    b*N) block, judged as one unit as train's loss is, unless channels
    names a window's column count N: then each window of the block is
    judged alone, as a one-window call would judge it (the scoring kernels'
    chunks). The dot q of all residuals accepts when q is below
    core._FINITE_DOT_BOUND, 1e300 (no NaN, infinity or overflowing total),
    as core._finite does; only otherwise does each batch's exact
    total (d * d).sum decide, so the batches refused are the tape's.
    Parameters are not checked: a ModelState's are finite, and train checks
    its own. d is written to out when given (_forward_parts).
    """
    y, x_rows, xm, a, h = _forward_parts(spec, params, x, out)
    d = np.subtract(y, t, out=y)
    # vdot, unlike matmul, warns of no overflow: an overflowing q only
    # sends the batch to the exact test
    total = None if np.vdot(d, d) < _FINITE_DOT_BOUND else _exact_totals(d, channels)
    # the activation can hide a non-finite pre-activation; a non-finite
    # mixed input reaches it as an infinity or a NaN (0 * inf), as every
    # mlp_mix model has a hidden layer, so a needs no xm check before it
    for part in (a, total):
        _finite(part, "forward pass produced non-finite values")
    return d, x_rows, xm, a, h


def _exact_totals(d: np.ndarray, channels=None) -> np.ndarray:
    """The squared-error totals _residual judges: one per (rows, b*N) batch,
    or with channels = N one per window of it, each summed over the same
    C-ordered (rows, N) layout as the window alone. A square that overflows
    is an infinity the caller refuses, with no warning."""
    with np.errstate(over="ignore"):
        squares = d * d
        if channels is not None:
            rows = squares.shape[-2]
            squares = np.ascontiguousarray(squares.reshape(rows, -1, channels).swapaxes(0, 1))
        return squares.sum(axis=(-2, -1))


def _batch_adjoint(
    spec: ModelSpec, params, x: np.ndarray, t: np.ndarray, scale: float, out=None, channels=None
):
    """_residual with d scaled to g = 2 scale (y - t), the adjoint of scale
    times the squared-error sum: train passes 1 / t.size (the batch mean)
    and its residual buffer as out, the gradient kernels 1 (and channels,
    so each window is judged alone). One pass, as doubling is exact: it
    rounds the real 2 scale d once, as (2 d) scale does. Callers check the
    gradients."""
    d, *parts = _residual(spec, params, x, t, out, channels)
    return np.multiply(d, 2.0 * scale, out=d), *parts


def _batch_gradients(table: dict, out=None) -> dict[str, np.ndarray]:
    """The gradients of a _batch_adjoint: its _factors table contracted over
    every column, each into its view in out (train's gradient vector) when
    given. Unchecked: train checks them only when an update is refused, and
    _whole_rows its concatenated rows, like the tape's GradientVector."""
    grads = {}
    for name, (u, v) in table.items():
        into = None if out is None else out[name]
        if v is None:
            grads[name] = np.add.reduce(u, axis=-1, out=into)
        elif name == "mix":
            grads[name] = np.matmul(u.mT, v, out=into)
        else:
            grads[name] = np.matmul(u, v.mT, out=into)
    return grads


def _views(vector: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Each named shape as a reshaped view of the next slice of vector, in
    shapes order and row-major within each: the GradientVector layout."""
    views, start = {}, 0
    for name, shape in shapes.items():
        end = start + math.prod(shape)
        views[name] = vector[start:end].reshape(shape)
        start = end
    return views


def train(
    state: ModelState,
    train_windows: Windows,
    config: TrainConfig,
    trainable: ParamSelector | None = None,
) -> ModelState:
    """Plain minibatch gradient descent on mean squared error.

    Deterministic: shuffling comes only from config.seed. Each step's one
    take gathers its batch straight from the rows the stack views (a
    series' values, or a listed stack's own copy) as a column-stacked
    block whose row views are its inputs and targets (_gatherer, shared
    with the scoring kernels' chunks); the step's gradient is closed-form
    (_batch_adjoint, _batch_gradients), no tape. ``trainable`` restricts
    updates to a parameter subset; the default is every parameter.

    Every step gathers into the prefix of the gatherer's buffer, and its
    output layer writes the residual into the prefix of another; both are
    allocated once per call for the widest batch and start on a 64-byte
    boundary (core._aligned_empty), so x and the residual g, the gemm
    operands of the step, are aligned. A batch is judged as one unit: its
    loss is the batch mean.

    The trainable parameters are copied once per call into one vector in
    the GradientVector layout (selector order, row-major within each), and
    params holds a view of it per name; the step's gradients are written
    into views of a second vector of that layout. So each step is three
    calls whatever the parameter count: lr g into a third vector, p - lr g
    in place, and one check of the parameters (core._finite, one dot). Each
    entry is still p - (lr g), as it was one parameter at a time. A finite
    update proves its gradient finite, as a NaN or an infinity in g makes
    one in the update, lr = 0 included; so only a refused update sends the
    gradient vector to the check, and a non-finite one raises
    NonFiniteError("gradient has non-finite entries"), the one message of
    every gradient view. An update that overflows from finite gradients
    fails the next step with the RuntimeError of a non-finite loss, or, on
    the last step, the ModelState built from it. The steps run under one
    errstate, so an overflow on the way to a refusal raises no
    RuntimeWarning.
    """
    spec = state.spec
    stack = as_window_stack(train_windows)
    gather = _gatherer(spec, stack, config.batch_size)
    count, _, n = stack.values.shape
    residual = _aligned_empty(spec.out_rows * min(config.batch_size, count) * n)

    names = _selection(spec, trainable or all_params_selector(spec))[0].names
    params = dict(state.params)
    shapes = {name: params[name].shape for name in names}
    flat = np.concatenate([params[name].ravel() for name in names])
    params.update(_views(flat, shapes))
    grad, scaled = np.empty_like(flat), np.empty_like(flat)
    grads = _views(grad, shapes)
    rng = np.random.default_rng(config.seed)
    # the refusal of an update whose gradients were finite, which fails the
    # next step as a non-finite parameter did on the tape route
    refused = None
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            perm = rng.permutation(count)
            for batch_idx, start in enumerate(range(0, count, config.batch_size)):
                x, t = gather(perm[start : start + config.batch_size])
                out = residual[: t.size].reshape(t.shape)
                # as on the tape route, a non-finite gradient is no RuntimeError
                try:
                    if refused is not None:
                        raise refused
                    adjoint = _batch_adjoint(spec, params, x, t, 1.0 / t.size, out)
                except NonFiniteError as e:
                    raise RuntimeError(
                        f"training loss is not finite at epoch {epoch}, batch {batch_idx}"
                    ) from e
                _batch_gradients(_factors(spec, params, *adjoint, names), grads)
                np.multiply(grad, config.learning_rate, out=scaled)
                np.subtract(flat, scaled, out=flat)
                try:
                    _finite(flat, "parameters produced non-finite values")
                except NonFiniteError as e:
                    refused = e
                if refused is not None:
                    _finite(grad, "gradient has non-finite entries")
    return ModelState(spec, params, trained_lr=config.learning_rate)


def mean_window_mse(state: ModelState, windows: Windows) -> float:
    """Per-element mean squared error over a stack or window list.

    Each window's residual block is copied out of its chunk's columns into
    its own C-ordered (R, N) rows and reduced, as one R*N row, by
    _self_dots. A refused forward pass (_residual, which judges each window
    alone) or an overflowing total raises."""
    stack = as_window_stack(windows)
    n = stack.values.shape[2]
    sums = []
    entries = 0
    for d in _residual_chunks(state, stack):
        rows = len(d)
        flat = np.ascontiguousarray(d.reshape(rows, -1, n).swapaxes(0, 1)).reshape(-1, rows * n)
        sums.append(_self_dots(flat))
        entries += d.size
    # accumulate adds the window sums one by one in window order, so the
    # total rounds exactly like a running sum; one that overflows is refused
    with np.errstate(over="ignore"):
        total = float(np.add.accumulate(np.concatenate(sums))[-1])
    return _finite(total, "forward pass produced non-finite values") / entries


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
    _write_lines(path, [json.dumps(doc, indent=1)])


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
