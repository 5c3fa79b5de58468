"""Gradient dot-product influence, whole-sample and per channel.

The whole-sample influence of one window on another is the learning rate
times the inner product of their loss gradients. Because each window's loss
is a sum of per-channel losses and the gradient is linear, that quantity
decomposes exactly into an N x N matrix of per-channel-pair inner products;
the matrix total recovers the whole-sample value. The diagonal of the
self-influence matrix (eta * squared gradient norm per channel) is what the
anomaly and pruning pipelines consume.

eta only rescales: every ranking built on these values is invariant to it.
It defaults to the learning rate the model was trained with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import GradientVector, NonFiniteError, ParamSelector
from .core import MtsWindow, Windows, _readonly, as_window_stack
from .models import ModelState, _selection, channel_gradient_rows, whole_gradient_rows

# Gradient-row entries held at once by _chunked_scores (8 MB of float64)
_CHUNK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class InfluenceMatrix:
    """Per-channel-pair influence of a source window on a destination one.

    ``values[i][j]`` is eta times the inner product of source channel i's
    loss gradient with destination channel j's.
    """

    values: np.ndarray
    eta: float
    selector_id: str

    def __post_init__(self):
        values = _readonly(self.values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"influence matrix must be square, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("influence matrix has non-finite entries")
        object.__setattr__(self, "values", values)

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    def total(self) -> float:
        return float(self.values.sum())


def _check_eta(eta: float) -> float:
    # written so that NaN fails too
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if eta == np.inf:
        raise ValueError(f"eta must be finite, got {eta}")
    return float(eta)


def _finite(value: float) -> float:
    """value, or a NonFiniteError when a product of finite gradients overflowed."""
    if not math.isfinite(value):
        raise NonFiniteError("influence overflowed")
    return value


def _resolve_eta(trained_lr: float, eta: float | None) -> float:
    if eta is None:
        if not trained_lr > 0:
            raise ValueError(
                "model has no recorded training learning rate; pass eta explicitly"
            )
        eta = trained_lr
    return _check_eta(eta)


def cif(g_src: GradientVector, g_dst: GradientVector, eta: float) -> float:
    """eta times the inner product of two per-channel loss gradients."""
    if g_src.selector_id != g_dst.selector_id:
        raise ValueError(
            f"gradient selectors differ: {g_src.selector_id!r} vs {g_dst.selector_id!r}"
        )
    if g_src.values.shape != g_dst.values.shape:
        raise ValueError(
            f"gradient lengths differ: {g_src.values.size} vs {g_dst.values.size}"
        )
    return _finite(_check_eta(eta) * float(g_src.values @ g_dst.values))


def influence_matrix(
    state: ModelState,
    z_src: MtsWindow,
    z_dst: MtsWindow,
    eta: float | None = None,
    selector: ParamSelector | None = None,
) -> InfluenceMatrix:
    """All per-channel-pair influences of z_src on z_dst.

    The N per-channel gradients of both windows come from one batched
    closed-form pass and the matrix is assembled from their pairwise dot
    products.
    """
    if z_src.n_channels != z_dst.n_channels:
        raise ValueError(
            f"windows disagree on channel count: {z_src.n_channels} vs {z_dst.n_channels}"
        )
    eta = _resolve_eta(state.trained_lr, eta)
    selector = _selection(state.spec, selector)[0]
    # equal windows have equal rows: one pass, and an exactly symmetric matrix
    if np.array_equal(z_src.values, z_dst.values):
        g_src = g_dst = channel_gradient_rows(state, [z_src], selector)[0]
    else:
        g_src, g_dst = channel_gradient_rows(state, [z_src, z_dst], selector)
    return InfluenceMatrix(eta * (g_src @ g_dst.T), eta, selector.selector_id)


def tracin(
    state: ModelState,
    z_src: MtsWindow,
    z_dst: MtsWindow,
    eta: float | None = None,
    selector: ParamSelector | None = None,
) -> float:
    """Whole-sample influence from whole-window loss gradients.

    Computed directly, not by summing the per-channel matrix; the agreement
    of the two routes is a property the tests check, not an implementation
    shortcut. Every row comes from whole_gradient_rows, which makes row b
    independent of the stack: windows of one shape share a two-window stack,
    one window paired with itself takes a one-window stack, and windows with
    different channel counts (which channel-shared models accept) take one
    one-window stack each.
    """
    eta = _resolve_eta(state.trained_lr, eta)
    if z_dst is z_src:
        a = b = whole_gradient_rows(state, [z_src], selector)[0]
    elif z_src.values.shape == z_dst.values.shape:
        a, b = whole_gradient_rows(state, [z_src, z_dst], selector)
    else:
        a, b = (whole_gradient_rows(state, [z], selector)[0] for z in (z_src, z_dst))
    return _finite(eta * float(a @ b))


def self_influence_per_channel(
    state: ModelState,
    z: MtsWindow,
    eta: float | None = None,
    selector: ParamSelector | None = None,
) -> np.ndarray:
    """Diagonal of the self-influence matrix: eta * ||grad_i||^2 per channel.

    Computed without materializing the off-diagonal entries.
    """
    return self_influence_rows(state, [z], eta, selector)[0]


def self_influence_rows(
    state: ModelState,
    windows: Windows,
    eta: float | None = None,
    selector: ParamSelector | None = None,
) -> np.ndarray:
    """(windows, channels) self-influence diagonals of a stack or window list."""
    return _chunked_scores(state, windows, eta, selector, per_channel=True)


def tracin_self_scores(
    state: ModelState,
    windows: Windows,
    eta: float | None = None,
    selector: ParamSelector | None = None,
) -> np.ndarray:
    """(windows,) whole-window self-influence: tracin(state, w, w) for each w."""
    return _chunked_scores(state, windows, eta, selector, per_channel=False)


def _chunked_scores(state, windows, eta, selector, per_channel):
    """eta * squared norm of each window's N channel gradient rows (with
    per_channel) or its whole-window row, in the same chunks of windows
    either way, so memory stays bounded. Each row is reduced the same way
    whatever the chunk size, a whole-window row as a (1, P) @ (P, 1) product
    that rounds like tracin's dot, so the result equals per-window values."""
    eta = _resolve_eta(state.trained_lr, eta)
    selector, shapes = _selection(state.spec, selector)
    windows = as_window_stack(windows)
    per_window = windows.values.shape[2] * sum(math.prod(shapes[name]) for name in selector.names)
    step = max(1, _CHUNK_ELEMENTS // per_window)
    parts = []
    for chunk in (windows[start : start + step] for start in range(0, len(windows), step)):
        if per_channel:
            rows = channel_gradient_rows(state, chunk, selector)
            parts.append(np.einsum("bnp,bnp->bn", rows, rows))
        else:
            rows = whole_gradient_rows(state, chunk, selector)
            parts.append((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
    scores = eta * np.concatenate(parts)
    if not np.isfinite(scores).all():
        raise NonFiniteError("self-influence overflowed")
    return scores


def save_influence_csv(
    matrix: InfluenceMatrix, path: str, channel_names: tuple[str, ...] | None = None
) -> None:
    """Write the matrix as CSV, header = channel names, full float fidelity."""
    n = matrix.n_channels
    if channel_names is None:
        channel_names = tuple(f"c{i}" for i in range(n))
    if len(channel_names) != n:
        raise ValueError(f"got {len(channel_names)} channel names for {n} channels")
    lines = [",".join(channel_names)]
    for row in matrix.values:
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
