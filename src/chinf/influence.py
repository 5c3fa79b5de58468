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

from dataclasses import dataclass

import numpy as np

from .autodiff import GradientVector, NonFiniteError, ParamSelector
from .core import MtsWindow
from .models import (
    ModelState,
    channel_gradient_rows,
    last_layer_selector,
    param_shapes,
    whole_gradient,
)

# Gradient-row entries held at once by self_influence_rows (8 MB of float64)
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
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"influence matrix must be square, got shape {values.shape}")
        values.setflags(write=False)
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


def _resolve_eta(state: ModelState, eta: float | None) -> float:
    if eta is None:
        if not state.trained_lr > 0:
            raise ValueError(
                "model has no recorded training learning rate; pass eta explicitly"
            )
        eta = state.trained_lr
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
    return _check_eta(eta) * float(g_src.values @ g_dst.values)


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
    eta = _resolve_eta(state, eta)
    if selector is None:
        selector = last_layer_selector(state.spec)
    if z_dst is z_src:
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
    shortcut.
    """
    eta = _resolve_eta(state, eta)
    if selector is None:
        selector = last_layer_selector(state.spec)
    a = whole_gradient(state, z_src, selector)
    b = a if z_dst is z_src else whole_gradient(state, z_dst, selector)
    return eta * float(a.values @ b.values)


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
    windows: list[MtsWindow],
    eta: float | None = None,
    selector: ParamSelector | None = None,
) -> np.ndarray:
    """(windows, channels) self-influence diagonals of a window list.

    Gradient rows are built a chunk of windows at a time, so memory stays
    bounded however long the list is; each row's squared norm is reduced
    the same way whatever the chunk size, so the result equals the
    window-by-window values exactly.
    """
    eta = _resolve_eta(state, eta)
    if selector is None:
        selector = last_layer_selector(state.spec)
    if len(windows) == 0:
        raise ValueError("windows must be nonempty")
    shapes = param_shapes(state.spec)
    # channel_gradient_rows rejects unknown names; here they count as size 1
    per_window = windows[0].n_channels * sum(
        int(np.prod(shapes.get(name, ()))) for name in selector.names
    )
    step = max(1, _CHUNK_ELEMENTS // max(1, per_window))
    parts = []
    for start in range(0, len(windows), step):
        rows = channel_gradient_rows(state, windows[start : start + step], selector)
        parts.append(np.einsum("bnp,bnp->bn", rows, rows))
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
