"""Gradient dot-product influence, whole-sample and per channel.

The whole-sample influence of one window on another is the learning rate
times the inner product of their loss gradients. Because each window's loss
is a sum of per-channel losses and the gradient is linear, that quantity
decomposes exactly into an N x N matrix of per-channel-pair inner products;
the matrix total recovers the whole-sample value. The diagonal of the
self-influence matrix (eta * squared gradient norm per channel) is what the
anomaly and pruning pipelines consume.

influence_matrix takes the per-channel rows (models.channel_gradient_rows)
and tracin the whole-window rows of a window pair: two contractions of the
one _factors table of its two-window stack (_pair_table), so the two on one
pair share a forward pass, whether the windows are distinct, equal or one
object. The diagonal needs only each row's squared norm, and each channel's
gradient block is an outer product whose squared norm is the product of its
factors' squared norms, so self_influence_rows takes factored norms
(models.channel_gradient_norms) and writes no row.

eta only rescales: every ranking built on these values is invariant to it.
It defaults to the learning rate the model was trained with.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .autodiff import GradientVector, ParamSelector
from .core import MtsWindow, Windows, _finite, _finite_number, _float_rows, _readonly, _write_lines
from .core import as_window_stack
from .models import (
    ModelState,
    _channel_rows,
    _gradient_table,
    _selection,
    _self_dots,
    _whole_rows,
    channel_gradient_norms,
    whole_gradient_rows,
)

# Gradient-row entries held at once by tracin_self_scores (8 MB of float64)
_CHUNK_ELEMENTS = 1 << 20
_last_pair = ((), (), None, None)  # _pair_table's (key, names, x, table)


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
        _finite(values, "influence matrix has non-finite entries")
        object.__setattr__(self, "values", values)

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    def total(self) -> float:
        """The whole-sample influence the matrix decomposes; a sum past the
        float range is refused, with no warning first."""
        with np.errstate(over="ignore"):
            total = float(self.values.sum())
        return _finite(total, "influence overflowed")


def _resolve_eta(trained_lr: float, eta: float | None) -> float:
    # an explicit eta takes the number rule; ModelState has checked trained_lr
    if eta is not None:
        return _finite_number(eta, "eta", positive=True)
    if not trained_lr > 0:
        raise ValueError("model has no recorded training learning rate; pass eta explicitly")
    return trained_lr


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
    eta = _finite_number(eta, "eta", positive=True)
    # vdot, unlike matmul, warns of no overflow; the product is refused below
    return _finite(eta * float(np.vdot(g_src.values, g_dst.values)), "influence overflowed")


def _pair_table(state: ModelState, z_src: MtsWindow, z_dst: MtsWindow, names) -> tuple:
    """models._gradient_table of the stack [z_src, z_dst], memoized for the
    last pair: by identity on the state, each of its parameter arrays and
    both windows (immutable containers all), by value on the names. The
    entry is one tuple of strong references swapped in one assignment, so a
    thread race costs a miss, never a wrong hit; a refused pass stores none."""
    global _last_pair
    key, names = (state, z_src, z_dst, *state.params.values()), tuple(names)
    held_key, held_names, x, table = _last_pair
    if held_names == names and len(held_key) == len(key) and all(map(operator.is_, held_key, key)):
        return x, table
    x, table = _gradient_table(state, [z_src, z_dst], names)
    _last_pair = (key, names, x, table)
    return x, table


def influence_matrix(
    state: ModelState,
    z_src: MtsWindow,
    z_dst: MtsWindow,
    eta: float | None = None,
    selector: ParamSelector | None = None,
) -> InfluenceMatrix:
    """All per-channel-pair influences of z_src on z_dst.

    The N per-channel gradients of both windows come from one batched
    closed-form pass (_pair_table) and the matrix is assembled from their
    pairwise dot products. Equal windows have equal rows, so the matrix is
    then one operand's g @ g.T, which is exactly symmetric.
    """
    if z_src.n_channels != z_dst.n_channels:
        raise ValueError(
            f"windows disagree on channel count: {z_src.n_channels} vs {z_dst.n_channels}"
        )
    eta = _resolve_eta(state.trained_lr, eta)
    selector = _selection(state.spec, selector)[0]
    names = selector.names
    # an overflowing row or product is refused below, with no warning first
    with np.errstate(over="ignore", invalid="ignore"):
        g_src, g_dst = _channel_rows(state, *_pair_table(state, z_src, z_dst, names))
        if np.array_equal(z_src.values, z_dst.values):
            g_dst = g_src
        values = eta * (g_src @ g_dst.T)
    return InfluenceMatrix(values, eta, selector.selector_id)


def tracin(
    state: ModelState,
    z_src: MtsWindow,
    z_dst: MtsWindow,
    eta: float | None = None,
    selector: ParamSelector | None = None,
) -> float:
    """Whole-sample influence from whole-window loss gradients.

    Contracted to whole-window rows, not read off the per-channel matrix's
    total; the tests check that the two routes agree. Row b of
    whole_gradient_rows does not depend on the stack: windows of one shape
    are contracted from their pair's two-window table (_pair_table, shared
    with influence_matrix), and windows with different channel counts
    (channel-shared models) take a one-window stack each.
    """
    eta = _resolve_eta(state.trained_lr, eta)
    selector = _selection(state.spec, selector)[0]
    if z_src.values.shape == z_dst.values.shape:
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = _whole_rows(*_pair_table(state, z_src, z_dst, selector.names))
    else:
        a, b = (whole_gradient_rows(state, [z], selector)[0] for z in (z_src, z_dst))
    # the dot of cif, which warns of no overflow
    return _finite(eta * float(np.vdot(a, b)), "influence overflowed")


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
    """(windows, channels) self-influence diagonals of a stack or window list:
    eta times models.channel_gradient_norms, which forms each squared norm
    from the forward pass's factors without writing a gradient row."""
    eta = _resolve_eta(state.trained_lr, eta)
    norms = channel_gradient_norms(state, windows, selector)
    # a score past the float range is refused below, with no warning first
    with np.errstate(over="ignore"):
        scores = eta * norms
    return _finite(scores, "self-influence overflowed")


def tracin_self_scores(
    state: ModelState,
    windows: Windows,
    eta: float | None = None,
    selector: ParamSelector | None = None,
) -> np.ndarray:
    """(windows,) whole-window self-influence: tracin(state, w, w) for each w.

    eta times the squared norm of each window's whole_gradient_rows row,
    taken a chunk of windows at a time so memory stays bounded. Each row is
    reduced by models._self_dots, so the result does not depend on the
    chunk size.
    """
    eta = _resolve_eta(state.trained_lr, eta)
    selector, shapes = _selection(state.spec, selector)
    windows = as_window_stack(windows)
    # whole_gradient_rows holds one P-entry row per window
    per_window = sum(math.prod(shapes[name]) for name in selector.names)
    step = max(1, _CHUNK_ELEMENTS // per_window)
    parts = []
    for chunk in (windows[start : start + step] for start in range(0, len(windows), step)):
        rows = whole_gradient_rows(state, chunk, selector)
        # a score past the float range is refused below, with no warning first
        with np.errstate(over="ignore"):
            parts.append(_self_dots(rows))
    with np.errstate(over="ignore"):
        scores = eta * np.concatenate(parts)
    return _finite(scores, "self-influence overflowed")


def save_influence_csv(
    matrix: InfluenceMatrix, path: str, channel_names: tuple[str, ...] | None = None
) -> None:
    """Write the matrix as CSV, header = channel names, full float fidelity."""
    n = matrix.n_channels
    if channel_names is None:
        channel_names = tuple(f"c{i}" for i in range(n))
    if len(channel_names) != n:
        raise ValueError(f"got {len(channel_names)} channel names for {n} channels")
    _write_lines(path, [",".join(channel_names), *_float_rows(matrix.values)])
