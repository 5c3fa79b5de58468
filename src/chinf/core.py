"""Core containers for multivariate time series, windows, and splits.

A series is a dense (T, N) float64 matrix, time-major: row t is the
observation at timestep t, column j is channel j. All containers are
frozen after construction: each holds private read-only copies of its
arrays (core._readonly), so they can be shared freely across threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _readonly(value, dtype=np.float64) -> np.ndarray:
    """The one way a container holds an array: a private read-only copy, so
    the caller's array stays writable and the container's cannot change."""
    out = np.array(value, dtype=dtype)
    out.setflags(write=False)
    return out


def _integral(value, what: str) -> int:
    """value as an int, or a ValueError when it is not integral (1.5, "3", True)."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    # int() of a NaN, an infinity or a non-numeric string
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _number(value, what: str) -> float:
    """A JSON number as a float; a ValueError for "0.01", True or None, which
    float() would partly take, and OverflowError past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a JSON number, got {value!r}")
    return float(value)


def _origin_vector(origins) -> np.ndarray:
    """Read-only int64 copy of a vector of window origins. Integer and bool
    input is cast as it is; other numbers must survive the cast unchanged."""
    raw = np.asarray(origins)
    if raw.ndim != 1 or raw.dtype.kind not in "biuf":
        raise ValueError("origins must be a vector of integers")
    if raw.dtype.kind in "bi":
        return _readonly(raw, np.int64)
    # the cast truncates 1.7 to 1, wraps 2**63 and maps NaN to an arbitrary integer
    with np.errstate(invalid="ignore"):
        ints = _readonly(raw, np.int64)
    if not np.array_equal(ints, raw):
        raise ValueError("origins must be a vector of integers")
    return ints


def _window_values(values, ndim: int) -> np.ndarray:
    """Read-only copy of one window's (w, N) or a stack's (B, w, N) values."""
    values = _readonly(values)
    if values.ndim != ndim or values.size == 0:
        raise ValueError(f"window values must be nonempty and {ndim}-D, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("window values must be finite")
    return values


@dataclass(frozen=True)
class MtsSeries:
    """A multivariate time series with named channels and optional labels.

    ``timestep_labels``, when present, marks each timestep 0 (normal) or
    1 (anomalous).
    """

    values: np.ndarray
    channel_names: tuple[str, ...]
    timestep_labels: np.ndarray | None = None

    def __post_init__(self):
        values = _readonly(self.values)
        if values.ndim != 2:
            raise ValueError(f"series values must be 2-D (T, N), got shape {values.shape}")
        t_total, n = values.shape
        if t_total < 1 or n < 1:
            raise ValueError(f"series must have T >= 1 and N >= 1, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("series values must be finite")
        names = tuple(str(c) for c in self.channel_names)
        if len(names) != n:
            raise ValueError(f"got {len(names)} channel names for {n} channels")
        if len(set(names)) != n:
            raise ValueError("channel names must be unique")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "channel_names", names)
        if self.timestep_labels is not None:
            labels = _readonly(self.timestep_labels, np.int64)
            if labels.shape != (t_total,):
                raise ValueError(
                    f"labels length {labels.shape} does not match series length {t_total}"
                )
            if not np.isin(labels, (0, 1)).all():
                raise ValueError("labels must be 0 or 1")
            object.__setattr__(self, "timestep_labels", labels)

    @property
    def n_timesteps(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MtsWindow:
    """A (w, N) slice of a series; ``origin_t`` is the index of its last row
    in the parent series, and the timestep its score is attributed to."""

    values: np.ndarray
    origin_t: int

    def __post_init__(self):
        object.__setattr__(self, "values", _window_values(self.values, 2))

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class DatasetSplit:
    """Chronological train/val/test splits sharing the same channels.

    The train split must be anomaly-free: labels, if present, are all 0.
    """

    train: MtsSeries
    val: MtsSeries
    test: MtsSeries

    def __post_init__(self):
        for name, part in (("val", self.val), ("test", self.test)):
            if part.n_channels != self.train.n_channels:
                raise ValueError(
                    f"{name} split has {part.n_channels} channels, train has {self.train.n_channels}"
                )
            if part.channel_names != self.train.channel_names:
                raise ValueError(f"{name} split channel names differ from train")
        if self.train.timestep_labels is not None and self.train.timestep_labels.any():
            raise ValueError("train split must not contain anomalous timesteps")


@dataclass(frozen=True)
class WindowStack:
    """Equal-shape windows as one read-only (B, w, N) array; ``origins[b]``
    is window b's origin_t. An int index gives that window as an MtsWindow,
    a slice gives a smaller stack."""

    values: np.ndarray
    origins: np.ndarray

    def __post_init__(self):
        values = _window_values(self.values, 3)
        origins = _origin_vector(self.origins)
        if origins.shape != values.shape[:1]:
            raise ValueError(f"{origins.size} origins for {len(values)} windows")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "origins", origins)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return WindowStack(self.values[index], self.origins[index])
        return MtsWindow(self.values[index], int(self.origins[index]))


Windows = WindowStack | list[MtsWindow]


def as_window_stack(windows: Windows) -> WindowStack:
    """The batch functions' one conversion: a stack as it is, a window list stacked once."""
    if isinstance(windows, WindowStack):
        return windows
    shapes = sorted({w.values.shape for w in windows})
    if len(shapes) > 1:
        raise ValueError(f"windows must share one shape, got {shapes[0]} and {shapes[1]}")
    return WindowStack([w.values for w in windows], [w.origin_t for w in windows])


def make_windows(series: MtsSeries, w: int, stride: int = 1) -> WindowStack:
    """Slide a length-``w`` window over the series with the given stride.

    Window k covers rows [k*stride, k*stride + w); its origin_t is the
    index of its last row. Returns floor((T - w) / stride) + 1 windows as
    one stack, copied once out of the series.
    """
    if w < 1:
        raise ValueError(f"window length must be >= 1, got {w}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if w > series.n_timesteps:
        raise ValueError(f"window exceeds series length ({w} > {series.n_timesteps})")
    # any stride past the series gives the first window alone; capping it
    # keeps a huge one from overflowing the int64 origins
    stride = min(stride, series.n_timesteps)
    # (count, N, w) read-only view of the series, one row per window start
    view = np.lib.stride_tricks.sliding_window_view(series.values, w, axis=0)[::stride]
    return WindowStack(view.transpose(0, 2, 1), np.arange(len(view)) * stride + w - 1)


def window_label(window: MtsWindow, series: MtsSeries) -> int:
    """Label of the window's last timestep; this is what its score is judged
    against."""
    if series.timestep_labels is None:
        raise ValueError("series has no timestep labels")
    if not 0 <= window.origin_t < series.n_timesteps:
        raise ValueError(f"window origin {window.origin_t} outside series of length {series.n_timesteps}")
    return int(series.timestep_labels[window.origin_t])


def chronological_split(series: MtsSeries, train_frac: float, val_frac: float) -> DatasetSplit:
    """Cut a series into contiguous train/val/test parts by fraction."""
    if not (0.0 < train_frac < 1.0 and 0.0 < val_frac < 1.0 and train_frac + val_frac < 1.0):
        raise ValueError(f"invalid split fractions train={train_frac}, val={val_frac}")
    t_total = series.n_timesteps
    t_train = int(round(t_total * train_frac))
    t_val = int(round(t_total * val_frac))
    if min(t_train, t_val, t_total - t_train - t_val) < 1:
        raise ValueError("each split must contain at least one timestep")

    def piece(lo: int, hi: int) -> MtsSeries:
        labels = None
        if series.timestep_labels is not None:
            labels = series.timestep_labels[lo:hi]
        return MtsSeries(series.values[lo:hi], series.channel_names, labels)

    return DatasetSplit(
        train=piece(0, t_train),
        val=piece(t_train, t_train + t_val),
        test=piece(t_train + t_val, t_total),
    )
