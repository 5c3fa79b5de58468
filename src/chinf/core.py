"""Core containers for multivariate time series, windows, and splits.

A series is a dense (T, N) float64 matrix, time-major: row t is the
observation at timestep t, column j is channel j. All containers are
frozen after construction: each holds private read-only copies of its
arrays (core._readonly), or read-only views of another container's (a
stack windowed out of a series), so they can be shared freely across
threads.
core is also the one module that writes a file (_write_lines) and the one
that tests a value for finiteness (_finite).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np


class NonFiniteError(ValueError):
    """A NaN or an infinity where a finite value is required."""


# a sum of squares below this bound has no NaN or infinity among its
# terms, and the dot that forms it is the fast accept of _finite and of
# models._residual's loss check
_FINITE_DOT_BOUND = 1e300


def _finite(values, message: str):
    """values, or a NonFiniteError(message) when any entry is a NaN or an
    infinity: the package's one finiteness rule. None passes, for a layer
    the model lacks. A float (cif, tracin, the detect threshold) takes
    math.isfinite, 20 ns against 2.4 us for np.isfinite (timeit, 2-core Xeon).
    A C-contiguous float64 array is accepted when its one dot v . v is below
    _FINITE_DOT_BOUND, which no NaN or infinity passes (BLAS's ddot raises no
    warning, whatever it overflows to); only otherwise, and for any other
    array, does the exact np.isfinite(v).all() scan decide, so an array of
    1e200s (whose dot overflows) still passes and the arrays refused are the
    scan's. The dot took 1.1 to 4.7 us where the scan took 2.5 to 7.5 us,
    from a (12,) bias to a (16, 1592) block (timeit best of 5, 2-core Xeon)."""
    if values is None:
        return values
    if isinstance(values, float):
        finite = math.isfinite(values)
    else:
        finite = (
            isinstance(values, np.ndarray)
            and values.dtype == np.float64
            and values.flags.c_contiguous
            and np.vdot(values, values) < _FINITE_DOT_BOUND
        ) or np.isfinite(values).all()
    if not finite:
        raise NonFiniteError(message)
    return values


def _readonly(value, dtype=np.float64) -> np.ndarray:
    """The one way a container copies an array: a private read-only copy, so
    the caller's array stays writable and the container's cannot change.
    The copy is C-ordered whatever the input's layout (a column subset of a
    series is F-ordered), so a series and a copied stack are C-contiguous
    and every window of a stack windowed out of a series is too."""
    out = np.array(value, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _aligned_empty(size: int) -> np.ndarray:
    """An uninitialised float64 vector of size entries whose data starts on a
    64-byte boundary: 8 floats more than asked for, sliced at the first
    boundary. OpenBLAS's gemm took 23.6 us on a 64-byte aligned (48, 1024)
    operand against 33-38 us at offsets of 8 to 56 bytes (2-core Xeon), and
    np.empty's large buffers, which glibc serves by mmap, start at 16 mod 64.
    The offset changes no bit of a product."""
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // raw.itemsize
    return raw[start : start + size]


def _integral(value, what: str, low: int | None = None) -> int:
    """value as an int, or a ValueError when it is not integral (1.5, "3",
    True) or lies below low: the one place an integer bound is worded."""
    try:
        integral = not isinstance(value, bool) and int(value) == value
    # int() of a NaN, an infinity or a non-numeric string
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{what} must be at least {low}, got {value}")
    return value


def _choice(value, options: tuple, what: str):
    """value, or a ValueError when it is not one of options."""
    if value not in options:
        raise ValueError(f"unknown {what} {value!r}, expected one of {options}")
    return value


def _number(value, what: str) -> float:
    """A JSON number (or another real, such as a numpy scalar) as a float; a
    ValueError for "0.01", True or None, which float() would partly take, and
    OverflowError past the float range."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{what} must be a JSON number, got {value!r}")
    return float(value)


def _finite_number(value, what: str, *, positive: bool = False) -> float:
    """A JSON number (_number) that is finite and non-negative, or positive
    with positive=True; a ValueError naming what for anything else, an
    integer past the float range included."""
    try:
        number = _number(value, what)
    except OverflowError:
        number = math.inf
    if not (0 < number if positive else 0 <= number) or number == math.inf:
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{what} must be finite and {sign}, got {value!r}")
    return number


def _write_lines(path: str, lines) -> None:
    """The package's one file writer: UTF-8, LF line ends and one final LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _float_rows(values: np.ndarray):
    """A 2-D float array's rows as comma-joined float reprs, one row at a time."""
    return (",".join(map(repr, row.tolist())) for row in values)


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


def _nonempty(values: np.ndarray, ndim: int) -> np.ndarray:
    """values, or a ValueError when they are empty or not ndim-D."""
    if values.ndim != ndim or values.size == 0:
        raise ValueError(f"window values must be nonempty and {ndim}-D, got shape {values.shape}")
    return values


def _window_values(values, ndim: int, checked: bool = False) -> np.ndarray:
    """Read-only copy of one window's (w, N) or a stack's (B, w, N) values.
    checked=True skips the finiteness scan, for values that a container
    (a series, a window or a stack) has already checked."""
    values = _nonempty(_readonly(values), ndim)
    return values if checked else _finite(values, "window values must be finite")


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
        _finite(values, "series values must be finite")
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
    a slice gives a smaller stack.

    A stack from make_windows, and any slice of a stack, views the rows it
    was cut from and copies nothing. Built from values (the constructor) or
    from a window list (as_window_stack), it holds one private C-contiguous
    copy of them. Either way _layout gives the (T, N) rows it views (the
    series' values, or its own copy as (B*w, N)) and each window's first
    row in them, so that train gathers a batch straight from the rows.
    Stacks cut from a series, a window list or a stack are not scanned for
    finiteness again; the constructor scans what it is given."""

    values: np.ndarray
    origins: np.ndarray

    def __post_init__(self):
        self._hold(_window_values(self.values, 3), self.origins)

    @classmethod
    def _of_checked(cls, values, origins) -> WindowStack:
        """A stack of a copy of values that a container has already checked as
        finite: the constructor without its finiteness scan, which took 29 us
        of a 50-60 us make_windows call on a 491-window detect split. The
        shape and origins are still checked."""
        stack = object.__new__(cls)
        stack._hold(_window_values(values, 3, checked=True), origins)
        return stack

    @classmethod
    def _of_view(cls, values, origins, rows, starts) -> WindowStack:
        """A stack that views checked, read-only values: window b is
        rows[starts[b] : starts[b] + w]. Nothing is copied or scanned; the
        shape and origins are still checked."""
        stack = object.__new__(cls)
        stack._hold(_nonempty(values, 3), origins, rows, starts)
        return stack

    def _hold(self, values: np.ndarray, origins, rows=None, starts=None) -> None:
        origins = _origin_vector(origins)
        if origins.shape != values.shape[:1]:
            raise ValueError(f"{origins.size} origins for {len(values)} windows")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "origins", origins)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_starts", starts)

    def _layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The (T, N) rows the stack views and each window's first row in
        them: window b is rows[starts[b] : starts[b] + w]. A stack holding
        its own copy (no rows recorded) works them out of that copy when
        asked; building them for every stack cost 2% of the benchmark's
        influence_pairs, whose two-window stacks never train."""
        if self._rows is None:
            count, w, n = self.values.shape
            return self.values.reshape(count * w, n), np.arange(count) * w
        return self._rows, self._starts

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            rows, starts = self._layout()
            values, origins = self.values[index], self.origins[index]
            return WindowStack._of_view(values, origins, rows, starts[index])
        return MtsWindow(self.values[index], int(self.origins[index]))


Windows = WindowStack | list[MtsWindow]


def as_window_stack(windows: Windows) -> WindowStack:
    """The batch functions' one conversion: a stack as it is, a window list stacked once."""
    if isinstance(windows, WindowStack):
        return windows
    shapes = sorted({w.values.shape for w in windows})
    if len(shapes) > 1:
        raise ValueError(f"windows must share one shape, got {shapes[0]} and {shapes[1]}")
    return WindowStack._of_checked([w.values for w in windows], [w.origin_t for w in windows])


def make_windows(series: MtsSeries, w: int, stride: int = 1) -> WindowStack:
    """Slide a length-``w`` window over the series with the given stride.

    Window k covers rows [k*stride, k*stride + w); its origin_t is the
    index of its last row. Returns floor((T - w) / stride) + 1 windows as
    one stack: a read-only (B, w, N) view of the series' private values,
    whose windows are each C-contiguous. Nothing is copied, and nothing is
    scanned again for finiteness (the series was).
    """
    w = _integral(w, "window length", 1)
    stride = _integral(stride, "stride", 1)
    if w > series.n_timesteps:
        raise ValueError(f"window exceeds series length ({w} > {series.n_timesteps})")
    # any stride past the series gives the first window alone; capping it
    # keeps a huge one from overflowing the int64 origins
    stride = min(stride, series.n_timesteps)
    # (count, N, w) read-only view of the series, one row per window start
    view = np.lib.stride_tricks.sliding_window_view(series.values, w, axis=0)[::stride]
    starts = np.arange(len(view)) * stride
    return WindowStack._of_view(view.transpose(0, 2, 1), starts + w - 1, series.values, starts)


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
