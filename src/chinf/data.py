"""Synthetic series generation, anomaly injection, and CSV round-tripping."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import MtsSeries, _choice, _finite_number, _float_rows, _integral, _write_lines

# Non-harmonic defaults so clusters stay spectrally distinct.
_BASE_FREQUENCIES = (3.0, 7.0, 13.0, 23.0, 41.0, 71.0, 113.0, 197.0)

ANOMALY_KINDS = ("spike", "drift", "correlation_break")


def _items(value, what: str) -> tuple:
    """value's items as a tuple, or a ValueError naming what when it has none
    to iterate over (a number, None)."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{what} must be a sequence, got {value!r}") from None


@dataclass(frozen=True)
class SyntheticConfig:
    """Cluster-structured sinusoid mixture.

    Channel j of cluster k is sin(2*pi*f_k*t/length + phase_jitter_j) plus
    i.i.d. gaussian noise; channels within a cluster share a frequency and
    differ only by phase and noise.
    """

    clusters: int = 2
    channels_per_cluster: int = 2
    length: int = 512
    base_frequencies: tuple[float, ...] | None = None
    phase_jitter: float = 0.1
    noise_std: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name, low in (("clusters", 1), ("channels_per_cluster", 1), ("length", 2), ("seed", 0)):
            object.__setattr__(self, name, _integral(getattr(self, name), name, low))
        for name in ("phase_jitter", "noise_std"):
            object.__setattr__(self, name, _finite_number(getattr(self, name), name))
        if self.base_frequencies is not None:
            freqs = tuple(
                _finite_number(f, "base frequency")
                for f in _items(self.base_frequencies, "base_frequencies")
            )
            if len(freqs) != self.clusters:
                raise ValueError(
                    f"need {self.clusters} base frequencies, got {len(freqs)}"
                )
            object.__setattr__(self, "base_frequencies", freqs)

    def frequencies(self) -> tuple[float, ...]:
        if self.base_frequencies is not None:
            return self.base_frequencies
        if self.clusters <= len(_BASE_FREQUENCIES):
            return _BASE_FREQUENCIES[: self.clusters]
        extra = tuple(
            _BASE_FREQUENCIES[-1] * (1.7 ** (k + 1))
            for k in range(self.clusters - len(_BASE_FREQUENCIES))
        )
        return _BASE_FREQUENCIES + extra


@dataclass(frozen=True)
class AnomalySpec:
    """Anomalies of one kind: target channels and half-open intervals."""

    kind: str
    target_channels: tuple[int, ...]
    intervals: tuple[tuple[int, int], ...]
    magnitude: float = 3.0

    def __post_init__(self):
        _choice(self.kind, ANOMALY_KINDS, "anomaly kind")
        channels = tuple(
            _integral(c, "anomaly target channel")
            for c in _items(self.target_channels, "anomaly target channels")
        )
        if len(channels) == 0:
            raise ValueError("anomaly must target at least one channel")
        if len(set(channels)) != len(channels):
            raise ValueError("anomaly target channels must be unique")
        intervals = []
        for item in _items(self.intervals, "anomaly intervals"):
            bounds = _items(item, "anomaly interval")
            pair = tuple(_integral(b, "anomaly interval bound") for b in bounds)
            if len(pair) != 2:
                raise ValueError(f"anomaly interval must be a (start, end) pair, got {item!r}")
            intervals.append(pair)
        if len(intervals) == 0:
            raise ValueError("anomaly must cover at least one interval")
        for start, end in intervals:
            if not 0 <= start < end:
                raise ValueError(f"anomaly interval [{start}, {end}) is empty or negative")
        for (_, prev_end), (nxt_start, _) in zip(
            sorted(intervals), sorted(intervals)[1:]
        ):
            if nxt_start < prev_end:
                raise ValueError("anomaly intervals overlap")
        object.__setattr__(self, "magnitude", _finite_number(self.magnitude, "magnitude"))
        object.__setattr__(self, "target_channels", channels)
        object.__setattr__(self, "intervals", tuple(intervals))


def gen_synthetic(config: SyntheticConfig) -> MtsSeries:
    rng = np.random.default_rng(config.seed)
    t_total = config.length
    n = config.clusters * config.channels_per_cluster
    t = np.arange(t_total, dtype=np.float64)
    values = np.empty((t_total, n))
    names = []
    freqs = config.frequencies()
    for k in range(config.clusters):
        for j in range(config.channels_per_cluster):
            col = k * config.channels_per_cluster + j
            phase = rng.uniform(-config.phase_jitter, config.phase_jitter)
            base = np.sin(2.0 * math.pi * freqs[k] * t / t_total + phase)
            noise = rng.normal(0.0, config.noise_std, size=t_total)
            values[:, col] = base + noise
            names.append(f"c{k}_{j}")
    labels = np.zeros(t_total, dtype=np.int64)
    return MtsSeries(values, tuple(names), labels)


def inject_anomalies(series: MtsSeries, spec: AnomalySpec, seed: int = 0) -> MtsSeries:
    """Return a copy of the series with one anomaly spec applied.

    Timestep labels are set to 1 on every timestep inside any interval,
    regardless of which channels were touched. Compose multiple kinds by
    chaining calls; earlier labels are preserved.
    """
    t_total, n = series.values.shape
    rng = np.random.default_rng(seed)
    values = np.array(series.values)
    labels = (
        np.array(series.timestep_labels)
        if series.timestep_labels is not None
        else np.zeros(t_total, dtype=np.int64)
    )
    for start, end in spec.intervals:
        if end > t_total:
            raise ValueError(
                f"anomaly interval [{start}, {end}) exceeds series length {t_total}"
            )
    for c in spec.target_channels:
        if not 0 <= c < n:
            raise ValueError(f"anomaly channel {c} out of range for {n} channels")
    for start, end in spec.intervals:
        span = end - start
        for c in spec.target_channels:
            seg = values[start:end, c]
            if spec.kind == "spike":
                signs = rng.choice((-1.0, 1.0), size=span)
                values[start:end, c] = seg + signs * spec.magnitude
            elif spec.kind == "drift":
                ramp = np.linspace(0.0, spec.magnitude, span)
                values[start:end, c] = seg + ramp
            else:  # correlation_break: structure removed, moments preserved
                mean = float(seg.mean())
                std = float(seg.std())
                values[start:end, c] = rng.normal(mean, std, size=span)
        labels[start:end] = 1
    return MtsSeries(values, series.channel_names, labels)


def save_csv(series: MtsSeries, path: str) -> None:
    """Write one CSV with a channel-name header and full-precision floats.

    When the series carries timestep labels they go to ``path + ".labels"``,
    one 0/1 per line.
    """
    _write_lines(path, [",".join(series.channel_names), *_float_rows(series.values)])
    if series.timestep_labels is not None:
        _write_lines(path + ".labels", map(str, series.timestep_labels.tolist()))


def _parse_row(cells: list[str], n: int, lineno: int) -> list[float]:
    if len(cells) != n:
        raise ValueError(f"line {lineno}: expected {n} values, got {len(cells)}")
    out = []
    for cell in cells:
        try:
            out.append(float(cell))
        except ValueError:
            raise ValueError(f"line {lineno}: {cell!r} is not a number") from None
    return out


def _parse_block(rows: list[tuple[int, str]], n: int) -> np.ndarray:
    """The numbered, nonblank data lines as a (T, n) float64 array.

    One ``np.loadtxt`` call parses the block. Where it refuses (a bad
    cell, a ragged row, a cell only ``float()`` accepts such as ``1_0``)
    or returns a width other than n, the rows are parsed one by one, which
    gives the same values or the line-numbered error. Every cell numpy
    accepts, ``float()`` reads as the same double.
    """
    try:
        values = np.loadtxt(
            [line for _, line in rows], delimiter=",", comments=None,
            dtype=np.float64, ndmin=2,
        )
        if values.shape[1] == n:
            return values
    except ValueError:
        pass
    return np.array(
        [_parse_row([c.strip() for c in line.split(",")], n, lineno) for lineno, line in rows]
    )


def _read_lines(path: str) -> list[str]:
    # universal newlines: \r\n and \r end a line as \n does; utf-8-sig
    # drops a leading byte-order mark, which would join the first cell
    try:
        with open(path, encoding="utf-8-sig") as f:
            return f.read().split("\n")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None


def _load_labels(path: str, n_timesteps: int) -> np.ndarray:
    entries = [line.strip() for line in _read_lines(path)]
    tokens = [text for text in entries if text]
    if not set(tokens) <= {"0", "1"}:
        lineno, text = next(
            (i + 1, text) for i, text in enumerate(entries) if text not in ("", "0", "1")
        )
        raise ValueError(f"line {lineno}: label must be 0 or 1, got {text!r}")
    if len(tokens) != n_timesteps:
        raise ValueError(f"label count {len(tokens)} does not match {n_timesteps} timesteps")
    return (np.array(tokens) == "1").astype(np.int64)


def load_csv(path: str) -> MtsSeries:
    """Load a series written by :func:`save_csv` or any compatible CSV.

    A header row is detected by failing to parse as floats; headerless files
    get channel names ``c0..c{N-1}``. Timestep labels come from
    ``path + ".labels"`` when that is a file.
    """
    rows = [(i + 1, line) for i, line in enumerate(_read_lines(path)) if line.strip() != ""]
    if not rows:
        raise ValueError(f"{path}: file has no data rows")

    first_cells = [c.strip() for c in rows[0][1].split(",")]
    header_is_names = False
    for cell in first_cells:
        try:
            float(cell)
        except ValueError:
            header_is_names = True
            break
    if header_is_names:
        names = tuple(first_cells)
        data_rows = rows[1:]
    else:
        names = tuple(f"c{i}" for i in range(len(first_cells)))
        data_rows = rows
    if not data_rows:
        raise ValueError(f"{path}: file has no data rows")
    values = _parse_block(data_rows, len(names))

    labels_path = path + ".labels"
    labels = _load_labels(labels_path, values.shape[0]) if os.path.isfile(labels_path) else None
    return MtsSeries(values, names, labels)
