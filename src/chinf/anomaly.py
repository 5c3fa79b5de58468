"""Window anomaly scoring, score normalization, thresholding, and metrics.

The main detector scores each window by the largest per-channel
self-influence, normalizes the score series, picks the threshold that
maximizes F1 on a designated split, and reports precision/recall/F1 on the
test windows. Whole-sample self-influence and max per-channel reconstruction
error are the two comparison scorers.

A window inherits the label of its last timestep, so metrics are computed
per window origin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MtsSeries, Windows, _choice, _finite, _finite_number, _integral, _origin_vector
from .core import _readonly, _write_lines, as_window_stack, make_windows
# self_influence_per_channel stays bound here: perfbench/test_perfbench.py
# checks that the tracer wraps this module's binding of it
from .influence import self_influence_per_channel  # noqa: F401
from .influence import self_influence_rows, tracin_self_scores
from .models import ModelState, channel_losses
from .autodiff import ParamSelector

METHODS = ("cif_self_influence", "tracin_self_influence", "reconstruction_error")
NORMALIZATIONS = ("mean_std", "median_iqr")

_EPS = 1e-12


@dataclass(frozen=True)
class ScoreSeries:
    """One score per window, keyed by the window's origin timestep."""

    scores: np.ndarray
    method: str
    origins: tuple[int, ...]

    def __post_init__(self):
        _choice(self.method, METHODS, "method")
        scores = _readonly(self.scores)
        if scores.ndim != 1:
            raise ValueError(f"scores must be a vector, got shape {scores.shape}")
        _finite(scores, "scores must be finite")
        origins = tuple(_origin_vector(self.origins).tolist())
        if len(origins) != scores.size:
            raise ValueError(
                f"{len(origins)} origins for {scores.size} scores"
            )
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "origins", origins)

    def __len__(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class DetectConfig:
    method: str = "cif_self_influence"
    stride: int = 1
    eta: float | None = None
    selector: ParamSelector | None = None
    normalization: str = "best_of_both"
    threshold_on: str = "val"
    normalize_per_channel: bool = False

    def __post_init__(self):
        _choice(self.method, METHODS, "method")
        _choice(self.normalization, NORMALIZATIONS + ("best_of_both",), "normalization")
        _choice(self.threshold_on, ("val", "test"), "threshold_on")
        object.__setattr__(self, "stride", _integral(self.stride, "stride", 1))
        if self.eta is not None:
            object.__setattr__(self, "eta", _finite_number(self.eta, "eta", positive=True))
        if not (self.selector is None or isinstance(self.selector, ParamSelector)):
            raise ValueError(f"selector must be None or a ParamSelector, got {self.selector!r}")
        if not isinstance(self.normalize_per_channel, bool):
            raise ValueError(
                f"normalize_per_channel must be a bool, got {self.normalize_per_channel!r}"
            )
        if self.normalize_per_channel and self.method == "tracin_self_influence":
            raise ValueError(
                "per-channel normalization is not defined for tracin_self_influence"
            )


@dataclass(frozen=True)
class AnomalyReport:
    raw_scores: ScoreSeries
    normalized_scores: ScoreSeries
    normalization: str
    threshold: float
    predictions: np.ndarray
    labels: np.ndarray
    precision: float
    recall: float
    f1: float

    def __post_init__(self):
        predictions = _readonly(self.predictions, np.int64)
        labels = _readonly(self.labels, np.int64)
        expected = (self.normalized_scores.scores > self.threshold).astype(np.int64)
        if not np.array_equal(predictions, expected):
            raise ValueError("predictions do not match the threshold rule")
        if labels.shape != predictions.shape:
            raise ValueError(
                f"labels shape {labels.shape} does not match predictions {predictions.shape}"
            )
        object.__setattr__(self, "predictions", predictions)
        object.__setattr__(self, "labels", labels)


def _score_columns(state, windows, method, eta, selector) -> np.ndarray:
    """(k, windows) scores, one C-contiguous row per score column: the N
    per-channel columns, or tracin's one (k = 1). The max over channels is
    then k passes over whole rows, about 6x faster at 491 x 8 than numpy's
    max along a last axis of length 8."""
    if method == "cif_self_influence":
        columns = self_influence_rows(state, windows, eta, selector)
    elif method == "tracin_self_influence":
        columns = tracin_self_scores(state, windows, eta, selector)[:, None]
    elif method == "reconstruction_error":
        columns = channel_losses(state, windows)
    else:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    return np.ascontiguousarray(columns.T)


def score_windows(
    state: ModelState,
    windows: Windows,
    method: str = "cif_self_influence",
    eta: float | None = None,
    selector: ParamSelector | None = None,
) -> ScoreSeries:
    """Score every window of a stack or list; higher means more anomalous.

    cif_self_influence and reconstruction_error take the max over channels
    of the per-channel quantity; tracin_self_influence scores the window as
    a whole and cannot say which channel is responsible.
    """
    windows = as_window_stack(windows)
    columns = _score_columns(state, windows, method, eta, selector)
    return ScoreSeries(columns.max(axis=0), method, windows.origins)


def _quantile(ordered: np.ndarray, q: float) -> float:
    """numpy's "linear" quantile of a sorted vector, bit for bit: virtual
    index (n-1) q, then numpy's _lerp, which interpolates from the upper
    neighbour when the fraction t is at least 0.5."""
    position = (len(ordered) - 1) * q
    i = int(position)
    t = position - i
    a, b = ordered[i], ordered[i + 1]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _centered_and_std(values: np.ndarray) -> tuple[np.ndarray, float]:
    """values minus their mean, and their population std, by np.std's own
    steps: the pairwise sum of squared deviations over n."""
    centered = values - np.add.reduce(values) / values.size
    return centered, float(np.sqrt(np.add.reduce(centered * centered) / values.size))


def _normalize_raw(scores: np.ndarray, mode: str) -> np.ndarray:
    """(scores - centre) / scale with the bits of numpy's reductions
    (scores.mean() and scores.std(); np.median and np.percentile(scores,
    (75, 25))), without their Python-level overhead: on a 491-score split
    numpy's median and quartiles took 115 us, against 7 us for one sort.
    The tests hold both modes to the numpy formulas bit for bit, except
    where numpy's mean or std overflows (scores of about 1e154 and up).
    There mean_std follows models._norm_product: it runs the same steps on
    the scores times 2^-e, e the exponent of their largest magnitude. These
    steps cannot overflow, and while every nonzero scaled entry stays
    normal the scaling is exact, so they round as the plain steps would in
    an unbounded exponent range and the strict order of the scores holds."""
    n = scores.size
    if n < 2:
        raise ValueError(f"need at least 2 scores to normalize, got {n}")
    if mode == "mean_std":
        # a non-finite mean makes the std non-finite too; NaN < inf is False
        with np.errstate(over="ignore", invalid="ignore"):
            centered, scale = _centered_and_std(scores)
            if scale < math.inf:
                return centered / max(scale, _EPS)
            e = int(np.frexp(np.abs(scores).max())[1])
            centered, scale = _centered_and_std(np.ldexp(scores, -e))
            return centered / max(scale, math.ldexp(_EPS, -e))
    ordered = np.sort(scores)
    # np.median averages the two middle values of an even-length vector,
    # which the 50th percentile's interpolation may round differently
    half = n // 2
    center = ordered[half] if n % 2 else (ordered[half - 1] + ordered[half]) / 2.0
    scale = _quantile(ordered, 0.75) - _quantile(ordered, 0.25)
    return (scores - center) / max(scale, _EPS)


def normalize_scores(series: ScoreSeries, mode: str) -> ScoreSeries:
    """Center and scale the score series.

    mean_std uses the population standard deviation; median_iqr uses the
    75th minus 25th percentile with linear interpolation at fractional index
    (n-1)*p. Scales below 1e-12 are clamped, so a constant series maps to
    all zeros.
    """
    _choice(mode, NORMALIZATIONS, "normalization")
    return ScoreSeries(_normalize_raw(series.scores, mode), series.method, series.origins)


def prf1(predictions: np.ndarray, labels: np.ndarray) -> tuple[float, float, float]:
    """Precision, recall, F1 with zero-denominator conventions.

    Precision is 0 with no predicted positives, recall is 0 with no true
    positives, and F1 is 0 when precision + recall is 0.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(
            f"predictions length {predictions.size} does not match labels {labels.size}"
        )
    pred = predictions != 0
    pos = labels != 0
    tp = int(np.count_nonzero(pred & pos))
    predicted = int(np.count_nonzero(pred))
    actual = int(np.count_nonzero(pos))
    precision = tp / predicted if predicted else 0.0
    recall = tp / actual if actual else 0.0
    # F1 as one integer ratio: composing it from the rounded precision and
    # recall can split exact ties between threshold candidates by one ulp
    f1 = 2 * tp / (predicted + actual) if predicted + actual else 0.0
    return precision, recall, f1


def _vector_and_positives(scores, labels, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Finite score vector and positive-label mask; both classes must occur."""
    if isinstance(scores, ScoreSeries):
        scores = scores.scores
    scores = _finite(np.asarray(scores, dtype=np.float64), "scores must be finite")
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(
            f"scores length {scores.size} does not match labels {labels.size}"
        )
    pos = labels != 0
    if pos.all() or not pos.any():
        raise ValueError(f"{what} undefined: labels contain a single class")
    return scores, pos


def select_threshold(scores, labels) -> float:
    """Threshold maximizing F1 of (score > h); ties go to the smallest h.

    Candidates are the midpoints between consecutive distinct score values
    plus two infinite sentinels, which cover every achievable prediction
    vector. Accepts a ScoreSeries or a plain vector.
    """
    scores, pos = _vector_and_positives(scores, labels, "F1")
    ordered = np.sort(scores)
    # np.unique's own neighbour mask: the first of each run of equal values
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    candidates = np.concatenate(([-np.inf], mids, [np.inf]))
    # counts of (score > h) for every candidate h at once
    predicted = scores.size - np.searchsorted(ordered, candidates, side="right")
    actual = np.count_nonzero(pos)
    tp = actual - np.searchsorted(np.sort(scores[pos]), candidates, side="right")
    # prf1's integer ratio; argmax takes the first, i.e. smallest, best h
    f1 = 2 * tp / (predicted + actual)
    return float(candidates[np.argmax(f1)])


def auroc(scores, labels) -> float:
    """Area under the ROC curve via average ranks (ties averaged)."""
    scores, pos = _vector_and_positives(scores, labels, "AUROC")
    n_pos = int(np.count_nonzero(pos))
    n_neg = scores.size - n_pos
    # a run of k tied scores ending at 1-based rank e shares rank e - (k-1)/2
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    pos_rank_sum = float(ranks[pos].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _scored_streams(state, series, config):
    """Raw and per-mode normalized score vectors, window origins and labels of
    one labeled series; a normalized vector is the max over the normalized
    channel columns, or the normalized raw score. Only what detect returns
    becomes a ScoreSeries; the score kernels return finite columns or raise,
    and each normalized vector is checked here."""
    windows = make_windows(series, state.spec.total_rows, config.stride)
    labels = series.timestep_labels[windows.origins]
    columns = _score_columns(state, windows, config.method, config.eta, config.selector)
    raw = columns.max(axis=0)
    streams = columns if config.normalize_per_channel else [raw]
    normalized = {}
    for mode in NORMALIZATIONS:
        parts = [_normalize_raw(s, mode) for s in streams]
        # one stream is its own max: stacking it would only copy it
        top = parts[0] if len(parts) == 1 else np.max(parts, axis=0)
        normalized[mode] = _finite(top, "scores must be finite")
    return raw, normalized, windows.origins, labels


def detect(
    state: ModelState,
    test_series: MtsSeries,
    config: DetectConfig,
    val_series: MtsSeries | None = None,
) -> AnomalyReport:
    """Score, normalize, threshold, and evaluate on a labeled test series.

    The threshold is chosen on the split named by config.threshold_on; with
    "val" a labeled validation series containing both classes must be
    supplied, and each series is normalized by its own statistics. With
    normalization "best_of_both" the report keeps whichever of the two
    normalization modes ends up with the higher F1.
    """
    if test_series.timestep_labels is None:
        raise ValueError("test series has no timestep labels")
    if config.threshold_on == "val":
        if val_series is None:
            raise ValueError("threshold_on='val' requires a validation series")
        if val_series.timestep_labels is None:
            raise ValueError("validation series has no timestep labels")
    raw, normalized, origins, labels = _scored_streams(state, test_series, config)
    if config.threshold_on == "val":
        _, source, _, source_labels = _scored_streams(state, val_series, config)
    else:
        source, source_labels = normalized, labels

    modes = NORMALIZATIONS if config.normalization == "best_of_both" else (config.normalization,)
    best = None
    for mode in modes:
        h = select_threshold(source[mode], source_labels)
        predictions = (normalized[mode] > h).astype(np.int64)
        precision, recall, f1 = prf1(predictions, labels)
        if best is None or f1 > best[0]:
            best = (f1, mode, h, predictions, precision, recall)
    f1, mode, h, predictions, precision, recall = best
    return AnomalyReport(
        raw_scores=ScoreSeries(raw, config.method, origins),
        normalized_scores=ScoreSeries(normalized[mode], config.method, origins),
        normalization=mode,
        threshold=h,
        predictions=predictions,
        labels=labels,
        precision=precision,
        recall=recall,
        f1=f1,
    )


def save_report_csv(report: AnomalyReport, path: str) -> None:
    """Per-window rows: origin_t, raw_score, normalized_score, prediction, label."""
    lines = ["origin_t,raw_score,normalized_score,prediction,label"]
    # Python floats from .tolist() format faster than numpy scalars, to the same text
    for t, raw, norm, pred, label in zip(
        report.raw_scores.origins,
        report.raw_scores.scores.tolist(),
        report.normalized_scores.scores.tolist(),
        report.predictions.tolist(),
        report.labels.tolist(),
    ):
        lines.append(f"{t},{raw!r},{norm!r},{pred},{label}")
    _write_lines(path, lines)


def report_summary(report: AnomalyReport) -> dict:
    return {
        "method": report.raw_scores.method,
        "normalization": report.normalization,
        "threshold": report.threshold,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
    }
