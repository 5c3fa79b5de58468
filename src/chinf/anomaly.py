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

from dataclasses import dataclass, replace

import numpy as np

from .core import MtsSeries, Windows, _origin_vector, _readonly, as_window_stack, make_windows
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
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        scores = _readonly(self.scores)
        if scores.ndim != 1:
            raise ValueError(f"scores must be a vector, got shape {scores.shape}")
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite")
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
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.normalization not in NORMALIZATIONS + ("best_of_both",):
            raise ValueError(
                f"unknown normalization {self.normalization!r}, expected one of "
                f"{NORMALIZATIONS + ('best_of_both',)}"
            )
        if self.threshold_on not in ("val", "test"):
            raise ValueError(
                f"threshold_on must be 'val' or 'test', got {self.threshold_on!r}"
            )
        if self.stride < 1:
            raise ValueError(f"stride must be positive, got {self.stride}")
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
    """(windows, k) scores: the N per-channel columns, or tracin's one (k = 1)."""
    if method == "cif_self_influence":
        return self_influence_rows(state, windows, eta, selector)
    if method == "tracin_self_influence":
        return tracin_self_scores(state, windows, eta, selector)[:, None]
    if method == "reconstruction_error":
        return channel_losses(state, windows)
    raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")


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
    return ScoreSeries(columns.max(axis=1), method, windows.origins)


def _normalize_raw(scores: np.ndarray, mode: str) -> np.ndarray:
    if scores.size < 2:
        raise ValueError(f"need at least 2 scores to normalize, got {scores.size}")
    if mode == "mean_std":
        center = scores.mean()
        scale = scores.std()
    else:
        center = np.median(scores)
        scale = np.percentile(scores, 75) - np.percentile(scores, 25)
    return (scores - center) / max(float(scale), _EPS)


def normalize_scores(series: ScoreSeries, mode: str) -> ScoreSeries:
    """Center and scale the score series.

    mean_std uses the population standard deviation; median_iqr uses the
    75th minus 25th percentile with linear interpolation at fractional index
    (n-1)*p. Scales below 1e-12 are clamped, so a constant series maps to
    all zeros.
    """
    if mode not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {mode!r}, expected one of {NORMALIZATIONS}")
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
    """Float score vector and positive-label mask; both classes must occur."""
    if isinstance(scores, ScoreSeries):
        scores = scores.scores
    scores = np.asarray(scores, dtype=np.float64)
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
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    candidates = np.concatenate(([-np.inf], mids, [np.inf]))
    # counts of (score > h) for every candidate h at once
    predicted = scores.size - np.searchsorted(np.sort(scores), candidates, side="right")
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
    """Raw and normalized per-mode score vectors for one labeled series: the
    max over the normalized channel columns, or the normalized raw score."""
    windows = make_windows(series, state.spec.total_rows, config.stride)
    labels = series.timestep_labels[windows.origins]
    columns = _score_columns(state, windows, config.method, config.eta, config.selector)
    raw = ScoreSeries(columns.max(axis=1), config.method, windows.origins)
    streams = columns.T if config.normalize_per_channel else [raw.scores]
    normalized = {
        mode: replace(raw, scores=np.max([_normalize_raw(s, mode) for s in streams], axis=0))
        for mode in NORMALIZATIONS
    }
    return raw, normalized, labels


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
    raw, normalized, labels = _scored_streams(state, test_series, config)
    if config.threshold_on == "val":
        _, source, source_labels = _scored_streams(state, val_series, config)
    else:
        source, source_labels = normalized, labels

    modes = NORMALIZATIONS if config.normalization == "best_of_both" else (config.normalization,)
    best = None
    for mode in modes:
        h = select_threshold(source[mode], source_labels)
        predictions = (normalized[mode].scores > h).astype(np.int64)
        precision, recall, f1 = prf1(predictions, labels)
        if best is None or f1 > best[0]:
            best = (f1, mode, h, predictions, precision, recall)
    f1, mode, h, predictions, precision, recall = best
    return AnomalyReport(
        raw_scores=raw,
        normalized_scores=normalized[mode],
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
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def report_summary(report: AnomalyReport) -> dict:
    return {
        "method": report.raw_scores.method,
        "normalization": report.normalization,
        "threshold": report.threshold,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
    }
