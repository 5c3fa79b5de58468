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

from dataclasses import dataclass

import numpy as np

from .core import MtsSeries, MtsWindow, make_windows, window_label
# self_influence_per_channel stays bound here: perfbench/test_perfbench.py
# checks that the tracer wraps this module's binding of it
from .influence import self_influence_per_channel, self_influence_rows, tracin  # noqa: F401
from .models import ModelState, channel_loss
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
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 1:
            raise ValueError(f"scores must be a vector, got shape {scores.shape}")
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite")
        origins = tuple(int(t) for t in self.origins)
        if len(origins) != scores.size:
            raise ValueError(
                f"{len(origins)} origins for {scores.size} scores"
            )
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "origins", origins)

    def __len__(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class DetectConfig:
    method: str = "cif_self_influence"
    window: int = 10
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
        if self.window < 1:
            raise ValueError(f"window must be positive, got {self.window}")
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
        predictions = np.asarray(self.predictions, dtype=np.int64)
        labels = np.asarray(self.labels, dtype=np.int64)
        expected = (self.normalized_scores.scores > self.threshold).astype(np.int64)
        if not np.array_equal(predictions, expected):
            raise ValueError("predictions do not match the threshold rule")
        if labels.shape != predictions.shape:
            raise ValueError(
                f"labels shape {labels.shape} does not match predictions {predictions.shape}"
            )
        predictions.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "predictions", predictions)
        object.__setattr__(self, "labels", labels)


def _channel_score_matrix(
    state: ModelState,
    windows: list[MtsWindow],
    method: str,
    eta: float | None,
    selector: ParamSelector | None,
) -> np.ndarray:
    """(windows, channels) matrix of per-channel scores for one method."""
    if method == "cif_self_influence":
        return self_influence_rows(state, windows, eta, selector)
    # reconstruction_error
    return np.array(
        [[channel_loss(state, win, j) for j in range(win.n_channels)] for win in windows]
    )


def score_windows(
    state: ModelState,
    windows: list[MtsWindow],
    method: str = "cif_self_influence",
    eta: float | None = None,
    selector: ParamSelector | None = None,
) -> ScoreSeries:
    """Score every window; higher means more anomalous.

    cif_self_influence and reconstruction_error take the max over channels
    of the per-channel quantity; tracin_self_influence scores the window as
    a whole and cannot say which channel is responsible.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if len(windows) == 0:
        raise ValueError("windows must be nonempty")
    origins = tuple(w.origin_t for w in windows)
    if method == "tracin_self_influence":
        scores = np.array([tracin(state, w, w, eta, selector) for w in windows])
    else:
        scores = _channel_score_matrix(state, windows, method, eta, selector).max(axis=1)
    return ScoreSeries(scores, method, origins)


def _normalize_raw(scores: np.ndarray, mode: str) -> np.ndarray:
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
    if len(series) < 2:
        raise ValueError(f"need at least 2 scores to normalize, got {len(series)}")
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


def _threshold_candidates(scores: np.ndarray) -> np.ndarray:
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.concatenate(([-np.inf], mids, [np.inf]))


def select_threshold(scores, labels) -> float:
    """Threshold maximizing F1 of (score > h); ties go to the smallest h.

    Candidates are the midpoints between consecutive distinct score values
    plus two infinite sentinels, which cover every achievable prediction
    vector. Accepts a ScoreSeries or a plain vector.
    """
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
        raise ValueError("F1 undefined: labels contain a single class")
    best_h = None
    best_f1 = -1.0
    for h in _threshold_candidates(scores):
        _, _, f1 = prf1(scores > h, pos)
        if f1 > best_f1:
            best_f1 = f1
            best_h = float(h)
    return best_h


def auroc(scores, labels) -> float:
    """Area under the ROC curve via average ranks (ties averaged)."""
    if isinstance(scores, ScoreSeries):
        scores = scores.scores
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(
            f"scores length {scores.size} does not match labels {labels.size}"
        )
    pos = labels != 0
    n_pos = int(np.count_nonzero(pos))
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC undefined: labels contain a single class")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    rank = 1
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (rank + rank + (j - i)) / 2.0
        rank += j - i + 1
        i = j + 1
    pos_rank_sum = float(ranks[pos].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _scored_streams(state, series, config):
    """Raw and normalized per-mode score vectors for one labeled series."""
    windows = make_windows(series, config.window, config.stride)
    labels = np.array([window_label(w, series) for w in windows], dtype=np.int64)
    origins = tuple(w.origin_t for w in windows)
    if config.normalize_per_channel:
        per_channel = _channel_score_matrix(
            state, windows, config.method, config.eta, config.selector
        )
        raw = ScoreSeries(per_channel.max(axis=1), config.method, origins)
        normalized = {
            mode: ScoreSeries(
                np.array(
                    [_normalize_raw(per_channel[:, j], mode) for j in range(per_channel.shape[1])]
                ).max(axis=0),
                config.method,
                origins,
            )
            for mode in NORMALIZATIONS
        }
    else:
        raw = score_windows(state, windows, config.method, config.eta, config.selector)
        normalized = {mode: normalize_scores(raw, mode) for mode in NORMALIZATIONS}
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
    raw, normalized, labels = _scored_streams(state, test_series, config)

    if config.threshold_on == "val":
        if val_series is None:
            raise ValueError("threshold_on='val' requires a validation series")
        if val_series.timestep_labels is None:
            raise ValueError("validation series has no timestep labels")
        _, val_normalized, val_labels = _scored_streams(state, val_series, config)
        threshold_source = {mode: (val_normalized[mode], val_labels) for mode in NORMALIZATIONS}
    else:
        threshold_source = {mode: (normalized[mode], labels) for mode in NORMALIZATIONS}

    modes = NORMALIZATIONS if config.normalization == "best_of_both" else (config.normalization,)
    best = None
    for mode in modes:
        sel_scores, sel_labels = threshold_source[mode]
        h = select_threshold(sel_scores, sel_labels)
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
    for t, raw, norm, pred, label in zip(
        report.raw_scores.origins,
        report.raw_scores.scores,
        report.normalized_scores.scores,
        report.predictions,
        report.labels,
    ):
        lines.append(f"{t},{float(raw)!r},{float(norm)!r},{pred},{label}")
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
