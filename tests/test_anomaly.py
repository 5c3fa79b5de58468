import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chinf import (
    AnomalyReport,
    DetectConfig,
    ModelSpec,
    ModelState,
    ScoreSeries,
    auroc,
    channel_loss,
    detect,
    make_windows,
    normalize_scores,
    prf1,
    save_report_csv,
    score_windows,
    select_threshold,
    self_influence_per_channel,
    tracin,
)
from chinf import autodiff
from chinf.anomaly import report_summary

import bench_suite


def series_of(values, method="cif_self_influence"):
    values = np.asarray(values, dtype=np.float64)
    return ScoreSeries(values, method, tuple(range(values.size)))


class TestScoreSeries:
    def test_origin_count_checked(self):
        with pytest.raises(ValueError, match="3 origins for 2 scores"):
            ScoreSeries(np.zeros(2), "cif_self_influence", (0, 1, 2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ScoreSeries(np.array([1.0, np.inf]), "cif_self_influence", (0, 1))

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            ScoreSeries(np.zeros(2), "zscore", (0, 1))


class TestNormalize:
    def test_mean_std_worked_example(self):
        out = normalize_scores(series_of([0.0, 10.0]), "mean_std")
        assert np.array_equal(out.scores, [-1.0, 1.0])

    def test_median_iqr_worked_example(self):
        out = normalize_scores(series_of([2.0, 4.0, 6.0, 8.0, 10.0]), "median_iqr")
        assert np.array_equal(out.scores, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_constant_series_maps_to_zeros(self):
        for mode in ("mean_std", "median_iqr"):
            out = normalize_scores(series_of([3.0, 3.0, 3.0]), mode)
            assert np.array_equal(out.scores, np.zeros(3))

    def test_needs_two_scores(self):
        with pytest.raises(ValueError, match="at least 2 scores"):
            normalize_scores(series_of([1.0]), "mean_std")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown normalization 'zscore'"):
            normalize_scores(series_of([1.0, 2.0]), "zscore")

    def test_preserves_order(self):
        rng = np.random.default_rng(0)
        raw = series_of(rng.normal(size=40))
        for mode in ("mean_std", "median_iqr"):
            out = normalize_scores(raw, mode)
            assert np.array_equal(
                np.argsort(raw.scores, kind="stable"),
                np.argsort(out.scores, kind="stable"),
            )


class TestPrf1:
    def test_worked_example(self):
        p, r, f1 = prf1(np.array([1, 0, 1]), np.array([1, 0, 0]))
        assert (p, r) == (0.5, 1.0)
        assert f1 == 2 * 0.5 * 1.0 / 1.5

    def test_no_predicted_positives(self):
        assert prf1(np.zeros(3), np.array([1, 0, 1])) == (0.0, 0.0, 0.0)

    def test_no_actual_positives(self):
        p, r, f1 = prf1(np.array([1, 1, 0]), np.zeros(3))
        assert (r, f1) == (0.0, 0.0)

    def test_perfect(self):
        assert prf1(np.array([0, 1, 1]), np.array([0, 1, 1])) == (1.0, 1.0, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match labels"):
            prf1(np.zeros(3), np.zeros(4))


def brute_force_threshold(scores, labels):
    """Every cut the score order admits, tried literally; first best wins."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels) != 0
    distinct = np.unique(scores)
    candidates = [-np.inf]
    candidates += [(a + b) / 2.0 for a, b in zip(distinct[:-1], distinct[1:])]
    candidates += [np.inf]
    best_h, best_f1 = None, -1.0
    for h in candidates:
        pred = scores > h
        tp = int(np.count_nonzero(pred & labels))
        fp = int(np.count_nonzero(pred & ~labels))
        fn = int(np.count_nonzero(~pred & labels))
        f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        if f1 > best_f1:
            best_h, best_f1 = float(h), f1
    return best_h


class TestSelectThreshold:
    def test_worked_example(self):
        h = select_threshold(np.array([0.1, 0.2, 0.9]), np.array([0, 0, 1]))
        assert h == pytest.approx(0.55)
        assert prf1(np.array([0.1, 0.2, 0.9]) > h, np.array([0, 0, 1]))[2] == 1.0

    def test_all_equal_scores_fall_back_to_sentinel(self):
        h = select_threshold(np.array([5.0, 5.0, 5.0]), np.array([1, 0, 1]))
        assert h == -np.inf

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="F1 undefined"):
            select_threshold(np.array([1.0, 2.0]), np.array([1, 1]))

    def test_accepts_score_series(self):
        h = select_threshold(series_of([0.1, 0.2, 0.9]), np.array([0, 0, 1]))
        assert h == pytest.approx(0.55)

    def test_matches_brute_force_on_seeded_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            # a small value pool forces duplicate scores
            scores = rng.choice(np.linspace(-2, 2, 9), size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.all() or not labels.any():
                labels[rng.integers(n)] ^= 1
            assert select_threshold(scores, labels) == brute_force_threshold(
                scores, labels
            )

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        scores = np.round(rng.normal(size=n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.all() or not labels.any():
            labels[rng.integers(n)] ^= 1
        assert select_threshold(scores, labels) == brute_force_threshold(scores, labels)


def pair_count_auroc(scores, labels):
    pos = scores[np.asarray(labels) != 0]
    neg = scores[np.asarray(labels) == 0]
    wins = sum(float(p > q) + 0.5 * float(p == q) for p in pos for q in neg)
    return wins / (pos.size * neg.size)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(np.array([1.0, 2.0, 3.0]), np.array([0, 0, 1])) == 1.0

    def test_inverted_separation(self):
        assert auroc(np.array([3.0, 2.0, 1.0]), np.array([0, 0, 1])) == 0.0

    def test_constant_scores_give_half(self):
        assert auroc(np.ones(6), np.array([0, 1, 0, 1, 0, 1])) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="AUROC undefined"):
            auroc(np.ones(3), np.zeros(3))

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(3, 30))
            scores = rng.choice(np.linspace(0, 1, 7), size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.all() or not labels.any():
                labels[rng.integers(n)] ^= 1
            assert auroc(scores, labels) == pytest.approx(
                pair_count_auroc(scores, labels), abs=1e-12
            )


class TestScoreWindows:
    def identity_state(self, window, channels):
        spec = ModelSpec("linear_ci", window, channels)
        return ModelState(
            spec, {"weight": np.eye(window), "bias": np.zeros(window)}
        )

    def windows(self, rng, count, window, channels):
        return [bench_suite.random_window(rng, window, channels) for _ in range(count)]

    def test_perfect_model_scores_zero_everywhere(self):
        state = self.identity_state(5, 3)
        wins = self.windows(np.random.default_rng(1), 6, 5, 3)
        for method in ("cif_self_influence", "tracin_self_influence", "reconstruction_error"):
            out = score_windows(state, wins, method, eta=1.0)
            assert np.array_equal(out.scores, np.zeros(6))

    def test_cif_takes_max_over_channels(self):
        rng = np.random.default_rng(2)
        state, win, _, selector = bench_suite.random_model_case(rng, 1)
        out = score_windows(state, [win], "cif_self_influence", 1.0, selector)
        per_channel = self_influence_per_channel(state, win, 1.0, selector)
        assert out.scores[0] == per_channel.max()

    def test_reconstruction_takes_max_channel_loss(self):
        rng = np.random.default_rng(3)
        state, win, _, _ = bench_suite.random_model_case(rng, 2)
        out = score_windows(state, [win], "reconstruction_error")
        worst = max(channel_loss(state, win, j) for j in range(win.n_channels))
        assert out.scores[0] == worst

    def test_tracin_scores_whole_window(self):
        rng = np.random.default_rng(4)
        state, win, _, selector = bench_suite.random_model_case(rng, 3)
        out = score_windows(state, [win], "tracin_self_influence", 1.0, selector)
        assert out.scores[0] == tracin(state, win, win, 1.0, selector)

    def test_origins_follow_windows(self):
        state = self.identity_state(4, 2)
        series = bench_suite.core.MtsSeries(
            np.random.default_rng(5).normal(size=(20, 2)), ("a", "b")
        )
        wins = make_windows(series, 4, stride=3)
        out = score_windows(state, wins, eta=1.0)
        assert out.origins == tuple(w.origin_t for w in wins)

    def test_empty_windows_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            score_windows(self.identity_state(4, 2), [], eta=1.0)


class TestDetectConfig:
    def test_rejects_per_channel_tracin(self):
        with pytest.raises(ValueError, match="not defined for tracin"):
            DetectConfig(method="tracin_self_influence", normalize_per_channel=True)

    def test_rejects_unknown_threshold_split(self):
        with pytest.raises(ValueError, match="threshold_on"):
            DetectConfig(threshold_on="train")


@pytest.fixture(scope="module")
def trained_scenario():
    train_series, val, test = bench_suite.anomaly_scenario(0)
    state = bench_suite.anomaly_model(train_series, 0)
    return state, val, test


class TestDetect:
    def config(self, **kw):
        return DetectConfig(window=bench_suite.ANOMALY_WINDOW, **kw)

    def test_report_is_internally_consistent(self, trained_scenario):
        state, val, test = trained_scenario
        report = detect(state, test, self.config(), val_series=val)
        expected = (report.normalized_scores.scores > report.threshold).astype(int)
        assert np.array_equal(report.predictions, expected)
        assert report.normalization in ("mean_std", "median_iqr")
        assert 0.0 <= report.f1 <= 1.0
        p, r, f1 = prf1(report.predictions, report.labels)
        assert (report.precision, report.recall, report.f1) == (p, r, f1)

    def test_default_detect_runs_no_tape_backward_pass(self, trained_scenario, monkeypatch):
        # per-channel gradients are closed-form; the tape is for training
        calls = []
        original = autodiff.backward

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(autodiff, "backward", counting)
        state, val, test = trained_scenario
        detect(state, test, DetectConfig(), val_series=val)
        assert len(calls) == 0

    def test_finds_injected_anomalies(self, trained_scenario):
        state, val, test = trained_scenario
        report = detect(state, test, self.config(), val_series=val)
        assert report.f1 >= 0.5
        assert auroc(report.raw_scores.scores, report.labels) >= 0.9

    def test_best_of_both_takes_the_better_mode(self, trained_scenario):
        state, val, test = trained_scenario
        both = detect(state, test, self.config(), val_series=val)
        forced = [
            detect(state, test, self.config(normalization=mode), val_series=val)
            for mode in ("mean_std", "median_iqr")
        ]
        assert both.f1 == max(r.f1 for r in forced)

    def test_threshold_can_come_from_test_split(self, trained_scenario):
        state, _, test = trained_scenario
        report = detect(state, test, self.config(threshold_on="test"))
        assert np.array_equal(
            report.predictions,
            (report.normalized_scores.scores > report.threshold).astype(int),
        )

    def test_val_split_required_by_default(self, trained_scenario):
        state, _, test = trained_scenario
        with pytest.raises(ValueError, match="requires a validation series"):
            detect(state, test, self.config())

    def test_unlabeled_test_rejected(self, trained_scenario):
        state, val, test = trained_scenario
        bare = bench_suite.core.MtsSeries(test.values, test.channel_names)
        with pytest.raises(ValueError, match="no timestep labels"):
            detect(state, bare, self.config(), val_series=val)

    def test_anomaly_free_test_scores_zero_f1(self, trained_scenario):
        state, val, _ = trained_scenario
        train_series, _, _ = bench_suite.anomaly_scenario(0)
        clean = bench_suite.core.MtsSeries(
            train_series.values,
            train_series.channel_names,
            np.zeros(train_series.n_timesteps, dtype=int),
        )
        report = detect(state, clean, self.config(), val_series=val)
        assert report.f1 == 0.0
        assert report.recall == 0.0

    def test_per_channel_normalization_runs(self, trained_scenario):
        state, val, test = trained_scenario
        report = detect(
            state, test, self.config(normalize_per_channel=True), val_series=val
        )
        assert np.array_equal(
            report.predictions,
            (report.normalized_scores.scores > report.threshold).astype(int),
        )

    def test_mismatched_predictions_rejected(self, trained_scenario):
        state, val, test = trained_scenario
        report = detect(state, test, self.config(), val_series=val)
        with pytest.raises(ValueError, match="threshold rule"):
            AnomalyReport(
                raw_scores=report.raw_scores,
                normalized_scores=report.normalized_scores,
                normalization=report.normalization,
                threshold=report.threshold,
                predictions=1 - report.predictions,
                labels=report.labels,
                precision=report.precision,
                recall=report.recall,
                f1=report.f1,
            )

    def test_summary_fields(self, trained_scenario):
        state, val, test = trained_scenario
        report = detect(state, test, self.config(), val_series=val)
        summary = report_summary(report)
        assert sorted(summary) == [
            "f1", "method", "normalization", "precision", "recall", "threshold",
        ]
        assert summary["method"] == "cif_self_influence"

    def test_report_csv_roundtrip(self, trained_scenario, tmp_path):
        state, val, test = trained_scenario
        report = detect(state, test, self.config(), val_series=val)
        path = tmp_path / "report.csv"
        save_report_csv(report, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "origin_t,raw_score,normalized_score,prediction,label"
        assert len(lines) == 1 + len(report.raw_scores)
        first = lines[1].split(",")
        assert int(first[0]) == report.raw_scores.origins[0]
        assert float(first[1]) == report.raw_scores.scores[0]
        assert float(first[2]) == report.normalized_scores.scores[0]
