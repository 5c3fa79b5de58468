import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chinf import (
    AnomalyReport,
    DetectConfig,
    ModelSpec,
    ModelState,
    ScoreSeries,
    WindowStack,
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
from chinf import anomaly, autodiff
from chinf.anomaly import METHODS, report_summary
from chinf.influence import self_influence_rows
from chinf.models import all_params_selector, channel_losses, last_layer_selector

import bench_suite
from test_acceptance import _brute_force_threshold


NON_INTEGRAL_ORIGINS = pytest.mark.parametrize(
    "origins",
    [(1.7, 2.2), (1, np.nan), (1, 2**63), ("1", "2"), ((1, 2), (3, 4))],
    ids=["fractional", "nan", "past_int64", "strings", "nested"],
)


def same_bits(a, b) -> bool:
    """Equal as float64 bit patterns, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


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

    @pytest.mark.parametrize(
        "origins",
        [(4, 7, 9), [4, 7, 9], np.array([4, 7, 9], dtype=np.int64)],
        ids=["tuple", "list", "int64_array"],
    )
    def test_origins_become_a_tuple_of_int(self, origins):
        series = ScoreSeries(np.zeros(3), "cif_self_influence", origins)
        assert series.origins == (4, 7, 9)
        assert all(type(t) is int for t in series.origins)

    @NON_INTEGRAL_ORIGINS
    def test_rejects_non_integral_origins(self, origins):
        with pytest.raises(ValueError, match="origins must be a vector of integers"):
            ScoreSeries(np.zeros(2), "cif_self_influence", origins)

    @NON_INTEGRAL_ORIGINS
    def test_window_stack_shares_the_origins_rule(self, origins):
        with pytest.raises(ValueError, match="origins must be a vector of integers"):
            WindowStack(np.zeros((2, 3, 2)), origins)

    def test_origin_array_count_checked(self):
        with pytest.raises(ValueError, match="3 origins for 2 scores"):
            ScoreSeries(np.zeros(2), "cif_self_influence", np.arange(3))


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

    @pytest.mark.parametrize("n", [2, 3, 40, 41, 490, 491])
    def test_median_iqr_equals_the_three_call_form(self, n):
        rng = np.random.default_rng(n)
        for scores in (rng.normal(size=n), rng.choice([0.0, 0.25, 1.0, 3.0], size=n)):
            scale = np.percentile(scores, 75) - np.percentile(scores, 25)
            want = (scores - np.median(scores)) / max(float(scale), anomaly._EPS)
            assert same_bits(anomaly._normalize_raw(scores, "median_iqr"), want)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_both_modes_keep_the_bits_of_the_numpy_formulas(self, data):
        """_normalize_raw against np.mean/np.std and np.median with
        np.percentile(x, (75, 25)), which it replaces, for odd and even n up
        to 2000, ties, constant vectors (the 1e-12 clamp) and magnitudes from
        1e-300 to 1e300. Raw scores are sums of squares, so they are
        nonnegative and +0.0 at least: a signed zero is out of scope, as
        np.partition (inside np.median) and np.sort may order -0.0 and 0.0
        differently and so give a median of the other sign.

        Where numpy's std overflows (its squared deviations pass the float
        range), mean_std is held instead to numpy's formula on the scores
        times 2^-e, e the exponent of their largest magnitude, as the code
        scales them; every nonzero scaled entry is asserted normal, so the
        scaling is exact. No numpy warning escapes _normalize_raw."""
        n = data.draw(st.integers(2, 2000), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kind = data.draw(st.sampled_from(("spread", "ties", "constant")), label="kind")
        if kind == "spread":
            scores = rng.exponential(size=n) ** 2
        elif kind == "ties":
            scores = rng.choice(np.append(rng.random(3), 0.0), size=n)
        else:
            scores = np.full(n, rng.random())
        scores = scores * 10.0 ** data.draw(st.integers(-300, 300), label="exponent")
        upper, lower = np.percentile(scores, (75, 25))
        # a zero quartile spread against the 1e-12 clamp can overflow
        # median_iqr's quotient in both forms alike: a true overflow
        with np.errstate(over="ignore"):
            want = (scores - np.median(scores)) / max(float(upper - lower), anomaly._EPS)
            assert same_bits(anomaly._normalize_raw(scores, "median_iqr"), want)
            std = float(scores.std())
        if std < np.inf:
            want = (scores - scores.mean()) / max(std, anomaly._EPS)
        else:
            e = int(np.frexp(scores.max())[1])
            scaled = np.ldexp(scores, -e)
            assert np.all((scaled == 0) | (scaled >= np.finfo(float).tiny))
            assert scaled.std() > 0 and np.array_equal(np.ldexp(scaled, e), scores)
            want = (scaled - scaled.mean()) / scaled.std()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_bits(anomaly._normalize_raw(scores, "mean_std"), want)

    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_mean_std_keeps_the_strict_order_where_numpy_overflows(self, scale):
        """numpy's std of these scores overflows, and the plain formula gave
        [-0, -0, -0, 0]: a constant vector that detect thresholded."""
        scores = np.array([1.0, 2.0, 3.0, 9.0]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = anomaly._normalize_raw(scores, "mean_std")
            with pytest.raises(RuntimeWarning, match="overflow"):
                scores.std()
        assert np.all(np.diff(got) > 0)
        assert same_bits(got, anomaly._normalize_raw(scores * 2.0**-500, "mean_std"))
        assert np.allclose(got, [-0.88354126, -0.56225353, -0.2409658, 1.68676059])

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


def adjacent_float_ties(rng, n):
    """Scores a few ulps apart, so many midpoints round onto a score."""
    base = rng.normal()
    return base + np.spacing(base) * rng.integers(-3, 4, size=n)


def sparse_labels(rng, n, rate=0.1):
    labels = (rng.random(n) < rate).astype(np.int64)
    labels[0], labels[1] = 0, 1
    return labels


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

    @pytest.mark.parametrize("n", [1500, 4000])
    def test_adjacent_float_ties(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            scores = adjacent_float_ties(rng, n)
            labels = sparse_labels(rng, n, rate=rng.uniform(0.05, 0.6))
            assert select_threshold(scores, labels) == brute_force_threshold(scores, labels)

    def test_signed_zeros_and_long_ties_match_exhaustive_search(self):
        # -0.0 == 0.0, and the subnormal pool puts midpoints at -0.0 and 0.0
        pools = ([-1.0, -0.0, 0.0, 0.5, 1.0], [-5e-324, -0.0, 0.0, 5e-324])
        rng = np.random.default_rng(20)
        for case in range(300):
            pool = np.array(pools[case % 2])
            n = int(rng.integers(2, 200))
            if case % 3 == 0:
                scores = rng.choice(pool, size=n)
            else:
                # a few long runs of one value each, in sorted or shuffled order
                runs = rng.multinomial(n, rng.dirichlet(np.ones(pool.size)))
                scores = np.repeat(pool, runs)
                if case % 3 == 2:
                    rng.shuffle(scores)
            labels = rng.integers(0, 2, size=n)
            if labels.all() or not labels.any():
                labels[rng.integers(n)] ^= 1
            got = select_threshold(scores, labels)
            assert same_bits(got, _brute_force_threshold(scores, labels)), f"case {case}"

    def test_continuous_scores_with_tied_copies(self):
        rng = np.random.default_rng(81)
        scores = rng.normal(size=3000)
        scores[::7] = scores[1::7][: scores[::7].size]
        labels = sparse_labels(rng, scores.size)
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


    @pytest.mark.parametrize("n", [1500, 3000])
    def test_large_lists_with_adjacent_float_ties(self, n):
        rng = np.random.default_rng(n + 1)
        scores = adjacent_float_ties(rng, n)
        labels = sparse_labels(rng, n)
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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("stride", 1.5, "stride must be an integer, got 1.5"),
            ("stride", True, "stride must be an integer, got True"),
            ("normalize_per_channel", "yes", "normalize_per_channel must be a bool, got 'yes'"),
            ("normalize_per_channel", 1, "normalize_per_channel must be a bool, got 1"),
            ("eta", "0.1", "eta must be a JSON number, got '0.1'"),
            ("eta", True, "eta must be a JSON number, got True"),
            ("eta", float("nan"), "eta must be finite and positive, got nan"),
            ("eta", float("inf"), "eta must be finite and positive, got inf"),
            ("eta", 0.0, "eta must be finite and positive, got 0.0"),
            ("selector", "all", "selector must be None or a ParamSelector, got 'all'"),
        ],
        ids=["stride_half", "stride_bool", "per_channel_str", "per_channel_int", "eta_str",
             "eta_bool", "eta_nan", "eta_inf", "eta_zero", "selector_str"],
    )
    def test_rejects_mistyped_field(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DetectConfig(**{field: value})

    def test_integral_float_stride_becomes_int(self):
        assert type(DetectConfig(stride=2.0).stride) is int

    def test_eta_is_checked_even_where_unused(self):
        # reconstruction_error never reads eta, so detect would run with a NaN
        with pytest.raises(ValueError, match="^eta must be finite and positive, got nan$"):
            DetectConfig(eta=float("nan"), method="reconstruction_error")
        with pytest.raises(ValueError, match="^eta must be finite and positive, got 1000"):
            DetectConfig(eta=10**400, method="reconstruction_error")

    def test_numeric_eta_becomes_float(self):
        assert type(DetectConfig(eta=np.float32(0.5)).eta) is float
        assert DetectConfig(eta=1).eta == 1.0


@pytest.fixture(scope="module")
def trained_scenario():
    train_series, val, test = bench_suite.anomaly_scenario(0)
    state = bench_suite.anomaly_model(train_series, 0)
    return state, val, test


class TestDetect:
    def config(self, **kw):
        return DetectConfig(**kw)

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
        # per-channel gradients are closed-form; nothing in the runtime uses the tape
        calls = []
        original = autodiff.backward

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(autodiff, "backward", counting)
        state, val, test = trained_scenario
        detect(state, test, DetectConfig(), val_series=val)
        assert len(calls) == 0

    def test_tracin_detect_runs_no_tape_backward_pass(self, trained_scenario, monkeypatch):
        # tracin's whole-window gradient is closed-form as well
        def refuse(*args, **kwargs):
            raise AssertionError("detect ran a tape backward pass")

        monkeypatch.setattr(autodiff, "backward", refuse)
        state, val, test = trained_scenario
        detect(state, test, DetectConfig(method="tracin_self_influence"), val_series=val)

    @pytest.mark.parametrize("selector", ["last_layer", "all"])
    def test_tracin_scores_equal_per_window_tracin(self, trained_scenario, selector):
        state, val, test = trained_scenario
        chosen = (all_params_selector if selector == "all" else last_layer_selector)(state.spec)
        config = self.config(method="tracin_self_influence", selector=chosen)
        report = detect(state, test, config, val_series=val)
        windows = make_windows(test, state.spec.total_rows)
        want = [tracin(state, w, w, None, chosen) for w in windows]
        assert np.array_equal(report.raw_scores.scores, want)

    @pytest.mark.parametrize("case", ["no_val", "unlabeled_val"])
    def test_val_checked_before_scoring(self, trained_scenario, monkeypatch, case):
        state, val, test = trained_scenario
        calls = []
        monkeypatch.setattr(anomaly, "_score_columns", lambda *args: calls.append(args))
        bare = None if case == "no_val" else bench_suite.core.MtsSeries(
            val.values, val.channel_names
        )
        with pytest.raises(ValueError, match="validation series"):
            detect(state, test, self.config(), val_series=bare)
        assert calls == []

    @pytest.mark.parametrize("per_channel", [False, True])
    def test_one_window_split_cannot_be_normalized(self, trained_scenario, per_channel):
        state, _, test = trained_scenario
        rows = state.spec.total_rows
        one = bench_suite.core.MtsSeries(
            test.values[:rows], test.channel_names, test.timestep_labels[:rows]
        )
        config = self.config(threshold_on="test", normalize_per_channel=per_channel)
        with pytest.raises(ValueError, match="need at least 2 scores to normalize, got 1"):
            detect(state, one, config)

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


def assert_same_series(got: ScoreSeries, want: ScoreSeries):
    assert got.method == want.method
    assert got.origins == want.origins
    assert same_bits(got.scores, want.scores)


def split_labels(series, windows):
    return series.timestep_labels[windows.origins]


@pytest.mark.parametrize("threshold_on", ["val", "test"])
class TestDetectEqualsThePublicRoute:
    """detect scores each split as plain arrays; its report must equal what
    score_windows, normalize_scores and select_threshold give, bit for bit."""

    @pytest.mark.parametrize("method", METHODS)
    def test_scores_and_threshold(self, trained_scenario, method, threshold_on):
        state, val, test = trained_scenario
        config = DetectConfig(method=method, threshold_on=threshold_on)
        report = detect(state, test, config, val_series=val)
        rows = state.spec.total_rows
        test_windows = make_windows(test, rows)
        raw = score_windows(state, test_windows, method)
        assert_same_series(report.raw_scores, raw)
        assert_same_series(report.normalized_scores, normalize_scores(raw, report.normalization))
        assert np.array_equal(report.labels, split_labels(test, test_windows))
        source = val if threshold_on == "val" else test
        windows = make_windows(source, rows)
        normalized = normalize_scores(score_windows(state, windows, method), report.normalization)
        h = select_threshold(normalized, split_labels(source, windows))
        assert same_bits(report.threshold, h)

    @pytest.mark.parametrize("method", ["cif_self_influence", "reconstruction_error"])
    def test_per_channel_normalization(self, trained_scenario, method, threshold_on):
        state, val, test = trained_scenario
        config = DetectConfig(method=method, threshold_on=threshold_on, normalize_per_channel=True)
        report = detect(state, test, config, val_series=val)
        rows = state.spec.total_rows
        columns_of = self_influence_rows if method == "cif_self_influence" else channel_losses

        def per_channel(series):
            windows = make_windows(series, rows)
            columns = columns_of(state, windows)
            normalized = [
                normalize_scores(ScoreSeries(c, method, windows.origins), report.normalization)
                for c in columns.T
            ]
            best = np.max([n.scores for n in normalized], axis=0)
            return ScoreSeries(best, method, windows.origins), split_labels(series, windows)

        assert_same_series(report.raw_scores, score_windows(state, make_windows(test, rows), method))
        assert_same_series(report.normalized_scores, per_channel(test)[0])
        source = val if threshold_on == "val" else test
        assert same_bits(report.threshold, select_threshold(*per_channel(source)))

    def test_builds_two_score_series(self, trained_scenario, monkeypatch, threshold_on):
        state, val, test = trained_scenario
        built = []
        check = ScoreSeries.__post_init__

        def counting(series):
            built.append(series)
            check(series)

        monkeypatch.setattr(ScoreSeries, "__post_init__", counting)
        report = detect(state, test, DetectConfig(threshold_on=threshold_on), val_series=val)
        assert len(built) == 2
        assert built[0] is report.raw_scores and built[1] is report.normalized_scores


@pytest.mark.parametrize("scaled", ["val", "test"])
def test_detect_rejects_non_finite_scores_on_either_split(scaled):
    # a zero reconstructor scores the two windows over one 7e149 entry
    # 4.9e299 and every other window 0: finite raw scores whose median_iqr
    # normalization (IQR 0, clamped to 1e-12) overflows
    spec = ModelSpec("linear_ci", 2, 1)
    state = ModelState(spec, {"weight": np.zeros((2, 2)), "bias": np.zeros(2)})
    labels = np.zeros(40, dtype=np.int64)
    labels[30] = 1
    spiked = np.zeros((40, 1))
    spiked[20] = 7e149
    splits = {split: bench_suite.core.MtsSeries(np.zeros((40, 1)), ("a",), labels)
              for split in ("val", "test")}
    splits[scaled] = bench_suite.core.MtsSeries(spiked, ("a",), labels)
    config = DetectConfig(method="reconstruction_error", normalization="median_iqr")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        autodiff.NonFiniteError, match="^scores must be finite$"
    ):
        detect(state, splits["test"], config, val_series=splits["val"])


def test_detect_refuses_an_overflowing_loss_on_either_split(trained_scenario):
    # squared errors of a series scaled by 1e160 pass the float range, so
    # channel_losses refuses the forward pass on whichever split has them
    state, val, test = trained_scenario
    for scaled in ("val", "test"):
        splits = {"val": val, "test": test}
        series = splits[scaled]
        splits[scaled] = bench_suite.core.MtsSeries(
            series.values * 1e160, series.channel_names, series.timestep_labels
        )
        config = DetectConfig(method="reconstruction_error")
        with np.errstate(over="ignore"), pytest.raises(
            autodiff.NonFiniteError, match="^forward pass produced non-finite values$"
        ):
            detect(state, splits["test"], config, val_series=splits["val"])
