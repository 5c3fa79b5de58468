import numpy as np
import pytest
from hypothesis import given, strategies as st

from chinf import anomaly, autodiff, core, data, influence, models, pruning


def series(t=20, n=3, labels=None, seed=0):
    rng = np.random.default_rng(seed)
    names = tuple(f"s{i}" for i in range(n))
    return core.MtsSeries(rng.normal(size=(t, n)), names, labels)


class TestMtsSeries:
    def test_values_are_float64_and_read_only(self):
        s = series()
        assert s.values.dtype == np.float64
        with pytest.raises(ValueError):
            s.values[0, 0] = 1.0

    def test_rejects_wrong_name_count(self):
        with pytest.raises(ValueError, match="channel names"):
            core.MtsSeries(np.zeros((4, 3)), ("a", "b"))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            core.MtsSeries(np.zeros((4, 2)), ("a", "a"))

    def test_rejects_non_finite(self):
        bad = np.zeros((4, 2))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            core.MtsSeries(bad, ("a", "b"))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="0 or 1"):
            series(labels=np.array([0, 1, 2] + [0] * 17))
        with pytest.raises(ValueError, match="length"):
            core.MtsSeries(np.zeros((4, 1)), ("a",), np.array([0, 1]))


class TestMakeWindows:
    def test_count_and_first_window(self):
        s = series(t=100)
        wins = core.make_windows(s, 10)
        assert len(wins) == 91
        assert np.array_equal(wins[0].values, s.values[0:10])
        assert wins[0].origin_t == 9

    def test_single_window_boundary(self):
        s = series(t=10)
        wins = core.make_windows(s, 10)
        assert len(wins) == 1
        assert wins[0].origin_t == 9

    def test_window_too_long(self):
        with pytest.raises(ValueError, match="window exceeds series length"):
            core.make_windows(series(t=5), 10)

    def test_stride_windows_tile_the_series(self):
        s = series(t=24)
        wins = core.make_windows(s, 6, stride=6)
        joined = np.concatenate([w.values for w in wins])
        assert np.array_equal(joined, s.values)

    @given(
        t=st.integers(1, 60),
        w=st.integers(1, 60),
        # a stride beyond int64 still gives the first window alone
        stride=st.integers(1, 7) | st.just(10**30),
    )
    def test_count_formula(self, t, w, stride):
        s = series(t=t)
        if w > t:
            with pytest.raises(ValueError):
                core.make_windows(s, w, stride)
            return
        wins = core.make_windows(s, w, stride)
        assert len(wins) == (t - w) // stride + 1
        for k, win in enumerate(wins):
            assert win.origin_t == k * stride + w - 1
            assert np.array_equal(win.values, s.values[k * stride : k * stride + w])


class TestWindowStack:
    def test_values_are_one_read_only_contiguous_stack(self):
        s = series(t=30)
        wins = core.make_windows(s, 5, stride=2)
        assert isinstance(wins, core.WindowStack)
        assert wins.values.shape == (13, 5, 3)
        assert wins.values.dtype == np.float64 and wins.values.flags.c_contiguous
        assert wins.origins.dtype == np.int64
        assert np.array_equal(wins.origins, np.arange(13) * 2 + 4)
        with pytest.raises(ValueError):
            wins.values[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            wins.origins[0] = 0
        # the stack owns a copy: it does not alias the series
        assert not np.shares_memory(wins.values, s.values)

    def test_int_index_gives_a_window_and_slice_a_stack(self):
        s = series(t=30)
        wins = core.make_windows(s, 5, stride=2)
        win = wins[-1]
        assert isinstance(win, core.MtsWindow)
        assert win.origin_t == 28 and isinstance(win.origin_t, int)
        assert np.array_equal(win.values, s.values[24:29])
        part = wins[3:7]
        assert isinstance(part, core.WindowStack) and len(part) == 4
        assert np.array_equal(part.values, wins.values[3:7])
        assert np.array_equal(part.origins, wins.origins[3:7])
        assert [w.origin_t for w in wins] == list(wins.origins)
        with pytest.raises(IndexError):
            wins[13]

    def test_as_window_stack_passes_a_stack_and_stacks_a_list(self):
        wins = core.make_windows(series(t=12), 4)
        assert core.as_window_stack(wins) is wins
        listed = core.as_window_stack([wins[2], wins[0]])
        assert np.array_equal(listed.values, wins.values[[2, 0]])
        assert listed.origins.tolist() == [5, 3]
        with pytest.raises(ValueError, match="nonempty"):
            core.as_window_stack([])
        with pytest.raises(ValueError, match="nonempty"):
            wins[4:4]

    def test_list_of_different_shapes_names_both(self):
        five, six = core.MtsWindow(np.zeros((5, 2)), 4), core.MtsWindow(np.zeros((6, 2)), 5)
        with pytest.raises(ValueError, match=r"one shape, got \(5, 2\) and \(6, 2\)"):
            core.as_window_stack([five, five, six])
        state = models.init_params(models.ModelSpec("linear_ci", 5, 2), 0)
        with pytest.raises(ValueError, match=r"\(5, 2\) and \(6, 2\)"):
            influence.influence_matrix(state, five, six, eta=1.0)

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError, match="nonempty and 3-D"):
            core.WindowStack(np.zeros((4, 3)), np.arange(4))
        with pytest.raises(ValueError, match="finite"):
            core.WindowStack(np.full((1, 2, 2), np.nan), [1])
        with pytest.raises(ValueError, match="2 origins for 3 windows"):
            core.WindowStack(np.zeros((3, 2, 2)), [1, 2])

    def test_batch_paths_build_no_window_objects(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a batch path built an MtsWindow")

        cfg = data.SyntheticConfig(clusters=2, channels_per_cluster=2, length=240, seed=5)
        spike = data.AnomalySpec("spike", (1,), ((150, 156), (205, 211)), 2.0)
        labeled = data.inject_anomalies(data.gen_synthetic(cfg), spike)
        split = core.chronological_split(labeled, 0.5, 0.25)
        spec = models.ModelSpec("mlp_ci", window=6, channels=4, hidden=3, horizon=2)
        config = models.TrainConfig(epochs=2, learning_rate=0.01, batch_size=8, seed=0)
        monkeypatch.setattr(core.MtsWindow, "__post_init__", refuse)
        windows = core.make_windows(split.train, spec.total_rows)
        state = models.train(models.init_params(spec, 0), windows, config)
        influence.self_influence_rows(state, windows)
        for method in ("cif_self_influence", "tracin_self_influence", "reconstruction_error"):
            anomaly.detect(state, split.test, anomaly.DetectConfig(method=method), split.val)
        pruning.prune_and_eval(split, spec, config, 2, "influence_equidistant")


class TestWindowLabel:
    def test_label_of_last_timestep(self):
        labels = np.zeros(20, dtype=np.int64)
        labels[2] = 1
        s = series(labels=labels)
        win = core.make_windows(s, 3)[0]  # covers rows 0..2
        assert win.origin_t == 2
        assert core.window_label(win, s) == 1

    def test_all_zero_labels(self):
        s = series(labels=np.zeros(20, dtype=np.int64))
        assert all(core.window_label(w, s) == 0 for w in core.make_windows(s, 4))

    def test_unlabeled_series(self):
        s = series()
        win = core.make_windows(s, 4)[0]
        with pytest.raises(ValueError, match="no timestep labels"):
            core.window_label(win, s)


class TestSplit:
    def test_parts_are_contiguous(self):
        s = series(t=40)
        split = core.chronological_split(s, 0.5, 0.25)
        assert split.train.n_timesteps == 20
        assert split.val.n_timesteps == 10
        assert split.test.n_timesteps == 10
        rejoined = np.concatenate(
            [split.train.values, split.val.values, split.test.values]
        )
        assert np.array_equal(rejoined, s.values)

    def test_train_split_must_be_clean(self):
        labels = np.zeros(40, dtype=np.int64)
        labels[1] = 1
        s = series(t=40, labels=labels)
        with pytest.raises(ValueError, match="train split"):
            core.chronological_split(s, 0.5, 0.25)

    def test_channel_name_mismatch(self):
        a = series(t=10)
        b = core.MtsSeries(np.zeros((5, 3)), ("x", "y", "z"))
        with pytest.raises(ValueError, match="channel names"):
            core.DatasetSplit(a, b, b)


def _report(**arrays):
    scores = anomaly.ScoreSeries([0.0, 1.0], "cif_self_influence", (0, 1))
    arrays = dict({"predictions": [0, 1], "labels": [0, 1]}, **arrays)
    return anomaly.AnomalyReport(scores, scores, "mean_std", 0.5, precision=1.0, recall=1.0,
                                 f1=1.0, **arrays)


_LINEAR = models.ModelSpec("linear_ci", window=2, channels=1)

# container field -> (the caller's array, the array the container holds of it)
HOLDERS = {
    "MtsSeries.values": (np.zeros((4, 2)), lambda a: core.MtsSeries(a, ("a", "b")).values),
    "MtsSeries.timestep_labels": (
        np.zeros(4, dtype=np.int64),
        lambda a: core.MtsSeries(np.zeros((4, 1)), ("a",), a).timestep_labels,
    ),
    "MtsWindow.values": (np.zeros((2, 2)), lambda a: core.MtsWindow(a, 1).values),
    "WindowStack.values": (np.zeros((1, 2, 2)), lambda a: core.WindowStack(a, [1]).values),
    "WindowStack.origins": (
        np.array([1], dtype=np.int64), lambda a: core.WindowStack(np.zeros((1, 2, 2)), a).origins
    ),
    "ModelState.params": (
        np.zeros((2, 2)),
        lambda a: models.ModelState(_LINEAR, {"weight": a, "bias": np.zeros(2)}).params["weight"],
    ),
    "GradientVector.values": (np.zeros(3), lambda a: autodiff.GradientVector(a, "s").values),
    "InfluenceMatrix.values": (
        np.zeros((2, 2)), lambda a: influence.InfluenceMatrix(a, 1.0, "s").values
    ),
    "ChannelScoreTable.scores": (np.zeros(3), lambda a: pruning.ChannelScoreTable(a).scores),
    "ScoreSeries.scores": (
        np.zeros(2), lambda a: anomaly.ScoreSeries(a, "cif_self_influence", (0, 1)).scores
    ),
    "AnomalyReport.predictions": (np.array([0, 1]), lambda a: _report(predictions=a).predictions),
    "AnomalyReport.labels": (np.array([0, 1]), lambda a: _report(labels=a).labels),
}


@pytest.mark.parametrize("holder", list(HOLDERS))
def test_container_holds_a_private_read_only_copy(holder):
    given_array, hold = HOLDERS[holder]
    mine = given_array.copy()
    held = hold(mine)
    assert mine.flags.writeable and not held.flags.writeable
    assert not np.shares_memory(mine, held)
    before = held.copy()
    mine += 1
    assert np.array_equal(held, before)
