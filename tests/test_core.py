import ast
import re
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import chinf
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

    @pytest.mark.parametrize(
        "w, stride, message",
        [
            (3, 1.5, "stride must be an integer, got 1.5"),
            (3, True, "stride must be an integer, got True"),
            (1.5, 1, "window length must be an integer, got 1.5"),
            ("3", 1, "window length must be an integer, got '3'"),
        ],
        ids=["stride_half", "stride_bool", "w_half", "w_str"],
    )
    def test_rejects_non_integral_w_or_stride(self, w, stride, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            core.make_windows(series(t=10), w, stride)

    def test_integral_float_stride_is_an_int(self):
        assert core.make_windows(series(t=10), 3.0, 2.0).origins.tolist() == [2, 4, 6, 8]

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
    def test_values_are_a_read_only_view_of_the_series(self):
        raw = np.random.default_rng(0).normal(size=(30, 3))
        s = core.MtsSeries(raw, ("a", "b", "c"))
        wins = core.make_windows(s, 5, stride=2)
        assert isinstance(wins, core.WindowStack)
        assert wins.values.shape == (13, 5, 3)
        assert wins.values.dtype == np.float64
        assert all(window.flags.c_contiguous for window in wins.values)
        assert wins.origins.dtype == np.int64
        assert np.array_equal(wins.origins, np.arange(13) * 2 + 4)
        with pytest.raises(ValueError):
            wins.values[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            wins.values.setflags(write=True)
        with pytest.raises(ValueError):
            wins.origins[0] = 0
        # the stack views the series' private copy, not the caller's array
        assert np.shares_memory(wins.values, s.values)
        assert not np.shares_memory(wins.values, raw)
        assert not np.shares_memory(wins.origins, s.values)

    def test_column_subset_series_windows_to_contiguous_windows(self):
        # numpy gives values[:, [0, 4, 9]] in F order; the series copies to C order
        full = series(t=40, n=10)
        columns = [0, 4, 9]
        subset = core.MtsSeries(full.values[:, columns], [full.channel_names[j] for j in columns])
        assert subset.values.flags.c_contiguous
        for stride in (1, 3):
            wins = core.make_windows(subset, 6, stride)
            # window k starts k * stride rows into the series, its rows one under another
            assert wins.values.strides == (stride * 3 * 8, 3 * 8, 8)
            assert all(window.flags.c_contiguous for window in wins.values)
            assert np.shares_memory(wins.values, subset.values)
            assert not np.shares_memory(wins.values, full.values)
            want = core.make_windows(full, 6, stride).values[..., columns]
            assert np.array_equal(wins.values, want)

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


class TestCheckedStacks:
    """make_windows and slicing view, and as_window_stack copies, values
    that a series, a window or a stack has already checked, through
    WindowStack._of_view and _of_checked: no finiteness scan, every other
    check kept."""

    def test_empty_mixed_and_too_long_still_raise(self):
        wins = core.make_windows(series(t=12), 4)
        five, six = core.MtsWindow(np.zeros((5, 2)), 4), core.MtsWindow(np.zeros((6, 2)), 5)
        for build, message in (
            (lambda: core.as_window_stack([]), "nonempty and 3-D"),
            (lambda: wins[4:4], "nonempty and 3-D"),
            (lambda: core.WindowStack._of_checked(np.zeros((0, 4, 3)), []), "nonempty and 3-D"),
            (lambda: core.WindowStack._of_checked(np.zeros((4, 3)), np.arange(4)),
             "nonempty and 3-D"),
            (lambda: core.as_window_stack([five, six]), r"one shape, got \(5, 2\) and \(6, 2\)"),
            (lambda: core.make_windows(series(t=3), 4), "window exceeds series length"),
        ):
            with pytest.raises(ValueError, match=message):
                build()

    def test_origins_are_still_checked(self):
        window = core.MtsWindow(np.zeros((4, 3)), 1.7)
        with pytest.raises(ValueError, match="origins must be a vector of integers"):
            core.as_window_stack([window])
        with pytest.raises(ValueError, match="origins must be a vector of integers"):
            core.WindowStack._of_checked(np.zeros((1, 4, 3)), [1.7])
        with pytest.raises(ValueError, match="2 origins for 3 windows"):
            core.WindowStack._of_checked(np.zeros((3, 4, 3)), [1, 2])

    def test_the_public_constructor_still_scans(self):
        with pytest.raises(core.NonFiniteError, match="^window values must be finite$"):
            core.WindowStack(np.full((1, 2, 2), np.nan), [1])

    def test_views_are_read_only_and_copies_private(self):
        s = series(t=30)
        wins = core.make_windows(s, 5)
        windows = list(wins)
        listed = core.as_window_stack(windows)
        built = core.WindowStack(wins.values, wins.origins)
        callers = [s.values, *(w.values for w in windows)]
        # stack -> the one array it may share memory with
        for stack, source in ((wins, s.values), (wins[3:9:2], s.values), (listed, listed.values),
                              (listed[1:6:2], listed.values), (built, built.values)):
            assert not stack.values.flags.writeable
            assert stack.origins.dtype == np.int64 and not stack.origins.flags.writeable
            assert np.shares_memory(stack.values, source)
            for other in callers:
                assert np.shares_memory(stack.values, other) == (other is source), stack
            # the rows it gathers from hold each window at its start
            rows, starts = stack._layout()
            for b, start in enumerate(starts):
                assert np.array_equal(rows[start : start + 5], stack.values[b])
            assert np.shares_memory(rows, source)
        for stack in (wins, wins[3:9:2], listed[1:6:2]):
            with pytest.raises(ValueError):
                stack.values.setflags(write=True)
        assert listed.values.flags.c_contiguous and built.values.flags.c_contiguous
        assert np.array_equal(listed.values, wins.values)
        assert np.array_equal(listed.origins, wins.origins)
        assert np.array_equal(wins[3:9:2].values, listed.values[3:9:2])

    def test_no_internal_site_scans_the_window_values(self, monkeypatch):
        s = series(t=40)
        windows = list(core.make_windows(s, 6))
        scanned = []

        def counting(values, message):
            scanned.append(message)
            return values

        monkeypatch.setattr(core, "_finite", counting)
        stack = core.make_windows(s, 6)
        stack[2:9]
        core.as_window_stack(windows)
        assert scanned == []
        # the public constructor still goes through the patched rule
        core.WindowStack(stack.values, stack.origins)
        assert scanned == ["window values must be finite"]


# 1 and odd sizes leave the vector's end off every boundary; 40,000 floats
# are past glibc's 128 KiB mmap threshold, where np.empty starts at 16 mod 64
@pytest.mark.parametrize("size", [0, 1, 7, 12_345, 40_000])
def test_aligned_empty_starts_on_a_64_byte_boundary(size):
    buffers = [core._aligned_empty(size) for _ in range(8)]
    for buffer in buffers:
        # numpy leaves an empty slice's data pointer at its base array's
        assert buffer.ctypes.data % 64 == 0 or size == 0
        assert buffer.shape == (size,) and buffer.dtype == np.float64
        assert buffer.flags.writeable and buffer.flags.c_contiguous
        buffer[:] = np.arange(size)
    # live buffers do not overlap
    for k, buffer in enumerate(buffers):
        assert np.array_equal(buffer, np.arange(size)), k


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


def test_all_lists_every_public_name_once():
    # a stale entry breaks `from chinf import *`, a missing one hides a name
    bound = {
        name
        for name, value in vars(chinf).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(chinf.__all__) == sorted(bound)
    namespace = {}
    exec("from chinf import *", namespace)
    assert bound <= namespace.keys()


def _prune_refit(refit_epochs):
    split = core.chronological_split(series(t=60, n=2), 0.5, 0.25)
    spec = models.ModelSpec("mlp_mix", window=3, channels=2, hidden=2, horizon=1)
    config = models.TrainConfig(epochs=1)
    return pruning.prune_cells(split, spec, config, [(1, "continuous")], refit_epochs=refit_epochs)


# (what the message names, the field's lower bound, a build taking the value)
BOUNDS = {
    "ModelSpec.window": ("window", 1, lambda v: models.ModelSpec("mlp_ci", v, 2, hidden=3)),
    "ModelSpec.channels": ("channels", 1, lambda v: models.ModelSpec("mlp_ci", 4, v, hidden=3)),
    "ModelSpec.hidden": ("hidden", 0, lambda v: models.ModelSpec("linear_ci", 4, 2, hidden=v)),
    "ModelSpec.horizon": ("horizon", 0, lambda v: models.ModelSpec("linear_ci", 4, 2, horizon=v)),
    "TrainConfig.epochs": ("epochs", 1, lambda v: models.TrainConfig(epochs=v)),
    "TrainConfig.batch_size": ("batch_size", 1, lambda v: models.TrainConfig(batch_size=v)),
    "TrainConfig.seed": ("seed", 0, lambda v: models.TrainConfig(seed=v)),
    "SyntheticConfig.clusters": ("clusters", 1, lambda v: data.SyntheticConfig(clusters=v)),
    "SyntheticConfig.channels_per_cluster": (
        "channels_per_cluster", 1, lambda v: data.SyntheticConfig(channels_per_cluster=v)
    ),
    "SyntheticConfig.length": ("length", 2, lambda v: data.SyntheticConfig(length=v)),
    "SyntheticConfig.seed": ("seed", 0, lambda v: data.SyntheticConfig(seed=v)),
    "DetectConfig.stride": ("stride", 1, lambda v: anomaly.DetectConfig(stride=v)),
    "make_windows.w": ("window length", 1, lambda v: core.make_windows(series(), v)),
    "make_windows.stride": ("stride", 1, lambda v: core.make_windows(series(), 2, v)),
    "prune_cells.refit_epochs": ("refit_epochs", 1, _prune_refit),
}


@pytest.mark.parametrize("field", list(BOUNDS))
def test_every_integer_bound_has_one_wording(field):
    what, low, build = BOUNDS[field]
    build(low)
    for below in (low - 1, float(low - 1), low - 10**30):
        with pytest.raises(ValueError) as caught:
            build(below)
        assert str(caught.value) == f"{what} must be at least {low}, got {int(below)}"


def test_no_hand_written_bound_wording_is_left():
    # the modules holding config types and make_windows; "must be finite
    # and non-negative" is core._finite_number's float rule
    for module in (anomaly, core, data, influence, models, pruning):
        text = open(module.__file__, encoding="utf-8").read()
        assert not re.search(r"must be (positive|non-negative|>=)", text), module.__name__


def test_only_core_finite_tests_finiteness():
    """core._finite is the one finiteness rule: nothing else in src/chinf
    names np.isfinite, and math.isfinite appears only there and in
    cli._typed, which makes a non-finite config number a ConfigError."""
    uses = set()
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk is breadth first, so an inner function overwrites its nodes
        scope = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update(dict.fromkeys(ast.walk(func), func.name))
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else getattr(node, "id", getattr(node, "name", None)))
            if name == "isfinite":
                owner = getattr(getattr(node, "value", None), "id", "")
                uses.add((f"{owner}.isfinite", f"{path.stem}.{scope.get(node, '<module>')}"))
    assert uses == {
        ("np.isfinite", "core._finite"),
        ("math.isfinite", "core._finite"),
        ("math.isfinite", "cli._typed"),
    }


METHODS = "('cif_self_influence', 'tracin_self_influence', 'reconstruction_error')"
# every fixed-name membership check, and its message byte for byte
CHOICES = {
    "ModelSpec.architecture": (
        lambda: models.ModelSpec("cnn", 4, 2),
        "unknown architecture 'cnn', expected one of ('linear_ci', 'mlp_ci', 'mlp_mix')",
    ),
    "ModelSpec.activation": (
        lambda: models.ModelSpec("mlp_ci", 4, 2, hidden=3, activation="gelu"),
        "unknown activation 'gelu', expected one of ('relu', 'tanh')",
    ),
    "DetectConfig.method": (
        lambda: anomaly.DetectConfig(method="lof"),
        f"unknown method 'lof', expected one of {METHODS}",
    ),
    "DetectConfig.normalization": (
        lambda: anomaly.DetectConfig(normalization="minmax"),
        "unknown normalization 'minmax', expected one of ('mean_std', 'median_iqr', 'best_of_both')",
    ),
    "DetectConfig.threshold_on": (
        lambda: anomaly.DetectConfig(threshold_on="train"),
        "unknown threshold_on 'train', expected one of ('val', 'test')",
    ),
    "ScoreSeries.method": (
        lambda: anomaly.ScoreSeries([0.0], "lof", (0,)),
        f"unknown method 'lof', expected one of {METHODS}",
    ),
    "normalize_scores.mode": (
        lambda: anomaly.normalize_scores(
            anomaly.ScoreSeries([0.0, 1.0], "cif_self_influence", (0, 1)), "best_of_both"
        ),
        "unknown normalization 'best_of_both', expected one of ('mean_std', 'median_iqr')",
    ),
    "AnomalySpec.kind": (
        lambda: data.AnomalySpec("dip", (0,), ((0, 2),)),
        "unknown anomaly kind 'dip', expected one of ('spike', 'drift', 'correlation_break')",
    ),
}


@pytest.mark.parametrize("site", list(CHOICES))
def test_every_choice_has_one_wording(site):
    build, message = CHOICES[site]
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message
