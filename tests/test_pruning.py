from dataclasses import replace

import numpy as np
import pytest

from chinf import autodiff, influence, models, pruning
from chinf import (
    ChannelScoreTable,
    ModelSpec,
    MtsSeries,
    WindowStack,
    TrainConfig,
    accumulate_channel_scores,
    chronological_split,
    gen_synthetic,
    init_params,
    make_windows,
    prune_and_eval,
    prune_cells,
    save_pruning_csv,
    select_channels,
    self_influence_per_channel,
    train,
)
from chinf.data import SyntheticConfig
from chinf.pruning import STRATEGIES

from bench_suite import random_window


def table_with_scores(scores):
    return ChannelScoreTable(scores)


def small_split(seed=1):
    cfg = SyntheticConfig(
        clusters=2, channels_per_cluster=2, length=200, noise_std=0.02, seed=seed
    )
    return chronological_split(gen_synthetic(cfg), 0.5, 0.25)


SMALL_SPEC = ModelSpec("linear_ci", window=10, channels=4, horizon=3)
SMALL_CONFIG = TrainConfig(epochs=3, learning_rate=1e-2, batch_size=16, seed=0)


def trained_on(split, spec=SMALL_SPEC, config=SMALL_CONFIG):
    windows = make_windows(split.train, spec.total_rows)
    return train(init_params(spec, config.seed), windows, config), windows


class TestChannelScoreTable:
    def test_ties_must_break_by_index(self):
        # the table derives its ranking: ascending scores, ties by index
        table = ChannelScoreTable(np.array([2.0, 5.0, -1.0, 5.0, 2.0]))
        assert table.ranking == (2, 0, 4, 1, 3)
        with pytest.raises(TypeError):
            ChannelScoreTable(np.array([1.0, 2.0]), (0, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scores(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ChannelScoreTable(np.array([1.0, bad]))


class TestAccumulate:
    def test_single_window_is_its_self_influence(self):
        split = small_split()
        state, _ = trained_on(split)
        win = make_windows(split.val, SMALL_SPEC.total_rows)[0]
        table = accumulate_channel_scores(state, [win])
        assert np.array_equal(table.scores, self_influence_per_channel(state, win))

    def test_duplicating_one_window_doubles_scores(self):
        split = small_split()
        state, _ = trained_on(split)
        win = make_windows(split.val, SMALL_SPEC.total_rows)[0]
        once = accumulate_channel_scores(state, [win])
        twice = accumulate_channel_scores(state, [win, win])
        assert np.array_equal(twice.scores, 2.0 * once.scores)
        assert twice.ranking == once.ranking

    def test_additive_over_batches(self):
        split = small_split()
        state, _ = trained_on(split)
        wins = make_windows(split.val, SMALL_SPEC.total_rows)[:12]
        whole = accumulate_channel_scores(state, wins).scores
        parts = (
            accumulate_channel_scores(state, wins[:5]).scores
            + accumulate_channel_scores(state, wins[5:]).scores
        )
        assert np.max(np.abs(whole - parts)) <= 1e-9 * (np.max(np.abs(whole)) + 1e-12)

    def test_duplicate_channels_accumulate_equal_scores(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(160, 3))
        values = np.column_stack([base[:, 0], base[:, 1], base[:, 0], base[:, 2]])
        series = MtsSeries(values, ("a", "b", "a2", "c"))
        split = chronological_split(series, 0.5, 0.25)
        spec = ModelSpec("mlp_ci", window=8, channels=4, hidden=5, horizon=2)
        state, _ = trained_on(split, spec, SMALL_CONFIG)
        table = accumulate_channel_scores(
            state, make_windows(split.val, spec.total_rows)
        )
        a, a2 = table.scores[0], table.scores[2]
        assert abs(a - a2) <= 1e-9 * (abs(a) + 1e-12)

    def test_equals_a_window_order_row_loop(self):
        split = small_split()
        state, _ = trained_on(split)
        wins = make_windows(split.val, SMALL_SPEC.total_rows)
        rows = influence.self_influence_rows(state, wins)
        total = rows[0]
        for row in rows[1:]:
            total = total + row
        assert np.array_equal(accumulate_channel_scores(state, wins).scores, total)

    def test_empty_windows_rejected(self):
        split = small_split()
        state, _ = trained_on(split)
        with pytest.raises(ValueError, match="nonempty"):
            accumulate_channel_scores(state, [])

    def test_untrained_state_needs_explicit_eta(self):
        state = init_params(SMALL_SPEC, seed=0)
        win = random_window(np.random.default_rng(0), SMALL_SPEC.total_rows, 4)
        with pytest.raises(ValueError, match="no recorded training learning rate"):
            accumulate_channel_scores(state, [win])
        accumulate_channel_scores(state, [win], eta=1.0)


class TestEquidistantSelect:
    """select_channels' influence_equidistant strategy."""

    def test_eight_channels_four_picks(self):
        # scores ascend with the index, so ranked position k is channel k
        table = table_with_scores(np.arange(8.0))
        assert select_channels(table, 4, "influence_equidistant") == (0, 2, 4, 6)

    def test_returns_original_indices_not_positions(self):
        table = table_with_scores(np.array([3.0, 0.0, 2.0, 1.0]))
        # ascending ranking is (1, 3, 2, 0); positions 0 and 2 of it
        assert select_channels(table, 2, "influence_equidistant") == (1, 2)

    def test_m_equals_n_selects_everything(self):
        table = table_with_scores(np.random.default_rng(0).normal(size=6))
        assert select_channels(table, 6, "influence_equidistant") == (0, 1, 2, 3, 4, 5)

    def test_m_one_selects_lowest_influence(self):
        table = table_with_scores(np.array([0.4, 0.1, 0.9]))
        assert select_channels(table, 1, "influence_equidistant") == (1,)

    def test_uneven_stride(self):
        table = table_with_scores(np.arange(5.0))
        assert select_channels(table, 2, "influence_equidistant") == (0, 2)

    def test_out_of_range(self):
        table = table_with_scores(np.arange(8.0))
        with pytest.raises(ValueError, match="subset size 0 out of range for 8"):
            select_channels(table, 0, "influence_equidistant")
        with pytest.raises(ValueError, match="subset size 9 out of range for 8"):
            select_channels(table, 9, "influence_equidistant")

    def test_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=12)
        for m in (1, 3, 5, 12):
            assert select_channels(table_with_scores(scores), m, "influence_equidistant") == (
                select_channels(table_with_scores(scores * 3.7), m, "influence_equidistant")
            )


class TestBaselineSelect:
    """select_channels' comparison strategies: continuous, random, most_influence."""

    table = table_with_scores(np.array([0.5, 0.1, 0.8, 0.3, 0.9]))

    def test_continuous(self):
        assert select_channels(self.table, 3, "continuous") == (0, 1, 2)

    def test_random_is_seed_deterministic(self):
        a = select_channels(self.table, 3, "random", seed=11)
        b = select_channels(self.table, 3, "random", seed=11)
        assert a == b
        assert len(set(a)) == 3
        assert all(0 <= c < 5 for c in a)

    def test_most_influence_takes_top_scores(self):
        assert select_channels(self.table, 1, "most_influence") == (4,)
        assert select_channels(self.table, 2, "most_influence") == (2, 4)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy 'pca'"):
            select_channels(self.table, 2, "pca")

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            select_channels(self.table, 6, "continuous")


class TestSelectChannels:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_m_out_of_range(self, strategy):
        table = table_with_scores(np.arange(8.0))
        with pytest.raises(ValueError, match="subset size 0 out of range for 8"):
            select_channels(table, 0, strategy)
        with pytest.raises(ValueError, match="subset size 9 out of range for 8"):
            select_channels(table, 9, strategy)

    @pytest.mark.parametrize("m", [2.5, True, "2"])
    def test_non_integral_size_rejected(self, m):
        table = table_with_scores(np.arange(8.0))
        with pytest.raises(ValueError, match="subset size must be an integer"):
            select_channels(table, m, "continuous")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_sorted_distinct_indices(self, strategy):
        table = table_with_scores(np.random.default_rng(6).normal(size=9))
        for m in range(1, 10):
            selected = select_channels(table, m, strategy, seed=2)
            assert selected == tuple(sorted(set(selected)))
            assert len(selected) == m and all(0 <= c < 9 for c in selected)
            assert all(type(c) is int for c in selected)


class TestPruneAndEval:
    def test_needs_forecasting_model(self):
        split = small_split()
        spec = ModelSpec("linear_ci", window=10, channels=4)
        with pytest.raises(ValueError, match="forecasting model"):
            prune_and_eval(split, spec, SMALL_CONFIG, 2, "continuous")

    def test_unknown_strategy(self):
        split = small_split()
        with pytest.raises(ValueError, match="unknown strategy"):
            prune_and_eval(split, SMALL_SPEC, SMALL_CONFIG, 2, "best")

    def test_full_subset_reproduces_full_model(self):
        split = small_split()
        for strategy in ("continuous", "influence_equidistant"):
            result = prune_and_eval(split, SMALL_SPEC, SMALL_CONFIG, 4, strategy)
            assert result.selected == (0, 1, 2, 3)
            assert (
                result.mse_selected_model_on_all_channels == result.mse_full_model
            )

    def test_result_fields(self):
        split = small_split()
        result = prune_and_eval(split, SMALL_SPEC, SMALL_CONFIG, 2, "random", seed=5)
        assert result.strategy == "random"
        assert result.m == 2
        assert result.seed == 5
        assert result.selected == tuple(sorted(result.selected))
        assert all(0 <= c < 4 for c in result.selected)
        assert result.mse_full_model > 0.0
        assert result.mse_selected_model_on_all_channels > 0.0
        assert not result.mixing_refit

    def test_same_seed_same_result(self):
        split = small_split()
        a = prune_and_eval(split, SMALL_SPEC, SMALL_CONFIG, 2, "influence_equidistant")
        b = prune_and_eval(split, SMALL_SPEC, SMALL_CONFIG, 2, "influence_equidistant")
        assert a == b

    def test_mixing_model_is_refit_and_flagged(self):
        split = small_split()
        spec = ModelSpec("mlp_mix", window=8, channels=4, hidden=4, horizon=2)
        config = TrainConfig(epochs=2, learning_rate=1e-2, batch_size=16, seed=0)
        result = prune_and_eval(split, spec, config, 2, "continuous", refit_epochs=2)
        assert result.mixing_refit
        assert np.isfinite(result.mse_selected_model_on_all_channels)
        full = prune_and_eval(split, spec, config, 4, "continuous")
        assert not full.mixing_refit
        assert full.mse_selected_model_on_all_channels == full.mse_full_model

    def test_runs_no_tape_backward_pass(self, monkeypatch):
        # training and scoring are closed-form; the tape is only the test oracle
        def refuse(*args, **kwargs):
            raise AssertionError("pruning ran a tape backward pass")

        monkeypatch.setattr(autodiff, "backward", refuse)
        split = small_split()
        prune_and_eval(split, SMALL_SPEC, SMALL_CONFIG, 2, "influence_equidistant")
        spec = ModelSpec("mlp_mix", window=8, channels=4, hidden=4, horizon=2)
        result = prune_and_eval(split, spec, SMALL_CONFIG, 2, "most_influence", refit_epochs=1)
        assert result.mixing_refit

    def test_mixing_spec_must_match_data_width(self):
        split = small_split()
        spec = ModelSpec("mlp_mix", window=8, channels=6, hidden=4, horizon=2)
        with pytest.raises(ValueError, match="spec expects 6 channels, data has 4"):
            prune_and_eval(split, spec, SMALL_CONFIG, 2, "continuous")

    @pytest.mark.parametrize(
        "m, strategy, message",
        [
            (0, "continuous", "subset size 0 out of range for 4"),
            (5, "influence_equidistant", "subset size 5 out of range for 4"),
        ],
        ids=["m_zero", "m_above_n"],
    )
    def test_bad_inputs_fail_before_training(self, monkeypatch, m, strategy, message):
        calls = []
        monkeypatch.setattr(pruning, "train", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=message):
            prune_and_eval(small_split(), SMALL_SPEC, SMALL_CONFIG, m, strategy)
        assert calls == []

    def test_zero_learning_rate_ranks_the_untrained_model(self):
        # no recorded learning rate is needed: the ranking does not depend on eta
        split = small_split()
        config = replace(SMALL_CONFIG, learning_rate=0.0)
        untrained = init_params(SMALL_SPEC, config.seed)
        val = make_windows(split.val, SMALL_SPEC.total_rows)
        table = accumulate_channel_scores(untrained, val, eta=1.0)
        result = prune_and_eval(split, SMALL_SPEC, config, 2, "influence_equidistant")
        assert result.selected == select_channels(table, 2, "influence_equidistant")

    @pytest.mark.parametrize("strategy", ["influence_equidistant", "most_influence"])
    def test_selection_matches_the_learning_rate_ranking(self, strategy):
        split = small_split()
        state, _ = trained_on(split)
        val = make_windows(split.val, SMALL_SPEC.total_rows)
        table = accumulate_channel_scores(state, val, eta=SMALL_CONFIG.learning_rate)
        for m in (1, 2, 3):
            result = prune_and_eval(split, SMALL_SPEC, SMALL_CONFIG, m, strategy)
            assert result.selected == select_channels(table, m, strategy)

    @pytest.mark.parametrize(
        "refit_epochs, message",
        [
            (0, "refit_epochs must be at least 1, got 0"),
            (2.5, "refit_epochs must be an integer, got 2.5"),
            (True, "refit_epochs must be an integer, got True"),
        ],
        ids=["zero", "fractional", "bool"],
    )
    def test_bad_refit_epochs_fail_before_training(self, monkeypatch, refit_epochs, message):
        calls = []
        monkeypatch.setattr(pruning, "train", lambda *args, **kwargs: calls.append(args))
        spec = ModelSpec("mlp_mix", window=8, channels=4, hidden=4, horizon=2)
        with pytest.raises(ValueError, match=message):
            prune_and_eval(
                small_split(), spec, SMALL_CONFIG, 2, "continuous", refit_epochs=refit_epochs
            )
        assert calls == []

    def test_takes_no_eta(self):
        with pytest.raises(TypeError, match="eta"):
            prune_and_eval(small_split(), SMALL_SPEC, SMALL_CONFIG, 2, "continuous", eta=0.01)


def counting_train(monkeypatch):
    """Wrap pruning's train; the list collects each call's channel count."""
    widths = []

    def train_and_count(state, windows, config, **kwargs):
        widths.append(windows.values.shape[-1])
        return models.train(state, windows, config, **kwargs)

    monkeypatch.setattr(pruning, "train", train_and_count)
    return widths


class TestPruneCells:
    CELLS = [(m, strategy) for m in (2, 4) for strategy in STRATEGIES]

    @pytest.mark.parametrize("architecture", ["linear_ci", "mlp_mix"])
    def test_each_result_equals_its_one_cell_run(self, architecture):
        split = small_split()
        spec = ModelSpec(architecture, window=8, channels=4, hidden=4, horizon=2)
        options = dict(seed=3, refit_epochs=2)
        results = prune_cells(split, spec, SMALL_CONFIG, self.CELLS, **options)
        assert [(r.m, r.strategy) for r in results] == self.CELLS
        for (m, strategy), result in zip(self.CELLS, results):
            assert result == prune_and_eval(split, spec, SMALL_CONFIG, m, strategy, **options)
        refits = [r.mixing_refit for r in results]
        assert refits == [architecture == "mlp_mix"] * 4 + [False] * 4

    def test_trains_the_full_model_once_and_scores_once(self, monkeypatch):
        widths = counting_train(monkeypatch)
        tables = []
        accumulate = pruning.accumulate_channel_scores

        def accumulate_and_count(*args, **kwargs):
            tables.append(args)
            return accumulate(*args, **kwargs)

        monkeypatch.setattr(pruning, "accumulate_channel_scores", accumulate_and_count)
        split = small_split()
        prune_cells(split, SMALL_SPEC, SMALL_CONFIG, [(2, s) for s in STRATEGIES])
        # one full training on all 4 channels, then one per 2-channel subset
        assert widths == [4, 2, 2, 2, 2]
        assert len(tables) == 1
        # no cell reads the ranking, so no table is built
        prune_cells(split, SMALL_SPEC, SMALL_CONFIG, [(2, "random"), (3, "continuous")])
        assert widths[5:] == [4, 2, 3]
        assert len(tables) == 1

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((5, "random"), "subset size 5 out of range for 4"),
            ((0, "most_influence"), "subset size 0 out of range for 4"),
            ((2, "pca"), "unknown strategy 'pca'"),
            ((1.5, "continuous"), "subset size must be an integer, got 1.5"),
        ],
        ids=["m_above_n", "m_zero", "unknown_strategy", "fractional_m"],
    )
    def test_a_bad_last_cell_fails_before_training(self, monkeypatch, bad, message):
        widths = counting_train(monkeypatch)
        cells = [(2, "continuous"), (3, "influence_equidistant"), bad]
        with pytest.raises(ValueError, match=message):
            prune_cells(small_split(), SMALL_SPEC, SMALL_CONFIG, cells)
        assert widths == []

    def test_no_cells_fails_before_training(self, monkeypatch):
        widths = counting_train(monkeypatch)
        with pytest.raises(ValueError, match="no \\(m, strategy\\) cells"):
            prune_cells(small_split(), SMALL_SPEC, SMALL_CONFIG, [])
        assert widths == []

    @pytest.mark.parametrize("stride", [1, 3])
    def test_subset_windows_equal_the_sliced_full_stack(self, stride):
        # windowing the subset series must train the very model that slicing
        # the full training stack's channels trains
        split = small_split()
        selected = [0, 2, 3]
        rows = SMALL_SPEC.total_rows
        full = make_windows(split.train, rows, stride)
        sliced = WindowStack(full.values[..., selected], full.origins)
        names = tuple(split.train.channel_names[c] for c in selected)
        subset = make_windows(MtsSeries(split.train.values[:, selected], names), rows, stride)
        assert np.array_equal(subset.values, sliced.values)
        assert np.array_equal(subset.origins, sliced.origins)
        init = init_params(SMALL_SPEC, SMALL_CONFIG.seed)
        a, b = (train(init, w, SMALL_CONFIG) for w in (subset, sliced))
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        result = prune_and_eval(split, SMALL_SPEC, SMALL_CONFIG, 3, "continuous", stride=stride)
        test = make_windows(split.test, rows, stride)
        continuous = WindowStack(full.values[..., :3], full.origins)
        expected = models.mean_window_mse(train(init, continuous, SMALL_CONFIG), test)
        assert result.mse_selected_model_on_all_channels == expected

    def test_infinite_test_mse_raises(self):
        # a finite 1e200 in the test split overflows its windows' squared
        # errors, which mean_window_mse refuses
        split = small_split()
        values = split.test.values.copy()
        values[-5, 2] = 1e200
        test = MtsSeries(values, split.test.channel_names)
        split = replace(split, test=test)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            autodiff.NonFiniteError, match="^forward pass produced non-finite values$",
        ):
            prune_cells(split, SMALL_SPEC, SMALL_CONFIG, [(2, "continuous")])

    def test_infinite_full_mse_fails_before_any_cell_trains(self, monkeypatch):
        # TestPrune::test_infinite_test_mse_exits_1 in tests/test_cli.py, with two cells
        t = np.arange(200, dtype=np.float64)[:, None]
        values = np.sin(t / 7 + np.arange(4))
        values[190, 2] = 1e200
        split = chronological_split(MtsSeries(values, ("a", "b", "c", "d")), 0.5, 0.25)
        spec = ModelSpec("linear_ci", window=8, channels=4, horizon=2)
        calls = []

        def counting_train(*args, **kwargs):
            calls.append(args)
            return train(*args, **kwargs)

        monkeypatch.setattr(pruning, "train", counting_train)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            autodiff.NonFiniteError, match="^forward pass produced non-finite values$",
        ):
            prune_cells(split, spec, TrainConfig(epochs=2), [(2, "continuous"), (3, "random")])
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, "0.5"])
    def test_result_mses_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="^mse_full_model must be"):
            pruning.PruningResult("continuous", (0,), 0.5, bad, 0)


class TestCsv:
    def test_rows_match_results(self, tmp_path):
        split = small_split()
        results = [
            prune_and_eval(split, SMALL_SPEC, SMALL_CONFIG, m, "continuous")
            for m in (2, 4)
        ]
        path = tmp_path / "pruning.csv"
        save_pruning_csv(results, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "strategy,m,seed,mse_selected,mse_full,mixing_refit"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "continuous"
        assert int(first[1]) == 2
        assert float(first[3]) == results[0].mse_selected_model_on_all_channels
        assert first[5] == "false"
