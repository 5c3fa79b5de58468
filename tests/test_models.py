import numpy as np
import pytest

from chinf import influence
from chinf import autodiff as ad
from chinf import (
    ModelSpec,
    ModelState,
    MtsWindow,
    TrainConfig,
    all_params_selector,
    channel_gradient,
    channel_gradient_rows,
    channel_gradients,
    channel_loss,
    init_params,
    last_layer_selector,
    load_checkpoint,
    mean_window_mse,
    param_shapes,
    reconstruct,
    save_checkpoint,
    train,
    whole_gradient,
    window_loss,
)
from chinf.autodiff import ParamSelector, finite_difference_gradient

from bench_suite import random_model_case, random_window


def identity_linear(window, channels):
    """Linear reconstruction model that copies its input through."""
    spec = ModelSpec("linear_ci", window, channels)
    return ModelState(spec, {"weight": np.eye(window), "bias": np.zeros(window)})


class TestModelSpec:
    def test_rejects_unknown_architecture(self):
        with pytest.raises(ValueError, match="unknown architecture 'cnn'"):
            ModelSpec("cnn", 4, 2)

    def test_rejects_mlp_without_hidden(self):
        with pytest.raises(ValueError, match="hidden"):
            ModelSpec("mlp_ci", 4, 2)

    def test_rejects_bad_activation(self):
        with pytest.raises(ValueError, match="unknown activation"):
            ModelSpec("mlp_ci", 4, 2, hidden=3, activation="gelu")

    def test_row_counts_reconstruction(self):
        spec = ModelSpec("linear_ci", 5, 2)
        assert spec.out_rows == 5
        assert spec.total_rows == 5

    def test_row_counts_forecast(self):
        spec = ModelSpec("linear_ci", 5, 2, horizon=3)
        assert spec.out_rows == 3
        assert spec.total_rows == 8


class TestParamShapes:
    def test_linear(self):
        assert param_shapes(ModelSpec("linear_ci", 10, 3)) == {
            "weight": (10, 10),
            "bias": (10,),
        }

    def test_linear_forecast_output_rows(self):
        assert param_shapes(ModelSpec("linear_ci", 10, 3, horizon=2))["weight"] == (2, 10)

    def test_mix_has_square_mixing_first(self):
        shapes = param_shapes(ModelSpec("mlp_mix", 6, 4, hidden=5))
        assert list(shapes)[0] == "mix"
        assert shapes["mix"] == (4, 4)

    def test_init_matches_shapes_and_zero_biases(self):
        spec = ModelSpec("mlp_ci", 6, 3, hidden=4)
        state = init_params(spec, seed=7)
        for name, shape in param_shapes(spec).items():
            assert state.params[name].shape == shape
        assert not state.params["b1"].any()
        assert not state.params["b2"].any()

    def test_init_is_deterministic(self):
        spec = ModelSpec("mlp_mix", 6, 3, hidden=4)
        a = init_params(spec, seed=3)
        b = init_params(spec, seed=3)
        c = init_params(spec, seed=4)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        assert not np.array_equal(a.params["w1"], c.params["w1"])


class TestModelState:
    def test_rejects_wrong_shape(self):
        spec = ModelSpec("linear_ci", 3, 2)
        with pytest.raises(ValueError, match=r"'weight' has shape \(2, 2\), expected \(3, 3\)"):
            ModelState(spec, {"weight": np.zeros((2, 2)), "bias": np.zeros(3)})

    def test_rejects_missing_parameter(self):
        spec = ModelSpec("linear_ci", 3, 2)
        with pytest.raises(ValueError, match="do not match"):
            ModelState(spec, {"weight": np.zeros((3, 3))})

    def test_params_are_frozen(self):
        state = identity_linear(3, 2)
        with pytest.raises(ValueError):
            state.params["weight"][0, 0] = 5.0

    def test_selector_ids_name_the_architecture(self):
        spec = ModelSpec("mlp_ci", 3, 2, hidden=2)
        assert all_params_selector(spec).selector_id == "mlp_ci/all"
        assert last_layer_selector(spec).names == ("w2", "b2")


class TestForward:
    def test_identity_model_reproduces_window(self):
        state = identity_linear(4, 3)
        win = random_window(np.random.default_rng(0), 4, 3)
        assert np.array_equal(reconstruct(state, win), win.values)
        assert window_loss(state, win) == 0.0

    def test_channel_loss_worked_example(self):
        spec = ModelSpec("linear_ci", 2, 1)
        state = ModelState(spec, {"weight": np.zeros((2, 2)), "bias": np.zeros(2)})
        win = MtsWindow(np.array([[1.0], [2.0]]), origin_t=1)
        assert channel_loss(state, win, 0) == 5.0

    def test_channel_losses_sum_to_window_loss(self):
        rng = np.random.default_rng(5)
        for case in range(12):
            state, win, _, _ = random_model_case(rng, case)
            total = sum(channel_loss(state, win, j) for j in range(win.n_channels))
            whole = window_loss(state, win)
            assert abs(total - whole) <= 1e-12 * (abs(whole) + 1.0)

    def test_shared_map_gives_identical_columns_identical_outputs(self):
        spec = ModelSpec("mlp_ci", 5, 3, hidden=4)
        state = init_params(spec, seed=1)
        col = np.random.default_rng(2).normal(size=5)
        win = MtsWindow(np.column_stack([col, col, col * 2.0]), origin_t=4)
        y = reconstruct(state, win)
        assert np.array_equal(y[:, 0], y[:, 1])
        assert not np.array_equal(y[:, 0], y[:, 2])

    def test_identity_mixing_matches_unmixed_mlp(self):
        rng = np.random.default_rng(3)
        ci = init_params(ModelSpec("mlp_ci", 5, 3, hidden=4), seed=8)
        mix_spec = ModelSpec("mlp_mix", 5, 3, hidden=4)
        mixed = ModelState(mix_spec, {"mix": np.eye(3), **dict(ci.params)})
        win = random_window(rng, 5, 3)
        assert np.max(np.abs(reconstruct(mixed, win) - reconstruct(ci, win))) <= 1e-12
        g_ci = whole_gradient(ci, win).values
        g_mix = whole_gradient(mixed, win).values
        assert np.max(np.abs(g_ci - g_mix)) <= 1e-12

    def test_forecast_predicts_tail_rows(self):
        spec = ModelSpec("linear_ci", 3, 2, horizon=2)
        state = ModelState(
            spec, {"weight": np.zeros((2, 3)), "bias": np.array([1.0, 2.0])}
        )
        values = np.arange(10.0).reshape(5, 2)
        win = MtsWindow(values, origin_t=4)
        y = reconstruct(state, win)
        assert y.shape == (2, 2)
        assert np.array_equal(y, [[1.0, 1.0], [2.0, 2.0]])
        # target rows are the last horizon rows of the window payload
        expected = float(np.sum((y - values[3:]) ** 2))
        assert window_loss(state, win) == expected

    def test_wrong_row_count_rejected(self):
        state = identity_linear(4, 2)
        with pytest.raises(ValueError, match="rows"):
            window_loss(state, MtsWindow(np.zeros((3, 2)), origin_t=2))

    def test_wrong_channel_count_rejected(self):
        spec = ModelSpec("mlp_mix", 3, 4, hidden=2)
        state = init_params(spec, seed=0)
        with pytest.raises(ValueError, match="channels"):
            window_loss(state, MtsWindow(np.zeros((3, 2)), origin_t=2))

    def test_channel_index_out_of_range(self):
        state = identity_linear(3, 2)
        win = random_window(np.random.default_rng(0), 3, 2)
        with pytest.raises(ValueError, match="channel index 2 out of range for 2"):
            channel_loss(state, win, 2)


class TestGradients:
    def test_channel_gradients_sum_to_whole_gradient(self):
        rng = np.random.default_rng(11)
        for case in range(12):
            state, win, _, selector = random_model_case(rng, case)
            grads = channel_gradients(state, win, selector)
            summed = np.sum([g.values for g in grads], axis=0)
            whole = whole_gradient(state, win, selector).values
            scale = np.max(np.abs(whole)) + 1.0
            assert np.max(np.abs(summed - whole)) <= 1e-12 * scale

    def test_zero_loss_gives_zero_gradient(self):
        state = identity_linear(4, 3)
        win = random_window(np.random.default_rng(1), 4, 3)
        g = whole_gradient(state, win, all_params_selector(state.spec))
        assert np.array_equal(g.values, np.zeros_like(g.values))

    def test_channel_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for case in range(8):
            state, win, _, selector = random_model_case(rng, case)
            j = int(rng.integers(win.n_channels))
            back = channel_gradient(state, win, j, selector)

            def loss_fn(p):
                return channel_loss(ModelState(state.spec, p), win, j)

            fd = finite_difference_gradient(loss_fn, dict(state.params), selector)
            err = np.max(np.abs(back.values - fd.values))
            assert err <= 1e-4 * (np.max(np.abs(fd.values)) + 1e-12)

    def test_default_selector_is_last_layer(self):
        state = init_params(ModelSpec("mlp_ci", 4, 2, hidden=3), seed=0)
        win = random_window(np.random.default_rng(2), 4, 2)
        g = whole_gradient(state, win)
        assert g.selector_id == "mlp_ci/last_layer"
        assert g.values.shape == (3 * 4 + 4,)

    def test_channel_permutation_permutes_channel_quantities(self):
        # a shared per-channel map makes channel order irrelevant
        rng = np.random.default_rng(9)
        state = init_params(ModelSpec("mlp_ci", 5, 4, hidden=3), seed=4)
        win = random_window(rng, 5, 4)
        perm = np.array([2, 0, 3, 1])
        win_p = MtsWindow(win.values[:, perm], origin_t=win.origin_t)
        for new_j, old_j in enumerate(perm):
            a = channel_loss(state, win, old_j)
            b = channel_loss(state, win_p, new_j)
            assert abs(a - b) <= 1e-12 * (abs(a) + 1.0)

    def test_gradient_index_out_of_range(self):
        state = identity_linear(3, 2)
        win = random_window(np.random.default_rng(0), 3, 2)
        with pytest.raises(ValueError, match="out of range"):
            channel_gradient(state, win, 5)


def tape_channel_gradient(state, window, j, selector):
    """Channel j's loss gradient from a tape built here out of autodiff
    primitives, one window at a time: the oracle for the closed form."""
    spec, params = state.spec, state.params
    values = window.values
    x, target = values[: spec.window], values[spec.window :] if spec.horizon else values
    tape = ad.Tape()
    leaf = {name: tape.leaf(value, name) for name, value in params.items()}
    z = tape.leaf(x)
    if spec.architecture == "mlp_mix":
        z = ad.matmul(z, leaf["mix"])
    if spec.architecture == "linear_ci":
        y = ad.add_bias(ad.matmul(leaf["weight"], z), leaf["bias"])
    else:
        act = ad.tanh if spec.activation == "tanh" else ad.relu
        hidden = act(ad.add_bias(ad.matmul(leaf["w1"], z), leaf["b1"]))
        y = ad.add_bias(ad.matmul(leaf["w2"], hidden), leaf["b2"])
    sq = ad.square(ad.subtract(y, tape.leaf(target)))
    return ad.backward(tape, ad.reduce_sum(ad.slice_columns(sq, j, j + 1)), selector).values


def kernel_selectors(spec):
    yield "last_layer", last_layer_selector(spec)
    yield "all", all_params_selector(spec)
    for name in param_shapes(spec):
        yield "single", ParamSelector(f"{spec.architecture}/{name}", (name,))


class TestChannelGradientRows:
    @pytest.mark.parametrize("horizon", [0, 2])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("architecture", ["linear_ci", "mlp_ci", "mlp_mix"])
    def test_matches_tape(self, architecture, activation, horizon):
        rng = np.random.default_rng(61)
        spec = ModelSpec(architecture, 5, 3, hidden=4, activation=activation, horizon=horizon)
        state = init_params(spec, seed=2)
        # perturbed so biases are nonzero and relu units fall on both sides of 0
        state = ModelState(
            spec, {k: v + 0.1 * rng.normal(size=v.shape) for k, v in state.params.items()}
        )
        windows = [random_window(rng, spec.total_rows, 3) for _ in range(4)]
        for kind, selector in kernel_selectors(spec):
            rows = channel_gradient_rows(state, windows, selector)
            assert rows.flags.c_contiguous
            want = np.array(
                [[tape_channel_gradient(state, w, j, selector) for j in range(3)] for w in windows]
            )
            assert rows.shape == want.shape
            if kind == "last_layer":
                assert np.array_equal(rows, want), selector.selector_id
            else:
                err = np.max(np.abs(rows - want)) / (np.max(np.abs(want)) + 1e-300)
                assert err <= 1e-12, (selector.selector_id, err)

    def test_default_selector_is_last_layer(self):
        state = init_params(ModelSpec("mlp_ci", 4, 2, hidden=3), seed=0)
        win = random_window(np.random.default_rng(2), 4, 2)
        assert np.array_equal(
            channel_gradient_rows(state, [win]),
            channel_gradient_rows(state, [win], last_layer_selector(state.spec)),
        )

    def test_unknown_parameter_rejected(self):
        state = identity_linear(3, 2)
        win = random_window(np.random.default_rng(0), 3, 2)
        with pytest.raises(ValueError, match="unknown parameter 'w1'"):
            channel_gradient_rows(state, [win], ParamSelector("x", ("w1",)))

    def test_empty_window_list_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            channel_gradient_rows(identity_linear(3, 2), [])

    def test_chunked_list_equals_per_window_results(self, monkeypatch):
        rng = np.random.default_rng(62)
        spec = ModelSpec("mlp_ci", 6, 4, hidden=5)
        state = init_params(spec, seed=3)
        windows = [random_window(rng, 6, 4) for _ in range(23)]
        for selector in (last_layer_selector(spec), all_params_selector(spec)):
            per_window_size = 4 * sum(
                int(np.prod(param_shapes(spec)[name])) for name in selector.names
            )
            # chunks of 5 windows, the last one short
            monkeypatch.setattr(influence, "_CHUNK_ELEMENTS", 5 * per_window_size + 1)
            chunked = influence.self_influence_rows(state, windows, 0.1, selector)
            one_by_one = np.array(
                [influence.self_influence_per_channel(state, w, 0.1, selector) for w in windows]
            )
            assert np.array_equal(chunked, one_by_one)
            rows = channel_gradient_rows(state, windows, selector)
            for b, w in enumerate(windows):
                assert np.array_equal(rows[b], channel_gradient_rows(state, [w], selector)[0])

    def test_forward_overflow_raises(self):
        spec = ModelSpec("mlp_ci", 3, 2, hidden=2, activation="relu")
        params = dict(init_params(spec, seed=0).params)
        params["w1"] = np.full((2, 3), 1e300)
        state = ModelState(spec, params)
        win = MtsWindow(np.full((3, 2), 1e10), origin_t=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                channel_gradient_rows(state, [win], all_params_selector(spec))
            with pytest.raises(ValueError, match="non-finite"):
                influence.self_influence_rows(state, [win], eta=1.0)

    def test_score_overflow_raises(self):
        # finite forward pass and gradient rows whose squared norm overflows
        spec = ModelSpec("linear_ci", 2, 1)
        state = ModelState(spec, {"weight": np.zeros((2, 2)), "bias": np.full(2, 1e200)})
        win = MtsWindow(np.ones((2, 1)), origin_t=1)
        assert np.isfinite(channel_gradient_rows(state, [win])).all()
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="overflow"):
                influence.self_influence_rows(state, [win], eta=1.0)


def training_windows(rng, spec, count):
    return [random_window(rng, spec.total_rows, spec.channels) for _ in range(count)]


class TestTrain:
    def test_loss_decreases(self):
        rng = np.random.default_rng(0)
        spec = ModelSpec("linear_ci", 6, 3)
        state = init_params(spec, seed=0)
        wins = training_windows(rng, spec, 40)
        before = mean_window_mse(state, wins)
        after = mean_window_mse(
            train(state, wins, TrainConfig(epochs=20, learning_rate=0.05, seed=0)), wins
        )
        assert after < before

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(1)
        spec = ModelSpec("mlp_ci", 4, 2, hidden=3)
        state = init_params(spec, seed=2)
        out = train(
            state,
            training_windows(rng, spec, 10),
            TrainConfig(epochs=3, learning_rate=0.0, seed=0),
        )
        for name in state.params:
            assert np.array_equal(out.params[name], state.params[name])

    def test_training_is_deterministic(self):
        spec = ModelSpec("mlp_mix", 4, 3, hidden=3)
        wins = training_windows(np.random.default_rng(2), spec, 17)
        cfg = TrainConfig(epochs=5, learning_rate=0.01, batch_size=4, seed=6)
        a = train(init_params(spec, 0), wins, cfg)
        b = train(init_params(spec, 0), wins, cfg)
        c = train(init_params(spec, 0), wins, TrainConfig(5, 0.01, 4, seed=7))
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        assert not np.array_equal(a.params["mix"], c.params["mix"])

    def test_trainable_selector_freezes_other_parameters(self):
        spec = ModelSpec("mlp_ci", 4, 2, hidden=3)
        state = init_params(spec, seed=3)
        wins = training_windows(np.random.default_rng(3), spec, 12)
        out = train(
            state,
            wins,
            TrainConfig(epochs=4, learning_rate=0.05, seed=0),
            trainable=last_layer_selector(spec),
        )
        assert np.array_equal(out.params["w1"], state.params["w1"])
        assert np.array_equal(out.params["b1"], state.params["b1"])
        assert not np.array_equal(out.params["w2"], state.params["w2"])

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -0.01])
    def test_rejects_bad_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be finite and non-negative"):
            TrainConfig(learning_rate=lr)

    def test_records_learning_rate(self):
        spec = ModelSpec("linear_ci", 3, 2)
        wins = training_windows(np.random.default_rng(4), spec, 6)
        out = train(init_params(spec, 0), wins, TrainConfig(1, 0.02, 4, 0))
        assert out.trained_lr == 0.02

    def test_divergence_reports_epoch_and_batch(self):
        spec = ModelSpec("linear_ci", 4, 2)
        wins = training_windows(np.random.default_rng(5), spec, 8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match=r"not finite at epoch \d+, batch \d+"):
                train(init_params(spec, 0), wins, TrainConfig(60, 1e12, 8, 0))

    def test_empty_windows_rejected(self):
        spec = ModelSpec("linear_ci", 3, 2)
        with pytest.raises(ValueError, match="nonempty"):
            train(init_params(spec, 0), [], TrainConfig())


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        spec = ModelSpec("mlp_mix", 5, 3, hidden=4, activation="relu", horizon=2)
        state = init_params(spec, seed=13)
        wins = training_windows(np.random.default_rng(6), spec, 9)
        state = train(state, wins, TrainConfig(2, 0.01, 4, 0))
        path = str(tmp_path / "model.json")
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back.spec == state.spec
        assert back.trained_lr == state.trained_lr
        for name in state.params:
            assert np.array_equal(back.params[name], state.params[name])

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"weights": []}')
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_checkpoint(str(path))
