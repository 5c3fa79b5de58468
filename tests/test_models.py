import json
import math
import re
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chinf import anomaly, cli, core, data, influence, models, pruning
from chinf import autodiff as ad
from chinf import (
    ModelSpec,
    ModelState,
    MtsWindow,
    TrainConfig,
    all_params_selector,
    channel_gradient,
    channel_gradient_norms,
    channel_gradient_rows,
    channel_gradients,
    channel_loss,
    channel_losses,
    init_params,
    last_layer_selector,
    load_checkpoint,
    mean_window_mse,
    param_shapes,
    reconstruct,
    save_checkpoint,
    train,
    whole_gradient,
    whole_gradient_rows,
    window_loss,
)
from chinf.autodiff import ParamSelector, finite_difference_gradient

from bench_suite import (
    PRUNING_SPEC,
    anomaly_model,
    anomaly_scenario,
    pruning_split,
    random_model_case,
    random_window,
)


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

    @pytest.mark.parametrize("field", ["window", "channels", "hidden", "horizon"])
    def test_integer_fields_must_be_integral(self, field):
        spec = ModelSpec("mlp_ci", **{"window": 4, "channels": 2, "hidden": 3, field: 2.0})
        assert getattr(spec, field) == 2 and type(getattr(spec, field)) is int
        for bad in (2.5, True, "2"):
            with pytest.raises(ValueError, match=f"{field} must be an integer, got {bad!r}"):
                ModelSpec("mlp_ci", **{"window": 4, "channels": 2, "hidden": 3, field: bad})

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

    @pytest.mark.parametrize(
        "lr",
        [float("inf"), float("nan"), -0.1, pytest.param(10**400, id="int_past_float_range"),
         "0.1", True],
    )
    def test_rejects_bad_trained_lr(self, lr):
        spec = ModelSpec("linear_ci", 3, 2)
        params = init_params(spec, seed=0).params
        with pytest.raises(ValueError, match="^trained_lr must be"):
            ModelState(spec, params, trained_lr=lr)

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


def tape_squared_error(spec, params, inputs, targets):
    """Tape with the squared-error matrix of a (b, rows, N) window batch
    recorded, built here out of autodiff primitives: the oracle route for
    every closed form in models.

    The inputs are row-stacked, so mixing multiplies channel columns
    row-wise before the blocks are rearranged into one column-stacked
    (window, b*N) node for the shared per-channel map.
    """
    b, _, n = inputs.shape
    tape = ad.Tape()
    leaf = {name: tape.leaf(value, name) for name, value in params.items()}
    z = tape.leaf(inputs.reshape(b * spec.window, n))
    if spec.architecture == "mlp_mix":
        z = ad.matmul(z, leaf["mix"])
    z = ad.blocks_to_columns(z, b, spec.window, n)
    if spec.architecture == "linear_ci":
        y = ad.add_bias(ad.matmul(leaf["weight"], z), leaf["bias"])
    else:
        act = ad.tanh if spec.activation == "tanh" else ad.relu
        hidden = act(ad.add_bias(ad.matmul(leaf["w1"], z), leaf["b1"]))
        y = ad.add_bias(ad.matmul(leaf["w2"], hidden), leaf["b2"])
    t_cols = targets.transpose(1, 0, 2).reshape(spec.out_rows, b * n)
    return tape, ad.square(ad.subtract(y, tape.leaf(t_cols)))


def tape_window_loss(state, window):
    """Tape and squared-error node of one window (b = 1)."""
    x, target = models._split_xy(state.spec, window)
    return tape_squared_error(state.spec, state.params, x[None], target[None])


def tape_channel_gradient(state, window, j, selector):
    """Channel j's loss gradient on the tape: the oracle for the closed form."""
    tape, sq = tape_window_loss(state, window)
    return ad.backward(tape, ad.reduce_sum(ad.slice_columns(sq, j, j + 1)), selector).values


def tape_whole_gradient(state, window, selector):
    """The whole-window loss gradient on the tape."""
    tape, sq = tape_window_loss(state, window)
    return ad.backward(tape, ad.reduce_sum(sq), selector)


def kernel_selectors(spec):
    yield "last_layer", last_layer_selector(spec)
    yield "all", all_params_selector(spec)
    for name in param_shapes(spec):
        yield "single", ParamSelector(f"{spec.architecture}/{name}", (name,))


def perturbed_state(spec, rng):
    """Initial parameters moved so biases are nonzero and relu units fall
    on both sides of 0."""
    state = init_params(spec, seed=2)
    return ModelState(
        spec, {k: v + 0.1 * rng.normal(size=v.shape) for k, v in state.params.items()}
    )


class TestChannelGradientRows:
    @pytest.mark.parametrize("horizon", [0, 2])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("architecture", ["linear_ci", "mlp_ci", "mlp_mix"])
    def test_matches_tape(self, architecture, activation, horizon):
        rng = np.random.default_rng(61)
        spec = ModelSpec(architecture, 5, 3, hidden=4, activation=activation, horizon=horizon)
        state = perturbed_state(spec, rng)
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

    @pytest.mark.parametrize("horizon", [0, 2])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("architecture", ["linear_ci", "mlp_ci", "mlp_mix"])
    def test_norms_match_row_einsum(self, architecture, activation, horizon):
        rng = np.random.default_rng(63)
        spec = ModelSpec(architecture, 5, 3, hidden=4, activation=activation, horizon=horizon)
        state = perturbed_state(spec, rng)
        windows = [random_window(rng, spec.total_rows, 3) for _ in range(7)]
        # last layer, all, and each parameter alone (w1 and mix among them)
        for _, selector in kernel_selectors(spec):
            rows = channel_gradient_rows(state, windows, selector)
            want = np.einsum("bnp,bnp->bn", rows, rows)
            got = channel_gradient_norms(state, windows, selector)
            assert got.shape == want.shape and (want > 0).any(), selector.selector_id
            # relative, so a dead relu channel's 0 must come out exactly 0
            err = np.abs(got - want)
            assert (err <= 1e-12 * want).all(), (selector.selector_id, np.max(err / want))

    def test_chunked_list_equals_per_window_results(self, monkeypatch):
        rng = np.random.default_rng(62)
        spec = ModelSpec("mlp_ci", 6, 4, hidden=5)
        state = init_params(spec, seed=3)
        windows = [random_window(rng, 6, 4) for _ in range(23)]
        # one window's forward entries: 4 channels x (2*6 + 2*5 + 3*6) rows;
        # chunks of 5 windows, the last one short
        monkeypatch.setattr(models, "_FORWARD_CHUNK_ENTRIES", 5 * 4 * 40 + 1)
        for selector in (last_layer_selector(spec), all_params_selector(spec)):
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

    def test_row_overflow_raises(self):
        # a finite forward pass (residual 1e150, squared-error total 1e300)
        # and input (1e200) whose outer product, a gradient row entry,
        # overflows
        state = overflowing_rows_state()
        win = OVERFLOWING_ROWS_WINDOW
        with np.errstate(over="ignore"):
            with pytest.raises(ad.NonFiniteError, match="channel gradients produced non-finite"):
                channel_gradient_rows(state, [win])
            # the kernel reports the overflow as an infinity, the caller raises
            assert np.isinf(channel_gradient_norms(state, [win])).all()
            for _, selector in kernel_selectors(state.spec):
                if "weight" not in selector.names:
                    # the bias block alone is 2e150, of squared norm 4e300
                    assert np.isfinite(influence.self_influence_rows(state, [win], 1.0, selector))
                    continue
                with pytest.raises(ad.NonFiniteError, match="self-influence overflowed"):
                    influence.self_influence_rows(state, [win], 1.0, selector)

    def test_zero_factor_gives_zero_norm_term(self):
        # inputs of 1e160 saturate every tanh unit, so the hidden adjoint is
        # 0 while the input's squared norm overflows; the w1 block is 0
        spec = ModelSpec("mlp_ci", 2, 1, hidden=2, activation="tanh", horizon=1)
        state = init_params(spec, seed=0)
        win = MtsWindow(np.array([[1e160], [1e160], [1.0]]), origin_t=2)
        selector = all_params_selector(spec)
        rows = channel_gradient_rows(state, [win], selector)
        want = np.einsum("bnp,bnp->bn", rows, rows)
        got = channel_gradient_norms(state, [win], selector)
        scores = influence.self_influence_rows(state, [win], 1.0, selector)
        assert want[0, 0] > 0 and np.abs(got - want).max() <= 1e-12 * want.max()
        assert np.array_equal(scores, got)

    @pytest.mark.parametrize(
        "bias, values",
        [(1e154, [[1e-10], [1e-10], [1e-10]]), (1e-160, [[1e150], [1e150], [0.0]])],
        ids=["factor_norm_overflows", "factor_norm_subnormal"],
    )
    def test_weight_norm_from_scaled_factors(self, bias, values):
        # weight-only blocks g x^T of a linear_ci forecaster (weight 0): g is
        # 2e154, whose squared norm overflows against ||x||^2 = 2e-20, or
        # 2e-160, whose squared norm 4e-320 has lost most of its bits
        spec = ModelSpec("linear_ci", 2, 1, horizon=1)
        state = ModelState(spec, {"weight": np.zeros((1, 2)), "bias": np.full(1, bias)})
        win = MtsWindow(np.array(values), origin_t=2)
        selector = ParamSelector("linear_ci/weight", ("weight",))
        rows = channel_gradient_rows(state, [win], selector)
        want = np.einsum("bnp,bnp->bn", rows, rows)
        got = channel_gradient_norms(state, [win], selector)
        assert 0 < want[0, 0] < math.inf and np.abs(got - want).max() <= 1e-12 * want.max()
        assert np.array_equal(influence.self_influence_rows(state, [win], 1.0, selector), got)

    def test_score_overflow_raises(self):
        # finite forward pass (residual 1e154, squared-error total 1e308)
        # and gradient rows (2e154 each) whose squared norm overflows
        spec = ModelSpec("linear_ci", 1, 1)
        state = ModelState(spec, {"weight": np.zeros((1, 1)), "bias": np.full(1, 1e154)})
        win = MtsWindow(np.ones((1, 1)), origin_t=0)
        assert np.isfinite(channel_gradient_rows(state, [win])).all()
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="overflow"):
                influence.self_influence_rows(state, [win], eta=1.0)


@pytest.fixture(scope="module")
def detect_benchmark_case():
    """The detect benchmark's model (mlp_ci, 8 channels, trained on anomaly
    scenario 0) and its val split's window stack."""
    train_series, val, _ = anomaly_scenario(0)
    state = anomaly_model(train_series, 0)
    return state, core.make_windows(val, state.spec.total_rows)


class TestChannelKernelsMatchTapeAtBenchmarkScale:
    """The per-channel oracle cases above are 5x3 windows; these run the
    model shapes of the benchmark over a whole split, as detect and
    influence do, and check every 16th window against the tape."""

    @staticmethod
    def assert_match(state, stack, selector, exact):
        picked = list(range(0, len(stack), 16))
        n = stack.values.shape[2]
        want = np.array([
            [tape_channel_gradient(state, stack[b], j, selector) for j in range(n)] for b in picked
        ])
        rows = channel_gradient_rows(state, stack, selector)[picked]
        if exact:
            assert np.array_equal(rows, want), selector.selector_id
        else:
            err = np.max(np.abs(rows - want)) / np.max(np.abs(want))
            assert err <= 1e-12, (selector.selector_id, err)
        want_norms = np.einsum("bnp,bnp->bn", want, want)
        norms = channel_gradient_norms(state, stack, selector)[picked]
        assert (np.abs(norms - want_norms) <= 1e-12 * want_norms).all(), selector.selector_id

    @pytest.mark.parametrize("kind", ["last_layer", "all"])
    def test_detect_model(self, detect_benchmark_case, kind):
        state, stack = detect_benchmark_case
        assert state.spec.channels == 8 and len(stack) > 400
        selector = dict(kernel_selectors(state.spec))[kind]
        self.assert_match(state, stack, selector, exact=kind == "last_layer")

    def test_mixing_forecaster(self):
        # the model of the influence benchmark, on a test split's windows
        rng = np.random.default_rng(92)
        spec = ModelSpec("mlp_mix", window=10, channels=8, hidden=16, horizon=2)
        stack = core.make_windows(anomaly_scenario(0)[2], spec.total_rows)
        self.assert_match(perturbed_state(spec, rng), stack, all_params_selector(spec), False)


def split_target(spec, window):
    return window.values[spec.window :] if spec.horizon > 0 else window.values


class TestChannelLosses:
    @pytest.mark.parametrize("horizon", [0, 2])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("architecture", ["linear_ci", "mlp_ci", "mlp_mix"])
    def test_matches_per_column_dot(self, architecture, activation, horizon):
        rng = np.random.default_rng(71)
        spec = ModelSpec(architecture, 5, 3, hidden=4, activation=activation, horizon=horizon)
        state = perturbed_state(spec, rng)
        windows = [random_window(rng, spec.total_rows, 3) for _ in range(6)]
        losses = channel_losses(state, windows)
        assert losses.shape == (6, 3)
        for b, w in enumerate(windows):
            y, target = reconstruct(state, w), split_target(spec, w)
            for j in range(3):
                d = y[:, j] - target[:, j]
                assert losses[b, j] == d @ d
                assert channel_loss(state, w, j) == losses[b, j]

    def test_empty_window_list_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            channel_losses(identity_linear(3, 2), [])

    @pytest.mark.parametrize("chunk", [None, 100])
    def test_mean_window_mse_is_a_window_order_running_sum(self, monkeypatch, chunk):
        rng = np.random.default_rng(73)
        spec = ModelSpec("mlp_ci", 6, 3, hidden=4, horizon=3)
        state = perturbed_state(spec, rng)
        windows = [random_window(rng, spec.total_rows, 3) for _ in range(40)]
        if chunk is not None:
            monkeypatch.setattr(models, "_FORWARD_CHUNK_ENTRIES", chunk)
        total, entries = 0.0, 0
        for w in windows:
            d = (reconstruct(state, w) - split_target(spec, w)).ravel()
            total += float(d @ d)
            entries += d.size
        assert mean_window_mse(state, windows) == total / entries


def chunk_entries(spec, n, width):
    """A _FORWARD_CHUNK_ENTRIES that makes the scoring kernels' chunks width
    windows of n channels wide: one window's forward entries are n channels
    times 2 * window + 2 * hidden + 3 * out_rows rows."""
    return width * n * (2 * spec.window + 2 * spec.hidden + 3 * spec.out_rows)


def spy_residual(monkeypatch):
    """Record (x, t) of every checked forward pass the kernels run."""
    calls = []
    residual = models._residual

    def spy(spec, params, x, t, out=None, channels=None):
        calls.append((x, t))
        return residual(spec, params, x, t, out, channels)

    monkeypatch.setattr(models, "_residual", spy)
    return calls


def zero_linear_windows(scale, bad=None):
    """A linear_ci model with zero weights, whose residuals are minus its
    windows, and the 37 windows of a (40, 2) series of scale, with one
    entry made bad when given: each window of 1e153 totals 8e306 while a
    chunk of them overflows."""
    spec = ModelSpec("linear_ci", 4, 2)
    state = ModelState(spec, {"weight": np.zeros((4, 4)), "bias": np.zeros(4)})
    values = np.full((40, 2), scale)
    if bad is not None:
        values[20, 0] = bad
    return state, core.make_windows(core.MtsSeries(values, ("a", "b")), 4)


class TestScoringChunks:
    """channel_losses, channel_gradient_norms and mean_window_mse run the
    forward pass on column-stacked chunks gathered into one aligned buffer;
    each window's result is that of a one-window call."""

    @pytest.mark.parametrize("horizon", [0, 2])
    @pytest.mark.parametrize("architecture", models.ARCHITECTURES)
    @pytest.mark.parametrize("stride", [None, 2], ids=["window_list", "view_stride_2"])
    def test_chunked_equals_per_window(self, monkeypatch, architecture, horizon, stride):
        rng = np.random.default_rng(76)
        hidden = 0 if architecture == "linear_ci" else 5
        spec = ModelSpec(architecture, 6, 4, hidden=hidden, horizon=horizon)
        state = perturbed_state(spec, rng)
        windows = training_windows(rng, spec, 23, stride)
        listed = [windows[b] for b in range(23)]
        selectors = (last_layer_selector(spec), all_params_selector(spec))
        one_by_one = {
            "losses": np.array([channel_losses(state, [w])[0] for w in listed]),
            **{s.selector_id: np.array([channel_gradient_norms(state, [w], s)[0] for w in listed])
               for s in selectors},
        }
        total, entries = 0.0, 0
        for w in listed:
            total += window_loss(state, w)
            entries += spec.out_rows * 4
        # chunks of 5 windows, the last one short
        monkeypatch.setattr(models, "_FORWARD_CHUNK_ENTRIES", chunk_entries(spec, 4, 5) + 1)
        calls = spy_residual(monkeypatch)
        assert np.array_equal(channel_losses(state, windows), one_by_one["losses"])
        assert [x.shape[1] // 4 for x, _ in calls] == [5, 5, 5, 5, 3]
        for selector in selectors:
            got = channel_gradient_norms(state, windows, selector)
            assert np.array_equal(got, one_by_one[selector.selector_id]), selector.selector_id
        assert mean_window_mse(state, windows) == total / entries

    @pytest.mark.parametrize(
        "architecture, horizon, stride, step",
        [("linear_ci", 0, None, None), ("mlp_ci", 0, 1, None), ("mlp_mix", 2, 2, None),
         ("linear_ci", 1, 2, 3), ("mlp_mix", 0, 1, None)],
        ids=["window_list", "view_stride_1", "view_stride_2_horizon",
             "view_slice_with_step_horizon", "view_stride_1_mixing"],
    )
    def test_chunk_operands_start_on_a_64_byte_boundary(
        self, monkeypatch, architecture, horizon, stride, step
    ):
        """x, the first gemm operand of every chunk, is 64-byte aligned, and
        t is x itself (horizon 0) or the rows right after it."""
        rng = np.random.default_rng(77)
        spec = ModelSpec(architecture, 5, 3, hidden=4, horizon=horizon)
        state = perturbed_state(spec, rng)
        windows = training_windows(rng, spec, 11, stride, step)
        # chunks of 4 windows, the last one short
        monkeypatch.setattr(models, "_FORWARD_CHUNK_ENTRIES", chunk_entries(spec, 3, 4))
        calls = spy_residual(monkeypatch)
        for kernel in (lambda: channel_losses(state, windows),
                       lambda: channel_gradient_norms(state, windows, all_params_selector(spec)),
                       lambda: mean_window_mse(state, windows)):
            calls.clear()
            kernel()
            assert [x.shape[1] // 3 for x, _ in calls] == [4, 4, 3]
            for x, t in calls:
                assert x.ctypes.data % 64 == 0
                assert t.ctypes.data - x.ctypes.data == (x.nbytes if horizon else 0)

    def test_each_window_is_judged_alone(self):
        state, stack = zero_linear_windows(1e153)
        # each window's squared-error total is finite, the whole stack's is not
        assert len(stack) == 37 and residual_dot(stack.values) == math.inf
        listed = [stack[b] for b in range(len(stack))]
        losses = channel_losses(state, stack)
        assert (losses == 4e306).all()
        assert np.array_equal(losses, np.array([channel_losses(state, [w])[0] for w in listed]))
        for _, selector in kernel_selectors(state.spec):
            want = np.array([channel_gradient_norms(state, [w], selector)[0] for w in listed])
            assert np.array_equal(channel_gradient_norms(state, stack, selector), want)
        # a window whose own total overflows is still refused
        state, stack = zero_linear_windows(1e153, bad=1e155)
        for kernel in (channel_losses, channel_gradient_norms):
            for windows in (stack, [stack[20]]):
                with pytest.raises(core.NonFiniteError, match="^forward pass produced"):
                    kernel(state, windows)

    def test_no_warning_before_the_error(self):
        """With warnings as errors, the checked paths raise NonFiniteError or
        return their finite (or, for the norms, infinite) result."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state, stack = zero_linear_windows(1e153)
            assert (channel_losses(state, stack) == 4e306).all()
            assert np.isinf(channel_gradient_norms(state, stack)).all()
            with pytest.raises(core.NonFiniteError, match="self-influence overflowed"):
                influence.self_influence_rows(state, stack, 1.0)
            with pytest.raises(core.NonFiniteError, match="^forward pass produced"):
                mean_window_mse(state, stack)
            # squares of 1e160 overflow in every window
            state, stack = zero_linear_windows(1e160)
            for kernel in (channel_losses, channel_gradient_norms, mean_window_mse,
                           lambda s, w: influence.self_influence_rows(s, w, 1.0)):
                with pytest.raises(core.NonFiniteError, match="^forward pass produced"):
                    kernel(state, stack)


def training_windows(rng, spec, count, stride=None, step=None):
    """count random windows of spec's shape: a window list by default; with a
    stride, make_windows' view of a random series, sliced from window 1 on
    with step when one is given."""
    if stride is None:
        return [random_window(rng, spec.total_rows, spec.channels) for _ in range(count)]
    cut = count * step if step else count - 1
    names = tuple(f"c{j}" for j in range(spec.channels))
    series = core.MtsSeries(rng.normal(size=(cut * stride + spec.total_rows, spec.channels)), names)
    stack = core.make_windows(series, spec.total_rows, stride)
    return stack[1::step] if step else stack


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

    @pytest.mark.parametrize(
        "lr", [float("nan"), float("inf"), -0.01, pytest.param(10**400, id="int_past_float_range")]
    )
    def test_rejects_bad_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be finite and non-negative"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("epochs", True, "epochs must be an integer, got True"),
            ("epochs", 1.5, "epochs must be an integer, got 1.5"),
            ("batch_size", 2.5, "batch_size must be an integer, got 2.5"),
            ("batch_size", float("nan"), "batch_size must be an integer, got nan"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", False, "seed must be an integer, got False"),
            ("learning_rate", True, "learning_rate must be a JSON number, got True"),
            ("learning_rate", "0.01", "learning_rate must be a JSON number, got '0.01'"),
        ],
        ids=["epochs_bool", "epochs_half", "batch_half", "batch_nan", "seed_half", "seed_bool",
             "learning_rate_bool", "learning_rate_str"],
    )
    def test_rejects_bool_or_non_integral_fields(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    def test_integral_floats_and_numpy_ints_become_ints(self):
        config = TrainConfig(2.0, np.float64(0.5), np.int32(4), np.int64(3))
        assert config == TrainConfig(2, 0.5, 4, 3)
        assert all(type(v) is int for v in (config.epochs, config.batch_size, config.seed))

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

    def test_runs_no_tape_backward_pass(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("training ran a tape backward pass")

        monkeypatch.setattr(ad, "backward", refuse)
        spec = ModelSpec("mlp_mix", 4, 3, hidden=3, horizon=1)
        wins = training_windows(np.random.default_rng(9), spec, 10)
        train(init_params(spec, 0), wins, TrainConfig(2, 0.01, 4, 0))


def tape_train(state, windows, config, trainable=None):
    """SGD with every step taken on the tape (tape_squared_error, then
    autodiff.backward): the oracle for train's closed-form step."""
    spec = state.spec
    selector = trainable if trainable is not None else all_params_selector(spec)
    inputs, targets = models._split_xy(spec, core.as_window_stack(windows))
    params = {name: np.array(v) for name, v in state.params.items()}
    rng = np.random.default_rng(config.seed)
    for epoch in range(config.epochs):
        perm = rng.permutation(len(windows))
        for batch_idx, start in enumerate(range(0, len(windows), config.batch_size)):
            batch = perm[start : start + config.batch_size]
            try:
                tape, sq = tape_squared_error(spec, params, inputs[batch], targets[batch])
                loss = ad.scale(ad.reduce_sum(sq), 1.0 / sq.value.size)
            except ad.NonFiniteError as e:
                raise RuntimeError(
                    f"training loss is not finite at epoch {epoch}, batch {batch_idx}"
                ) from e
            flat = ad.backward(tape, loss, selector).values
            pos = 0
            for name in selector.names:
                shape = params[name].shape
                size = params[name].size
                step = flat[pos : pos + size].reshape(shape)
                params[name] = params[name] - config.learning_rate * step
                pos += size
    return ModelState(spec, params, trained_lr=config.learning_rate)


def trainable_selectors(spec):
    yield None
    yield last_layer_selector(spec)
    if spec.architecture == "mlp_mix":
        yield ParamSelector(f"{spec.architecture}/mixing", ("mix",))


class TestTrainMatchesTape:
    @pytest.mark.parametrize("horizon", [0, 2])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("architecture", ["linear_ci", "mlp_ci", "mlp_mix"])
    def test_parameters_are_bit_identical(self, architecture, activation, horizon):
        rng = np.random.default_rng(71)
        spec = ModelSpec(architecture, 5, 3, hidden=4, activation=activation, horizon=horizon)
        state = perturbed_state(spec, rng)
        # 23 windows in batches of 5 leave a partial last batch
        wins = training_windows(rng, spec, 23)
        config = TrainConfig(epochs=3, learning_rate=0.05, batch_size=5, seed=4)
        for trainable in trainable_selectors(spec):
            got = train(state, wins, config, trainable)
            want = tape_train(state, wins, config, trainable)
            for name in state.params:
                assert np.array_equal(got.params[name], want.params[name]), (trainable, name)


class TestTrainMatchesTapeAtBenchmarkScale:
    """The oracle cases above are 5x3 windows; these run the batch widths
    of the benchmark, where BLAS takes its blocked paths."""

    @staticmethod
    def assert_same(state, wins, config):
        got = train(state, wins, config)
        want = tape_train(state, wins, config)
        for name in state.params:
            assert np.array_equal(got.params[name], want.params[name]), name

    @pytest.mark.parametrize("channels", [None, [0, 5, 9, 30]], ids=["all", "subset"])
    def test_pruning_scenario(self, channels):
        spec = PRUNING_SPEC
        wins = core.make_windows(pruning_split(0).train, spec.total_rows)
        if channels is not None:
            wins = core.WindowStack(wins.values[..., channels], wins.origins)
        config = TrainConfig(epochs=2, learning_rate=1e-2, batch_size=32, seed=0)
        self.assert_same(init_params(spec, 0), wins, config)

    def test_buffers_past_the_mmap_threshold(self):
        # 16 rows x 32 windows x 40 channels: 163,840-byte gather and residual
        # buffers, which glibc serves by mmap rather than from the heap
        rng = np.random.default_rng(92)
        spec = ModelSpec("linear_ci", 16, 40)
        wins = training_windows(rng, spec, 70)
        config = TrainConfig(epochs=2, learning_rate=1e-2, batch_size=32, seed=2)
        self.assert_same(perturbed_state(spec, rng), wins, config)

    def test_mixing_model(self):
        # b*N = 16 * 16 = 256 columns per full batch
        rng = np.random.default_rng(91)
        spec = ModelSpec("mlp_mix", 12, 16, hidden=8, horizon=3)
        wins = training_windows(rng, spec, 40)
        config = TrainConfig(epochs=2, learning_rate=1e-2, batch_size=16, seed=1)
        self.assert_same(perturbed_state(spec, rng), wins, config)


def window_of(rows):
    return MtsWindow(np.array(rows, dtype=np.float64), origin_t=len(rows) - 1)


def hidden_overflow_case(activation, bad_rows):
    """mlp_ci whose pre-activation overflows on one window; relu maps the
    resulting NaN (inf - inf) to 0 and tanh maps inf to 1, so the loss
    alone stays finite."""
    spec = ModelSpec("mlp_ci", 2, 1, hidden=1, activation=activation)
    params = {"w1": [[1e300, 1e300]], "b1": [0.0], "w2": [[1.0], [1.0]], "b2": [0.0, 0.0]}
    rng = np.random.default_rng(0)
    wins = training_windows(rng, spec, 5) + [window_of(bad_rows)]
    return ModelState(spec, params), wins, TrainConfig(2, 1e-3, 2, 0), None


def lr_blowup_case():
    spec = ModelSpec("linear_ci", 4, 2)
    wins = training_windows(np.random.default_rng(5), spec, 8)
    return init_params(spec, 0), wins, TrainConfig(60, 1e12, 8, 0), None


def gradient_overflow_case(trainable_mix):
    """Finite forward values and loss, but an output-layer product (linear)
    or a hidden adjoint (mlp_mix, mixing matrix only) overflows."""
    wins = [window_of([[1e200], [1e200], [0.0]])]
    config = TrainConfig(1, 1e-3, 1, 0)
    if not trainable_mix:
        spec = ModelSpec("linear_ci", 2, 1, horizon=1)
        return ModelState(spec, {"weight": [[1e-50, 0.0]], "bias": [0.0]}), wins, config, None
    spec = ModelSpec("mlp_mix", 2, 1, hidden=1, activation="tanh", horizon=1)
    params = {"mix": [[1e-100]], "w1": [[1.0, 1.0]], "b1": [0.0], "w2": [[1e154]], "b2": [0.0]}
    return ModelState(spec, params), wins, config, ParamSelector("mlp_mix/mixing", ("mix",))


def mixing_overflow_case():
    spec = ModelSpec("mlp_mix", 2, 2, hidden=2, activation="relu")
    params = dict(init_params(spec, 0).params)
    params["mix"] = np.full((2, 2), 1e300)
    wins = training_windows(np.random.default_rng(0), spec, 3)
    wins.append(window_of([[1e10, 1e10], [1e10, 1e10]]))
    return ModelState(spec, params), wins, TrainConfig(2, 1e-3, 2, 1), None


def mixed_input_case(mix, w1):
    """mlp_mix (window 2, 2 channels) on one window of 1e10s whose mixed
    input x @ mix is not finite: inf for mix entries 1e300, NaN (inf - inf)
    for a column of mix holding 1e300 and -1e300."""
    spec = ModelSpec("mlp_mix", 2, 2, hidden=2, activation="tanh")
    params = dict(init_params(spec, 0).params, mix=np.array(mix), w1=np.array(w1))
    wins = [window_of([[1e10, 1e10], [1e10, 1e10]])]
    return ModelState(spec, params), wins, TrainConfig(1, 1e-3, 1, 0), None


MIXED_INPUT_CASES = {
    "infinite": lambda: mixed_input_case(np.full((2, 2), 1e300), [[1.0, -1.0], [0.5, 0.5]]),
    "nan": lambda: mixed_input_case([[1e300, 1e300], [-1e300, -1e300]], [[1.0, -1.0], [0.5, 0.5]]),
    # a zero weight: the pre-activation is 0 * inf = NaN
    "infinite_zero_weight": lambda: mixed_input_case(np.full((2, 2), 1e300), np.zeros((2, 2))),
}


class TestNonFiniteMixedInput:
    """The forward-pass check tests the pre-activation a, not the mixed
    input xm: every mlp_mix model has a hidden layer, and a NaN or an
    infinity in xm reaches a = w1 @ xm + b1 as one, so a refuses it. The
    tape refuses the same windows, and train and the tape route fail alike."""

    @pytest.mark.parametrize("case", list(MIXED_INPUT_CASES))
    def test_pre_activation_refuses_it_as_the_tape_does(self, case):
        state, wins, config, _ = MIXED_INPUT_CASES[case]()
        x, t = models._split_xy(state.spec, wins[0])
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, xm, a, _ = models._forward_parts(state.spec, state.params, x)
            assert not np.isfinite(xm).all() and not np.isfinite(a).all()
            with pytest.raises(core.NonFiniteError) as caught:
                models._residual(state.spec, state.params, x, t)
            assert str(caught.value) == "forward pass produced non-finite values"
            assert tape_refuses(state, wins[0])
            raised = []
            for trainer in (train, tape_train):
                with pytest.raises(RuntimeError) as info:
                    trainer(state, wins, config)
                assert type(info.value.__cause__) is core.NonFiniteError
                raised.append(str(info.value))
        assert raised == ["training loss is not finite at epoch 0, batch 0"] * 2


def sum_overflow_case():
    """A reconstruction whose residuals (1e154) and their squares (1e308) are
    all finite, while the batch's sum of squares overflows."""
    spec = ModelSpec("linear_ci", 2, 1)
    params = {"weight": [[0.0, 0.0], [0.0, 0.0]], "bias": [0.0, 0.0]}
    wins = [window_of([[1e154], [1e154]])]
    return ModelState(spec, params), wins, TrainConfig(1, 1e-3, 1, 0), None


def nan_residual_case():
    """A prediction of inf - inf = NaN (linear_ci has no hidden layer to
    catch it), so the residuals' dot is NaN and only the loss check sees it."""
    spec = ModelSpec("linear_ci", 2, 1)
    params = {"weight": [[1e300, -1e300], [0.0, 0.0]], "bias": [0.0, 0.0]}
    wins = training_windows(np.random.default_rng(0), spec, 3) + [window_of([[1e10], [1e10]])]
    return ModelState(spec, params), wins, TrainConfig(1, 1e-3, 2, 0), None


NOT_FINITE_AT_0_0 = (RuntimeError, "training loss is not finite at epoch 0, batch 0")
GRADIENT_NOT_FINITE = (ad.NonFiniteError, "gradient has non-finite entries")


def params_overflow_case():
    """A learning rate that sends the first update past the float range, so
    the next step finds a non-finite parameter before its forward pass."""
    spec = ModelSpec("linear_ci", 2, 1)
    wins = training_windows(np.random.default_rng(2), spec, 4)
    return init_params(spec, 0), wins, TrainConfig(2, 1e308, 4, 0), None


# each way training fails, with the exception both routes raise
TRAIN_FAILURES = {
    "relu_hides_nan": (lambda: hidden_overflow_case("relu", [[1e10], [-1e10]]), NOT_FINITE_AT_0_0),
    "tanh_hides_inf": (
        lambda: hidden_overflow_case("tanh", [[1e10], [1e10]]),
        (RuntimeError, "training loss is not finite at epoch 0, batch 1"),
    ),
    "lr_blowup": (
        lr_blowup_case, (RuntimeError, "training loss is not finite at epoch 13, batch 0"),
    ),
    "output_gradient": (lambda: gradient_overflow_case(False), GRADIENT_NOT_FINITE),
    "mixing_gradient": (lambda: gradient_overflow_case(True), GRADIENT_NOT_FINITE),
    "mixing_forward": (mixing_overflow_case, NOT_FINITE_AT_0_0),
    "squares_sum_overflows": (sum_overflow_case, NOT_FINITE_AT_0_0),
    "nan_residual": (nan_residual_case, NOT_FINITE_AT_0_0),
    "parameters_overflow": (
        params_overflow_case, (RuntimeError, "training loss is not finite at epoch 1, batch 0"),
    ),
}


class TestTrainFailuresMatchTape:
    """train rejects exactly what the tape route rejected, with the same
    exception type and message. Behind each is one NonFiniteError: the
    gradient's own, or the cause of the RuntimeError that a non-finite
    forward pass or parameter becomes on both routes."""

    @pytest.mark.parametrize("case", list(TRAIN_FAILURES))
    def test_same_exception_as_tape(self, case):
        build, expected = TRAIN_FAILURES[case]
        state, wins, config, trainable = build()
        raised = []
        for trainer in (train, tape_train):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises((RuntimeError, ValueError)) as info:
                    trainer(state, wins, config, trainable)
            assert type(info.value.__cause__ or info.value) is core.NonFiniteError
            raised.append((info.type, str(info.value)))
        assert raised[0] == raised[1] == expected


def zero_linear_state():
    spec = ModelSpec("linear_ci", 2, 1)
    return ModelState(spec, {"weight": np.zeros((2, 2)), "bias": np.zeros(2)})


def residual_dot(residuals):
    """The dot of all residuals that the loss check tests against 1e300."""
    flat = np.ravel(residuals)
    with np.errstate(over="ignore"):
        return flat @ flat


class TestLossCheckFastAccept:
    """The loss check accepts on the residuals' one dot product below 1e300
    and runs the exact per-batch totals only above it; the batches rejected
    stay those the tape rejects."""

    def test_stack_dot_overflows_while_each_window_total_is_finite(self):
        state = zero_linear_state()
        # totals 9.8e307 and 8.5e307: each finite, their sum past the float range
        wins = [window_of([[7e153], [7e153]]), window_of([[-7e153], [6e153]])]
        assert residual_dot([w.values for w in wins]) == math.inf
        rows = whole_gradient_rows(state, wins)
        for row, win in zip(rows, wins):
            assert np.array_equal(row, whole_gradient_rows(state, [win])[0])

    def test_dot_above_the_fast_bound_trains_like_the_tape(self):
        state = zero_linear_state()
        wins = [window_of([[1e150], [2e150]]), window_of([[-1e150], [3e150]]),
                window_of([[1e150], [1e150]])]
        # a 1e-300 step keeps the model finite while every loss stays huge
        config = TrainConfig(epochs=3, learning_rate=1e-300, batch_size=2, seed=0)
        # the zero model's residuals are the windows, so the first batch's
        # dot lies between one window's and the whole stack's
        assert min(residual_dot(w.values) for w in wins) >= 1e300
        assert residual_dot([w.values for w in wins]) < sys.float_info.max
        got = train(state, wins, config)
        want = tape_train(state, wins, config)
        for name in state.params:
            assert np.array_equal(got.params[name], want.params[name]), name


class TestTrainBatchBuffer:
    """train gathers every batch into one buffer per call; each batch shape
    it meets trains bit-identically to the tape."""

    @pytest.mark.parametrize(
        "batch_size, count, trainable, stride, step",
        [(40, 7, None, None, None), (1, 6, None, None, None), (4, 11, None, None, None),
         (4, 11, ParamSelector("mlp_mix/mixing", ("mix",)), None, None),
         (4, 11, None, 1, None), (4, 11, None, 2, None), (4, 11, None, 2, 3),
         (40, 7, None, 1, None)],
        ids=["batch_above_window_count", "batch_of_one", "partial_last_batch", "mix_only_refit",
             "view_stride_1", "view_stride_2", "view_slice_with_step",
             "view_batch_above_window_count"],
    )
    def test_bit_identical_to_tape(self, batch_size, count, trainable, stride, step):
        rng = np.random.default_rng(73)
        spec = ModelSpec("mlp_mix", 5, 3, hidden=4, horizon=2)
        state = perturbed_state(spec, rng)
        wins = training_windows(rng, spec, count, stride, step)
        assert len(wins) == count
        config = TrainConfig(epochs=3, learning_rate=0.05, batch_size=batch_size, seed=5)
        got = train(state, wins, config, trainable)
        want = tape_train(state, wins, config, trainable)
        # a view stack trains as the window list of its windows does
        listed = train(state, list(wins), config, trainable) if stride else got
        for name in state.params:
            assert np.array_equal(got.params[name], want.params[name]), name
            assert np.array_equal(got.params[name], listed.params[name]), name

    @pytest.mark.parametrize(
        "architecture, horizon, batch_size, count, stride, step",
        [("linear_ci", 0, 4, 12, None, None), ("mlp_ci", 0, 5, 12, None, None),
         ("mlp_mix", 2, 5, 12, None, None), ("linear_ci", 1, 40, 7, None, None),
         ("mlp_mix", 0, 40, 7, None, None), ("mlp_ci", 0, 5, 12, 1, None),
         ("linear_ci", 1, 4, 12, 2, None), ("mlp_mix", 2, 5, 12, 2, 3),
         ("mlp_mix", 2, 40, 7, 1, None)],
        ids=["full_batches", "partial_last_batch", "partial_last_batch_horizon",
             "batch_above_window_count_horizon", "batch_above_window_count",
             "view_stride_1", "view_stride_2_horizon", "view_slice_with_step_horizon",
             "view_batch_above_window_count_horizon"],
    )
    def test_step_operands_start_on_a_64_byte_boundary(
        self, monkeypatch, architecture, horizon, batch_size, count, stride, step
    ):
        """x and the residual, the gemm operands of every step, are 64-byte
        aligned. t is the view of the gather buffer right after x, so it is
        aligned when window * batch * N is a multiple of 8; it feeds no gemm."""
        steps = []
        batch_adjoint = models._batch_adjoint

        def spy(spec, params, x, t, scale, out=None):
            adjoint = batch_adjoint(spec, params, x, t, scale, out)
            steps.append((x, t, adjoint[0]))
            return adjoint

        monkeypatch.setattr(models, "_batch_adjoint", spy)
        rng = np.random.default_rng(75)
        spec = ModelSpec(architecture, 5, 3, hidden=4, horizon=horizon)
        state = perturbed_state(spec, rng)
        wins = training_windows(rng, spec, count, stride, step)
        config = TrainConfig(epochs=2, learning_rate=0.05, batch_size=batch_size, seed=6)
        got = train(state, wins, config)
        widths = [len(range(count)[s : s + batch_size]) for s in range(0, count, batch_size)]
        assert [x.shape[1] // 3 for x, _, _ in steps] == widths * 2
        for x, t, residual in steps:
            assert x.ctypes.data % 64 == 0 and residual.ctypes.data % 64 == 0
            assert residual.shape == t.shape
            assert t.ctypes.data - x.ctypes.data == (x.nbytes if horizon else 0)
        monkeypatch.undo()
        want = tape_train(state, wins, config)
        for name in state.params:
            assert np.array_equal(got.params[name], want.params[name]), name

    def test_a_second_call_leaves_the_first_result_unchanged(self):
        rng = np.random.default_rng(74)
        spec = ModelSpec("linear_ci", 4, 2, horizon=1)
        config = TrainConfig(epochs=2, learning_rate=0.05, batch_size=3, seed=0)
        first = train(init_params(spec, 0), training_windows(rng, spec, 7), config)
        kept = {name: value.copy() for name, value in first.params.items()}
        train(init_params(spec, 1), training_windows(rng, spec, 7), config)
        for name in kept:
            assert np.array_equal(first.params[name], kept[name]), name


def huge_bias_state():
    """linear_ci whose loss (2e300) and gradient rows (up to 2e250) are finite
    on HUGE_WINDOW while every product of two rows overflows."""
    spec = ModelSpec("linear_ci", 2, 1)
    return ModelState(spec, {"weight": np.zeros((2, 2)), "bias": np.full(2, 1e150)})


def raise_train_cause(case):
    """Train on a case and re-raise the cause of train's RuntimeError."""
    with pytest.raises(RuntimeError) as caught:
        train(*case()[:3])
    raise caught.value.__cause__


def square_on_tape(value):
    tape = ad.Tape()
    return ad.square(tape.leaf(value, "w"))


def labelled_series(values, anomalous_t):
    labels = np.zeros(len(values), dtype=np.int64)
    labels[anomalous_t] = 1
    return core.MtsSeries(values, [f"c{j}" for j in range(values.shape[1])], labels)


def detect_tied_scores():
    """cmd_detect on a model that reconstructs every window exactly: every
    score ties at 0, so the best F1 flags every window, at h = -inf."""
    spec = ModelSpec("linear_ci", 2, 1)
    state = ModelState(spec, {"weight": np.eye(2), "bias": np.zeros(2)})
    series = labelled_series(np.random.default_rng(0).normal(size=(40, 1)), 35)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"series_csv": f"{tmp}/s.csv", "checkpoint": f"{tmp}/m.json"}
        data.save_csv(series, paths["series_csv"])
        save_checkpoint(state, paths["checkpoint"])
        config = dict(paths, method="reconstruction_error", threshold_on="test")
        cli.cmd_detect(cli._read(config, cli.SCHEMAS["detect"]), tmp)


def detect_overflowing_scores():
    """A zero reconstructor's finite scores (4.9e299 over one 7e149 entry,
    0 elsewhere) whose median_iqr normalization overflows: the IQR is 0,
    clamped to 1e-12."""
    values = np.zeros((40, 1))
    values[20] = 7e149
    config = anomaly.DetectConfig("reconstruction_error", normalization="median_iqr",
                                  threshold_on="test")
    anomaly.detect(zero_linear_state(), labelled_series(values, 20), config)


def overflowing_rows_state():
    """linear_ci (window 2, horizon 1) whose forward pass on
    OVERFLOWING_ROWS_WINDOW is finite, residual 1e150 against a target of 0,
    while the output weight's gradient row, 2e150 times 1e200, overflows."""
    spec = ModelSpec("linear_ci", 2, 1, horizon=1)
    return ModelState(spec, {"weight": np.zeros((1, 2)), "bias": np.full(1, 1e150)})


OVERFLOWING_ROWS_WINDOW = MtsWindow(np.array([[1e200], [1e200], [0.0]]), origin_t=2)


NAN = float("nan")
HUGE_WINDOW = window_of([[1e100], [1e100]])
# every finiteness site, fed a NaN or an overflow, and its message byte for byte
FINITENESS_SITES = {
    "MtsSeries": (lambda: core.MtsSeries([[NAN]], ("a",)), "series values must be finite"),
    "MtsWindow": (lambda: MtsWindow([[math.inf]], 0), "window values must be finite"),
    "WindowStack": (
        lambda: core.WindowStack([[[NAN]]], [0]), "window values must be finite",
    ),
    "GradientVector": (
        lambda: ad.GradientVector([NAN], "s"), "gradient has non-finite entries",
    ),
    "Tape.leaf": (lambda: ad.Tape().leaf([NAN], "w"), "leaf 'w' has non-finite entries"),
    "Tape._record": (
        lambda: square_on_tape([1e200]),
        "primitive at tape position 1 produced non-finite values",
    ),
    "ModelState.params": (
        lambda: ModelState(ModelSpec("linear_ci", 2, 1),
                           {"weight": np.full((2, 2), NAN), "bias": np.zeros(2)}),
        "parameter 'weight' has non-finite entries",
    ),
    "channel_gradient_rows.forward": (
        lambda: channel_gradient_rows(
            ModelState(ModelSpec("linear_ci", 2, 1),
                       {"weight": np.full((2, 2), 1e200), "bias": np.zeros(2)}),
            [window_of([[1e200], [1e200]])],
        ),
        "forward pass produced non-finite values",
    ),
    "channel_gradient_rows.rows": (
        lambda: channel_gradient_rows(overflowing_rows_state(), [OVERFLOWING_ROWS_WINDOW]),
        "channel gradients produced non-finite values",
    ),
    "channel_losses": (
        lambda: models.channel_losses(zero_linear_state(), [window_of([[1e200], [1.0]])]),
        "forward pass produced non-finite values",
    ),
    "mean_window_mse": (
        lambda: models.mean_window_mse(zero_linear_state(), [window_of([[1e200], [1.0]])]),
        "forward pass produced non-finite values",
    ),
    "whole_gradient_rows": (
        lambda: whole_gradient_rows(*gradient_overflow_case(False)[:2]),
        "gradient has non-finite entries",
    ),
    "train.forward": (
        lambda: raise_train_cause(mixing_overflow_case), "forward pass produced non-finite values",
    ),
    "train.parameters": (
        lambda: raise_train_cause(params_overflow_case), "parameters produced non-finite values",
    ),
    "train.gradient": (
        lambda: train(*gradient_overflow_case(False)[:3]), "gradient has non-finite entries",
    ),
    "InfluenceMatrix": (
        lambda: influence.InfluenceMatrix([[NAN]], 1.0, "s"),
        "influence matrix has non-finite entries",
    ),
    "influence_matrix": (
        lambda: influence.influence_matrix(huge_bias_state(), HUGE_WINDOW, HUGE_WINDOW, 1.0),
        "influence matrix has non-finite entries",
    ),
    "cif": (
        lambda: influence.cif(ad.GradientVector([1e200], "s"), ad.GradientVector([1e200], "s"), 1.0),
        "influence overflowed",
    ),
    "tracin": (
        lambda: influence.tracin(huge_bias_state(), HUGE_WINDOW, HUGE_WINDOW, 1.0),
        "influence overflowed",
    ),
    "self_influence_rows": (
        lambda: influence.self_influence_rows(huge_bias_state(), [HUGE_WINDOW], 1.0),
        "self-influence overflowed",
    ),
    "tracin_self_scores": (
        lambda: influence.tracin_self_scores(huge_bias_state(), [HUGE_WINDOW], 1.0),
        "self-influence overflowed",
    ),
    "ScoreSeries": (
        lambda: anomaly.ScoreSeries([NAN], "cif_self_influence", (0,)), "scores must be finite",
    ),
    "detect.scores": (detect_overflowing_scores, "scores must be finite"),
    "select_threshold": (
        lambda: anomaly.select_threshold([NAN, 0.5, 1.0], [0, 0, 1]), "scores must be finite",
    ),
    "auroc": (lambda: anomaly.auroc([NAN, 0.5, 1.0], [0, 1, 1]), "scores must be finite"),
    "ChannelScoreTable": (lambda: pruning.ChannelScoreTable([math.inf]), "scores must be finite"),
    "cmd_detect.threshold": (
        detect_tied_scores, "threshold: the best F1 is at -inf, not a finite threshold",
    ),
}


class TestOneFinitenessRule:
    @pytest.mark.parametrize("site", list(FINITENESS_SITES))
    def test_every_site_raises_non_finite_error(self, site):
        build, message = FINITENESS_SITES[site]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(core.NonFiniteError) as caught:
                build()
        assert type(caught.value) is core.NonFiniteError and str(caught.value) == message

    def test_non_finite_error_is_one_value_error(self):
        assert ad.NonFiniteError is core.NonFiniteError
        assert issubclass(core.NonFiniteError, ValueError)


def kernel_outcome(kernel):
    """None when the kernel returns finite values, else its NonFiniteError's
    message; any other exception propagates and fails the test."""
    try:
        values = kernel()
    except core.NonFiniteError as e:
        return str(e)
    values = values.values if isinstance(values, influence.InfluenceMatrix) else values
    assert np.isfinite(values).all()
    return None


def tape_refuses(state, window) -> bool:
    """Whether building the tape's whole-window loss raises."""
    try:
        # the tape is held: a node needs its tape alive
        tape, sq = tape_window_loss(state, window)
        ad.reduce_sum(sq)
    except core.NonFiniteError:
        return True
    return False


@st.composite
def extreme_cases(draw):
    """A model of any architecture, horizon, activation and selector whose
    parameters, and two windows whose entries, have magnitudes from 1e-300
    to 1e300: one power of ten per array, and one sign for all its entries
    or mixed signs, so an overflow can come out an infinity (which tanh and
    relu can hide) as well as a NaN."""
    spec = ModelSpec(draw(st.sampled_from(models.ARCHITECTURES)), 3, 2, hidden=2,
                     activation=draw(st.sampled_from(models.ACTIVATIONS)),
                     horizon=draw(st.sampled_from((0, 1, 2))))
    shapes = param_shapes(spec)
    kind = draw(st.sampled_from(("last_layer", "all", "single")))
    if kind == "single":
        selector = ParamSelector("single", (draw(st.sampled_from(tuple(shapes))),))
    else:
        selector = last_layer_selector(spec) if kind == "last_layer" else all_params_selector(spec)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def array(shape):
        values = rng.normal(size=shape)
        sign = draw(st.sampled_from((1.0, -1.0, None)))
        values = values if sign is None else sign * np.abs(values)
        return values * 10.0 ** draw(st.integers(-300, 300))

    params = {name: array(shape) for name, shape in shapes.items()}
    windows = [MtsWindow(array((spec.total_rows, 2)), t)
               for t in (spec.total_rows - 1, spec.total_rows)]
    return ModelState(spec, params), selector, windows


class TestKernelsFiniteOrRefused:
    """Every kernel returns finite values or raises NonFiniteError, whatever
    the magnitudes; and on one window, the rows and losses refuse the
    forward pass exactly when the tape does. channel_gradient_norms returns
    an infinity for a norm that overflows, by design, so it is held to the
    rows instead: finite wherever their einsum is, and within 1e-12 of it."""

    @settings(max_examples=300, deadline=None)
    @given(extreme_cases())
    def test_finite_or_non_finite_error(self, case):
        state, selector, windows = case
        kernels = {
            "channel_gradient_rows": lambda w: channel_gradient_rows(state, w, selector),
            "whole_gradient_rows": lambda w: whole_gradient_rows(state, w, selector),
            "self_influence_rows": lambda w: influence.self_influence_rows(state, w, 1.0, selector),
            "tracin_self_scores": lambda w: influence.tracin_self_scores(state, w, 1.0, selector),
            "influence_matrix": lambda w: influence.influence_matrix(
                state, w[0], w[-1], 1.0, selector),
            "channel_losses": lambda w: channel_losses(state, w),
            "mean_window_mse": lambda w: mean_window_mse(state, w),
            "window_loss": lambda w: np.array([window_loss(state, win) for win in w]),
        }
        with np.errstate(all="ignore"):
            for kernel in kernels.values():
                kernel_outcome(lambda: kernel(windows))
            refused = tape_refuses(state, windows[0])
            for name in ("channel_gradient_rows", "whole_gradient_rows", "channel_losses",
                         "mean_window_mse", "window_loss"):
                outcome = kernel_outcome(lambda: kernels[name](windows[:1]))
                forward = outcome == "forward pass produced non-finite values"
                assert forward == refused, (name, outcome)
            assert_norms_match_rows(state, selector, windows)


def assert_norms_match_rows(state, selector, windows):
    """channel_gradient_norms refuses the forward pass when the rows do, and
    is finite, within 1e-12 relative, wherever the rows' einsum is finite.
    Below the smallest normal float the einsum itself has no such precision,
    so there the bound is 1e-12 of that number."""
    try:
        rows = channel_gradient_rows(state, windows, selector)
    except core.NonFiniteError as e:
        if str(e) != "forward pass produced non-finite values":
            return  # a row entry overflowed, so the rows' einsum is not finite
        with pytest.raises(core.NonFiniteError, match="^forward pass produced"):
            channel_gradient_norms(state, windows, selector)
        return
    want = np.einsum("bnp,bnp->bn", rows, rows)
    got = channel_gradient_norms(state, windows, selector)
    bounded = np.isfinite(want)
    assert np.isfinite(got[bounded]).all(), (got, want)
    err = np.abs(got - want)[bounded]
    assert (err <= 1e-12 * np.maximum(want[bounded], models._TINY)).all(), (got, want)


class TestWholeGradientMatchesTape:
    @pytest.mark.parametrize("horizon", [0, 2])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("architecture", ["linear_ci", "mlp_ci", "mlp_mix"])
    def test_bit_identical(self, architecture, activation, horizon):
        rng = np.random.default_rng(81)
        spec = ModelSpec(architecture, 5, 3, hidden=4, activation=activation, horizon=horizon)
        state = perturbed_state(spec, rng)
        windows = [random_window(rng, spec.total_rows, 3) for _ in range(4)]
        for _, selector in kernel_selectors(spec):
            for w in windows:
                got = whole_gradient(state, w, selector)
                want = tape_whole_gradient(state, w, selector)
                assert got.selector_id == want.selector_id
                assert np.array_equal(got.values, want.values), selector.selector_id

    @pytest.mark.parametrize(
        "case",
        [
            lambda: hidden_overflow_case("relu", [[1e10], [-1e10]]),
            lambda: hidden_overflow_case("tanh", [[1e10], [1e10]]),
            lambda: gradient_overflow_case(False),
            lambda: gradient_overflow_case(True),
            mixing_overflow_case,
        ],
        ids=["relu_hides_nan", "tanh_hides_inf", "output_gradient", "mixing_gradient",
             "mixing_forward"],
    )
    def test_same_exception_type_as_tape(self, case):
        state, wins, _, trainable = case()
        selector = trainable if trainable is not None else all_params_selector(state.spec)
        raised = []
        for gradient in (whole_gradient, tape_whole_gradient):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError) as info:
                    gradient(state, wins[-1], selector)
            raised.append(info.type)
        assert raised[0] is raised[1]

    def test_unknown_parameter_rejected(self):
        state = identity_linear(3, 2)
        win = random_window(np.random.default_rng(0), 3, 2)
        with pytest.raises(ValueError, match="unknown parameter 'w1'"):
            whole_gradient(state, win, ParamSelector("x", ("w1",)))


class TestWholeGradientRows:
    @pytest.mark.parametrize("horizon", [0, 2])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("architecture", ["linear_ci", "mlp_ci", "mlp_mix"])
    def test_rows_bit_identical_to_tape(self, architecture, activation, horizon):
        rng = np.random.default_rng(83)
        spec = ModelSpec(architecture, 5, 3, hidden=4, activation=activation, horizon=horizon)
        state = perturbed_state(spec, rng)
        windows = core.as_window_stack(
            [random_window(rng, spec.total_rows, 3) for _ in range(5)]
        )
        for _, selector in kernel_selectors(spec):
            rows = whole_gradient_rows(state, windows, selector)
            assert rows.shape[0] == len(windows)
            for b in range(len(windows)):
                want = tape_whole_gradient(state, windows[b], selector).values
                assert np.array_equal(rows[b], want), selector.selector_id

    @pytest.mark.parametrize("horizon", [0, 2])
    @pytest.mark.parametrize("architecture", ["linear_ci", "mlp_ci", "mlp_mix"])
    def test_chunked_tracin_scores_equal_per_window_tracin(
        self, monkeypatch, architecture, horizon
    ):
        rng = np.random.default_rng(84)
        spec = ModelSpec(architecture, 5, 3, hidden=4, horizon=horizon)
        state = perturbed_state(spec, rng)
        windows = [random_window(rng, spec.total_rows, 3) for _ in range(11)]
        for _, selector in kernel_selectors(spec):
            per_window = sum(int(np.prod(param_shapes(spec)[n])) for n in selector.names)
            # chunks of 4 windows, the last one short
            monkeypatch.setattr(influence, "_CHUNK_ELEMENTS", 4 * per_window + 1)
            chunked = influence.tracin_self_scores(state, windows, 0.1, selector)
            want = [0.1 * float(g @ g) for g in
                    (tape_whole_gradient(state, w, selector).values for w in windows)]
            assert np.array_equal(chunked, want), selector.selector_id
            assert np.array_equal(
                chunked, [influence.tracin(state, w, w, 0.1, selector) for w in windows]
            )

    def test_tracin_chunks_hold_chunk_elements_row_entries(self, monkeypatch):
        """Each window's gradient row has P entries, whatever the channel
        count, so _CHUNK_ELEMENTS = 4 P gives chunks of 4 windows."""
        spec = ModelSpec("mlp_ci", 5, 8, hidden=4)
        state = perturbed_state(spec, np.random.default_rng(85))
        windows = [random_window(np.random.default_rng(86), 5, 8) for _ in range(10)]
        selector = last_layer_selector(spec)
        p = sum(int(np.prod(param_shapes(spec)[n])) for n in selector.names)
        sizes = []

        def rows(state, chunk, selector):
            sizes.append(len(chunk))
            return whole_gradient_rows(state, chunk, selector)

        monkeypatch.setattr(influence, "_CHUNK_ELEMENTS", 4 * p)
        monkeypatch.setattr(influence, "whole_gradient_rows", rows)
        influence.tracin_self_scores(state, windows, 0.1, selector)
        assert sizes == [4, 4, 2]

    def test_default_selector_is_last_layer(self):
        state = perturbed_state(ModelSpec("mlp_ci", 4, 2, hidden=3), np.random.default_rng(5))
        wins = [random_window(np.random.default_rng(6), 4, 2) for _ in range(3)]
        assert np.array_equal(
            whole_gradient_rows(state, wins),
            whole_gradient_rows(state, wins, last_layer_selector(state.spec)),
        )

    def test_unknown_parameter_rejected(self):
        win = random_window(np.random.default_rng(0), 3, 2)
        with pytest.raises(ValueError, match="unknown parameter 'w1'"):
            whole_gradient_rows(identity_linear(3, 2), [win], ParamSelector("x", ("w1",)))

    def test_empty_window_list_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            whole_gradient_rows(identity_linear(3, 2), [])

    @pytest.mark.parametrize("architecture", ["linear_ci", "mlp_ci"])
    def test_tracin_across_channel_counts_matches_tape(self, architecture):
        # channel-shared models take a pair of windows of different widths
        rng = np.random.default_rng(85)
        state = perturbed_state(ModelSpec(architecture, 5, 3, hidden=4, horizon=2), rng)
        src, dst = random_window(rng, 7, 2), random_window(rng, 7, 4)
        for _, selector in kernel_selectors(state.spec):
            g_src = tape_whole_gradient(state, src, selector).values
            g_dst = tape_whole_gradient(state, dst, selector).values
            got = influence.tracin(state, src, dst, 0.1, selector)
            assert got == 0.1 * float(g_src @ g_dst), selector.selector_id


def count_kernel_calls(monkeypatch):
    """A list that grows by one per forward pass, which every loss and
    gradient kernel starts with, holding the shape of its input."""
    calls = []
    kernel = models._forward_parts

    def counted(*args):
        calls.append(args[2].shape)
        return kernel(*args)

    monkeypatch.setattr(models, "_forward_parts", counted)
    return calls


class TestTracinPairs:
    @pytest.mark.parametrize("horizon", [0, 2])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("architecture", ["linear_ci", "mlp_ci", "mlp_mix"])
    def test_one_stacked_call_equals_two_calls(
        self, monkeypatch, architecture, activation, horizon
    ):
        rng = np.random.default_rng(86)
        spec = ModelSpec(architecture, 5, 3, hidden=4, activation=activation, horizon=horizon)
        state = perturbed_state(spec, rng)
        src, dst = (random_window(rng, spec.total_rows, 3) for _ in range(2))
        calls = count_kernel_calls(monkeypatch)
        for _, selector in kernel_selectors(spec):
            g_src = whole_gradient(state, src, selector).values
            g_dst = whole_gradient(state, dst, selector).values
            calls.clear()
            got = influence.tracin(state, src, dst, 0.1, selector)
            assert got == 0.1 * float(g_src @ g_dst), selector.selector_id
            assert calls == [(2, 5, 3)]

    def test_same_object_takes_one_window_call(self, monkeypatch):
        rng = np.random.default_rng(87)
        state = perturbed_state(ModelSpec("mlp_mix", 5, 3, hidden=4, horizon=2), rng)
        z = random_window(rng, 7, 3)
        g = whole_gradient(state, z, all_params_selector(state.spec)).values
        calls = count_kernel_calls(monkeypatch)
        assert influence.tracin(state, z, z, 0.1, all_params_selector(state.spec)) == (
            0.1 * float(g @ g)
        )
        assert calls == [(1, 5, 3)]

    def test_equal_values_in_distinct_objects(self, monkeypatch):
        rng = np.random.default_rng(88)
        state = perturbed_state(ModelSpec("mlp_ci", 5, 3, hidden=4, horizon=2), rng)
        z = random_window(rng, 7, 3)
        twin = MtsWindow(z.values.copy(), z.origin_t)
        selector = all_params_selector(state.spec)
        calls = count_kernel_calls(monkeypatch)
        assert influence.tracin(state, z, twin, 0.1, selector) == influence.tracin(
            state, z, z, 0.1, selector
        )
        assert calls == [(2, 5, 3), (1, 5, 3)]

    @pytest.mark.parametrize("architecture", ["linear_ci", "mlp_ci"])
    def test_different_channel_counts_take_two_calls(self, monkeypatch, architecture):
        rng = np.random.default_rng(89)
        state = perturbed_state(ModelSpec(architecture, 5, 3, hidden=4, horizon=2), rng)
        src, dst = random_window(rng, 7, 2), random_window(rng, 7, 4)
        calls = count_kernel_calls(monkeypatch)
        for _, selector in kernel_selectors(state.spec):
            g_src = whole_gradient(state, src, selector).values
            g_dst = whole_gradient(state, dst, selector).values
            calls.clear()
            got = influence.tracin(state, src, dst, 0.1, selector)
            assert got == 0.1 * float(g_src @ g_dst), selector.selector_id
            assert calls == [(1, 5, 2), (1, 5, 4)]


@pytest.mark.parametrize(
    "call",
    [
        lambda state, z, sel: channel_gradients(state, z, sel),
        lambda state, z, sel: channel_gradient(state, z, 0, sel),
        lambda state, z, sel: influence.influence_matrix(state, z, z, 0.1, sel),
        lambda state, z, sel: influence.tracin(state, z, z, 0.1, sel),
        lambda state, z, sel: influence.self_influence_per_channel(state, z, 0.1, sel),
        lambda state, z, sel: influence.self_influence_rows(state, [z], 0.1, sel),
        lambda state, z, sel: influence.tracin_self_scores(state, [z], 0.1, sel),
        lambda state, z, sel: train(state, [z], TrainConfig(1, 0.01, 1, 0), sel),
    ],
    ids=[
        "channel_gradients",
        "channel_gradient",
        "influence_matrix",
        "tracin",
        "self_influence_per_channel",
        "self_influence_rows",
        "tracin_self_scores",
        "train",
    ],
)
def test_unknown_selector_name_rejected_before_any_kernel_call(monkeypatch, call):
    state = identity_linear(3, 2)
    z = random_window(np.random.default_rng(0), 3, 2)
    calls = count_kernel_calls(monkeypatch)
    with pytest.raises(ValueError, match="^selector references unknown parameter 'w1'$"):
        call(state, z, ParamSelector("x", ("w1",)))
    assert calls == []


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

    def test_integral_float_spec_fields_load_as_integers(self, tmp_path):
        state = init_params(ModelSpec("mlp_ci", 5, 3, hidden=4, horizon=2), seed=1)
        path = tmp_path / "model.json"
        save_checkpoint(state, str(path))
        doc = json.loads(path.read_text())
        doc["spec"].update(window=5.0, channels=3.0, hidden=4.0, horizon=2.0)
        path.write_text(json.dumps(doc))
        assert load_checkpoint(str(path)).spec == state.spec

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("trained_lr", "0.01", "trained_lr must be a JSON number, got '0.01'"),
            ("trained_lr", True, "trained_lr must be a JSON number, got True"),
            ("trained_lr", 10**400, "OverflowError"),
            ("bias", "1.5", "parameter 'bias' entry must be a JSON number, got '1.5'"),
            ("bias", False, "parameter 'bias' entry must be a JSON number, got False"),
        ],
    )
    def test_numbers_must_be_json_numbers(self, tmp_path, field, value, message):
        state = init_params(ModelSpec("linear_ci", 4, 2), seed=0)
        path = tmp_path / "model.json"
        save_checkpoint(state, str(path))
        doc = json.loads(path.read_text())
        if field == "trained_lr":
            doc["trained_lr"] = value
        else:
            doc["params"][field]["data"][0] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"malformed checkpoint .*{re.escape(message)}"):
            load_checkpoint(str(path))

    def test_nan_parameter_is_a_non_finite_error(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(init_params(ModelSpec("linear_ci", 4, 2), seed=0), str(path))
        doc = json.loads(path.read_text())
        doc["params"]["weight"]["data"][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as caught:
            load_checkpoint(str(path))
        assert str(caught.value) == (f"{path}: malformed checkpoint (NonFiniteError: "
                                     "parameter 'weight' has non-finite entries)")

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"weights": []}')
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_checkpoint(str(path))
