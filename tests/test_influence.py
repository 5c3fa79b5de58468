import re

import numpy as np
import pytest

from chinf import (
    GradientVector,
    InfluenceMatrix,
    ModelSpec,
    ModelState,
    MtsWindow,
    TrainConfig,
    all_params_selector,
    channel_gradient_rows,
    channel_gradients,
    channel_losses,
    cif,
    influence_matrix,
    init_params,
    last_layer_selector,
    param_shapes,
    save_influence_csv,
    self_influence_per_channel,
    self_influence_rows,
    tracin,
    tracin_self_scores,
    train,
    whole_gradient,
)
from chinf import autodiff

from bench_suite import random_model_case, random_window


def gv(values, selector_id="s"):
    return GradientVector(np.asarray(values, dtype=np.float64), selector_id)


class TestCif:
    def test_parallel_unit_gradients(self):
        assert cif(gv([1.0, 0.0]), gv([1.0, 0.0]), 0.1) == 0.1

    def test_orthogonal_gradients(self):
        for eta in (0.1, 1.0, 7.0):
            assert cif(gv([1.0, 0.0]), gv([0.0, 2.0]), eta) == 0.0

    def test_dot_product(self):
        assert cif(gv([1.0, 2.0]), gv([3.0, 4.0]), 1.0) == 11.0

    def test_selector_mismatch(self):
        with pytest.raises(ValueError, match="selectors differ: 'a' vs 'b'"):
            cif(gv([1.0], "a"), gv([1.0], "b"), 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ: 1 vs 2"):
            cif(gv([1.0]), gv([1.0, 2.0]), 1.0)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError, match="eta must be finite and positive, got 0"):
            cif(gv([1.0]), gv([1.0]), 0)


class TestWorkedMatrix:
    """The two-channel example where every entry is a hand dot product."""

    src = (gv([1.0, 0.0]), gv([0.0, 2.0]))
    dst = (gv([1.0, 1.0]), gv([1.0, -1.0]))

    def pairwise(self, eta=1.0):
        return np.array(
            [[cif(gs, gd, eta) for gd in self.dst] for gs in self.src]
        )

    def test_entries(self):
        assert np.array_equal(self.pairwise(), [[1.0, 1.0], [2.0, -2.0]])

    def test_sum_recovers_whole_sample_value(self):
        whole_src = gv(self.src[0].values + self.src[1].values)
        whole_dst = gv(self.dst[0].values + self.dst[1].values)
        assert np.array_equal(whole_src.values, [1.0, 2.0])
        assert np.array_equal(whole_dst.values, [2.0, 0.0])
        assert cif(whole_src, whole_dst, 1.0) == 2.0
        assert self.pairwise().sum() == 2.0

    def test_eta_rescales_entries(self):
        assert np.array_equal(self.pairwise(0.5), 0.5 * self.pairwise())


class TestInfluenceMatrix:
    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            InfluenceMatrix(np.zeros((2, 3)), 1.0, "s")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            InfluenceMatrix(np.array([[1.0, bad], [0.0, 1.0]]), 1.0, "s")

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_in_every_route(self):
        # finite windows and parameters whose gradient products overflow; with
        # warnings as errors, no route warns before it refuses
        state = init_params(ModelSpec("linear_ci", 4, 2), seed=0)
        for magnitude in (1e100, 1e150):
            z = MtsWindow(np.full((4, 2), magnitude), origin_t=3)
            g = channel_gradients(state, z)[0]
            for route in (
                lambda: cif(g, g, 0.1),
                lambda: tracin(state, z, z, 0.1),
                lambda: self_influence_per_channel(state, z, 0.1),
                lambda: tracin_self_scores(state, [z], 0.1),
            ):
                with pytest.raises(autodiff.NonFiniteError, match="overflowed"):
                    route()
            with pytest.raises(ValueError, match="non-finite"):
                influence_matrix(state, z, z, 0.1)
        with pytest.raises(autodiff.NonFiniteError, match="influence overflowed"):
            InfluenceMatrix([[1e308, 1e308], [0.0, 0.0]], 1.0, "s").total()

    def test_total(self):
        m = InfluenceMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), 1.0, "s")
        assert m.total() == 10.0
        assert m.n_channels == 2

    def test_sum_matches_tracin_on_random_models(self):
        rng = np.random.default_rng(21)
        for case in range(24):
            state, z1, z2, selector = random_model_case(rng, case)
            m = influence_matrix(state, z1, z2, eta=0.01, selector=selector)
            t = tracin(state, z1, z2, eta=0.01, selector=selector)
            assert abs(m.total() - t) <= 1e-9 * (abs(t) + 1e-12)

    def test_self_matrix_symmetric_with_nonnegative_diagonal(self):
        rng = np.random.default_rng(22)
        for case in range(12):
            state, z1, _, selector = random_model_case(rng, case)
            m = influence_matrix(state, z1, z1, eta=1.0, selector=selector).values
            assert np.array_equal(m, m.T)
            assert (np.diag(m) >= 0.0).all()

    def test_cross_matrix_entry_is_pairwise_cif(self):
        from chinf import channel_gradients

        rng = np.random.default_rng(23)
        state, z1, z2, selector = random_model_case(rng, 4)
        g_src = channel_gradients(state, z1, selector)
        g_dst = channel_gradients(state, z2, selector)
        m = influence_matrix(state, z1, z2, eta=0.3, selector=selector)
        for i, gs in enumerate(g_src):
            for j, gd in enumerate(g_dst):
                assert m.values[i, j] == pytest.approx(cif(gs, gd, 0.3), rel=1e-12)

    def test_runs_no_tape_backward_pass(self, monkeypatch):
        # the channel rows and tracin's whole-window gradients are closed-form
        def refuse(*args, **kwargs):
            raise AssertionError("influence ran a tape backward pass")

        monkeypatch.setattr(autodiff, "backward", refuse)
        rng = np.random.default_rng(24)
        for case in range(12):
            state, z1, z2, selector = random_model_case(rng, case)
            influence_matrix(state, z1, z2, eta=0.01, selector=selector)
            tracin(state, z1, z2, eta=0.01, selector=selector)
            tracin(state, z1, z1, eta=0.01, selector=selector)

    def test_channel_count_mismatch_rejected(self):
        state = init_params(ModelSpec("linear_ci", 3, 2), seed=0)
        bad = MtsWindow(np.zeros((3, 4)), origin_t=2)
        good = random_window(np.random.default_rng(0), 3, 2)
        with pytest.raises(ValueError, match="channel count: 2 vs 4"):
            influence_matrix(state, good, bad, eta=1.0)


class TestEtaHandling:
    def trained_state(self):
        spec = ModelSpec("linear_ci", 4, 2)
        rng = np.random.default_rng(31)
        wins = [random_window(rng, 4, 2) for _ in range(8)]
        return train(init_params(spec, 0), wins, TrainConfig(2, 0.02, 4, 0)), wins[0]

    def test_defaults_to_training_learning_rate(self):
        state, win = self.trained_state()
        assert tracin(state, win, win) == tracin(state, win, win, eta=0.02)

    def test_untrained_state_requires_explicit_eta(self):
        state = init_params(ModelSpec("linear_ci", 4, 2), seed=0)
        win = random_window(np.random.default_rng(1), 4, 2)
        with pytest.raises(ValueError, match="no recorded training learning rate"):
            self_influence_per_channel(state, win)

    def test_rejects_negative_eta(self):
        state, win = self.trained_state()
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            tracin(state, win, win, eta=-1.0)

    @pytest.mark.parametrize(
        "eta, message",
        [(float("nan"), "must be finite and positive, got nan"), (float("inf"), "must be finite")],
    )
    def test_rejects_non_finite_eta(self, eta, message):
        state, win = self.trained_state()
        with pytest.raises(ValueError, match=f"eta {message}"):
            self_influence_per_channel(state, win, eta=eta)
        with pytest.raises(ValueError, match=f"eta {message}"):
            cif(gv([1.0]), gv([1.0]), eta)

    @pytest.mark.parametrize(
        "eta, message",
        [
            ("0.1", "eta must be a JSON number, got '0.1'"),
            (True, "eta must be a JSON number, got True"),
            (np.True_, "eta must be a JSON number, got np.True_"),
            (10**400, "eta must be finite and positive, got 1000"),
        ],
        ids=["str", "bool", "numpy_bool", "huge_int"],
    )
    def test_explicit_eta_takes_the_number_rule(self, eta, message):
        state, win = self.trained_state()
        calls = {
            "cif": lambda: cif(gv([1.0]), gv([2.0]), eta),
            "influence_matrix": lambda: influence_matrix(state, win, win, eta=eta),
            "tracin": lambda: tracin(state, win, win, eta=eta),
            "self_influence_rows": lambda: self_influence_rows(state, [win], eta=eta),
            "tracin_self_scores": lambda: tracin_self_scores(state, [win], eta=eta),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match=re.escape(message)):
                call()
                pytest.fail(f"{name} took eta {eta!r}")

    def test_numeric_eta_becomes_float(self):
        state, win = self.trained_state()
        assert cif(gv([1.0]), gv([2.0]), 2) == 4.0
        assert cif(gv([1.0]), gv([2.0]), np.float64(0.5)) == 1.0
        for eta in (2, np.int64(2), np.float64(2.0)):
            matrix = influence_matrix(state, win, win, eta=eta)
            assert type(matrix.eta) is float
            assert np.array_equal(matrix.values, influence_matrix(state, win, win, eta=2.0).values)

    def test_doubling_eta_doubles_every_entry(self):
        state, win = self.trained_state()
        m1 = influence_matrix(state, win, win, eta=0.001).values
        m2 = influence_matrix(state, win, win, eta=0.002).values
        assert np.array_equal(m2, 2.0 * m1)

    def test_rankings_invariant_to_eta(self):
        rng = np.random.default_rng(32)
        for case in range(6):
            state, z1, _, selector = random_model_case(rng, case)
            orders = [
                np.argsort(
                    self_influence_per_channel(state, z1, eta, selector), kind="stable"
                )
                for eta in (1e-4, 1e-2, 1.0)
            ]
            assert np.array_equal(orders[0], orders[1])
            assert np.array_equal(orders[0], orders[2])


class TestSelfInfluence:
    def test_matches_matrix_diagonal(self):
        rng = np.random.default_rng(41)
        for case in range(12):
            state, z1, _, selector = random_model_case(rng, case)
            diag = np.diag(influence_matrix(state, z1, z1, 0.5, selector).values)
            direct = self_influence_per_channel(state, z1, 0.5, selector)
            scale = np.max(np.abs(diag)) + 1e-12
            assert np.max(np.abs(direct - diag)) <= 1e-12 * scale

    def test_nonnegative(self):
        rng = np.random.default_rng(42)
        for case in range(12):
            state, z1, _, selector = random_model_case(rng, case)
            assert (self_influence_per_channel(state, z1, 1.0, selector) >= 0.0).all()

    def test_perfect_reconstruction_scores_zero(self):
        spec = ModelSpec("linear_ci", 4, 3)
        state = ModelState(spec, {"weight": np.eye(4), "bias": np.zeros(4)})
        win = random_window(np.random.default_rng(43), 4, 3)
        assert np.array_equal(
            self_influence_per_channel(state, win, eta=1.0), np.zeros(3)
        )

    def test_duplicate_channels_share_scores(self):
        spec = ModelSpec("mlp_ci", 5, 4, hidden=3)
        state = init_params(spec, seed=5)
        rng = np.random.default_rng(44)
        # channels 0 and 2 carry the same strong signal, the rest are faint
        strong = 3.0 * rng.normal(size=5)
        faint = 0.3 * rng.normal(size=(5, 2))
        win = MtsWindow(
            np.column_stack([strong, faint[:, 0], strong, faint[:, 1]]), origin_t=4
        )
        scores = self_influence_per_channel(state, win, eta=1.0)
        assert abs(scores[0] - scores[2]) <= 1e-12 * (scores[0] + 1e-12)
        m = influence_matrix(state, win, win, eta=1.0).values
        # the duplicate pair's mutual entry equals their shared self-influence
        assert m[0, 2] == pytest.approx(m[0, 0], rel=1e-12)
        off_diag = [m[0, j] for j in range(4) if j != 0]
        assert m[0, 2] == max(off_diag)


def sgd_step_cases():
    """(label, state, selector, source, destination) for each architecture
    x horizon {0, 2} x selector (last layer, all): a perturbed small model
    and two random windows."""
    for architecture in ("linear_ci", "mlp_ci", "mlp_mix"):
        for horizon in (0, 2):
            rng = np.random.default_rng(5)
            spec = ModelSpec(architecture, 5, 3, hidden=4, horizon=horizon)
            params = init_params(spec, seed=2).params
            state = ModelState(
                spec, {k: v + 0.1 * rng.normal(size=v.shape) for k, v in params.items()}
            )
            src, dst = (random_window(rng, spec.total_rows, 3) for _ in range(2))
            for selector in (last_layer_selector(spec), all_params_selector(spec)):
                label = f"{selector.selector_id} h={horizon}"
                yield label, state, selector, src, dst


def stepped(state, selector, direction, eps):
    """state after one SGD step of size eps along a gradient over the
    selected parameters: theta' = theta - eps * direction."""
    params = dict(state.params)
    shapes = param_shapes(state.spec)
    pos = 0
    for name in selector.names:
        size = int(np.prod(shapes[name]))
        params[name] = params[name] - eps * direction[pos : pos + size].reshape(shapes[name])
        pos += size
    return ModelState(state.spec, params)


class TestInfluencePredictsSgdStep:
    """Influence estimates what one SGD step on the source does to the
    destination's loss (TracIn, arXiv:2002.08484): with eta = eps the change
    is -influence to first order, so their sum, relative to the influence's
    scale (max |M| for the matrix, eps |g_src| |g_dst| for tracin), is at
    most C * eps and falls 100x from eps = 1e-3 to 1e-5."""

    C = 20.0
    EPSILONS = (1e-3, 1e-5)

    def check(self, capsys, what, relative_error):
        """relative_error(state, selector, src, dst, eps) on every case:
        asserts the bound and the first-order fall, and prints the margin."""
        ok = False
        worst, falls = 0.0, []
        try:
            for label, *case in sgd_step_cases():
                errors = [relative_error(*case, eps) for eps in self.EPSILONS]
                worst = max(worst, *(err / eps for err, eps in zip(errors, self.EPSILONS)))
                falls.append(errors[0] / errors[1])
                assert worst <= self.C, (label, errors)
                assert 80 <= falls[-1] <= 125, (label, errors)
            ok = True
        finally:
            with capsys.disabled():
                print(
                    f"[sgd step {what}] {'PASS' if ok else 'FAIL'}: |change + influence| <= "
                    f"{self.C:g} * eps * scale on 12 cases (worst {worst:.2f}), error falls "
                    f"{min(falls, default=0):.1f}x to {max(falls, default=0):.1f}x from eps "
                    "1e-3 to 1e-5"
                )

    def test_influence_matrix(self, capsys):
        def relative_error(state, selector, src, dst, eps):
            g = channel_gradient_rows(state, [src], selector)[0]
            before = channel_losses(state, [dst])[0]
            # row i: each destination channel's loss change after a step on source channel i
            change = np.array(
                [channel_losses(stepped(state, selector, g_i, eps), [dst])[0] - before for g_i in g]
            )
            m = influence_matrix(state, src, dst, eta=eps, selector=selector).values
            return np.max(np.abs(change + m)) / np.max(np.abs(m))

        self.check(capsys, "matrix", relative_error)

    def test_tracin(self, capsys):
        def relative_error(state, selector, src, dst, eps):
            g_src = whole_gradient(state, src, selector).values
            g_dst = whole_gradient(state, dst, selector).values
            after = channel_losses(stepped(state, selector, g_src, eps), [dst]).sum()
            change = after - channel_losses(state, [dst]).sum()
            influence = tracin(state, src, dst, eta=eps, selector=selector)
            # eps |g_src| |g_dst| bounds |influence| and does not vanish with it
            return abs(change + influence) / (eps * np.linalg.norm(g_src) * np.linalg.norm(g_dst))

        self.check(capsys, "tracin", relative_error)


class TestLinearRemainderIsExact:
    """For linear_ci the channel loss is quadratic in the parameters, so the
    one-step change is exactly -influence plus a second-order term:
    Delta_ij + M_eps[i, j] = eps^2 / 2 * g_i^T H_j g_i, where H_j = 2 A_j^T A_j
    and A_j = [I (x) x_j^T, I] maps the (weight, bias) parameters, weight
    row-major, to channel j's prediction; this is 2 [x_j; 1][x_j; 1]^T (x) I
    with the parameters reordered. The identity holds up to rounding: the
    error is at most ULPS units of eps_mach times the operands' scale
    (the loss, |M| and the remainder). The largest measured was 2.41."""

    ULPS = 8.0
    EPSILONS = (1e-1, 1e-2, 1e-3)

    def test_remainder_matches_closed_form(self, capsys):
        ok, worst, cases = False, 0.0, 0
        try:
            for label, state, selector, src, dst in sgd_step_cases():
                spec = state.spec
                if spec.architecture != "linear_ci":
                    continue
                cases += 1
                g = channel_gradient_rows(state, [src], selector)[0]
                before = channel_losses(state, [dst])[0]
                x = dst.values[: spec.window]
                hessians = []
                for j in range(x.shape[1]):
                    eye = np.eye(spec.out_rows)
                    a = np.hstack([np.kron(eye, x[:, j]), eye])
                    hessians.append(2.0 * a.T @ a)
                for eps in self.EPSILONS:
                    change = np.array([
                        channel_losses(stepped(state, selector, g_i, eps), [dst])[0] - before
                        for g_i in g
                    ])
                    m = influence_matrix(state, src, dst, eta=eps, selector=selector).values
                    remainder = np.array(
                        [[eps**2 / 2 * g_i @ h @ g_i for h in hessians] for g_i in g]
                    )
                    scale = np.finfo(np.float64).eps * (before + np.abs(m) + remainder)
                    ulps = np.max(np.abs(change + m - remainder) / scale)
                    worst = max(worst, ulps)
                    assert ulps <= self.ULPS, (label, eps, ulps)
            assert cases == 4, cases
            ok = True
        finally:
            with capsys.disabled():
                print(
                    f"[linear_ci remainder] {'PASS' if ok else 'FAIL'}: |change + influence - "
                    f"eps^2/2 g^T H g| <= {self.ULPS:g} ulps of scale on {cases} cases x eps "
                    f"1e-1..1e-3 (worst {worst:.2f})"
                )


class TestCsv:
    def test_roundtrip_preserves_floats(self, tmp_path):
        rng = np.random.default_rng(51)
        values = rng.normal(size=(3, 3))
        m = InfluenceMatrix(values, 0.01, "s")
        path = tmp_path / "matrix.csv"
        save_influence_csv(m, str(path), ("a", "b", "c"))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "a,b,c"
        back = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
        assert np.array_equal(back, values)

    def test_name_count_checked(self, tmp_path):
        m = InfluenceMatrix(np.zeros((2, 2)), 1.0, "s")
        with pytest.raises(ValueError, match="2 channel names for 2|1 channel names for 2"):
            save_influence_csv(m, str(tmp_path / "m.csv"), ("only",))
