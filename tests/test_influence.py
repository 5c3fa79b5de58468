import numpy as np
import pytest

from chinf import (
    GradientVector,
    InfluenceMatrix,
    ModelSpec,
    ModelState,
    MtsWindow,
    TrainConfig,
    channel_gradient,
    cif,
    influence_matrix,
    init_params,
    save_influence_csv,
    self_influence_per_channel,
    tracin,
    train,
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
        with pytest.raises(ValueError, match="eta must be positive, got 0"):
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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflow_raises_in_every_route(self):
        # finite windows and parameters whose gradient products overflow
        state = init_params(ModelSpec("linear_ci", 4, 2), seed=0)
        z = MtsWindow(np.full((4, 2), 1e150), origin_t=3)
        g = channel_gradient(state, z, 0)
        for route in (
            lambda: cif(g, g, 0.1),
            lambda: tracin(state, z, z, 0.1),
            lambda: self_influence_per_channel(state, z, 0.1),
        ):
            with pytest.raises(autodiff.NonFiniteError, match="overflowed"):
                route()
        with pytest.raises(ValueError, match="non-finite"):
            influence_matrix(state, z, z, 0.1)

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
        with pytest.raises(ValueError, match="eta must be positive"):
            tracin(state, win, win, eta=-1.0)

    @pytest.mark.parametrize(
        "eta, message", [(float("nan"), "must be positive, got nan"), (float("inf"), "must be finite")]
    )
    def test_rejects_non_finite_eta(self, eta, message):
        state, win = self.trained_state()
        with pytest.raises(ValueError, match=f"eta {message}"):
            self_influence_per_channel(state, win, eta=eta)
        with pytest.raises(ValueError, match=f"eta {message}"):
            cif(gv([1.0]), gv([1.0]), eta)

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
