import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chinf import autodiff as ad


def fd_vs_backward(loss_builder, params, selector, h=1e-5):
    """Run both gradient routes on the same loss and return them."""
    tape = ad.Tape()
    leaves = {k: tape.leaf(v, k) for k, v in params.items()}
    loss = loss_builder(tape, leaves)
    back = ad.backward(tape, loss, selector)

    def loss_fn(p):
        t2 = ad.Tape()
        l2 = {k: t2.leaf(v, k) for k, v in p.items()}
        return float(loss_builder(t2, l2).value)

    fd = ad.finite_difference_gradient(loss_fn, params, selector, h)
    return back, fd


def rel_err(a, b):
    return np.max(np.abs(a - b)) / (np.max(np.abs(b)) + 1e-12)


class TestPrimitives:
    def test_matmul_value(self):
        tape = ad.Tape()
        a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
        b = tape.leaf([[1.0], [1.0]])
        assert np.array_equal(ad.matmul(a, b).value, [[3.0], [7.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        tape = ad.Tape()
        a = tape.leaf(np.zeros((2, 3)))
        b = tape.leaf(np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(a, b)

    def test_relu_value(self):
        tape = ad.Tape()
        out = ad.relu(tape.leaf([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.value, [0.0, 0.0, 2.0])

    def test_sum_of_squares(self):
        tape = ad.Tape()
        out = ad.reduce_sum(ad.square(tape.leaf([3.0, 4.0])))
        assert float(out.value) == 25.0

    def test_add_bias_broadcasts_columns(self):
        tape = ad.Tape()
        out = ad.add_bias(tape.leaf(np.zeros((2, 3))), tape.leaf([1.0, 2.0]))
        assert np.array_equal(out.value, [[1.0] * 3, [2.0] * 3])

    def test_mixed_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ValueError, match="different tapes"):
            ad.add(t1.leaf([1.0]), t2.leaf([1.0]))

    def test_non_finite_primitive_output_rejected(self):
        tape = ad.Tape()
        big = tape.leaf(np.full((2, 2), 1e308))
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError):
            ad.square(big)

    def test_blocks_to_columns_layout(self):
        tape = ad.Tape()
        blocks = np.arange(12.0).reshape(6, 2)  # 3 blocks of shape (2, 2)
        out = ad.blocks_to_columns(tape.leaf(blocks), 3, 2, 2)
        expected = np.hstack([blocks[0:2], blocks[2:4], blocks[4:6]])
        assert np.array_equal(out.value, expected)


class TestBackward:
    def test_product_rule(self):
        tape = ad.Tape()
        w = tape.leaf([[2.0]], "w")
        x = tape.leaf([[3.0]])
        loss = ad.reduce_sum(ad.matmul(w, x))
        g = ad.backward(tape, loss, ad.ParamSelector("w", ("w",)))
        assert np.array_equal(g.values, [3.0])

    def test_sum_of_squares_gradient(self):
        tape = ad.Tape()
        w = tape.leaf([3.0, 4.0], "w")
        loss = ad.reduce_sum(ad.square(w))
        g = ad.backward(tape, loss, ad.ParamSelector("w", ("w",)))
        assert np.array_equal(g.values, [6.0, 8.0])

    def test_non_scalar_loss_rejected(self):
        tape = ad.Tape()
        w = tape.leaf([1.0, 2.0], "w")
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(tape, ad.square(w), ad.ParamSelector("w", ("w",)))

    def test_unknown_selector_name(self):
        tape = ad.Tape()
        w = tape.leaf([1.0], "w")
        loss = ad.reduce_sum(w)
        with pytest.raises(ValueError, match="unknown parameter 'v'"):
            ad.backward(tape, loss, ad.ParamSelector("sel", ("v",)))

    def test_unused_parameter_gets_zero_gradient(self):
        tape = ad.Tape()
        w = tape.leaf([1.0, 1.0], "w")
        u = tape.leaf([5.0], "u")
        loss = ad.reduce_sum(ad.square(w))
        g = ad.backward(tape, loss, ad.ParamSelector("sel", ("w", "u")))
        assert np.array_equal(g.values, [2.0, 2.0, 0.0])
        assert u.value[0] == 5.0

    def test_selector_order_defines_layout(self):
        tape = ad.Tape()
        a = tape.leaf([1.0], "a")
        b = tape.leaf([2.0], "b")
        loss = ad.reduce_sum(ad.add(ad.square(a), ad.square(b)))
        g_ab = ad.backward(tape, loss, ad.ParamSelector("ab", ("a", "b")))
        g_ba = ad.backward(tape, loss, ad.ParamSelector("ba", ("b", "a")))
        assert np.array_equal(g_ab.values, [2.0, 4.0])
        assert np.array_equal(g_ba.values, [4.0, 2.0])

    def test_linearity_of_combined_losses(self):
        rng = np.random.default_rng(3)
        w_val = rng.normal(size=(3, 3))
        x_val = rng.normal(size=(3, 2))
        sel = ad.ParamSelector("w", ("w",))

        def grad_of(a, b):
            tape = ad.Tape()
            w = tape.leaf(w_val, "w")
            x = tape.leaf(x_val)
            y = ad.matmul(w, x)
            l1 = ad.reduce_sum(ad.square(y))
            l2 = ad.reduce_mean(ad.tanh(y))
            loss = ad.add(ad.scale(l1, a), ad.scale(l2, b))
            return ad.backward(tape, loss, sel).values

        combined = grad_of(2.0, -3.0)
        parts = 2.0 * grad_of(1.0, 0.0) + -3.0 * grad_of(0.0, 1.0)
        assert np.max(np.abs(combined - parts)) <= 1e-12

    def test_determinism(self):
        rng = np.random.default_rng(9)
        params = {"w": rng.normal(size=(4, 4)), "b": rng.normal(size=4)}

        def build(tape, leaves):
            x = tape.leaf(np.ones((4, 2)))
            return ad.reduce_sum(
                ad.square(ad.add_bias(ad.matmul(leaves["w"], x), leaves["b"]))
            )

        sel = ad.ParamSelector("all", ("w", "b"))
        runs = [fd_vs_backward(build, params, sel)[0].values for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])


class TestFiniteDifferences:
    def test_square_at_three(self):
        g = ad.finite_difference_gradient(
            lambda p: float(p["w"][0] ** 2),
            {"w": np.array([3.0])},
            ad.ParamSelector("w", ("w",)),
        )
        assert abs(g.values[0] - 6.0) <= 1e-6

    def test_constant_loss(self):
        g = ad.finite_difference_gradient(
            lambda p: 7.5,
            {"w": np.ones(4)},
            ad.ParamSelector("w", ("w",)),
        )
        assert np.array_equal(g.values, np.zeros(4))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            ad.finite_difference_gradient(
                lambda p: 0.0, {"w": np.ones(1)}, ad.ParamSelector("w", ("w",)), h=0
            )


class TestBackwardMatchesOracle:
    def test_two_layer_mlp_sweep(self):
        rng = np.random.default_rng(0)
        sel = ad.ParamSelector("all", ("w1", "b1", "w2", "b2"))
        worst = 0.0
        for _ in range(60):
            h, w, n, out = (int(rng.integers(2, 6)) for _ in range(4))
            params = {
                "w1": rng.normal(size=(h, w)),
                "b1": rng.normal(size=h),
                "w2": rng.normal(size=(out, h)),
                "b2": rng.normal(size=out),
            }
            x_val = rng.normal(size=(w, n))
            t_val = rng.normal(size=(out, n))

            def build(tape, leaves):
                x = tape.leaf(x_val)
                hid = ad.tanh(ad.add_bias(ad.matmul(leaves["w1"], x), leaves["b1"]))
                y = ad.add_bias(ad.matmul(leaves["w2"], hid), leaves["b2"])
                return ad.reduce_sum(ad.square(ad.subtract(y, tape.leaf(t_val))))

            back, fd = fd_vs_backward(build, params, sel)
            worst = max(worst, rel_err(back.values, fd.values))
        assert worst <= 1e-4

    def test_relu_away_from_kink(self):
        # central differences are only trustworthy when no preactivation
        # sits within h of zero, so the inputs are pushed away from it
        rng = np.random.default_rng(1)
        sel = ad.ParamSelector("w", ("w",))
        for _ in range(20):
            w_val = rng.choice((-1.0, 1.0), size=(3, 3)) * rng.uniform(0.5, 1.5, (3, 3))
            x_val = rng.choice((-1.0, 1.0), size=(3, 2)) * rng.uniform(0.5, 1.5, (3, 2))

            def build(tape, leaves):
                return ad.reduce_sum(ad.relu(ad.matmul(leaves["w"], tape.leaf(x_val))))

            back, fd = fd_vs_backward(build, {"w": w_val}, sel)
            assert rel_err(back.values, fd.values) <= 1e-4

    def test_slice_columns_and_scale(self):
        rng = np.random.default_rng(2)
        sel = ad.ParamSelector("w", ("w",))
        w_val = rng.normal(size=(4, 5))

        def build(tape, leaves):
            sq = ad.square(leaves["w"])
            return ad.scale(ad.reduce_mean(ad.slice_columns(sq, 1, 3)), 2.5)

        back, fd = fd_vs_backward(build, {"w": w_val}, sel)
        assert rel_err(back.values, fd.values) <= 1e-4

    def test_blocks_to_columns_gradient(self):
        rng = np.random.default_rng(4)
        sel = ad.ParamSelector("w", ("w",))
        w_val = rng.normal(size=(6, 2))

        def build(tape, leaves):
            cols = ad.blocks_to_columns(leaves["w"], 3, 2, 2)
            y = ad.matmul(tape.leaf(rng.normal(size=(2, 2))), cols)
            return ad.reduce_sum(ad.square(y))

        # rng is consumed inside build; freeze the mixing matrix instead
        mix = rng.normal(size=(2, 2))

        def build_fixed(tape, leaves):
            cols = ad.blocks_to_columns(leaves["w"], 3, 2, 2)
            return ad.reduce_sum(ad.square(ad.matmul(tape.leaf(mix), cols)))

        back, fd = fd_vs_backward(build_fixed, {"w": w_val}, sel)
        assert rel_err(back.values, fd.values) <= 1e-4


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_composites_match_oracle(seed):
    rng = np.random.default_rng(seed)
    w_val = rng.normal(size=(3, 4))
    b_val = rng.normal(size=3)
    x_val = rng.normal(size=(4, 3))
    sel = ad.ParamSelector("all", ("w", "b"))

    def build(tape, leaves):
        y = ad.add_bias(ad.matmul(leaves["w"], tape.leaf(x_val)), leaves["b"])
        z = ad.tanh(y)
        return ad.reduce_sum(ad.square(ad.subtract(z, ad.scale(y, 0.3))))

    back, fd = fd_vs_backward(build, {"w": w_val, "b": b_val}, sel)
    assert rel_err(back.values, fd.values) <= 1e-4


class TestGradientVector:
    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="flat"):
            ad.GradientVector(np.zeros((2, 2)), "s")

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ad.GradientVector(np.array([1.0, np.nan]), "s")

    def test_selector_requires_unique_names(self):
        with pytest.raises(ValueError, match="unique"):
            ad.ParamSelector("s", ("a", "a"))


class TestTapeLifetime:
    def test_tape_is_freed_without_the_cycle_collector(self):
        import gc
        import weakref

        gc.disable()
        try:
            tape = ad.Tape()
            x = tape.leaf(np.ones((2, 2)), "x")
            loss = ad.reduce_sum(ad.square(x))
            ad.backward(tape, loss, ad.ParamSelector("s", ("x",)))
            ref = weakref.ref(tape)
            del tape, x, loss
            assert ref() is None
        finally:
            gc.enable()

    def test_node_of_a_freed_tape_is_rejected(self):
        x = ad.Tape().leaf(np.ones(2))
        with pytest.raises(ValueError, match="outlived its tape"):
            ad.square(x)
