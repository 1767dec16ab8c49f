"""Finite-difference validation of the reverse-mode tape."""

import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oximap import autodiff as ad


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f with respect to ndarray x."""
    g = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def check_gradient(build, x, rtol=1e-6, atol=1e-9, h=1e-6):
    """Compare tape gradient of build(Tensor) against central differences.

    build maps a Tensor to a scalar Tensor; x is the input ndarray.
    """
    t = ad.Tensor(x.copy())
    out = build(t)
    ad.backward(out)

    def f(arr):
        return float(build(ad.Tensor(arr.copy())).data)

    expected = numeric_grad(f, x.copy(), h=h)
    assert_allclose(t.grad, expected, rtol=rtol, atol=atol)
    return float(out.data)


@pytest.fixture()
def x34(rng):
    return rng.normal(size=(3, 4))


class TestElementwise:
    def test_add_mul_sub_div(self, x34, rng):
        w = rng.normal(size=(3, 4)) + 3.0
        check_gradient(lambda t: ad.tsum((t + 2.0) * t - t / ad.Tensor(w)), x34)

    def test_exp_log_sqrt(self, rng):
        x = rng.uniform(0.5, 2.0, size=(5,))
        check_gradient(lambda t: ad.tsum(ad.exp(t) + ad.log(t) + ad.sqrt(t)), x)

    def test_pow_const(self, rng):
        x = rng.uniform(0.5, 2.0, size=(4,))
        check_gradient(lambda t: ad.tsum(ad.pow_const(t, 3.0)), x)

    def test_logistic_softplus(self, x34):
        check_gradient(lambda t: ad.tsum(ad.logistic(t) + ad.softplus(t)), x34)

    def test_absval_away_from_zero(self, rng):
        x = rng.normal(size=(6,))
        x[np.abs(x) < 0.1] = 0.5
        check_gradient(lambda t: ad.tsum(ad.absval(t)), x)

    def test_neg_rsub_rdiv_sugar(self, rng):
        x = rng.uniform(0.5, 2.0, size=(4,))
        check_gradient(lambda t: ad.tsum(1.0 - (-t) + 2.0 / t), x)


def softplus_reference(x):
    """softplus_into's value and slope by their masked formulas."""
    e = np.exp(-np.abs(x))
    lg = np.log1p(e)
    return np.where(x > 0, x + lg, lg), np.maximum(e, x >= 0) / (1.0 + e)


SOFTPLUS_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-30, -1e-30, 88.0, -104.0, 710.0, -745.0]


class TestSoftplusParts:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: np.array(SOFTPLUS_SPECIALS),
            lambda rng: rng.normal(0.0, 4.0, 2 * ad.SOFTPLUS_CHUNK + 7),  # 1-D, not a chunk multiple
            lambda rng: rng.normal(0.0, 4.0, (1000, 61)),
            lambda rng: rng.normal(0.0, 4.0, (61, 1000)).T,  # not C-contiguous
            lambda rng: rng.normal(0.0, 4.0, (2, 300, 200))[:, ::2],  # rows longer than a chunk
            lambda rng: np.array(-3.0),
        ],
        ids=["specials", "1d", "2d", "transposed", "long-rows", "0d"],
    )
    @pytest.mark.parametrize("slope", [True, False])
    def test_bit_identical_to_the_masked_formula(self, make, dtype, slope, rng):
        x = make(rng).astype(dtype)
        out = np.empty_like(x)
        s = np.empty_like(x) if slope else None
        ad.softplus_into(x, out, s)
        value, ref_slope = softplus_reference(x)
        assert out.dtype == dtype and out.shape == x.shape
        assert np.ascontiguousarray(out).tobytes() == np.ascontiguousarray(value).tobytes()
        if slope:
            assert np.ascontiguousarray(s).tobytes() == np.ascontiguousarray(ref_slope).tobytes()

    def test_value_pass_allocates_one_output(self, rng):
        x = rng.normal(0.0, 4.0, (4000, 60))
        tracemalloc.start()
        try:
            ad.softplus_into(x, np.empty_like(x), None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output plus one chunk of max(x, 0); an x-sized temporary would double it
        assert peak <= 1.25 * x.nbytes, (peak, x.nbytes)


class TestBroadcasting:
    def test_row_times_column(self, rng):
        x = rng.normal(size=(3, 1))
        w = rng.normal(size=(4,))
        check_gradient(lambda t: ad.tsum(t * ad.Tensor(w)), x)

    def test_scalar_against_matrix(self, rng):
        x = rng.normal(size=())
        w = rng.normal(size=(2, 5))
        check_gradient(lambda t: ad.tsum(t + ad.Tensor(w)), x)

    def test_both_sides_tracked(self, rng):
        a = rng.normal(size=(3, 1))
        b = rng.normal(size=(1, 4))
        ta, tb = ad.Tensor(a.copy()), ad.Tensor(b.copy())
        out = ad.tsum(ta * tb)
        ad.backward(out)
        fa = lambda arr: float(ad.tsum(ad.Tensor(arr) * ad.Tensor(b)).data)
        fb = lambda arr: float(ad.tsum(ad.Tensor(a) * ad.Tensor(arr)).data)
        assert_allclose(ta.grad, numeric_grad(fa, a.copy()), rtol=1e-6, atol=1e-9)
        assert_allclose(tb.grad, numeric_grad(fb, b.copy()), rtol=1e-6, atol=1e-9)


class TestShapeOps:
    def test_reshape_getitem(self, rng):
        x = rng.normal(size=(2, 6))
        check_gradient(lambda t: ad.tsum(ad.getitem(ad.reshape(t, (3, 4)), (slice(1, None), slice(None, 2)))), x)

    def test_concat_and_split_adjoint(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 5))
        ta, tb = ad.Tensor(a.copy()), ad.Tensor(b.copy())
        out = ad.tsum(ad.exp(ad.concat([ta, tb], axis=1)))
        ad.backward(out)
        assert_allclose(ta.grad, np.exp(a), rtol=1e-12)
        assert_allclose(tb.grad, np.exp(b), rtol=1e-12)

    def test_stack_last(self, rng):
        x = rng.normal(size=(4,))
        check_gradient(
            lambda t: ad.tsum(ad.stack_last([t, t * 2.0]) ** 2.0), x
        )

    def test_pad_xy(self, rng):
        x = rng.normal(size=(1, 3, 3, 2))
        t = ad.Tensor(x.copy())
        padded = ad.pad_xy(t, 1)
        assert padded.data.shape == (1, 5, 5, 2)
        ad.backward(ad.tsum(padded * padded))
        assert_allclose(t.grad, 2.0 * x, rtol=1e-12)

    def test_mean_axis_keepdims(self, rng):
        x = rng.normal(size=(3, 4))
        check_gradient(lambda t: ad.tsum(ad.tmean(t, axis=1, keepdims=True) ** 2.0), x)


class TestMatmul:
    def test_plain(self, rng):
        a = rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 2))
        check_gradient(lambda t: ad.tsum(ad.matmul(t, ad.Tensor(w))), a)

    def test_weight_gradient_batched(self, rng):
        a = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(4, 5))
        tw = ad.Tensor(w.copy())
        out = ad.tsum(ad.matmul(ad.Tensor(a), tw) ** 2.0)
        ad.backward(out)
        f = lambda arr: float(ad.tsum(ad.matmul(ad.Tensor(a), ad.Tensor(arr)) ** 2.0).data)
        assert_allclose(tw.grad, numeric_grad(f, w.copy()), rtol=1e-5, atol=1e-8)


class TestControlFlow:
    def test_where_constant_mask(self, rng):
        x = rng.normal(size=(8,))
        mask = x > 0
        check_gradient(lambda t: ad.tsum(ad.where(mask, ad.exp(t), t * 3.0)), x)

    def test_clip_min_gradient_masked(self):
        x = np.array([-1.0, 0.5, 2.0])
        t = ad.Tensor(x.copy())
        ad.backward(ad.tsum(ad.clip_min(t, 0.0) * 5.0))
        assert_allclose(t.grad, [0.0, 5.0, 5.0])


class TestGraph:
    def test_fanout_accumulates(self, rng):
        x = rng.uniform(0.5, 1.5, size=(3,))
        check_gradient(lambda t: ad.tsum(t * t + ad.exp(t) * t), x)

    def test_deep_chain(self, rng):
        x = rng.uniform(0.1, 0.5, size=(4,))

        def build(t):
            h = t
            for _ in range(20):
                h = ad.logistic(h) * 1.1
            return ad.tsum(h)

        check_gradient(build, x, rtol=1e-5)

    def test_backward_frees_interior_grads(self, rng):
        x = rng.uniform(0.5, 1.5, size=(3, 2))
        t, w = ad.Tensor(x.copy()), ad.Tensor(rng.normal(size=(2, 4)))
        h = ad.exp(t) * t
        out = ad.tsum(ad.matmul(h + h, w))
        nodes, stack = {}, [out]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        ad.backward(out)
        interior = [n for n in nodes.values() if n._vjp is not None]
        assert len(interior) == 5 and all(n.grad is None for n in interior)
        assert t.grad is not None and w.grad is not None
        assert_allclose(t.grad, 2.0 * (np.exp(x) * (1.0 + x)) * w.data.sum(axis=1), rtol=1e-12)

    def test_zero_grads_resets(self, rng):
        t = ad.Tensor(np.ones(3))
        out = ad.tsum(t * 4.0)
        ad.backward(out)
        ad.zero_grads([t])
        assert t.grad is None

    def test_custom_op_vjp(self):
        x = np.array([1.0, 2.0, 3.0])
        t = ad.Tensor(x.copy())
        out = ad.custom(x**3, [t], lambda g: (g * 3.0 * x**2,))
        ad.backward(ad.tsum(out))
        assert_allclose(t.grad, 3.0 * x**2)

    def test_recording_off_same_values_no_graph(self, rng):
        x = rng.uniform(0.5, 1.5, size=(4, 3))

        def build():
            t = ad.Tensor(x)
            return ad.tsum(ad.exp(t) * t + ad.softplus(t) / (1.0 + t * t), axis=-1)

        recorded = build()
        with ad.recording_off():
            detached = build()
        assert detached.data.tobytes() == recorded.data.tobytes()
        assert detached._parents == () and detached._vjp is None
        assert build()._parents, "recording must resume after the block"

    def test_recording_restored_after_error(self):
        # detached passes in distributions, nnet, train and analysis rely on it
        with pytest.raises(ValueError, match="inside"):
            with ad.recording_off():
                ad.exp(ad.Tensor(np.ones(2)))
                raise ValueError("raised inside recording_off")
        t = ad.Tensor(np.array([0.5]))
        out = ad.tsum(ad.exp(t))
        assert out._parents
        ad.backward(out)
        assert_allclose(t.grad, np.exp([0.5]))

    def test_recording_off_in_another_thread_leaves_this_one_recording(self):
        inside, done = threading.Event(), threading.Event()

        def detached():
            with ad.recording_off():
                inside.set()
                done.wait(timeout=10.0)

        other = threading.Thread(target=detached, daemon=True)
        other.start()
        try:
            assert inside.wait(timeout=10.0), "the other thread never entered recording_off"
            w = ad.Tensor(np.array([1.0, -2.0, 3.0]))
            ad.backward(ad.tsum(w * 2.0))
        finally:
            done.set()
            other.join(timeout=10.0)
        assert not other.is_alive()
        assert w.grad is not None
        assert_allclose(w.grad, 2.0)


class TestDtypes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_arrays_kept_as_given(self, dtype):
        x = np.arange(6, dtype=dtype).reshape(2, 3)
        t = ad.Tensor(x)
        assert t.data.dtype == dtype
        assert t.data is x

    @pytest.mark.parametrize(
        "value", [np.arange(3), np.array([True, False]), np.float16(1.5), 2.5, 3, True, [1, 2]]
    )
    def test_other_inputs_become_float64(self, value):
        t = ad.Tensor(value)
        assert t.data.dtype == np.float64
        assert_allclose(t.data, np.asarray(value, dtype=np.float64))
