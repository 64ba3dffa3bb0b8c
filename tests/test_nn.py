"""Tensor op semantics, optimizer arithmetic, weights format, gradcheck, and
whole training steps against the reference ops kept here."""

import math
import struct

import numpy as np
import pytest

from fusionnet.models import BUILDERS, Network
from fusionnet.nn import OptimizerConfig, Tensor, backward, sgd_step
from fusionnet.nn import gradcheck as gc
from fusionnet.nn import tensor as T
from fusionnet.nn import weights as W
from fusionnet.pipeline import training, views_to_input, voxels_to_input


def conv2d_reference(x, w, b, stride, padding):
    """Direct quadruple-loop cross-correlation, the oracle for conv2d."""
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.empty((n, f, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for fi in range(f):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[ni, :, i * stride:i * stride + k, j * stride:j * stride + k]
                    out[ni, fi, i, j] = (patch * w[fi]).sum() + b[fi]
    return out


def conv2d_backward_reference(g, w, x_shape, stride, padding):
    """conv2d's input gradient by strided col2im into an NCHW buffer: the
    (ki, kj) adds of the shipped channels-last col2im, laid out channel-first."""
    n, c, h, wd = x_shape
    f, _, k, _ = w.shape
    _, _, ho, wo = g.shape
    gmat = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, f)
    dcols = (T._matmul(gmat, w.reshape(f, c * k * k))
             .reshape(n, ho, wo, c, k, k).transpose(0, 3, 4, 5, 1, 2))
    hp, wp = h + 2 * padding, wd + 2 * padding
    dxp = np.zeros((n, c, hp, wp), dtype=g.dtype)
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki:ki + ho * stride:stride, kj:kj + wo * stride:stride] += \
                dcols[:, :, ki, kj]
    return dxp[:, :, padding:hp - padding, padding:wp - padding]


# (x shape, w shape, stride, padding): small odd shapes, then vcnn2's and
# mvnet's layers at batch 2
CONV_BACKWARD_CASES = [
    ((2, 3, 7, 9), (4, 3, 1, 1), 1, 0),
    ((2, 3, 7, 9), (4, 3, 3, 3), 1, 1),
    ((2, 3, 9, 11), (4, 3, 3, 3), 2, 0),
    ((2, 3, 9, 11), (4, 3, 3, 3), 2, 2),
    ((2, 3, 9, 9), (4, 3, 5, 5), 1, 2),
    ((2, 3, 11, 11), (4, 3, 5, 5), 2, 1),
    ((2, 30, 30, 30), (20, 30, 1, 1), 1, 0),
    ((2, 30, 30, 30), (20, 30, 3, 3), 1, 1),
    ((2, 30, 30, 30), (20, 30, 5, 5), 1, 2),
    ((2, 60, 30, 30), (30, 60, 3, 3), 1, 1),
    ((2, 3, 64, 64), (16, 3, 3, 3), 1, 1),
    ((2, 16, 32, 32), (32, 16, 3, 3), 1, 1),
    ((2, 32, 16, 16), (64, 32, 3, 3), 1, 1),
]


class TestConv2d:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_BACKWARD_CASES)
    def test_input_gradient_bit_identical_to_nchw_col2im(self, x_shape, w_shape, stride,
                                                          padding, dtype):
        rng = np.random.default_rng(sum(x_shape) + sum(w_shape) + stride + padding)
        x = Tensor(rng.normal(size=x_shape).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=w_shape).astype(dtype))
        b = Tensor(rng.normal(size=w_shape[0]).astype(dtype))
        out = T.conv2d(x, w, b, stride, padding)
        g = rng.normal(size=out.shape).astype(dtype)
        out._backward(g)
        want = conv2d_backward_reference(g, w.data, x_shape, stride, padding)
        assert x.grad.dtype == dtype and x.grad.flags.c_contiguous
        assert x.grad.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
    def test_matches_loop_oracle(self, stride, padding):
        rng = np.random.default_rng(stride * 10 + padding)
        x = rng.normal(size=(2, 3, 7, 9))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding)
        want = conv2d_reference(x, w, b, stride, padding)
        np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_one_by_one_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 1, 5, 5))
        w = np.ones((1, 1, 1, 1))
        b = np.array([0.25])
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x + 0.25, atol=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        coeffs = rng.normal(size=(1, 3, 3, 3))

        def loss():
            return float((T.conv2d(x, w, b).data * coeffs).sum())

        out = T.conv2d(x, w, b)
        backward(T._node(np.asarray((out.data * coeffs).sum()), (out,),
                         lambda g: T._accumulate(out, g * coeffs)))
        for t in (x, w, b):
            flat = t.data.reshape(-1)
            gflat = t.grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-6
                fp = loss()
                flat[i] = orig - 1e-6
                fm = loss()
                flat[i] = orig
                assert abs(gflat[i] - (fp - fm) / 2e-6) < 1e-7

    def test_shape_validation(self):
        x, w, b = Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 2, 2))), Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            T.conv2d(x, Tensor(np.zeros((3, 9, 2, 2))), b)  # channel mismatch
        with pytest.raises(ValueError):
            T.conv2d(x, Tensor(np.zeros((3, 2, 2, 3))), b)  # non-square
        with pytest.raises(ValueError):
            T.conv2d(x, w, Tensor(np.zeros(4)))             # bias size
        with pytest.raises(ValueError):
            T.conv2d(x, w, b, stride=3)                     # non-integral output

    def test_dtype_preserved(self):
        x = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        assert T.conv2d(x, w, b).dtype == np.float32


def relu_reference(x):
    """relu as x * mask, whose zeros are -0.0 for negative inputs."""
    mask = x.data > 0
    return T._node(x.data * mask, (x,), lambda g: T._accumulate(x, g * mask))


class TestRelu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_mask_product_with_positive_zeros(self, dtype):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4, 8, 8)).astype(dtype)
        x[0, 0] = 0.0
        x[0, 1] = -0.0
        x[1, 0, ::2] = -x[1, 0, ::2] * 0.0  # zeros of both signs
        g = rng.normal(size=x.shape).astype(dtype)
        g[2, 0] = -0.0
        xt, xr = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        out, ref = T.relu(xt), relu_reference(xr)
        np.testing.assert_array_equal(out.data, ref.data)
        assert out.data.dtype == dtype
        assert not np.signbit(out.data[out.data == 0]).any()
        assert np.signbit(ref.data[ref.data == 0]).any()  # the zeros that did move
        out._backward(g)
        ref._backward(g)
        assert xt.grad.tobytes() == xr.grad.tobytes()

    def test_values_and_grad(self):
        x = Tensor(np.array([[-2.0, 0.0, 3.0]]), requires_grad=True)
        out = T.relu(x)
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 3.0]])
        backward(T._node(np.asarray(out.data.sum()), (out,),
                         lambda g: T._accumulate(out, np.ones_like(out.data) * g)))
        # subgradient at exactly zero is zero
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])


def maxpool2d_reference(x, size):
    """The argmax formulation of maxpool2d (window copy, argmax, take/put)."""
    n, c, h, w = x.shape
    ho, wo = h // size, w // size
    windows = (x.reshape(n, c, ho, size, wo, size).transpose(0, 1, 2, 4, 3, 5)
               .reshape(n, c, ho, wo, size * size))
    idx = np.argmax(windows, axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def back(g):
        dwin = np.zeros_like(windows)
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        return (dwin.reshape(n, c, ho, wo, size, size).transpose(0, 1, 2, 4, 3, 5)
                .reshape(n, c, h, w))

    return out, back


class TestMaxpool2d:
    def test_hand_example(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = T.maxpool2d(Tensor(x), size=2)
        np.testing.assert_array_equal(out.data.reshape(2, 2), [[5, 7], [13, 15]])

    def test_tie_takes_first_window_slot(self):
        x = Tensor(np.full((1, 1, 2, 2), 3.0), requires_grad=True)
        out = T.maxpool2d(x, size=2)
        backward(T._node(np.asarray(out.data.sum()), (out,),
                         lambda g: T._accumulate(out, np.ones_like(out.data) * g)))
        np.testing.assert_array_equal(x.grad.reshape(4), [1.0, 0.0, 0.0, 0.0])

    def test_grad_routes_to_argmax(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4), requires_grad=True)
        out = T.maxpool2d(x, size=2)
        backward(T._node(np.asarray(out.data.sum()), (out,),
                         lambda g: T._accumulate(out, np.ones_like(out.data) * g)))
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_array_equal(x.grad.reshape(4, 4), expected)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            T.maxpool2d(Tensor(np.zeros((1, 1, 5, 4))), size=2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [2, 3])
    def test_bit_identical_to_argmax_reference(self, size, dtype):
        rng = np.random.default_rng(size)
        # few distinct values: many windows repeat their maximum
        x = rng.integers(-3, 4, size=(3, 4, 6 * size, 6 * size)).astype(dtype)
        x *= x > 0  # ReLU'd: negatives become -0.0
        x[0, 0] = 0.0  # all-zero windows ...
        x[0, 1] = -0.0
        x[0, 2] = np.where(rng.random(x[0, 2].shape) < 0.5, 0.0, -0.0)  # ... of mixed sign
        x[1, 0] = rng.normal(size=x[1, 0].shape)  # and a plain real-valued channel
        x[1, 1] = np.where(rng.random(x[1, 1].shape) < 0.3, np.nan, x[1, 1])  # NaN windows
        x[1, 1, ::2] = -x[1, 1, ::2]  # with NaNs of both signs: argmax keeps the first
        g = rng.normal(size=(3, 4, 6, 6)).astype(dtype)
        g[0, 3] = -0.0
        g[2, 1] *= 0.0  # +0.0 and -0.0 gradients
        ref_out, ref_back = maxpool2d_reference(x, size)
        xt = Tensor(x, requires_grad=True)
        out = T.maxpool2d(xt, size=size)
        out._backward(g)
        assert out.data.dtype == dtype and xt.grad.dtype == dtype
        assert out.data.tobytes() == ref_out.tobytes()
        assert xt.grad.tobytes() == ref_back(g).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_input_bit_identical_to_argmax_reference(self, dtype):
        # relu leaves no sign bit, so the zero-sign fix-up is skipped
        rng = np.random.default_rng(11)
        x = rng.integers(-3, 2, size=(3, 4, 12, 12)).astype(dtype)
        x[0, 0] = -x[0, 0]
        relu_out = T.relu(Tensor(x, requires_grad=True))
        assert (relu_out.data == 0).any() and not np.signbit(relu_out.data).any()
        g = rng.normal(size=(3, 4, 6, 6)).astype(dtype)
        ref_out, ref_back = maxpool2d_reference(relu_out.data, 2)
        out = T.maxpool2d(relu_out, size=2)
        out._backward(g)
        assert out.data.tobytes() == ref_out.tobytes()
        assert relu_out.grad.tobytes() == ref_back(g).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zero_ties_still_fixed_up(self, dtype):
        # the first zero of a window gives the maximum its sign
        x = np.array([[0.0, -0.0], [-1.0, -2.0],
                      [-0.0, 0.0], [-3.0, 0.0],
                      [-1.0, -0.0], [0.0, -0.0],
                      [-0.0, -0.0], [-0.0, 0.0]], dtype=dtype).reshape(4, 2, 2)
        x = np.concatenate(list(x), axis=1)[None, None]  # (1, 1, 2, 8)
        g = np.arange(1, 5, dtype=dtype).reshape(1, 1, 1, 4)
        ref_out, ref_back = maxpool2d_reference(x, 2)
        xt = Tensor(x, requires_grad=True)
        out = T.maxpool2d(xt, size=2)
        out._backward(g)
        assert np.signbit(out.data).ravel().tolist() == [False, True, True, True]
        assert out.data.tobytes() == ref_out.tobytes()
        assert xt.grad.tobytes() == ref_back(g).tobytes()

    def test_nan_window_outputs_nan(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        x[0, 0, 1, 0] = np.nan
        xt = Tensor(x, requires_grad=True)
        out = T.maxpool2d(xt, size=2)
        assert np.isnan(out.data[0, 0]).tolist() == [[True, False], [False, False]]
        out._backward(np.ones((1, 1, 2, 2), dtype=np.float32))
        expected = np.zeros((4, 4), dtype=np.float32)
        expected[1, 0] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_array_equal(xt.grad[0, 0], expected)  # the NaN takes its window's


class TestViewMaxpool:
    def test_columnwise_max(self):
        x = np.array([[1.0, 9.0, 2.0], [5.0, 3.0, 2.0]])
        out = T.view_maxpool(Tensor(x))
        np.testing.assert_array_equal(out.data, [5.0, 9.0, 2.0])

    def test_tie_prefers_lowest_view(self):
        x = Tensor(np.array([[4.0, 1.0], [4.0, 2.0]]), requires_grad=True)
        out = T.view_maxpool(x)
        backward(T._node(np.asarray(out.data.sum()), (out,),
                         lambda g: T._accumulate(out, np.ones_like(out.data) * g)))
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0], [0.0, 1.0]])

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            T.view_maxpool(Tensor(np.zeros((2, 3, 4))))


class TestDropout:
    def test_mask_and_scale(self):
        x = np.ones((2, 4))
        mask = np.array([[True, False, True, True], [False, True, True, False]])
        out = T.dropout(Tensor(x), mask, rate=0.5)
        np.testing.assert_allclose(out.data, mask * 2.0)

    def test_zero_rate_identity(self):
        x = np.arange(6, dtype=float).reshape(2, 3)
        out = T.dropout(Tensor(x), np.ones((2, 3), dtype=bool), rate=0.0)
        np.testing.assert_array_equal(out.data, x)

    def test_expectation_preserved(self):
        """Inverted scaling keeps E[dropout(x)] == x; with 4000 masks the
        element-averaged deviation settles near zero."""
        rng = np.random.default_rng(0)
        x = np.ones((8, 8))
        rate = 0.5
        acc = np.zeros_like(x)
        trials = 4000
        for _ in range(trials):
            mask = T.make_dropout_mask(rng, x.shape, rate)
            acc += T.dropout(Tensor(x), mask, rate).data
        assert abs(acc.mean() / trials - 1.0) < 0.02

    def test_validation(self):
        x = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            T.dropout(x, np.ones((2, 2), dtype=bool), rate=1.0)
        with pytest.raises(ValueError):
            T.dropout(x, np.ones((2, 3), dtype=bool), rate=0.5)


class TestFullyConnected:
    def test_hand_affine(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        w = Tensor(np.array([[3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]))
        b = Tensor(np.array([0.1, 0.2, 0.3]))
        out = T.fully_connected(x, w, b)
        np.testing.assert_allclose(out.data, [[11.1, 17.2, 23.3]])

    def test_flattens_feature_maps(self):
        x = Tensor(np.arange(8, dtype=float).reshape(1, 2, 2, 2))
        w = Tensor(np.ones((1, 8)))
        b = Tensor(np.zeros(1))
        out = T.fully_connected(x, w, b)
        assert out.data.reshape(()) == 28.0

    def test_single_row_matches_batch_row_bitwise(self):
        """A sample's activations must not depend on its batch mates, down
        to the last bit, so cached per-model scores are reproducible."""
        rng = np.random.default_rng(5)
        a = rng.normal(size=(1, 64)).astype(np.float32)
        other = rng.normal(size=(3, 64)).astype(np.float32)
        w = Tensor(rng.normal(size=(16, 64)).astype(np.float32))
        b = Tensor(rng.normal(size=16).astype(np.float32))
        alone = T.fully_connected(Tensor(a), w, b).data
        stacked = T.fully_connected(Tensor(np.vstack([a, other])), w, b).data
        assert np.array_equal(alone[0], stacked[0])

    def test_input_width_validated(self):
        with pytest.raises(ValueError):
            T.fully_connected(Tensor(np.zeros((1, 5))), Tensor(np.zeros((2, 4))),
                              Tensor(np.zeros(2)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("net", ["vcnn2", "vcnn1", "mvnet"])
    def test_weight_major_forward_matches_row_major_bytes(self, net, dtype):
        """The forward's (W @ x.T).T gives the bytes and the C order of the
        row-major x @ W.T, for every fc layer of the three nets; one row
        needs the one-column pad."""
        rng = np.random.default_rng(12)
        for name, shape in BUILDERS[net](4).param_entries():
            if not name.endswith("fully_connected.w"):
                continue
            w = rng.standard_normal(shape, dtype=dtype)
            b = rng.standard_normal(shape[0], dtype=dtype)
            for rows in (1, 2, 8, 24):
                x2 = rng.standard_normal((rows, shape[1]), dtype=dtype)
                out = T.fully_connected(Tensor(x2), Tensor(w), Tensor(b)).data
                assert out.dtype == dtype and out.shape == (rows, shape[0])
                assert out.flags.c_contiguous
                assert out.tobytes() == (T._matmul(x2, w.T) + b).tobytes(), (name, rows)


class TestConcat:
    def test_values_and_grad_split(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        out = T.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        coeffs = np.arange(10, dtype=float).reshape(2, 5)
        backward(T._node(np.asarray((out.data * coeffs).sum()), (out,),
                         lambda g: T._accumulate(out, g * coeffs)))
        np.testing.assert_array_equal(a.grad, coeffs[:, :2])
        np.testing.assert_array_equal(b.grad, coeffs[:, 2:])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            T.concat([Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2)))], axis=1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            T.concat([])


class TestSoftmaxLoss:
    def test_uniform_scores_give_log_k(self):
        for k in (2, 10, 40):
            scores = Tensor(np.zeros((4, k)))
            loss = T.softmax_loss(scores, np.zeros(4, dtype=int))
            assert abs(float(loss.data) - math.log(k)) < 1e-12

    def test_hand_example(self):
        # two classes, scores (ln 3, 0): p(correct) = 3/4 for label 0
        scores = Tensor(np.array([[math.log(3.0), 0.0]]))
        loss = T.softmax_loss(scores, np.array([0]))
        assert abs(float(loss.data) - (-math.log(0.75))) < 1e-12

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(2)
        scores = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
        loss = T.softmax_loss(scores, rng.integers(0, 7, size=5))
        backward(loss)
        np.testing.assert_allclose(scores.grad.sum(axis=1), 0.0, atol=1e-15)

    def test_extreme_scores_stable(self):
        scores = Tensor(np.array([[1e4, -1e4], [-1e4, 1e4]]))
        loss = T.softmax_loss(scores, np.array([0, 1]))
        assert np.isfinite(float(loss.data))
        assert float(loss.data) < 1e-12

    def test_label_validation(self):
        scores = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            T.softmax_loss(scores, np.array([0, 3]))
        with pytest.raises(ValueError):
            T.softmax_loss(scores, np.array([0]))


class TestSoftmaxProbs:
    def test_rows_normalized(self):
        rng = np.random.default_rng(3)
        p = T.softmax_probs(rng.normal(size=(6, 9)) * 50)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert (p >= 0).all()


class TestBackward:
    def test_leaf_without_tape_rejected(self):
        with pytest.raises(ValueError):
            backward(Tensor(np.zeros(3)))

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([[2.0, 3.0]]), requires_grad=True)
        a = T.relu(x)
        out = T.concat([a, a], axis=1)
        backward(T._node(np.asarray(out.data.sum()), (out,),
                         lambda g: T._accumulate(out, np.ones_like(out.data) * g)))
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])

    def test_no_tape_for_frozen_inputs(self):
        # ops on tensors that need no grad record nothing
        out = T.relu(Tensor(np.ones((2, 2))))
        assert out._backward is None and out._parents == ()


def sgd_step_reference(params, state, cfg):
    """sgd_step as the out-of-place formula, with full-size temporaries."""
    for name, p in params.items():
        if not p.requires_grad or p.grad is None:
            continue
        f = p.dtype.type
        g = p.grad + f(cfg.weight_decay) * p.data if cfg.weight_decay else p.grad
        v = state.get(name, np.zeros_like(p.data))
        state[name] = f(cfg.momentum) * v - f(cfg.learning_rate) * g
        p.data = p.data + state[name]


class TestSgd:
    def test_momentum_recurrence(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([0.5])
        cfg = OptimizerConfig(learning_rate=0.1, momentum=0.9)
        state = {}
        sgd_step({"w": p}, state, cfg)
        np.testing.assert_allclose(p.data, [0.95])
        np.testing.assert_allclose(state["w"], [-0.05])
        p.grad = np.array([0.5])
        sgd_step({"w": p}, state, cfg)
        # v2 = 0.9*(-0.05) - 0.1*0.5 = -0.095
        np.testing.assert_allclose(state["w"], [-0.095])
        np.testing.assert_allclose(p.data, [0.855])

    def test_weight_decay_adds_to_gradient(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.0])
        cfg = OptimizerConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.01)
        sgd_step({"w": p}, {}, cfg)
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.01 * 2.0])

    def test_frozen_and_gradless_params_untouched(self):
        frozen = Tensor(np.array([1.0]), requires_grad=False)
        frozen.grad = np.array([9.0])
        fresh = Tensor(np.array([1.0]), requires_grad=True)  # grad is None
        cfg = OptimizerConfig(learning_rate=0.5)
        state = {}
        sgd_step({"a": frozen, "b": fresh}, state, cfg)
        assert frozen.data[0] == 1.0 and fresh.data[0] == 1.0
        assert state == {}

    @pytest.mark.parametrize("weight_decay", [0.0, 0.0005])
    def test_in_place_matches_out_of_place_formula(self, weight_decay):
        rng = np.random.default_rng(3)
        w0 = rng.normal(size=(5, 7)).astype(np.float32)
        p = Tensor(w0.copy(), requires_grad=True)
        alias = p.data
        state = {}
        ref_w, ref_v = w0.copy(), np.zeros_like(w0)
        f = np.float32
        for step in range(6):
            g = rng.normal(size=w0.shape).astype(np.float32)
            lr = 0.01 if step < 3 else 0.001
            p.grad = g
            sgd_step({"w": p}, state, OptimizerConfig(learning_rate=lr, momentum=0.9,
                                                      weight_decay=weight_decay))
            # the update as an out-of-place formula
            gd = g + f(weight_decay) * ref_w if weight_decay else g
            ref_v = f(0.9) * ref_v - f(lr) * gd
            ref_w = ref_w + ref_v
            assert p.data.tobytes() == ref_w.tobytes()
            assert state["w"].tobytes() == ref_v.tobytes()
        assert p.data is alias  # updated in place, not replaced

    @pytest.mark.parametrize("weight_decay", [0.0, 0.0005])
    def test_blocks_match_out_of_place_and_leave_grad_unread(self, weight_decay):
        # 150,000 elements: two full blocks and a ragged tail
        rng = np.random.default_rng(4)
        w0 = rng.normal(size=(3, 50_000)).astype(np.float32)
        p, ref = Tensor(w0.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)
        state, ref_state = {}, {}
        cfg = OptimizerConfig(learning_rate=0.01, momentum=0.9, weight_decay=weight_decay)
        for _ in range(3):
            g = rng.normal(size=w0.shape).astype(np.float32)
            p.grad, ref.grad = g, g.copy()
            sgd_step({"w": p}, state, cfg)
            sgd_step_reference({"w": ref}, ref_state, cfg)
            assert g.tobytes() == ref.grad.tobytes()
            assert p.data.tobytes() == ref.data.tobytes()
            assert state["w"].tobytes() == ref_state["w"].tobytes()

    @pytest.mark.parametrize("where", ["param", "grad"])
    def test_non_c_contiguous_arrays_rejected(self, where):
        data, grad = np.ones((4, 6)), np.ones((4, 6))
        if where == "param":
            data = np.asfortranarray(data)
        else:
            grad = np.ones((6, 4)).T
        p = Tensor(data, requires_grad=True)
        p.grad = grad
        with pytest.raises(ValueError, match="C-contiguous"):
            sgd_step({"w": p}, {}, OptimizerConfig(learning_rate=0.1))
        assert (p.data == 1).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.1, weight_decay=-1.0)


def conv2d_op_reference(x, w, b, stride=1, padding=0):
    """conv2d with an out-of-place bias add and the NCHW col2im backward."""
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    ho, wo = T._conv_geometry(h, wd, k, stride, padding)
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.stack([xp[:, :, ki:ki + ho * stride:stride, kj:kj + wo * stride:stride]
                     for ki in range(k) for kj in range(k)], axis=2)
    patches = cols.transpose(0, 3, 4, 1, 2).reshape(n * ho * wo, c * k * k)
    out = T._matmul(patches, w.data.reshape(f, -1).T) + b.data

    def back(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, f)
        T._accumulate(w, T._matmul(gmat.T, patches).reshape(w.shape))
        T._accumulate(b, gmat.sum(axis=0))
        if x.requires_grad or x._parents:
            T._accumulate(x, conv2d_backward_reference(g, w.data, x.shape, stride, padding))

    return T._node(out.reshape(n, ho, wo, f).transpose(0, 3, 1, 2), (x, w, b), back)


def maxpool2d_op_reference(x, size=2):
    """maxpool2d by the argmax formulation, which always settles zero signs."""
    out, back = maxpool2d_reference(x.data, size)
    return T._node(out, (x,), lambda g: T._accumulate(x, back(g)))


def fully_connected_op_reference(x, w, b):
    """fully_connected with an out-of-place bias add."""
    x2 = x.data.reshape(x.shape[0], -1)

    def back(g):
        T._accumulate(w, T._matmul(g.T, x2))
        T._accumulate(b, g.sum(axis=0))
        if x.requires_grad or x._parents:
            T._accumulate(x, T._matmul(g, w.data).reshape(x.shape))

    return T._node(T._matmul(x2, w.data.T) + b.data, (x, w, b), back)


class TestTrainingStep:
    @pytest.mark.parametrize("name, batch", [
        *[pytest.param(name, 4, id=name) for name in ("mvnet", "vcnn1", "vcnn2")],
        *[pytest.param(name, 8, id=f"{name}-batch8") for name in ("mvnet", "vcnn1", "vcnn2")]])
    def test_three_steps_bit_identical_to_reference_ops(self, name, batch, monkeypatch):
        """Batch 8 reaches numpy's pairwise summation (8 or more terms), whose
        order moves with the memory layout of the array summed."""
        spec = BUILDERS[name](4)
        rng = np.random.default_rng(8)
        n = 3 * batch
        if name == "mvnet":
            x, to_input = rng.integers(0, 256, (n, 64, 64), np.uint8), views_to_input
        else:
            x, to_input = (rng.random((n, 30, 30, 30)) < 0.2).astype(np.uint8), voxels_to_input
        y = np.arange(n) % 4
        cfg = training.TrainingConfig(epochs=1, batch_size=batch, seed=2, optimizer=OptimizerConfig(
            learning_rate=0.01, momentum=0.9, weight_decay=0.0005))

        def trained():
            net = Network.initialize(spec, seed=1)
            training.train(net, x, y, cfg, to_input, name=name)  # 3 steps
            return {k: p.data.tobytes() for k, p in net.params.items()}

        shipped = trained()
        monkeypatch.setattr(T, "conv2d", conv2d_op_reference)
        monkeypatch.setattr(T, "relu", relu_reference)
        monkeypatch.setattr(T, "maxpool2d", maxpool2d_op_reference)
        monkeypatch.setattr(T, "fully_connected", fully_connected_op_reference)
        monkeypatch.setattr(training, "sgd_step", sgd_step_reference)
        reference = trained()
        assert shipped.keys() == reference.keys()
        assert all(shipped[k] == reference[k] for k in shipped)
        assert shipped != {k: p.data.tobytes() for k, p in
                           Network.initialize(spec, seed=1).params.items()}


class TestWeightsFormat:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(0)
        arrays = {
            "conv1.w": rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
            "conv1.b": rng.normal(size=4).astype(np.float32),
            "fc.w": rng.normal(size=(10, 36)).astype(np.float32),
        }
        back = W.read_weights(W.write_weights(arrays))
        assert list(back) == list(arrays)
        for k in arrays:
            assert back[k].dtype == np.float32
            assert np.array_equal(back[k], arrays[k])
            assert not back[k].flags.writeable  # views of the payload, not copies
        # a network built from decoded arrays owns writable copies of them
        spec = BUILDERS["mvnet"](3, 32)
        arrays = Network.initialize(spec, seed=0).arrays()
        net = Network.from_arrays(spec, W.read_weights(W.write_weights(arrays)))
        for name, p in net.params.items():
            assert p.data.flags.writeable and p.data.flags.c_contiguous
            assert np.array_equal(p.data, arrays[name])

    def test_scalar_promoted_to_one_element_vector(self):
        back = W.read_weights(W.write_weights({"s": np.float32(2.5)}))
        assert back["s"].shape == (1,) and back["s"][0] == 2.5

    def test_deterministic_bytes(self):
        arrays = {"a": np.ones((2, 2), dtype=np.float32)}
        assert W.write_weights(arrays) == W.write_weights(arrays)

    def test_bad_magic_rejected(self):
        with pytest.raises(W.WeightsError):
            W.read_weights(b"XXXX" + bytes(16))

    def test_truncation_rejected(self):
        data = W.write_weights({"a": np.ones((3, 3), dtype=np.float32)})
        with pytest.raises(W.WeightsError):
            W.read_weights(data[:-2])

    def test_duplicate_names_rejected(self):
        one = W.write_weights({"a": np.ones(2, dtype=np.float32)})
        with pytest.raises(W.WeightsError):
            W.read_weights(one + one[4:])

    def test_matches_tobytes_encoder(self):
        def reference(arrays):
            out = [W.MAGIC]
            for name, arr in arrays.items():
                nb = name.encode("utf-8")
                a = np.ascontiguousarray(arr, dtype="<f4")
                out += [struct.pack("<I", len(nb)), nb, struct.pack("<I", a.ndim),
                        struct.pack(f"<{a.ndim}I", *a.shape), a.tobytes()]
            return b"".join(out)

        rng = np.random.default_rng(5)
        base = rng.normal(size=(6, 8))
        arrays = {
            "transposed": base.astype(np.float32).T,
            "strided.f64": base[::2, 1::3],
            "big.endian": base.astype(">f4"),
            "ints": np.arange(12, dtype=np.int64).reshape(3, 4),
            "scalar": np.float64(1.5),
            "empty": np.zeros((0, 3), dtype=np.float32),
            "n\u00e4me": np.ones(2, dtype=np.float32),
        }
        assert W.write_weights(arrays) == reference(arrays)
        assert isinstance(W.write_weights(arrays), bytes)

    def test_bad_utf8_name_rejected(self):
        data = bytearray(W.write_weights({"ab": np.ones(1, dtype=np.float32)}))
        data[8] = 0xFF  # first byte of the name
        with pytest.raises(W.WeightsError, match="utf-8"):
            W.read_weights(bytes(data))

    def test_dims_overrunning_payload_rejected(self):
        # 2**31 * 2**31 * 4 wraps to 0 in int64 arithmetic
        header = W.MAGIC + struct.pack("<I", 1) + b"a" + struct.pack("<4I", 3, 2**31, 2**31, 4)
        with pytest.raises(W.WeightsError):
            W.read_weights(header)
        with pytest.raises(W.WeightsError):
            W.read_weights(W.MAGIC + struct.pack("<I", 1) + b"a" + struct.pack("<I", 2**32 - 1))
        # a payload that fits, but a shape numpy cannot hold: huge dims beside a 0, or 65 dims
        for dims in [(0, 2**32 - 1, 2**32 - 1), (1,) * 65]:
            record = struct.pack(f"<I{len(dims)}I", len(dims), *dims)
            with pytest.raises(W.WeightsError, match="bad dims"):
                W.read_weights(W.MAGIC + struct.pack("<I", 1) + b"a" + record
                               + bytes(4 * math.prod(dims)))

    def test_fuzzed_blobs_parse_or_raise_weights_error(self):
        rng = np.random.default_rng(11)
        blob = W.write_weights({"L00.conv2d.w": rng.normal(size=(2, 1, 3, 3)),
                                "L01.fully_connected.b": rng.normal(size=3),
                                "L00.conv2d.w.m": np.zeros((2, 1, 3, 3))})
        cases = [blob[:n] for n in range(len(blob))]
        for _ in range(400):
            data = bytearray(blob)
            for pos in rng.integers(0, len(data), size=rng.integers(1, 4)):
                data[pos] = int(rng.integers(0, 256))
            cases.append(bytes(data))
        for data in cases:
            try:
                arrays = W.read_weights(data)
            except W.WeightsError:
                continue
            assert all(a.dtype == np.float32 for a in arrays.values())


class TestGradcheck:
    def test_every_case_passes_two_seeds(self):
        results = gc.run_suite([0, 1])
        assert len(results) == 2 * len(gc.CASES)
        for r in results:
            assert r.passed, (r.case, r.seed, r.max_rel_err)
            assert r.max_rel_err < gc.DEFAULT_TOLERANCE

    def test_result_threshold(self):
        assert gc.CheckResult("x", 0, 9.9e-5).passed
        assert not gc.CheckResult("x", 0, 1.1e-4).passed

    def test_unknown_case_rejected(self):
        with pytest.raises(KeyError):
            gc.run_case("nope", 0)
