import math
import tracemalloc

import numpy as np
import pytest

from ocusim import optics
from ocusim.nn import (
    BatchNormLayer,
    Conv2dLayer,
    DenseLayer,
    FlattenLayer,
    OclLayer,
    Pool2dLayer,
    ReluLayer,
    Sequential,
    dense_head,
    mse_loss,
    softmax_cross_entropy,
)
from ocusim.optics import (
    OcuGeometry,
    OcuModel,
    balanced_detect,
    bank_detect,
    bank_vjp,
    ocu_forward,
    quadrature_rows,
    stacked_transfer_partials,
    transfer_partials,
)
from ocusim.srp import conv2d_reference
from ocusim.tensorize import fold_batch, im2col, im2col_batch

from helpers import (
    complex_ocu_vjp,
    fd_check_network,
    naive_patch_columns,
    pool_grad_loop,
    pool_loop,
    reflect_pad_grad_loop,
)


def tiny_geometry(inputs=4):
    return OcuGeometry(metaunits_per_layer=8, num_inputs=inputs, num_layers=3)


class TestOclLayer:
    def test_matches_single_unit_path(self):
        # the banked layer must agree with the per-unit optics functions
        geom = tiny_geometry()
        rng = np.random.default_rng(0)
        layer = OclLayer(geom, kernels=2, channels=3, rng=rng)
        layer.log_gain.value[...] = rng.normal(size=(2, 3))
        x = rng.random((2, 3, 4, 4))
        out = layer.forward(x)

        g2 = 9  # (4 - 2 + 1)^2
        for m in range(2):
            expected = np.zeros((2, g2))
            for n in range(3):
                model = OcuModel(geom, layer.phases.value[m, n],
                                 float(np.exp(layer.log_gain.value[m, n])))
                for b in range(2):
                    patches = im2col(x[b, n], 2).values
                    y = balanced_detect(ocu_forward(model, patches),
                                        model.detection_gain)
                    expected[b] += y
            assert np.allclose(out[:, m].reshape(2, g2), expected, rtol=1e-10)

    def test_zero_image_zero_maps(self):
        geom = tiny_geometry()
        layer = OclLayer(geom, 2, 1, np.random.default_rng(1))
        out = layer.forward(np.zeros((1, 1, 4, 4)))
        assert np.all(out == 0.0)

    def test_silenced_units_reduce_to_single_channel(self):
        geom = tiny_geometry()
        rng = np.random.default_rng(2)
        layer = OclLayer(geom, 1, 3, rng)
        x = rng.random((2, 3, 4, 4))
        full = layer.forward(x)
        # silence channels 2 and 3: exp(-1000) underflows to exactly 0
        layer.log_gain.value[0, 1] = -1000.0
        layer.log_gain.value[0, 2] = -1000.0
        silenced = layer.forward(x)
        single = OclLayer(geom, 1, 1, np.random.default_rng(99))
        single.phases.value[0, 0] = layer.phases.value[0, 0]
        single.log_gain.value[0, 0] = layer.log_gain.value[0, 0]
        alone = single.forward(x[:, :1])
        assert np.allclose(silenced, alone, rtol=1e-12)
        assert not np.allclose(full, alone, rtol=1e-3, atol=1e-6)

    def test_permuting_kernels_permutes_channels(self):
        geom = tiny_geometry()
        rng = np.random.default_rng(3)
        layer = OclLayer(geom, 3, 2, rng)
        layer.log_gain.value[...] = rng.normal(size=(3, 2))
        x = rng.random((2, 2, 4, 4))
        base = layer.forward(x)
        perm = [2, 0, 1]
        layer.phases.value[...] = layer.phases.value[perm]
        layer.log_gain.value[...] = layer.log_gain.value[perm]
        permuted = layer.forward(x)
        assert np.allclose(permuted, base[:, perm], rtol=1e-12)

    def test_calibration_sets_unit_rms(self):
        geom = tiny_geometry()
        rng = np.random.default_rng(4)
        layer = OclLayer(geom, 2, 2, rng)
        x = rng.random((4, 2, 4, 4))
        layer.calibrate_gains(x)
        y = layer.gains()[:, :, None] * layer.unit_outputs(x)
        rms = np.sqrt(np.mean(y * y, axis=-1))
        assert rms == pytest.approx(np.ones((2, 2)), rel=1e-9)

    def test_rejects_channel_mismatch(self):
        geom = tiny_geometry()
        layer = OclLayer(geom, 1, 2, np.random.default_rng(5))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 3, 4, 4)))

    def test_out_shape_matches_forward(self):
        geom = tiny_geometry(inputs=9)
        layer = OclLayer(geom, 2, 1, np.random.default_rng(6), pad=1)
        x = np.random.default_rng(7).random((2, 1, 6, 6))
        assert layer.forward(x).shape == layer.out_shape(x.shape)


@pytest.mark.parametrize("make", [
    lambda rng: OclLayer(tiny_geometry(), 0, 1, rng),
    lambda rng: OclLayer(tiny_geometry(), 1, 0, rng),
    lambda rng: Conv2dLayer(0, 1, 3, rng),
    lambda rng: Conv2dLayer(1, 0, 3, rng),
    lambda rng: Conv2dLayer(1, 1, 0, rng),
    lambda rng: DenseLayer(0, 3, rng),
    lambda rng: DenseLayer(3, 0, rng),
])
def test_layers_reject_sizes_below_one(make):
    with pytest.raises(ValueError, match=">= 1"):
        make(np.random.default_rng(0))


def unit_oracle(layer, x, grad):
    """OclLayer output and gradients rebuilt one unit at a time from the
    complex single-unit path (ocu_forward, balanced_detect and the complex
    adjoint), with independent padding, patches and fold."""
    b, c, n, _ = x.shape
    h, s, pad = layer.h, layer.stride, layer.pad
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="reflect")
    g = (n + 2 * pad - h) // s + 1
    gq = grad.transpose(1, 0, 2, 3).reshape(layer.q, -1)
    out = np.zeros((layer.q, b * g * g))
    detected = np.zeros((layer.q, c, b * g * g))
    dphases = np.zeros_like(layer.phases.value)
    dlog_gain = np.zeros_like(layer.log_gain.value)
    dcols = np.zeros((c, h * h, b * g * g))
    for ch in range(c):
        cols = np.hstack([naive_patch_columns(padded[i, ch], h, s) for i in range(b)])
        for m in range(layer.q):
            kappa = float(np.exp(layer.log_gain.value[m, ch]))
            sign = layer.port_sign[m, ch]
            model = OcuModel(layer.geometry, layer.phases.value[m, ch], kappa)
            partials = transfer_partials(model, layer.fs)
            resp = ocu_forward(model, cols, layer.fs)
            detected[m, ch] = balanced_detect(resp, 1.0)
            out[m] += sign * balanced_detect(resp, kappa)
            dph, dgain, dpatches = complex_ocu_vjp(model, cols, sign * gq[m], partials, resp)
            dphases[m, ch] = dph
            dlog_gain[m, ch] = kappa * dgain
            dcols[ch] += dpatches
    dpadded = np.zeros(padded.shape)
    for ch in range(c):
        for ki in range(h):
            for kj in range(h):
                patch = dcols[ch, ki * h + kj].reshape(b, g, g)
                for gi in range(g):
                    for gj in range(g):
                        dpadded[:, ch, gi * s + ki, gj * s + kj] += patch[:, gi, gj]
    dx = reflect_pad_grad_loop(dpadded, pad, n)
    fm = out.reshape(layer.q, b, g, g).transpose(1, 0, 2, 3)
    return fm, dx, dphases, dlog_gain, detected


def assert_rel_close(actual, expected, rel=1e-12, label=""):
    scale = np.max(np.abs(expected))
    err = np.max(np.abs(actual - expected))
    assert err <= rel * scale, f"{label}: max error {err:.3g} vs scale {scale:.3g}"


def check_against_oracle(layer, x, need_input_grad=True):
    rng = np.random.default_rng(31)
    out = layer.forward(x, training=True)
    grad = rng.standard_normal(out.shape)
    layer.phases.zero_grad()
    layer.log_gain.zero_grad()
    dx = layer.backward(grad, need_input_grad=need_input_grad)
    fm, dx_ref, dphases, dlog_gain, detected = unit_oracle(layer, x, grad)
    assert_rel_close(out, fm, label="output")
    assert_rel_close(layer.phases.grad, dphases, label="phases")
    assert_rel_close(layer.log_gain.grad, dlog_gain, label="log_gain")
    assert_rel_close(layer.unit_outputs(x), detected, label="unit outputs")
    if need_input_grad:
        assert_rel_close(dx, dx_ref, label="input")
    else:
        assert dx is None


def random_ocl(q, c, stride, pad, seed):
    rng = np.random.default_rng(seed)
    geom = OcuGeometry(metaunits_per_layer=8, num_inputs=9, num_layers=4)
    layer = OclLayer(geom, q, c, rng, stride=stride, pad=pad)
    layer.log_gain.value[...] = rng.normal(size=(q, c))
    layer.port_sign[...] = rng.choice([-1.0, 1.0], size=(q, c))
    return layer, rng


class TestOclLayerOracle:
    """The blocked quadrature layer equals the per-unit optics path to round-off."""

    @pytest.mark.parametrize("q,c", [(8, 1), (8, 8), (1, 8), (4, 1)])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_blocked_layer_matches_units(self, q, c, stride, pad, monkeypatch):
        layer, rng = random_ocl(q, c, stride, pad, seed=10 * q + c + stride + pad)
        x = rng.random((2, c, 5, 5))
        if stride == 1:
            # streamed blocks of whole padded rows: all in one block, one row,
            # and four rows (a block straddles the two images, the last is ragged)
            side = 5 + 2 * pad
            widths = (2 * side * side, side, 4 * side)
        else:
            # whole-matrix columns: beyond the columns, exactly one block, not a divisor
            n_cols = 2 * ((5 + 2 * pad - 3) // stride + 1) ** 2
            widths = (n_cols + 5, n_cols, next(w for w in range(4, n_cols) if n_cols % w))
        for width in widths:
            monkeypatch.setattr(optics, "BLOCK_BYTES", width * 8 * c * 4 * q)
            check_against_oracle(layer, x)
        check_against_oracle(layer, x, need_input_grad=False)   # at the last width

    def test_default_block_width_over_many_blocks(self):
        # 600 windows (838 padded-grid columns) at 8x8 span two blocks of the
        # 1 MB default, the second partial
        layer, rng = random_ocl(8, 8, 1, 1, seed=3)
        assert optics.BLOCK_BYTES // (8 * 8 * 4 * 8) < 600
        check_against_oracle(layer, rng.random((6, 8, 10, 10)))


class TestStreamedLayers:
    """At stride 1 both convolutions stream their columns from the padded
    input; outputs and every gradient equal the whole-matrix path
    (im2col_batch, fold_batch) to round-off, over row-block widths."""

    @staticmethod
    def whole_matrix(layer, x, grad):
        """Output, input gradient and parameter gradients from the whole patch matrix."""
        b, c, n, _ = x.shape
        h, q = layer.h, layer.q
        cols = im2col_batch(x, h, 1, layer.pad)
        g = layer.out_shape(x.shape)[-1]
        gq = grad.transpose(1, 0, 2, 3).reshape(q, -1)
        if isinstance(layer, OclLayer):
            partials = stacked_transfer_partials(layer.phases.value, layer.fs)
            quad = quadrature_rows(partials.total)
            eff = layer.gains() * layer.port_sign
            out = bank_detect(quad, cols.reshape(c, h * h, -1), eff)
            grads = bank_vjp(partials, quad, cols.reshape(c, h * h, -1), eff, gq)
            dcols = grads.patches.reshape(c * h * h, -1)
            params = (grads.phases, eff * grads.gain)
        else:
            w = layer.weight.value.reshape(q, -1)
            out = w @ cols + layer.bias.value[:, None]
            dcols = w.T @ gq
            params = ((gq @ cols.T).reshape(layer.weight.value.shape), gq.sum(axis=1))
        dx = fold_batch(dcols, x.shape, h, 1, layer.pad)
        return out.reshape(q, b, g, g).transpose(1, 0, 2, 3), dx, params

    @pytest.mark.parametrize("optical", [True, False])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_equals_whole_matrix(self, optical, pad, monkeypatch):
        rng = np.random.default_rng(70 + pad)
        if optical:
            layer, _ = random_ocl(2, 3, 1, pad, seed=80 + pad)
            rows_per_col = 3 * 4 * 2
        else:
            layer = Conv2dLayer(2, 3, 3, rng, pad=pad)
            layer.bias.value[...] = rng.normal(size=2)
            rows_per_col = 3 * 9
        x = rng.random((2, 3, 6, 6))
        side = 6 + 2 * pad
        for rows in (2 * side, 1, 4):       # one block, one row, straddling images
            monkeypatch.setattr(optics, "BLOCK_BYTES", rows * side * 8 * rows_per_col)
            out = layer.forward(x, training=True)
            grad = rng.standard_normal(out.shape)
            for p in layer.params():
                p.zero_grad()
            dx = layer.backward(grad)
            ref_out, ref_dx, ref_params = self.whole_matrix(layer, x, grad)
            assert_rel_close(out, ref_out, label="output")
            assert_rel_close(dx, ref_dx, label="input")
            for p, ref in zip(layer.params(), ref_params):
                assert_rel_close(p.grad, ref, label=p.name)


class TestStreamedMemory:
    """At stride 1 an 8x8 OclLayer on a 256x256 image never builds its
    (C*H^2, B*G^2) patch matrix, and its cache keeps only the padded input."""

    @staticmethod
    def held_arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                yield from TestStreamedMemory.held_arrays(item)
        elif hasattr(obj, "__dict__"):
            yield from TestStreamedMemory.held_arrays(list(vars(obj).values()))

    def test_forward_below_patch_matrix(self):
        geom = OcuGeometry(metaunits_per_layer=50, num_layers=3)
        layer = OclLayer(geom, 8, 8, np.random.default_rng(0), pad=1)
        x = np.random.default_rng(1).random((1, 8, 256, 256))
        patch_matrix = 8 * 9 * 256 * 256 * 8        # 37.7 MB
        padded_input = 8 * 258 * 258 * 8            # 4.3 MB
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            layer.forward(x, training=False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < patch_matrix
        sizes = [a.nbytes for a in self.held_arrays(layer._cache)]
        assert max(sizes) == padded_input


class TestReflectPadGrad:
    """fold_batch at a 1x1 window places each padded pixel once, so what is
    left of it is the adjoint of reflection padding alone."""

    @staticmethod
    def pad_grad(grad, pad, n):
        b, c = grad.shape[:2]
        cols = grad.transpose(1, 0, 2, 3).reshape(c, -1)
        return fold_batch(cols, (b, c, n, n), 1, pad=pad)

    def test_pad_one_is_bitwise_equal_to_loops(self):
        rng = np.random.default_rng(40)
        for n in (2, 3, 6):
            grad = rng.standard_normal((2, 3, n + 2, n + 2))
            assert np.array_equal(self.pad_grad(grad, 1, n),
                                  reflect_pad_grad_loop(grad, 1, n))

    def test_every_pad_matches_loops(self):
        rng = np.random.default_rng(41)
        for n in range(2, 8):
            for pad in range(n):
                grad = rng.standard_normal((1, 2, n + 2 * pad, n + 2 * pad))
                np.testing.assert_allclose(self.pad_grad(grad, pad, n),
                                           reflect_pad_grad_loop(grad, pad, n),
                                           rtol=0, atol=1e-14 * np.abs(grad).max())

    def test_rejects_pad_not_below_size(self):
        with pytest.raises(ValueError):
            fold_batch(np.zeros((1, 49)), (1, 1, 3, 3), 1, pad=3)


class TestConv2dLayer:
    def test_matches_reference_convolution(self):
        rng = np.random.default_rng(8)
        layer = Conv2dLayer(2, 1, 3, rng)
        x = rng.random((2, 1, 6, 6))
        out = layer.forward(x)
        for b in range(2):
            for q in range(2):
                expected = conv2d_reference(x[b, 0], layer.weight.value[q, 0]) \
                    + layer.bias.value[q]
                assert np.allclose(out[b, q], expected, rtol=1e-12, atol=1e-12)

    def test_multichannel_sums(self):
        rng = np.random.default_rng(9)
        layer = Conv2dLayer(1, 2, 2, rng)
        x = rng.random((1, 2, 5, 5))
        out = layer.forward(x)
        expected = (conv2d_reference(x[0, 0], layer.weight.value[0, 0])
                    + conv2d_reference(x[0, 1], layer.weight.value[0, 1])
                    + layer.bias.value[0])
        assert np.allclose(out[0, 0], expected, rtol=1e-12, atol=1e-12)


class TestPool:
    def test_mean_pool_example(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert Pool2dLayer(2, 2, "mean").forward(x)[0, 0, 0, 0] == 2.5

    def test_max_pool_example(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert Pool2dLayer(2, 2, "max").forward(x)[0, 0, 0, 0] == 4.0

    def test_constant_map_invariant(self):
        x = np.full((1, 2, 4, 4), 0.7)
        for mode in ("mean", "max"):
            out = Pool2dLayer(2, 2, mode).forward(x)
            assert np.allclose(out, 0.7)

    def test_rejects_oversized_window(self):
        with pytest.raises(ValueError):
            Pool2dLayer(4, 4).forward(np.zeros((1, 1, 2, 2)))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            Pool2dLayer(2, 2, "median")

    @pytest.mark.parametrize("mode", ["mean", "max"])
    @pytest.mark.parametrize("window,stride,n", [(2, 2, 8), (2, 2, 7), (3, 2, 7),
                                                 (3, 2, 8), (2, 1, 6)])
    def test_bitwise_equal_to_loops(self, mode, window, stride, n):
        rng = np.random.default_rng(100 * window + 10 * stride + n)
        # a coarse grid of values, so max windows hold ties
        x = np.round(rng.standard_normal((2, 3, n, n)), 1)
        layer = Pool2dLayer(window, stride, mode)
        out = layer.forward(x)
        expected, arg = pool_loop(x, window, stride, mode)
        assert np.array_equal(out, expected)
        grad = rng.standard_normal(out.shape)
        assert np.array_equal(layer.backward(grad),
                              pool_grad_loop(grad, x.shape, window, stride, arg))


class TestBatchNorm:
    def test_standardized_batch_passthrough(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(64, 3, 5, 5))
        x -= x.mean(axis=(0, 2, 3), keepdims=True)
        x /= x.std(axis=(0, 2, 3), keepdims=True)
        bn = BatchNormLayer(3)
        out = bn.forward(x, training=True)
        assert np.allclose(out, x, atol=1e-4)

    def test_constant_channel_maps_to_shift(self):
        bn = BatchNormLayer(2)
        bn.beta.value[...] = np.array([0.3, -0.2])
        x = np.ones((4, 2, 3, 3)) * 5.0
        out = bn.forward(x, training=True)
        assert np.allclose(out[:, 0], 0.3, atol=1e-6)
        assert np.allclose(out[:, 1], -0.2, atol=1e-6)

    def test_train_mode_statistics(self):
        rng = np.random.default_rng(11)
        x = rng.normal(2.0, 3.0, size=(128, 2, 4, 4))
        bn = BatchNormLayer(2)
        out = bn.forward(x, training=True)
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.all(np.abs(mean) < 1e-6)
        assert var == pytest.approx(np.ones(2), abs=1e-4)

    def test_rejects_batch_of_one_in_training(self):
        bn = BatchNormLayer(2)
        with pytest.raises(ValueError):
            bn.forward(np.zeros((1, 2, 3, 3)), training=True)

    @pytest.mark.parametrize("training", [True, False])
    def test_rejects_non_image_input(self, training):
        with pytest.raises(ValueError, match="expects"):
            BatchNormLayer(2).forward(np.zeros((4, 2)), training=training)

    def test_inference_uses_running_stats(self):
        rng = np.random.default_rng(12)
        bn = BatchNormLayer(1, momentum=1.0)
        x = rng.normal(5.0, 2.0, size=(256, 1, 4, 4))
        bn.forward(x, training=True)
        y = bn.forward(np.full((2, 1, 4, 4), 5.0), training=False)
        assert np.allclose(y, (5.0 - x.mean()) / math.sqrt(x.var() + 1e-5),
                           atol=1e-3)


class TestDense:
    def test_zero_weights_zero_scores(self):
        layer = DenseLayer(4, 3, np.random.default_rng(13))
        layer.weight.value[...] = 0.0
        out = layer.forward(np.ones((2, 4)))
        assert np.all(out == 0.0)

    def test_identity_passthrough(self):
        layer = DenseLayer(3, 3, np.random.default_rng(14))
        layer.weight.value[...] = np.eye(3)
        layer.bias.value[...] = 0.0
        x = np.random.default_rng(15).random((2, 3))
        assert np.array_equal(layer.forward(x), x)

    def test_matches_scalar_loops(self):
        rng = np.random.default_rng(16)
        head = Sequential(dense_head(2, (3,), 2, rng))
        x = rng.random((1, 2))
        out = head.forward(x)
        w1, b1 = head.layers[0].weight.value, head.layers[0].bias.value
        w2, b2 = head.layers[2].weight.value, head.layers[2].bias.value
        hidden = [max(0.0, sum(x[0, i] * w1[i, j] for i in range(2)) + b1[j])
                  for j in range(3)]
        expected = [sum(hidden[j] * w2[j, k] for j in range(3)) + b2[k]
                    for k in range(2)]
        assert out[0] == pytest.approx(expected, rel=1e-12)


class TestLosses:
    def test_uniform_scores_log_n(self):
        scores = np.zeros((3, 4))
        labels = np.array([0, 1, 3])
        loss, _ = softmax_cross_entropy(scores, labels)
        assert loss == pytest.approx(math.log(4.0), rel=1e-12)

    def test_dominant_true_class_loss_vanishes(self):
        scores = np.array([[50.0, 0.0, 0.0]])
        loss, _ = softmax_cross_entropy(scores, np.array([0]))
        assert loss < 1e-20

    def test_ce_gradient_matches_fd(self):
        rng = np.random.default_rng(17)
        scores = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, 4)
        _, grad = softmax_cross_entropy(scores, labels)
        for idx in np.ndindex(scores.shape):
            h = 1e-6
            sp = scores.copy(); sp[idx] += h
            sm = scores.copy(); sm[idx] -= h
            fd = (softmax_cross_entropy(sp, labels)[0]
                  - softmax_cross_entropy(sm, labels)[0]) / (2 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-10)

    def test_rejects_nonfinite_scores(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.array([[math.inf, 0.0]]), np.array([0]))

    def test_mse_loss_and_gradient(self):
        pred = np.array([[1.0, 2.0]])
        target = np.array([[0.0, 0.0]])
        loss, grad = mse_loss(pred, target)
        assert loss == pytest.approx(2.5)
        assert grad == pytest.approx(np.array([[1.0, 2.0]]))


class TestEndToEndGradients:
    def test_classifier_stack(self):
        geom = tiny_geometry()
        rng = np.random.default_rng(18)
        net = Sequential([
            OclLayer(geom, 2, 1, rng),
            BatchNormLayer(2),
            ReluLayer(),
            FlattenLayer(),
            *dense_head(2 * 9, (5,), 3, rng),
        ])
        x = rng.random((4, 1, 4, 4))
        y = rng.integers(0, 3, 4)
        net.layers[0].calibrate_gains(x)
        fd_check_network(net, x, y, softmax_cross_entropy)

    def test_denoiser_stack(self):
        geom = tiny_geometry(inputs=9)
        rng = np.random.default_rng(19)
        net = Sequential([
            OclLayer(geom, 2, 1, rng, pad=1), ReluLayer(),
            OclLayer(geom, 2, 2, rng, pad=1), BatchNormLayer(2), ReluLayer(),
            OclLayer(geom, 1, 2, rng, pad=1),
        ])
        x = rng.random((3, 1, 5, 5))
        target = rng.random((3, 1, 5, 5)) - 0.5
        from ocusim.networks import calibrate_optical_layers
        calibrate_optical_layers(net, x)
        fd_check_network(net, x, target, mse_loss)

    def test_two_class_tiny_network(self):
        # V=8 units, 6x6 images with H=3 giving G=4, two classes
        geom = OcuGeometry(metaunits_per_layer=8, num_inputs=9, num_layers=3)
        rng = np.random.default_rng(24)
        net = Sequential([
            OclLayer(geom, 1, 1, rng),
            FlattenLayer(),
            *dense_head(16, (6,), 2, rng),
        ])
        x = rng.random((3, 1, 6, 6))
        y = rng.integers(0, 2, 3)
        net.layers[0].calibrate_gains(x)
        fd_check_network(net, x, y, softmax_cross_entropy)

    def test_electrical_stack_with_pools(self):
        rng = np.random.default_rng(20)
        for mode in ("mean", "max"):
            net = Sequential([
                Conv2dLayer(2, 1, 2, rng),
                Pool2dLayer(2, 2, mode),
                FlattenLayer(),
                DenseLayer(2, 3, rng),
            ])
            x = rng.random((3, 1, 4, 4))
            y = rng.integers(0, 3, 3)
            fd_check_network(net, x, y, softmax_cross_entropy)


class TestShapeAlgebra:
    def test_declared_shapes_match_computed(self):
        geom = tiny_geometry(inputs=9)
        rng = np.random.default_rng(21)
        stacks = [
            Sequential([OclLayer(geom, 3, 1, rng), Pool2dLayer(),
                        FlattenLayer(), DenseLayer(3 * 4, 5, rng)]),
            Sequential([Conv2dLayer(4, 2, 3, rng, pad=1), ReluLayer(),
                        BatchNormLayer(4), Pool2dLayer(2, 2, "max")]),
        ]
        inputs = [np.random.default_rng(22).random((2, 1, 7, 7)),
                  np.random.default_rng(23).random((2, 2, 6, 6))]
        for net, x in zip(stacks, inputs):
            assert net.forward(x, training=True).shape == net.out_shape(x.shape)
