import copy
import math
import tracemalloc

import numpy as np
import pytest

from ocusim import optics
from ocusim.networks import build_classifier, build_denoiser, calibrate_optical_layers
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
    bank_unit_outputs,
    bank_vjp,
    ocu_forward,
    quadrature_rows,
    stacked_transfer_partials,
    transfer_partials,
)
from ocusim.optim import TrainingDiverged
from ocusim.srp import conv2d_reference
from ocusim.tensorize import PaddedWindows, fold_batch, im2col, im2col_batch

from helpers import (
    calibrate_gains_whole,
    complex_ocu_vjp,
    conv_layer_64,
    fd_check_network,
    naive_patch_columns,
    ocl_layer_64,
    pool_grad_loop,
    pool_loop,
    reflect_pad_grad_loop,
    reflect_pad_loop,
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

    @pytest.mark.parametrize("layers", [8, 40])
    def test_calibration_overflow_raises(self, layers):
        # not -inf gains that no checkpoint can hold (a RuntimeWarning would
        # fail the suite)
        geom = OcuGeometry(metaunits_per_layer=8, num_inputs=4, num_layers=layers)
        layer = OclLayer(geom, 2, 2, np.random.default_rng(4))
        x = np.random.default_rng(5).random((4, 2, 4, 4))
        with pytest.raises(TrainingDiverged, match=f"num_layers = {layers}"):
            layer.calibrate_gains(x)
        assert np.all(layer.log_gain.value == 0.0)

    @pytest.mark.parametrize("kernels, channels, pad, shape", [
        (8, 8, 1, (4, 8, 12, 12)), (4, 1, 0, (3, 1, 7, 7))])
    def test_calibration_equals_whole_array_formula(self, kernels, channels, pad, shape):
        layer = OclLayer(tiny_geometry(inputs=9), kernels, channels,
                         np.random.default_rng(8), pad=pad)
        x = np.random.default_rng(9).random(shape) - 0.3
        log_gain, port_sign = calibrate_gains_whole(layer, x)
        layer.calibrate_gains(x)
        assert layer.log_gain.value.tobytes() == log_gain.tobytes()
        assert layer.port_sign.tobytes() == port_sign.tobytes()
        assert np.any(port_sign < 0) and np.any(port_sign > 0)

    def test_calibration_of_a_dark_unit(self):
        # a zero input channel gives its units all-zero outputs: they take
        # the median of the lit units' log-gains, and port +1
        layer = OclLayer(tiny_geometry(inputs=9), 2, 3, np.random.default_rng(10), pad=1)
        x = np.random.default_rng(11).random((2, 3, 6, 6))
        x[:, 1] = 0.0
        log_gain, port_sign = calibrate_gains_whole(layer, x)
        layer.calibrate_gains(x)
        lit = [0, 2]
        assert layer.log_gain.value[:, lit].tobytes() == log_gain[:, lit].tobytes()
        assert layer.port_sign.tobytes() == port_sign.tobytes()
        assert np.all(layer.log_gain.value[:, 1] == np.median(log_gain[:, lit]))
        assert np.all(layer.port_sign[:, 1] == 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dark_channel_at_calibration_stays_at_the_layer_scale(self, dtype):
        # calibrated near 1e-64, a unit left at gain 1 would put its channel's
        # later signal at the physical field scale: overflow at float32, 1e59
        # at float64
        layer = OclLayer(OcuGeometry(), 4, 4, np.random.default_rng(14), pad=1)
        x = np.random.default_rng(15).random((4, 4, 10, 10)).astype(dtype)
        dark = x.copy()
        dark[:, 3] = 0.0
        layer.calibrate_gains(dark)
        assert np.all(layer.gains() < 1e-30)
        calibrated = layer.forward(dark)
        lit = layer.forward(x)
        assert lit.dtype == dtype and np.all(np.isfinite(lit))
        rms = [float(np.sqrt(np.mean(np.square(y, dtype=float)))) for y in (calibrated, lit)]
        assert 0.1 < rms[1] / rms[0] < 10.0

    def test_calibration_of_an_all_zero_input_names_the_layer(self):
        net = build_denoiser(tiny_geometry(inputs=9), 2, 2, 1)
        with pytest.raises(ValueError, match="all zero"):
            net.layers[0].calibrate_gains(np.zeros((2, 1, 6, 6)))
        with pytest.raises(ValueError, match=r"^layer 0 \(OclLayer\): .*all zero"):
            calibrate_optical_layers(net, np.zeros((2, 1, 6, 6)))
        assert np.all(net.layers[0].log_gain.value == 0.0)

    def test_calibration_needs_no_more_memory_than_the_engine(self):
        # the whole-array formula copies all (q, C, B*G^2) unit outputs and
        # squares them; calibration runs the engine one input channel at a
        # time and reduces one unit at a time, so it needs the engine's
        # memory for one channel: that channel's (q, 1, n) float64 outputs
        # and the engine's block buffers
        geom = OcuGeometry()
        layer = OclLayer(geom, 8, 8, np.random.default_rng(12), pad=1)
        x = np.random.default_rng(13).random((16, 8, 40, 40))
        layer.calibrate_gains(x)                # diffraction matrices cached

        def peak(run):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        quad = stacked_transfer_partials(layer.phases.value, geom).quad
        engine = peak(lambda: bank_unit_outputs(quad, PaddedWindows(x, 3, 1)))
        one_channel = peak(lambda: bank_unit_outputs(quad[:1], PaddedWindows(x[:, :1], 3, 1)))
        streamed = peak(lambda: layer.calibrate_gains(x))
        outputs = 8 * 16 * 42 * 42 * 8          # one channel's (q, 1, n) outputs, 1.8 MB
        assert streamed < one_channel + 2**19
        assert streamed < outputs + optics.BLOCK_BYTES + 2**21
        assert streamed < engine / 4

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
            partials = transfer_partials(model)
            resp = ocu_forward(model, cols)
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


def random_ocl(q, c, pad, seed):
    rng = np.random.default_rng(seed)
    geom = OcuGeometry(metaunits_per_layer=8, num_inputs=9, num_layers=4)
    layer = OclLayer(geom, q, c, rng, pad=pad)
    layer.log_gain.value[...] = rng.normal(size=(q, c))
    layer.port_sign[...] = rng.choice([-1.0, 1.0], size=(q, c))
    return layer, rng


class TestOclLayerOracle:
    """The blocked quadrature layer equals the per-unit optics path to round-off."""

    @pytest.mark.parametrize("q,c", [(8, 1), (8, 8), (1, 8), (4, 1)])
    @pytest.mark.parametrize("stride", [1])     # the one stride a convolution slides at
    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_blocked_layer_matches_units(self, q, c, stride, pad, monkeypatch):
        layer, rng = random_ocl(q, c, pad, seed=10 * q + c + stride + pad)
        assert layer.stride == stride
        x = rng.random((2, c, 5, 5))
        # streamed blocks of whole padded rows: all in one block, one row,
        # and four rows (a block straddles the two images, the last is ragged)
        side = 5 + 2 * pad
        for width in (2 * side * side, side, 4 * side):
            monkeypatch.setattr(optics, "BLOCK_BYTES", width * 8 * c * 4 * q)
            check_against_oracle(layer, x)
        check_against_oracle(layer, x, need_input_grad=False)   # at the last width

    def test_default_block_width_over_many_blocks(self):
        # 600 windows (838 padded-grid columns) at 8x8 span two blocks of the
        # 1 MB default, the second partial
        layer, rng = random_ocl(8, 8, 1, seed=3)
        assert optics.BLOCK_BYTES // (8 * 8 * 4 * 8) < 600
        check_against_oracle(layer, rng.random((6, 8, 10, 10)))


class TestStreamedLayers:
    """Both convolutions stream their columns from the padded input; outputs
    and every gradient equal the whole-matrix path (im2col_batch and
    fold_batch on the loop-padded input, then the loop adjoint of padding) to
    round-off, over row-block widths."""

    @staticmethod
    def whole_matrix(layer, x, grad):
        """Output, input gradient and parameter gradients from the whole patch matrix."""
        b, c, n, _ = x.shape
        h, q = layer.h, layer.q
        padded = reflect_pad_loop(x, layer.pad)
        cols = im2col_batch(padded, h)
        g = layer.out_shape(x.shape)[-1]
        gq = grad.transpose(1, 0, 2, 3).reshape(q, -1)
        if isinstance(layer, OclLayer):
            partials = stacked_transfer_partials(layer.phases.value, layer.geometry)
            quad = quadrature_rows(partials.total)
            eff = layer.gains() * layer.port_sign
            out = bank_detect(quad, cols.reshape(c, h * h, -1), eff)
            grads = bank_vjp(partials, cols.reshape(c, h * h, -1), eff, gq)
            dcols = grads.patches.reshape(c * h * h, -1)
            params = (grads.phases, eff * grads.gain)
        else:
            w = layer.weight.value.reshape(q, -1)
            out = w @ cols + layer.bias.value[:, None]
            dcols = w.T @ gq
            params = ((gq @ cols.T).reshape(layer.weight.value.shape), gq.sum(axis=1))
        dx = reflect_pad_grad_loop(fold_batch(dcols, padded.shape, h), layer.pad, n)
        return out.reshape(q, b, g, g).transpose(1, 0, 2, 3), dx, params

    @pytest.mark.parametrize("optical", [True, False])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_equals_whole_matrix(self, optical, pad, monkeypatch):
        rng = np.random.default_rng(70 + pad)
        if optical:
            layer, _ = random_ocl(2, 3, pad, seed=80 + pad)
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


def builder_layers(optical):
    """The calibrated convolutions that the builders make at the default
    geometry, with an input for each: the desk denoiser's 8x1, 8x8 and 1x8
    (pad 1) and the classifier's 4x1 (no pad)."""
    rng = np.random.default_rng(40)
    denoiser = build_denoiser(OcuGeometry(), 8, 8, seed=5, optical=optical)
    classifier = build_classifier(OcuGeometry(), 4, 1, 12, 2, seed=0, optical=optical,
                                  hidden=(4,))
    for net in (denoiser, classifier):
        calibrate_optical_layers(net, rng.random((4, 1, 12, 12)))
    layers = [denoiser.layers[0], denoiser.layers[2], denoiser.layers[5], classifier.layers[0]]
    return [(layer, rng.random((4, layer.c, 12, 12))) for layer in layers]


# (optical, index into builder_layers) of every builder-made convolution
BUILDER_LAYERS = [(optical, i) for optical in (True, False) for i in range(4)]
BUILDER_IDS = [f"{'ocl' if optical else 'conv'}{('8x1', '8x8', '1x8', '4x1')[i]}"
               for optical, i in BUILDER_LAYERS]


class TestPrecision:
    """A convolution works in its input's dtype.  At float32 it runs in the
    engine's power-of-two scaled frame and agrees with float64; at float64
    it is bitwise the engine as it was before it took the columns' dtype."""

    @staticmethod
    def run(layer, x, grad):
        """(output, input gradient, parameter gradients) of one forward and
        backward pass of a copy of ``layer``."""
        layer = copy.deepcopy(layer)
        out = layer.forward(x, training=True)
        dx = layer.backward(grad)
        return out, dx, [p.grad for p in layer.params()]

    @pytest.mark.parametrize("optical, i", BUILDER_LAYERS, ids=BUILDER_IDS)
    def test_float32_equals_float64(self, optical, i):
        layer, x = builder_layers(optical)[i]
        grad = np.random.default_rng(41).standard_normal(layer.out_shape(x.shape))
        out64, dx64, grads64 = self.run(layer, x, grad)
        out32, dx32, grads32 = self.run(layer, x.astype(np.float32), grad)
        assert out32.dtype == dx32.dtype == np.float32
        for name, got, want in [("output", out32, out64), ("input gradient", dx32, dx64),
                                *zip([p.name for p in layer.params()], grads32, grads64)]:
            assert want.dtype == np.float64, name
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= 1e-5, f"{name}: relative error {err:.2e}"

    @pytest.mark.parametrize("need_input_grad", [True, False])
    @pytest.mark.parametrize("optical, i", BUILDER_LAYERS, ids=BUILDER_IDS)
    def test_float64_is_the_engine_before(self, optical, i, need_input_grad):
        layer, x = builder_layers(optical)[i]
        grad = np.random.default_rng(42).standard_normal(layer.out_shape(x.shape))
        out = layer.forward(x, training=True)
        dx = layer.backward(grad, need_input_grad=need_input_grad)
        reference = (ocl_layer_64 if optical else conv_layer_64)(layer, x, grad, need_input_grad)
        got = [out, dx] + [p.grad for p in layer.params()]
        for a, b in zip(got, reference):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


class TestReflectPadGrad:
    """A 1x1 window source places each padded pixel once, so its gradient is
    the adjoint of reflection padding alone."""

    @staticmethod
    def pad_grad(grad, pad, n):
        b, c = grad.shape[:2]
        src = PaddedWindows(np.zeros((b, c, n, n)), 1, pad)
        src.add_grad(slice(0, src.n), grad.transpose(1, 0, 2, 3).reshape(c, 1, -1))
        return src.gradient()

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
            PaddedWindows(np.zeros((1, 1, 3, 3)), 1, 3)


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

    def test_stride_is_one(self):
        # the twin takes its optical layer's stride by position; only 1 slides
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="stride"):
            Conv2dLayer(2, 1, 3, rng, 2, 0)
        twin = Conv2dLayer(2, 1, 3, rng, 1, 0)
        assert twin.stride == 1 and OclLayer(tiny_geometry(), 2, 1, rng).stride == 1


class TestPool:
    def test_mean_pool_example(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert Pool2dLayer().forward(x)[0, 0, 0, 0] == 2.5

    def test_constant_map_invariant(self):
        x = np.full((1, 2, 4, 4), 0.7)
        assert np.allclose(Pool2dLayer().forward(x), 0.7)

    def test_rejects_oversized_window(self):
        with pytest.raises(ValueError):
            Pool2dLayer().forward(np.zeros((1, 1, 1, 1)))

    @pytest.mark.parametrize("window,stride,n", [(2, 2, 8), (2, 2, 7)])
    def test_bitwise_equal_to_loops(self, window, stride, n):
        rng = np.random.default_rng(100 * window + 10 * stride + n)
        x = np.round(rng.standard_normal((2, 3, n, n)), 1)
        layer = Pool2dLayer()
        assert window == stride == layer.WINDOW
        out = layer.forward(x)
        assert np.array_equal(out, pool_loop(x, window, stride))
        grad = rng.standard_normal(out.shape)
        assert np.array_equal(layer.backward(grad),
                              pool_grad_loop(grad, x.shape, window, stride))


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
        # one training pass moves the running statistics a tenth of the way
        # from (0, 1) to the batch's; inference then normalizes with them
        rng = np.random.default_rng(12)
        bn = BatchNormLayer(1)
        x = rng.normal(5.0, 2.0, size=(256, 1, 4, 4))
        bn.forward(x, training=True)
        mean, var = 0.1 * x.mean(), 0.9 + 0.1 * x.var()
        assert bn.running_mean == pytest.approx([mean], rel=1e-12)
        assert bn.running_var == pytest.approx([var], rel=1e-12)
        y = bn.forward(np.full((2, 1, 4, 4), 5.0), training=False)
        assert np.allclose(y, (5.0 - mean) / math.sqrt(var + 1e-5), rtol=1e-12, atol=0)


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
        net = Sequential([
            Conv2dLayer(2, 1, 2, rng),
            Pool2dLayer(),
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
                        BatchNormLayer(4), Pool2dLayer()]),
        ]
        inputs = [np.random.default_rng(22).random((2, 1, 7, 7)),
                  np.random.default_rng(23).random((2, 2, 6, 6))]
        for net, x in zip(stacks, inputs):
            assert net.forward(x, training=True).shape == net.out_shape(x.shape)
