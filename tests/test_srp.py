import numpy as np
import pytest

from ocusim.optics import (
    OcuGeometry,
    OcuModel,
    balanced_detect,
    bank_detect,
    ocu_forward,
    ocu_transfer,
    ocu_vjp,
    quadrature_rows,
    transfer_partials,
)
from ocusim.kernels import KERNEL_SUITE, STANDARD_KERNELS
from ocusim.srp import (
    FitConfig,
    PatchMoments,
    TrainingDiverged,
    _init_gain,
    conv2d_reference,
    evaluate_kernel_emulation,
    fit_kernel,
    generate_pattern,
    phase_gradients,
    srp_loss,
    training_labels,
)
from ocusim.tensorize import im2col

from helpers import (
    assert_grad_close,
    conv2d_pixel_loop,
    direct_fit_history,
    numeric_grad,
    reference_fit_kernel,
)


def small_geometry():
    return OcuGeometry(metaunits_per_layer=8, num_inputs=4, num_layers=3)


class TestPattern:
    def test_deterministic(self):
        assert np.array_equal(generate_pattern(5, 32), generate_pattern(5, 32))

    def test_shape_and_range(self):
        p = generate_pattern(0, 128)
        assert p.shape == (128, 128)
        assert p.min() >= 0.0 and p.max() < 1.0

    def test_mean_near_half(self):
        p = generate_pattern(1, 128)
        assert abs(p.mean() - 0.5) < 0.02


class TestConvReference:
    def test_identity_kernel_crops_interior(self):
        rng = np.random.default_rng(0)
        img = rng.random((6, 6))
        kernel = np.zeros((3, 3))
        kernel[1, 1] = 1.0
        assert np.array_equal(conv2d_reference(img, kernel), img[1:-1, 1:-1])

    def test_ones_kernel_sums(self):
        img = np.full((5, 5), 2.0)
        out = conv2d_reference(img, np.ones((3, 3)))
        assert np.allclose(out, 18.0)

    def test_matches_pixel_loop_bitwise(self):
        rng = np.random.default_rng(6)
        square, wide = rng.random((23, 23)), rng.random((17, 26))
        cases = [(square, STANDARD_KERNELS[name], s) for name in KERNEL_SUITE for s in (1, 2)]
        cases += [(img, rng.normal(size=(h, h)), s)
                  for img in (square, wide) for h in (1, 2, 3, 5) for s in (1, 2, 3)]
        for img, kernel, stride in cases:
            got = conv2d_reference(img, kernel, stride)
            assert np.array_equal(got, conv2d_pixel_loop(img, kernel, stride)), \
                (kernel.shape, stride)

    def test_rejects_oversized_kernel(self):
        with pytest.raises(ValueError):
            conv2d_reference(np.zeros((2, 2)), np.ones((3, 3)))

    def test_training_pair_labels(self):
        pattern = generate_pattern(2, 16)
        kernel = np.arange(9.0).reshape(3, 3)
        labels = training_labels(pattern, kernel)
        assert labels.shape == (14 * 14,)
        assert np.array_equal(labels, conv2d_reference(pattern, kernel).ravel())
        # an odd size, non-integer kernels; bitwise every time
        odd = generate_pattern(3, 37)
        for kernel in (STANDARD_KERNELS["gaussian_blur"] * 0.37,
                       np.random.default_rng(4).normal(size=(3, 3)),
                       np.random.default_rng(5).normal(size=(5, 5)),
                       np.array([[0.1, -0.7], [1.3, 0.25]])):
            assert np.array_equal(training_labels(odd, kernel),
                                  conv2d_reference(odd, kernel).ravel())


class TestLoss:
    def _setup(self):
        geom = small_geometry()
        model = OcuModel.random_init(geom, np.random.default_rng(3))
        patches = np.random.default_rng(4).random((4, 4))
        # gain calibrated so detected outputs are O(1), not at raw field scale
        resp = ocu_forward(model, patches)
        diff = np.abs(resp[0]) ** 2 - np.abs(resp[1]) ** 2
        model.detection_gain = 1.0 / float(np.sqrt(np.mean(diff ** 2)))
        return model, patches

    def test_zero_at_exact_labels(self):
        model, patches = self._setup()
        # the unit's own output as the loss detects it, a 1x1 bank in real
        # quadratures; the complex reference path agrees to round-off
        y = bank_detect(quadrature_rows(ocu_transfer(model)), patches[None],
                        np.full((1, 1), model.detection_gain))[0]
        reference = balanced_detect(ocu_forward(model, patches), model.detection_gain)
        assert np.max(np.abs(y - reference)) <= 1e-12 * np.max(np.abs(reference))
        loss, mse = srp_loss(model, patches, y)
        assert loss == 0.0 and mse == 0.0

    def test_constant_offset(self):
        model, patches = self._setup()
        y = balanced_detect(ocu_forward(model, patches), model.detection_gain)
        loss, mse = srp_loss(model, patches, y - 1.0)
        assert loss == pytest.approx(2.0, rel=1e-12)   # 1/2 * 4 * 1^2
        assert mse == pytest.approx(1.0, rel=1e-12)

    def test_matches_scalar_loop(self):
        model, patches = self._setup()
        labels = np.random.default_rng(5).normal(size=4)
        loss, mse = srp_loss(model, patches, labels)
        y = balanced_detect(ocu_forward(model, patches), model.detection_gain)
        expected = 0.5 * sum((float(y[i]) - labels[i]) ** 2 for i in range(4))
        assert loss == pytest.approx(expected, rel=1e-12)
        assert mse == pytest.approx(2 * expected / 4, rel=1e-12)


class TestGradients:
    def test_zero_patches_zero_gradient(self):
        geom = small_geometry()
        model = OcuModel.random_init(geom, np.random.default_rng(6))
        dphases, dgain = phase_gradients(model, np.zeros((4, 5)), np.zeros(5))
        assert np.all(dphases == 0.0)
        assert dgain == 0.0

    def test_phases_match_finite_differences(self):
        geom = small_geometry()
        rng = np.random.default_rng(7)
        model = OcuModel.random_init(geom, rng)
        model.detection_gain = 2.0e-22  # physical field scale
        patches = rng.random((4, 9))
        labels = rng.normal(size=9)
        dphases, dgain = phase_gradients(model, patches, labels)

        def loss():
            return srp_loss(model, patches, labels)[0]

        fd = numeric_grad(loss, model.phases, lambda v: 1e-5)
        assert_grad_close(dphases, fd, label="phases")

    @pytest.mark.parametrize("layers", [2, 5])
    def test_phases_match_finite_differences_at_depth(self, layers):
        # the forward adjoint sweep from the first metaline to the last
        geom = OcuGeometry(metaunits_per_layer=6, num_inputs=4, num_layers=layers)
        rng = np.random.default_rng(20 + layers)
        model = OcuModel.random_init(geom, rng)
        patches = rng.random((4, 9))
        resp = ocu_forward(model, patches)
        diff = np.abs(resp[0]) ** 2 - np.abs(resp[1]) ** 2
        model.detection_gain = 1.0 / float(np.sqrt(np.mean(diff ** 2)))
        labels = rng.normal(size=9)
        dphases, _ = phase_gradients(model, patches, labels)

        def loss():
            return srp_loss(model, patches, labels)[0]

        fd = numeric_grad(loss, model.phases, lambda v: 1e-5)
        assert_grad_close(dphases, fd, label="phases")

    def test_gain_matches_finite_differences(self):
        geom = small_geometry()
        rng = np.random.default_rng(8)
        model = OcuModel.random_init(geom, rng)
        patches = rng.random((4, 9))
        # calibrate gain near the useful scale before differentiating
        resp = ocu_forward(model, patches)
        diff = np.abs(resp[0]) ** 2 - np.abs(resp[1]) ** 2
        model.detection_gain = 1.0 / float(np.sqrt(np.mean(diff ** 2)))
        labels = rng.normal(size=9)
        _, dgain = phase_gradients(model, patches, labels)

        kappa = model.detection_gain
        h = 1e-6 * kappa
        model.detection_gain = kappa + h
        f_plus = srp_loss(model, patches, labels)[0]
        model.detection_gain = kappa - h
        f_minus = srp_loss(model, patches, labels)[0]
        model.detection_gain = kappa
        fd = (f_plus - f_minus) / (2 * h)
        assert dgain == pytest.approx(fd, rel=1e-6)

    def test_patches_match_finite_differences(self):
        geom = small_geometry()
        rng = np.random.default_rng(12)
        model = OcuModel.random_init(geom, rng)
        patches = rng.random((4, 7))
        resp = ocu_forward(model, patches)
        diff = np.abs(resp[0]) ** 2 - np.abs(resp[1]) ** 2
        model.detection_gain = 1.0 / float(np.sqrt(np.mean(diff ** 2)))
        labels = rng.normal(size=7)
        # dJ/dy of the SRP loss is the residual
        e = balanced_detect(ocu_forward(model, patches), model.detection_gain) - labels
        grads = ocu_vjp(model, patches, e, transfer_partials(model), need_patch_grad=True)

        def loss():
            return srp_loss(model, patches, labels)[0]

        fd = numeric_grad(loss, patches, lambda v: 1e-6)
        assert_grad_close(grads.patches, fd, label="patches")

    def test_gain_closed_form_at_zero_labels(self):
        geom = small_geometry()
        rng = np.random.default_rng(9)
        model = OcuModel.random_init(geom, rng)
        model.detection_gain = 3.0e-21
        patches = rng.random((4, 6))
        labels = np.zeros(6)
        loss, _ = srp_loss(model, patches, labels)
        _, dgain = phase_gradients(model, patches, labels)
        assert dgain == pytest.approx(2.0 * loss / model.detection_gain, rel=1e-12)


def _moment_and_direct(model, values, labels):
    """(J, dJ/dphases, dJ/dkappa) from the probe-column path and the direct one."""
    moments = PatchMoments.of(values, labels)
    partials = transfer_partials(model)
    loss, r = moments.loss(model, partials)
    grads = moments.gradients(model, partials, r)
    direct_loss, _ = srp_loss(model, values, labels)
    dphases, dgain = phase_gradients(model, values, labels)
    return (loss, grads.phases, grads.gain), (direct_loss, dphases, dgain)


def _assert_paths_agree(model, values, labels, rel=1e-12):
    moment, direct = _moment_and_direct(model, values, labels)
    for name, got, want in zip(("loss", "phases", "gain"), moment, direct):
        err = np.max(np.abs(np.asarray(got) - want))
        assert err <= rel * np.max(np.abs(want)), (name, err, np.max(np.abs(want)))


def _models(geom, values, labels):
    """Random units whose gains sit off the label scale, so no unit fits exactly."""
    for seed, scale in ((0, 0.5), (1, 2.0), (2, 3.0)):
        model = OcuModel.random_init(geom, np.random.default_rng(seed))
        model.detection_gain = _init_gain(model, values, labels) * scale
        yield model


class TestPatchMoments:
    """The probe-column epoch equals the direct loss and gradients over every
    column.  A fit uses every window; the moments take any column set, so the
    stride-2 windows stand for a subset of them."""

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_direct_path(self, stride):
        geom = OcuGeometry()
        pattern = generate_pattern(1, 64)
        values = im2col(pattern, 3, stride).values
        for name in (*KERNEL_SUITE, "identity"):
            labels = conv2d_reference(pattern, STANDARD_KERNELS[name], stride).ravel()
            for model in _models(geom, values, labels):
                _assert_paths_agree(model, values, labels)

    @pytest.mark.parametrize("case", ["constant", "five_by_five", "binary"])
    def test_matches_direct_path_on_rank_deficient_data(self, case):
        # a constant pattern has rank-1 moments and a 5x5 one has 9 columns,
        # fewer than the 45 probes; binary pixels repeat their monomials.
        # Zero-sum kernels give round-off labels on a constant pattern, so
        # random labels stand in for them there.
        pattern = {"constant": np.full((20, 20), 0.3),
                   "five_by_five": generate_pattern(2, 5),
                   "binary": (generate_pattern(3, 40) > 0.5).astype(float)}[case]
        geom = OcuGeometry()
        for stride in (1, 2):
            values = im2col(pattern, 3, stride).values
            label_sets = [conv2d_reference(pattern, STANDARD_KERNELS[name], stride).ravel()
                          for name in ("identity", "box_blur", "sharpen")]
            label_sets.append(np.random.default_rng(9).normal(size=values.shape[1]))
            if case != "constant":
                label_sets += [conv2d_reference(pattern, STANDARD_KERNELS[name], stride).ravel()
                               for name in ("sobel_x", "edge8")]
            for labels in label_sets:
                for model in _models(geom, values, labels):
                    _assert_paths_agree(model, values, labels)

    def test_epoch_builds_quadrature_rows_once(self, monkeypatch):
        from ocusim import optics

        real = optics.quadrature_rows
        calls = []
        monkeypatch.setattr(optics, "quadrature_rows",
                            lambda total: calls.append(1) or real(total))
        geom = OcuGeometry()
        pattern = generate_pattern(1, 16)
        values = im2col(pattern, 3).values
        labels = training_labels(pattern, STANDARD_KERNELS["sharpen"])
        moments = PatchMoments.of(values, labels)
        model = OcuModel.random_init(geom, np.random.default_rng(3))
        partials = transfer_partials(model)
        _, r = moments.loss(model, partials)
        moments.gradients(model, partials, r)
        assert len(calls) == 1

    def test_exact_fit_has_no_cancellation_floor(self):
        # every unit fits a constant pattern's labels exactly once its gain
        # matches; the loss is then round-off, far below eps * l . l
        pattern = np.full((20, 20), 0.3)
        geom = OcuGeometry()
        values = im2col(pattern, 3).values
        labels = training_labels(pattern, STANDARD_KERNELS["identity"])
        model = OcuModel.random_init(geom, np.random.default_rng(0))
        model.detection_gain = _init_gain(model, values, labels)
        (loss, _, _), (direct_loss, _, _) = _moment_and_direct(model, values, labels)
        scale = 0.5 * float(np.dot(labels, labels))
        assert direct_loss <= 1e-20 * scale
        assert 0.0 <= loss <= 1e-20 * scale

    def test_phases_and_gain_match_finite_differences(self):
        geom = small_geometry()
        rng = np.random.default_rng(17)
        pattern = generate_pattern(10, 12)
        values = im2col(pattern, 2).values
        labels = training_labels(pattern, rng.normal(size=(2, 2)))
        moments = PatchMoments.of(values, labels)
        model = OcuModel.random_init(geom, rng)
        model.detection_gain = _init_gain(model, values, labels) * 1.5

        def loss():
            return moments.loss(model, transfer_partials(model))[0]

        partials = transfer_partials(model)
        grads = moments.gradients(model, partials, moments.loss(model, partials)[1])
        fd = numeric_grad(loss, model.phases, lambda v: 1e-5)
        assert_grad_close(grads.phases, fd, label="phases")

        kappa = model.detection_gain
        h = 1e-6 * kappa
        model.detection_gain = kappa + h
        f_plus = loss()
        model.detection_gain = kappa - h
        f_minus = loss()
        model.detection_gain = kappa
        assert grads.gain == pytest.approx((f_plus - f_minus) / (2 * h), rel=1e-6)

    @pytest.mark.parametrize("name", ["sobel_x", "identity", "sharpen"])
    def test_fit_history_matches_direct_replay(self, name):
        geom = OcuGeometry()
        pattern = generate_pattern(1, 64)
        kernel = STANDARD_KERNELS[name]
        cfg = FitConfig(epochs=300, learning_rate=1e-3, seed=7)
        proto = OcuModel.random_init(geom, np.random.default_rng(0))
        result = fit_kernel(proto, kernel, pattern, cfg)

        values = im2col(pattern, 3).values
        labels = conv2d_reference(pattern, kernel).ravel()
        start = OcuModel.random_init(geom, np.random.Generator(np.random.PCG64(cfg.seed)))
        start.detection_gain = _init_gain(start, values, labels)
        replay = direct_fit_history(start, values, labels, cfg)

        assert len(result.history) == len(replay) == cfg.epochs
        for (epoch, loss, mse), (want_epoch, want_loss, want_mse) in zip(result.history, replay):
            assert epoch == want_epoch
            assert loss == pytest.approx(want_loss, rel=1e-9, abs=0.0)
            assert mse == pytest.approx(want_mse, rel=1e-9, abs=0.0)


class TestEpoch:
    """The SRP epoch loop equals the loop as first written bitwise
    (helpers.reference_fit_once), and runs each traced engine call once."""

    @pytest.mark.parametrize("name, geometry, restarts, lr, epochs, final_wins", [
        ("sobel_x", {}, 1, 1e-3, 150, True),
        ("emboss", {}, 2, 1e-3, 150, True),
        ("gaussian_blur", {"num_layers": 4, "metaunits_per_layer": 20}, 2, 1e-3, 150, True),
        ("sharpen", {}, 1, 1e-1, 40, False),     # large steps: epoch 31 stays the best
    ])
    def test_fit_equals_first_written_loop_bitwise(self, name, geometry, restarts, lr,
                                                   epochs, final_wins):
        proto = OcuModel.random_init(OcuGeometry(**geometry), np.random.default_rng(0))
        kernel, pattern = STANDARD_KERNELS[name], generate_pattern(1, 24)
        cfg = FitConfig(epochs=epochs, learning_rate=lr, seed=7, restarts=restarts)
        result = fit_kernel(proto, kernel, pattern, cfg)
        model, history, train_mse, final_won = reference_fit_kernel(proto, kernel, pattern, cfg)
        assert final_won == final_wins     # which iterate wins is the case under test
        assert np.array(result.history).tobytes() == np.array(history).tobytes()
        assert result.model.phases.tobytes() == model.phases.tobytes()
        assert repr(result.model.detection_gain) == repr(model.detection_gain)
        assert repr(result.train_mse) == repr(train_mse)

    def test_epoch_runs_each_traced_engine_call_once(self, monkeypatch):
        from ocusim import optics, srp

        calls = {}

        def spy(module, name):
            real = getattr(module, name)
            calls[name] = 0

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        spy(srp, "transfer_partials")
        spy(srp, "ocu_vjp")
        spy(optics, "quadrature_rows")
        pattern = generate_pattern(1, 16)
        values = im2col(pattern, 3).values
        labels = training_labels(pattern, STANDARD_KERNELS["sharpen"])
        moments = PatchMoments.of(values, labels)
        model = OcuModel.random_init(OcuGeometry(), np.random.default_rng(3))
        srp._fit_once(model, moments, FitConfig(epochs=5))
        # one of each per epoch, and the final unscored iterate's loss
        assert calls == {"transfer_partials": 6, "ocu_vjp": 5, "quadrature_rows": 6}


class TestFit:
    @pytest.mark.parametrize("layers", [8, 40])
    def test_overflowing_detector_power_raises(self, layers):
        # the field scale squared twice passes float64 (a RuntimeWarning
        # would fail the suite)
        geom = OcuGeometry(metaunits_per_layer=8, num_inputs=4, num_layers=layers)
        model = OcuModel.random_init(geom, np.random.default_rng(1))
        with pytest.raises(TrainingDiverged, match=f"num_layers = {layers}"):
            fit_kernel(model, np.eye(2), generate_pattern(1, 8), FitConfig(epochs=2))

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
    def test_config_rejects_bad_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            FitConfig(learning_rate=lr)

    def test_zero_kernel_drives_output_down(self):
        geom = small_geometry()
        model = OcuModel.random_init(geom, np.random.default_rng(10))
        pattern = generate_pattern(3, 16)
        cfg = FitConfig(epochs=60, seed=1)
        result = fit_kernel(model, np.zeros((2, 2)), pattern, cfg)
        patches = im2col(pattern, 2).values
        _, mse = srp_loss(result.model, patches, np.zeros(patches.shape[1]))
        assert mse < 1e-4

    def test_loss_decreases_substantially(self):
        geom = OcuGeometry(metaunits_per_layer=16, num_inputs=9, num_layers=3)
        model = OcuModel.random_init(geom, np.random.default_rng(11))
        pattern = generate_pattern(4, 32)
        kernel = np.full((3, 3), 1.0 / 9.0)
        cfg = FitConfig(epochs=1500, seed=2)
        result = fit_kernel(model, kernel, pattern, cfg)
        first_loss, first_mse = result.history[0][1], result.history[0][2]
        assert result.train_mse < 0.1 * first_mse
        assert result.history[-1][1] < first_loss

    def test_history_is_deterministic(self):
        geom = small_geometry()
        pattern = generate_pattern(5, 16)
        kernel = np.array([[0.0, 1.0], [-1.0, 0.0]])
        cfg = FitConfig(epochs=30, seed=3)
        runs = []
        for _ in range(2):
            model = OcuModel.random_init(geom, np.random.default_rng(12))
            runs.append(fit_kernel(model, kernel, pattern, cfg))
        assert runs[0].history == runs[1].history
        assert np.array_equal(runs[0].model.phases, runs[1].model.phases)
        assert runs[0].model.detection_gain == runs[1].model.detection_gain

    def test_best_iterate_returned(self):
        geom = small_geometry()
        model = OcuModel.random_init(geom, np.random.default_rng(13))
        pattern = generate_pattern(6, 16)
        cfg = FitConfig(epochs=50, seed=4)
        result = fit_kernel(model, np.ones((2, 2)), pattern, cfg)
        best = min(h[1] for h in result.history)
        patches = im2col(pattern, 2).values
        labels = conv2d_reference(pattern, np.ones((2, 2))).ravel()
        loss, _ = srp_loss(result.model, patches, labels)
        # argmin over every scored iterate, plus the final unscored one
        assert loss <= best * (1 + 1e-9)

    def test_divergence_raises(self):
        geom = small_geometry()
        model = OcuModel.random_init(geom, np.random.default_rng(14))
        pattern = generate_pattern(7, 12)
        cfg = FitConfig(epochs=10, learning_rate=1e300, seed=5)
        with pytest.raises(TrainingDiverged):
            fit_kernel(model, np.ones((2, 2)), pattern, cfg)

    def test_geometry_kernel_mismatch(self):
        geom = small_geometry()  # 4 inputs
        model = OcuModel.random_init(geom, np.random.default_rng(15))
        with pytest.raises(ValueError, match="kernel needs 9"):
            fit_kernel(model, np.ones((3, 3)), generate_pattern(8, 16), FitConfig(epochs=1))
        with pytest.raises(ValueError, match="kernel needs 9"):
            evaluate_kernel_emulation(model, np.ones((3, 3)), generate_pattern(8, 16))


class TestEmulationReport:
    def test_perfect_model_reports_zero(self):
        # electrical sanity: compare the reference against itself via a
        # synthetic "model" result is not possible, so check shapes/fields
        geom = small_geometry()
        model = OcuModel.random_init(geom, np.random.default_rng(16))
        img = generate_pattern(9, 10)
        report = evaluate_kernel_emulation(model, np.ones((2, 2)), img)
        assert report.predicted.shape == (9, 9)
        assert report.reference.shape == (9, 9)
        assert report.mse >= 0.0
