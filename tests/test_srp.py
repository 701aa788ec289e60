import numpy as np
import pytest

from ocusim.optics import OcuGeometry, OcuModel, balanced_detect, ocu_forward
from ocusim.srp import (
    FitConfig,
    TrainingDiverged,
    TrainingPair,
    conv2d_reference,
    evaluate_kernel_emulation,
    fit_kernel,
    generate_pattern,
    phase_gradients,
    srp_loss,
    write_history_csv,
)
from ocusim.tensorize import im2col

from helpers import assert_grad_close, numeric_grad


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

    def test_flip_toggle(self):
        rng = np.random.default_rng(1)
        img = rng.random((5, 5))
        kernel = rng.normal(size=(3, 3))
        assert np.array_equal(conv2d_reference(img, kernel, flip=True),
                              conv2d_reference(img, kernel[::-1, ::-1]))

    def test_rejects_oversized_kernel(self):
        with pytest.raises(ValueError):
            conv2d_reference(np.zeros((2, 2)), np.ones((3, 3)))

    def test_training_pair_labels(self):
        pattern = generate_pattern(2, 16)
        kernel = np.arange(9.0).reshape(3, 3)
        pair = TrainingPair.make(pattern, kernel)
        assert pair.labels.shape == (14 * 14,)
        assert np.array_equal(pair.labels,
                              conv2d_reference(pattern, kernel).ravel())


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
        y = balanced_detect(ocu_forward(model, patches), model.detection_gain)
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


class TestFit:
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
        with pytest.raises(ValueError):
            fit_kernel(model, np.ones((3, 3)), generate_pattern(8, 16), FitConfig(epochs=1))

    def test_history_csv(self, tmp_path):
        history = [(0, 1.5, 0.25), (1, 1.0, 0.125)]
        path = tmp_path / "h.csv"
        with open(path, "w") as f:
            write_history_csv(history, f)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,mse"
        assert lines[1] == "0,1.5,0.25"


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
