import numpy as np
import pytest

from ocusim.data import add_awgn, psnr, synthetic_blobs, synthetic_corpus
from ocusim.networks import (
    DenoiseTrainConfig,
    TrainConfig,
    build_classifier,
    build_denoiser,
    calibrate_optical_layers,
    denoiser_forward,
    evaluate_classifier,
    evaluate_denoiser,
    train_classifier,
    train_denoiser,
)
from ocusim.nn import DenseLayer, OclLayer
from ocusim.optics import OcuGeometry
from ocusim.optim import TrainingDiverged


def blob_geometry(v=16):
    return OcuGeometry(metaunits_per_layer=v, num_inputs=9, num_layers=3)


class TestClassifier:
    def test_blobs_reach_99_percent_train_accuracy(self):
        train = synthetic_blobs(256, 8, seed=1)
        test = synthetic_blobs(64, 8, seed=2)
        net = build_classifier(blob_geometry(), 1, 1, 8, 2, seed=0)
        cfg = TrainConfig(epochs=50, batch_size=32, seed=0)
        result = train_classifier(net, train.images, train.labels,
                                  test.images, test.labels, 2, cfg)
        train_acc, _, _ = evaluate_classifier(net, train.images, train.labels, 2)
        assert train_acc >= 0.99
        assert result.accuracy >= 0.95

    def test_untrained_accuracy_is_chance(self):
        # fixed random network on class-balanced data scores ~1/n_classes
        rng = np.random.default_rng(3)
        images = rng.random((800, 1, 8, 8))
        labels = np.tile(np.arange(4), 200)
        net = build_classifier(blob_geometry(), 2, 1, 8, 4, seed=5)
        calibrate_optical_layers(net, images[:32])
        acc, conf, _ = evaluate_classifier(net, images, labels, 4)
        assert acc == pytest.approx(0.25, abs=0.05)
        assert conf.sum() == 800

    def test_electrical_twin_same_shapes(self):
        optical = build_classifier(blob_geometry(), 2, 1, 8, 3, seed=1, optical=True)
        electric = build_classifier(blob_geometry(), 2, 1, 8, 3, seed=1, optical=False)
        x = np.random.default_rng(4).random((5, 1, 8, 8))
        assert optical.forward(x).shape == electric.forward(x).shape == (5, 3)

    def test_dense_column_permutation_invariance(self):
        # permuting OCKs and the matching dense input blocks leaves scores alone
        geom = blob_geometry(8)
        net = build_classifier(geom, 3, 1, 8, 2, seed=7)
        x = np.random.default_rng(5).random((4, 1, 8, 8))
        calibrate_optical_layers(net, x)
        base = net.forward(x)

        ocl = net.layers[0]
        dense = next(l for l in net.layers if isinstance(l, DenseLayer))
        perm = [2, 0, 1]
        ocl.phases.value[...] = ocl.phases.value[perm]
        ocl.log_gain.value[...] = ocl.log_gain.value[perm]
        ocl.port_sign[...] = ocl.port_sign[perm]
        block = dense.weight.value.shape[0] // 3
        w = dense.weight.value.reshape(3, block, -1)
        dense.weight.value[...] = w[perm].reshape(dense.weight.value.shape)
        permuted = net.forward(x)
        assert np.allclose(permuted, base, rtol=1e-10, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_reported(self):
        train = synthetic_blobs(64, 8, seed=8)
        net = build_classifier(blob_geometry(), 1, 1, 8, 2, seed=2)
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=1e308, seed=0)
        with pytest.raises(TrainingDiverged):
            train_classifier(net, train.images, train.labels,
                             train.images, train.labels, 2, cfg)


class TestDenoiser:
    def _small_net(self, optical=True, seed=0):
        geom = OcuGeometry(metaunits_per_layer=8, num_inputs=9, num_layers=3)
        return build_denoiser(geom, input_kernels=2, middle_kernels=2,
                              seed=seed, optical=optical)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_reported(self):
        cfg = DenoiseTrainConfig(epochs=3, batch_size=8, learning_rate=1e308, seed=0,
                                 patch=12, crops_per_image=8)
        with pytest.raises(TrainingDiverged):
            train_denoiser(self._small_net(), synthetic_corpus(2, 16, 3), 20.0, cfg)

    def test_residual_identity_with_silent_output(self):
        net = self._small_net()
        noisy = np.random.default_rng(0).random((2, 1, 12, 12))
        calibrate_optical_layers(net, noisy)
        net.layers[-1].log_gain.value[...] = -1000.0  # kappa underflows to 0
        residual, clean = denoiser_forward(net, noisy)
        assert np.all(residual == 0.0)
        assert np.array_equal(clean, noisy)

    def test_output_is_input_sized(self):
        net = self._small_net()
        noisy = np.random.default_rng(1).random((3, 1, 17, 17))
        calibrate_optical_layers(net, noisy)
        residual, clean = denoiser_forward(net, noisy)
        assert residual.shape == (3, 1, 17, 17)
        assert clean.shape == (3, 1, 17, 17)

    def test_training_reduces_loss(self):
        imgs = synthetic_corpus(6, 48, seed=11)
        net = self._small_net(seed=3)
        cfg = DenoiseTrainConfig(epochs=4, batch_size=8, learning_rate=3e-3,
                                 seed=1, patch=16, crops_per_image=16)
        result = train_denoiser(net, imgs, 20.0, cfg)
        assert result.history[-1][1] < result.history[0][1]

    def test_sigma_zero_keeps_image(self):
        # with no noise the residual target is identically zero
        imgs = synthetic_corpus(4, 32, seed=12)
        net = self._small_net(seed=4)
        cfg = DenoiseTrainConfig(epochs=3, batch_size=8, learning_rate=3e-3,
                                 seed=2, patch=16, crops_per_image=8)
        train_denoiser(net, imgs, 0.0, cfg)
        test_img = synthetic_corpus(1, 64, seed=13)[0]
        sample = add_awgn(test_img, 0.0, 5)
        _, clean = denoiser_forward(net, sample.noisy[None, None])
        before = psnr(sample.noisy, test_img)
        assert before == np.inf
        # the clean estimate may differ from the input only marginally
        assert psnr(np.clip(clean[0, 0], 0, 1), test_img) > 40.0

    def test_evaluate_reports_rows(self):
        net = self._small_net(seed=6)
        imgs = synthetic_corpus(3, 40, seed=14)
        calibrate_optical_layers(net, imgs[:2][:, None])
        rows, noisy_mean, denoised_mean = evaluate_denoiser(net, imgs, 15.0, seed=6)
        assert len(rows) == 3
        assert noisy_mean == pytest.approx(np.mean([r[0] for r in rows]))

    def test_rejects_even_kernel(self):
        geom = OcuGeometry(metaunits_per_layer=8, num_inputs=4, num_layers=3)
        with pytest.raises(ValueError):
            build_denoiser(geom, 2, 2)


class TestOclForwardComposition:
    def test_channel_sum_matches_manual(self):
        # FM_m = sum_n detect(ocu(patches_n)) is what the layer computes
        geom = blob_geometry(8)
        rng = np.random.default_rng(15)
        layer = OclLayer(geom, 2, 3, rng)
        x = rng.random((1, 3, 6, 6))
        out = layer.forward(x)
        total = np.zeros_like(out)
        for n in range(3):
            solo = OclLayer(geom, 2, 1, np.random.default_rng(0))
            solo.phases.value[:, 0] = layer.phases.value[:, n]
            solo.log_gain.value[:, 0] = layer.log_gain.value[:, n]
            solo.port_sign[:, 0] = layer.port_sign[:, n]
            total += solo.forward(x[:, n:n + 1])
        assert np.allclose(out, total, rtol=1e-10, atol=1e-12)
