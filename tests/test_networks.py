import platform
import subprocess
import sys

import numpy as np
import pytest

from ocusim.data import add_awgn, psnr, synthetic_blobs, synthetic_corpus, synthetic_image
from ocusim.networks import (
    DenoiseTrainConfig,
    TrainConfig,
    build_classifier,
    build_denoiser,
    calibrate_optical_layers,
    denoiser_forward,
    evaluate_classifier,
    evaluate_denoiser,
    predict_classes,
    train_classifier,
    train_denoiser,
)
from ocusim.nn import BatchNormLayer, DenseLayer, OclLayer
from ocusim.optics import OcuGeometry
from ocusim.optim import TrainingDiverged

from helpers import train_denoiser_materialized


def blob_geometry(v=16):
    return OcuGeometry(metaunits_per_layer=v, num_inputs=9, num_layers=3)


class TestConfigValidation:
    @pytest.mark.parametrize("config", [TrainConfig, DenoiseTrainConfig])
    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
    def test_rejects_bad_learning_rate(self, config, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            config(learning_rate=lr)

    def test_rejects_negative_eval_every(self):
        with pytest.raises(ValueError, match="eval_every"):
            TrainConfig(eval_every=-3)


class TestClassifier:
    def test_rejects_empty_image_set(self):
        net = build_classifier(blob_geometry(), 1, 1, 8, 2, seed=0)
        empty = np.zeros((0, 1, 8, 8))
        with pytest.raises(ValueError, match="no images"):
            predict_classes(net, empty)
        with pytest.raises(ValueError, match="no images"):
            evaluate_classifier(net, empty, np.zeros(0, dtype=int), 2)

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

    def test_last_periodic_evaluation_is_the_result(self, monkeypatch):
        # eval_every dividing epochs scores the test set once per period, not once more
        from ocusim import networks
        train = synthetic_blobs(32, 8, seed=1)
        test = synthetic_blobs(16, 8, seed=2)
        calls = []
        evaluate = networks.evaluate_classifier
        monkeypatch.setattr(networks, "evaluate_classifier",
                            lambda *a, **k: calls.append(1) or evaluate(*a, **k))
        results = []
        for eval_every in (2, 0):
            calls.clear()
            net = build_classifier(blob_geometry(8), 1, 1, 8, 2, seed=0, hidden=(4,))
            cfg = TrainConfig(epochs=4, batch_size=16, seed=0, eval_every=eval_every)
            results.append(train_classifier(net, train.images, train.labels,
                                            test.images, test.labels, 2, cfg))
            assert len(calls) == (2 if eval_every else 1)
        periodic, final_only = results
        assert periodic.history[-1][2] == periodic.accuracy == final_only.accuracy
        assert np.array_equal(periodic.confusion, final_only.confusion)

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

    @pytest.mark.parametrize("images, batch_size, crops_per_image", [
        (synthetic_corpus(3, 24, seed=15), 5, 4),
        # unequal sizes; the calibration batch spans three images
        ([synthetic_image(24, 16), synthetic_image(30, 17)[:, 2:],
          synthetic_image(20, 18), synthetic_image(26, 19)], 7, 3),
    ])
    def test_training_equals_the_materialized_crops(self, images, batch_size,
                                                    crops_per_image):
        # drawn corners gathered per batch must train exactly as the crops
        # built up front did
        cfg = DenoiseTrainConfig(epochs=2, batch_size=batch_size, learning_rate=3e-3,
                                 seed=4, patch=12, crops_per_image=crops_per_image)
        ours, theirs = self._small_net(seed=7), self._small_net(seed=7)
        history = train_denoiser(ours, images, 20.0, cfg).history
        assert history == train_denoiser_materialized(theirs, images, 20.0, cfg)

        def state(net):
            arrays = [p.value for p in net.params()]
            for layer in net.layers:
                if isinstance(layer, OclLayer):
                    arrays.append(layer.port_sign)
                elif isinstance(layer, BatchNormLayer):
                    arrays += [layer.running_mean, layer.running_var]
            return [a.tobytes() for a in arrays]

        assert state(ours) == state(theirs)

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


class TestPrecision:
    """The entry points cast the network input to float32; a network called
    directly with float64 input runs the float64 reference path."""

    def test_entry_points_run_float32(self):
        geom = OcuGeometry(metaunits_per_layer=8, num_inputs=9, num_layers=3)
        x = np.random.default_rng(20).random((3, 1, 12, 12))
        denoiser = build_denoiser(geom, 2, 2, seed=1)
        calibrate_optical_layers(denoiser, x)
        residual, clean = denoiser_forward(denoiser, x)
        assert residual.dtype == np.float32 and clean.dtype == np.float64
        assert denoiser.forward(x).dtype == np.float64
        bn = denoiser.layers[3]
        assert bn.running_mean.dtype == bn.running_var.dtype == np.float64
        classifier = build_classifier(geom, 2, 1, 12, 3, seed=1, hidden=(4,))
        calibrate_optical_layers(classifier, x)
        scores = classifier.forward(x.astype(np.float32))
        assert classifier.layers[0].forward(x.astype(np.float32)).dtype == np.float32
        assert np.array_equal(predict_classes(classifier, x), np.argmax(scores, axis=1))

    @pytest.mark.parametrize("dtype, layer, kind", [
        (np.float64, 5, "float64"), (np.float32, 0, "float32")])
    def test_uncalibrated_output_overflow_names_the_layer(self, dtype, layer, kind):
        # at gain 1 the detected output keeps the physical field scale: float32
        # cannot hold the first layer's scaled gain weights, float64 overflows
        # when the last layer squares its fields
        net = build_denoiser(OcuGeometry(metaunits_per_layer=8), 2, 2)
        x = np.random.default_rng(21).random((1, 1, 24, 24)).astype(dtype)
        with pytest.raises(TrainingDiverged,
                           match=rf"layer {layer} \(OclLayer\).*overflows {kind}.*calibrated"):
            net.forward(x)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc only")
def test_training_steps_reuse_freed_memory():
    # a step's temporaries together exceed twice the largest of them, so under
    # glibc's dynamic thresholds the heap top freed by one step is returned and
    # the next step faults all 4096 pages in again
    script = """
import resource
import numpy as np
from ocusim.networks import _keep_freed_memory
_keep_freed_memory()
def step():
    blocks = [np.ones(1 << 18) for _ in range(8)]   # eight 2 MB temporaries
    del blocks
step(); step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, timeout=120)
    assert int(done.stdout) < 100


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
