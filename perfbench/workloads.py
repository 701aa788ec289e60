"""The benchmark workloads, each a closed loop through ocusim's public API.

A workload runs whole rounds.  A round is one training call (its set-up,
then every optimizer step, each started after the previous one finished),
then forward-only evaluation, then quality checks on held-out inputs.  The
workload seed makes the training inputs of srp_fit and classify_blobs28,
whose held-out inputs are fixed, and the test images of denoise_desk,
whose training is fixed.  METRICS.md says why each
workload exists and which metrics it should move.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from ocusim import data, kernels, networks, nn, optics, perf, srp, tensorize

from layers import conv_shapes, ocl_shapes
from tracing import SetupDone

GEOMETRY = optics.OcuGeometry()     # the acceptance unit: V = 50, M = 3, 9 inputs
INFER_REPS = 100                    # forward passes per srp_fit evaluation


def digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def net_digest(net) -> str:
    """Digest of every parameter and every piece of trained layer state."""
    arrays = [p.value for p in net.params()]
    for layer in net.layers:
        if isinstance(layer, nn.OclLayer):
            arrays.append(layer.port_sign)
        elif isinstance(layer, nn.BatchNormLayer):
            arrays += [layer.running_mean, layer.running_var]
    return digest_arrays(arrays)


@dataclass
class Round:
    key: str                 # rounds with equal keys train on equal inputs
    setup_s: float
    steps_s: np.ndarray      # duration of every optimizer step
    samples: int             # training samples the steps processed
    infer_mpix_per_s: float
    quality: dict
    checks: dict
    digest: str


class Workload:
    name = ""
    loop = ""                # training loop the steps run in: "srp" or "networks"
    sample_unit = ""
    steps_per_round = 0
    samples_per_round = 0

    def key(self, r: int) -> str:
        return "epoch"

    def train(self, r: int):
        """Set up and run one training call; return the trained model."""
        raise NotImplementedError

    def digest(self, model) -> str:
        raise NotImplementedError

    def evaluate(self, model, r: int) -> tuple[float, dict, dict]:
        """(input Mpix/s of forward-only evaluation, quality, checks)."""
        raise NotImplementedError

    def shapes(self, model) -> dict:
        """Computed counts and simulated hardware statistics at this workload's shapes."""
        raise NotImplementedError

    def probe_inputs(self, model):
        """(network, training batch, evaluation batch) for the layer probe, or None."""
        return None


def _simulated(conv, pixels) -> dict:
    out = {}
    for q, c in conv:
        spec = perf.PerfSpec(kernel_size=3, channels=c, kernels=q, pixels=float(pixels))
        out[f"{q}x{c}"] = {name: [value, unit] for name, value, unit in perf.report_rows(spec)}
    return out


class SrpFit(Workload):
    """Kernel fits at the acceptance setup, kernels in KERNEL_SUITE order."""

    name = "srp_fit"
    loop = "srp"
    sample_unit = "patch columns"
    FIT_SEED = 7            # phase initialisation of the acceptance fits
    HOLDOUT_SEED = 5        # the acceptance hold-out image

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.epochs = 800 if tiny else 4000
        self.size = 24 if tiny else 128
        self.holdout = data.synthetic_contrast_image(64 if tiny else 256, self.HOLDOUT_SEED)
        self.steps_per_round = self.epochs
        self.samples_per_round = self.epochs * (self.size - 2) ** 2

    def key(self, r):
        return kernels.KERNEL_SUITE[r % len(kernels.KERNEL_SUITE)]

    def train(self, r):
        pattern = srp.generate_pattern(self.seed, self.size)
        proto = optics.OcuModel.random_init(
            GEOMETRY, np.random.Generator(np.random.PCG64(self.FIT_SEED)))
        cfg = srp.FitConfig(epochs=self.epochs, learning_rate=1e-3, seed=self.FIT_SEED)
        return srp.fit_kernel(proto, kernels.STANDARD_KERNELS[self.key(r)], pattern, cfg).model

    def digest(self, model):
        return digest_arrays([model.phases, np.array(model.detection_gain)])

    def evaluate(self, model, r):
        times = []
        for _ in range(INFER_REPS):
            t0 = time.perf_counter()
            cols = tensorize.im2col(self.holdout, 3).values
            y = optics.balanced_detect(optics.ocu_forward(model, cols), model.detection_gain)
            times.append(time.perf_counter() - t0)
        report = srp.evaluate_kernel_emulation(
            model, kernels.STANDARD_KERNELS[self.key(r)], self.holdout)
        baseline = float(np.var(report.reference))   # MSE of the constant predictor
        quality = {"holdout_mse": report.mse, "pearson": report.pearson}
        checks = {
            "holdout_finite": math.isfinite(report.mse),
            "beats_constant_predictor": report.mse < baseline,
            "forward_matches_evaluation": bool(np.array_equal(y, report.predicted.ravel())),
        }
        return self.holdout.size / float(np.median(times)) / 1e6, quality, checks

    def shapes(self, model):
        return {"computed": [], "simulated": _simulated([(1, 1)], self.holdout.size)}


class DenoiseDesk(Workload):
    """The acceptance desk denoiser: one epoch, then evaluation at 256 x 256."""

    name = "denoise_desk"
    loop = "networks"
    sample_unit = "40x40 crops"
    NET_SEED = 5
    CORPUS_SEED = 21        # the acceptance corpus
    TRAIN_SEED = 3          # the acceptance crops, noise and batch order
    SIGMA = 20.0
    EVAL_SEED = 77
    BATCH = 16

    def __init__(self, seed: int, tiny: bool):
        # Training is the acceptance epoch for every seed: after one epoch
        # the PSNR gain of seed-drawn training sets ranged 0.3-4 dB, too
        # close to the check.  The seed draws the test images instead.
        self.count, self.size, self.crops, self.patch = (4, 48, 32, 16) if tiny else (40, 180, 48, 40)
        eval_size, n_eval = (32, 1) if tiny else (256, 4)
        self.test = [data.synthetic_image(eval_size, 9000 + n_eval * seed + i)
                     for i in range(n_eval)]
        self.samples_per_round = self.count * self.crops
        self.steps_per_round = math.ceil(self.samples_per_round / self.BATCH)

    def train(self, r):
        self.corpus = data.synthetic_corpus(self.count, self.size, seed=self.CORPUS_SEED)
        net = networks.build_denoiser(GEOMETRY, 8, 8, 1, seed=self.NET_SEED)
        cfg = networks.DenoiseTrainConfig(
            epochs=1, batch_size=self.BATCH, learning_rate=1e-2, seed=self.TRAIN_SEED,
            patch=self.patch, crops_per_image=self.crops)
        networks.train_denoiser(net, self.corpus, self.SIGMA, cfg)
        return net

    def digest(self, net):
        return net_digest(net)

    def evaluate(self, net, r):
        rows, rates = [], []
        for i, img in enumerate(self.test):
            t0 = time.perf_counter()
            (row,), _, _ = networks.evaluate_denoiser(net, [img], self.SIGMA,
                                                      seed=self.EVAL_SEED + i)
            rates.append(img.size / (time.perf_counter() - t0) / 1e6)
            rows.append(row)
        noisy = float(np.mean([n for n, _ in rows]))
        denoised = float(np.mean([d for _, d in rows]))
        quality = {"psnr_gain_db": denoised - noisy, "psnr_denoised_db": denoised}
        checks = {
            "psnr_finite": all(math.isfinite(v) for row in rows for v in row),
            "psnr_gain_positive": denoised - noisy > 0.0,
        }
        return float(np.median(rates)), quality, checks

    def shapes(self, net):
        train_shape = (self.BATCH, 1, self.patch, self.patch)
        eval_shape = (1, 1) + self.test[0].shape
        return {"computed": ocl_shapes(net, train_shape, eval_shape),
                "simulated": _simulated(conv_shapes(net), self.test[0].size)}

    def probe_inputs(self, net):
        per_image = math.ceil(self.BATCH / self.count)
        crops = data.crop_patches(self.corpus, self.patch, per_image, 0)[:self.BATCH, None]
        train_x = data.add_awgn(crops, self.SIGMA, 0).noisy
        eval_x = data.add_awgn(self.test[0], self.SIGMA, 0).noisy[None, None]
        return net, train_x, eval_x


class ClassifyBlobs28(Workload):
    """One classifier epoch on 28 x 28 synthetic blobs, then evaluation."""

    name = "classify_blobs28"
    loop = "networks"
    sample_unit = "images"
    NET_SEED = 0
    TEST_SEED = 2 ** 32     # outside the 32-bit range of workload seeds
    BATCH = 32
    CLASSES = 2

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.n_train, n_test = (256, 128) if tiny else (3200, 1024)
        self.test = data.synthetic_blobs(n_test, 28, seed=self.TEST_SEED)
        self.samples_per_round = self.n_train
        self.steps_per_round = math.ceil(self.n_train / self.BATCH)

    def train(self, r):
        self.train_set = data.synthetic_blobs(self.n_train, 28, seed=self.seed)
        net = networks.build_classifier(GEOMETRY, 4, 1, 28, self.CLASSES, seed=self.NET_SEED)
        cfg = networks.TrainConfig(epochs=1, batch_size=self.BATCH, learning_rate=1e-3,
                                   seed=self.seed)
        # train_classifier scores the test set it is given after its last step;
        # evaluation is timed separately, so one image keeps that work small
        networks.train_classifier(net, self.train_set.images, self.train_set.labels,
                                  self.test.images[:1], self.test.labels[:1], self.CLASSES, cfg)
        return net

    def digest(self, net):
        return net_digest(net)

    def evaluate(self, net, r):
        t0 = time.perf_counter()
        acc, _, _ = networks.evaluate_classifier(net, self.test.images, self.test.labels,
                                                 self.CLASSES)
        elapsed = time.perf_counter() - t0
        quality = {"accuracy": acc}
        checks = {"accuracy_above_chance": acc > 1.0 / self.CLASSES}
        return self.test.images.size / elapsed / 1e6, quality, checks

    def shapes(self, net):
        train_shape = (self.BATCH,) + self.test.images.shape[1:]
        eval_shape = (256,) + self.test.images.shape[1:]
        return {"computed": ocl_shapes(net, train_shape, eval_shape),
                "simulated": _simulated(conv_shapes(net), self.test.images[0].size)}

    def probe_inputs(self, net):
        return net, self.train_set.images[:self.BATCH], self.test.images[:256]


WORKLOADS = {w.name: w for w in (SrpFit, DenoiseDesk, ClassifyBlobs28)}


def run_round(workload: Workload, probe, r: int) -> tuple[Round, object]:
    """One round; returns it with the trained model."""
    calls = len(probe.marks)
    t0 = time.perf_counter()
    model = workload.train(r)
    if len(probe.marks) != calls + 1:
        raise RuntimeError("a training call must build exactly one optimizer")
    marks = probe.marks[-1]
    digest = workload.digest(model)
    infer, quality, checks = workload.evaluate(model, r)
    return Round(workload.key(r), marks[0] - t0, np.diff(marks), workload.samples_per_round,
                 infer, quality, checks, digest), model


def time_setup(workload: Workload, probe) -> float:
    """Seconds from the start of round 0 to its first optimizer step, training skipped."""
    probe.setup_only = True
    t0 = time.perf_counter()
    try:
        workload.train(0)
    except SetupDone:
        return probe.marks[-1][0] - t0
    finally:
        probe.setup_only = False
    raise RuntimeError("training call returned without building an optimizer")
