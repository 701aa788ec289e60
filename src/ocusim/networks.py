"""Classifier and denoiser assembly plus their training loops.

Both tasks come in an optical flavor (OclLayer convolutions trained through
the diffraction model) and an electrical twin (Conv2dLayer) built from the
same layer code path, so like-for-like parity comparisons are one flag away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import accuracy as _accuracy
from .data import add_awgn, confusion as _confusion, crop_patches, psnr
from .nn import (
    BatchNormLayer,
    Conv2dLayer,
    FlattenLayer,
    OclLayer,
    Pool2dLayer,
    ReluLayer,
    Sequential,
    dense_head,
    mse_loss,
    softmax_cross_entropy,
)
from .optics import OcuGeometry
from .optim import Adam, TrainingDiverged
from .tensorize import feature_dim


def _seeded(seed, *tags) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *tags))))


def _train_epochs(net: Sequential, n: int, cfg, order_rng, batch, loss_fn):
    """Adam over shuffled minibatches of ``n`` samples; yields (epoch, mean loss).

    ``batch(idx)`` returns the (input, target) of samples ``idx`` and
    ``loss_fn(prediction, target)`` the loss and its gradient.  Callers wrap
    the module's loss function in a lambda, so that its name is looked up on
    every call and instrumentation that patches it at run time sees each
    one.  The optimizer is built on the first ``next``, after the caller's
    set-up.
    """
    opt = Adam(net.params(), lr=cfg.learning_rate)
    for epoch in range(cfg.epochs):
        perm = order_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            x, target = batch(idx)
            pred = net.forward(x, training=True)
            if not np.all(np.isfinite(pred)):
                raise TrainingDiverged(f"network output non-finite at epoch {epoch}")
            loss, dpred = loss_fn(pred, target)
            if not math.isfinite(loss):
                raise TrainingDiverged(f"training loss non-finite at epoch {epoch}")
            loss_sum += loss * len(idx)
            opt.zero_grad()
            net.backward(dpred)
            opt.step()
        yield epoch, loss_sum / n


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    eval_every: int = 0          # 0 = evaluate only after the last epoch

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def build_classifier(
    geometry: OcuGeometry,
    kernels: int,
    channels: int,
    image_size: int,
    n_classes: int,
    seed: int = 0,
    optical: bool = True,
    hidden: tuple[int, ...] = (128, 64),
    pool_mode: str = "mean",
) -> Sequential:
    """One convolution layer (q kernels), 2x2 pooling, and a 3-affine head."""
    rng = _seeded(seed, 0)
    h = int(round(math.sqrt(geometry.num_inputs)))
    if optical:
        conv = OclLayer(geometry, kernels, channels, rng)
    else:
        conv = Conv2dLayer(kernels, channels, h, rng)
    g = feature_dim(image_size, h)
    gp = feature_dim(g, 2, 2)
    head = dense_head(kernels * gp * gp, hidden, n_classes, rng)
    return Sequential([conv, Pool2dLayer(2, 2, pool_mode), FlattenLayer(), *head])


def calibrate_optical_layers(net: Sequential, x: np.ndarray) -> None:
    """Run one batch through the stack, setting each OclLayer's gains.

    Intermediate layers run in training mode so batch-normalized inputs are
    seen at their training-time scale; the single running-stat refresh this
    causes is deterministic.
    """
    for layer in net.layers:
        if isinstance(layer, OclLayer):
            layer.calibrate_gains(x)
        x = layer.forward(x, training=True)


@dataclass
class ClassifierResult:
    net: Sequential
    history: list[tuple[int, float, float]]   # (epoch, mean train loss, test acc)
    accuracy: float
    confusion: np.ndarray


def predict_classes(net: Sequential, images: np.ndarray, batch: int = 256) -> np.ndarray:
    preds = []
    for start in range(0, len(images), batch):
        scores = net.forward(images[start:start + batch], training=False)
        preds.append(np.argmax(scores, axis=1))
    return np.concatenate(preds)


def evaluate_classifier(net: Sequential, images, labels, n_classes: int,
                        batch: int = 256):
    preds = predict_classes(net, images, batch)
    return _accuracy(preds, labels), _confusion(preds, labels, n_classes), preds


def train_classifier(
    net: Sequential,
    train_images: np.ndarray,
    train_labels: np.ndarray,
    test_images: np.ndarray,
    test_labels: np.ndarray,
    n_classes: int,
    cfg: TrainConfig,
) -> ClassifierResult:
    """End-to-end gradient training of all phases, gains, and dense weights."""
    n = len(train_images)
    calibrate_optical_layers(net, train_images[:min(cfg.batch_size, n)])

    history: list[tuple[int, float, float]] = []
    for epoch, loss in _train_epochs(
            net, n, cfg, _seeded(cfg.seed, 1),
            lambda idx: (train_images[idx], train_labels[idx]),
            lambda scores, labels: softmax_cross_entropy(scores, labels)):
        test_acc = math.nan
        if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
            test_acc, _, _ = evaluate_classifier(net, test_images, test_labels, n_classes)
        history.append((epoch, loss, test_acc))

    acc, conf, _ = evaluate_classifier(net, test_images, test_labels, n_classes)
    return ClassifierResult(net, history, acc, conf)


# ---------------------------------------------------------------------------
# denoising (residual learning)
# ---------------------------------------------------------------------------

def build_denoiser(
    geometry: OcuGeometry,
    input_kernels: int = 8,
    middle_kernels: int = 8,
    in_channels: int = 1,
    middle_layers: int = 1,
    seed: int = 0,
    optical: bool = True,
) -> Sequential:
    """Residual denoiser: input OCL+ReLU, middle OCL+BN+ReLU blocks, and a
    single-kernel output OCL.  Every convolution reflects-pads by one pixel
    so the predicted residual matches the image size."""
    rng = _seeded(seed, 0)
    h = int(round(math.sqrt(geometry.num_inputs)))
    if h % 2 == 0:
        raise ValueError("denoiser needs an odd kernel size to preserve image size")
    pad = (h - 1) // 2

    def conv(q, c):
        if optical:
            return OclLayer(geometry, q, c, rng, pad=pad)
        return Conv2dLayer(q, c, h, rng, pad=pad)

    layers: list = [conv(input_kernels, in_channels), ReluLayer()]
    prev = input_kernels
    for _ in range(middle_layers):
        layers += [conv(middle_kernels, prev), BatchNormLayer(middle_kernels), ReluLayer()]
        prev = middle_kernels
    layers.append(conv(1, prev))
    return Sequential(layers)


def denoiser_forward(net: Sequential, noisy: np.ndarray):
    """Predict the noise residual and subtract it: clean = noisy - residual."""
    if noisy.ndim != 4:
        raise ValueError("denoiser input must be (B, C, N, N)")
    residual = net.forward(noisy, training=False)
    if residual.shape != noisy.shape[:1] + (1,) + noisy.shape[2:]:
        raise ValueError(f"residual shape {residual.shape} does not match input")
    return residual, noisy[:, :1] - residual


@dataclass
class DenoiseTrainConfig:
    epochs: int = 12
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0
    patch: int = 40
    crops_per_image: int = 64

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class DenoiserResult:
    net: Sequential
    history: list[tuple[int, float]]


def _match_output_scale(net: Sequential, x: np.ndarray, target: np.ndarray) -> None:
    """Scale the output layer so first predictions match the target power
    (the denoiser analogue of gain-to-label-power initialization)."""
    pred = net.forward(x, training=True)
    p_rms = float(np.sqrt(np.mean(pred * pred)))
    t_rms = float(np.sqrt(np.mean(target * target)))
    if p_rms == 0.0:
        return
    ratio = (t_rms if t_rms > 0.0 else 1e-8) / p_rms
    last = net.layers[-1]
    if isinstance(last, OclLayer):
        last.log_gain.value += math.log(ratio)
    elif isinstance(last, Conv2dLayer):
        last.weight.value *= ratio
        last.bias.value *= ratio


def train_denoiser(
    net: Sequential,
    train_images,
    sigma: float,
    cfg: DenoiseTrainConfig,
) -> DenoiserResult:
    """Residual learning against the injected noise at a known sigma.

    Noise is redrawn every batch from a seeded stream; the target is the
    effective (clipped) noise, so the network regresses exactly what must
    be subtracted from its input.
    """
    patches = crop_patches(train_images, cfg.patch, cfg.crops_per_image,
                           _seeded(cfg.seed, 10))[:, None]
    noise_rng = _seeded(cfg.seed, 11)
    n = len(patches)

    first = add_awgn(patches[:min(cfg.batch_size, n)], sigma, noise_rng)
    calibrate_optical_layers(net, first.noisy)
    _match_output_scale(net, first.noisy, first.noise)

    def batch(idx):
        sample = add_awgn(patches[idx], sigma, noise_rng)
        return sample.noisy, sample.noise

    history = list(_train_epochs(net, n, cfg, _seeded(cfg.seed, 12), batch,
                                 lambda pred, noise: mse_loss(pred, noise)))
    return DenoiserResult(net, history)


def _denoised_images(net: Sequential, clean_images, sigma: float, seed: int):
    """Yield (clean, noisy, clipped estimate) per image; noise from the (seed, 13) stream."""
    rng = _seeded(seed, 13)
    for img in clean_images:
        img = np.asarray(img, dtype=float)
        sample = add_awgn(img, sigma, rng)
        _, estimate = denoiser_forward(net, sample.noisy[None, None])
        yield img, sample.noisy, np.clip(estimate[0, 0], 0.0, 1.0)


def _psnr_table(denoised):
    rows = [(psnr(noisy, img), psnr(estimate, img)) for img, noisy, estimate in denoised]
    noisy_mean = float(np.mean([r[0] for r in rows]))
    denoised_mean = float(np.mean([r[1] for r in rows]))
    return rows, noisy_mean, denoised_mean


def evaluate_denoiser(net: Sequential, clean_images, sigma: float, seed: int = 0):
    """Per-image noisy and denoised PSNR on held-out clean images.

    Returns (rows, mean_noisy, mean_denoised) with one
    (psnr_noisy, psnr_denoised) row per image.
    """
    return _psnr_table(_denoised_images(net, clean_images, sigma, seed))
