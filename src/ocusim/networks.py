"""Classifier and denoiser assembly plus their training loops.

Both tasks come in an optical flavor (OclLayer convolutions trained through
the diffraction model) and an electrical twin (Conv2dLayer) built from the
same layer code path, so like-for-like parity comparisons are one flag away.

The functions here cast a network's input to float32 (_WORK_DTYPE), so the
column work of every convolution runs in float32; parameters, Adam, the
batch-norm statistics and calibration's unit outputs stay float64.  A layer
or a network called directly with float64 input runs the float64 reference
path.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import accuracy as _accuracy
from .data import add_awgn, confusion as _confusion, crop_patches, draw_crops, psnr
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
from .optim import Adam, TrainingDiverged, check_positive
from .tensorize import feature_dim


_WORK_DTYPE = np.float32


def _work(x) -> np.ndarray:
    """A network input in the dtype of the column work."""
    return np.asarray(x).astype(_WORK_DTYPE, copy=False)


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc malloc keep freed memory for reuse, so that a training
    step's temporaries come from the heap, not from pages the kernel must
    fault in again on every step.

    Left to itself, glibc serves every block larger than a dynamic
    threshold from its own mapping and returns the heap's free top once it
    exceeds twice that threshold; the threshold grows to the largest such
    block freed so far.  Whether steps fault then depends on what earlier
    code happened to free.  This fixes the two at the values that rule
    reaches at most, 32 MB and 64 MB.  Elsewhere than glibc it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)       # M_TRIM_THRESHOLD


def _seeded(seed, *tags) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *tags))))


def _recorded(layers, kind: str, geometry: OcuGeometry, **topology) -> Sequential:
    """The stack of ``layers``, recording the kind, geometry and topology
    (the builder's arguments) that save_network writes and rebuilds it from."""
    net = Sequential(layers)
    net.kind, net.geometry, net.topology = kind, geometry, topology
    return net


def _train_epochs(net: Sequential, n: int, cfg, order_rng, batch, loss_fn):
    """Adam over shuffled minibatches of ``n`` samples; yields (epoch, mean loss).

    ``batch(idx)`` returns the (input, target) of samples ``idx`` and
    ``loss_fn(prediction, target)`` the loss and its gradient.  Callers wrap
    the module's loss function in a lambda, so that its name is looked up on
    every call and instrumentation that patches it at run time sees each
    one.  The optimizer is built on the first ``next``, after the caller's
    set-up, and after _keep_freed_memory.
    """
    _keep_freed_memory()
    opt = Adam(net.params(), lr=cfg.learning_rate)
    for epoch in range(cfg.epochs):
        perm = order_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            x, target = batch(idx)
            pred = net.forward(_work(x), training=True)
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
        check_positive("learning_rate", self.learning_rate)
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")


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
) -> Sequential:
    """One convolution layer (q kernels), a 2x2 mean pool, and a 3-affine head."""
    rng = _seeded(seed, 0)
    h = int(round(math.sqrt(geometry.num_inputs)))
    if optical:
        conv = OclLayer(geometry, kernels, channels, rng)
    else:
        conv = Conv2dLayer(kernels, channels, h, rng)
    g = feature_dim(image_size, h)
    gp = feature_dim(g, 2, 2)
    head = dense_head(kernels * gp * gp, hidden, n_classes, rng)
    return _recorded([conv, Pool2dLayer(), FlattenLayer(), *head], "classifier",
                     geometry, kernels=kernels, channels=channels, image_size=image_size,
                     n_classes=n_classes, seed=seed, optical=optical, hidden=tuple(hidden))


def calibrate_optical_layers(net: Sequential, x: np.ndarray) -> np.ndarray:
    """Run one batch through the stack, setting each OclLayer's gains, and
    return the stack's output.

    Intermediate layers run in training mode so batch-normalized inputs are
    seen at their training-time scale; the single running-stat refresh this
    causes is deterministic.  Batch norm in training mode uses the batch's
    statistics, so the output is the calibrated network's training-mode
    forward of ``x``.  A layer whose calibration fails is named in the error.
    """
    x = _work(x)
    for i, layer in enumerate(net.layers):
        if isinstance(layer, OclLayer):
            try:
                layer.calibrate_gains(x)
            except (TrainingDiverged, ValueError) as exc:
                raise type(exc)(f"layer {i} (OclLayer): {exc}") from None
        x = layer.forward(x, training=True)
    return x


@dataclass
class ClassifierResult:
    net: Sequential
    history: list[tuple[int, float, float]]   # (epoch, mean train loss, test acc)
    accuracy: float
    confusion: np.ndarray


def predict_classes(net: Sequential, images: np.ndarray) -> np.ndarray:
    if len(images) == 0:
        raise ValueError("predict_classes got no images")
    preds = []
    batch = 256     # images per forward pass
    for start in range(0, len(images), batch):
        scores = net.forward(_work(images[start:start + batch]), training=False)
        preds.append(np.argmax(scores, axis=1))
    return np.concatenate(preds)


def evaluate_classifier(net: Sequential, images, labels, n_classes: int):
    preds = predict_classes(net, images)
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
        scored = None   # (accuracy, confusion) of this epoch's weights, if evaluated
        if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
            scored = evaluate_classifier(net, test_images, test_labels, n_classes)[:2]
        history.append((epoch, loss, scored[0] if scored else math.nan))

    acc, conf = scored or evaluate_classifier(net, test_images, test_labels, n_classes)[:2]
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
    return _recorded(layers, "denoiser", geometry, input_kernels=input_kernels,
                     middle_kernels=middle_kernels, in_channels=in_channels,
                     middle_layers=middle_layers, seed=seed, optical=optical)


def denoiser_forward(net: Sequential, noisy: np.ndarray):
    """Predict the noise residual and subtract it: clean = noisy - residual."""
    if noisy.ndim != 4:
        raise ValueError("denoiser input must be (B, C, N, N)")
    residual = net.forward(_work(noisy), training=False)
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
        check_positive("learning_rate", self.learning_rate)


@dataclass
class DenoiserResult:
    net: Sequential
    history: list[tuple[int, float]]


def _match_output_scale(net: Sequential, pred: np.ndarray, target: np.ndarray) -> None:
    """Scale the output layer so that its first predictions ``pred`` match
    the target power (the denoiser analogue of gain-to-label-power
    initialization)."""
    p_rms = float(np.sqrt(np.mean(pred * pred, dtype=float)))
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

    The crop corners are drawn once, and each minibatch gathers its crops
    from the images, so the crops are never held all at once.  Noise is
    redrawn every batch from a seeded stream; the target is the effective
    (clipped) noise, so the network regresses exactly what must be
    subtracted from its input.
    """
    crops = draw_crops(train_images, cfg.patch, cfg.crops_per_image, _seeded(cfg.seed, 10))
    noise_rng = _seeded(cfg.seed, 11)
    n = len(crops)

    # the calibration batch is the first m crops: crop_patches of the images
    # that hold them draws them from the same stream (copied out, so the
    # rest are freed)
    m = min(cfg.batch_size, n)
    head = crop_patches(train_images[:math.ceil(m / cfg.crops_per_image)], cfg.patch,
                        cfg.crops_per_image, _seeded(cfg.seed, 10))[:m, None].copy()
    first = add_awgn(head, sigma, noise_rng)
    _match_output_scale(net, calibrate_optical_layers(net, first.noisy), first.noise)

    def batch(idx):
        sample = add_awgn(crops.gather(idx)[:, None], sigma, noise_rng)
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
