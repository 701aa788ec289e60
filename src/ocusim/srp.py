"""Structural re-parameterization: train an OCU to act as a fixed 2-D kernel.

The unit never sees the kernel weights directly.  A random pattern is
convolved with the target kernel to make labels, and the metaline phases
(plus the detection gain) are regressed so the balanced-detected output of
the cascade reproduces those labels.  Training runs the unit on the real
patch matrix as a 1x1 bank of the detection engine in optics; gradients are
exact adjoints, and a finite-difference harness in the test suite guards
every term.  Evaluation reports through ocu_forward and balanced_detect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optics import (
    OcuModel,
    balanced_detect,
    bank_detect,
    bank_unit_outputs,
    ocu_forward,
    ocu_vjp,
    propagation_matrices,
    quadrature_rows,
    transfer_partials,
)
from .optim import Adam, Param, TrainingDiverged
from .tensorize import feature_dim, im2col


def generate_pattern(seed: int, size: int) -> np.ndarray:
    """Deterministic uniform-[0,1) training pattern."""
    return np.random.Generator(np.random.PCG64(seed)).random((size, size))


def conv2d_reference(img, kernel, stride: int = 1, flip: bool = False) -> np.ndarray:
    """Direct sliding-window convolution, the independent oracle.

    Correlation convention (no kernel flip) unless ``flip`` is set; valid
    placements only, no padding.  Deliberately written as an explicit loop
    so it shares nothing with the im2col matrix path it cross-checks.
    """
    img = np.asarray(img, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    if img.ndim != 2:
        raise ValueError("reference convolution takes a single-channel image")
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise ValueError("kernel must be square")
    if flip:
        kernel = kernel[::-1, ::-1]
    h = kernel.shape[0]
    gi = feature_dim(img.shape[0], h, stride)
    gj = feature_dim(img.shape[1], h, stride)
    out = np.empty((gi, gj), dtype=float)
    for i in range(gi):
        for j in range(gj):
            window = img[i * stride:i * stride + h, j * stride:j * stride + h]
            out[i, j] = float(np.sum(window * kernel))
    return out


@dataclass
class TrainingPair:
    """A pattern, the kernel applied to it, and the flattened result."""

    pattern: np.ndarray
    kernel: np.ndarray
    labels: np.ndarray

    @classmethod
    def make(cls, pattern, kernel, stride: int = 1) -> "TrainingPair":
        labels = conv2d_reference(pattern, kernel, stride).ravel()
        return cls(np.asarray(pattern, dtype=float), np.asarray(kernel, dtype=float), labels)


def _residual(model: OcuModel, values: np.ndarray, labels, partials) -> np.ndarray:
    """Residual e = y - labels of the detected output, the unit run as a 1x1 bank."""
    y = bank_detect(quadrature_rows(partials.total), values[None],
                    np.full((1, 1), model.detection_gain))[0]
    return y - np.asarray(labels, dtype=float)


def srp_loss(model: OcuModel, patches, labels, fs=None) -> tuple[float, float]:
    """Half-sum-of-squares training loss and the per-pixel mean square error.

    J = 1/2 * sum_i (y_i - label_i)^2 drives the optimizer; the normalized
    metric mean((y - label)^2) is what gets compared against reported
    emulation quality.
    """
    e = _residual(model, np.asarray(patches, dtype=float), labels, transfer_partials(model, fs))
    return 0.5 * float(np.dot(e, e)), float(np.mean(e * e))


def _residual_grads(model: OcuModel, values: np.ndarray, labels: np.ndarray, fs):
    """Residual e = y - labels of the SRP loss and its exact gradients."""
    partials = transfer_partials(model, fs)
    e = _residual(model, values, labels, partials)
    return e, ocu_vjp(model, values, e, partials, need_patch_grad=False)


def phase_gradients(model: OcuModel, patches, labels, fs=None):
    """Exact gradient of the SRP loss w.r.t. every phase and the gain.

    Returns (dJ/dphases, dJ/dkappa) with dJ/dphases shaped like
    ``model.phases``.
    """
    _, grads = _residual_grads(model, np.asarray(patches, dtype=float), labels, fs)
    return grads.phases, grads.gain


@dataclass
class FitConfig:
    epochs: int = 3000
    learning_rate: float = 1e-3
    seed: int = 0
    restarts: int = 1                 # independent inits, best train loss wins

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class FitResult:
    model: OcuModel
    history: list[tuple[int, float, float]]   # (epoch, J, metric mse)
    train_mse: float
    holdout_mse: float | None = None


def _init_gain(model: OcuModel, values: np.ndarray, labels: np.ndarray, fs) -> float:
    """Match mean detected power to label power so square-law grads are live."""
    quad = quadrature_rows(transfer_partials(model, fs).total)
    diff = bank_unit_outputs(quad, values[None])[0, 0]
    rms_d = math.sqrt(float(np.mean(diff * diff)))
    rms_l = math.sqrt(float(np.mean(labels * labels)))
    if rms_d == 0.0:
        return 1.0
    if rms_l == 0.0:
        return 1e-8 / rms_d
    return rms_l / rms_d


def fit_kernel(
    model: OcuModel,
    kernel: np.ndarray,
    pattern: np.ndarray,
    cfg: FitConfig,
    holdout: np.ndarray | None = None,
    stride: int = 1,
) -> FitResult:
    """Fit the model's phases and gain to emulate ``kernel`` on ``pattern``.

    The incoming model supplies the geometry; its phases are re-initialized
    per restart from the seeded generator.  Returns the best iterate seen
    (by training loss) together with the per-epoch loss history of the
    winning restart.
    """
    kernel = np.asarray(kernel, dtype=float)
    h = kernel.shape[0]
    if h * h != model.geometry.num_inputs:
        raise ValueError(
            f"geometry has {model.geometry.num_inputs} inputs but kernel needs {h * h}"
        )
    pair = TrainingPair.make(pattern, kernel, stride)
    values = im2col(pattern, h, stride).values
    fs = propagation_matrices(model.geometry)

    best: FitResult | None = None
    for restart in range(cfg.restarts):
        rng = np.random.Generator(np.random.PCG64(cfg.seed + restart))
        trial = OcuModel.random_init(model.geometry, rng)
        trial.detection_gain = _init_gain(trial, values, pair.labels, fs)
        result = _fit_once(trial, values, pair.labels, cfg, fs)
        if best is None or result.train_mse < best.train_mse:
            best = result

    if holdout is not None:
        best.holdout_mse = evaluate_kernel_emulation(
            best.model, kernel, holdout, stride
        ).mse
    return best


def _fit_once(model, values, labels, cfg, fs) -> FitResult:
    phases = Param(model.phases, "phases")
    log_gain = Param(np.array(math.log(model.detection_gain)), "log_gain")
    opt = Adam([phases, log_gain], lr=cfg.learning_rate)

    history: list[tuple[int, float, float]] = []
    best_loss = math.inf
    best_phases = model.phases.copy()
    best_gain = model.detection_gain

    for epoch in range(cfg.epochs):
        # the epoch loss belongs to the parameters the epoch started with
        epoch_phases = model.phases.copy()
        epoch_gain = model.detection_gain
        e, grads = _residual_grads(model, values, labels, fs)
        sq_sum = float(np.dot(e, e))
        loss = 0.5 * sq_sum
        phases.grad[...] = grads.phases
        log_gain.grad[...] = grads.gain * model.detection_gain
        opt.step()
        model.detection_gain = float(np.exp(log_gain.value))
        if not (0.0 < model.detection_gain < math.inf):
            raise TrainingDiverged(
                f"detection gain left (0, inf) at epoch {epoch}; "
                "reduce the learning rate"
            )
        if not math.isfinite(loss):
            raise TrainingDiverged(
                f"loss became non-finite at epoch {epoch} "
                f"(gain {model.detection_gain:.3e}); reduce the learning rate"
            )
        history.append((epoch, loss, sq_sum / values.shape[1]))
        if loss < best_loss:
            best_loss = loss
            best_phases = epoch_phases
            best_gain = epoch_gain

    # the very last optimizer step produced an unscored iterate; keep it
    # if it beats everything recorded
    final_loss, _ = srp_loss(model, values, labels, fs)
    if final_loss < best_loss:
        best_phases = model.phases.copy()
        best_gain = model.detection_gain

    fitted = OcuModel(model.geometry, best_phases, best_gain)
    _, train_mse = srp_loss(fitted, values, labels, fs)
    return FitResult(fitted, history, train_mse)


@dataclass
class EmulationReport:
    mse: float
    pearson: float
    predicted: np.ndarray
    reference: np.ndarray


def evaluate_kernel_emulation(
    model: OcuModel, kernel: np.ndarray, image: np.ndarray, stride: int = 1
) -> EmulationReport:
    """Compare the trained unit against the true convolution on an image."""
    kernel = np.asarray(kernel, dtype=float)
    h = kernel.shape[0]
    patches = im2col(image, h, stride)
    y = balanced_detect(ocu_forward(model, patches.values), model.detection_gain)
    ref = conv2d_reference(image, kernel, stride)
    predicted = y.reshape(ref.shape)
    err = predicted - ref
    mse = float(np.mean(err * err))
    if np.std(y) == 0.0 or np.std(ref) == 0.0:
        pearson = float("nan")
    else:
        pearson = float(np.corrcoef(y, ref.ravel())[0, 1])
    return EmulationReport(mse, pearson, predicted, ref)


def write_history_csv(history, fileobj) -> None:
    fileobj.write("epoch,loss,mse\n")
    for epoch, loss, mse in history:
        fileobj.write(f"{epoch},{loss!r},{mse!r}\n")
