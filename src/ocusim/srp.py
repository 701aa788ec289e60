"""Structural re-parameterization: train an OCU to act as a fixed 2-D kernel.

The unit never sees the kernel weights directly.  A random pattern is
convolved with the target kernel to make labels, and the metaline phases
(plus the detection gain) are regressed so the balanced-detected output of
the cascade reproduces those labels.  The unit runs as a 1x1 bank of the
detection engine in optics; gradients are exact adjoints, and a
finite-difference harness in the test suite guards every term.  Evaluation
reports through ocu_forward and balanced_detect.

Training epochs never touch the patch columns.  On a real patch x the
detected output y = kappa (|a+ . x|^2 - |a- . x|^2) is a quadratic form
in x, so it is linear in the n_p = H^2 (H^2 + 1) / 2 monomials x_a x_b,
a <= b: y = theta . phi(x), with theta fixed by the unit's phases and
gain.  Over the (n_p, n) monomial matrix Phi of all patches, the loss
1/2 |Phi^T theta - l|^2 therefore depends on the data only through the
Gram Phi Phi^T = U diag(lam) U^T, Phi l and l . l.  PatchMoments factors
the Gram once per fit and keeps the eigenvalues above n_p eps lam_max, so
degenerate data such as a constant pattern loses only directions no
output can see.  With R = diag(sqrt(lam)) U^T and z = R^-T Phi l the loss
is 1/2 (|R theta - z|^2 + c), where c = l . l - z . z is the label energy
no unit can reach.  theta itself is read off the unit on n_p fixed probe
columns e_a and e_a + e_b, whose outputs are y_E = T theta for a fixed
invertible T, so R theta = P y_E with P = R T^-1.  An epoch detects the
probe columns, forms r = P y_E - z, and hands P^T r to the unchanged
adjoint ocu_vjp as the output gradient of the probes.  This is the same
loss and the same gradient as the direct evaluation over every patch
column (srp_loss, phase_gradients, kept as the reference and for the
reported train MSE), up to round-off, at a cost that does not grow with
the pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .optics import (
    OcuGradients,
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
        pattern = np.asarray(pattern, dtype=float)
        kernel = np.asarray(kernel, dtype=float)
        # every window times the kernel, each window's products summed in the
        # order conv2d_reference sums them, so the labels equal it bitwise
        h = kernel.shape[0]
        windows = sliding_window_view(pattern, (h, h))[::stride, ::stride]
        labels = (windows * kernel).reshape(-1, h * h).sum(axis=-1)
        return cls(pattern, kernel, labels)


def _detect(model: OcuModel, values: np.ndarray, partials) -> np.ndarray:
    """Detected output y of the unit on real patch columns, run as a 1x1 bank."""
    return bank_detect(quadrature_rows(partials.total), values[None],
                       np.full((1, 1), model.detection_gain))[0]


def srp_loss(model: OcuModel, patches, labels, fs=None) -> tuple[float, float]:
    """Half-sum-of-squares training loss and the per-pixel mean square error.

    J = 1/2 * sum_i (y_i - label_i)^2 drives the optimizer; the normalized
    metric mean((y - label)^2) is what gets compared against reported
    emulation quality.  Evaluated directly over every patch column.
    """
    values = np.asarray(patches, dtype=float)
    e = _detect(model, values, transfer_partials(model, fs)) - np.asarray(labels, dtype=float)
    return 0.5 * float(np.dot(e, e)), float(np.mean(e * e))


def phase_gradients(model: OcuModel, patches, labels, fs=None):
    """Exact gradient of the SRP loss w.r.t. every phase and the gain.

    Evaluated directly over every patch column.  Returns (dJ/dphases,
    dJ/dkappa) with dJ/dphases shaped like ``model.phases``.
    """
    values = np.asarray(patches, dtype=float)
    partials = transfer_partials(model, fs)
    e = _detect(model, values, partials) - np.asarray(labels, dtype=float)
    grads = ocu_vjp(model, values, e, partials, need_patch_grad=False)
    return grads.phases, grads.gain


def _monomials(values: np.ndarray) -> np.ndarray:
    """(n_p, n) quadratic monomials x_a x_b, a <= b, of real patch columns."""
    n_in = values.shape[0]
    phi = np.empty((n_in * (n_in + 1) // 2, values.shape[1]))
    row = 0
    for a in range(n_in):
        # rows (a, a), (a, a + 1), ..., (a, H^2 - 1)
        np.multiply(values[a:], values[a], out=phi[row:row + n_in - a])
        row += n_in - a
    return phi


def _probe_columns(num_inputs: int) -> np.ndarray:
    """(H^2, n_p) probe columns e_a (a == b) and e_a + e_b (a < b)."""
    a, b = np.triu_indices(num_inputs)
    probes = np.zeros((num_inputs, a.size))
    column = np.arange(a.size)
    probes[a, column] = probes[b, column] = 1.0
    return probes


@dataclass
class PatchMoments:
    """The SRP loss over a patch matrix, reduced to its sufficient statistics
    and mapped onto fixed probe columns (see the module docstring).

    For any unit, J = 1/2 sum_i (y_i - label_i)^2 over the patch columns
    equals 1/2 (r . r + rest) with r = project @ y(probes) - target.
    """

    probes: np.ndarray    # (H^2, n_p) probe columns
    project: np.ndarray   # (k, n_p), P = R T^-1; k <= n_p is the rank kept
    target: np.ndarray    # (k,), z = R^-T Phi l
    rest: float           # l . l - z . z, the label energy no unit can reach
    count: int            # patch columns n

    @classmethod
    def of(cls, values: np.ndarray, labels: np.ndarray) -> "PatchMoments":
        phi = _monomials(values)
        n_p = phi.shape[0]
        lam, u = np.linalg.eigh(phi @ phi.T)
        keep = lam > n_p * np.finfo(float).eps * lam[-1]
        lam, u = lam[keep], u[:, keep]
        root = np.sqrt(lam)
        target = (u.T @ (phi @ labels)) / root
        # l . l - z . z, summed as the squared residual of the least-squares
        # fit Phi^T theta* ~ l, so it does not cancel when the fit is exact
        resid = labels - phi.T @ (u @ (target / root))
        rest = float(np.dot(resid, resid))
        del phi
        probes = _probe_columns(values.shape[0])
        # P T = R, and T^T is the monomial matrix of the probes
        project = np.linalg.solve(_monomials(probes), u * root).T
        return cls(probes, project, target, rest, values.shape[1])

    def loss(self, model: OcuModel, partials) -> tuple[float, np.ndarray]:
        """J over every patch column, and the reduced residual r."""
        r = self.project @ _detect(model, self.probes, partials) - self.target
        return 0.5 * (float(np.dot(r, r)) + self.rest), r

    def gradients(self, model: OcuModel, partials, r: np.ndarray) -> OcuGradients:
        """Exact phase and gain gradients of J, from the residual of ``loss``."""
        return ocu_vjp(model, self.probes, self.project.T @ r, partials,
                       need_patch_grad=False)


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
    moments = PatchMoments.of(values, pair.labels)

    best: FitResult | None = None
    for restart in range(cfg.restarts):
        rng = np.random.Generator(np.random.PCG64(cfg.seed + restart))
        trial = OcuModel.random_init(model.geometry, rng)
        trial.detection_gain = _init_gain(trial, values, pair.labels, fs)
        fitted, history = _fit_once(trial, moments, cfg, fs)
        _, train_mse = srp_loss(fitted, values, pair.labels, fs)
        if best is None or train_mse < best.train_mse:
            best = FitResult(fitted, history, train_mse)

    if holdout is not None:
        best.holdout_mse = evaluate_kernel_emulation(
            best.model, kernel, holdout, stride
        ).mse
    return best


def _fit_once(model, moments: PatchMoments, cfg, fs):
    """Adam on the phases and log-gain; returns the best iterate and the history."""
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
        partials = transfer_partials(model, fs)
        loss, r = moments.loss(model, partials)
        grads = moments.gradients(model, partials, r)
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
        history.append((epoch, loss, 2.0 * loss / moments.count))
        if loss < best_loss:
            best_loss = loss
            best_phases = epoch_phases
            best_gain = epoch_gain

    # the very last optimizer step produced an unscored iterate; keep it
    # if it beats everything recorded
    final_loss, _ = moments.loss(model, transfer_partials(model, fs))
    if final_loss < best_loss:
        best_phases = model.phases.copy()
        best_gain = model.detection_gain

    return OcuModel(model.geometry, best_phases, best_gain), history


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


def write_history_csv(history, fileobj, header: str = "epoch,loss,mse") -> None:
    """One CSV row per history entry: the epoch, then the repr of each value."""
    fileobj.write(header + "\n")
    for epoch, *values in history:
        fileobj.write(",".join([str(epoch), *map(repr, values)]) + "\n")
