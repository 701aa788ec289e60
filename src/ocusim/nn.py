"""Layer framework for optical convolutional networks and their electrical twins.

Every layer implements forward/backward with explicit numpy math; backward
accumulates parameter gradients into Param objects and returns the gradient
w.r.t. its input.  The optical convolution layer (OclLayer) is a bank of
diffractive units, (kernels, channels) unit axes leading, run through the
cascade and detection engines in optics that also serve a single SRP unit.
The electrical Conv2dLayer walks the exact same patch columns with ordinary
real-valued kernels, so optical/electrical comparisons share all plumbing.
Windows, strides and reflection padding belong to tensorize: convolutions
walk a column source (tensorize.windows) block by block, pools slide
through im2col_batch and scatter back through fold_batch.

Shapes: images and feature maps are (B, C, N, N); dense activations (B, F).
"""

from __future__ import annotations

import math

import numpy as np

from .optics import (OcuGeometry, bank_detect, bank_unit_outputs, bank_vjp, block_width,
                     propagation_matrices, quadrature_rows, stacked_transfer_partials)
from .optim import Param
from .tensorize import feature_dim, fold_batch, im2col_batch, windows

TWO_PI = 2.0 * math.pi


class Layer:
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> list[Param]:
        return []

    def out_shape(self, in_shape: tuple) -> tuple:
        return in_shape


class Sequential(Layer):
    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x, training=False):
        for layer in self.layers:
            x = layer.forward(x, training)
        return x

    def backward(self, grad):
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            if i == 0 and isinstance(layer, _Convolution):
                return layer.backward(grad, need_input_grad=False)
            grad = layer.backward(grad)
        return grad

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def out_shape(self, in_shape):
        for layer in self.layers:
            in_shape = layer.out_shape(in_shape)
        return in_shape


# ---------------------------------------------------------------------------
# convolution layers
# ---------------------------------------------------------------------------

class _Convolution(Layer):
    """Patch plumbing of the optical convolution and its electrical twin: a
    column source (tensorize.windows) over the windows of the reflect-padded
    input, walked block by block in forward and backward.  At stride 1 the
    source keeps only the padded input, 9x smaller than the patch matrix of
    a 3x3 window, and the forward cache holds it; at stride > 1 it holds the
    whole patch matrix.  A forward pass first drops the previous call's
    cache, so two sources never coexist."""

    def __init__(self, kernels: int, channels: int, kernel_size: int, stride: int, pad: int):
        if min(kernels, channels, kernel_size) < 1:
            raise ValueError("kernels, channels and kernel size must be >= 1, "
                             f"got {kernels}, {channels}, {kernel_size}")
        self.q, self.c, self.h = kernels, channels, kernel_size
        self.stride, self.pad = stride, pad
        self._cache = None

    def out_shape(self, in_shape):
        b, c, n, _ = in_shape
        if c != self.c:
            raise ValueError(f"layer expects {self.c} channels, got {c}")
        g = feature_dim(n + 2 * self.pad, self.h, self.stride)
        return (b, self.q, g, g)

    def _windows(self, x):
        """Column source of the windows of the padded input, its shape checked."""
        self.out_shape(x.shape)
        return windows(x, self.h, self.stride, self.pad)


class OclLayer(_Convolution):
    """Optical convolution layer: ``kernels`` OCKs of ``channels`` OCUs each.

    Input (B, C, N, N) -> (B, q, G, G).  OCK m sums the balanced-detected
    outputs of its C units, one per input channel.  All q*C cascades share
    one geometry (so one set of diffraction matrices); phases and per-unit
    detection gains are trainable, gains in log space since they absorb the
    physical field scale.  ``port_sign`` records which detector port each
    unit treats as positive (a wiring choice fixed at calibration so no
    unit starts with an always-negative, ReLU-dead output).

    The forward cache holds the column source (the padded input at stride
    1), the bank partials and the quadrature rows (optics.quadrature_rows);
    the detection engine recomputes each block's columns and fields from
    them in backward.
    """

    def __init__(self, geometry: OcuGeometry, kernels: int, channels: int,
                 rng: np.random.Generator, stride: int = 1, pad: int = 0):
        h2 = geometry.num_inputs
        h = int(round(math.sqrt(h2)))
        if h * h != h2:
            raise ValueError("geometry num_inputs must be a square number")
        super().__init__(kernels, channels, h, stride, pad)
        self.geometry = geometry
        self.fs = propagation_matrices(geometry)
        shape = (kernels, channels, geometry.metaline_count, geometry.metaunits_per_layer)
        self.phases = Param(rng.uniform(0.0, TWO_PI, size=shape), "phases")
        self.log_gain = Param(np.zeros((kernels, channels)), "log_gain")
        self.port_sign = np.ones((kernels, channels))

    def params(self):
        return [self.phases, self.log_gain]

    def gains(self) -> np.ndarray:
        return np.exp(self.log_gain.value)

    def _operators(self, x):
        """Column source of x, bank partials and quadratures (C, 4q, H^2)."""
        src = self._windows(x)
        partials = stacked_transfer_partials(self.phases.value, self.fs)
        return src, partials, quadrature_rows(partials.total)

    def forward(self, x, training=False):
        self._cache = None
        src, partials, quad = self._operators(x)
        fm = src.crop(bank_detect(quad, src, self.gains() * self.port_sign))
        self._cache = (src, partials, quad)
        return fm.transpose(1, 0, 2, 3)

    def backward(self, grad, need_input_grad: bool = True):
        src, partials, quad = self._cache
        gq = src.spread(grad.transpose(1, 0, 2, 3))
        eff = self.gains() * self.port_sign
        grads = bank_vjp(partials, quad, src, eff, gq, need_input_grad)
        self.log_gain.grad += eff * grads.gain
        self.phases.grad += grads.phases
        return grads.patches

    def unit_outputs(self, x: np.ndarray) -> np.ndarray:
        """|R+|^2 - |R-|^2 of every unit, before gain and port sign: (q, C, n).

        Column n runs over the batch-major patch positions of ``x``.
        """
        src, _, quad = self._operators(x)
        return src.crop(bank_unit_outputs(quad, src)).reshape(self.q, self.c, -1)

    def calibrate_gains(self, x: np.ndarray) -> None:
        """Fix port polarity and set each unit's gain to a useful scale.

        Run once on a representative batch before training: gains are set
        so each detected sub-map has unit RMS (square-law outputs
        otherwise sit at the raw physical field scale and gradients die),
        and the positive detector port is chosen per unit so its output is
        not negative almost everywhere (which a downstream ReLU would
        silence permanently).
        """
        diff = self.unit_outputs(x)
        rms = np.sqrt(np.mean(diff * diff, axis=-1))
        safe = np.where(rms > 0, rms, 1.0)
        self.log_gain.value[...] = np.log(1.0 / safe)
        mean = np.mean(diff, axis=-1)
        self.port_sign[...] = np.where(mean < 0, -1.0, 1.0)


class Conv2dLayer(_Convolution):
    """Ordinary real-valued convolution (the electrical baseline twin)."""

    def __init__(self, kernels: int, channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 1, pad: int = 0):
        super().__init__(kernels, channels, kernel_size, stride, pad)
        fan_in = channels * kernel_size * kernel_size
        self.weight = Param(
            rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(kernels, channels, kernel_size, kernel_size)),
            "weight",
        )
        self.bias = Param(np.zeros(kernels), "bias")

    def params(self):
        return [self.weight, self.bias]

    def _blocks(self, src):
        """(column slice, (C*H^2, width) patch block) over the source's blocks."""
        rows = self.c * self.h * self.h
        for blk, cols in src.blocks(block_width(rows)):
            yield blk, cols.reshape(rows, -1)

    def forward(self, x, training=False):
        self._cache = None
        src = self._windows(x)
        w = self.weight.value.reshape(self.q, -1)
        fm = np.empty((self.q, src.n))
        for blk, cols in self._blocks(src):
            fm[:, blk] = w @ cols
        fm = src.crop(fm) + self.bias.value[:, None, None, None]
        self._cache = src
        return fm.transpose(1, 0, 2, 3)

    def backward(self, grad, need_input_grad: bool = True):
        src = self._cache
        gq = grad.transpose(1, 0, 2, 3)
        self.bias.grad += gq.sum(axis=(1, 2, 3))
        gq = src.spread(gq)
        w = self.weight.value.reshape(self.q, -1)
        dw = np.zeros(w.shape)
        for blk, cols in self._blocks(src):
            dw += gq[:, blk] @ cols.T
            if need_input_grad:
                src.add_grad(blk, (w.T @ gq[:, blk]).reshape(self.c, self.h * self.h, -1))
        self.weight.grad += dw.reshape(self.weight.value.shape)
        return src.gradient() if need_input_grad else None


# ---------------------------------------------------------------------------
# pointwise / pooling / normalization layers
# ---------------------------------------------------------------------------

class ReluLayer(Layer):
    def forward(self, x, training=False):
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad):
        return grad * self._mask


class Pool2dLayer(Layer):
    """Window pooling; ``mode`` is "mean" (default, gradient-smooth) or "max"."""

    def __init__(self, window: int = 2, stride: int | None = None, mode: str = "mean"):
        if mode not in ("mean", "max"):
            raise ValueError("pool mode must be 'mean' or 'max'")
        self.window = window
        self.stride = stride if stride is not None else window
        self.mode = mode

    def out_shape(self, in_shape):
        b, c, n, _ = in_shape
        g = feature_dim(n, self.window, self.stride)
        return (b, c, g, g)

    def forward(self, x, training=False):
        if self.window > x.shape[-1]:
            raise ValueError("pool window larger than feature map")
        b, c, g, _ = self.out_shape(x.shape)
        # one window per column, its w^2 taps down the rows; channel-major, so
        # a convolution's (B, C, N, N) view of its (C, B, N, N) output is not copied
        n = x.shape[-1]
        taps = im2col_batch(x.transpose(1, 0, 2, 3).reshape(c * b, 1, n, n),
                            self.window, self.stride)
        if self.mode == "mean":
            out = taps.mean(axis=0)
            self._cache = (x.shape, None)
        else:
            idx = taps.argmax(axis=0)
            out = np.take_along_axis(taps, idx[None], axis=0)[0]
            self._cache = (x.shape, idx)
        return out.reshape(c, b, g, g).transpose(1, 0, 2, 3)

    def backward(self, grad):
        in_shape, idx = self._cache
        w = self.window
        b, c, n, _ = in_shape
        flat = grad.transpose(1, 0, 2, 3).reshape(1, -1)
        if self.mode == "mean":
            dtaps = np.broadcast_to(flat / (w * w), (w * w, flat.size))
        else:
            dtaps = flat * (idx == np.arange(w * w)[:, None])
        dx = fold_batch(dtaps, (c * b, 1, n, n), w, self.stride)
        return dx.reshape(c, b, n, n).transpose(1, 0, 2, 3)


class BatchNormLayer(Layer):
    """Per-channel standardization with learned scale/shift.

    Training mode uses batch statistics (batch >= 2) and refreshes the
    running estimates; inference normalizes with the running statistics.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Param(np.ones(channels), "gamma")
        self.beta = Param(np.zeros(channels), "beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps

    _AXES = (0, 2, 3)   # statistics pool the batch and both spatial axes

    def params(self):
        return [self.gamma, self.beta]

    def forward(self, x, training=False):
        if x.ndim != 4:
            raise ValueError("batch normalization expects (B, C, N, N) input")
        if training:
            if x.shape[0] < 2:
                raise ValueError("batch normalization needs batch size >= 2 in training")
            mean = x.mean(axis=self._AXES)
            var = x.var(axis=self._AXES)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean[:, None, None]) * inv[:, None, None]
        self._cache = (xhat, inv, training)
        return self.gamma.value[:, None, None] * xhat + self.beta.value[:, None, None]

    def backward(self, grad):
        xhat, inv, training = self._cache
        self.gamma.grad += (grad * xhat).sum(axis=self._AXES)
        self.beta.grad += grad.sum(axis=self._AXES)
        gamma = self.gamma.value[:, None, None]
        inv_e = inv[:, None, None]
        if not training:
            return grad * gamma * inv_e
        m = grad.size // grad.shape[1]
        dxhat = grad * gamma
        sum_dxhat = dxhat.sum(axis=self._AXES)[:, None, None]
        sum_dxhat_x = (dxhat * xhat).sum(axis=self._AXES)[:, None, None]
        return (inv_e / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_x)


class FlattenLayer(Layer):
    def forward(self, x, training=False):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)

    def out_shape(self, in_shape):
        total = 1
        for d in in_shape[1:]:
            total *= d
        return (in_shape[0], total)


class DenseLayer(Layer):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        if min(n_in, n_out) < 1:
            raise ValueError(f"dense layer sizes must be >= 1, got {n_in}, {n_out}")
        self.weight = Param(rng.normal(0.0, math.sqrt(2.0 / n_in), size=(n_in, n_out)), "weight")
        self.bias = Param(np.zeros(n_out), "bias")

    def params(self):
        return [self.weight, self.bias]

    def out_shape(self, in_shape):
        return (in_shape[0], self.weight.value.shape[1])

    def forward(self, x, training=False):
        self._x = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad):
        self.weight.grad += self._x.T @ grad
        self.bias.grad += grad.sum(axis=0)
        return grad @ self.weight.value.T


def dense_head(n_in: int, hidden: tuple[int, ...], n_out: int,
               rng: np.random.Generator) -> list[Layer]:
    """The classifier tail: affine -> ReLU -> ... -> affine."""
    sizes = [n_in, *hidden, n_out]
    layers: list[Layer] = []
    for i in range(len(sizes) - 1):
        layers.append(DenseLayer(sizes[i], sizes[i + 1], rng))
        if i < len(sizes) - 2:
            layers.append(ReluLayer())
    return layers


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def softmax_cross_entropy(scores: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch, stabilized by max subtraction."""
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite class scores")
    shifted = scores - scores.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    b = scores.shape[0]
    picked = probs[np.arange(b), labels]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    grad = probs.copy()
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    diff = pred - target
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size
