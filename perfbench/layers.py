"""Per-layer probes of a traced run and computed operation counts.

The probe times each ``OclLayer`` of a trained network and its electrical
twin (a ``Conv2dLayer`` of the same kernels, channels, stride and padding)
on the same input, records the allocation peak of a forward call with
tracemalloc, and measures the BLAS dgemm rate of the machine in the same
process.  Operation and byte counts are computed from the shapes alone and
are labelled "computed": they ignore cache misses and temporaries.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from ocusim import nn
from ocusim.tensorize import feature_dim

MB = 1e6


def layer_name(layer) -> str:
    return f"ocl{layer.q}x{layer.c}"


def layer_inputs(net, x, training: bool) -> list:
    """The input each layer of ``net`` sees when ``x`` goes through it."""
    seen = []
    for layer in net.layers:
        seen.append(x)
        x = layer.forward(x, training=training)
    return seen


def computed_counts(layer, in_shape) -> dict:
    """Floating-point operations and bytes of one OclLayer call and of its twin.

    Forward: the OCL collapses each unit to a (2, H^2) complex matrix, so
    every patch column costs 4 real rows (two ports times re/im) per unit
    where the twin needs one, plus square-law detection, the gain and the
    channel sum; the bank product of the cascade is counted once per call.
    Backward: the patch reduction and the input gradient each cost the
    forward gemm again.  Bytes count the patch matrix, the output, and the
    4 field quadratures per unit and column kept for the backward pass.
    """
    b, c, n, _ = in_shape
    q, h2, v = layer.q, layer.h * layer.h, layer.geometry.metaunits_per_layer
    g = feature_dim(n + 2 * layer.pad, layer.h, layer.stride)
    cols = b * g * g
    bank = q * c * 8 * (v * v * h2 + 2 * v * h2 + 2 * v * v)
    ocl_fwd = 8 * q * c * h2 * cols + 9 * q * c * cols + bank
    ocl_bwd = 16 * q * c * h2 * cols + 8 * q * c * cols + bank
    twin_fwd = 2 * q * c * h2 * cols + q * cols
    twin_bwd = 4 * q * c * h2 * cols + c * h2 * cols
    patch, out, fields = c * h2 * cols, q * cols, 4 * q * c * cols
    return {
        "columns": cols,
        "ocl_fwd_flops": ocl_fwd,
        "ocl_bwd_flops": ocl_bwd,
        "twin_fwd_flops": twin_fwd,
        "twin_bwd_flops": twin_bwd,
        "ocl_fwd_bytes": 8 * (patch + out + fields),
        "ocl_bwd_bytes": 8 * (out + fields + 2 * patch),
        "twin_fwd_bytes": 8 * (patch + out),
        "twin_bwd_bytes": 8 * (out + 2 * patch),
    }


def _fwd_bwd_ms(layer, x, need_input_grad, reps) -> tuple[float, float]:
    grad = None
    fwd, bwd = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = layer.forward(x, training=True)
        t1 = time.perf_counter()
        if grad is None:
            grad = np.random.Generator(np.random.PCG64(0)).standard_normal(out.shape)
        layer.backward(grad, need_input_grad=need_input_grad)
        t2 = time.perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
    return float(np.median(fwd)) * 1e3, float(np.median(bwd)) * 1e3


def _alloc_mb(layer, x, training) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        layer.forward(x, training=training)
        return (tracemalloc.get_traced_memory()[1] - base) / MB
    finally:
        tracemalloc.stop()


def probe_layers(net, train_x, eval_x, reps: int) -> dict:
    """Probe every OclLayer of ``net`` at its training and evaluation input.

    Leaves parameter values unchanged, but accumulates gradients and moves
    batch-norm running statistics, so call it after the run's digest.
    """
    out = {}
    train_in = layer_inputs(net, train_x, training=True)
    eval_in = layer_inputs(net, eval_x, training=False)
    rng = np.random.Generator(np.random.PCG64(0))
    for i, layer in enumerate(net.layers):
        if not isinstance(layer, nn.OclLayer):
            continue
        key = layer_name(layer)
        x = train_in[i]
        need = i > 0   # Sequential skips the input gradient of the first layer
        fwd, bwd = _fwd_bwd_ms(layer, x, need, reps)
        twin = nn.Conv2dLayer(layer.q, layer.c, layer.h, rng, layer.stride, layer.pad)
        twin_fwd, twin_bwd = _fwd_bwd_ms(twin, x, need, reps)
        counts = computed_counts(layer, x.shape)
        out[key] = {
            "probe_fwd_ms": fwd,
            "probe_bwd_ms": bwd,
            "twin_fwd_ms": twin_fwd,
            "twin_bwd_ms": twin_bwd,
            "twin_ratio": (fwd + bwd) / (twin_fwd + twin_bwd),
            "fwd_gflops": counts["ocl_fwd_flops"] / fwd / 1e6,
            "bwd_gflops": counts["ocl_bwd_flops"] / bwd / 1e6,
            "fwd_alloc_mb": _alloc_mb(layer, x, True),
            "infer_alloc_mb": _alloc_mb(layer, eval_in[i], False),
        }
    return out


def dgemm_gflops(n: int = 512, reps: int = 15) -> float:
    """Measured rate of an n x n x n float64 matrix product, median of reps."""
    rng = np.random.Generator(np.random.PCG64(0))
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2 * n ** 3 / float(np.median(times)) / 1e9


def ocl_shapes(net, train_shape, eval_shape) -> list[dict]:
    """Computed counts of every OclLayer at the training and evaluation shape."""
    rows = []
    for shape_kind, shape in (("train", train_shape), ("eval", eval_shape)):
        for layer in net.layers:
            if isinstance(layer, nn.OclLayer):
                rows.append({"layer": layer_name(layer), "shape": shape_kind,
                             "input": list(shape), **computed_counts(layer, shape)})
            shape = layer.out_shape(shape)
    return rows


def conv_shapes(net) -> list[tuple[int, int]]:
    """Distinct (kernels, channels) of the optical convolutions of ``net``."""
    seen = []
    for layer in net.layers:
        if isinstance(layer, nn.OclLayer) and (layer.q, layer.c) not in seen:
            seen.append((layer.q, layer.c))
    return seen

