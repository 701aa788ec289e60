"""Shared independent oracles and the finite-difference harness.

Everything here is deliberately naive (scalar loops, cmath) so the routines
share no code with the vectorized implementations they check.  Two
exceptions: complex_ocu_vjp shares only the phase adjoint, which
phase_adjoint_loop checks, and direct_fit_history runs the SRP epoch on
the direct evaluator (srp_loss, phase_gradients), which the
finite-difference tests check.  The detection engine and the SRP epoch loop
as first written follow: the leaner engine must equal them bitwise, since
it performs the same floating-point operations in the same order.  The
data generators' references near the
end are their per-image and per-crop forms, which the whole-array generators
in ocusim.data must equal byte for byte; then come the denoiser set-up with
every crop and unit output materialized, which the streamed set-up must
equal bitwise, checkpoints of older versions, and the float64 column engine
and convolution layers as they were before the engine took the columns'
dtype, which a float64 call must equal bitwise.
"""

import cmath
import copy
import math

import numpy as np

from ocusim.data import add_awgn, crop_patches
from ocusim.networks import _match_output_scale, _seeded, _train_epochs, calibrate_optical_layers
from ocusim.nn import mse_loss
from ocusim.optics import OcuModel, phase_adjoint, stacked_transfer_partials, transfer_partials
from ocusim.optim import Adam, Param, TrainingDiverged
from ocusim.srp import (
    PatchMoments,
    _init_gain,
    phase_gradients,
    srp_loss,
    training_labels,
)
from ocusim.tensorize import im2col


def naive_diffraction_entry(src_xy, dst_xy, wavelength, slab_index) -> complex:
    """Scalar evaluation of one Huygens-Fresnel matrix element."""
    dx = dst_xy[0] - src_xy[0]
    dy = dst_xy[1] - src_xy[1]
    r = math.sqrt(dx * dx + dy * dy)
    cos_theta = abs(dx) / r
    value = (1.0 / (1j * wavelength))
    value *= (1.0 + cos_theta) / (2.0 * r)
    value *= cmath.exp(1j * 2.0 * math.pi * r * slab_index / wavelength)
    return value


def naive_matmul(a, b):
    """Triple-loop complex matrix product."""
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    out = np.zeros((rows, cols), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            acc = 0j
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def naive_chain(mats):
    """Explicit left-to-right chain product."""
    out = mats[0]
    for m in mats[1:]:
        out = naive_matmul(out, m)
    return out


def conv2d_pixel_loop(img, kernel, stride=1):
    """Valid correlation one output pixel at a time: the sum of each window
    times the kernel, the oracle of srp.conv2d_reference's row-and-tap loop."""
    img = np.asarray(img, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    h = kernel.shape[0]
    gi = (img.shape[0] - h) // stride + 1
    gj = (img.shape[1] - h) // stride + 1
    out = np.empty((gi, gj))
    for i in range(gi):
        for j in range(gj):
            window = img[i * stride:i * stride + h, j * stride:j * stride + h]
            out[i, j] = float(np.sum(window * kernel))
    return out


def adam_expression_step(values, grads, ms, vs, t, lr=1e-3):
    """One Adam step (step number ``t``) written as whole-array expressions,
    the oracle of optim.Adam's in-place step; updates every array in place."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for p, g, m, v in zip(values, grads, ms, vs):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


def naive_patch_columns(img, h, s):
    """Brute-force patch enumeration: channel-major rows, row-major scan."""
    img = np.asarray(img, dtype=float)
    if img.ndim == 2:
        img = img[None]
    c, n, _ = img.shape
    g = (n - h) // s + 1
    cols = []
    for gi in range(g):
        for gj in range(g):
            pixels = []
            for ch in range(c):
                for ki in range(h):
                    for kj in range(h):
                        pixels.append(img[ch, gi * s + ki, gj * s + kj])
            cols.append(pixels)
    return np.array(cols).T


def numeric_grad(f, arr, step_of):
    """Central-difference gradient of scalar f() w.r.t. an array perturbed
    in place; ``step_of(value)`` picks the step per element."""
    grad = np.zeros_like(arr, dtype=float)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = float(arr[idx])
        h = step_of(orig)
        arr[idx] = orig + h
        f_plus = f()
        arr[idx] = orig - h
        f_minus = f()
        arr[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return grad


def assert_grad_close(analytic, numeric, rel=1e-4, abs_floor=1e-8, label=""):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    err = np.abs(analytic - numeric)
    lim = np.maximum(rel * np.abs(numeric), abs_floor)
    bad = err > lim
    assert not np.any(bad), (
        f"{label}: {int(bad.sum())} gradient coordinates exceed tolerance; "
        f"worst analytic={analytic[bad][0]!r} fd={numeric[bad][0]!r}"
    )


def network_loss_fn(net_proto, x, y, loss):
    """Loss closure that re-evaluates a deep copy (running stats untouched)."""
    def f():
        net = copy.deepcopy(net_proto)
        out = net.forward(x, training=True)
        return loss(out, y)[0]
    return f


def fd_check_network(net_proto, x, y, loss, rel=1e-4, abs_floor=1e-8):
    """Check every parameter gradient of a network against central differences."""
    net = copy.deepcopy(net_proto)
    out = net.forward(x, training=True)
    _, dout = loss(out, y)
    for p in net.params():
        p.zero_grad()
    net.backward(dout)
    analytic = [p.grad.copy() for p in net.params()]

    f = network_loss_fn(net_proto, x, y, loss)
    for i, p in enumerate(net_proto.params()):
        step = (lambda v: 1e-5) if p.name == "phases" else (
            lambda v: 1e-6 * max(1.0, abs(v)))
        fd = numeric_grad(f, p.value, step)
        assert_grad_close(analytic[i], fd, rel, abs_floor, label=f"param {i} ({p.name})")


def reflect_sources(n, pad):
    """The source pixel of each index of a side of length n reflect-padded by pad."""
    return [pad - i for i in range(pad)] + list(range(n)) + [n - 2 - i for i in range(pad)]


def reflect_pad_loop(x, pad):
    """Reflection padding of the last two axes, one output pixel at a time."""
    idx = reflect_sources(x.shape[-1], pad)
    out = np.empty(x.shape[:-2] + (len(idx), len(idx)), dtype=x.dtype)
    for r, src_r in enumerate(idx):
        for c, src_c in enumerate(idx):
            out[..., r, c] = x[..., src_r, src_c]
    return out


def reflect_pad_grad_loop(grad, pad, n):
    """Adjoint of reflection padding by per-row and per-column scatter-adds."""
    if pad == 0:
        return grad
    idx = reflect_sources(n, pad)
    rows = np.zeros(grad.shape[:-2] + (n, grad.shape[-1]), dtype=grad.dtype)
    for src, dst in enumerate(idx):
        rows[..., dst, :] += grad[..., src, :]
    out = np.zeros(rows.shape[:-1] + (n,), dtype=grad.dtype)
    for src, dst in enumerate(idx):
        out[..., dst] += rows[..., src]
    return out


def einsum_stacked_partials(phases, fs):
    """Transfer partials of a flat (K, M-1, V) bank by one einsum per step.

    Returns (total, right, left, masks) with the unit axis K first.
    """
    k, n_meta, _ = phases.shape
    masks = np.exp(1j * phases)
    right = []
    cur = np.broadcast_to(fs[0], (k,) + fs[0].shape)
    for l in range(n_meta):
        right.append(cur)
        cur = np.einsum("wv,kvh->kwh", fs[l + 1], masks[:, l, :, None] * cur)
    left = [None] * n_meta
    acc = np.broadcast_to(fs[-1], (k,) + fs[-1].shape)
    for l in range(n_meta - 1, -1, -1):
        left[l] = acc
        if l > 0:
            acc = np.einsum("kov,vu->kou", acc * masks[:, l, None, :], fs[l])
    return cur, right, left, masks


def phase_adjoint_loop(partials, s):
    """Phase gradient of a flat bank, one metaline at a time by einsums.

    ``partials`` is the tuple of ``einsum_stacked_partials``; ``s`` is the
    (K, H^2, 2) complex patch reduction.  Returns (K, M-1, V).
    """
    _, right, left, masks = partials
    s_conj = np.conj(s).transpose(0, 2, 1)
    out = np.empty(masks.shape)
    for l in range(masks.shape[1]):
        p = np.einsum("kvh,koh->kvo", right[l], s_conj)
        out[:, l] = -np.imag(masks[:, l] * np.einsum("kvo,kov->kv", p, left[l]))
    return out


def complex_ocu_vjp(model, patches, grad_detected, partials, response, need_patch_grad=True):
    """Adjoint of one unit's detected output through its complex response.

    The reference for the real-quadrature engine: ``response`` is the
    (2, n) complex ocu_forward of the same model on the same patches.
    The phase adjoint is shared (optics.phase_adjoint has its own oracle,
    ``phase_adjoint_loop``); the data side is computed independently.
    Returns (dphases, dgain, dpatches or None).
    """
    g = np.asarray(grad_detected, dtype=float)
    r1, r2 = response
    dgain = float(np.dot(g, np.abs(r1) ** 2 - np.abs(r2) ** 2))
    kappa = model.detection_gain
    # adjoint of the complex response, rbar = 2 dJ/d conj(R)
    rbar = np.empty_like(response)
    rbar[0] = 2.0 * kappa * g * r1
    rbar[1] = -2.0 * kappa * g * r2
    dphases = phase_adjoint(partials, patches @ rbar.T)
    dpatches = None
    if need_patch_grad:
        a = partials.total
        dpatches = a.real.T @ rbar.real + a.imag.T @ rbar.imag
    return dphases, dgain, dpatches


def direct_fit_history(model, values, labels, cfg):
    """(epoch, J, mse) of every epoch of an SRP fit that evaluates the loss
    and its gradients directly over all patch columns.

    The reference for the probe-column epoch of srp.fit_kernel: the same
    Adam steps on the phases and the log-gain from the same starting unit
    (a copy of ``model``), each loss belonging to the parameters its epoch
    started with.
    """
    model = copy.deepcopy(model)
    phases = Param(model.phases, "phases")
    log_gain = Param(np.array(math.log(model.detection_gain)), "log_gain")
    opt = Adam([phases, log_gain], lr=cfg.learning_rate)
    history = []
    for epoch in range(cfg.epochs):
        loss, mse = srp_loss(model, values, labels)
        phases.grad[...], dgain = phase_gradients(model, values, labels)
        log_gain.grad[...] = dgain * model.detection_gain
        opt.step()
        model.detection_gain = float(np.exp(log_gain.value))
        history.append((epoch, loss, mse))
    return history


# ---------------------------------------------------------------------------
# the detection engine and the SRP epoch as first written
# ---------------------------------------------------------------------------

PORT_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def quadrature_rows_concat(total):
    """(C, 4q, H^2) quadrature rows built by concatenating the real and
    imaginary parts, as optics.quadrature_rows first did."""
    q, c = total.shape[:-2] or (1, 1)
    a = total.reshape(q, c, 2, 1, -1)
    quad = np.concatenate([a.real, a.imag], axis=3)
    return np.ascontiguousarray(quad.transpose(1, 2, 3, 0, 4)).reshape(c, 4 * q, -1)


def _row_weights(gains):
    """Signed gain of every quadrature row, (C, 4q), from (q, C) unit gains."""
    eff = gains.T
    return (PORT_SIGNS[None, :, None] * eff[:, None, :]).reshape(eff.shape[0], -1)


def bank_detect_whole(quad, cols, gains):
    """optics.bank_detect as first written, on a whole (C, H^2, n) patch array."""
    c, q = quad.shape[0], quad.shape[1] // 4
    wt = np.ascontiguousarray(_row_weights(gains).reshape(-1, q).T)[:, None, :]
    f = np.square(np.matmul(quad, cols))
    return np.matmul(wt, f.reshape(4 * c, q, -1).transpose(1, 0, 2))[:, 0]


def bank_vjp_whole(partials, cols, gains, grad):
    """optics.bank_vjp as first written, on a whole (C, H^2, n) patch array:
    (dphases, dgain, dcols)."""
    quad = quadrature_rows_concat(partials.total)
    c, q, h2 = quad.shape[0], quad.shape[1] // 4, quad.shape[2]
    wt2 = 2.0 * _row_weights(gains)
    u = np.matmul(quad, cols)
    u.reshape(c, 4, q, -1)[...] *= grad
    s0 = np.zeros((c, h2, 4 * q))
    s0 += np.matmul(cols, u.transpose(0, 2, 1))
    dcols = np.matmul((wt2[:, :, None] * quad).transpose(0, 2, 1), u)
    gf2 = (quad * s0.transpose(0, 2, 1)).sum(axis=-1).reshape(c, 4, q)
    lead = partials.masks.shape[:-2]
    dgain = (PORT_SIGNS @ gf2).T.reshape(lead)
    sw = (s0 * wt2[:, None, :]).reshape(c, h2, 2, 2, q).transpose(4, 0, 1, 2, 3)
    s = np.empty((q, c, h2, 2), dtype=complex)
    s.real = sw[..., 0]
    s.imag = sw[..., 1]
    return phase_adjoint(partials, s.reshape(lead + (h2, 2))), dgain, dcols


def reference_fit_once(model, moments, cfg):
    """srp._fit_once as first written: (best unit, history, whether the final
    unscored iterate won).

    Every epoch copies the phases it starts with, runs moments.loss and
    moments.gradients and an Adam step, and keeps the copy when the epoch's
    loss is the lowest yet; after the last step the unscored final iterate
    is kept if it beats them all.
    """
    shape = model.phases.shape
    params = Param(np.append(model.phases, math.log(model.detection_gain)), "srp")
    model.phases = params.value[:-1].reshape(shape)
    opt = Adam([params], lr=cfg.learning_rate)
    history = []
    best_loss = math.inf
    best_phases = model.phases.copy()
    best_gain = model.detection_gain
    for epoch in range(cfg.epochs):
        epoch_phases = model.phases.copy()
        epoch_gain = model.detection_gain
        partials = transfer_partials(model)
        loss, r = moments.loss(model, partials)
        grads = moments.gradients(model, partials, r)
        params.grad[:-1] = grads.phases.ravel()
        params.grad[-1] = grads.gain * model.detection_gain
        opt.step()
        model.detection_gain = float(np.exp(params.value[-1]))
        if not (0.0 < model.detection_gain < math.inf) or not math.isfinite(loss):
            raise TrainingDiverged(f"reference fit diverged at epoch {epoch}")
        history.append((epoch, loss, 2.0 * loss / moments.count))
        if loss < best_loss:
            best_loss = loss
            best_phases = epoch_phases
            best_gain = epoch_gain
    final_loss, _ = moments.loss(model, transfer_partials(model))
    final_won = final_loss < best_loss
    if final_won:
        best_phases = model.phases.copy()
        best_gain = model.detection_gain
    return OcuModel(model.geometry, best_phases, best_gain), history, final_won


def reference_fit_kernel(model, kernel, pattern, cfg):
    """srp.fit_kernel's restarts on reference_fit_once: (best unit, history,
    train MSE, whether the winning restart's final iterate won)."""
    labels = training_labels(pattern, kernel)
    values = im2col(pattern, kernel.shape[0]).values
    moments = PatchMoments.of(values, labels)
    best = None
    for restart in range(cfg.restarts):
        rng = np.random.Generator(np.random.PCG64(cfg.seed + restart))
        trial = OcuModel.random_init(model.geometry, rng)
        trial.detection_gain = _init_gain(trial, values, labels)
        fitted, history, final_won = reference_fit_once(trial, moments, cfg)
        _, train_mse = srp_loss(fitted, values, labels)
        if best is None or train_mse < best[2]:
            best = (fitted, history, train_mse, final_won)
    return best


def pool_loop(x, w, s):
    """Window mean pooling of (B, C, N, N) maps, one window at a time, its taps
    summed in row-major order."""
    b, c, n, _ = x.shape
    g = (n - w) // s + 1
    out = np.empty((b, c, g, g))
    for i in range(g):
        for j in range(g):
            taps = x[:, :, i * s:i * s + w, j * s:j * s + w].reshape(b, c, w * w)
            acc = taps[..., 0].copy()
            for t in range(1, w * w):
                acc = acc + taps[..., t]
            out[:, :, i, j] = acc / (w * w)
    return out


def pool_grad_loop(grad, in_shape, w, s):
    """Adjoint of pool_loop: each window's gradient back onto its taps, tap by
    tap in row-major order (shared by every window, so overlaps add in the
    same order as any tap-major scatter)."""
    g = grad.shape[-1]
    dx = np.zeros(in_shape)
    for t in range(w * w):
        ki, kj = divmod(t, w)
        for i in range(g):
            for j in range(g):
                dx[:, :, i * s + ki, j * s + kj] += grad[:, :, i, j] / (w * w)
    return dx


# ---------------------------------------------------------------------------
# the per-image and per-crop generators, the oracles of data's whole-array
# generators (each must equal its reference byte for byte)
# ---------------------------------------------------------------------------

def _seeded_rng(seed_or_rng):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.Generator(np.random.PCG64(seed_or_rng))


def bilinear_resize_reference(img, size):
    """Bilinear resample that builds its index and weight tables per call."""
    img = np.asarray(img, dtype=float)
    n = img.shape[0]
    if n == size:
        return img.copy()
    pos = np.linspace(0.0, n - 1, size)
    i0 = np.clip(pos.astype(int), 0, n - 2)
    frac = pos - i0
    return (
        img[i0][:, i0] * np.outer(1 - frac, 1 - frac)
        + img[i0 + 1][:, i0] * np.outer(frac, 1 - frac)
        + img[i0][:, i0 + 1] * np.outer(1 - frac, frac)
        + img[i0 + 1][:, i0 + 1] * np.outer(frac, frac)
    )


def _smooth_noise_reference(rng, size, cells):
    return bilinear_resize_reference(rng.random((cells + 1, cells + 1)), size)


def synthetic_image_reference(size, seed):
    """synthetic_image with every shape tested on the whole image grid."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((0xC0FFEE, seed))))
    img = 0.38 + 0.30 * _smooth_noise_reference(rng, size, 5)
    yy, xx = np.mgrid[0:size, 0:size] / size
    tilt = rng.uniform(-0.12, 0.12, size=2)
    img += tilt[0] * (xx - 0.5) + tilt[1] * (yy - 0.5)
    for _ in range(int(rng.integers(3, 6))):
        cy, cx = rng.uniform(0.15, 0.85, size=2)
        radius = rng.uniform(0.06, 0.18)
        value = rng.choice([rng.uniform(0.06, 0.2), rng.uniform(0.8, 0.94)])
        img[(yy - cy) ** 2 + (xx - cx) ** 2 < radius ** 2] = value
    for _ in range(int(rng.integers(2, 4))):
        y0, x0 = rng.uniform(0.05, 0.6, size=2)
        hgt, wid = rng.uniform(0.08, 0.3, size=2)
        value = rng.choice([rng.uniform(0.07, 0.2), rng.uniform(0.8, 0.93)])
        img[(yy >= y0) & (yy < y0 + hgt) & (xx >= x0) & (xx < x0 + wid)] = value
    for cells, amp in ((12, 0.12), (24, 0.09), (48, 0.07), (96, 0.05)):
        img += amp * (_smooth_noise_reference(rng, size, min(cells, size - 1)) - 0.5)
    img += 0.15 * (rng.random((size, size)) - 0.5)
    return np.clip(img, 0.02, 0.98)


def synthetic_contrast_image_reference(size=256, seed=5):
    """synthetic_contrast_image with every disc tested on the whole grid."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((0xBEEF, seed))))
    lo, hi = 0.14, 0.86
    base = _smooth_noise_reference(rng, size, 4)
    img = np.where(base > 0.5, hi, lo).astype(float)
    yy, xx = np.mgrid[0:size, 0:size] / size
    for _ in range(4):
        cy, cx = rng.uniform(0.1, 0.9, size=2)
        radius = rng.uniform(0.07, 0.18)
        value = hi if rng.random() > 0.5 else lo
        img[(yy - cy) ** 2 + (xx - cx) ** 2 < radius ** 2] = value
    img += 0.025 * (_smooth_noise_reference(rng, size, 32) - 0.5)
    img += 0.01 * (rng.random((size, size)) - 0.5)
    return np.clip(img, 0.02, 0.98)


def synthetic_blobs_loop(count, size, seed):
    """(images, labels) of synthetic_blobs, one noise draw per image."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((0xB10B, seed))))
    yy, xx = np.mgrid[0:size, 0:size] / (size - 1)
    centers = ((0.25, 0.25), (0.75, 0.75))
    images = np.empty((count, 1, size, size))
    labels = rng.integers(0, 2, size=count)
    for i, cls in enumerate(labels):
        cy, cx = centers[cls]
        bump = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / 0.04))
        images[i, 0] = np.clip(0.8 * bump + 0.1 * rng.random((size, size)), 0.0, 1.0)
    return images, labels.astype(np.int64)


def crop_patches_loop(images, patch, count_per_image, seed_or_rng=0):
    """crop_patches with one scalar draw per corner coordinate."""
    rng = _seeded_rng(seed_or_rng)
    out = []
    for img in images:
        img = np.asarray(img, dtype=float)
        hi_i = img.shape[0] - patch + 1
        hi_j = img.shape[1] - patch + 1
        for _ in range(count_per_image):
            i = int(rng.integers(0, hi_i))
            j = int(rng.integers(0, hi_j))
            out.append(img[i:i + patch, j:j + patch])
    return np.stack(out)


def synthetic_shapes_loop(count, size, seed):
    """(images, labels) of synthetic_shapes, one image at a time, with the
    distances to its class's strokes written out again."""
    def bar(u, v, angle):
        c, s = math.cos(angle), math.sin(angle)
        return np.hypot(np.maximum(np.abs(u * c + v * s) - 0.3, 0.0), v * c - u * s)

    quarter = math.pi / 4
    distance = [
        lambda u, v: bar(u, v, 0.0),
        lambda u, v: bar(u, v, quarter),
        lambda u, v: bar(u, v, math.pi / 2),
        lambda u, v: bar(u, v, 3 * quarter),
        lambda u, v: np.minimum(bar(u, v, 0.0), bar(u, v, math.pi / 2)),
        lambda u, v: np.minimum(bar(u, v, quarter), bar(u, v, 3 * quarter)),
        lambda u, v: np.abs(np.hypot(u, v) - 0.25),
        lambda u, v: np.maximum(np.hypot(u, v) - 0.22, 0.0),
        lambda u, v: np.abs(np.maximum(np.abs(u), np.abs(v)) - 0.22),
        lambda u, v: np.maximum(np.minimum(np.hypot(u - 0.18, v), np.hypot(u + 0.18, v))
                                - 0.08, 0.0),
    ]
    jitter_range = np.array([(0.32, 0.68), (0.32, 0.68), (-0.2, 0.2), (0.75, 1.15),
                             (0.025, 0.045), (0.4, 1.0), (0.0, 0.25)])
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((0x5BA9E5, seed))))
    labels = rng.integers(0, 10, size=count)
    low, high = jitter_range[:, 0], jitter_range[:, 1]
    jitters = [low + (high - low) * rng.random(7) for _ in range(count)]
    grid = (np.arange(size) + 0.5) / size
    images = np.empty((count, 1, size, size))
    for i, (cls, jitter) in enumerate(zip(labels, jitters)):
        cy, cx, theta, scale, width, contrast, background = jitter
        dy, dx = grid[:, None] - cy, grid[None, :] - cx
        u = (dx * np.cos(theta) + dy * np.sin(theta)) / scale
        v = (dy * np.cos(theta) - dx * np.sin(theta)) / scale
        ink = np.clip(0.5 + (width - distance[cls](u, v) * scale) * size, 0.0, 1.0)
        img = background + contrast * ink + 0.4 * (rng.random((size, size)) - 0.5)
        images[i, 0] = np.clip(img, 0.0, 1.0)
    return images, labels.astype(np.int64)


# ---------------------------------------------------------------------------
# the materialized forms of the denoiser set-up, the oracles of its streamed
# one (each must equal it bitwise)
# ---------------------------------------------------------------------------

def calibrate_gains_whole(layer, x):
    """(log gains, port signs) that OclLayer.calibrate_gains sets, computed
    on the (q, C, B*G^2) outputs of every unit at once."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = layer.unit_outputs(x)
        rms = np.sqrt(np.mean(diff * diff, axis=-1))
    if not np.all(np.isfinite(rms)):
        raise TrainingDiverged("detected power overflows float64")
    safe = np.where(rms > 0, rms, 1.0)
    return np.log(1.0 / safe), np.where(np.mean(diff, axis=-1) < 0, -1.0, 1.0)


def train_denoiser_materialized(net, train_images, sigma, cfg):
    """train_denoiser with every crop built before the first step; returns
    the epoch history."""
    patches = crop_patches(train_images, cfg.patch, cfg.crops_per_image,
                           _seeded(cfg.seed, 10))[:, None]
    noise_rng = _seeded(cfg.seed, 11)
    n = len(patches)
    first = add_awgn(patches[:min(cfg.batch_size, n)], sigma, noise_rng)
    _match_output_scale(net, calibrate_optical_layers(net, first.noisy), first.noise)

    def batch(idx):
        sample = add_awgn(patches[idx], sigma, noise_rng)
        return sample.noisy, sample.noise

    return list(_train_epochs(net, n, cfg, _seeded(cfg.seed, 12), batch, mse_loss))


# ---------------------------------------------------------------------------
# checkpoints of older versions
# ---------------------------------------------------------------------------

# every retired checkpoint line at the one value older versions wrote, after
# the line its writer put it after
RETIRED_LINES = {
    "topo.optical = ": ["topo.pool = mean"],
    "metaunit_period = ": ["slot_width = 2e-07", "slot_gap = 5e-07", "slot_height = 2.2e-07"],
    "num_inputs = ": ["amplitude_coeff = 1.0", "phase_coeff = 0.0"],
}


def old_format_lines(lines):
    """The lines of a unit or classifier checkpoint written today, as an
    older version wrote them: with every retired line, each at its old
    default."""
    out = []
    for line in lines:
        out.append(line)
        for prefix, retired in RETIRED_LINES.items():
            if line.startswith(prefix):
                out.extend(retired)
    return out


# ---------------------------------------------------------------------------
# the float64 column engine and convolution layers as they were before the
# engine took the columns' dtype; a float64 call of today's must equal them
# bitwise
# ---------------------------------------------------------------------------

class PaddedWindows64:
    """tensorize.PaddedWindows of a float64 batch: stride-1 windows streamed
    from the reflect-padded copy, blocks of whole padded rows."""

    def __init__(self, imgs, h, pad):
        b, c, n, _ = imgs.shape
        side = n + 2 * pad
        channel_major = imgs.transpose(1, 0, 2, 3)
        width = ((0, 0), (0, 0), (pad, pad), (pad, pad))
        padded = np.pad(channel_major, width, mode="reflect") if pad else channel_major.copy()
        self.buffer = padded.reshape(c, -1)
        self.shape, self.pad, self.side, self.grid = imgs.shape, pad, side, side - h + 1
        self.n = b * side * side
        self._end = self.n - (side - self.grid) * (side + 1)
        self._taps = [ki * side + kj for ki in range(h) for kj in range(h)]
        self._grad = None

    def blocks(self, width):
        c, h2 = self.buffer.shape[0], len(self._taps)
        width = max(1, (width + self.side // 2) // self.side) * self.side
        block = np.empty((c, h2, min(width, self._end)))
        for start in range(0, self._end, width):
            stop = min(start + width, self._end)
            out = block[:, :, :stop - start]
            for t, off in enumerate(self._taps):
                out[:, t] = self.buffer[:, start + off:stop + off]
            yield slice(start, stop), out

    def add_grad(self, blk, d):
        if self._grad is None:
            self._grad = np.zeros(self.buffer.shape)
        for t, off in enumerate(self._taps):
            self._grad[:, blk.start + off:blk.stop + off] += d[:, t]

    def gradient(self):
        b, c, n, _ = self.shape
        grad, self._grad = self._grad, None
        grad = reflect_pad_grad_loop(grad.reshape(c, b, self.side, self.side), self.pad, n)
        return grad.transpose(1, 0, 2, 3)

    def crop(self, a):
        b, g = self.shape[0], self.grid
        return a.reshape(a.shape[:-1] + (b, self.side, self.side))[..., :g, :g]

    def spread(self, a):
        out = np.zeros(a.shape[:-3] + (self.n,))
        self.crop(out)[...] = a
        return out


def _fields64(src, quad):
    width = max(1, (1 << 20) // (8 * quad.shape[0] * quad.shape[1]))
    fields = None
    for blk, cols in src.blocks(width):
        if fields is None:
            fields = np.empty(quad.shape[:2] + cols.shape[-1:])
        yield blk, cols, np.matmul(quad, cols, out=fields[:, :, :cols.shape[-1]])


def bank_detect64(quad, src, gains):
    """optics.bank_detect of a float64 window source."""
    c, q = quad.shape[0], quad.shape[1] // 4
    wt = (gains[..., None] * PORT_SIGNS).reshape(q, 1, 4 * c)
    out = np.empty((q, src.n))
    for blk, _, f in _fields64(src, quad):
        np.square(f, out=f)
        np.matmul(wt, f.reshape(4 * c, q, -1).transpose(1, 0, 2), out=out[:, None, blk])
    return out


def bank_vjp64(partials, src, gains, grad, need_patch_grad):
    """optics.bank_vjp of a float64 window source: (dphases, dgain, dinput)."""
    quad = partials.quad
    c, q, h2 = quad.shape[0], quad.shape[1] // 4, quad.shape[2]
    wt2 = gains[..., None] * (2.0 * PORT_SIGNS)
    s0 = np.zeros((c, h2, 4 * q))
    if need_patch_grad:
        quad_w = (wt2.transpose(1, 2, 0).reshape(c, 4 * q, 1) * quad).transpose(0, 2, 1)
    for blk, block, u in _fields64(src, quad):
        per_kernel = u.reshape(c, 4, q, -1)
        per_kernel *= grad[:, blk]
        s0 += np.matmul(block, u.transpose(0, 2, 1))
        if need_patch_grad:
            src.add_grad(blk, np.matmul(quad_w, u))
    gf2 = np.add.reduce(quad * s0.transpose(0, 2, 1), -1).reshape(c, 4, q)
    lead = partials.masks.shape[:-2]
    dgain = (PORT_SIGNS @ gf2).T.reshape(lead)
    s = np.empty(lead + (h2, 2), dtype=complex)
    np.multiply(s0.reshape(c, h2, 4, q).transpose(3, 0, 1, 2), wt2[:, :, None],
                out=s.view(float).reshape(q, c, h2, 4))
    return phase_adjoint(partials, s), dgain, src.gradient() if need_patch_grad else None


def ocl_layer_64(layer, x, grad, need_input_grad=True):
    """(output, input gradient, phase gradient, log-gain gradient) of an
    OclLayer's float64 forward and backward on the engine above."""
    src = PaddedWindows64(x, layer.h, layer.pad)
    partials = stacked_transfer_partials(layer.phases.value, layer.geometry)
    eff = layer.gains() * layer.port_sign
    out = src.crop(bank_detect64(partials.quad, src, eff)).transpose(1, 0, 2, 3)
    dphases, dgain, dx = bank_vjp64(partials, src, eff, src.spread(grad.transpose(1, 0, 2, 3)),
                                    need_input_grad)
    return out, dx, dphases, eff * dgain


def conv_layer_64(layer, x, grad, need_input_grad=True):
    """(output, input gradient, weight gradient, bias gradient) of a
    Conv2dLayer's float64 forward and backward on the window source above."""
    src = PaddedWindows64(x, layer.h, layer.pad)
    rows = layer.c * layer.h * layer.h
    width = max(1, (1 << 20) // (8 * rows))
    w = layer.weight.value.reshape(layer.q, -1)
    fm = np.empty((layer.q, src.n))
    for blk, cols in src.blocks(width):
        fm[:, blk] = w @ cols.reshape(rows, -1)
    out = (src.crop(fm) + layer.bias.value[:, None, None, None]).transpose(1, 0, 2, 3)
    gq = grad.transpose(1, 0, 2, 3)
    dbias = gq.sum(axis=(1, 2, 3))
    gq = src.spread(gq)
    dw = np.zeros(w.shape)
    for blk, cols in src.blocks(width):
        cols = cols.reshape(rows, -1)
        dw += gq[:, blk] @ cols.T
        if need_input_grad:
            src.add_grad(blk, (w.T @ gq[:, blk]).reshape(layer.c, layer.h * layer.h, -1))
    dx = src.gradient() if need_input_grad else None
    return out, dx, dw.reshape(layer.weight.value.shape), dbias
