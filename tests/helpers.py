"""Shared independent oracles and the finite-difference harness.

Everything here is deliberately naive (scalar loops, cmath) so the routines
share no code with the vectorized implementations they check.
"""

import cmath
import copy
import math

import numpy as np


def naive_diffraction_entry(src_xy, dst_xy, wavelength, slab_index,
                            amplitude_coeff=1.0, phase_coeff=0.0) -> complex:
    """Scalar evaluation of one Huygens-Fresnel matrix element."""
    dx = dst_xy[0] - src_xy[0]
    dy = dst_xy[1] - src_xy[1]
    r = math.sqrt(dx * dx + dy * dy)
    cos_theta = abs(dx) / r
    value = (1.0 / (1j * wavelength))
    value *= (1.0 + cos_theta) / (2.0 * r)
    value *= cmath.exp(1j * 2.0 * math.pi * r * slab_index / wavelength)
    value *= amplitude_coeff * cmath.exp(1j * phase_coeff)
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


def reflect_pad_grad_loop(grad, pad, n):
    """Adjoint of reflection padding by per-row and per-column scatter-adds."""
    if pad == 0:
        return grad
    idx = [pad - i for i in range(pad)] + list(range(n)) + [n - 2 - i for i in range(pad)]
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
