"""Analytical model of a diffractive optical convolution unit (OCU).

The device is a silicon slab waveguide: H^2 input ports on one edge, a
stack of phase-shifting metalines at regular intervals, and two detection
ports on the far edge.  Everything reduces to complex linear algebra:
a Huygens-Fresnel matrix F connects consecutive planes, each metaline is
a diagonal phase mask T, and balanced square-law detection turns the two
output fields into one signed real value per input column.

Conventions:
    * all lengths in meters, all phases in radians
    * the propagation axis is x, the transverse axis is y; plane l sits
      at x = l * layer_gap
    * fields are numpy complex128 arrays; a "response" is a (2, n) array
      whose rows belong to the positive and negative detection port
    * a bank of units shares one geometry; its arrays put leading unit
      axes before each per-unit shape, and the one cascade engine
      (stacked_transfer_partials, phase_adjoint) broadcasts over them
    * the cascade engine is one-sided: it chains only the (2, V) output-side
      partials, back to front, and the last product is the device matrix.
      The phase adjoint sweeps the (V, 2) conjugated patch reduction forward
      through the device and meets each output-side partial at its metaline,
      so a metaline costs products with 2 columns, never with H^2.  The
      (V, H^2) input-side partials are built only when a check asks for them
    * the one detection engine (bank_detect, bank_vjp) serves the
      optical convolution layer and SRP, one unit being a 1x1 bank; it
      applies 4 real quadrature rows per unit to the blocks of a column
      source (tensorize): a plain (C, H^2, n) patch array, or the windows
      of a padded batch streamed without a patch matrix.
      ocu_forward/balanced_detect are the single-unit reference: ocu_forward
      multiplies the real patches by the rows [Re T; Im T] of the collapsed
      matrix T in one real product and returns the complex response
    * the detection engine works in the dtype of its columns: float64
      columns take the quadrature rows as they are; float32 columns take
      them in a power-of-two scaled frame (_frame), where the fields stay
      within float32's range and every scale cancels exactly.  The cascade
      and the phase and gain gradients are float64 either way
    * the diffraction matrices depend only on the geometry, so no caller
      passes them: the cascade engine looks them up in
      propagation_matrices, which computes them once per geometry object
      and keeps them read-only for as long as that object lives
    * the obliquity angle uses cos(theta) = |dx| / r so the factor
      (1 + cos theta)/2 peaks on axis (declared deviation from the
      sign-ambiguous textbook form; validated by the symmetry tests)
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, fields

import numpy as np

from .optim import check_positive
from .tensorize import Columns

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OcuGeometry:
    """Physical layout of one OCU.

    ``num_layers`` counts planes including the output plane, so the device
    has ``num_layers - 1`` metalines.  The port position arrays are private
    read-only copies, so the diffraction matrices memoized per geometry
    object cannot go stale.
    """

    wavelength: float = 1.55e-6
    slab_index: float = 2.85
    slot_index: float = 1.44
    layer_gap: float = 75e-6          # L1, plane-to-plane propagation distance
    aperture: float = 300e-6          # L2, transverse extent of the slab
    metaunit_period: float = 1.5e-6   # p
    num_layers: int = 3               # M planes, metalines = M - 1
    metaunits_per_layer: int = 50     # V
    num_inputs: int = 9               # H^2 waveguide ports
    input_positions: np.ndarray = field(default=None, repr=False)
    output_positions: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if not (self.wavelength > 0):
            raise ValueError("wavelength must be positive")
        if not (self.slab_index > self.slot_index > 0):
            raise ValueError("indices must satisfy slab_index > slot_index > 0")
        if not (self.layer_gap > 0):
            raise ValueError("layer_gap must be positive")
        if not (self.aperture > 0 and self.metaunit_period > 0):
            raise ValueError("aperture and metaunit_period must be positive")
        if self.num_layers < 2:
            raise ValueError("num_layers counts planes incl. output; need >= 2")
        if self.metaunits_per_layer < 1 or self.num_inputs < 1:
            raise ValueError("metaunits_per_layer and num_inputs must be >= 1")
        span = self.metaunits_per_layer * self.metaunit_period
        if span > self.aperture * (1 + 1e-12):
            raise ValueError(
                f"metaline span {span:.3g} m exceeds aperture {self.aperture:.3g} m"
            )
        if self.input_positions is None:
            pitch = self.aperture / (self.num_inputs + 1)
            ports = (np.arange(self.num_inputs) - (self.num_inputs - 1) / 2) * pitch
            object.__setattr__(self, "input_positions", ports)
        if self.output_positions is None:
            object.__setattr__(
                self, "output_positions",
                np.array([+self.aperture / 4, -self.aperture / 4]),
            )
        for name in ("input_positions", "output_positions"):
            pos = np.array(getattr(self, name), dtype=float)
            pos.setflags(write=False)
            object.__setattr__(self, name, pos)
        if len(self.input_positions) != self.num_inputs:
            raise ValueError("input_positions length must equal num_inputs")
        if len(self.output_positions) != 2:
            raise ValueError("exactly 2 output positions required (+/- ports)")
        half = self.aperture / 2 * (1 + 1e-12)
        for name in ("input_positions", "output_positions"):
            pos = getattr(self, name)
            if not np.all(np.isfinite(pos)):
                raise ValueError(f"{name} must be finite")
            if np.any(np.abs(pos) > half):
                raise ValueError(f"{name} must lie within +/- aperture/2")

    @property
    def metaline_count(self) -> int:
        return self.num_layers - 1

    def metaline_y(self) -> np.ndarray:
        """Transverse metaunit centers, pitch p, centered on the axis."""
        v = self.metaunits_per_layer
        return (np.arange(v) - (v - 1) / 2) * self.metaunit_period


def layout_positions(geom: OcuGeometry) -> list[np.ndarray]:
    """(x, y) coordinates of every plane of the device.

    Returns a list of ``num_layers + 1`` arrays of shape (k, 2): entry 0
    holds the input ports at x = 0, entries 1 .. M-1 the metalines at
    x = l * layer_gap, and entry M the two output ports at x = M * layer_gap.
    """
    planes = []
    ins = np.column_stack([np.zeros(geom.num_inputs), geom.input_positions])
    planes.append(ins)
    y = geom.metaline_y()
    for layer in range(1, geom.num_layers):
        x = layer * geom.layer_gap
        planes.append(np.column_stack([np.full_like(y, x), y]))
    x_out = geom.num_layers * geom.layer_gap
    outs = np.column_stack(
        [np.full(2, x_out), geom.output_positions]
    )
    planes.append(outs)
    return planes


def slot_length_from_phase(delta_phi, geom: OcuGeometry):
    """Metaunit slot length w2 realizing a given phase delay.

    The phase is reduced into the principal range before conversion;
    training keeps phases unwrapped and only this export step wraps them.
    An exact nonzero multiple of 2*pi maps to the full-wave length
    lambda/(n1 - n2) rather than to zero.
    """
    phi = np.asarray(delta_phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("phase delay must be finite")
    if geom.slab_index == geom.slot_index:
        raise ValueError("slab and slot index must differ (phase has no length)")
    wrapped = np.mod(phi, TWO_PI)
    wrapped = np.where((wrapped == 0.0) & (phi != 0.0), TWO_PI, wrapped)
    w2 = geom.wavelength * wrapped / (TWO_PI * (geom.slab_index - geom.slot_index))
    return float(w2) if np.isscalar(delta_phi) or phi.ndim == 0 else w2


# ---------------------------------------------------------------------------
# diffraction and phase masks
# ---------------------------------------------------------------------------

def diffraction_matrix(src, dst, geom: OcuGeometry) -> np.ndarray:
    """Huygens-Fresnel coupling matrix between two planes.

    ``src`` is a (U, 2) array of source points, ``dst`` a (V, 2) array of
    destinations; the result is (V, U) with entry (v, u) =
    1/(j*lambda) * (1 + cos theta)/(2 r) * exp(j 2 pi r n1 / lambda),
    where r is the point distance and cos theta = |dx| / r.  A global
    factor eta * exp(j dpsi) on every matrix is left out: balanced
    square-law detection cancels the phase, and a unit's trained detection
    gain absorbs the amplitude.
    """
    src = np.atleast_2d(np.asarray(src, dtype=float))
    dst = np.atleast_2d(np.asarray(dst, dtype=float))
    dx = dst[:, 0][:, None] - src[:, 0][None, :]
    dy = dst[:, 1][:, None] - src[:, 1][None, :]
    r = np.hypot(dx, dy)
    if np.any(r <= 0):
        raise ValueError("coincident source/destination point (r = 0)")
    cos_theta = np.abs(dx) / r
    lam = geom.wavelength
    obliquity = (1.0 + cos_theta) / (2.0 * r)
    propagator = np.exp(1j * TWO_PI * r * geom.slab_index / lam)
    return (1.0 / (1j * lam)) * obliquity * propagator


def phase_mask_matrix(phases) -> np.ndarray:
    """Diagonal metaline transfer matrix diag(exp(j * phi_v))."""
    phases = np.asarray(phases, dtype=float)
    if not np.all(np.isfinite(phases)):
        raise ValueError("phases must be finite")
    return np.diag(np.exp(1j * phases))


# propagation_matrices' memo: geometry object -> its read-only matrices,
# dropped when the geometry is (OcuGeometry hashes by identity)
_PROPAGATION = weakref.WeakKeyDictionary()


def propagation_matrices(geom: OcuGeometry) -> list[np.ndarray]:
    """All plane-to-plane diffraction matrices [F1, ..., FM].

    F1 is (V, H^2), interior matrices are (V, V), and FM is (2, V).  They
    are computed on the first call for a geometry object and then shared:
    every call returns a fresh list of the same read-only arrays.
    """
    mats = _PROPAGATION.get(geom)
    if mats is None:
        planes = layout_positions(geom)
        mats = tuple(
            diffraction_matrix(planes[i], planes[i + 1], geom)
            for i in range(len(planes) - 1)
        )
        for m in mats:
            m.setflags(write=False)
        _PROPAGATION[geom] = mats
    return list(mats)


# ---------------------------------------------------------------------------
# the device model and the cascade engine
# ---------------------------------------------------------------------------

@dataclass
class OcuModel:
    """Geometry plus trainable state: one phase vector per metaline and a
    detection gain.  Phases are stored unwrapped (gradient-friendly) and
    only wrapped modulo 2*pi when exporting slot lengths."""

    geometry: OcuGeometry
    phases: np.ndarray            # (M-1, V) radians
    detection_gain: float = 1.0   # kappa, finite and > 0

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=float)
        expected = (self.geometry.metaline_count, self.geometry.metaunits_per_layer)
        if self.phases.shape != expected:
            raise ValueError(f"phases must have shape {expected}, got {self.phases.shape}")
        if not np.all(np.isfinite(self.phases)):
            raise ValueError("phases must be finite")
        check_positive("detection_gain", self.detection_gain)

    @classmethod
    def random_init(cls, geom: OcuGeometry, rng: np.random.Generator) -> "OcuModel":
        """Phases uniform in [0, 2*pi), unit gain."""
        shape = (geom.metaline_count, geom.metaunits_per_layer)
        return cls(geom, rng.uniform(0.0, TWO_PI, size=shape), 1.0)


@dataclass
class TransferPartials:
    """The one-sided cascade of a bank of units: what the detection engine
    and the phase adjoint need, and no more.

    Every array carries the bank's leading unit axes ``...`` first; a single
    unit has none.  ``total`` is the collapsed (..., 2, H^2) device matrix.
    For metaline l, ``left[l]`` (..., 2, V) maps the field leaving that
    metaline to the output ports, so total == (left[0] * masks[..., 0, :])
    @ fs[0].  ``fs`` are the geometry's diffraction matrices [F1, ..., FM],
    the memoized arrays of propagation_matrices.
    ``right[l]`` (..., V, H^2), which maps the inputs to the field arriving
    at metaline l, is not needed by either engine; it is built on first
    access, for checks of the split composition total == left[l] @
    diag(exp(j phi_l)) @ right[l].  ``quad`` holds the quadrature rows of
    ``total``, computed on first use.  Both lazy values are kept read-only.
    """

    total: np.ndarray
    left: list[np.ndarray]
    masks: np.ndarray  # exp(j * phases), (..., M-1, V)
    fs: list[np.ndarray]
    _quad: np.ndarray | None = field(default=None, init=False, repr=False)
    _right: tuple[np.ndarray, ...] | None = field(default=None, init=False, repr=False)

    @property
    def quad(self) -> np.ndarray:
        """quadrature_rows(total): (C, 4q, H^2), (1, 4, H^2) for one unit."""
        if self._quad is None:
            self._quad = quadrature_rows(self.total)
            self._quad.setflags(write=False)
        return self._quad

    @property
    def right(self) -> tuple[np.ndarray, ...]:
        """Input-side partials, (..., V, H^2) per metaline, built on first use."""
        if self._right is None:
            lead = self.masks.shape[:-2]
            cur = np.broadcast_to(self.fs[0], lead + self.fs[0].shape)
            right = [cur]
            for l in range(self.masks.shape[-2] - 1):
                cur = self.fs[l + 1] @ (self.masks[..., l, :, None] * cur)
                cur.setflags(write=False)
                right.append(cur)
            self._right = tuple(right)
        return self._right


def stacked_transfer_partials(phases: np.ndarray, geometry: OcuGeometry) -> TransferPartials:
    """The cascade engine: transfer partials of any bank of units.

    ``phases`` is (..., M-1, V), one (M-1, V) phase set per unit.  All
    units share ``geometry`` and so its diffraction matrices, looked up in
    propagation_matrices; every product broadcasts over the leading unit
    axes.  Only the output side is chained, back to front: each step is a
    (2, V) product, and the last gives the device matrix.
    """
    fs = propagation_matrices(geometry)
    lead = phases.shape[:-2]
    n_meta = phases.shape[-2]
    masks = np.exp(1j * phases)

    left: list[np.ndarray] = [None] * n_meta
    # one unit skips broadcast_to, which costs more than its small products
    acc = np.broadcast_to(fs[-1], lead + fs[-1].shape) if lead else fs[-1]
    for l in range(n_meta - 1, -1, -1):
        left[l] = acc
        acc = (acc * masks[..., l, None, :]) @ fs[l]
    return TransferPartials(acc, left, masks, fs)


def transfer_partials(model: OcuModel) -> TransferPartials:
    """Transfer partials of one unit (no leading unit axes)."""
    return stacked_transfer_partials(model.phases, model.geometry)


def ocu_transfer(model: OcuModel) -> np.ndarray:
    """Collapsed (2, H^2) transfer matrix of the whole cascade."""
    return transfer_partials(model).total


def ocu_forward(model: OcuModel, patches) -> np.ndarray:
    """Propagate a patch matrix through the cascade.

    ``patches`` has H^2 rows (real, nonnegative amplitude encoding) and one
    column per sliding position; the result is the (2, n) complex response
    at the two output ports.  The product is real: the (4, H^2) rows
    [Re T; Im T] of the collapsed matrix T times the patches, one gemm,
    whose rows become the real and imaginary parts of the response.
    """
    values = np.asarray(patches)
    if np.iscomplexobj(values):
        raise ValueError("patch matrix must be real")
    if values.ndim != 2 or values.shape[0] != model.geometry.num_inputs:
        raise ValueError(
            f"patch matrix must have {model.geometry.num_inputs} rows, "
            f"got shape {values.shape}"
        )
    total = ocu_transfer(model)
    fields = np.concatenate([total.real, total.imag]) @ values
    response = np.empty((2, values.shape[1]), dtype=complex)
    response.real = fields[:2]
    response.imag = fields[2:]
    return response


def balanced_detect(response: np.ndarray, gain: float) -> np.ndarray:
    """Balanced photodetection: kappa * (|R1|^2 - |R2|^2) per column."""
    response = np.asarray(response)
    if response.ndim != 2 or response.shape[0] != 2:
        raise ValueError("response must be a 2-row matrix (positive/negative port)")
    r1, r2 = response
    return gain * (np.abs(r1) ** 2 - np.abs(r2) ** 2)


# ---------------------------------------------------------------------------
# the detection engine: balanced detection in real quadratures
# ---------------------------------------------------------------------------

# Detection walks the patch columns in blocks whose (C, 4q, width) float64
# field array takes about this many bytes, so a block's fields stay in L2 cache;
# the electrical twin sizes its (C*H^2, width) patch blocks the same way.  A
# streamed source rounds the width to whole padded image rows.  float32 blocks
# have the same width (twice as wide measured slower on the desk layers).
BLOCK_BYTES = 1 << 20

# detector sign of a unit's four quadrature rows: port+ re/im, port- re/im
_PORT_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
_TWICE_PORT_SIGNS = 2.0 * _PORT_SIGNS


@dataclass
class OcuGradients:
    phases: np.ndarray        # (..., M-1, V)
    gain: float | np.ndarray  # dJ/d signed gain, (...)
    patches: np.ndarray | None  # dJ/d the column source's input, see bank_vjp


def quadrature_rows(total: np.ndarray) -> np.ndarray:
    """(C, 4q, H^2) real rows of (q, C, 2, H^2) collapsed matrices, or (2, H^2)
    for one unit: port+ re/im and port- re/im, ordered (quadrature, kernel).

    One copy of the interleaved re/im view of ``total``, whose last axis
    must be contiguous, as the engine's matrices are."""
    q, c = total.shape[:-2] or (1, 1)
    h2 = total.shape[-1]
    a = total.view(float).reshape(q, c, 2, h2, 2)       # (q, C, port, H^2, re/im)
    return np.ascontiguousarray(a.transpose(1, 2, 4, 0, 3)).reshape(c, 4 * q, h2)


def _frame(quad: np.ndarray, weights: np.ndarray, dtype):
    """(k, rows, weights) that the engine applies to columns of ``dtype``.

    float64 columns take the quadrature rows and the weights of the squared
    fields as they are, with k = 0.  float32 columns take them in a frame
    scaled by exact powers of two, each scaled in float64 and then cast: the
    rows by 2^-k, with k the binary exponent of max |quad|, and the weights
    by 4^k.  Every detected value is unchanged, and the fields stay within
    float32's range however large the physical fields are; a reduction over
    the fields (s0 of bank_vjp) is scaled back by 2^k.
    """
    if dtype != np.float32:
        return 0, quad, weights
    k = int(np.frexp(np.abs(quad).max())[1])
    return k, np.ldexp(quad, -k).astype(np.float32), np.ldexp(weights, 2 * k).astype(np.float32)


def block_width(rows: int) -> int:
    """Columns of a block whose (rows, width) float64 array takes BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (8 * rows))


def _count(cols) -> int:
    """Columns of a real (C, H^2, n) patch array or of a column source."""
    return cols.shape[-1] if isinstance(cols, np.ndarray) else cols.n


_ALL = slice(None)


def _block_fields(src, quad):
    """(column slice, (C, H^2, width) patches, (C, 4q, width) real fields) of
    every block of column source ``src``, or of a real (C, H^2, n) patch
    array.  An array of at most one block's width is its own block, in a
    tuple: an SRP epoch detects 45 probe columns, where a column source and
    generators cost more than the product.  Else the fields of every block
    are written into one array, valid until the next block is yielded: a
    fresh array per block can cost more in page faults than the product."""
    width = block_width(quad.shape[0] * quad.shape[1])
    if isinstance(src, np.ndarray):
        if src.shape[-1] <= width:
            return ((_ALL, src, np.matmul(quad, src)),)
        src = Columns(src)
    return _streamed_fields(src, quad, width)


def _streamed_fields(src, quad, width):
    fields = None
    for blk, cols in src.blocks(width):
        if fields is None:
            fields = np.empty(quad.shape[:2] + cols.shape[-1:], dtype=quad.dtype)
        yield blk, cols, np.matmul(quad, cols, out=fields[:, :, :cols.shape[-1]])


def bank_detect(quad: np.ndarray, cols, gains: np.ndarray) -> np.ndarray:
    """Balanced detection of a bank, summed over channels: (q, n), from its
    quadrature rows, real patch columns (C, H^2, n) or a column source of n
    columns, and (q, C) signed gains.  The work and the output take the
    columns' dtype, float32 or float64."""
    c, q = quad.shape[0], quad.shape[1] // 4
    # gain-weighted sum over channels and quadratures, one gemv per kernel;
    # the weights of a unit's rows are +-gain exactly
    _, quad, wt = _frame(quad, gains[..., None] * _PORT_SIGNS, cols.dtype)
    wt = wt.reshape(q, 1, 4 * c)
    out = np.empty((q, _count(cols)), dtype=quad.dtype)
    for blk, _, f in _block_fields(cols, quad):
        np.square(f, out=f)
        np.matmul(wt, f.reshape(4 * c, q, -1).transpose(1, 0, 2), out=out[:, None, blk])
    return out


def bank_unit_outputs(quad: np.ndarray, cols) -> np.ndarray:
    """|R+|^2 - |R-|^2 of every unit, before gain and sign: (q, C, n)."""
    c, q = quad.shape[0], quad.shape[1] // 4
    out = np.empty((c, q, _count(cols)))
    for blk, _, f in _block_fields(cols, quad):
        f = f.reshape(c, 4, q, -1)
        out[:, :, blk] = (f[:, 0] ** 2 + f[:, 1] ** 2) - (f[:, 2] ** 2 + f[:, 3] ** 2)
    return out.transpose(1, 0, 2)


def phase_adjoint(partials: TransferPartials, s: np.ndarray) -> np.ndarray:
    """Exact phase gradient of a unit or bank from its patch reduction.

    ``s`` is the (..., H^2, 2) complex reduction patches @ rbar^T of the
    response adjoint rbar = 2 dJ/d conj(R) over the data columns, with the
    leading unit axes of ``partials``.  Returns dJ/dphases, (..., M-1, V).

    The conjugated reduction is swept forward through the device, two
    columns per unit: w_l = right[l] @ conj(s) is the (..., V, 2) field it
    makes at metaline l, and dJ/dphi_l = -Im(m_l * sum_o w_l[:, o] *
    left[l][o, :]).
    """
    masks, fs = partials.masks, partials.fs
    dphases = np.empty(masks.shape)
    w = fs[0] @ np.conj(s)
    for l, left in enumerate(partials.left):
        if l > 0:
            w = fs[l] @ (masks[..., l - 1, :, None] * w)
        g = w[..., 0] * left[..., 0, :]
        g += w[..., 1] * left[..., 1, :]
        g *= masks[..., l, :]
        np.negative(g.imag, out=dphases[..., l, :])
    return dphases


def bank_vjp(partials: TransferPartials, cols, gains: np.ndarray, grad: np.ndarray,
             need_patch_grad: bool = True) -> OcuGradients:
    """Exact adjoint of bank_detect with the quadrature rows of ``partials``,
    for the output gradient ``grad`` (q, n); the phase and gain gradients take
    the unit axes of ``partials``, if any.

    The patch gradient is with respect to the input of the column source:
    the (C, H^2, n) array itself when ``cols`` is one, else the source's
    ``gradient()``, such as the input batch of streamed windows.  It takes
    the columns' dtype; the phase and gain gradients are float64.
    """
    quad = partials.quad
    c, q, h2 = quad.shape[0], quad.shape[1] // 4, quad.shape[2]
    src = Columns(cols) if need_patch_grad and isinstance(cols, np.ndarray) else cols
    wt2 = gains[..., None] * _TWICE_PORT_SIGNS     # (q, C, 4), 2 w per row
    k, rows, rows_wt2 = _frame(quad, wt2, cols.dtype)

    # The field adjoint is rbar = 2 w g f for row weight w.  Per block,
    # f becomes u = g f in place; s0 = cols . u^T and dcols = (2 w quad)^T . u.
    # In a scaled frame u is 2^-k times its value and (2 w quad) 2^k times.
    s0 = np.zeros((c, h2, 4 * q))
    if need_patch_grad:
        quad_w = (rows_wt2.transpose(1, 2, 0).reshape(c, 4 * q, 1) * rows).transpose(0, 2, 1)
    for blk, block, u in _block_fields(src, rows):
        per_kernel = u.reshape(c, 4, q, -1)
        per_kernel *= grad[:, blk]
        s0 += np.matmul(block, u.transpose(0, 2, 1))
        if need_patch_grad:
            src.add_grad(blk, np.matmul(quad_w, u))
    if k:
        s0 = np.ldexp(s0, k)

    # sum_n g f^2 of a row is its quad row dotted with its s0 column
    gf2 = np.add.reduce(quad * s0.transpose(0, 2, 1), -1).reshape(c, 4, q)
    lead = partials.masks.shape[:-2]
    dgain = (_PORT_SIGNS @ gf2).T.reshape(lead)

    # complex patch reduction S[m, c, :, port] = sum_n cols (rbar_re + j rbar_im),
    # written through the (port, re/im) float view of its last axis
    s = np.empty(lead + (h2, 2), dtype=complex)
    np.multiply(s0.reshape(c, h2, 4, q).transpose(3, 0, 1, 2), wt2[:, :, None],
                out=s.view(float).reshape(q, c, h2, 4))
    dcols = src.gradient() if need_patch_grad else None
    return OcuGradients(phase_adjoint(partials, s), dgain, dcols)


def ocu_vjp(model: OcuModel, patches: np.ndarray, grad_detected: np.ndarray,
            partials: TransferPartials, need_patch_grad: bool = True) -> OcuGradients:
    """Vector-Jacobian product of one unit's detected output, a 1x1 bank.

    Given g = dJ/dy for the balanced-detected vector y, returns the exact
    gradients of J with respect to every phase, the gain, and (optionally)
    the real input patches; ``partials`` is transfer_partials(model).
    """
    g = np.asarray(grad_detected, dtype=float)
    grads = bank_vjp(partials, np.asarray(patches)[None], np.array(model.detection_gain, ndmin=2),
                     g[None], need_patch_grad)
    grads.gain = float(grads.gain)
    if need_patch_grad:
        grads.patches = grads.patches[0]
    return grads


# ---------------------------------------------------------------------------
# fabrication records
# ---------------------------------------------------------------------------

GEOMETRY_COLUMNS = ("layer", "metaunit", "y_um", "delta_phi_rad", "w2_nm")


def geometry_records(model: OcuModel):
    """Rows of GEOMETRY_COLUMNS for fabrication, phases wrapped to [0, 2 pi)."""
    geom = model.geometry
    y = geom.metaline_y()
    rows = []
    for l in range(geom.metaline_count):
        wrapped = np.mod(model.phases[l], TWO_PI)
        w2 = slot_length_from_phase(wrapped, geom)
        for v in range(geom.metaunits_per_layer):
            rows.append((l + 1, v, float(y[v] * 1e6), float(wrapped[v]),
                         float(w2[v] * 1e9)))
    return rows
