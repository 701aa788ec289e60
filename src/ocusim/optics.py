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
    * the one detection engine (bank_detect, bank_vjp) serves the
      optical convolution layer and SRP, one unit being a 1x1 bank; it
      applies 4 real quadrature rows per unit to the blocks of a column
      source (tensorize): a plain (C, H^2, n) patch array, or the windows
      of a padded batch streamed without a patch matrix.
      ocu_forward/balanced_detect are the complex reference.
    * the obliquity angle uses cos(theta) = |dx| / r so the factor
      (1 + cos theta)/2 peaks on axis (declared deviation from the
      sign-ambiguous textbook form; validated by the symmetry tests)
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .tensorize import Columns

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OcuGeometry:
    """Physical layout of one OCU.

    ``num_layers`` counts planes including the output plane, so the device
    has ``num_layers - 1`` metalines.  ``slot_height`` is recorded for
    fabrication export but plays no role in the 2-D slab model.
    """

    wavelength: float = 1.55e-6
    slab_index: float = 2.85
    slot_index: float = 1.44
    layer_gap: float = 75e-6          # L1, plane-to-plane propagation distance
    aperture: float = 300e-6          # L2, transverse extent of the slab
    metaunit_period: float = 1.5e-6   # p
    slot_width: float = 200e-9        # w1
    slot_gap: float = 500e-9          # g
    slot_height: float = 220e-9       # h, unused by the 2-D model
    num_layers: int = 3               # M planes, metalines = M - 1
    metaunits_per_layer: int = 50     # V
    num_inputs: int = 9               # H^2 waveguide ports
    amplitude_coeff: float = 1.0      # eta
    phase_coeff: float = 0.0          # delta-psi
    input_positions: np.ndarray = field(default=None, repr=False)
    output_positions: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if not (self.wavelength > 0):
            raise ValueError("wavelength must be positive")
        if not (self.slab_index > self.slot_index > 0):
            raise ValueError("indices must satisfy slab_index > slot_index > 0")
        if not (self.layer_gap > 0):
            raise ValueError("layer_gap must be positive")
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
        else:
            object.__setattr__(
                self, "input_positions",
                np.asarray(self.input_positions, dtype=float),
            )
        if self.output_positions is None:
            object.__setattr__(
                self, "output_positions",
                np.array([+self.aperture / 4, -self.aperture / 4]),
            )
        else:
            object.__setattr__(
                self, "output_positions",
                np.asarray(self.output_positions, dtype=float),
            )
        if len(self.input_positions) != self.num_inputs:
            raise ValueError("input_positions length must equal num_inputs")
        if len(self.output_positions) != 2:
            raise ValueError("exactly 2 output positions required (+/- ports)")
        half = self.aperture / 2 * (1 + 1e-12)
        for name in ("input_positions", "output_positions"):
            pos = getattr(self, name)
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
    1/(j*lambda) * (1 + cos theta)/(2 r) * exp(j 2 pi r n1 / lambda)
    * eta * exp(j dpsi), where r is the point distance and
    cos theta = |dx| / r.
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
    coeff = geom.amplitude_coeff * np.exp(1j * geom.phase_coeff)
    return (1.0 / (1j * lam)) * obliquity * propagator * coeff


def phase_mask_matrix(phases) -> np.ndarray:
    """Diagonal metaline transfer matrix diag(exp(j * phi_v))."""
    phases = np.asarray(phases, dtype=float)
    if not np.all(np.isfinite(phases)):
        raise ValueError("phases must be finite")
    return np.diag(np.exp(1j * phases))


def propagation_matrices(geom: OcuGeometry) -> list[np.ndarray]:
    """All plane-to-plane diffraction matrices [F1, ..., FM].

    F1 is (V, H^2), interior matrices are (V, V), and FM is (2, V).
    """
    planes = layout_positions(geom)
    return [
        diffraction_matrix(planes[i], planes[i + 1], geom)
        for i in range(len(planes) - 1)
    ]


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
    detection_gain: float = 1.0   # kappa, > 0

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=float)
        expected = (self.geometry.metaline_count, self.geometry.metaunits_per_layer)
        if self.phases.shape != expected:
            raise ValueError(f"phases must have shape {expected}, got {self.phases.shape}")
        if not np.all(np.isfinite(self.phases)):
            raise ValueError("phases must be finite")
        if not (self.detection_gain > 0):
            raise ValueError("detection_gain must be positive")

    @classmethod
    def random_init(cls, geom: OcuGeometry, rng: np.random.Generator) -> "OcuModel":
        """Phases uniform in [0, 2*pi), unit gain."""
        shape = (geom.metaline_count, geom.metaunits_per_layer)
        return cls(geom, rng.uniform(0.0, TWO_PI, size=shape), 1.0)


@dataclass
class TransferPartials:
    """Cumulative transfer products around each metaline of a bank of units.

    Every array carries the bank's leading unit axes ``...`` first; a single
    unit has none.  ``total`` is the collapsed (..., 2, H^2) device matrix.
    For metaline l, ``right[l]`` (..., V, H^2) maps the inputs to the field
    arriving at that metaline and ``left[l]`` (..., 2, V) maps the field
    leaving it to the output ports, so for every unit and every l
    total == left[l] @ diag(exp(j phi_l)) @ right[l].
    """

    total: np.ndarray
    right: list[np.ndarray]
    left: list[np.ndarray]
    masks: np.ndarray  # exp(j * phases), (..., M-1, V)


def stacked_transfer_partials(phases: np.ndarray, fs: list[np.ndarray]) -> TransferPartials:
    """The cascade engine: transfer partials of any bank of units.

    ``phases`` is (..., M-1, V), one (M-1, V) phase set per unit.  All
    units share one geometry and so the diffraction matrices ``fs``; every
    product broadcasts over the leading unit axes.
    """
    lead = phases.shape[:-2]
    n_meta = phases.shape[-2]
    masks = np.exp(1j * phases)

    right = []
    cur = np.broadcast_to(fs[0], lead + fs[0].shape)
    for l in range(n_meta):
        right.append(cur)
        cur = fs[l + 1] @ (masks[..., l, :, None] * cur)

    left: list[np.ndarray] = [None] * n_meta
    acc = np.broadcast_to(fs[-1], lead + fs[-1].shape)
    for l in range(n_meta - 1, -1, -1):
        left[l] = acc
        if l > 0:
            acc = (acc * masks[..., l, None, :]) @ fs[l]
    return TransferPartials(cur, right, left, masks)


def transfer_partials(model: OcuModel, fs: list[np.ndarray] | None = None) -> TransferPartials:
    """Transfer partials of one unit (no leading unit axes)."""
    if fs is None:
        fs = propagation_matrices(model.geometry)
    return stacked_transfer_partials(model.phases, fs)


def ocu_transfer(model: OcuModel, fs: list[np.ndarray] | None = None) -> np.ndarray:
    """Collapsed (2, H^2) transfer matrix of the whole cascade."""
    return transfer_partials(model, fs).total


def ocu_forward(model: OcuModel, patches, fs: list[np.ndarray] | None = None) -> np.ndarray:
    """Propagate a patch matrix through the cascade.

    ``patches`` has H^2 rows (real, nonnegative amplitude encoding) and one
    column per sliding position; the result is the (2, n) complex response
    at the two output ports.
    """
    values = np.asarray(patches)
    if values.ndim != 2 or values.shape[0] != model.geometry.num_inputs:
        raise ValueError(
            f"patch matrix must have {model.geometry.num_inputs} rows, "
            f"got shape {values.shape}"
        )
    return ocu_transfer(model, fs) @ values


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
# streamed source rounds the width to whole padded image rows.
BLOCK_BYTES = 1 << 20

# detector sign of a unit's four quadrature rows: port+ re/im, port- re/im
_PORT_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


@dataclass
class OcuGradients:
    phases: np.ndarray        # (..., M-1, V)
    gain: float | np.ndarray  # dJ/d signed gain, (...)
    patches: np.ndarray | None  # dJ/d the column source's input, see bank_vjp


def quadrature_rows(total: np.ndarray) -> np.ndarray:
    """(C, 4q, H^2) real rows of (q, C, 2, H^2) collapsed matrices, or (2, H^2)
    for one unit: port+ re/im and port- re/im, ordered (quadrature, kernel)."""
    q, c = total.shape[:-2] or (1, 1)
    a = total.reshape(q, c, 2, 1, -1)
    quad = np.concatenate([a.real, a.imag], axis=3)     # (q, C, port, re/im, H^2)
    return np.ascontiguousarray(quad.transpose(1, 2, 3, 0, 4)).reshape(c, 4 * q, -1)


def _row_weights(gains: np.ndarray) -> np.ndarray:
    """Signed gain of every quadrature row, (C, 4q), from (q, C) unit gains."""
    eff = gains.T
    return (_PORT_SIGNS[None, :, None] * eff[:, None, :]).reshape(eff.shape[0], -1)


def block_width(rows: int) -> int:
    """Columns of a block whose (rows, width) float64 array takes BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (8 * rows))


def _source(cols):
    """A real (C, H^2, n) patch array as a column source; a source as it is."""
    return Columns(cols) if isinstance(cols, np.ndarray) else cols


def _block_fields(src, quad):
    """Yield (column slice, (C, H^2, width) patches, (C, 4q, width) real
    fields) over the blocks of column source ``src``.  The fields of every
    block are written into one array, valid until the next block is yielded:
    a fresh array per block can cost more in page faults than the product."""
    width = block_width(quad.shape[0] * quad.shape[1])
    fields = None
    for blk, cols in src.blocks(width):
        if fields is None:
            fields = np.empty(quad.shape[:2] + cols.shape[-1:])
        yield blk, cols, np.matmul(quad, cols, out=fields[:, :, :cols.shape[-1]])


def bank_detect(quad: np.ndarray, cols, gains: np.ndarray) -> np.ndarray:
    """Balanced detection of a bank, summed over channels: (q, n), from its
    quadrature rows, real patch columns (C, H^2, n) or a column source of n
    columns, and (q, C) signed gains."""
    c, q = quad.shape[0], quad.shape[1] // 4
    src = _source(cols)
    # gain-weighted sum over channels and quadratures, one gemv per kernel
    wt = np.ascontiguousarray(_row_weights(gains).reshape(-1, q).T)[:, None, :]
    out = np.empty((q, src.n))
    for blk, _, f in _block_fields(src, quad):
        np.square(f, out=f)
        f = f.reshape(4 * c, q, -1).transpose(1, 0, 2)
        out[:, blk] = np.matmul(wt, f)[:, 0]
    return out


def bank_unit_outputs(quad: np.ndarray, cols) -> np.ndarray:
    """|R+|^2 - |R-|^2 of every unit, before gain and sign: (q, C, n)."""
    c, q = quad.shape[0], quad.shape[1] // 4
    src = _source(cols)
    out = np.empty((c, q, src.n))
    for blk, _, f in _block_fields(src, quad):
        f = f.reshape(c, 4, q, -1)
        out[:, :, blk] = (f[:, 0] ** 2 + f[:, 1] ** 2) - (f[:, 2] ** 2 + f[:, 3] ** 2)
    return out.transpose(1, 0, 2)


def phase_adjoint(partials: TransferPartials, s: np.ndarray) -> np.ndarray:
    """Exact phase gradient of a unit or bank from its patch reduction.

    ``s`` is the (..., H^2, 2) complex reduction patches @ rbar^T of the
    response adjoint rbar = 2 dJ/d conj(R) over the data columns, with the
    leading unit axes of ``partials``.  Returns dJ/dphases, (..., M-1, V).
    """
    s_conj = np.conj(s)
    dphases = np.empty(partials.masks.shape)
    for l, (right, left) in enumerate(zip(partials.right, partials.left)):
        p = right @ s_conj                                   # (..., V, 2)
        gv = partials.masks[..., l, :] * np.einsum("...vo,...ov->...v", p, left)
        dphases[..., l, :] = -np.imag(gv)
    return dphases


def bank_vjp(partials: TransferPartials, quad: np.ndarray, cols,
             gains: np.ndarray, grad: np.ndarray, need_patch_grad: bool = True) -> OcuGradients:
    """Exact adjoint of bank_detect for the output gradient ``grad`` (q, n); the
    phase and gain gradients take the unit axes of ``partials``, if any.

    The patch gradient is with respect to the input of the column source:
    the (C, H^2, n) array itself when ``cols`` is one, else the source's
    ``gradient()``, such as the input batch of streamed windows.
    """
    c, q, h2 = quad.shape[0], quad.shape[1] // 4, quad.shape[2]
    src = _source(cols)
    wt2 = 2.0 * _row_weights(gains)

    # The field adjoint is rbar = 2 w g f for row weight w.  Per block,
    # f becomes u = g f in place; s0 = cols . u^T and dcols = (2 w quad)^T . u.
    s0 = np.zeros((c, h2, 4 * q))
    quad_w = (wt2[:, :, None] * quad).transpose(0, 2, 1)
    for blk, block, u in _block_fields(src, quad):
        per_kernel = u.reshape(c, 4, q, -1)
        per_kernel *= grad[:, blk]
        s0 += np.matmul(block, u.transpose(0, 2, 1))
        if need_patch_grad:
            src.add_grad(blk, np.matmul(quad_w, u))

    # sum_n g f^2 of a row is its quad row dotted with its s0 column
    gf2 = np.einsum("crh,chr->cr", quad, s0).reshape(c, 4, q)
    lead = partials.masks.shape[:-2]
    dgain = (_PORT_SIGNS @ gf2).T.reshape(lead)

    # complex patch reduction S[m, c, :, port] = sum_n cols (rbar_re + j rbar_im)
    s = (s0 * wt2[:, None, :]).reshape(c, h2, 2, 2, q)
    s = (s[:, :, :, 0] + 1j * s[:, :, :, 1]).transpose(3, 0, 1, 2).reshape(lead + (h2, 2))
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
    grads = bank_vjp(partials, quadrature_rows(partials.total), np.asarray(patches)[None],
                     np.full((1, 1), model.detection_gain), g[None], need_patch_grad)
    dpatches = grads.patches[0] if need_patch_grad else None
    return OcuGradients(grads.phases, float(grads.gain), dpatches)


# ---------------------------------------------------------------------------
# fabrication export
# ---------------------------------------------------------------------------

def geometry_records(model: OcuModel):
    """Rows of (layer, metaunit, y_um, delta_phi_rad, w2_nm) for fabrication."""
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


def write_geometry_csv(model: OcuModel, fileobj) -> None:
    writer = csv.writer(fileobj)
    writer.writerow(["layer", "metaunit", "y_um", "delta_phi_rad", "w2_nm"])
    for row in geometry_records(model):
        writer.writerow([row[0], row[1], repr(row[2]), repr(row[3]), repr(row[4])])
