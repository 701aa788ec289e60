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
    * the obliquity angle uses cos(theta) = |dx| / r so the factor
      (1 + cos theta)/2 peaks on axis (declared deviation from the
      sign-ambiguous textbook form; validated by the symmetry tests)
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

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

    def copy(self) -> "OcuModel":
        return OcuModel(self.geometry, self.phases.copy(), self.detection_gain)


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
# exact adjoint (backward) pass
# ---------------------------------------------------------------------------

@dataclass
class OcuGradients:
    phases: np.ndarray        # (M-1, V)
    gain: float               # dJ/d kappa
    patches: np.ndarray | None  # dJ/d patch matrix, (H^2, n)


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


def ocu_vjp(
    model: OcuModel,
    patches: np.ndarray,
    grad_detected: np.ndarray,
    partials: TransferPartials,
    response: np.ndarray,
    need_patch_grad: bool = True,
) -> OcuGradients:
    """Vector-Jacobian product of the detected output.

    Given g = dJ/dy for the balanced-detected vector y, returns the exact
    gradients of J with respect to every phase, the gain, and (optionally)
    the real input patches.  ``partials`` and ``response`` must come from
    the forward evaluation of the same model on the same patches.
    """
    g = np.asarray(grad_detected, dtype=float)
    r1, r2 = response
    diff = np.abs(r1) ** 2 - np.abs(r2) ** 2
    dgain = float(np.dot(g, diff))

    kappa = model.detection_gain
    # adjoint of the complex response, rbar = 2 dJ/d conj(R)
    rbar = np.empty_like(response)
    rbar[0] = 2.0 * kappa * g * r1
    rbar[1] = -2.0 * kappa * g * r2

    # S = patches @ rbar^T is the only reduction touching the data columns
    dphases = phase_adjoint(partials, patches @ rbar.T)

    dpatches = None
    if need_patch_grad:
        a = partials.total
        dpatches = a.real.T @ rbar.real + a.imag.T @ rbar.imag
    return OcuGradients(dphases, dgain, dpatches)


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
