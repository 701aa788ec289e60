import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocusim.optics import (
    OcuGeometry,
    OcuModel,
    balanced_detect,
    diffraction_matrix,
    geometry_records,
    layout_positions,
    ocu_forward,
    ocu_transfer,
    ocu_vjp,
    phase_adjoint,
    phase_mask_matrix,
    propagation_matrices,
    slot_length_from_phase,
    stacked_transfer_partials,
    transfer_partials,
    write_geometry_csv,
)

from helpers import (
    einsum_stacked_partials,
    naive_chain,
    naive_diffraction_entry,
    phase_adjoint_loop,
)

TWO_PI = 2.0 * math.pi


def small_geometry(v=5, inputs=4, layers=3, **kw):
    return OcuGeometry(metaunits_per_layer=v, num_inputs=inputs, num_layers=layers, **kw)


# ---------------------------------------------------------------------------
# geometry and slot synthesis
# ---------------------------------------------------------------------------

class TestGeometry:
    def test_defaults_valid(self):
        geom = OcuGeometry()
        assert geom.metaline_count == 2
        assert len(geom.input_positions) == 9
        assert len(geom.output_positions) == 2

    def test_rejects_swapped_indices(self):
        with pytest.raises(ValueError):
            OcuGeometry(slab_index=1.44, slot_index=2.85)

    def test_rejects_metaline_overflow(self):
        # 300 metaunits at 1.5 um pitch exceed the 300 um aperture
        with pytest.raises(ValueError):
            OcuGeometry(metaunits_per_layer=300)

    def test_rejects_out_of_aperture_ports(self):
        with pytest.raises(ValueError):
            OcuGeometry(input_positions=np.linspace(-1e-3, 1e-3, 9))

    def test_rejects_wrong_output_count(self):
        with pytest.raises(ValueError):
            OcuGeometry(output_positions=np.array([0.0]))

    def test_rejects_single_plane(self):
        with pytest.raises(ValueError):
            OcuGeometry(num_layers=1)


class TestSlotLength:
    def test_zero_phase_zero_length(self):
        assert slot_length_from_phase(0.0, OcuGeometry()) == 0.0

    def test_full_wave_length(self):
        # direct evaluation at 2*pi: lambda / (n1 - n2)
        geom = OcuGeometry()
        expected = 1.55e-6 / (2.85 - 1.44)
        value = slot_length_from_phase(TWO_PI, geom)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(1.0993e-6, rel=1e-4)

    def test_linear_in_phase(self):
        geom = OcuGeometry()
        assert slot_length_from_phase(math.pi, geom) == pytest.approx(
            slot_length_from_phase(TWO_PI, geom) / 2, rel=1e-12)

    def test_wraps_outside_principal_range(self):
        geom = OcuGeometry()
        assert slot_length_from_phase(TWO_PI + 1.0, geom) == pytest.approx(
            slot_length_from_phase(1.0, geom), rel=1e-12)
        assert slot_length_from_phase(-0.5, geom) == pytest.approx(
            slot_length_from_phase(TWO_PI - 0.5, geom), rel=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            slot_length_from_phase(math.nan, OcuGeometry())

    def test_rejects_equal_indices(self):
        geom = OcuGeometry()
        object.__setattr__(geom, "slot_index", geom.slab_index)
        with pytest.raises(ValueError):
            slot_length_from_phase(1.0, geom)


class TestLayout:
    def test_ten_units_span(self):
        geom = small_geometry(v=10, layers=4, aperture=15e-6)
        y = geom.metaline_y()
        assert y.size * geom.metaunit_period == pytest.approx(15e-6)
        assert y.max() + y.min() == pytest.approx(0.0, abs=1e-20)
        assert np.allclose(np.diff(y), geom.metaunit_period)

    def test_single_unit_centered(self):
        geom = small_geometry(v=1)
        assert geom.metaline_y() == pytest.approx([0.0])

    def test_fifty_units_span(self):
        geom = OcuGeometry()
        assert geom.metaunits_per_layer * geom.metaunit_period == pytest.approx(75e-6)

    def test_plane_coordinates(self):
        geom = small_geometry(layers=3)
        planes = layout_positions(geom)
        assert len(planes) == 4  # inputs, 2 metalines, outputs
        assert np.all(planes[0][:, 0] == 0.0)
        assert np.all(planes[1][:, 0] == geom.layer_gap)
        assert np.all(planes[2][:, 0] == 2 * geom.layer_gap)
        assert np.all(planes[3][:, 0] == 3 * geom.layer_gap)
        assert planes[3][:, 1] == pytest.approx(
            [geom.aperture / 4, -geom.aperture / 4])


# ---------------------------------------------------------------------------
# diffraction matrix
# ---------------------------------------------------------------------------

class TestDiffraction:
    def test_on_axis_magnitude(self):
        geom = OcuGeometry()
        m = diffraction_matrix([(0.0, 0.0)], [(geom.layer_gap, 0.0)], geom)
        assert abs(m[0, 0]) == pytest.approx(
            1.0 / (geom.wavelength * geom.layer_gap), rel=1e-12)

    def test_mirror_symmetry_exact(self):
        geom = OcuGeometry()
        src = [(0.0, 0.0)]
        m = diffraction_matrix(src, [(75e-6, 4e-6), (75e-6, -4e-6)], geom)
        assert m[0, 0] == m[1, 0]

    def test_matches_scalar_oracle(self):
        geom = OcuGeometry(amplitude_coeff=0.7, phase_coeff=0.3)
        p = geom.metaunit_period
        src = [(0.0, -p), (0.0, 0.0), (0.0, +p)]
        dst = [(geom.layer_gap, -p), (geom.layer_gap, 0.0), (geom.layer_gap, +p)]
        m = diffraction_matrix(src, dst, geom)
        for v in range(3):
            for u in range(3):
                expected = naive_diffraction_entry(
                    src[u], dst[v], geom.wavelength, geom.slab_index,
                    geom.amplitude_coeff, geom.phase_coeff)
                assert m[v, u] == pytest.approx(expected, rel=1e-12)

    def test_reciprocity(self):
        geom = OcuGeometry()
        src = [(0.0, -2e-6), (0.0, 1e-6)]
        dst = [(75e-6, 3e-6), (75e-6, -1e-6), (75e-6, 0.0)]
        fwd = diffraction_matrix(src, dst, geom)
        # propagate "backwards": same |dx|, same transverse offsets
        back = diffraction_matrix(dst, src, geom)
        assert np.array_equal(fwd, back.T)

    def test_rejects_coincident_points(self):
        geom = OcuGeometry()
        with pytest.raises(ValueError):
            diffraction_matrix([(0.0, 0.0)], [(0.0, 0.0)], geom)


class TestPhaseMask:
    def test_zero_phases_identity(self):
        assert np.array_equal(phase_mask_matrix(np.zeros(4)), np.eye(4))

    def test_unit_magnitude(self):
        m = phase_mask_matrix(np.array([0.3, 2.0, 4.0]))
        assert np.abs(np.diag(m)) == pytest.approx(np.ones(3), rel=1e-15)

    def test_euler_values(self):
        m = phase_mask_matrix(np.array([math.pi / 2, math.pi]))
        assert m[0, 0] == pytest.approx(1j, abs=1e-15)
        assert m[1, 1] == pytest.approx(-1.0, abs=1e-15)
        assert m[0, 1] == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            phase_mask_matrix(np.array([math.inf]))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_norm_preservation(self, seed):
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0, TWO_PI, 6)
        field = rng.normal(size=6) + 1j * rng.normal(size=6)
        out = phase_mask_matrix(phases) @ field
        assert np.linalg.norm(out) == pytest.approx(
            np.linalg.norm(field), rel=1e-12)


# ---------------------------------------------------------------------------
# cascade forward model
# ---------------------------------------------------------------------------

class TestCascade:
    def test_zero_patches_zero_response(self):
        geom = small_geometry()
        model = OcuModel.random_init(geom, np.random.default_rng(0))
        out = ocu_forward(model, np.zeros((4, 6)))
        assert np.all(out == 0)

    def test_linearity(self):
        geom = small_geometry()
        model = OcuModel.random_init(geom, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        p1 = rng.random((4, 7))
        p2 = rng.random((4, 7))
        lhs = ocu_forward(model, 2.5 * p1 + 0.7 * p2)
        rhs = 2.5 * ocu_forward(model, p1) + 0.7 * ocu_forward(model, p2)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=0)

    def test_matches_naive_chain(self):
        # M=3, V=5, H^2=4, G^2=2 against an explicit left-to-right product
        geom = small_geometry(v=5, inputs=4, layers=3)
        rng = np.random.default_rng(3)
        model = OcuModel.random_init(geom, rng)
        patches = rng.random((4, 2))
        fs = propagation_matrices(geom)
        t1 = phase_mask_matrix(model.phases[0])
        t2 = phase_mask_matrix(model.phases[1])
        expected = naive_chain([fs[2], t2, fs[1], t1, fs[0], patches.astype(complex)])
        got = ocu_forward(model, patches)
        assert np.allclose(got, expected, rtol=1e-12, atol=0)

    def test_rejects_wrong_row_count(self):
        geom = small_geometry()
        model = OcuModel.random_init(geom, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ocu_forward(model, np.zeros((5, 3)))

    def test_split_composition(self):
        geom = small_geometry(v=6, inputs=4, layers=4)
        model = OcuModel.random_init(geom, np.random.default_rng(4))
        patches = np.random.default_rng(5).random((4, 3))
        full = ocu_forward(model, patches)
        parts = transfer_partials(model)
        for layer in range(geom.metaline_count):
            staged = parts.left[layer] @ (
                parts.masks[layer][:, None] * (parts.right[layer] @ patches))
            assert np.allclose(staged, full, rtol=1e-12, atol=0)

    @staticmethod
    def bank(seed):
        """A (2, 3) bank of units sharing one geometry."""
        geom = small_geometry(v=6, inputs=4, layers=4)
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0, TWO_PI, size=(2, 3, geom.metaline_count, 6))
        return geom, propagation_matrices(geom), phases, rng

    def test_stacked_matches_single(self):
        # every unit of the bank is its own naive cascade, and splits at each metaline
        geom, fs, phases, rng = self.bank(6)
        bank = stacked_transfer_partials(phases, fs)
        patches = rng.random((4, 3))
        for unit in np.ndindex(2, 3):
            chain = [fs[0]]
            for layer in range(geom.metaline_count):
                chain = [fs[layer + 1], phase_mask_matrix(phases[unit][layer])] + chain
            assert np.allclose(bank.total[unit], naive_chain(chain), rtol=1e-12, atol=0)
            full = bank.total[unit] @ patches
            for layer in range(geom.metaline_count):
                staged = bank.left[layer][unit] @ (
                    bank.masks[unit][layer][:, None] * (bank.right[layer][unit] @ patches))
                assert np.allclose(staged, full, rtol=1e-12, atol=0)

    def test_stacked_matches_einsum_oracle(self):
        geom, fs, phases, rng = self.bank(7)
        bank = stacked_transfer_partials(phases, fs)
        flat = phases.reshape(6, geom.metaline_count, -1)
        oracle = einsum_stacked_partials(flat, fs)
        total, right, left, _ = oracle

        def assert_rel(got, expected):
            got = got.reshape(expected.shape)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

        assert_rel(bank.total, total)
        for layer in range(geom.metaline_count):
            assert_rel(bank.right[layer], right[layer])
            assert_rel(bank.left[layer], left[layer])
        s = rng.normal(size=(2, 3, 4, 2)) + 1j * rng.normal(size=(2, 3, 4, 2))
        assert_rel(phase_adjoint(bank, s), phase_adjoint_loop(oracle, s.reshape(6, 4, 2)))


class TestBalancedDetect:
    def test_equal_ports_cancel(self):
        r = np.array([[1 + 2j, -0.5j], [1 + 2j, -0.5j]])
        assert np.all(balanced_detect(r, 3.0) == 0)

    def test_square_law(self):
        out = balanced_detect(np.array([[1 + 1j], [0 + 0j]]), 1.0)
        assert out == pytest.approx([2.0])

    def test_gain_and_sign(self):
        out = balanced_detect(np.array([[1 + 1j, 0], [0, 2 + 0j]]), 0.5)
        assert out == pytest.approx([1.0, -2.0])

    def test_odd_under_port_swap(self):
        rng = np.random.default_rng(7)
        r = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        swapped = r[::-1]
        assert np.array_equal(balanced_detect(swapped, 1.7),
                              -balanced_detect(r, 1.7))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            balanced_detect(np.zeros((3, 4), dtype=complex), 1.0)


class TestModelValidation:
    def test_rejects_bad_phase_shape(self):
        geom = small_geometry()
        with pytest.raises(ValueError):
            OcuModel(geom, np.zeros((1, 5)))

    def test_rejects_nonpositive_gain(self):
        geom = small_geometry()
        phases = np.zeros((geom.metaline_count, geom.metaunits_per_layer))
        with pytest.raises(ValueError):
            OcuModel(geom, phases, 0.0)

    def test_random_init_deterministic(self):
        geom = small_geometry()
        a = OcuModel.random_init(geom, np.random.default_rng(42))
        b = OcuModel.random_init(geom, np.random.default_rng(42))
        assert np.array_equal(a.phases, b.phases)


class TestGeometryExport:
    def test_records_shape_and_range(self):
        geom = small_geometry(v=4, layers=3)
        model = OcuModel.random_init(geom, np.random.default_rng(8))
        model.phases[0, 0] = 7.0  # unwrapped on purpose
        rows = geometry_records(model)
        assert len(rows) == geom.metaline_count * 4
        w2_max = geom.wavelength / (geom.slab_index - geom.slot_index) * 1e9
        for layer, unit, y_um, phi, w2_nm in rows:
            assert 1 <= layer <= geom.metaline_count
            assert 0.0 <= phi < TWO_PI
            assert 0.0 <= w2_nm <= w2_max

    def test_csv_header(self, tmp_path):
        geom = small_geometry(v=3)
        model = OcuModel.random_init(geom, np.random.default_rng(9))
        path = tmp_path / "geom.csv"
        with open(path, "w") as f:
            write_geometry_csv(model, f)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "layer,metaunit,y_um,delta_phi_rad,w2_nm"
        assert len(lines) == 1 + geom.metaline_count * 3
