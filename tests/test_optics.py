import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocusim import optics
from ocusim.optics import (
    OcuGeometry,
    OcuModel,
    balanced_detect,
    bank_detect,
    bank_unit_outputs,
    bank_vjp,
    diffraction_matrix,
    geometry_records,
    layout_positions,
    ocu_forward,
    ocu_transfer,
    ocu_vjp,
    phase_adjoint,
    phase_mask_matrix,
    propagation_matrices,
    quadrature_rows,
    slot_length_from_phase,
    stacked_transfer_partials,
    transfer_partials,
)

from ocusim.nn import OclLayer
from ocusim.srp import FitConfig, fit_kernel, generate_pattern

from helpers import (
    bank_detect_whole,
    bank_vjp_whole,
    complex_ocu_vjp,
    einsum_stacked_partials,
    naive_chain,
    naive_diffraction_entry,
    phase_adjoint_loop,
    quadrature_rows_concat,
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

    @pytest.mark.parametrize("name", [
        "wavelength", "slab_index", "slot_index", "layer_gap", "aperture",
        "metaunit_period"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_field(self, name, value):
        with pytest.raises(ValueError, match=name):
            OcuGeometry(**{name: value})

    @pytest.mark.parametrize("name", ["aperture", "metaunit_period"])
    @pytest.mark.parametrize("value", [0.0, -1e-6])
    def test_rejects_non_positive_extent(self, name, value):
        with pytest.raises(ValueError, match=name):
            OcuGeometry(**{name: value})

    @pytest.mark.parametrize("name", ["input_positions", "output_positions"])
    def test_rejects_non_finite_ports(self, name):
        count = 9 if name == "input_positions" else 2
        pos = np.zeros(count)
        pos[0] = np.nan
        with pytest.raises(ValueError, match=name):
            OcuGeometry(**{name: pos})

    def test_port_positions_are_read_only_copies(self):
        ports = np.linspace(-1e-4, 1e-4, 9)
        geom = OcuGeometry(input_positions=ports)
        ports[0] = 0.0
        assert geom.input_positions[0] == -1e-4
        for pos in (geom.input_positions, geom.output_positions):
            with pytest.raises(ValueError):
                pos[0] = 0.0


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
        geom = OcuGeometry()
        p = geom.metaunit_period
        src = [(0.0, -p), (0.0, 0.0), (0.0, +p)]
        dst = [(geom.layer_gap, -p), (geom.layer_gap, 0.0), (geom.layer_gap, +p)]
        m = diffraction_matrix(src, dst, geom)
        for v in range(3):
            for u in range(3):
                expected = naive_diffraction_entry(
                    src[u], dst[v], geom.wavelength, geom.slab_index)
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


class TestPropagationMatrices:
    @staticmethod
    def fresh(geom):
        planes = layout_positions(geom)
        return [diffraction_matrix(a, b, geom) for a, b in zip(planes, planes[1:])]

    def test_equal_to_fresh_diffraction_matrices(self):
        for geom in (OcuGeometry(), small_geometry(v=6, inputs=4, layers=4)):
            for _ in range(2):     # the computing call, then the memoized one
                got = propagation_matrices(geom)
                expected = self.fresh(geom)
                assert len(got) == len(expected) == geom.num_layers
                for a, b in zip(got, expected):
                    assert np.array_equal(a, b)

    def test_arrays_read_only_list_fresh(self):
        geom = small_geometry()
        fs = propagation_matrices(geom)
        for m in fs:
            with pytest.raises(ValueError):
                m[0, 0] = 0.0
        fs.pop()
        again = propagation_matrices(geom)
        assert again is not fs and len(again) == geom.num_layers
        assert all(a is b for a, b in zip(fs, again))

    def test_equal_but_distinct_geometries(self):
        near = small_geometry(v=5)
        far = small_geometry(v=5, layer_gap=90e-6)
        twin = small_geometry(v=5)
        for geom in (near, far, twin):
            for a, b in zip(propagation_matrices(geom), self.fresh(geom)):
                assert np.array_equal(a, b)
        assert not np.array_equal(propagation_matrices(near)[0], propagation_matrices(far)[0])
        assert propagation_matrices(twin)[0] is not propagation_matrices(near)[0]

    def test_engine_reads_the_memo(self):
        # the cascade takes its diffraction matrices from the geometry's memo
        geom = small_geometry(v=5)
        model = OcuModel.random_init(geom, np.random.default_rng(4))
        bank = stacked_transfer_partials(np.stack([model.phases] * 2), geom)
        for parts in (transfer_partials(model), bank):
            assert all(a is b for a, b in zip(parts.fs, propagation_matrices(geom), strict=True))

    def test_memo_dropped_with_geometry(self):
        geom = small_geometry(v=7)
        propagation_matrices(geom)
        ref = weakref.ref(geom)
        del geom
        gc.collect()
        assert ref() is None


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

    @pytest.mark.parametrize("geom", [OcuGeometry(), small_geometry(v=6, inputs=4, layers=4),
                                      small_geometry(v=3, inputs=1, layers=2)])
    def test_real_product_matches_complex_product(self, geom):
        rng = np.random.default_rng(6)
        model = OcuModel.random_init(geom, rng)
        expected_rows = ocu_transfer(model)
        for n in (0, 1, 5, 257):
            patches = rng.random((geom.num_inputs, n))
            got = ocu_forward(model, patches)
            expected = expected_rows @ patches.astype(complex)
            assert got.shape == (2, n) and got.dtype == complex
            scale = max(np.abs(expected).max(initial=0.0), 1e-300)
            assert np.abs(got - expected).max(initial=0.0) <= 1e-12 * scale

    def test_rejects_complex_patches(self):
        geom = small_geometry()
        model = OcuModel.random_init(geom, np.random.default_rng(0))
        with pytest.raises(ValueError, match="real"):
            ocu_forward(model, np.ones((4, 3), dtype=complex))

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
        bank = stacked_transfer_partials(phases, geom)
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
        bank = stacked_transfer_partials(phases, geom)
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

    @settings(deadline=None, max_examples=60)
    @given(layers=st.integers(2, 6), v=st.integers(1, 12), inputs=st.sampled_from([1, 4, 9]),
           lead=st.sampled_from([(), (3,), (2, 3)]), seed=st.integers(0, 2 ** 32 - 1))
    def test_one_sided_engine_matches_two_sided_oracle(self, layers, v, inputs, lead, seed):
        # the output-side chain and the forward adjoint sweep equal the
        # two-sided einsum cascade, and so does the right chain built on demand
        geom = small_geometry(v=v, inputs=inputs, layers=layers)
        fs = propagation_matrices(geom)
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0, TWO_PI, size=lead + (layers - 1, v))
        s = rng.normal(size=lead + (inputs, 2)) + 1j * rng.normal(size=lead + (inputs, 2))
        k = math.prod(lead)
        oracle = einsum_stacked_partials(phases.reshape(k, layers - 1, v), fs)
        total, right, left, _ = oracle
        bank = stacked_transfer_partials(phases, geom)

        def assert_rel(got, expected):
            assert got.shape == lead + expected.shape[1:]
            got = got.reshape(expected.shape)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

        assert_rel(bank.total, total)
        assert len(bank.left) == len(bank.right) == layers - 1
        for layer in range(layers - 1):
            assert_rel(bank.left[layer], left[layer])
            assert_rel(bank.right[layer], right[layer])
        assert_rel(phase_adjoint(bank, s), phase_adjoint_loop(oracle, s.reshape(k, inputs, 2)))

    def test_right_is_built_once_and_read_only(self):
        geom, _, phases, _ = self.bank(8)
        bank = stacked_transfer_partials(phases, geom)
        right = bank.right
        assert bank.right is right
        for part in right:
            with pytest.raises(ValueError):
                part[...] = 0.0

    def test_engines_never_build_right(self, monkeypatch):
        # SRP epochs, ocu_forward and both passes of an OclLayer need only the
        # output-side partials
        def built(self):
            raise AssertionError("the right partials were built")

        monkeypatch.setattr(optics.TransferPartials, "right", property(built))
        geom = small_geometry(v=6, inputs=4, layers=4)
        rng = np.random.default_rng(9)
        model = OcuModel.random_init(geom, rng)
        fit = fit_kernel(model, np.eye(2), generate_pattern(1, 8), FitConfig(epochs=3))
        assert len(fit.history) == 3
        ocu_forward(model, rng.random((4, 5)))
        layer = OclLayer(geom, kernels=2, channels=3, rng=rng, pad=1)
        x = rng.random((2, 3, 5, 5))
        out = layer.forward(x, training=True)
        for need_input_grad in (True, False):
            layer.backward(np.ones_like(out), need_input_grad)


class TestDetectionEngine:
    """The real-quadrature engine equals the complex single-unit path."""

    @staticmethod
    def assert_rel(got, expected):
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("need_patch_grad", [True, False])
    @pytest.mark.parametrize("width", [None, 7])
    def test_unit_matches_complex_path(self, need_patch_grad, width, monkeypatch):
        if width is not None:   # 30 columns in ragged blocks of 7
            monkeypatch.setattr(optics, "BLOCK_BYTES", width * 8 * 4)
        geom = small_geometry(v=6, inputs=9, layers=4)
        rng = np.random.default_rng(21)
        model = OcuModel(geom, rng.uniform(0, TWO_PI, (3, 6)), 2.5e-21)
        patches = rng.random((9, 30))
        g = rng.standard_normal(30)
        partials = transfer_partials(model)
        response = ocu_forward(model, patches)
        quad, cols = quadrature_rows(partials.total), patches[None]

        self.assert_rel(bank_detect(quad, cols, np.full((1, 1), model.detection_gain))[0],
                        balanced_detect(response, model.detection_gain))
        self.assert_rel(bank_unit_outputs(quad, cols)[0, 0], balanced_detect(response, 1.0))

        grads = ocu_vjp(model, patches, g, partials, need_patch_grad)
        dphases, dgain, dpatches = complex_ocu_vjp(model, patches, g, partials, response,
                                                   need_patch_grad)
        self.assert_rel(grads.phases, dphases)
        assert grads.gain == pytest.approx(dgain, rel=1e-12)
        if need_patch_grad:
            self.assert_rel(grads.patches, dpatches)
        else:
            assert grads.patches is None

    @pytest.mark.parametrize("lead", [(), (1, 1), (1, 3), (4, 2)])
    def test_equals_engine_as_first_written_bitwise(self, lead):
        # quadrature rows, detection and its adjoint perform the operations of
        # helpers.bank_detect_whole and bank_vjp_whole in the same order; the
        # gains take both signs, as port_sign makes them
        q, c = lead or (1, 1)
        geom = small_geometry(v=6, inputs=9, layers=4)
        rng = np.random.default_rng(24 + 3 * q + c)
        partials = stacked_transfer_partials(rng.uniform(0, TWO_PI, lead + (3, 6)), geom)
        cols = rng.random((c, 9, 40))
        gains = rng.uniform(0.5, 2.0, (q, c)) * rng.choice([-1.0, 1.0], (q, c))
        grad = rng.standard_normal((q, 40))
        quad = quadrature_rows(partials.total)
        assert quad.tobytes() == quadrature_rows_concat(partials.total).tobytes()
        assert bank_detect(quad, cols, gains).tobytes() == \
            bank_detect_whole(quad, cols, gains).tobytes()
        dphases, dgain, dcols = bank_vjp_whole(partials, cols, gains, grad)
        for need_patch_grad in (True, False):
            grads = bank_vjp(partials, cols, gains, grad, need_patch_grad)
            assert grads.phases.tobytes() == dphases.tobytes()
            assert np.asarray(grads.gain).tobytes() == dgain.tobytes()
            if need_patch_grad:
                assert grads.patches.tobytes() == dcols.tobytes()

    def test_quadrature_rows_built_once_per_partials(self, monkeypatch):
        real = optics.quadrature_rows
        calls = []
        monkeypatch.setattr(optics, "quadrature_rows",
                            lambda total: calls.append(total.shape) or real(total))
        geom = small_geometry(v=6, inputs=9, layers=4)
        rng = np.random.default_rng(22)
        model = OcuModel(geom, rng.uniform(0, TWO_PI, (3, 6)), 1.5)
        partials = transfer_partials(model)
        patches, g = rng.random((9, 12)), rng.standard_normal(12)
        for _ in range(2):
            ocu_vjp(model, patches, g, partials)
        assert calls == [(2, 9)]
        assert partials.quad.tobytes() == real(partials.total).tobytes()
        assert not partials.quad.flags.writeable


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

    @pytest.mark.parametrize("gain", [np.inf, np.nan])
    def test_rejects_non_finite_gain(self, gain):
        geom = small_geometry()
        phases = np.zeros((geom.metaline_count, geom.metaunits_per_layer))
        with pytest.raises(ValueError, match="detection_gain"):
            OcuModel(geom, phases, gain)

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
