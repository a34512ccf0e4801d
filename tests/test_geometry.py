"""Curve primitives, curve fitting, and the lookup-table library."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize._numdiff import approx_derivative

from kinoplan.geometry import (CurveLibrary, CurveParams, LibraryConfig, Pose,
                               build_curve_library, curvature_at,
                               endpoint_jacobian, fit_curve, heading_change,
                               integrate_endpoint, max_abs_curvature,
                               normalize_angle, sample_curve_poses)


def straight(s_f):
    return CurveParams(0.0, 0.0, 0.0, 0.0, s_f)


class TestPose:
    def test_theta_normalized(self):
        assert Pose(0.0, 0.0, 3.0 * math.pi).theta == pytest.approx(math.pi)

    def test_transform_then_local_offset_roundtrip(self):
        base = Pose(1.0, -2.0, 0.7)
        other = base.transform(3.0, 0.5, -0.2)
        dx, dy, dth = base.local_offset(other)
        assert (dx, dy, dth) == pytest.approx((3.0, 0.5, -0.2))

    @given(st.floats(-100.0, 100.0))
    def test_normalize_angle_range(self, theta):
        t = normalize_angle(theta)
        assert -math.pi < t <= math.pi
        assert math.isclose(math.sin(t), math.sin(theta), abs_tol=1e-9)
        assert math.isclose(math.cos(t), math.cos(theta), abs_tol=1e-9)


class TestCurvature:
    def test_zero_polynomial(self):
        assert curvature_at(straight(5.0), 3.0) == 0.0

    def test_constant_term(self):
        assert curvature_at(CurveParams(0.1, 0.0, 0.0, 0.0, 6.0), 5.0) == 0.1

    def test_cubic_evaluation(self):
        p = CurveParams(0.0, 0.01, 0.002, 0.0003, 3.0)
        assert curvature_at(p, 2.0) == pytest.approx(0.0304, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            curvature_at(straight(2.0), 3.0)
        with pytest.raises(ValueError):
            heading_change(straight(2.0), -0.5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CurveParams(0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            CurveParams(math.nan, 0.0, 0.0, 0.0, 1.0)

    def test_reversed_is_mirrored_curvature(self):
        p = CurveParams(0.1, -0.02, 0.005, -0.001, 3.0)
        r = p.reversed()
        for s in np.linspace(0.0, p.s_f, 7):
            assert curvature_at(r, s) == pytest.approx(
                -curvature_at(p, p.s_f - s), abs=1e-12)


class TestHeadingChange:
    def test_straight(self):
        assert heading_change(straight(10.0), 10.0) == 0.0

    def test_constant_curvature(self):
        assert heading_change(CurveParams(0.2, 0.0, 0.0, 0.0, 6.0), 5.0) == \
            pytest.approx(1.0, abs=1e-12)

    def test_linear_term(self):
        p = CurveParams(0.0, 0.04, 0.0, 0.0, 4.0)
        assert heading_change(p, 3.0) == pytest.approx(0.18, abs=1e-12)

    @given(st.floats(-0.3, 0.3), st.floats(-0.05, 0.05), st.floats(-0.01, 0.01),
           st.floats(-0.002, 0.002), st.floats(0.1, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_equals_quadrature(self, k0, a, b, c, s):
        p = CurveParams(k0, a, b, c, 8.0)
        ref, _ = quad(lambda u: curvature_at(p, u), 0.0, s, epsabs=1e-12)
        assert heading_change(p, s) == pytest.approx(ref, abs=1e-9)


class TestIntegrateEndpoint:
    def test_straight_line(self):
        assert integrate_endpoint(straight(7.0)) == pytest.approx((7.0, 0.0, 0.0))

    def test_circular_arc(self):
        dx, dy, dth = integrate_endpoint(CurveParams(0.5, 0.0, 0.0, 0.0, math.pi))
        assert dx == pytest.approx(2.0, abs=1e-6)
        assert dy == pytest.approx(2.0, abs=1e-6)
        assert dth == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_against_adaptive_quadrature(self):
        p = CurveParams(0.0, 0.1, 0.01, 0.001, 4.0)
        ref_x, _ = quad(lambda s: math.cos(heading_change(p, s)), 0.0, p.s_f,
                        epsabs=1e-10, epsrel=1e-10)
        ref_y, _ = quad(lambda s: math.sin(heading_change(p, s)), 0.0, p.s_f,
                        epsabs=1e-10, epsrel=1e-10)
        dx, dy, _ = integrate_endpoint(p)
        assert dx == pytest.approx(ref_x, abs=1e-6)
        assert dy == pytest.approx(ref_y, abs=1e-6)


class TestSampleCurvePoses:
    def test_straight_spacing(self):
        poses = sample_curve_poses(straight(1.0), Pose(0.0, 0.0, 0.0), 0.5)
        assert [p.x for p in poses] == pytest.approx([0.0, 0.5, 1.0])
        assert all(p.y == 0.0 for p in poses)

    def test_rotated_base(self):
        poses = sample_curve_poses(straight(1.0), Pose(0.0, 0.0, math.pi / 2.0), 1.0)
        end = poses[-1]
        assert (end.x, end.y, end.theta) == pytest.approx(
            (0.0, 1.0, math.pi / 2.0), abs=1e-12)

    def test_arc_endpoint_matches_integration(self):
        p = CurveParams(0.5, 0.0, 0.0, 0.0, math.pi)
        poses = sample_curve_poses(p, Pose(0.0, 0.0, 0.0), math.pi / 2.0)
        dx, dy, dth = integrate_endpoint(p)
        assert (poses[-1].x, poses[-1].y) == pytest.approx((dx, dy), abs=1e-12)
        assert poses[-1].theta == pytest.approx(dth, abs=1e-12)

    def test_bad_ds(self):
        with pytest.raises(ValueError):
            sample_curve_poses(straight(1.0), Pose(0.0, 0.0, 0.0), 0.0)


class TestFitCurve:
    def test_straight_solution(self):
        p = fit_curve(0.0, (5.0, 0.0, 0.0), kappa_max=0.5)
        assert p is not None
        assert p.s_f == pytest.approx(5.0, abs=1e-3)
        assert max_abs_curvature(p) < 1e-4

    def test_recovers_circular_arc(self):
        p = fit_curve(0.5, (2.0, 2.0, math.pi / 2.0), kappa_max=0.7)
        assert p is not None
        assert p.kappa0 == 0.5
        assert p.s_f == pytest.approx(math.pi, abs=1e-2)
        dx, dy, dth = integrate_endpoint(p)
        assert (dx, dy, dth) == pytest.approx((2.0, 2.0, math.pi / 2.0), abs=1e-4)

    def test_curvature_bound_rejection(self):
        # A half-circle to (0, 2) needs kappa = 1; a bound of 0.2 forbids it.
        assert fit_curve(0.0, (0.001, 2.0, math.pi), kappa_max=0.2) is None

    def test_degenerate_goal(self):
        assert fit_curve(0.0, (0.0, 0.0, 0.0), kappa_max=0.5) is None


class TestEndpointJacobian:
    CASES = [
        (0.0, 0.0, 0.0, 0.0, 2.0),
        (0.3, -0.2, 0.05, -0.01, 3.7),
        (-0.5, 0.4, -0.1, 0.02, 1.3),
        (0.1, 0.3, -0.2, 0.04, 4.1),
        (0.0, 1.2, -0.9, 0.15, 2.5),
        (0.7, -0.6, 0.0, 0.0, 0.37),
    ]

    @pytest.mark.parametrize("k0,a,b,c,sf", CASES)
    def test_endpoint_is_integrate_endpoint(self, k0, a, b, c, sf):
        p = CurveParams(k0, a, b, c, sf)
        end, _ = endpoint_jacobian(p)
        assert tuple(end) == integrate_endpoint(p)

    @pytest.mark.parametrize("k0,a,b,c,sf", CASES)
    def test_matches_central_differences(self, k0, a, b, c, sf):
        _, jac = endpoint_jacobian(CurveParams(k0, a, b, c, sf))

        def endpoint(u):
            return np.array(integrate_endpoint(CurveParams(k0, *u)))

        numeric = approx_derivative(endpoint, np.array([a, b, c, sf]), method="3-point")
        np.testing.assert_allclose(jac, numeric, rtol=1e-5,
                                   atol=1e-7 * np.max(np.abs(numeric)))


class TestLibrary:
    # Populated cells of the default library, as {beta column j: r rows i}.
    DEFAULT_CELLS = {
        3: [5, 6], 4: [4, 5, 6], 5: [2, 3, 4, 5, 6, 7], 6: [1, 2, 3, 4, 5, 6, 7],
        7: list(range(8)), 8: list(range(8)), 9: list(range(8)),
        10: [1, 2, 3, 4, 5, 6, 7], 11: [2, 3, 4, 5, 6, 7], 12: [4, 5, 6], 13: [5, 6],
    }

    def test_default_cells(self, library):
        cells = {(i, j) for j, rows in self.DEFAULT_CELLS.items() for i in rows}
        assert len(cells) == 60
        assert set(library.entries) == cells

    def test_straight_cell(self, library):
        i, j = library.cell_index(2.0, 0.0)
        entry = library.entries[(i, j)]
        assert entry.beta == pytest.approx(0.0, abs=1e-9)
        assert entry.dy == pytest.approx(0.0, abs=1e-4)
        assert entry.params.s_f == pytest.approx(entry.r, abs=1e-3)

    def test_curvature_bound_holds_everywhere(self, library):
        for entry in library.entries.values():
            assert max_abs_curvature(entry.params) <= library.config.kappa_max + 1e-9
            assert entry.params.s_f <= library.config.max_arc_length + 1e-9

    def test_endpoint_on_target_circle(self, library):
        for entry in library.entries.values():
            assert math.hypot(entry.dx, entry.dy) == pytest.approx(entry.r, abs=1e-4)
            assert math.atan2(entry.dy, entry.dx) == pytest.approx(entry.beta, abs=1e-4)

    def test_reflection_symmetry(self, library):
        cfg = library.config
        for (i, j), entry in library.entries.items():
            mirror = library.entries.get((i, cfg.n_beta - 1 - j))
            assert mirror is not None, "asymmetric feasibility"
            assert mirror.dx == pytest.approx(entry.dx, abs=1e-3)
            assert mirror.dy == pytest.approx(-entry.dy, abs=1e-3)
            assert mirror.dtheta == pytest.approx(-entry.dtheta, abs=1e-3)

    def test_lookup_clamps(self, library):
        cfg = library.config
        assert library.cell_index(0.1, 0.0) == library.cell_index(cfg.r_min, 0.0)
        assert library.cell_index(100.0, 2.0) == \
            library.cell_index(cfg.r_max, cfg.beta_max)
        # Clamping is idempotent and lookup is total.
        assert library.lookup(1e6, -1e6) is library.lookup(cfg.r_max, cfg.beta_min)

    @staticmethod
    def argmin_cell(lib, r, beta):
        """The nearest cell by a full argmin scan over both grid axes."""
        cfg = lib.config
        r = min(max(r, cfg.r_min), cfg.r_max)
        beta = min(max(beta, cfg.beta_min), cfg.beta_max)
        r_grid = np.linspace(cfg.r_min, cfg.r_max, cfg.n_r)
        b_grid = np.linspace(cfg.beta_min, cfg.beta_max, cfg.n_beta)
        return (int(np.argmin(np.abs(r_grid - r))), int(np.argmin(np.abs(b_grid - beta))))

    @given(st.floats(-1.0, 8.0), st.floats(-3.0, 3.0))
    @settings(max_examples=500)
    def test_cell_index_matches_argmin(self, library, r, beta):
        assert library.cell_index(r, beta) == self.argmin_cell(library, r, beta)

    @given(st.floats(-5.0, 5.0), st.floats(0.01, 10.0), st.integers(1, 40),
           st.floats(-5.0, 5.0), st.floats(-1.0, 12.0), st.data())
    @settings(max_examples=300)
    def test_cell_index_matches_argmin_on_any_grid(self, r_min, r_span, n_r, r_lo, r_hi,
                                                    data):
        cfg = LibraryConfig(r_min=r_min, r_max=r_min + r_span, n_r=n_r)
        lib = CurveLibrary(cfg, {})
        grid = np.linspace(cfg.r_min, cfg.r_max, n_r)
        k = data.draw(st.integers(0, max(n_r - 2, 0)))
        upper = grid[min(k + 1, n_r - 1)]
        # Random values, clamped ones beyond both ends, grid points, exact
        # midpoints between neighbours and the floats next to them.
        mid = 0.5 * (grid[k] + upper)
        values = [r_lo, r_hi, r_min - 1.0, cfg.r_max + 1.0, grid[k], upper, mid,
                  np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf),
                  np.nextafter(grid[k], np.inf), np.nextafter(upper, -np.inf)]
        for r in values:
            for beta in (cfg.beta_min, 0.5 * (cfg.beta_min + cfg.beta_max), r_lo):
                assert lib.cell_index(float(r), beta) == self.argmin_cell(lib, float(r), beta)

    def test_cell_index_ties_go_to_the_lower_index(self):
        cfg = LibraryConfig(r_min=0.0, r_max=4.0, n_r=5, beta_min=-1.0, beta_max=1.0,
                            n_beta=3)
        lib = CurveLibrary(cfg, {})
        assert lib.cell_index(0.5, -0.5) == (0, 0)
        assert lib.cell_index(2.5, 0.5) == (2, 1)

    def test_exact_grid_lookup(self, library):
        entry = next(iter(library.entries.values()))
        assert library.lookup(entry.r, entry.beta) is entry

    def test_save_load_roundtrip(self, library, tmp_path):
        path = tmp_path / "lib.csv"
        library.save_csv(path)
        loaded = CurveLibrary.load_csv(path)
        assert loaded.entries.keys() == library.entries.keys()
        for key, entry in library.entries.items():
            other = loaded.entries[key]
            assert other.params == entry.params
            assert (other.dx, other.dy, other.dtheta) == \
                (entry.dx, entry.dy, entry.dtheta)

    @staticmethod
    def saved_lines(library, tmp_path):
        path = tmp_path / "lib.csv"
        library.save_csv(path)
        return path, path.read_text().splitlines()

    def test_load_rejects_truncated_row(self, library, tmp_path):
        path, lines = self.saved_lines(library, tmp_path)
        lines[7] = ",".join(lines[7].split(",")[:6])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"lib\.csv:8: 6 fields, expected 11"):
            CurveLibrary.load_csv(path)

    def test_load_rejects_wrong_version(self, library, tmp_path):
        path, lines = self.saved_lines(library, tmp_path)
        lines[0] = "# kinoplan curve library v9"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"lib\.csv:1: expected"):
            CurveLibrary.load_csv(path)

    @pytest.mark.parametrize("line,text,message", [
        (3, "1.0,4.0,-1.0,1.0,0.7,8,17", r":3: 7 fields, expected 8"),
        (3, "1.0,4.0,-1.0,1.0,0.7,8,x,4.14", r":3: bad header"),
        (3, "1.0,4.0,-1.0,1.0,0.7,0,17,4.14", r":3: bad header"),
        (5, "0,99,1,0,0,0,1,1,0,0,0", r":5: bad row: cell \(0, 99\)"),
        (5, "0,0,1,0,0,0,-1,1,0,0,0", r":5: bad row: invalid curve"),
        (5, "0,0,1,0,0,0,nope,1,0,0,0", r":5: bad row"),
    ])
    def test_load_reports_file_and_line(self, library, tmp_path, line, text, message):
        path, lines = self.saved_lines(library, tmp_path)
        lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            CurveLibrary.load_csv(path)

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "lib.csv"
        path.write_text("# kinoplan curve library v1\n# only comments\n")
        with pytest.raises(ValueError, match=r"lib\.csv:2: missing header"):
            CurveLibrary.load_csv(path)

    def test_single_cell_config(self):
        cfg = LibraryConfig(r_min=2.0, r_max=2.0, n_r=1, beta_min=0.0,
                            beta_max=0.0, n_beta=1)
        lib = build_curve_library(cfg)
        assert len(lib.entries) == 1
        entry = lib.entries[(0, 0)]
        assert entry.params.s_f == pytest.approx(2.0, abs=1e-3)
        assert max_abs_curvature(entry.params) < 1e-4

    def test_build_is_deterministic(self):
        cfg = LibraryConfig(n_r=3, n_beta=5)
        a = build_curve_library(cfg)
        b = build_curve_library(cfg)
        assert a.entries.keys() == b.entries.keys()
        for key in a.entries:
            assert a.entries[key].params == b.entries[key].params
