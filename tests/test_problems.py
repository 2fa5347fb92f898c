import numpy as np
import pytest

import gradcon as gc
from gradcon import fem, solver
from gradcon.mesh import UNIT_SQUARE, build_rect_mesh
from gradcon.problems import (ConstantAlpha, ConstantSource, HalfPlane,
                              HalfPlaneSource, MeasureLineAlpha,
                              MAX_CELLS, PiecewiseAlpha, PresetSource,
                              exact_solution_ex1, exact_solution_for, scenario)


def test_constant_alpha():
    mesh = build_rect_mesh(UNIT_SQUARE, 2, 2)
    assert float(ConstantAlpha(2.5).evaluate(mesh, 0.3, 0.9)) == 2.5


def test_constant_alpha_rejects_nonpositive():
    with pytest.raises(ValueError):
        ConstantAlpha(0.0)
    with pytest.raises(ValueError):
        ConstantAlpha(-1.0)


def test_piecewise_alpha_jump_along_antidiagonal():
    spec = PiecewiseAlpha(regions=((HalfPlane(1.0, 1.0, 1.0), 0.75),), default=1.0)
    mesh = build_rect_mesh(UNIT_SQUARE, 2, 2)
    assert float(spec.evaluate(mesh, 0.1, 0.1)) == 0.75
    assert float(spec.evaluate(mesh, 0.9, 0.9)) == 1.0


def test_piecewise_alpha_first_match_wins():
    spec = PiecewiseAlpha(regions=(
        (HalfPlane(1.0, 0.0, 0.5), 2.0),   # x <= 0.5
        (HalfPlane(0.0, 1.0, 0.5), 3.0),   # y <= 0.5
    ), default=4.0)
    mesh = build_rect_mesh(UNIT_SQUARE, 2, 2)
    assert float(spec.evaluate(mesh, 0.2, 0.2)) == 2.0
    assert float(spec.evaluate(mesh, 0.8, 0.2)) == 3.0
    assert float(spec.evaluate(mesh, 0.8, 0.8)) == 4.0


def test_piecewise_alpha_rejects_nonpositive():
    with pytest.raises(ValueError):
        PiecewiseAlpha(regions=((HalfPlane(1.0, 0.0, 0.5), -2.0),), default=1.0)


def test_measure_line_density():
    spec = MeasureLineAlpha(line_y=0.5, weight=100.0, base=1.0)
    mesh = build_rect_mesh(UNIT_SQUARE, 100, 100)  # h = 1e-2, strip clipped to [0, 0.5]
    assert float(spec.evaluate(mesh, 0.3, 0.499)) == pytest.approx(101.0, rel=1e-14)
    assert float(spec.evaluate(mesh, 0.3, 0.501)) == pytest.approx(1.0)


def test_measure_line_needs_a_mesh():
    with pytest.raises(ValueError, match="needs a mesh"):
        MeasureLineAlpha(line_y=0.5, weight=100.0, base=1.0).evaluate(None, 0.3, 0.3)


def test_measure_line_mass():
    # total mollified mass above the base equals weight * line length
    spec = MeasureLineAlpha(line_y=0.5, weight=100.0, base=1.0)
    mesh = build_rect_mesh(UNIT_SQUARE, 256, 256)
    ws = fem.build_workspace(mesh)
    aq = fem.at_qpoints(ws, lambda x, y: spec.evaluate(mesh, x, y))
    mass = fem.integrate(ws, aq - 1.0)
    assert mass == pytest.approx(100.0, rel=0.05)


def test_measure_line_strip_clipped_to_domain():
    spec = MeasureLineAlpha(line_y=0.5, weight=100.0, base=1.0)
    mesh = build_rect_mesh(UNIT_SQUARE, 8, 8)  # strip would extend far below the domain
    lo, hi = spec.strip_bounds(mesh)
    assert lo == 0.0 and hi == 0.5
    assert float(spec.evaluate(mesh, 0.5, 0.01)) == pytest.approx(1.0 + 8.0)


def test_sources():
    assert float(ConstantSource(0.25).evaluate(0.3, 0.3)) == 0.25
    src = HalfPlaneSource(HalfPlane(0.0, -1.0, -0.5), inside=0.25, outside=0.0)
    assert float(src.evaluate(0.3, 0.7)) == 0.25
    assert float(src.evaluate(0.3, 0.3)) == 0.0
    assert float(src.evaluate(0.3, 0.5)) == 0.25  # closed half-plane


def test_preset_source_cone_valley():
    src = PresetSource("cone_valley")
    x = np.array([0.1, 0.7, 0.95])
    y = np.array([0.1, 0.7, 0.95])
    vals = src.evaluate(x, y)
    assert vals[0] == pytest.approx(1e-3 + 0.5 * 0.02)      # paraboloid region
    assert vals[1] == pytest.approx(1e-3 + 1.0)             # cone apex
    base = min(0.2, 0.5 * (0.95**2 + 0.95**2))
    cone = 1.0 - 5.0 * np.sqrt(2 * 0.25**2)
    assert vals[2] == pytest.approx(1e-3 + max(base, cone))
    with pytest.raises(ValueError):
        PresetSource("no_such_preset")


@pytest.mark.parametrize("make", [
    lambda: ConstantAlpha(float("inf")),
    lambda: PiecewiseAlpha(regions=((HalfPlane(1.0, 0.0, 0.5), float("inf")),), default=1.0),
    lambda: MeasureLineAlpha(weight=float("inf")),
    lambda: MeasureLineAlpha(line_y=float("nan")),
    lambda: ConstantSource(float("nan")),
    lambda: HalfPlaneSource(HalfPlane(1.0, 1.0, 0.5), inside=float("inf")),
    lambda: HalfPlaneSource(HalfPlane(1.0, 1.0, 0.5), inside=1.0, outside=float("nan")),
    lambda: HalfPlane(float("nan"), 0.0, 0.0),
    lambda: HalfPlane(1.0, float("inf"), 0.0),
    lambda: HalfPlane(1.0, 1.0, float("-inf")),
])
def test_non_finite_data_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_exact_solution_values():
    u, p = exact_solution_ex1(1.0, 1.0)
    assert float(u(0.5, 0.5)) == 0.5
    vec = np.asarray(p(0.25, 0.5))
    assert np.allclose(vec, [-0.15625, 0.0], atol=1e-15)


def test_exact_solution_plateau_height():
    u, _ = exact_solution_ex1(0.25, 1.0)
    xs = np.linspace(0.0, 1.0, 513)
    X, Y = np.meshgrid(xs, xs)
    vals = u(X, Y)
    assert vals.max() == pytest.approx(0.25, abs=1e-14)
    u2, _ = exact_solution_ex1(1.0, 1.0)
    assert u2(X, Y).max() == pytest.approx(0.5, abs=1e-14)


def test_exact_solution_boundary_zero():
    u, _ = exact_solution_ex1(1.0, 1.0)
    s = np.linspace(0.0, 1.0, 257)
    zeros = np.zeros_like(s)
    for xb, yb in ((s, zeros), (s, zeros + 1.0), (zeros, s), (zeros + 1.0, s)):
        assert np.max(np.abs(u(xb, yb))) == 0.0


def test_exact_solution_feasible_gradient():
    # finite-difference gradient norm stays within the bound, kinks included
    u, _ = exact_solution_ex1(1.0, 1.0)
    n = 512
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs)
    vals = u(X, Y)
    h = 1.0 / n
    gx = (vals[1:-1, 2:] - vals[1:-1, :-2]) / (2 * h)
    gy = (vals[2:, 1:-1] - vals[:-2, 1:-1]) / (2 * h)
    assert np.max(np.hypot(gx, gy)) <= 1.0 + 1e-12


def test_exact_solution_sign_oracle():
    # balance residual of the interpolated pair is O(h); the negated flux is O(1)
    u_ex, p_ex = exact_solution_ex1(1.0, 1.0)
    dp = gc.DiscreteProblem.from_spec(scenario("ex1_f1_a1", n=32))
    P = fem.interpolate_rt0(dp.mesh, p_ex)
    U = fem.project_p0(dp.mesh, u_ex, ws=dp.workspace)
    res = np.linalg.norm(dp.areas * U + dp.B @ P - dp.load)
    res_flipped = np.linalg.norm(dp.areas * U + dp.B @ (-P) - dp.load)
    assert res < 2.0 * dp.mesh.h          # vanishes with the mesh
    assert res_flipped > 10.0 * res       # wrong orientation stays O(1)
    # downhill orientation: the flux opposes the gradient of u
    xs = np.linspace(0.01, 0.99, 101)
    X, Y = np.meshgrid(xs, xs)
    vals = u_ex(X, Y)
    g = np.gradient(vals, xs, xs)
    grad = np.stack([g[1], g[0]], axis=-1)
    pv = p_ex(X, Y)
    dots = np.einsum("ijd,ijd->ij", grad, pv)
    assert dots.max() <= 1e-12


def test_exact_solution_rejects_bad_constants():
    with pytest.raises(ValueError):
        exact_solution_ex1(0.0, 1.0)
    with pytest.raises(ValueError):
        exact_solution_ex1(1.0, -0.5)


def test_scenarios_complete():
    for name in gc.SCENARIOS:
        spec = scenario(name, n=4)
        assert spec.nx == spec.ny == 4
        assert spec.boundary.gamma_n_sides == frozenset()


def test_scenario_table_order_and_closed_forms():
    assert gc.SCENARIOS == ("ex1_f1_a1", "ex1_f025_a1", "ex1_f01_a1", "ex1_f1_a05",
                            "ex1_f1_ajump", "ex2_a25", "ex2_a15", "ex4_measure")
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 7))
    closed = []
    for name in gc.SCENARIOS:
        spec = scenario(name, n=4)
        # a closed form exists exactly when the bound and the source are constant
        constant = (isinstance(spec.alpha, ConstantAlpha)
                    and isinstance(spec.source, ConstantSource))
        try:
            u, p = exact_solution_for(name)
        except ValueError as exc:
            assert "no closed-form solution" in str(exc) and not constant, name
            continue
        assert constant, name
        closed.append(name)
        # the closed form is the one of the scenario's own constant data
        u_ref, p_ref = exact_solution_ex1(spec.source.value, spec.alpha.value)
        assert np.array_equal(u(x, y), u_ref(x, y)) and np.array_equal(p(x, y), p_ref(x, y))
    assert closed == ["ex1_f1_a1", "ex1_f025_a1", "ex1_f01_a1", "ex1_f1_a05"]
    with pytest.raises(ValueError, match="unknown scenario"):
        exact_solution_for("ex9_unknown")


def test_scenario_fields():
    spec = scenario("ex1_f1_a1")
    assert isinstance(spec.alpha, ConstantAlpha) and spec.alpha.value == 1.0
    assert isinstance(spec.source, ConstantSource) and spec.source.value == 1.0
    spec = scenario("ex2_a25")
    assert spec.alpha.value == 2.5
    assert isinstance(spec.source, PresetSource)
    spec = scenario("ex4_measure")
    assert isinstance(spec.alpha, MeasureLineAlpha) and spec.alpha.weight == 100.0
    assert isinstance(spec.source, HalfPlaneSource) and spec.source.inside == 0.25


def test_scenario_unknown_name():
    with pytest.raises(ValueError):
        scenario("ex9_unknown")


def test_grid_size_bounds():
    spec = scenario("ex1_f1_a1", n=2048)          # exactly at the cap
    assert spec.nx * spec.ny == MAX_CELLS
    for n in (0, 2049, int(1e300)):
        with pytest.raises(ValueError, match="grid"):
            scenario("ex1_f1_a1", n=n)


def test_study_needs_two_distinct_mesh_sizes():
    # one size gave NaN rates and a repeated one a ZeroDivisionError; both
    # are rejected before any solve
    for sizes in ([4], [4, 4], [], [4, 8, 4]):
        with pytest.raises(ValueError, match="two distinct mesh sizes"):
            solver.convergence_study("ex1_f1_a1", sizes)


def test_discrete_fields_measured_against_themselves():
    nspec = scenario("ex1_f1_a1", n=8)
    dp = gc.DiscreteProblem.from_spec(nspec)
    u_ex, p_ex = exact_solution_ex1(1.0, 1.0)
    U = fem.project_p0(dp.mesh, u_ex, ws=dp.workspace)
    P = fem.interpolate_rt0(dp.mesh, p_ex)
    mesh = dp.mesh

    def u_field(x, y):
        return U[mesh.locate_triangle(x, y)]

    ws = dp.workspace
    p_at_quad = fem.rt0_at_quadrature(ws, P)

    def p_field(x, y):
        # exact quadrature-point values of the discrete field itself
        return p_at_quad.reshape(x.shape + (2,))

    assert fem.l2_error_p0(mesh, U, u_field, ws=ws) <= 1e-13
    assert fem.l2_error_rt0(mesh, P, p_field, ws=ws) <= 1e-13
