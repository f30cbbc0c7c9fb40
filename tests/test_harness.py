import numpy as np
import pytest

from platefem.forms import SchemeConfig, SchemeTag
from platefem.functions import get_manufactured
from platefem.harness import (
    CSV_COLUMNS,
    StudyConfig,
    mesh_sequence,
    run_comparison,
    run_convergence,
    run_wopsip,
)
from platefem.rhs import LoadSpec

# --- manufactured solutions vs finite differences ---------------------------------

def _u1_biharmonic_product(x, y):
    """Delta^2 of sin^2(pi x) sin^2(pi y) from its one-dimensional factors."""
    def s(t):
        return np.sin(np.pi * t) ** 2

    def s2(t):
        return 2 * np.pi ** 2 * np.cos(2 * np.pi * t)

    def s4(t):
        return -8 * np.pi ** 4 * np.cos(2 * np.pi * t)

    return s4(x) * s(y) + 2 * s2(x) * s2(y) + s(x) * s4(y)


@pytest.mark.parametrize("name", ["u1", "u2"])
def test_manufactured_derivatives_match_finite_differences(name, rng):
    u = get_manufactured(name)
    h = 1e-4
    pts = rng.uniform(0.05, 0.95, size=(20, 2))
    x, y = pts[:, 0], pts[:, 1]
    scale = max(1.0, np.abs(u.biharmonic(x, y)).max())
    # gradient vs central differences of the value
    gx = (u.value(x + h, y) - u.value(x - h, y)) / (2 * h)
    gy = (u.value(x, y + h) - u.value(x, y - h)) / (2 * h)
    g = u.grad(x, y)
    assert np.abs(g[:, 0] - gx).max() < 1e-5
    assert np.abs(g[:, 1] - gy).max() < 1e-5
    # Hessian vs central differences of the gradient
    H = u.hess(x, y)
    Hx = (u.grad(x + h, y) - u.grad(x - h, y)) / (2 * h)
    Hy = (u.grad(x, y + h) - u.grad(x, y - h)) / (2 * h)
    assert np.abs(H[:, 0, 0] - Hx[:, 0]).max() < 1e-5 * max(1.0, np.abs(H).max())
    assert np.abs(H[:, 0, 1] - Hy[:, 0]).max() < 1e-5 * max(1.0, np.abs(H).max())
    assert np.abs(H[:, 1, 1] - Hy[:, 1]).max() < 1e-5 * max(1.0, np.abs(H).max())
    # biharmonic load vs 5-point Laplacian of the analytic Laplacian
    def lap(a, b):
        Hq = u.hess(a, b)
        return Hq[..., 0, 0] + Hq[..., 1, 1]

    fd = (lap(x + h, y) + lap(x - h, y) + lap(x, y + h) + lap(x, y - h)
          - 4 * lap(x, y)) / h ** 2
    assert np.abs(u.biharmonic(x, y) - fd).max() < 1e-5 * scale
    if name == "u1":
        product = _u1_biharmonic_product(x, y)
        assert np.abs(product - fd).max() < 1e-5 * scale
        assert np.abs(u.biharmonic(x, y) - product).max() <= 1e-13 * scale


def test_manufactured_clamped_boundary():
    for name in ("u1", "u2"):
        u = get_manufactured(name)
        t = np.linspace(0.0, 1.0, 17)
        for x, y in ((t, np.zeros_like(t)), (t, np.ones_like(t)),
                     (np.zeros_like(t), t), (np.ones_like(t), t)):
            assert np.abs(u.value(x, y)).max() < 1e-14
            assert np.abs(u.grad(x, y)).max() < 1e-14


# --- convergence studies -----------------------------------------------------------

def test_zero_load_reports_undefined_eoc():
    cfg = StudyConfig(scheme=SchemeConfig(scheme=SchemeTag.MORLEY),
                      n0=2, levels=2, solution="zero")
    rep = run_convergence(cfg)
    for rec in rep.levels:
        assert rec.errors.norm_h == 0.0 and rec.errors.l2 == 0.0
    assert rep.eoc_energy == [None]
    csv = rep.to_csv()
    assert csv.splitlines()[0] == ",".join(CSV_COLUMNS)
    # the EOC cells are empty, not NaN
    assert csv.splitlines()[-1].endswith(",,")


def test_hmax_halves_exactly():
    meshes = mesh_sequence(2, 3)
    hs = [m.h_max for m in meshes]
    assert hs[0] == np.sqrt(2.0) / 2.0
    assert hs[1] == hs[0] / 2.0 and hs[2] == hs[1] / 2.0


def test_convergence_report_determinism():
    cfg = StudyConfig(scheme=SchemeConfig(scheme=SchemeTag.MORLEY),
                      n0=2, levels=3, solution="u1")
    a = run_convergence(cfg).to_csv()
    b = run_convergence(cfg).to_csv()
    assert a == b


def test_levels_validated():
    with pytest.raises(ValueError, match="level count"):
        StudyConfig(levels=1)
    with pytest.raises(ValueError, match="manufactured solution or a load"):
        StudyConfig(levels=3, solution=None, load=None)


def test_morley_small_study_rates():
    cfg = StudyConfig(scheme=SchemeConfig(scheme=SchemeTag.MORLEY),
                      n0=4, levels=3, solution="u1")
    rep = run_convergence(cfg)
    assert 0.85 <= rep.eoc_energy[-1] <= 1.15
    assert 1.7 <= rep.eoc_h1[-1] <= 2.15
    # levels strictly decreasing in hmax
    hs = [r.h_max for r in rep.levels]
    assert all(a > b for a, b in zip(hs, hs[1:]))


@pytest.mark.parametrize("order, want", [(9, 9), (3, 4)])
def test_study_errors_use_the_scheme_quad_order(order, want):
    # a study has no quadrature order of its own: its errors read the
    # scheme's, raised to the error norms' minimum of 4
    cfg = StudyConfig(scheme=SchemeConfig(quad_order=order), n0=2, levels=2, solution="u1")
    for rep in (run_convergence(cfg), run_comparison(cfg)):
        assert [r.errors.quad_order for r in rep.levels] == [want, want]


def test_comparison_block_smoke():
    cfg = StudyConfig(scheme=SchemeConfig(), n0=2, levels=2, solution="u1")
    rep = run_comparison(cfg)
    comp = rep.comparison
    assert set(comp["quantities"]) == {"morley", "dg", "c0ip", "best_approx"}
    assert len(comp["max_min_ratio"]) == 2
    assert all(r >= 1.0 for r in comp["max_min_ratio"])
    # the benchmark column is scheme independent: a single value per level
    for row in comp["per_level"]:
        assert isinstance(row["best_approx"], float)


def test_point_load_comparison_uses_surrogate():
    cfg = StudyConfig(scheme=SchemeConfig(), n0=2, levels=2, solution=None,
                      load=LoadSpec(points=((1.0, (0.5, 0.5)),)))
    rep = run_comparison(cfg, extra_levels=1)
    comp = rep.comparison
    assert set(comp["quantities"]) == {"morley", "dg", "c0ip"}
    for row in comp["per_level"]:
        for v in row.values():
            assert np.isfinite(v) and v > 0
    assert all(np.isfinite(r) for r in comp["max_min_ratio"])
    # surrogate levels have no errors, but the Morley solve's timings
    for rec in rep.levels:
        assert rec.errors is None and rec.extra["surrogate_errors"] == comp["per_level"][rec.level]
        assert rec.assembly_time > 0.0 and rec.solve_time > 0.0


@pytest.mark.parametrize("extra_levels", [0, -1])
def test_surrogate_comparison_needs_a_finer_reference(extra_levels):
    # the surrogate must lie below every study mesh; a manufactured
    # solution needs no surrogate and ignores extra_levels
    cfg = StudyConfig(n0=2, levels=2, solution=None, load=LoadSpec(points=((1.0, (0.5, 0.5)),)))
    with pytest.raises(ValueError, match=f"extra_levels must be at least 1 .*got {extra_levels}"):
        run_comparison(cfg, extra_levels=extra_levels)
    rep = run_comparison(StudyConfig(n0=2, levels=2, solution="u1"), extra_levels=extra_levels)
    assert len(rep.levels) == 2


def test_wopsip_study_extras():
    cfg = StudyConfig(scheme=SchemeConfig(scheme=SchemeTag.WOPSIP),
                      n0=2, levels=3, solution="u1")
    rep = run_wopsip(cfg)
    pen = [r.extra["penalty_energy"] for r in rep.levels]
    assert all(p >= 0 for p in pen)
    assert pen[0] > pen[1] > pen[2]  # monitored decrease for the smooth problem
    assert all("weighted_interp_energy" in r.extra for r in rep.levels)


def test_json_round_trip(tmp_path):
    import json

    from platefem.harness import write_report

    cfg = StudyConfig(scheme=SchemeConfig(scheme=SchemeTag.MORLEY),
                      n0=2, levels=2, solution="u1")
    rep = run_convergence(cfg)
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    write_report(rep, csv_path, json_path)
    data = json.loads(json_path.read_text())
    assert data["scheme"] == "morley"
    assert len(data["levels"]) == 2
    assert csv_path.read_text() == rep.to_csv()


def test_report_env_block_round_trips(tmp_path):
    import json
    import os
    import platform

    from platefem.harness import environment, write_report

    cfg = StudyConfig(scheme=SchemeConfig(scheme=SchemeTag.MORLEY),
                      n0=2, levels=2, solution="u1")
    rep = run_convergence(cfg)
    json_path = tmp_path / "out.json"
    write_report(rep, json_path=json_path)
    data = json.loads(json_path.read_text())
    assert data["env"] == environment()
    assert data["env"] == {"numpy": np.__version__, "python": platform.python_version(),
                           "cpu_count": os.cpu_count(),
                           "longdouble_mantissa_bits": np.finfo(np.longdouble).nmant}
    assert {k: v for k, v in data.items() if k != "env"} == json.loads(
        json.dumps(rep.to_json_dict()))


def test_environment_records_the_longdouble_mantissa():
    # a platform whose np.longdouble is plain double (52 bits) refines its
    # solutions against a double residual; the report's env block shows it
    from platefem.harness import environment

    bits = environment()["longdouble_mantissa_bits"]
    assert type(bits) is int and bits >= 52


def test_solver_failure_yields_partial_flagged_report():
    cfg = StudyConfig(
        scheme=SchemeConfig(scheme=SchemeTag.DG, sigma1=1e-6, sigma2=1e-6),
        n0=2, levels=2, solution="u1",
    )
    rep = run_convergence(cfg)
    assert rep.aborted is not None and "not coercive" in rep.aborted
    assert "aborted" in rep.to_json_dict()


def test_polynomial_manufactured_solution_end_to_end():
    # the degree-8 polynomial solution drives the solver at the same rates
    cfg = StudyConfig(scheme=SchemeConfig(scheme=SchemeTag.MORLEY),
                      n0=4, levels=3, solution="u2")
    rep = run_convergence(cfg)
    assert 0.85 <= rep.eoc_energy[-1] <= 1.15
    assert 1.7 <= rep.eoc_h1[-1] <= 2.3
