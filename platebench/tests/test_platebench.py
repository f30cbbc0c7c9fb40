"""Self-tests of the plate benchmark (tiny sizes; about half a minute).

Run from the repository root:

    python3 -m pytest -q platebench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "platebench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import to_builtin  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

# per-layer metrics each workload must exercise (nonzero) even at tiny size
EXERCISED = {
    "study": {
        "solve.solve_s", "solve.calls_dense", "solve.errors_s", "solve.backward_error_max",
        "forms.assemble_s", "forms.apw_s", "forms.jump_s", "forms.cdg_s", "forms.cip_s",
        "forms.cp_s", "forms.nnz", "sparse.from_triplets_s", "sparse.from_triplets_calls",
        "sparse.triplets_in", "sparse.dedupe_ratio", "rhs.load_s", "rhs.point_loads",
        "interp.operator_s", "interp.operator_calls", "interp.operator_reuse_ratio",
        "interp.smooth_s", "fespace.dofmap_s", "fespace.hct_basis_s", "fespace.prolongate_s",
        "fespace.ndof", "mesh.build_s", "mesh.triangles", "harness.reference_s",
        "harness.scheme_s.morley", "harness.scheme_s.dg", "harness.scheme_s.c0ip",
        "harness.scheme_s.wopsip", "harness.wall_traced_s", "harness.wall_untraced_s",
    },
    "assemble": {
        "forms.assemble_s", "forms.apw_s", "forms.jump_s", "forms.cdg_s", "forms.cip_s",
        "forms.cp_s", "forms.nnz", "sparse.from_triplets_s", "sparse.from_triplets_calls",
        "sparse.triplets_in", "sparse.dedupe_ratio", "rhs.load_s", "interp.operator_s",
        "interp.operator_calls", "fespace.dofmap_s", "fespace.hct_basis_s", "fespace.ndof",
        "mesh.build_s", "mesh.triangles", "harness.scheme_s.morley", "harness.scheme_s.dg",
        "harness.scheme_s.c0ip", "harness.scheme_s.wopsip",
    },
    "point_sweep": {
        "solve.solve_s", "solve.calls_dense", "solve.backward_error_max", "forms.assemble_s",
        "forms.nnz", "sparse.from_triplets_calls", "rhs.load_s", "rhs.point_loads",
        "interp.operator_calls", "interp.operator_reuse_ratio", "interp.smooth_s",
        "fespace.dofmap_s", "harness.scheme_s.morley", "harness.scheme_s.dg",
        "harness.scheme_s.c0ip",
    },
}
# the solver is bypassed on assemble: its counters must stay at zero
IDLE = {"assemble": {"solve.solve_s", "solve.calls_dense", "solve.calls_cg", "solve.calls_ldlt",
                     "solve.cg_iterations", "solve.errors_s"}}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "platebench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def tiny_pass(workload, seed=7):
    state = workloads.prepare(workload, seed, "tiny")
    _, outputs = workloads.run_pass(state, spans.Recorder())
    reference = json.loads((BENCH / "reference.json").read_text()).get(workload, {}).get("tiny")
    return state, outputs, reference


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_untraced(workload):
    proc = run_bench("--workload", workload, "--seed", "11", "--seconds", "0.1",
                     "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    for metric in SPEC["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0
    detail = json.loads(proc.stdout.strip().splitlines()[-2])
    assert detail["fail_ratio"] == 0.0
    for key in ("numpy", "python", "numba_present", "use_numba", "PLATEFEM_PURE_NUMPY",
                "nproc", "blas_threads", "solver_routes", "commit", "source_sha256"):
        assert key in detail["env"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_layer_metrics(workload):
    proc = run_bench("--workload", workload, "--seed", "12", "--seconds", "0.1",
                     "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc.stdout)["metrics"]
    assert set(metrics) == PER_LAYER
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(metrics[name]["unit"] == units[name] for name in PER_LAYER)
    assert not [n for n in EXERCISED[workload] if not metrics[n]["value"] > 0]
    assert not [n for n in IDLE.get(workload, ()) if metrics[n]["value"] != 0]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "platebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "study", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_matrix_fails_the_command(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "platebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    forms = tmp_path / "src" / "platefem" / "forms.py"
    text = forms.read_text()
    assert "block = sigma1 *" in text
    forms.write_text(text.replace("block = sigma1 *", "block = 1.01 * sigma1 *"))
    proc = run_bench("--workload", "study", "--seed", "1", "--seconds", "0.1", "--trace", "0",
                     "--size", "tiny", cwd=tmp_path)
    assert proc.returncode == 1
    result = last_json(proc.stdout)
    assert not result["correct"] and result["failed"] > 0


def test_study_gate_catches_a_corrupted_solution():
    state, outputs, reference = tiny_pass("study")
    assert workloads.check(state, outputs, reference)[1] == 0
    outputs["converge:c0ip"].levels[1].errors.norm_h *= 1 + 1e-5
    _, failed, messages = workloads.check(state, outputs, reference)
    assert failed == 1 and "converge:c0ip" in messages[0]


def test_study_gate_catches_a_wrong_matrix(monkeypatch):
    forms = workloads.pf("forms")
    original = forms.assemble_cdg
    monkeypatch.setattr(forms, "assemble_cdg", lambda *a: original(*a).scale(1.01))
    state, outputs, reference = tiny_pass("study")
    _, failed, messages = workloads.check(state, outputs, reference)
    assert failed > 0
    assert all(m.startswith(("converge:dg", "comparison")) for m in messages)


def test_assemble_gates_catch_corrupted_matrix_and_load(monkeypatch):
    forms, rhs, sparse = workloads.pf("forms"), workloads.pf("rhs"), workloads.pf("sparse")
    assemble, load = forms.assemble_scheme, rhs.smoothed_load_vector

    def skewed(mesh, config):
        A, dofmap = assemble(mesh, config)
        vals = A.vals.copy()
        vals[np.flatnonzero(A.rows != A.cols)[0]] += np.abs(vals).max()
        return sparse.SparseMatrix(A.nrows, A.ncols, A.rows, A.cols, vals), dofmap

    monkeypatch.setattr(forms, "assemble_scheme", skewed)
    state, outputs, reference = tiny_pass("assemble")
    _, failed, messages = workloads.check(state, outputs, reference)
    assert failed == len(workloads.SCHEMES)
    assert all("asymmetry" in m and "fro" in m for m in messages)

    monkeypatch.setattr(forms, "assemble_scheme", assemble)
    monkeypatch.setattr(rhs, "smoothed_load_vector", lambda *a, **k: 1.001 * load(*a, **k))
    state, outputs, reference = tiny_pass("assemble")
    _, failed, messages = workloads.check(state, outputs, reference)
    assert failed == len(workloads.SCHEMES)
    assert all("load_abs_sum" in m for m in messages)


def test_sweep_gates_catch_corrupted_solutions():
    state, outputs, _ = tiny_pass("point_sweep")
    assert workloads.check(state, outputs, None)[1] == 0
    outputs[0][2].u_star.coeffs *= 1.01
    _, failed, messages = workloads.check(state, outputs, None)
    assert failed > 0 and any("reciprocity" in m for m in messages)

    state, outputs, _ = tiny_pass("point_sweep")
    outputs[1][0].stats["backward_error"] = 1e-6
    _, failed, messages = workloads.check(state, outputs, None)
    assert failed == 1 and "backward error" in messages[0]


def test_inputs_are_seeded():
    for workload in workloads.WORKLOADS:
        a = json.dumps(workloads.make_inputs(workload, 5, "full"), default=to_builtin)
        b = json.dumps(workloads.make_inputs(workload, 5, "full"), default=to_builtin)
        c = json.dumps(workloads.make_inputs(workload, 6, "full"), default=to_builtin)
        assert a == b and a != c


def test_sweep_points_cover_vertices_edges_and_interiors():
    mesh_mod, rhs = workloads.pf("mesh"), workloads.pf("rhs")
    for scheme, n, points in workloads.make_inputs("point_sweep", 3, "full")["groups"]:
        mesh = mesh_mod.unit_square_mesh(n)
        resolved = rhs.resolve_point_loads(mesh, rhs.LoadSpec(points=[(1.0, p) for p in points]))
        snapped = sum(r.snapped for r in resolved)
        on_edge = sum((not r.snapped) and r.bary.min() < 1e-9 for r in resolved)
        assert snapped == 6 and on_edge == 8 and len(points) == 40


def test_json_writer_converts_numpy_scalars():
    dofmap = workloads.pf("fespace").build_dof_map(
        workloads.pf("mesh").unit_square_mesh(2), workloads.pf("fespace").SpaceTag.MORLEY)
    text = json.dumps({"n": dofmap.n_free, "x": np.float32(0.5), "a": np.arange(2)},
                      default=to_builtin)
    assert json.loads(text) == {"n": int(dofmap.n_free), "x": 0.5, "a": [0, 1]}


def test_compare_refuses_different_solver_routes(tmp_path, capsys):
    base = {"workload": "study", "size": "full", "seconds": 35, "trace": 0,
            "env": {"numba_present": False, "use_numba": False, "PLATEFEM_PURE_NUMPY": None,
                    "nproc": 2, "solver_routes": {"dense": 18, "cg": 7}},
            "metrics": {"wall_s": {"value": 14.0, "unit": "s"}}}
    other = json.loads(json.dumps(base))
    other["env"]["solver_routes"] = {"ldlt": 25}
    other["metrics"]["wall_s"]["value"] = 2.0
    paths = []
    for i, doc in enumerate((base, other, base)):
        paths.append(tmp_path / f"r{i}.json")
        paths[-1].write_text(json.dumps(doc))
    assert compare.main([str(paths[0]), str(paths[1])]) == 2
    assert "solver_routes" in capsys.readouterr().err
    assert compare.main([str(paths[0]), str(paths[2])]) == 0
