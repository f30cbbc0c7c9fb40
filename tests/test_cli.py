import json

import numpy as np
import pytest

from platefem.cli import main
from platefem.fespace import build_dof_map
from platefem.forms import SchemeConfig, SchemeTag
from platefem.harness import CSV_COLUMNS
from platefem.mesh import build_triangulation, unit_square_mesh, write_mesh


def write_config(tmp_path, **overrides):
    cfg = {
        "mesh": {"kind": "unit_square", "n": 2, "levels": 2},
        "scheme": {"tag": "morley"},
        "load": {"density": "u1"},
        "quad": {"order": 7},
        "output": {},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_converge_writes_pinned_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    cfg = write_config(tmp_path, output={"csv": str(csv_path)})
    assert main(["converge", "--config", str(cfg)]) == 0
    text = csv_path.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(text.splitlines()) == 3  # header + 2 levels


def test_converge_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cfg_a = write_config(tmp_path, output={"csv": str(a)})
    main(["converge", "--config", str(cfg_a)])
    cfg_b = write_config(tmp_path, output={"csv": str(b)})
    main(["converge", "--config", str(cfg_b)])
    assert a.read_text() == b.read_text()


def test_solve_subcommand_json_and_matrix_dump(tmp_path, capsys):
    out_json = tmp_path / "solve.json"
    mat = tmp_path / "matrix.txt"
    cfg = write_config(tmp_path, output={"json": str(out_json)})
    assert main(["solve", "--config", str(cfg), "--dump-matrix", str(mat)]) == 0
    data = json.loads(out_json.read_text())
    assert data["scheme"] == "morley" and "errors" in data
    header = mat.read_text().splitlines()[0].split()
    assert len(header) == 3
    n, m, nnz = (int(v) for v in header)
    assert n == m == data["ndof"]
    assert nnz == len(mat.read_text().splitlines()) - 1


@pytest.mark.parametrize("tag", ["morley", "dg", "c0ip", "wopsip"])
def test_solve_json_round_trip_every_scheme(tmp_path, tag):
    out_json = tmp_path / "solve.json"
    cfg = write_config(tmp_path, scheme={"tag": tag},
                       output={"json": str(out_json)})
    assert main(["solve", "--config", str(cfg)]) == 0
    data = json.loads(out_json.read_text())
    assert data["scheme"] == tag
    space = SchemeConfig(scheme=SchemeTag(tag)).space_tag
    ndof = build_dof_map(unit_square_mesh(2), space).n_free
    assert data["ndof"] == data["stats"]["n"] == ndof > 0


def test_compare_and_wopsip_run(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["compare", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "comparison max/min ratios" in out
    assert main(["wopsip", "--config", str(cfg)]) == 0


def test_point_load_config(tmp_path, capsys):
    cfg = write_config(tmp_path, load={"points": [[1.0, 0.5, 0.5]]},
                       mesh={"kind": "unit_square", "n": 2})
    assert main(["solve", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "converged=True" in out


def test_mesh_file_config(tmp_path, capsys):
    mesh_file = tmp_path / "square.msh"
    mesh_file.write_text("4 2\n0 0\n1 0\n0 1\n1 1\n0 1 3\n0 3 2\n")
    cfg = write_config(
        tmp_path,
        mesh={"kind": "file", "path": str(mesh_file)},
        load={"points": [[1.0, 0.4, 0.4]]},
        scheme={"tag": "wopsip"},
    )
    assert main(["solve", "--config", str(cfg)]) == 0


def test_solve_system_without_free_dofs(tmp_path, capsys):
    # every Morley DOF of a single triangle lies on the clamped boundary
    mesh_file = tmp_path / "triangle.msh"
    mesh_file.write_text(write_mesh(build_triangulation(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))))
    out_json = tmp_path / "solve.json"
    cfg = write_config(
        tmp_path,
        mesh={"kind": "file", "path": str(mesh_file)},
        load={"points": [[1.0, 0.2, 0.2]]},
        output={"json": str(out_json)},
    )
    assert main(["solve", "--config", str(cfg)]) == 0
    assert "ndof=0 method=empty" in capsys.readouterr().out
    stats = json.loads(out_json.read_text())["stats"]
    assert stats["converged"] is True and stats["backward_error"] == 0.0
    assert stats["n"] == 0 and stats["nnz"] == 0


def test_missing_load_rejected(tmp_path):
    cfg = write_config(tmp_path, load={})
    with pytest.raises(SystemExit):
        main(["solve", "--config", str(cfg)])


def test_non_finite_penalty_rejected(tmp_path):
    # json reads NaN and Infinity, so a config can carry them
    cfg = tmp_path / "config.json"
    cfg.write_text('{"scheme": {"tag": "dg", "sigma1": NaN}, "load": {"density": "u1"}}')
    with pytest.raises(SystemExit, match="config error: penalty parameters must be positive"):
        main(["solve", "--config", str(cfg)])


def test_verify_flag_exit_code():
    assert main(["--verify"]) == 0


def test_no_command_prints_help(capsys):
    assert main([]) == 2
