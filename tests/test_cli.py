import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import platefem
from platefem.cli import main
from platefem.fespace import build_dof_map
from platefem.forms import SchemeConfig, SchemeTag
from platefem.harness import CSV_COLUMNS, environment
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
    assert data["env"] == environment()   # the block every JSON report carries
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
    # the ordering runs on one vertex per triangle of the 8 for DG and WOPSIP
    assert data["stats"]["supervariables"] == (8 if tag in ("dg", "wopsip") else ndof)
    # the precision the refinement residual ran in: 52 bits is plain double
    bits = data["stats"]["longdouble_mantissa_bits"]
    assert type(bits) is int and bits == np.finfo(np.longdouble).nmant


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


def _cli_env(**extra):
    """The environment of a ``python -m platefem.cli`` child that imports this tree."""
    src = str(Path(platefem.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


@pytest.mark.parametrize("command, overrides", [
    ("solve", {"scheme": {"tag": "dg", "sigma1": "big"}}),
    ("solve", {"scheme": {"tag": "nope"}}),
    ("solve", {"quad": {"order": 7.5}}),
    ("solve", {"mesh": {"n": "big"}}),
    ("solve", {"mesh": {"n": 0}}),
    ("converge", {"mesh": {"n": 2, "levels": 20}}),
    ("converge", {"mesh": {"n": 2, "levels": 2.5}}),
    ("solve", {"load": {"points": [[1.0, 0.5]]}}),
    ("solve", {"mesh": {"kind": "file"}}),
    ("solve", {"load": {"density": "u9"}}),
    ("solve", {"load": {"points": [[1.0, 5.0, 5.0]]}}),
], ids=["sigma1", "tag", "order", "n_text", "n_zero", "levels_20", "levels_fraction",
        "point_of_two", "file_without_path", "density_name", "point_outside"])
def test_bad_config_value_exits_without_traceback(tmp_path, command, overrides):
    cfg = write_config(tmp_path, **overrides)
    run = subprocess.run([sys.executable, "-m", "platefem.cli", command, "--config", str(cfg)],
                         capture_output=True, text=True, env=_cli_env(), timeout=120)
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr.startswith("config error:") and "Traceback" not in run.stderr


def test_verify_flag_exit_code():
    assert main(["--verify"]) == 0


def test_no_command_prints_help(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("command", ["converge", "solve"])
def test_unwritable_output_is_an_output_error(tmp_path, capsys, command):
    missing = tmp_path / "missing"
    cfg = write_config(tmp_path, output={"csv": str(missing / "out.csv"),
                                         "json": str(missing / "out.json")})
    with pytest.raises(SystemExit, match="^output error: .*missing"):
        main([command, "--config", str(cfg)])


def test_unwritable_matrix_dump_is_an_output_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit, match="^output error: "):
        main(["solve", "--config", str(cfg), "--dump-matrix", str(tmp_path / "no" / "A.txt")])


def test_unreadable_input_is_a_config_error(tmp_path):
    with pytest.raises(SystemExit, match="^config error: "):
        main(["solve", "--config", str(tmp_path / "absent.json")])
    cfg = write_config(tmp_path, mesh={"kind": "file", "path": str(tmp_path / "absent.msh")})
    with pytest.raises(SystemExit, match="^config error: "):
        main(["solve", "--config", str(cfg)])


@pytest.mark.parametrize("text, message", [
    ("{not json", "is not valid JSON"),
    ("", "is not valid JSON"),
    ("[1, 2]", r"holds \[1, 2\], not a JSON object"),
    ('"u1"', 'holds "u1", not a JSON object'),
    ('{"mesh": [1]}', r"section 'mesh' is \[1\], not a JSON object"),
    ('{"load": "u1"}', "section 'load' is \"u1\", not a JSON object"),
], ids=["invalid", "empty", "list", "string", "mesh_list", "load_string"])
def test_config_that_is_not_a_json_object_is_a_config_error(tmp_path, text, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    with pytest.raises(SystemExit, match=f"^config error: .*{message}"):
        main(["solve", "--config", str(cfg)])


def test_invalid_json_exits_without_traceback(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b"\xff{")     # neither UTF-8 nor JSON
    for text in (None, "[1, 2]"):
        if text is not None:
            cfg.write_text(text)
        run = subprocess.run([sys.executable, "-m", "platefem.cli", "solve", "--config", str(cfg)],
                             capture_output=True, text=True, env=_cli_env(), timeout=120)
        assert run.returncode == 1 and run.stdout == ""
        assert run.stderr.startswith("config error:") and "Traceback" not in run.stderr


@pytest.mark.parametrize("reader", ["head -1", "true"])
def test_closed_stdout_ends_quietly(tmp_path, reader):
    # ``true`` exits before the command writes anything; ``head -1`` after
    # the first line, with the later lines still to come (unbuffered)
    cfg = write_config(tmp_path)
    command = " ".join(shlex.quote(a) for a in
                       [sys.executable, "-m", "platefem.cli", "solve", "--config", str(cfg)])
    run = subprocess.run(f"{command} | {reader}", shell=True, capture_output=True, text=True,
                         env=_cli_env(PYTHONUNBUFFERED="1"), timeout=120)
    assert run.stderr == ""
    if reader == "head -1":
        assert run.stdout.startswith("scheme=morley ")
