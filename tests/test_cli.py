"""Command-line interface: exit codes, output contracts, config-file
merging, and the installed entry points."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import memburgers
from memburgers.cli import main
from memburgers.harness import CSV_HEADER


def test_solve_prints_summary(capsys):
    code = main(
        ["solve", "--example", "1", "--alpha", "0.5", "--gamma", "1.0",
         "--N", "4", "--J", "16"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "problem=example1" in out
    assert "alpha=0.5" in out
    assert "error_l2=" in out
    assert "max_fp_iters=" in out


def test_solve_writes_trajectory(tmp_path, capsys):
    path = tmp_path / "traj.csv"
    code = main(
        ["solve", "--example", "2", "--alpha", "0.4", "--gamma", "1.6",
         "--N", "3", "--J", "8", "--f-mode", "interval-average", "--out", str(path)]
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("n,t,u_0")
    assert len(lines) == 1 + 4  # header + levels 0..3
    assert str(path) in capsys.readouterr().out


def test_study_time_csv_header(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code = main(
        ["study-time", "--example", "1", "--alpha", "0.5", "--gamma", "2/(alpha+1)",
         "--N", "2", "--J", "8", "--levels", "2", "--out", str(path)]
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert "2 rows written" in capsys.readouterr().out


def test_study_multiple_alphas_to_stdout(capsys):
    code = main(
        ["study-time", "--example", "1", "--alpha", "0.25", "0.75",
         "--gamma", "1.0", "--N", "2", "--J", "8", "--levels", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "error_l2" in out.splitlines()[0]
    assert len(out.splitlines()) == 1 + 4  # header + 2 alphas x 2 levels


def test_study_space_axis(tmp_path):
    path = tmp_path / "rows.csv"
    code = main(
        ["study-space", "--example", "1", "--alpha", "0.5", "--gamma", "1.0",
         "--N", "4", "--J", "4", "--levels", "2", "--out", str(path)]
    )
    assert code == 0
    body = path.read_text().splitlines()[1:]
    assert [int(line.split(",")[3]) for line in body] == [4, 8]
    assert [int(line.split(",")[2]) for line in body] == [4, 4]


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# solver setup\n"
        "example=1\n"
        "alpha=0.5\n"
        "gamma=1.0\n"
        "N=2\n"
        "J=8\n"
        "f-mode=interval-average\n"
    )
    code = main(["solve", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "f_mode=interval_average" in out
    assert "N=2" in out


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("example=1\nalpha=0.5\ngamma=1.0\nN=2\nJ=8\n")
    code = main(["solve", "--config", str(cfg), "--N", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "N=4" in out


def test_auto_sigma_gamma(capsys):
    # example 1 under interval averaging has sigma = alpha + 2, so the rule
    # 2/sigma clamps to the uniform mesh
    code = main(
        ["solve", "--example", "1", "--alpha", "0.5", "--gamma", "auto-sigma",
         "--N", "2", "--J", "8", "--f-mode", "interval-average"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "gamma=1 " in out


def test_missing_required_option_exits_2(capsys):
    code = main(["solve", "--example", "1", "--alpha", "0.5", "--gamma", "1.0", "--J", "8"])
    assert code == 2
    assert "--N" in capsys.readouterr().err


def test_bad_gamma_value_exits_2(capsys):
    code = main(
        ["solve", "--example", "1", "--alpha", "0.5", "--gamma", "0.5",
         "--N", "2", "--J", "8"]
    )
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_bad_flag_values_rejected_by_parser():
    # argparse rejects unknown choices/types before main's error mapping
    with pytest.raises(SystemExit) as info:
        main(["solve", "--example", "3", "--alpha", "0.5", "--gamma", "1.0",
              "--N", "2", "--J", "8"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["solve", "--example", "1", "--alpha", "0.5", "--gamma", "1.0",
              "--N", "2", "--J", "8", "--f-mode", "simpson"])
    assert info.value.code == 2


def test_bad_config_values_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("example=3\nalpha=0.5\ngamma=1.0\nN=2\nJ=8\n")
    code = main(["solve", "--config", str(cfg)])
    assert code == 2
    assert "--example" in capsys.readouterr().err

    cfg.write_text("example=1\nalpha=0.5\ngamma=1.0\nN=2\nJ=8\nf-mode=simpson\n")
    code = main(["solve", "--config", str(cfg)])
    assert code == 2
    assert "f-mode" in capsys.readouterr().err


def test_underflowing_grid_spacing_exits_2(capsys):
    # h^2 underflows to 0, so the scheme's 1/h^2 would be infinite; the grid
    # must be refused by name before any step runs
    code = main(
        ["solve", "--example", "1", "--alpha", "0.5", "--gamma", "1",
         "--N", "4", "--J", "4", "--L", "1e-300"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error_l2=" not in captured.out
    assert "build_spatial_grid: 1/h^2 is not finite" in captured.err
    assert "L/J = 1e-300/4" in captured.err


def test_malformed_config_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("example 1\n")
    code = main(["solve", "--config", str(cfg)])
    assert code == 2
    assert "key=value" in capsys.readouterr().err


def test_nonconvergence_exits_1(capsys):
    code = main(
        ["solve", "--example", "1", "--alpha", "0.5", "--gamma", "1.0",
         "--N", "4", "--J", "32", "--eps", "1e-14", "--max-steps", "1"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "solver failed" in err
    assert "step 1" in err


def test_check_mesh_reports_hypotheses(capsys):
    code = main(["check-mesh", "--gamma", "1.6", "--N", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert "step bound" in out
    assert "all hypotheses hold: True" in out


def test_check_mesh_rejects_named_rule(capsys):
    code = main(["check-mesh", "--gamma", "auto-sigma", "--N", "16"])
    assert code == 2
    assert "number" in capsys.readouterr().err


def test_weights_dump_stdout(capsys):
    code = main(["weights-dump", "--alpha", "0.5", "--gamma", "1.0", "--N", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "n,s,weight"
    assert len(out) == 1 + 6  # triangular: 1 + 2 + 3
    n, s, w = out[1].split(",")
    assert (n, s) == ("1", "1")
    assert float(w) > 0.0


def test_weights_dump_file(tmp_path, capsys):
    path = tmp_path / "w.csv"
    code = main(["weights-dump", "--alpha", "0.3", "--gamma", "1.5", "--N", "4",
                 "--out", str(path)])
    assert code == 0
    assert path.read_text().splitlines()[0] == "n,s,weight"
    assert "written to" in capsys.readouterr().out


@pytest.mark.parametrize("rule, number", [("2/(alpha+1)", repr(2.0 / 1.5)), ("2/(alpha+2)", "1.0")])
def test_weights_dump_named_rule_matches_number(capsys, rule, number):
    # a named rule resolves to the same mesh as its value at alpha = 0.5
    # (2/(alpha+2) < 1 clamps to the uniform mesh)
    dumps = []
    for gamma in (rule, number):
        assert main(["weights-dump", "--alpha", "0.5", "--gamma", gamma, "--N", "5"]) == 0
        dumps.append(capsys.readouterr().out)
    assert dumps[0] == dumps[1]


def test_weights_dump_auto_sigma_rejected(capsys):
    code = main(["weights-dump", "--alpha", "0.5", "--gamma", "auto-sigma", "--N", "3"])
    assert code == 2
    assert "auto-sigma" in capsys.readouterr().err


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "memburgers.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout
    assert "study-time" in proc.stdout


def _package_env():
    """Environment whose child interpreters import the package under test,
    not another installed copy."""
    src = str(Path(memburgers.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_nonpositive_weights_exit_2_under_optimize():
    # the weight check must not be an assert: under -O it would vanish and
    # the solve would print an error from nonpositive weights
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "memburgers.cli", "solve", "--example", "1",
         "--alpha", "0.25", "--gamma", "6", "--N", "512", "--J", "64"],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert "error_l2=" not in proc.stdout
    assert "nonpositive weight" in proc.stderr


SOLVE_ARGS = ["solve", "--example", "1", "--alpha", "0.5", "--gamma", "1.0",
              "--N", "2", "--J", "8"]


def test_console_script_subprocess():
    # Run the [project.scripts] target through the same wrapper pip writes
    # for the `memburgers` command, so no install is needed.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["memburgers"]
    module, attr = entry.split(":")
    wrapper = (
        f"import sys; sys.argv[0] = 'memburgers'; "
        f"from {module} import {attr}; sys.exit({attr}())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *SOLVE_ARGS],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "error_l2=" in proc.stdout


@pytest.mark.skipif(shutil.which("memburgers") is None,
                    reason="memburgers console script not installed")
def test_installed_console_script():
    proc = subprocess.run(
        ["memburgers", *SOLVE_ARGS],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "error_l2=" in proc.stdout
