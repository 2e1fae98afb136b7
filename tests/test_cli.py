"""Command-line interface: exit codes, output contracts, config-file
merging, and the installed entry points."""

import argparse
import ast
import inspect
import os
import re
import textwrap
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import memburgers
from memburgers import scheme
from memburgers.cli import build_parser, main
from memburgers.harness import CSV_HEADER, StudyPlan
from memburgers.scheme import SchemeConfig


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


def _as_config(flags):
    """The key=value lines that stand for a list of flags and their values."""
    lines, values = [], None
    for token in flags:
        if token.startswith("--"):
            values = []
            lines.append((token[2:], values))
        else:
            values.append(token)
    return "".join(f"{key}={','.join(vals)}\n" for key, vals in lines)


@pytest.mark.parametrize("command", [
    ["solve", "--example", "2", "--alpha", "0.4", "--gamma", "1.6", "--N", "3", "--J", "8",
     "--f-mode", "interval-average", "--eps", "1e-8", "--max-steps", "50",
     "--T", "0.5", "--L", "2"],
    ["study-time", "--example", "1", "--alpha", "0.25", "0.75", "--gamma", "2/(alpha+1)",
     "--N", "2", "--J", "8", "--levels", "2"],
    ["study-space", "--example", "1", "--alpha", "0.5", "--gamma", "1.0", "--N", "4",
     "--J", "4", "--levels", "2", "--f-mode", "midpoint"],
    ["weights-dump", "--alpha", "0.3", "--gamma", "2/(alpha+2)", "--N", "4", "--T", "2"],
    ["check-mesh", "--gamma", "1.6", "--N", "16", "--T", "2"],
], ids=lambda command: command[0])
def test_config_file_and_flags_are_one_path(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_as_config(command[1:]))
    outputs = []
    for argv in (command, [command[0], "--config", str(cfg)]):
        assert main(argv) == 0
        outputs.append(re.sub(r"wall_time_seconds=\S+", "", capsys.readouterr().out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("line, named", [("esp=1e-14", "--esp"), ("levels=2", "--levels")])
def test_config_key_the_subcommand_does_not_take_exits_2(tmp_path, capsys, line, named):
    # a misspelt key, or one another subcommand takes, is refused, not ignored
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"example=1\nalpha=0.5\ngamma=1.0\nN=2\nJ=8\n{line}\n")
    with pytest.raises(SystemExit) as info:
        main(["solve", "--config", str(cfg)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert named in err


def test_every_declared_flag_is_read():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        handler = ast.parse(textwrap.dedent(inspect.getsource(sub.get_default("run"))))
        read = {node.attr for node in ast.walk(handler) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}
        declared = {action.dest for action in sub._actions} - {"help", "config"}
        assert declared <= read, f"{name} declares unread flags {sorted(declared - read)}"


@pytest.mark.parametrize("argv", [
    ["check-mesh", "--gamma", "1.6", "--N", "16", "--alpha", "0.5"],
    ["weights-dump", "--alpha", "0.5", "--gamma", "1.0", "--N", "3", "--J", "8"],
], ids=lambda argv: argv[0])
def test_flag_the_subcommand_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_config_file_naming_a_config_file_exits_2(tmp_path, capsys):
    inner = tmp_path / "inner.cfg"
    inner.write_text("N=2\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"example=1\nalpha=0.5\ngamma=1.0\nJ=8\nconfig={inner}\n")
    assert main(["solve", "--config", str(cfg), "--N", "2"]) == 2
    assert "config" in capsys.readouterr().err


def test_each_default_has_one_source():
    parser = build_parser()
    required = ["--example", "1", "--alpha", "0.5", "--gamma", "1", "--N", "2", "--J", "8"]
    scheme = SchemeConfig()
    plan = StudyPlan(problem="example1", alphas=(0.5,), gamma_rule=1.0, axis="time",
                     base_n=2, base_j=8, levels=2)
    for argv in (["solve", *required], ["study-time", *required, "--levels", "2"]):
        args = parser.parse_args(argv)
        assert args.eps == scheme.eps
        assert args.max_steps == scheme.max_steps
        assert args.f_mode.replace("-", "_") == scheme.f_mode
        assert (args.T, args.L) == (plan.t_final, plan.length)
    assert (plan.eps, plan.max_steps, plan.f_mode) == (scheme.eps, scheme.max_steps, scheme.f_mode)


def test_missing_required_option_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--example", "1", "--alpha", "0.5", "--gamma", "1.0", "--J", "8"])
    assert info.value.code == 2
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
    # a file value is checked by the parser exactly as the flag would be
    cfg = tmp_path / "bad.cfg"
    for text, named in (
        ("example=3\nalpha=0.5\ngamma=1.0\nN=2\nJ=8\n", "--example"),
        ("example=1\nalpha=0.5\ngamma=1.0\nN=2\nJ=8\nf-mode=simpson\n", "f-mode"),
        ("example=1\nalpha=0.5\ngamma=1.0\nN=2.5\nJ=8\n", "--N"),
    ):
        cfg.write_text(text)
        with pytest.raises(SystemExit) as info:
            main(["solve", "--config", str(cfg)])
        assert info.value.code == 2
        assert named in capsys.readouterr().err


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
    assert "SpatialGrid: 1/h^2 is not finite" in captured.err
    assert "L/J = 1e-300/4" in captured.err


def test_length_breaking_the_boundary_condition_exits_2(capsys):
    # the profiles vanish only at whole-number x, so u(1.5, t) != 0
    code = main(
        ["solve", "--example", "1", "--alpha", "0.5", "--gamma", "1",
         "--N", "16", "--J", "64", "--L", "1.5"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error_l2=" not in captured.out
    assert "example1 does not vanish at x = L = 1.5" in captured.err


@pytest.mark.parametrize("flag", ["--L", "--T"])
def test_non_finite_length_or_final_time_exits_2(capsys, flag):
    # refused by name when the grid or mesh is built, before numpy warns
    code = main(
        ["solve", "--example", "1", "--alpha", "0.5", "--gamma", "1",
         "--N", "4", "--J", "4", flag, "inf"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error_l2=" not in captured.out
    assert f"{flag[2:]} must be positive and finite, got inf" in captured.err


def test_overflowing_final_time_exits_2(capsys):
    # exact(x, T) takes T**(alpha+1), which overflows a float at T = 1e300
    code = main(
        ["solve", "--example", "1", "--alpha", "0.5", "--gamma", "1.5",
         "--N", "8", "--J", "16", "--T", "1e300"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "memburgers: numeric overflow: (34, 'Numerical result out of range')\n"
    )


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


def test_out_of_memory_exits_2(monkeypatch, capsys):
    # --J 1000000000000000 would ask for a 7.11 PiB grid; the refused
    # allocation is simulated by the first weight block of a small solve,
    # never made
    def refuse(mesh, alpha, rows, first_col):
        raise MemoryError("Unable to allocate 7.11 PiB for an array with shape "
                          "(1000000000000001,) and data type float64")

    monkeypatch.setattr(scheme, "compute_weights", refuse)
    code = main(
        ["solve", "--example", "1", "--alpha", "0.5", "--gamma", "1",
         "--N", "8", "--J", "4"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "memburgers: out of memory: Unable to allocate 7.11 PiB for an array with "
        "shape (1000000000000001,) and data type float64\n"
    )


def test_stability_violation_exits_1(monkeypatch, capsys):
    # never expected on a correct assembly; the violation is simulated at step 1
    def violate(bound, u_new, h, step):
        raise scheme.StabilityViolationError(
            f"energy bound violated at step {step}: ||U^n|| exceeds "
            f"||U^0|| + 2 sum k_l ||f^(l-1/2)|| by 1.000e-03"
        )

    monkeypatch.setattr(scheme, "_check_stability", violate)
    code = main(
        ["solve", "--example", "1", "--alpha", "0.5", "--gamma", "1",
         "--N", "8", "--J", "4"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "memburgers: solver failed: energy bound violated at step 1: ||U^n|| exceeds "
        "||U^0|| + 2 sum k_l ||f^(l-1/2)|| by 1.000e-03\n"
    )


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
    # the solve would print an error from nonpositive weights (w[65, 1]
    # cancels to 0 on this mesh; with N <= 2 _BLOCK every weight is exact)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "memburgers.cli", "solve", "--example", "1",
         "--alpha", "0.25", "--gamma", "8", "--N", "128", "--J", "64"],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert "error_l2=" not in proc.stdout
    assert "nonpositive weight" in proc.stderr


def test_overflowing_weights_exit_2_with_one_line():
    # the weight kernel's powers overflow at T = 1e300; the solve must say
    # so in one line, with no numpy warning before it
    proc = subprocess.run(
        [sys.executable, "-m", "memburgers.cli", "solve", "--example", "2",
         "--alpha", "0.5", "--gamma", "1.5", "--N", "8", "--J", "16", "--T", "1e300",
         "--f-mode", "interval-average"],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("memburgers: compute_weights: non-finite weight in row 2;")


def test_underflowing_weights_exit_2_with_one_line(capsys):
    # at T = 1e-300 the steps' powers k**1.5 underflow to 0: the refusal
    # names the underflow, not a cancellation
    code = main(["solve", "--example", "1", "--alpha", "0.5", "--gamma", "1",
                 "--N", "300", "--J", "8", "--T", "1e-300"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(
        "memburgers: compute_weights: the powers of the mesh steps underflow in rows 1..64 ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("flags, code, message", [
    # the source factors overflow at T = 1e100, while the weights stay finite
    (["--T", "1e100", "--f-mode", "interval-average"], 2,
     "memburgers: f_half: non-finite source factor at step 1 for the t**3 term;"),
    # the iterate of the first step diverges at T = 1e5
    (["--T", "1e5"], 1,
     "memburgers: solver failed: fixed-point iteration did not converge at step 1: "
     "increment inf"),
    # an infinite gamma passes every gamma >= 1 check
    (["--gamma", "inf"], 2,
     "memburgers: resolve_gamma: explicit gamma must be finite and >= 1, got inf"),
    # a huge finite gamma underflows the first levels to 0
    (["--gamma", "1e300"], 2,
     "memburgers: build_graded_mesh: gamma = 1e+300 is too large for N = 8 and T = 1.0: "
     "the levels (n*k_base)**gamma underflow to 0 for n <= 7"),
    (["--gamma", "400"], 2,
     "memburgers: build_graded_mesh: gamma = 400.0 is too large for N = 8 and T = 1.0: "
     "the levels (n*k_base)**gamma underflow to 0 for n <= 1"),
], ids=["overflowing-sources", "diverging-step", "infinite-gamma", "huge-gamma", "underflowing-gamma"])
def test_refused_solve_prints_one_line(flags, code, message):
    # each failure is named in one stderr line, with no numpy warning before it
    proc = subprocess.run(
        [sys.executable, "-m", "memburgers.cli", "solve", "--example", "1",
         "--alpha", "0.5", "--gamma", "1.5", "--N", "8", "--J", "16", *flags],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(message)


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
