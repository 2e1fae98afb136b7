"""The public surface: what the package exports, what the README documents,
and what the benchmark in bench/run.py relies on; no module imports a name
it does not use, and none imports scipy."""

import ast
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import memburgers
from memburgers import harness, scheme
from memburgers.quadrature import _BLOCK

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench" / "run.py"
PACKAGE = Path(memburgers.__file__).resolve().parent


def _bench_module():
    return ast.parse(BENCH.read_text(), filename=str(BENCH))


def test_all_names_resolve_and_are_documented():
    readme = (ROOT / "README.md").read_text()
    for name in memburgers.__all__:
        assert hasattr(memburgers, name), f"memburgers.__all__ names missing {name!r}"
        assert f"`{name}`" in readme, f"README does not document {name!r}"


def test_bench_imports_resolve():
    names = [
        alias.name
        for node in ast.walk(_bench_module())
        if isinstance(node, ast.ImportFrom) and node.module == "memburgers"
        for alias in node.names
    ]
    assert names, "bench/run.py no longer imports from memburgers"
    for name in names:
        assert hasattr(memburgers, name), f"bench/run.py imports missing {name!r}"


def _bench_literal(name):
    """The literal value bench/run.py assigns to name, or None."""
    for node in ast.walk(_bench_module()):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def test_bench_scheme_callees_exist():
    callees = _bench_literal("SCHEME_CALLEES")
    assert callees, "bench/run.py no longer defines SCHEME_CALLEES"
    for attr in callees:
        assert hasattr(scheme, attr), f"memburgers.scheme has no {attr!r}"


def test_bench_harness_names_exist():
    # every study sample replaces harness.solve and harness.problem_by_name,
    # and a traced one also the HARNESS_CALLEES; a harness that stopped
    # importing one of them would break the benchmark
    callees = _bench_literal("HARNESS_CALLEES")
    literal = {
        node.elts[1].value
        for node in ast.walk(_bench_module())
        if isinstance(node, ast.Tuple)
        and len(node.elts) == 3
        and isinstance(node.elts[0], ast.Name)
        and node.elts[0].id == "harness"
        and isinstance(node.elts[1], ast.Constant)
    }
    assert callees and literal == {"solve", "problem_by_name"}
    for attr in [*callees, *literal]:
        assert hasattr(harness, attr), f"memburgers.harness has no {attr!r}"


def test_bench_scheme_callees_are_called(monkeypatch):
    # the benchmark times each callee by wrapping the scheme attribute; one
    # that is still defined but no longer called would read 0 silently
    calls = dict.fromkeys(_bench_literal("SCHEME_CALLEES"), 0)

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        return wrapper

    for attr in calls:
        monkeypatch.setattr(scheme, attr, counted(attr, getattr(scheme, attr)))
    mesh = memburgers.build_graded_mesh(1.0, 4, 1.5)
    grid = memburgers.build_spatial_grid(1.0, 8)
    scheme.solve(memburgers.example1(0.5), mesh, grid, 0.5, scheme.SchemeConfig())
    assert all(calls.values()), f"callees never called: {[a for a, n in calls.items() if not n]}"


def test_bitwise_check_covers_the_bench_workloads():
    # tools/bitwise.py states the benchmark's workloads again, so that it
    # runs them on trees older than bench/run.py's; the two must not drift
    spec = importlib.util.spec_from_file_location("bitwise", ROOT / "tools" / "bitwise.py")
    bitwise = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bitwise)
    cases = dict(bitwise.cases())
    workloads = [node for node in ast.walk(_bench_module())
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload"]
    assert len(workloads) == 3
    for node in workloads:
        name, problem, alpha, gamma, f_mode = map(ast.literal_eval, node.args)
        kw = {k.arg: ast.literal_eval(k.value) for k in node.keywords}
        levels = kw.get("levels", 0) if kw.get("study") else 0
        assert cases[f"{name} rows" if levels else name] == dict(
            problem=problem, alpha=alpha, gamma=gamma, f_mode=f_mode,
            N=kw["n"], J=kw["j"], levels=levels,
        ), name


def test_package_modules_use_every_import():
    # __init__ imports names only to re-export them, so it is exempt
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} imports unused {sorted(imported - used)}"


def test_package_defines_only_what_it_uses():
    # helpers used only by tests live under tests/: every top-level function
    # and class of the package is called, imported, taken as an attribute
    # or exported through __all__ somewhere in the package itself
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {a.name for a in node.names}
    unused = [f"{module}:{name}" for module, name in defined if name not in used]
    assert not unused, f"defined but never used by the package: {unused}"


def test_package_modules_have_no_assert():
    # python -O strips assert statements, so checks must raise instead; the
    # test oracles count too, since a dropped check there passes silently
    for path in sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "oracles.py"]:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_package_modules_do_not_import_scipy():
    # the runtime needs numpy only: importing scipy.linalg cost 0.2-0.35 s of
    # every fresh interpreter's set-up and loaded a second OpenBLAS
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules.append(node.module)
        scipy = [m for m in modules if m.split(".")[0] == "scipy"]
        assert not scipy, f"{path.name} imports {scipy}"


def _run_fresh(script):
    """Run script in a fresh interpreter that imports this package's source."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_a_solve_and_the_cli_load_no_scipy():
    # N > 2 _BLOCK, so the solve also builds the sum-of-exponentials tail
    n = 2 * _BLOCK + 2
    proc = _run_fresh(f"""
        import sys
        import memburgers
        from memburgers import cli
        mesh = memburgers.build_graded_mesh(1.0, {n}, 1.5)
        grid = memburgers.build_spatial_grid(1.0, 8)
        memburgers.solve(memburgers.example1(0.5), mesh, grid, 0.5, memburgers.SchemeConfig())
        code = cli.main(["solve", "--example", "1", "--alpha", "0.5", "--gamma", "1.5",
                         "--N", "{n}", "--J", "8"])
        print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_import_without_the_lapack_symbols_fails_in_one_line():
    # a numpy whose LAPACK exports none of the routines: one ImportError
    # naming all three (the two LAPACK ones and BLAS's dgemm), and no fallback
    proc = _run_fresh("""
        import ctypes
        import numpy

        class NoSymbols:
            def __init__(self, path):
                pass

        ctypes.CDLL = NoSymbols
        try:
            import memburgers
        except ImportError as error:
            print(error)
    """)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    assert "scipy_dpttrf_64_" in line and "scipy_dpttrs_64_" in line
    assert "scipy_cblas_dgemm64_" in line
