"""Benchmark for memburgers: end-to-end solve and study cost, with a traced per-module split.

    python3 bench/run.py --workload long_history --seed 1 --seconds 35 --trace 0

One workload runs in this process, in a closed loop: one sample (a `solve`,
or a `run_study` for a study workload) at a time, the next starting when the
last returns.  With --trace 0 the samples run untraced and the end-to-end
metrics are reported.  With --trace 1 untraced and traced samples alternate
(the seed orders each pair) and the per-layer metrics are reported; spans go
to bench/out/.  Every answer is checked against the error_l2 recorded from
the seed code; a solve that raises or fails a check counts as failed and the
command exits 1.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  bench/README.md says why each
workload exists.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

if not (SRC / "memburgers" / "__init__.py").is_file():
    sys.exit(f"bench: no package source at {SRC / 'memburgers'}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from memburgers import (  # noqa: E402
    SchemeConfig,
    SeparableForcing,
    StudyPlan,
    build_graded_mesh,
    build_spatial_grid,
    error_at_final_time,
    harness,
    problem_by_name,
    resolve_gamma,
    run_study,
    scheme,
    solve,
)
from tracing import Tracer, patch  # noqa: E402

T_FINAL = 1.0
LENGTH = 1.0
# Removing the iteration error (eps 1e-12 instead of 1e-6) moves the
# recorded errors by 0.09%, 0.23% and 3.2%; the gate leaves room for that shift.
ERROR_RTOL = 0.05
RATE_TOL = 0.15
MARGIN_FLOOR = -1e-9
SETUP_REPEATS = 5
MIN_SAMPLES = 3
SPLIT_RTOL = 0.01

# unit of every metric the command prints; BENCHMARK.json names the same ones
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "error_l2": "1"}
PER_LAYER = {
    "quadrature.compute_weights_s": "s",
    "quadrature.weight_table_mb": "MB",
    "problems.f_half_s": "s",
    "problems.f_half_calls": "count",
    "problems.profile_evals": "count",
    "scheme.tridiagonal_solve_s": "s",
    "scheme.tridiagonal_solve_calls": "count",
    "scheme.tridiagonal_solve_us": "us",
    "scheme.passes_total": "count",
    "scheme.passes_max": "count",
    "scheme.solve_self_s": "s",
    "scheme.history_flops": "flop",
    "scheme.history_mb": "MB",
    "scheme.min_stability_margin": "1",
    "gridops.convection_values_s": "s",
    "gridops.convection_values_calls": "count",
    "gridops.second_diff_values_s": "s",
    "mesh.build_s": "s",
    "harness.self_s": "s",
    "harness.error_at_final_time_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# functions memburgers.scheme calls into, traced where scheme looks them up
SCHEME_CALLEES = {
    "compute_weights": "quadrature.compute_weights",
    "f_half": "problems.f_half",
    "tridiagonal_solve": "scheme.tridiagonal_solve",
    "convection_values": "gridops.convection_values",
    "second_diff_values": "gridops.second_diff_values",
}
# functions run_study calls into besides solve and problem_by_name
HARNESS_CALLEES = {
    "build_graded_mesh": "mesh.build_graded_mesh",
    "build_spatial_grid": "mesh.build_spatial_grid",
    "error_at_final_time": "harness.error_at_final_time",
}
# the layer metrics that make up a traced solve, children first
SOLVE_PARTS = (
    "quadrature.compute_weights_s",
    "problems.f_half_s",
    "scheme.tridiagonal_solve_s",
    "gridops.convection_values_s",
    "gridops.second_diff_values_s",
    "scheme.solve_self_s",
)


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload.

    A solve workload times one `solve` at N = n per sample; a study workload
    times one `run_study` over `levels` levels, N doubling from n.  ref_error
    is error_l2 at T on the finest level, recorded from the seed code, and
    rate_target the value the finest level's observed rate must sit near.
    """

    name: str
    problem: str
    alpha: float
    gamma: str
    f_mode: str
    n: int
    j: int
    ref_error: float
    study: bool = False
    levels: int = 1
    rate_target: Optional[float] = None

    @property
    def n_final(self) -> int:
        return self.n * 2 ** (self.levels - 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("long_history", "example1", 0.25, "2/(alpha+1)", "endpoint_average",
                 n=4096, j=256, ref_error=3.234311376316316e-05),
        Workload("fine_space", "example1", 0.65, "2/(alpha+1)", "endpoint_average",
                 n=128, j=16384, ref_error=2.6840265380708437e-05),
        Workload("singular_study", "example2", 0.75, "auto-sigma", "interval_average",
                 n=16, j=4096, ref_error=1.4795711691616718e-06,
                 study=True, levels=6, rate_target=2.0),
    )
}

# Set-up as a user pays it: a fresh interpreter imports the package and
# builds the problem, the (finest) mesh and the grid.
SETUP_CHILD = """
import time
t0 = time.perf_counter()
import memburgers as mb
problem = mb.problem_by_name({problem!r}, {alpha!r})
gamma = mb.resolve_gamma({gamma!r}, problem, {f_mode!r})
mb.build_graded_mesh({t_final!r}, {n!r}, gamma)
mb.build_spatial_grid({length!r}, {j!r})
print(time.perf_counter() - t0)
"""


@dataclass
class Inputs:
    problem: object
    mesh: object
    grid: object
    config: SchemeConfig
    plan: Optional[StudyPlan]


@dataclass
class Sample:
    wall: float
    attempted: int
    failed: int
    error: float = math.nan
    rate: Optional[float] = None
    results: list = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


def _untraced(name, fn):
    return fn


def build_inputs(w: Workload, wrap=_untraced) -> Inputs:
    problem = wrap("problems.problem_by_name", problem_by_name)(w.problem, w.alpha)
    gamma = resolve_gamma(w.gamma, problem, w.f_mode)
    mesh = wrap("mesh.build_graded_mesh", build_graded_mesh)(T_FINAL, w.n_final, gamma)
    grid = wrap("mesh.build_spatial_grid", build_spatial_grid)(LENGTH, w.j)
    plan = None
    if w.study:
        plan = StudyPlan(problem=w.problem, alphas=(w.alpha,), gamma_rule=w.gamma,
                         axis="time", base_n=w.n, base_j=w.j, levels=w.levels,
                         f_mode=w.f_mode, t_final=T_FINAL, length=LENGTH)
    return Inputs(problem, mesh, grid, SchemeConfig(f_mode=w.f_mode), plan)


def measure_setup(w: Workload, repeats: int) -> List[float]:
    code = SETUP_CHILD.format(problem=w.problem, alpha=w.alpha, gamma=w.gamma, f_mode=w.f_mode,
                              t_final=T_FINAL, n=w.n_final, length=LENGTH, j=w.j)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout.split()[-1]))
    return times


def with_counted_profiles(problem, tracer: Tracer):
    """The same problem, its forcing profiles counted as problems.profile_evals."""
    terms = tuple(
        dataclasses.replace(t, profile=tracer.counter("problems.profile_evals", t.profile))
        for t in problem.forcing.terms
    )
    return dataclasses.replace(problem, forcing=SeparableForcing(terms))


def gate(w: Workload, s: Sample) -> Dict[int, str]:
    """Solves of one sample (by index) that fail a correctness check, with why."""
    bad = {}
    for i, r in enumerate(s.results):
        margin = min(rep.stability_margin for rep in r.reports)
        if not margin >= MARGIN_FLOOR:
            bad[i] = f"stability margin {margin:.3e} below {MARGIN_FLOOR:g}"
    last = w.levels - 1
    if not abs(s.error / w.ref_error - 1.0) <= ERROR_RTOL:
        bad[last] = f"error_l2 {s.error:.6e} is not within {ERROR_RTOL:.0%} of {w.ref_error:.6e}"
    if w.rate_target is not None and not (s.rate is not None and abs(s.rate - w.rate_target) <= RATE_TOL):
        bad[last] = f"rate_last {s.rate} is not within {RATE_TOL} of {w.rate_target}"
    return bad


def take_sample(w: Workload, inp: Inputs, tracer: Optional[Tracer] = None) -> Sample:
    """Time one sample, then check its answer outside the timed region."""
    wrap = tracer.wrap if tracer else _untraced
    results: list = []

    traced_solve = wrap("scheme.solve", solve)

    def kept_solve(*args, **kwargs):
        results.append(traced_solve(*args, **kwargs))
        return results[-1]

    problem = with_counted_profiles(inp.problem, tracer) if tracer else inp.problem
    replacements = []
    if tracer:
        replacements += [(scheme, attr, tracer.wrap(name, getattr(scheme, attr)))
                         for attr, name in SCHEME_CALLEES.items() if hasattr(scheme, attr)]
    if w.study:
        replacements.append((harness, "solve", kept_solve))
        if tracer:
            replacements += [(harness, attr, tracer.wrap(name, getattr(harness, attr)))
                             for attr, name in HARNESS_CALLEES.items()]
            replacements.append((harness, "problem_by_name", tracer.wrap(
                "problems.problem_by_name",
                lambda name, alpha: with_counted_profiles(problem_by_name(name, alpha), tracer))))

    attempted = w.levels
    with patch(replacements):
        start = time.perf_counter()
        try:
            if w.study:
                rows = wrap("harness.run_study", run_study)(inp.plan)
            else:
                kept_solve(problem, inp.mesh, inp.grid, w.alpha, inp.config)
        except Exception:
            wall = time.perf_counter() - start
            return Sample(wall, attempted, attempted, results=results,
                          failures=[traceback.format_exc(limit=3)])
        wall = time.perf_counter() - start
        if w.study:
            error, rate = rows[-1].error_l2, rows[-1].rate
        else:
            error = wrap("harness.error_at_final_time", error_at_final_time)(
                results[0].final, problem, T_FINAL)
            rate = None

    s = Sample(wall, attempted, 0, error, rate, results)
    bad = gate(w, s)
    s.failed = len(bad) + max(0, attempted - len(results))
    s.failures = sorted(set(bad.values()))
    return s


def layer_metrics(tracer: Tracer, sample_id: int, s: Sample) -> Dict[str, float]:
    inclusive, self_time, calls = tracer.totals(sample_id)
    sizes = [(r.mesh.N, r.grid.J) for r in s.results]
    reports = [rep for r in s.results for rep in r.reports]
    tri_s, tri_calls = inclusive["scheme.tridiagonal_solve"], calls["scheme.tridiagonal_solve"]
    return {
        "quadrature.compute_weights_s": inclusive["quadrature.compute_weights"],
        "quadrature.weight_table_mb": max((n + 1) ** 2 * 8 for n, _ in sizes) / 1e6,
        "problems.f_half_s": inclusive["problems.f_half"],
        "problems.f_half_calls": calls["problems.f_half"],
        "problems.profile_evals": tracer.counts[sample_id, "problems.profile_evals"],
        "scheme.tridiagonal_solve_s": tri_s,
        "scheme.tridiagonal_solve_calls": tri_calls,
        "scheme.tridiagonal_solve_us": 1e6 * tri_s / tri_calls if tri_calls else 0.0,
        "scheme.passes_total": sum(rep.iterations for rep in reports),
        "scheme.passes_max": max(rep.iterations for rep in reports),
        "scheme.solve_self_s": self_time["scheme.solve"],
        "scheme.history_flops": sum((j + 1) * n * (n - 1) for n, j in sizes),
        "scheme.history_mb": max((n + 1) * (j + 1) * 8 for n, j in sizes) / 1e6,
        "scheme.min_stability_margin": min(rep.stability_margin for rep in reports),
        "gridops.convection_values_s": inclusive["gridops.convection_values"],
        "gridops.convection_values_calls": calls["gridops.convection_values"],
        "gridops.second_diff_values_s": inclusive["gridops.second_diff_values"],
        "mesh.build_s": inclusive["mesh.build_graded_mesh"] + inclusive["mesh.build_spatial_grid"],
        "harness.self_s": self_time["harness.run_study"] + self_time["harness.error_at_final_time"],
        "harness.error_at_final_time_s": inclusive["harness.error_at_final_time"],
        "trace.wall_s": s.wall,
    }


def wall_summary(walls: List[float]) -> Dict[str, object]:
    """Mean, median, sample count, and the highest percentile with >= 10 samples beyond it."""
    summary: Dict[str, object] = {"mean_s": statistics.fmean(walls), "median_s": statistics.median(walls),
                                  "samples": len(walls)}
    if len(walls) >= 11:
        p = math.floor(100 * (1 - 10 / len(walls)))
        summary[f"p{p}_s"] = statistics.quantiles(walls, n=100)[p - 1]
    return summary


def _openblas():
    """numpy's OpenBLAS (version, thread count), or None where it cannot be queried."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
            config = lib.scipy_openblas_get_config64_().decode()
            return config, int(lib.scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return None, None


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> Dict[str, object]:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    openblas, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": threads,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def _median(values) -> Optional[float]:
    values = [v for v in values if v is not None and not math.isnan(v)]
    return statistics.median(values) if values else None


def measure(w: Workload, seconds: float, trace: bool, seed: int,
            setup_repeats: int = SETUP_REPEATS) -> Dict[str, object]:
    """Run one workload for `seconds`; returns the full record of the run."""
    setup = [] if trace else measure_setup(w, setup_repeats)
    tracer = Tracer() if trace else None
    inp = build_inputs(w, tracer.wrap if tracer else _untraced)  # traced as sample 0
    samples = [take_sample(w, inp)]  # warm-up: checked and counted, not timed
    # a process that has run one sample; later samples only add allocator reuse noise
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    untraced: List[Sample] = []
    traced: List[Sample] = []
    order = random.Random(seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(untraced) < MIN_SAMPLES or (
        trace and len(traced) < MIN_SAMPLES
    ):
        if not trace:
            untraced.append(take_sample(w, inp))
            continue
        for traced_turn in order.sample((False, True), 2):
            if traced_turn:
                tracer.sample = len(traced) + 1
                traced.append(take_sample(w, inp, tracer))
            else:
                untraced.append(take_sample(w, inp))
    samples += untraced + traced

    record: Dict[str, object] = {
        "workload": dataclasses.asdict(w),
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(seed),
        "attempted": sum(s.attempted for s in samples),
        "failed": sum(s.failed for s in samples),
        "failures": sorted({f for s in samples for f in s.failures}),
        "wall": wall_summary([s.wall for s in untraced]),
        "walls_s": [s.wall for s in untraced],
        "rate_last": _median(s.rate for s in samples),
    }
    if not trace:
        record["setup_times_s"] = setup
        record["metrics"] = {
            "setup_s": statistics.median(setup),
            "wall_s": record["wall"]["mean_s"],
            "peak_rss_mb": peak_rss_mb,
            "error_l2": _median(s.error for s in samples),
        }
        return record

    per_sample = [layer_metrics(tracer, i + 1, s) for i, s in enumerate(traced)
                  if s.results and not s.failed]
    layers = {name: _median(m[name] for m in per_sample) for name in PER_LAYER if name != "trace.overhead_s"}
    traced_wall = layers["trace.wall_s"]
    layers["trace.overhead_s"] = None if traced_wall is None else traced_wall - record["wall"]["median_s"]
    if not w.study:
        # a solve workload builds its mesh and grid once, at set-up (sample 0)
        inclusive, _, _ = tracer.totals(0)
        layers["mesh.build_s"] = inclusive["mesh.build_graded_mesh"] + inclusive["mesh.build_spatial_grid"]
        gaps = [abs(sum(m[p] for p in SOLVE_PARTS) - m["trace.wall_s"]) / m["trace.wall_s"]
                for m in per_sample]
        record["split_gap"] = max(gaps, default=None)
    record["metrics"] = layers
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"{w.name}-seed{seed}.spans.csv.gz"
    tracer.write(str(spans))
    record["spans_file"] = str(spans.relative_to(ROOT))
    return record


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(record: Dict[str, object]) -> List[str]:
    w, env, metrics = record["workload"], record["env"], record["metrics"]
    lines = [
        f"workload {w['name']}: {w['problem']} alpha={w['alpha']} gamma={w['gamma']} "
        f"f_mode={w['f_mode']} N={w['n']}{'..' + str(w['n'] * 2 ** (w['levels'] - 1)) if w['study'] else ''} "
        f"J={w['j']}  seed={env['seed']} trace={record['trace']} seconds={record['seconds']}",
        "env " + json.dumps(env, sort_keys=True),
    ]
    wall = record["wall"]
    tail = ", ".join(f"{k[:-2]} {v:.6g} s" for k, v in wall.items() if k.startswith("p"))
    lines.append(f"untraced samples: {wall['samples']}, mean {wall['mean_s']:.6g} s, median {wall['median_s']:.6g} s, "
                 f"{tail or 'no percentile has 10 samples beyond it'}")
    units = PER_LAYER if record["trace"] else END_TO_END
    traced_wall = metrics.get("trace.wall_s")
    for name, unit in units.items():
        value = metrics[name]
        share = ""
        if traced_wall and unit == "s" and value is not None and not name.startswith(("trace.", "mesh.")):
            share = f"  {value / traced_wall:7.1%} of wall"
        lines.append(f"  {name:32s} {_fmt(value):>14s} {unit}{share}")
    if w["rate_target"] is not None:
        lines.append(f"  {'rate_last':32s} {_fmt(record['rate_last']):>14s} 1")
    lines.append(f"  {'solves_failed':32s} {record['failed']:>14d} of {record['attempted']} solves")
    if record.get("split_gap") is not None:
        ok = "ok" if record["split_gap"] <= SPLIT_RTOL else "MISMATCH"
        lines.append(f"  layers + scheme.solve_self_s vs traced wall: max gap {record['split_gap']:.2e} ({ok})")
    for failure in record["failures"]:
        lines.append("  FAILED: " + failure.strip().replace("\n", "\n          "))
    return lines


def result_line(record: Dict[str, object]) -> str:
    units = PER_LAYER if record["trace"] else END_TO_END
    metrics = {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()}
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    record = measure(WORKLOADS[args.workload], args.seconds, bool(args.trace), args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    print("\n".join(report(record)))
    print(result_line(record))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
