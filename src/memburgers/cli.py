"""Command-line interface.

Subcommands:

    solve         one solve; prints a summary, optionally dumps the trajectory
    study-time    temporal convergence study (double N at fixed J)
    study-space   spatial convergence study (double J at fixed N)
    weights-dump  product-integration weight table as CSV
    check-mesh    grading-hypothesis diagnostics for one mesh

Every flag can also be given in a plain key=value config file passed with
--config (keys are the long flag names without dashes, e.g. `f-mode=...`;
in studies `alpha` may be comma-separated).  Explicit flags override the
file.  Exit status is 0 on success and nonzero with a diagnostic on
failure (nonconvergence, invalid parameters, unwritable output path).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional, Sequence

from .harness import (
    GAMMA_RULES,
    StudyPlan,
    dump_trajectory_csv,
    dump_weights_csv,
    error_at_final_time,
    gamma_from_rule,
    resolve_gamma,
    run_study,
)
from .mesh import build_graded_mesh, build_spatial_grid, check_mesh_hypotheses
from .problems import problem_by_name
from .quadrature import compute_weights
from .scheme import NonconvergenceError, SchemeConfig, solve

_F_MODE_FLAGS = {
    "midpoint": "midpoint",
    "endpoint-average": "endpoint_average",
    "interval-average": "interval_average",
}


def _parse_config_file(path: str) -> Dict[str, str]:
    """Read key=value lines; blank lines and # comments are skipped."""
    values: Dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


class _Options:
    """Merged view of CLI flags, config-file values, and defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.config: Dict[str, str] = {}
        if self.args.get("config"):
            self.config = _parse_config_file(self.args["config"])

    def get(self, key: str, cast, default=None, required: bool = False):
        attr = key.replace("-", "_")
        value = self.args.get(attr)
        if value is not None:
            return value
        if key in self.config:
            return cast(self.config[key])
        if required:
            raise ValueError(f"missing required option --{key}")
        return default


def _cast_alpha_list(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _gamma_value(text: str):
    """A gamma flag is either a number or one of the named rules."""
    if text in GAMMA_RULES:
        return text
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"--gamma must be a number or one of {', '.join(GAMMA_RULES)}; got {text!r}"
        ) from None


def _f_mode(text: str) -> str:
    try:
        return _F_MODE_FLAGS[text]
    except KeyError:
        raise ValueError(
            f"--f-mode must be one of {', '.join(_F_MODE_FLAGS)}; got {text!r}"
        ) from None


def _add_common(parser: argparse.ArgumentParser, *, alphas: bool = False) -> None:
    parser.add_argument("--config", help="key=value file; explicit flags override it")
    if alphas:
        parser.add_argument(
            "--alpha", type=float, nargs="+", help="memory exponent(s) in (0, 1)"
        )
    else:
        parser.add_argument("--alpha", type=float, help="memory exponent in (0, 1)")
    parser.add_argument(
        "--gamma",
        type=_gamma_value,
        help="grading exponent >= 1, or auto-sigma / 2/(alpha+1) / 2/(alpha+2)",
    )
    parser.add_argument("--N", type=int, help="number of time steps")
    parser.add_argument("--J", type=int, help="number of space intervals")
    parser.add_argument("--T", type=float, help="final time (default 1)")
    parser.add_argument("--L", type=float, help="domain length (default 1)")


def _add_problem(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--example", type=int, choices=(1, 2), help="manufactured problem")
    parser.add_argument(
        "--f-mode",
        type=_f_mode,
        help="midpoint | endpoint-average | interval-average",
    )
    parser.add_argument("--eps", type=float, help="fixed-point tolerance (default 1e-6)")
    parser.add_argument("--max-steps", type=int, help="fixed-point pass budget (default 300)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memburgers",
        description="Implicit graded-mesh solver for a Burgers-type equation "
        "with weakly singular memory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solve and print a summary")
    _add_common(p)
    _add_problem(p)
    p.add_argument("--out", help="write the full trajectory as CSV")

    for name, axis_help in (
        ("study-time", "double N at fixed J"),
        ("study-space", "double J at fixed N"),
    ):
        p = sub.add_parser(name, help=f"convergence study ({axis_help})")
        _add_common(p, alphas=True)
        _add_problem(p)
        p.add_argument("--levels", type=int, help="number of refinement levels")
        p.add_argument("--out", help="write the study rows as CSV")

    p = sub.add_parser("weights-dump", help="dump the weight table as CSV")
    _add_common(p)
    p.add_argument("--out", help="CSV path (default: stdout)")

    p = sub.add_parser("check-mesh", help="report grading-hypothesis diagnostics")
    _add_common(p)

    return parser


def _resolve_problem_options(opts: _Options, *, multi_alpha: bool):
    example = opts.get("example", int, required=True)
    if example not in (1, 2):
        raise ValueError(f"--example must be 1 or 2, got {example}")
    if multi_alpha:
        alphas = opts.get("alpha", _cast_alpha_list, required=True)
        if isinstance(alphas, float):
            alphas = [alphas]
        return f"example{example}", [float(a) for a in alphas]
    alpha = opts.get("alpha", float, required=True)
    return f"example{example}", float(alpha)


def _cmd_solve(opts: _Options) -> int:
    name, alpha = _resolve_problem_options(opts, multi_alpha=False)
    problem = problem_by_name(name, alpha)
    f_mode = opts.get("f-mode", _f_mode, default="endpoint_average")
    gamma_rule = opts.get("gamma", _gamma_value, required=True)
    gamma = resolve_gamma(gamma_rule, problem, f_mode)
    n = opts.get("N", int, required=True)
    j = opts.get("J", int, required=True)
    t_final = opts.get("T", float, default=1.0)
    length = opts.get("L", float, default=1.0)
    config = SchemeConfig(
        eps=opts.get("eps", float, default=1e-6),
        max_steps=opts.get("max-steps", int, default=300),
        f_mode=f_mode,
    )
    out = opts.get("out", str)

    mesh = build_graded_mesh(t_final, n, gamma)
    grid = build_spatial_grid(length, j)
    start = time.perf_counter()
    result = solve(problem, mesh, grid, alpha, config, keep_trajectory=out is not None)
    wall = time.perf_counter() - start
    err = error_at_final_time(result.final, problem, t_final)

    print(f"problem={name} alpha={alpha} gamma={gamma:.6g} N={n} J={j} f_mode={f_mode}")
    print(f"error_l2={err:.6e} wall_time_seconds={wall:.3f} "
          f"max_fp_iters={result.max_fp_iterations}")
    if out is not None:
        dump_trajectory_csv(result, out)
        print(f"trajectory written to {out}")
    return 0


def _cmd_study(opts: _Options, axis: str) -> int:
    name, alphas = _resolve_problem_options(opts, multi_alpha=True)
    f_mode = opts.get("f-mode", _f_mode, default="endpoint_average")
    plan = StudyPlan(
        problem=name,
        alphas=tuple(alphas),
        gamma_rule=opts.get("gamma", _gamma_value, required=True),
        axis=axis,
        base_n=opts.get("N", int, required=True),
        base_j=opts.get("J", int, required=True),
        levels=opts.get("levels", int, required=True),
        f_mode=f_mode,
        eps=opts.get("eps", float, default=1e-6),
        max_steps=opts.get("max-steps", int, default=300),
        t_final=opts.get("T", float, default=1.0),
        length=opts.get("L", float, default=1.0),
        out=opts.get("out", str),
    )
    rows = run_study(plan)
    if plan.out is None:
        _print_rows(rows)
    else:
        print(f"{len(rows)} rows written to {plan.out}")
    return 0


def _print_rows(rows) -> None:
    print("alpha   gamma     N     J  f_mode            error_l2      rate   iters")
    for r in rows:
        rate = f"{r.rate:6.2f}" if r.rate is not None else "     -"
        print(
            f"{r.alpha:<7.4g} {r.gamma:<8.6g} {r.N:>5} {r.J:>5}  {r.f_mode:<16} "
            f"{r.error_l2:.6e} {rate} {r.max_fp_iters:>6}"
        )


def _cmd_weights_dump(opts: _Options) -> int:
    alpha = opts.get("alpha", float, required=True)
    gamma = gamma_from_rule(opts.get("gamma", _gamma_value, required=True), alpha)
    n = opts.get("N", int, required=True)
    t_final = opts.get("T", float, default=1.0)
    mesh = build_graded_mesh(t_final, n, gamma)
    weights = compute_weights(mesh, alpha)
    out = opts.get("out", str)
    if out is None:
        dump_weights_csv(weights, sys.stdout)
    else:
        with open(out, "w", newline="") as fh:
            dump_weights_csv(weights, fh)
        print(f"weights written to {out}")
    return 0


def _cmd_check_mesh(opts: _Options) -> int:
    gamma = opts.get("gamma", _gamma_value, required=True)
    if isinstance(gamma, str):
        raise ValueError("check-mesh: --gamma must be a number")
    n = opts.get("N", int, required=True)
    t_final = opts.get("T", float, default=1.0)
    mesh = build_graded_mesh(t_final, n, gamma)
    report = check_mesh_hypotheses(mesh)
    print(f"mesh: T={t_final:.6g} N={n} gamma={gamma:.6g} k_base={mesh.k_base:.6e}")
    print(f"  t_1={mesh.t[1]:.6e} k_min={mesh.k.min():.6e} k_max={mesh.k.max():.6e}")
    print(f"step bound        ok={report.step_bound_ok}  C={report.step_bound_const:.6g}")
    print(f"level growth      ok={report.level_growth_ok}  "
          f"c1={report.initial_level_const:.6g} C={report.level_growth_const:.6g}")
    print(f"step monotonicity ok={report.monotone_steps_ok}  C={report.step_increase_const:.6g}")
    print(f"all hypotheses hold: {report.all_ok}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _Options(args)
        if args.command == "solve":
            return _cmd_solve(opts)
        if args.command == "study-time":
            return _cmd_study(opts, "time")
        if args.command == "study-space":
            return _cmd_study(opts, "space")
        if args.command == "weights-dump":
            return _cmd_weights_dump(opts)
        if args.command == "check-mesh":
            return _cmd_check_mesh(opts)
        raise ValueError(f"unknown command {args.command!r}")
    except NonconvergenceError as exc:
        print(f"memburgers: solver failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"memburgers: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
