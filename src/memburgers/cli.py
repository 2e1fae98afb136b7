"""Command-line interface.

Subcommands:

    solve         one solve; prints a summary, optionally dumps the trajectory
    study-time    temporal convergence study (double N at fixed J)
    study-space   spatial convergence study (double J at fixed N)
    weights-dump  product-integration weight table as CSV
    check-mesh    grading-hypothesis diagnostics for one mesh

Every flag can also be given in a plain key=value config file passed with
--config.  Keys are the long flag names without dashes (`N=64`,
`f-mode=interval-average`); a comma-separated value gives several values,
as `alpha=0.25,0.75` does in studies.  Each line becomes the flag it names,
placed before the explicit flags, so argparse checks a file value exactly
like the flag, explicit flags override the file, and a key the subcommand
does not take is refused; each subcommand takes only the flags it reads.
`--help` shows the required flags without brackets in its usage line.
Exit status is 0 on success and nonzero with a diagnostic on failure
(nonconvergence, invalid parameters, unwritable output path, a numeric
overflow, a problem too large for memory); a reader that closes stdout
early (`| head`) ends the output with exit 0 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional, Sequence

from .harness import (
    GAMMA_RULES,
    StudyPlan,
    dump_trajectory_csv,
    dump_weights_csv,
    emit_csv,
    error_at_final_time,
    gamma_from_rule,
    resolve_gamma,
    run_study,
)
from .mesh import build_graded_mesh, build_spatial_grid, check_mesh_hypotheses
from .problems import F_MODES, problem_by_name
from .quadrature import compute_weights
from .scheme import NonconvergenceError, SchemeConfig, StabilityViolationError, solve


def _config_argv(path: str) -> List[str]:
    """Turn key=value lines into `--key value ...` tokens; blank lines and
    # comments are skipped, and commas separate the values of one key."""
    tokens: List[str] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            tokens.append(f"--{key.strip()}")
            tokens.extend(part.strip() for part in value.split(",") if part.strip())
    return tokens


def _gamma_value(text: str):
    """A gamma flag is either a number or one of the named rules."""
    if text in GAMMA_RULES:
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a number or one of {', '.join(GAMMA_RULES)}; got {text!r}"
        ) from None


def _add_mesh(parser: argparse.ArgumentParser) -> None:
    """Flags of every subcommand: the config file and the temporal mesh."""
    parser.add_argument("--config", help="key=value file; explicit flags override it")
    parser.add_argument("--gamma", type=_gamma_value, required=True,
                        help="grading exponent >= 1, or auto-sigma / 2/(alpha+1) / 2/(alpha+2)")
    parser.add_argument("--N", type=int, required=True, help="number of time steps")
    parser.add_argument("--T", type=float, default=StudyPlan.t_final,
                        help="final time (default %(default)s)")


def _add_solver(parser: argparse.ArgumentParser, *, alphas: bool = False) -> None:
    """Flags of solve and the studies: problem, grid and solver settings."""
    parser.add_argument("--example", type=int, choices=(1, 2), required=True,
                        help="manufactured problem")
    parser.add_argument(
        "--alpha", type=float, nargs="+" if alphas else None, required=True,
        help="memory exponent(s) in (0, 1)" if alphas else "memory exponent in (0, 1)",
    )
    parser.add_argument("--J", type=int, required=True, help="number of space intervals")
    parser.add_argument("--L", type=float, default=StudyPlan.length,
                        help="domain length (default %(default)s)")
    parser.add_argument(
        "--f-mode",
        choices=[mode.replace("_", "-") for mode in F_MODES],
        default=SchemeConfig.f_mode.replace("_", "-"),
        help="time factor of the sources (default %(default)s)",
    )
    parser.add_argument("--eps", type=float, default=SchemeConfig.eps,
                        help="fixed-point tolerance on the increment of pass 2 and later "
                        "(default %(default)s)")
    parser.add_argument("--max-steps", type=int, default=SchemeConfig.max_steps,
                        help="fixed-point pass budget per step, at least 2 (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memburgers",
        description="Implicit graded-mesh solver for a Burgers-type equation "
        "with weakly singular memory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solve and print a summary")
    _add_mesh(p)
    _add_solver(p)
    p.add_argument("--out", help="write the full trajectory as CSV")
    p.set_defaults(run=_cmd_solve)

    for name, axis_help in (
        ("study-time", "double N at fixed J"),
        ("study-space", "double J at fixed N"),
    ):
        p = sub.add_parser(name, help=f"convergence study ({axis_help})")
        _add_mesh(p)
        _add_solver(p, alphas=True)
        p.add_argument("--levels", type=int, required=True, help="number of refinement levels")
        p.add_argument("--out", help="write the study rows as CSV")
        p.set_defaults(run=_cmd_study)

    p = sub.add_parser("weights-dump", help="dump the weight table as CSV")
    _add_mesh(p)
    p.add_argument("--alpha", type=float, required=True, help="memory exponent in (0, 1)")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(run=_cmd_weights_dump)

    p = sub.add_parser("check-mesh", help="report grading-hypothesis diagnostics")
    _add_mesh(p)
    p.set_defaults(run=_cmd_check_mesh)

    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    name = f"example{args.example}"
    problem = problem_by_name(name, args.alpha)
    f_mode = args.f_mode.replace("-", "_")
    gamma = resolve_gamma(args.gamma, problem, f_mode)
    config = SchemeConfig(eps=args.eps, max_steps=args.max_steps, f_mode=f_mode)

    mesh = build_graded_mesh(args.T, args.N, gamma)
    grid = build_spatial_grid(args.L, args.J)
    start = time.perf_counter()
    result = solve(problem, mesh, grid, args.alpha, config, keep_trajectory=args.out is not None)
    wall = time.perf_counter() - start
    err = error_at_final_time(result.final, problem, args.T)

    print(f"problem={name} alpha={args.alpha} gamma={gamma:.6g} N={args.N} J={args.J} "
          f"f_mode={f_mode}")
    print(f"error_l2={err:.6e} wall_time_seconds={wall:.3f} "
          f"max_fp_iters={result.max_fp_iterations}")
    if args.out is not None:
        dump_trajectory_csv(result, args.out)
        print(f"trajectory written to {args.out}")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    plan = StudyPlan(
        problem=f"example{args.example}",
        alphas=tuple(args.alpha),
        gamma_rule=args.gamma,
        axis=args.command.removeprefix("study-"),
        base_n=args.N,
        base_j=args.J,
        levels=args.levels,
        f_mode=args.f_mode.replace("-", "_"),
        eps=args.eps,
        max_steps=args.max_steps,
        t_final=args.T,
        length=args.L,
    )
    rows = run_study(plan)
    if args.out is None:
        _print_rows(rows)
    else:
        emit_csv(rows, args.out)
        print(f"{len(rows)} rows written to {args.out}")
    return 0


def _print_rows(rows) -> None:
    print("alpha   gamma     N     J  f_mode            error_l2      rate   iters")
    for r in rows:
        rate = f"{r.rate:6.2f}" if r.rate is not None else "     -"
        print(
            f"{r.alpha:<7.4g} {r.gamma:<8.6g} {r.N:>5} {r.J:>5}  {r.f_mode:<16} "
            f"{r.error_l2:.6e} {rate} {r.max_fp_iters:>6}"
        )


def _cmd_weights_dump(args: argparse.Namespace) -> int:
    mesh = build_graded_mesh(args.T, args.N, gamma_from_rule(args.gamma, args.alpha))
    weights = compute_weights(mesh, args.alpha)
    if args.out is None:
        dump_weights_csv(weights, sys.stdout)
    else:
        with open(args.out, "w", newline="") as fh:
            dump_weights_csv(weights, fh)
        print(f"weights written to {args.out}")
    return 0


def _cmd_check_mesh(args: argparse.Namespace) -> int:
    if isinstance(args.gamma, str):
        raise ValueError("check-mesh: --gamma must be a number")
    mesh = build_graded_mesh(args.T, args.N, args.gamma)
    report = check_mesh_hypotheses(mesh)
    print(f"mesh: T={mesh.T:.6g} N={mesh.N} gamma={mesh.gamma:.6g} k_base={mesh.k_base:.6e}")
    print(f"  t_1={mesh.t[1]:.6e} k_min={mesh.k.min():.6e} k_max={mesh.k.max():.6e}")
    print(f"step bound        ok={report.step_bound_ok}  C={report.step_bound_const:.6g}")
    print(f"level growth      ok={report.level_growth_ok}  "
          f"c1={report.initial_level_const:.6g} C={report.level_growth_const:.6g}")
    print(f"step monotonicity ok={report.monotone_steps_ok}  C={report.step_increase_const:.6g}")
    print(f"all hypotheses hold: {report.all_ok}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    pre = argparse.ArgumentParser(prog="memburgers", add_help=False)
    pre.add_argument("--config")
    known, argv = pre.parse_known_args(argv)
    try:
        if known.config is not None:
            # right after the subcommand, so the explicit flags that follow win
            argv[1:1] = _config_argv(known.config)
        args = build_parser().parse_args(argv)
        if args.config is not None:
            raise ValueError("a config file cannot name another config file")
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader left (`| head`): stop, quietly; exit flushes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (NonconvergenceError, StabilityViolationError) as exc:
        print(f"memburgers: solver failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"memburgers: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"memburgers: numeric overflow: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"memburgers: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
