"""Paired A/B timing of the benchmark workloads: this working tree against REF.

    python tools/ab.py REF [--workload W] [--seconds S]     # e.g. HEAD~1

Takes REF's src/ with `git archive` into a temporary directory, through
tools/bitwise.py's ref_src, and times the workloads of bench/run.py (the cases
tools/bitwise.py states for them).  For each workload it starts one worker
process per tree, each with OPENBLAS_NUM_THREADS=1 (with more, the idle
worker's BLAS threads compete for the cores), builds the inputs once and
runs one untimed sample in each.  Then it takes pairs of samples until S
seconds have passed: one sample from each tree, in random order within the
pair, one process running at a time.  A sample is one `solve`, or one
`run_study` for `singular_study`.  The ratio of a pair is this tree's time
over REF's, so the slow and fast periods of a shared machine, which last
seconds to minutes, cancel within a pair.

It prints, per workload, the number of pairs, the median ratio with its 95%
order-statistic interval (distribution-free: the interval between two order
statistics of the pairs' ratios that holds the median with at least 95%
probability), and each tree's median time.  The last line of stdout is the
JSON record of the run.  It writes no file.  It exits 2 if REF cannot be
archived, 1 if a worker fails, else 0.  It is not a gate: bench/run.py's
absolute metrics are.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

# runs in a fresh interpreter with one tree's src on PYTHONPATH; argv[1] is the case.
# Each line on stdin asks for one sample; the answer is its wall time in seconds
WORKER = """
import json, sys, time
import memburgers as mb

case = json.loads(sys.argv[1])
if case["levels"]:
    plan = mb.StudyPlan(problem=case["problem"], alphas=(case["alpha"],),
                        gamma_rule=case["gamma"], axis="time", base_n=case["N"],
                        base_j=case["J"], levels=case["levels"], f_mode=case["f_mode"])
    sample = lambda: mb.run_study(plan)
else:
    problem = mb.problem_by_name(case["problem"], case["alpha"])
    gamma = mb.resolve_gamma(case["gamma"], problem, case["f_mode"])
    mesh = mb.build_graded_mesh(1.0, case["N"], gamma)
    grid = mb.build_spatial_grid(1.0, case["J"])
    config = mb.SchemeConfig(f_mode=case["f_mode"])
    sample = lambda: mb.solve(problem, mesh, grid, case["alpha"], config)
sample()
print("ready", flush=True)
for _ in sys.stdin:
    start = time.perf_counter()
    sample()
    print(time.perf_counter() - start, flush=True)
"""


def _bitwise():
    spec = importlib.util.spec_from_file_location("bitwise", ROOT / "tools" / "bitwise.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workloads() -> Dict[str, Dict]:
    """The benchmark's workloads by name: tools/bitwise.py's first three cases."""
    return {name.removesuffix(" rows"): case for name, case in _bitwise().cases()[:3]}


def median_interval(values: Sequence[float], level: float = 0.95) -> Tuple[float, float]:
    """The interval between the order statistics x_(j+1) and x_(n-j) (1-based) of
    values, with j the largest for which it holds the median with probability
    at least level, whatever the distribution: 1 - 2 P(B <= j) >= level,
    B ~ Binomial(n, 1/2).  Raises ValueError when even (min, max) falls short
    (n <= 5 at 0.95)."""
    x = sorted(values)
    n = len(x)
    tail, j = 0.0, -1  # tail = P(B <= j)
    while True:
        below = tail + math.comb(n, j + 1) / 2**n
        if 1.0 - 2.0 * below < level:
            break
        tail, j = below, j + 1
    if j < 0:
        raise ValueError(f"median_interval: {n} values cannot give a {level:.0%} interval")
    return x[j], x[n - 1 - j]


class _Worker:
    def __init__(self, src: Path, case: Dict, cwd: str):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        self.proc = subprocess.Popen([sys.executable, "-c", WORKER, json.dumps(case)], cwd=cwd,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        self._read()  # "ready": inputs built, one sample run

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            error = (self.proc.stderr.read().strip().splitlines() or ["no output"])[-1]
            raise RuntimeError(f"worker exited ({self.proc.returncode}): {error}")
        return line

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self._read())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc.stderr.close()


def compare(trees: Tuple[Path, Path], case: Dict, seconds: float, cwd: str,
            rng: random.Random) -> Dict[str, object]:
    """Time pairs of samples of case, REF's tree first in trees, for seconds."""
    workers: List[_Worker] = []
    try:
        for src in trees:
            workers.append(_Worker(src, case, cwd))
        times: Tuple[List[float], List[float]] = ([], [])
        end = time.monotonic() + seconds
        while time.monotonic() < end or len(times[0]) < 6:
            order = [0, 1]
            rng.shuffle(order)
            for side in order:
                times[side].append(workers[side].sample())
    finally:
        for worker in workers:
            worker.close()
    ratios = [new / ref for ref, new in zip(*times)]
    low, high = median_interval(ratios)
    return {"pairs": len(ratios), "median_ratio": statistics.median(ratios), "ci95": [low, high],
            "ref_median_s": statistics.median(times[0]), "tree_median_s": statistics.median(times[1])}


def main(argv: Optional[Sequence[str]] = None) -> int:
    cases = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ref", help="the commit to compare this working tree against")
    parser.add_argument("--workload", choices=[*cases, "all"], default="all")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time spent taking pairs, per workload (default 20)")
    args = parser.parse_args(argv)

    names = list(cases) if args.workload == "all" else [args.workload]
    record: Dict[str, object] = {"ref": args.ref, "seconds": args.seconds, "workloads": {}}
    rng = random.Random()
    bitwise = _bitwise()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            trees = (bitwise.ref_src(args.ref, tmp), ROOT / "src")
        except bitwise.ArchiveError as error:
            print(f"ab: {error}", file=sys.stderr)
            return 2
        for name in names:
            try:
                result = compare(trees, cases[name], args.seconds, tmp, rng)
            except RuntimeError as error:
                print(f"ab: {name}: {error}", file=sys.stderr)
                return 1
            record["workloads"][name] = result
            low, high = result["ci95"]
            print(f"{name:15s} tree/{args.ref} = {result['median_ratio']:.3f} "
                  f"(95% interval {low:.3f}-{high:.3f}, {result['pairs']} pairs; medians "
                  f"{result['ref_median_s']:.4f} s -> {result['tree_median_s']:.4f} s)")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
