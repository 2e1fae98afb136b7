"""Check that this checkout's solver gives the same bits as another commit's.

    python tools/bitwise.py REF          # e.g. HEAD~1, or a branch name

Takes REF's src/ with `git archive` into a temporary directory (ref_src,
which tools/ab.py uses too).  For each case it runs REF's package and
this working tree's package, each in its own fresh interpreter, side by
side.  A solve case digests (sha256) the final level, the whole
trajectory and the per-step reports; a study case digests its rows
without their wall time.  A case that raises digests its error type and
message instead, so refusals are compared too.

It prints one line per case, `identical` or `DIFFERENT` with the parts
that differ, and exits 1 if any case differs or a child fails, 2 if REF
cannot be archived, else 0.

Cases: the three workloads of bench/run.py (the `singular_study` study,
and each of its levels as a solve), and example 1 at alpha 0.5 and
gamma 1.5 over N in {1, 2, 7, 8, 9, 63, 64, 65, 72, 73, 128, 129, 136,
137, 192, 193, 300} and J in {2, 3, 16}: every N on or next to a block
(64) or sub-block (8) boundary, with and without the sum-of-exponentials
tail.  The whole run takes about 25 s on 2 cores.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

# runs in a fresh interpreter with one tree's src on PYTHONPATH; argv[1] is the case
CHILD = """
import dataclasses, hashlib, json, sys
import memburgers as mb

case = json.loads(sys.argv[1])

def digest(data):
    return hashlib.sha256(data).hexdigest()

try:
    if case["levels"]:
        plan = mb.StudyPlan(problem=case["problem"], alphas=(case["alpha"],),
                            gamma_rule=case["gamma"], axis="time", base_n=case["N"],
                            base_j=case["J"], levels=case["levels"], f_mode=case["f_mode"])
        rows = [{k: v for k, v in dataclasses.asdict(row).items() if k != "wall_time_seconds"}
                for row in mb.run_study(plan)]
        out = {"rows": digest(repr(rows).encode())}
    else:
        problem = mb.problem_by_name(case["problem"], case["alpha"])
        gamma = mb.resolve_gamma(case["gamma"], problem, case["f_mode"])
        result = mb.solve(problem, mb.build_graded_mesh(1.0, case["N"], gamma),
                          mb.build_spatial_grid(1.0, case["J"]), case["alpha"],
                          mb.SchemeConfig(f_mode=case["f_mode"]), keep_trajectory=True)
        out = {
            "final": digest(result.final.values.tobytes()),
            "trajectory": digest(result.trajectory.tobytes()),
            "reports": digest(repr([dataclasses.astuple(r) for r in result.reports]).encode()),
        }
except Exception as exc:
    out = {"error": digest(f"{type(exc).__name__}: {exc}".encode())}
print(json.dumps(out))
"""


class ArchiveError(Exception):
    """`git archive` could not take REF's src/; the message is git's."""


def ref_src(ref: str, into: str) -> Path:
    """Extract REF's src/ (`git archive`) into the directory into and return
    its path; raises ArchiveError if REF cannot be archived."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        raise ArchiveError(f"git archive {ref} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return Path(into) / "src"


def _case(problem: str, alpha: float, gamma, f_mode: str, N: int, J: int, levels: int = 0) -> Dict:
    return dict(problem=problem, alpha=alpha, gamma=gamma, f_mode=f_mode, N=N, J=J, levels=levels)


def cases() -> List[Tuple[str, Dict]]:
    """(name, case) pairs, the benchmark workloads first."""
    study = ("example2", 0.75, "auto-sigma", "interval_average")
    out = [
        ("long_history", _case("example1", 0.25, "2/(alpha+1)", "endpoint_average", 4096, 256)),
        ("fine_space", _case("example1", 0.65, "2/(alpha+1)", "endpoint_average", 128, 16384)),
        ("singular_study rows", _case(*study, 16, 4096, levels=6)),
    ]
    out += [(f"singular_study N={n}", _case(*study, n, 4096)) for n in (16, 32, 64, 128, 256, 512)]
    for n in (1, 2, 7, 8, 9, 63, 64, 65, 72, 73, 128, 129, 136, 137, 192, 193, 300):
        for j in (2, 3, 16):
            out.append((f"example1 N={n} J={j}", _case("example1", 0.5, 1.5, "endpoint_average", n, j)))
    return out


def _run(src: Path, case: Dict, cwd: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, "-c", CHILD, json.dumps(case)], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _digests(proc: subprocess.Popen) -> Tuple[Optional[Dict], str]:
    """The child's digests, or None and its last stderr line if it failed."""
    stdout, stderr = proc.communicate()
    if proc.returncode != 0:
        return None, (stderr.strip().splitlines() or ["no output"])[-1]
    return json.loads(stdout), ""


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ref", help="the commit to compare this working tree against")
    args = parser.parse_args(argv)

    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        try:
            trees = (ref_src(args.ref, tmp), ROOT / "src")
        except ArchiveError as error:
            print(f"bitwise: {error}", file=sys.stderr)
            return 2
        all_cases = cases()
        for name, case in all_cases:
            (ref, ref_err), (new, new_err) = (_digests(p) for p in [_run(s, case, tmp) for s in trees])
            if ref is None or new is None:
                print(f"FAILED     {name}: {args.ref}: {ref_err or 'ok'}; tree: {new_err or 'ok'}")
                differ += 1
            elif ref != new:
                parts = sorted(k for k in ref.keys() | new.keys() if ref.get(k) != new.get(k))
                print(f"DIFFERENT  {name}: {', '.join(parts)}")
                differ += 1
            else:
                print(f"identical  {name}" + (" (both raise the same error)" if "error" in new else ""))
    print(f"{len(all_cases) - differ} of {len(all_cases)} cases identical to {args.ref}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
