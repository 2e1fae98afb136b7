"""tools/ab.py and tools/bitwise.py: the median interval, the workloads ab times,
and the archive step the two share."""

import ast
import importlib.util
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n,low,high", [
    # 1-based ranks of the 95% order-statistic interval of the median
    (6, 1, 6), (9, 2, 8), (20, 6, 15), (41, 14, 28), (100, 40, 61),
])
def test_median_interval_takes_the_binomial_ranks(n, low, high):
    values = random.Random(n).sample(range(1000), n)
    ranked = sorted(values)
    assert _ab().median_interval(values) == (ranked[low - 1], ranked[high - 1])
    # the ranks hold the median with at least 95%, and one rank further in would not
    tail = sum(math.comb(n, i) for i in range(low)) / 2**n
    assert 1.0 - 2.0 * tail >= 0.95
    assert 1.0 - 2.0 * (tail + math.comb(n, low) / 2**n) < 0.95


def test_median_interval_refuses_too_few_values():
    # five values hold the median between their extremes with 1 - 2/32 < 95%
    with pytest.raises(ValueError, match="cannot give a 95% interval"):
        _ab().median_interval([1.0, 2.0, 3.0, 4.0, 5.0])


def test_ab_times_the_bench_workloads():
    # tools/ab.py takes tools/bitwise.py's cases for the workloads; they must
    # be bench/run.py's Workload literals, each under its benchmark name
    bench = ast.parse((ROOT / "bench" / "run.py").read_text())
    literals = [node for node in ast.walk(bench)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload"]
    expected = {}
    for node in literals:
        name, problem, alpha, gamma, f_mode = map(ast.literal_eval, node.args)
        kw = {k.arg: ast.literal_eval(k.value) for k in node.keywords}
        expected[name] = dict(problem=problem, alpha=alpha, gamma=gamma, f_mode=f_mode,
                              N=kw["n"], J=kw["j"], levels=kw.get("levels", 0) if kw.get("study") else 0)
    assert len(expected) == 3
    assert _ab().workloads() == expected


@pytest.mark.parametrize("tool", ["ab", "bitwise"])
def test_tools_exit_2_when_git_cannot_archive_the_ref(tool):
    # both tools take REF's src/ through tools/bitwise.py's ref_src, and each
    # reports git's refusal under its own name
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / f"{tool}.py"), "no/such-ref"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"{tool}: git archive no/such-ref failed")


def test_ab_starts_the_workers_in_random_order_and_pairs_their_memory(monkeypatch):
    # neither tree's worker always starts first, and each tree's memory is
    # recorded under its own side
    ab = _ab()
    starts = []

    class Worker:
        def __init__(self, src, case, cwd):
            starts.append(src)
            self.memory = {"rss_mb": 40.0 + len(src), "traced_mb": float(len(src))}

        def sample(self):
            return 0.1

        def close(self):
            pass

    monkeypatch.setattr(ab, "_Worker", Worker)
    rng = random.Random(0)
    firsts = set()
    for _ in range(20):
        starts.clear()
        result = ab.compare(("ref", "tree"), {}, 0.0, ".", rng)
        assert sorted(starts) == ["ref", "tree"]
        firsts.add(starts[0])
        assert result["pairs"] == 6 and result["median_ratio"] == 1.0
        assert (result["ref_rss_mb"], result["tree_rss_mb"]) == (43.0, 44.0)
        assert (result["ref_traced_mb"], result["tree_traced_mb"]) == (3.0, 4.0)
    assert firsts == {"ref", "tree"}


def test_ab_worker_reports_its_memory_after_the_warm_up(tmp_path):
    # the worker runs from a copy of this tree's src, as ab runs it, and
    # reports its peak RSS after the untimed sample and the traced peak of
    # one more sample before it takes any timed one
    ab = _ab()
    src = ab.tree_src(str(tmp_path / "new"))
    assert (src / "memburgers" / "scheme.py").read_bytes() == (
        ROOT / "src" / "memburgers" / "scheme.py").read_bytes()
    assert not list(src.rglob("__pycache__"))
    case = dict(problem="example1", alpha=0.5, gamma=1.5, f_mode="endpoint_average", N=8, J=16,
                levels=0)
    worker = ab._Worker(src, case, str(tmp_path))
    try:
        assert worker.sample() > 0.0
    finally:
        worker.close()
    assert set(worker.memory) == {"rss_mb", "traced_mb"}
    assert 0.0 < worker.memory["traced_mb"] < 1.0 < worker.memory["rss_mb"]
