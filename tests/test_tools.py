"""tools/ab.py: its median interval, and that it times the benchmark's workloads."""

import ast
import importlib.util
import math
import random
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
