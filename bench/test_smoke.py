"""Smoke test of the benchmark on tiny instances of its workloads.

    python3 -m pytest bench/test_smoke.py -q

Kept out of the package's test suite (pytest's testpaths is tests/).
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# same problems, f modes, grading and gate as the real workloads; errors recorded from the seed code
TINY = {
    "long_history": dataclasses.replace(
        run.WORKLOADS["long_history"], n=64, j=32, ref_error=0.0020626632385592203),
    "fine_space": dataclasses.replace(
        run.WORKLOADS["fine_space"], n=8, j=256, ref_error=0.004532332297706058),
    "singular_study": dataclasses.replace(
        run.WORKLOADS["singular_study"], n=8, j=256, levels=3, ref_error=0.0004284690527084252),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    w = TINY[name]
    record = run.measure(w, seconds=0.05, trace=trace, seed=1, setup_repeats=1)
    result = json.loads(run.result_line(record))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace and not w.study:
        assert record["split_gap"] <= run.SPLIT_RTOL
    if trace:
        assert (run.ROOT / record["spans_file"]).is_file()


@pytest.mark.parametrize("name", sorted(TINY))
def test_perturbed_reference_error_trips_the_gate(name):
    w = TINY[name]
    wrong = dataclasses.replace(w, ref_error=w.ref_error * (1.0 + 2.0 * run.ERROR_RTOL))
    result = json.loads(run.result_line(run.measure(wrong, seconds=0.05, trace=False, seed=1,
                                                    setup_repeats=1)))
    assert not result["correct"]
    assert result["failed"] >= 1


def test_command_fails_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fine_space", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
