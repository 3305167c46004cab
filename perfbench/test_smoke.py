"""Smoke tests of the benchmark: every workload at a tiny size and one seed.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import spec
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_workload_tiny(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = spec.PER_LAYER if trace == "1" else spec.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name][0]
        assert isinstance(metric["value"], (int, float))
        if trace == "0":
            assert metric["value"] > 0, name


def test_failed_frac_counts_against_attempts(monkeypatch):
    class EveryOtherWrong(workloads.Workload):
        name = "every_other_wrong"

        def check(self, job, out, digests):
            if int(job.label) % 2:
                raise workloads.CheckFailed("wrong on purpose")
            return "ok"

    monkeypatch.setitem(workloads.WORKLOADS, "every_other_wrong", EveryOtherWrong())
    jobs = [workloads.Job(str(k), call=lambda _commalg: "out\n") for k in range(4)]
    result = worker.measure(None, "every_other_wrong", jobs, seconds=0.0)
    assert result["attempted"] == 4
    assert result["failed"] == 2
    assert result["failed_frac"] == 0.5
    assert result["tail_samples"] == 2


def test_self_time_subtracts_children_and_their_counting():
    # parent 0..10 s; child 1..4 s whose counting ends at 5 s; grandchild 2..3 s
    recorded = [
        ["job", 0.0, 10.0, 10.0, -1, 0, None],
        ["child", 1.0, 4.0, 5.0, 0, 0, None],
        ["grandchild", 2.0, 3.0, 3.0, 1, 0, None],
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0]
    assert spans.self_times(recorded[1:], first=1) == [2.0, 1.0]


def test_wrappers_are_removed_after_a_traced_job():
    sys.path.insert(0, str(ROOT / "src"))
    import commalg.cli
    from commalg.linalg import Mat

    before = (commalg.algebra.reachability, Mat.rank, commalg.cli.run)
    recorder = spans.Recorder()
    recorder.traced(0, lambda: commalg.cli.run(["random", "--vertices", "2",
                                                "--arrows", "1", "--seed", "1"]))
    assert (commalg.algebra.reachability, Mat.rank, commalg.cli.run) == before
    assert [s[0] for s in recorder.spans] == [spans.JOB_SPAN, "cli.run"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("--workload", "verify_small", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
