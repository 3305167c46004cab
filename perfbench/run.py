"""Benchmark of commalg: one workload per invocation, measured end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; commalg is imported from ``src/`` of that
checkout, never from an installed copy.  Workloads and metrics are listed in
``perfbench/spec.py`` and ``BENCHMARK.json`` (``--write-spec`` rewrites the
latter from the former).

With ``--trace 0`` this process imports nothing from commalg.  It starts
fresh interpreters one after another (never two at once): ``SETUP_SAMPLES - 1``
that only import commalg and generate the inputs, then one that does the same
and runs the jobs untraced for ``--seconds``.  Setup time is the median of
the samples; peak RSS is that of the measuring interpreter alone.  Workers
run with a fixed ``PYTHONHASHSEED``, so dict and set layouts, and the job
times that depend on them, do not change from one process to the next.  With
``--trace 1`` one interpreter runs each job untraced and traced and reports
the per-layer metrics.

Every output is checked (see ``workloads.py``).  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong
output sets ``correct`` to false and the exit code to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
TIME_LIMIT_S = 170


def child(mode: str, args, index: int, deadline: float) -> dict:
    """Run one worker interpreter to completion and return its JSON report."""
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONHASHSEED="0"),
                              timeout=max(1.0, deadline - monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = [child("setup", args, i, deadline)["setup_s"]
              for i in range(spec.SETUP_SAMPLES - 1)]
    result = child("measure", args, spec.SETUP_SAMPLES - 1, deadline)
    setups.append(result["setup_s"])
    values = {
        "setup_s": statistics.median(setups),
        "job_s_p50": result["job_s_p50"],
        "job_s_tail": result["job_s_tail"],
        "jobs_per_s": result["jobs_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    metrics = {k: {"value": v, "unit": spec.END_TO_END[k][0]} for k, v in values.items()}
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} jobs "
          f"({result['jobs']} inputs, {result['passes']} passes) in {result['busy_s']:.2f} s busy, "
          f"{result['undecided']} undecided (path cap), {result['failed']} failed, "
          f"failed_frac {result['failed_frac']:.4f}")
    print(f"job_s_tail is p{result['tail_pct']:.1f} of {result['tail_samples']} checked jobs; "
          f"times scaled by the reference loop (speed factor {result['speed']:.3f}); raw "
          f"job_s_p50 {result['raw_job_s_p50']:.4f} s, raw jobs_per_s "
          f"{result['raw_jobs_per_s']:.3f}; setup samples {[round(s, 4) for s in setups]}")
    return result, metrics


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    result = child("trace", args, 0, deadline)
    metrics = {k: {"value": result["layers"][k], "unit": u}
               for k, (u, _) in spec.PER_LAYER.items()}
    layers = result["layers"]
    print(f"workload {args.workload} seed {args.seed}: traced {result['attempted']} jobs, "
          f"overhead {layers['bench.trace_overhead_frac']:.1%} "
          f"({layers['bench.untraced_job_s']:.4f} s -> {layers['bench.traced_job_s']:.4f} s "
          f"per job), {result['mismatches']} traced/untraced stdout mismatches; "
          f"spans in {result['dump']}")
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small inputs, for the smoke tests")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "commalg" / "__init__.py").is_file():
        print(f"error: no commalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = monotonic() + TIME_LIMIT_S
    try:
        result, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK_DIR.rmdir()  # only if no other run is using it
        except OSError:
            pass

    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = result["failed"] == 0 and not result["failures"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
