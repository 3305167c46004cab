"""One workload in one fresh interpreter: set up, then measure or trace.

Modes (``python3 perfbench/worker.py MODE --workload W --seed S ...``):

- ``setup``: import commalg and generate the inputs; report the time.
- ``measure``: set up, then run untraced jobs in a closed loop (one job at
  a time, the next one starting when the previous one returns) in whole
  passes over the job list until ``--seconds`` is used up.  Reports job
  times scaled to a fixed machine speed (see ``REFERENCE_S``), outcomes
  and the peak RSS of this process.
- ``trace``: set up, then run every job untraced and again traced,
  checking that both write the same stdout; reports per-layer self times
  and counts and the tracing overhead, and dumps the spans.

The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SPAN_KEEP = 100_000  # raw spans kept for the dump; later jobs are aggregated only

# Job and setup times are reported at the speed where one ``reference()``
# takes this long: its time on an otherwise idle 2-vCPU Intel Xeon VM.  On a
# shared machine other tenants change the speed of a process by up to 1.8x
# for minutes at a time; raw times then vary more between runs than any
# bound worth having, while times scaled by the reference loop timed next to
# them stay within a few percent.
REFERENCE_S = 0.0027

# per-layer metric -> (span name, what to read): "self_s", "calls" or a count key
LAYER_SOURCES = {
    "dsl.parse_s": ("dsl.parse", "self_s"),
    "dsl.input_bytes": ("dsl.parse", "input_bytes"),
    "structure.reachability_s": ("structure.reachability", "self_s"),
    "structure.reachability_calls": ("structure.reachability", "calls"),
    "structure.path_components_s": ("structure.path_components", "self_s"),
    "structure.condensation_s": ("structure.condensation", "self_s"),
    "structure.topo_order_s": ("structure.topo_order", "self_s"),
    "structure.longest_chain_s": ("structure.longest_chain", "self_s"),
    "structure.pattern_true": ("structure.reachability", "pattern_true"),
    "algebra.build_s": ("algebra.build", "self_s"),
    "algebra.builds": ("algebra.build", "calls"),
    "algebra.multiply_calls": ("algebra.multiply", "calls"),
    "algebra.multiply_s": ("algebra.multiply", "self_s"),
    "poset.skeleton_s": ("poset.skeleton", "self_s"),
    "poset.hasse_s": ("poset.hasse", "self_s"),
    "poset.hasse_calls": ("poset.hasse", "calls"),
    "poset.hasse_covers": ("poset.hasse", "covers"),
    "poset.iso_check_s": ("poset.iso_check", "self_s"),
    "poset.iso_products": ("poset.iso_check", "products"),
    "poset.idempotence_s": ("poset.idempotence", "self_s"),
    "homology.resolution_s": ("homology.resolution", "self_s"),
    "homology.projective_cover_s": ("homology.projective_cover", "self_s"),
    "homology.projective_cover_calls": ("homology.projective_cover", "calls"),
    "homology.rep_builds": ("homology.rep_build", "calls"),
    "homology.resolution_terms": ("homology.resolution", "terms"),
    "linalg.rank_s": ("linalg.rank", "self_s"),
    "linalg.rank_calls": ("linalg.rank", "calls"),
    "linalg.matmul_s": ("linalg.matmul", "self_s"),
    "linalg.matmul_calls": ("linalg.matmul", "calls"),
    "quiver.enumerate_paths_s": ("quiver.enumerate_paths", "self_s"),
    "quiver.enumerate_paths_calls": ("quiver.enumerate_paths", "calls"),
    "quiver.paths_enumerated": ("quiver.enumerate_paths", "paths"),
    "oracle.hom_dimension_s": ("oracle.hom_dimension", "self_s"),
    "oracle.pairs": ("oracle.hom_dimension", "calls"),
    "oracle.paths": ("oracle.hom_dimension", "paths"),
    "oracle.relation_rank_sum": ("oracle.hom_dimension", "relation_rank"),
    "oracle.cap_hits": ("oracle.hom_dimension", "raised_TruncationOverflowError"),
    "cli.self_s": ("cli.run", "self_s"),
}


def setup(name: str, seed: int, workdir: Path, tiny: bool):
    """Import commalg from this checkout and write the workload's inputs."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import commalg
    import commalg.cli
    import commalg.randgen

    if Path(commalg.__file__).resolve().parent != SRC / "commalg":
        raise SystemExit(f"imported commalg from {commalg.__file__}, not {SRC}")
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.WORKLOADS[name].generate(commalg, seed, workdir, tiny)
    return commalg, jobs, perf_counter() - t0


class Judge:
    """Checks outcomes: in full the first time a job runs, by bytes after.

    The CLI promises byte-identical stdout for the same invocation, so a
    repeat is right exactly when it matches the first, fully checked run.
    """

    def __init__(self, workload):
        self.workload = workload
        self.digests = workloads.load_digests()
        self.first: dict[str, tuple] = {}
        self.failures: list[str] = []

    def __call__(self, job, out) -> str:
        key = (out.stdout, out.stderr, out.rc, out.error)
        if job.label in self.first:
            seen, verdict = self.first[job.label]
            if seen == key:
                return verdict
            return self._fail(job, "output differs from the first run of this input")
        try:
            verdict = self.workload.check(job, out, self.digests)
        except (workloads.CheckFailed, ValueError, KeyError, TypeError) as exc:
            return self._fail(job, f"{type(exc).__name__}: {exc}")
        self.first[job.label] = (key, verdict)
        return verdict

    def _fail(self, job, message: str) -> str:
        self.failures.append(f"{job.label}: {message}")
        return "failed"


def passes(jobs, seconds: float):
    """Yield (pass number, job) in whole passes over the list until the budget is used.

    Another pass starts only if the last one would still fit, so every job
    of the list runs equally often.
    """
    start = perf_counter()
    k = 0
    while True:
        t_pass = perf_counter()
        for job in jobs:
            yield k, job
        k += 1
        now = perf_counter()
        if now - start + (now - t_pass) > seconds:
            return


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (max if none)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def reference() -> float:
    """Seconds for one run of a fixed pure-Python loop of dict, tuple and sort work."""
    t0 = perf_counter()
    counts: dict[int, int] = {}
    items = []
    for i in range(6000):
        k = (i * 7919) & 1023
        counts[k] = counts.get(k, 0) + 1
        items.append((k, i))
    items.sort()
    return perf_counter() - t0


def speed_factor(refs: list[float]) -> float:
    """Scale from this moment's speed to the speed where ``reference`` takes REFERENCE_S."""
    return REFERENCE_S / statistics.median(refs)


def measure(commalg, name, jobs, seconds):
    """Run the jobs untraced in whole passes; summarise the checked ones.

    Every job is preceded by one timing of the reference loop, and its time
    is scaled by the median reference time of the five jobs around it (see
    REFERENCE_S).  Raw times are reported beside the scaled ones.
    """
    judge = Judge(workloads.WORKLOADS[name])
    judge(jobs[0], workloads.run_job(commalg, jobs[0]))  # warm-up, untimed
    records = []  # (seconds, reference seconds, verdict)
    passes_run = 0
    for k, job in passes(jobs, seconds):
        passes_run = k + 1
        ref = reference()
        out = workloads.run_job(commalg, job)
        records.append((out.seconds, ref, judge(job, out)))
    refs = [ref for _, ref, _ in records]
    scaled = [
        (t * speed_factor(refs[max(0, i - 2):i + 3]), verdict)
        for i, (t, _, verdict) in enumerate(records)
    ]
    ok = [t for t, verdict in scaled if verdict == "ok"]
    raw_ok = [t for t, _, verdict in records if verdict == "ok"]
    count = {v: sum(1 for *_, verdict in records if verdict == v)
             for v in ("ok", "undecided", "failed")}
    tail_s, tail_pct = tail(ok) if ok else (0.0, 0.0)
    return {
        "attempted": len(records),
        "failed": count["failed"],
        "undecided": count["undecided"],
        "failures": judge.failures[:20],
        "job_s_p50": statistics.median(ok) if ok else 0.0,
        "job_s_tail": tail_s,
        "tail_pct": tail_pct,
        "tail_samples": len(ok),
        "jobs_per_s": len(ok) / sum(t for t, _ in scaled),
        "raw_job_s_p50": statistics.median(raw_ok) if raw_ok else 0.0,
        "raw_jobs_per_s": len(raw_ok) / sum(t for t, _, _ in records),
        "speed": speed_factor(refs),
        "passes": passes_run,
        "failed_frac": count["failed"] / len(records),
        "busy_s": sum(t for t, _, _ in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(commalg, name, jobs, seconds, seed):
    """Run every job untraced and then traced; per-layer metrics from the spans.

    Times here are raw seconds: the overhead is the difference of the two
    runs of each job, made next to each other.
    """
    judge = Judge(workloads.WORKLOADS[name])
    judge(jobs[0], workloads.run_job(commalg, jobs[0]))  # warm-up, untimed
    recorder = spans.Recorder()
    aggregate = spans.Aggregate()
    untraced = traced = 0.0
    mismatches = 0
    attempted = 0
    for _, job in passes(jobs, seconds):
        job_id = attempted
        attempted += 1
        plain = workloads.run_job(commalg, job)
        judge(job, plain)
        first = len(recorder.spans)
        seen = recorder.traced(job_id, lambda: workloads.run_job(commalg, job))
        if (seen.stdout, seen.rc) != (plain.stdout, plain.rc):
            mismatches += 1
            judge.failures.append(f"{job.label}: traced stdout differs from untraced")
        aggregate.add(recorder.spans[first:], first)
        if len(recorder.spans) > SPAN_KEEP:
            del recorder.spans[first:]
        untraced += plain.seconds
        traced += seen.seconds

    jobs_done = aggregate.jobs
    layers = {}
    for metric, (span, what) in LAYER_SOURCES.items():
        if what == "self_s":
            value = aggregate.self_s.get(span, 0.0)
        elif what == "calls":
            value = aggregate.calls.get(span, 0)
        else:
            value = aggregate.counts.get(span, {}).get(what, 0)
        layers[metric] = value / jobs_done
    pairs = aggregate.calls.get("oracle.hom_dimension", 0)
    certified = aggregate.counts.get("oracle.hom_dimension", {}).get("certified", 0)
    layers["oracle.certified_ratio"] = certified / pairs if pairs else 0.0
    layers["bench.untraced_job_s"] = untraced / jobs_done
    layers["bench.traced_job_s"] = traced / jobs_done
    layers["bench.trace_overhead_frac"] = traced / untraced - 1 if untraced else 0.0
    layers["bench.spans"] = sum(aggregate.calls.values()) / jobs_done

    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"trace-{name}-seed{seed}.json"
    dump.write_text(json.dumps({
        "workload": name, "seed": seed, "jobs": jobs_done,
        "span_fields": ["name", "start", "end", "done", "parent", "job", "counts"],
        "aggregate": aggregate.as_dict(), "spans": recorder.spans,
    }))
    return {
        "attempted": attempted,
        "failed": len(judge.failures),
        "failures": judge.failures[:20],
        "mismatches": mismatches,
        "layers": layers,
        "dump": str(dump.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure", "trace"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    commalg, jobs, setup_s = setup(args.workload, args.seed, args.workdir, args.tiny)
    refs = [reference() for _ in range(9)]
    result = {"setup_s": setup_s * speed_factor(refs), "raw_setup_s": setup_s, "jobs": len(jobs)}
    if args.mode == "measure":
        result.update(measure(commalg, args.workload, jobs, args.seconds))
    elif args.mode == "trace":
        result.update(trace(commalg, args.workload, jobs, args.seconds, args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
