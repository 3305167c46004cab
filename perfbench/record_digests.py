"""Record the answers that have no second route: ``perfbench/digests.json``.

    python3 perfbench/record_digests.py

Runs every corpus input of ``gldim_poset`` (each size and corpus seed, plus
the RP2 face poset) and of ``oracle_tabulated`` with the current code,
applies every other check of the workload, and stores a digest of the
stdout with the job's cost: the median of ``COST_RUNS`` runs, in seconds
scaled by the reference loop like the benchmark's job times.  The cost only
orders the corpus into the strata a seed draws from.  Run it once
when the benchmark is defined; a later change that alters these outputs is
caught by the checks, not re-recorded.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
from pathlib import Path

import workloads
from worker import reference, setup, speed_factor

COST_RUNS = 5


def record(commalg, workload, jobs) -> dict:
    out = {}
    for job in jobs:
        first = workloads.run_job(commalg, job)
        entry = {"digest": workloads.digest(first.stdout)}
        workload.check(job, first, {workload.name: {job.label: entry}})  # raises if wrong
        costs = []
        for _ in range(COST_RUNS):
            ref = reference()
            again = workloads.run_job(commalg, job)
            if again.stdout != first.stdout:
                raise SystemExit(f"{job.label}: stdout is not deterministic")
            costs.append(again.seconds * speed_factor([ref]))
        entry["cost"] = round(statistics.median(costs), 4)
        out[job.label] = entry
        print(job.label, entry, file=sys.stderr)
    return out


if __name__ == "__main__":
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        commalg, _, _ = setup("gldim_poset", 0, Path(tmp), tiny=True)
        for name in ("gldim_poset", "oracle_tabulated"):
            workload = workloads.WORKLOADS[name]
            jobs = [workload.build(commalg, label, Path(tmp)) for label in workload.corpus()]
            digests[name] = record(commalg, workload, jobs + workload.fixed_jobs(Path(tmp)))
    workloads.DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
