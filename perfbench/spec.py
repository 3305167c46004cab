"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source of ``BENCHMARK.json`` (written by
``python3 perfbench/run.py --write-spec``) and imports nothing from commalg,
so the orchestrating process stays free of the code under test.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 28

# Fresh interpreters that each import commalg and generate the inputs; the
# reported setup_s is their median.
SETUP_SAMPLES = 5

WORKLOADS = {
    "blockform_sparse": (
        "commalg blockform on random_sparse_quiver(n, 2n), n = 50..160: loads "
        "structure (Warshall closure, O(n^3) checks) and algebra build; "
        "homology and oracle stay idle"
    ),
    "gldim_poset": (
        "commalg gldim on Hasse quivers of random_poset(m, s, 0.3), m = 10..20, "
        "plus the 33-element RP2 face poset over QQ: loads homology, linalg and "
        "poset.hasse; structure sees n <= 33"
    ),
    "verify_small": (
        "commalg verify at the default truncation on random_quiver(n, 2n), "
        "n = 5..7, one job in four over fp:1000003, plus drawn cap overflows: "
        "loads the multiplicative oracle and quiver path enumeration"
    ),
    "oracle_tabulated": (
        "pattern_report with a 5-exception GeneralCoefficientTable on "
        "random_sparse_quiver(6, 10) at L = 4: the only route into the "
        "non-multiplicative heads x middles x tails branch of the oracle"
    ),
}

# name -> (unit, better, bound).  Over ten seeds per workload the quartile
# spread of every metric stayed at or below 0.087 of its median (0.105 for
# setup_s), so 0.25 keeps each bound about three spreads wide.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "job_s_p50": ("s", "lower", 0.25),
    "job_s_tail": ("s", "lower", 0.25),
    "jobs_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
}

# Per-layer metrics from the traced run.  Times are self time per job
# (span duration minus the spans it caused); counts are per job.
PER_LAYER = {
    "dsl.parse_s": ("s/job", "lower"),
    "dsl.input_bytes": ("B/job", "lower"),
    "structure.reachability_s": ("s/job", "lower"),
    "structure.reachability_calls": ("count/job", "lower"),
    "structure.path_components_s": ("s/job", "lower"),
    "structure.condensation_s": ("s/job", "lower"),
    "structure.topo_order_s": ("s/job", "lower"),
    "structure.longest_chain_s": ("s/job", "lower"),
    "structure.pattern_true": ("count/job", "lower"),
    "algebra.build_s": ("s/job", "lower"),
    "algebra.builds": ("count/job", "lower"),
    "algebra.multiply_calls": ("count/job", "lower"),
    "algebra.multiply_s": ("s/job", "lower"),
    "poset.skeleton_s": ("s/job", "lower"),
    "poset.hasse_s": ("s/job", "lower"),
    "poset.hasse_calls": ("count/job", "lower"),
    "poset.hasse_covers": ("count/job", "lower"),
    "poset.iso_check_s": ("s/job", "lower"),
    "poset.iso_products": ("count/job", "lower"),
    "poset.idempotence_s": ("s/job", "lower"),
    "homology.resolution_s": ("s/job", "lower"),
    "homology.projective_cover_s": ("s/job", "lower"),
    "homology.projective_cover_calls": ("count/job", "lower"),
    "homology.rep_builds": ("count/job", "lower"),
    "homology.resolution_terms": ("count/job", "lower"),
    "linalg.rank_s": ("s/job", "lower"),
    "linalg.rank_calls": ("count/job", "lower"),
    "linalg.matmul_s": ("s/job", "lower"),
    "linalg.matmul_calls": ("count/job", "lower"),
    "quiver.enumerate_paths_s": ("s/job", "lower"),
    "quiver.enumerate_paths_calls": ("count/job", "lower"),
    "quiver.paths_enumerated": ("count/job", "lower"),
    "oracle.hom_dimension_s": ("s/job", "lower"),
    "oracle.pairs": ("count/job", "lower"),
    "oracle.paths": ("count/job", "lower"),
    "oracle.relation_rank_sum": ("count/job", "lower"),
    "oracle.certified_ratio": ("ratio", "higher"),
    "oracle.cap_hits": ("count/job", "lower"),
    "cli.self_s": ("s/job", "lower"),
    "bench.untraced_job_s": ("s/job", "lower"),
    "bench.traced_job_s": ("s/job", "lower"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
    "bench.spans": ("count/job", "lower"),
}


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()
        ],
    }
