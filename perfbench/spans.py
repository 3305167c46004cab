"""Outside-in tracing of commalg: span wrappers, self time and the trace dump.

The wrappers are installed where callers look the functions up: every
``commalg.*`` module global bound to a traced function is rebound (so
``commalg.algebra.reachability``, ``commalg.poset.hasse`` and
``commalg.cli.commuting_algebra`` are all covered), and traced methods are
replaced on their class (``Mat.rank``, ``CommutingAlgebra.multiply``).
Nothing under ``src/commalg`` is edited, and ``uninstall`` restores every
binding, so an untraced job runs the original code.

A span is ``[name, start, end, done, parent, job, counts]``: ``end`` closes
the wrapped call, ``done`` closes the counting done on its arguments and
result afterwards.  A span's self time is ``end - start`` minus the
``done - start`` of its children, so counting is charged to no layer.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute, counter).  A dotted attribute names a method.
TARGETS = [
    ("dsl.parse", "commalg.dsl", "parse_quiver",
     lambda a, k, r: {"input_bytes": len(a[0].encode())}),
    ("structure.reachability", "commalg.structure", "reachability",
     lambda a, k, r: {"pattern_true": r.true_count()}),
    ("structure.path_components", "commalg.structure", "path_components", None),
    ("structure.condensation", "commalg.structure", "condensation", None),
    ("structure.topo_order", "commalg.structure", "topological_component_order", None),
    # Poset.longest_chain and structure.longest_chain both delegate to it
    ("structure.longest_chain", "commalg.structure", "_longest_chain", None),
    ("algebra.build", "commalg.algebra", "CommutingAlgebra.__init__", None),
    ("algebra.multiply", "commalg.algebra", "CommutingAlgebra.multiply", None),
    ("poset.skeleton", "commalg.poset", "skeleton", None),
    ("poset.hasse", "commalg.poset", "hasse",
     lambda a, k, r: {"covers": len(r.covers)}),
    ("poset.iso_check", "commalg.poset", "skeleton_iso_incidence",
     lambda a, k, r: {"products": r.products_checked}),
    ("poset.idempotence", "commalg.poset", "idempotence_check", None),
    ("homology.resolution", "commalg.homology", "minimal_resolution",
     lambda a, k, r: {"terms": len(r.covers)}),
    ("homology.projective_cover", "commalg.homology", "projective_cover", None),
    ("homology.rep_build", "commalg.homology", "PosetRepresentation.__post_init__", None),
    ("linalg.rank", "commalg.linalg", "Mat.rank", None),
    ("linalg.matmul", "commalg.linalg", "Mat.__matmul__", None),
    ("quiver.enumerate_paths", "commalg.quiver", "enumerate_paths",
     lambda a, k, r: {"paths": len(r)}),
    ("oracle.hom_dimension", "commalg.oracle", "truncated_hom_dimension",
     lambda a, k, r: {"paths": r.path_count, "relation_rank": r.relation_rank,
                      "certified": int(r.certified)}),
    ("cli.run", "commalg.cli", "run", None),
]

JOB_SPAN = "bench.job"


class Recorder:
    """In-memory spans of one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1
        self._patches: list[tuple[object, str, object]] = []
        self._plan: list[tuple[object, str, object]] | None = None

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                stack.pop()
                span[6] = {"raised_" + type(exc).__name__: 1}
                span[3] = perf_counter()
                raise
            span[2] = perf_counter()
            stack.pop()
            if count is not None:
                span[6] = count(args, kwargs, result)
            span[3] = perf_counter()
            return result

        return wrapper

    def install(self) -> None:
        if self._plan is None:
            self._plan = self._bindings()
        for owner, attr, wrapper in self._plan:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def _bindings(self) -> list[tuple[object, str, object]]:
        """Every (module or class, attribute, wrapper) the targets need."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "commalg" or n.startswith("commalg."))]
        plan = []
        for name, module, attr, count in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                plan.append((cls, meth, self.wrap(name, vars(cls)[meth], count)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, count)
            plan += [(m, key, wrapper) for m in modules
                     for key, value in vars(m).items() if value is original]
        return plan

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def traced(self, job_id: int, fn):
        """Run ``fn`` as job ``job_id`` under a root span, wrappers installed."""
        self.job = job_id
        self.install()
        try:
            return self.wrap(JOB_SPAN, fn)()
        finally:
            self.uninstall()


def self_times(spans: list[list], first: int = 0) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` is the tail of a recording that starts at index ``first``.
    """
    covered = [0.0] * len(spans)
    for name, start, end, done, parent, job, counts in spans:
        if parent >= first:
            covered[parent - first] += done - start
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


class Aggregate:
    """Per span name: calls, self seconds and summed counts, over many jobs."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.jobs = 0

    def add(self, spans: list[list], first: int = 0) -> None:
        """Add the spans of finished jobs, recorded from index ``first`` on."""
        self.jobs += len({span[5] for span in spans})
        for span, own in zip(spans, self_times(spans, first)):
            name = span[0]
            self.calls[name] += 1
            self.self_s[name] += own
            for key, value in (span[6] or {}).items():
                self.counts[name][key] += value

    def as_dict(self) -> dict:
        return {
            name: {"calls": self.calls[name], "self_s": self.self_s[name],
                   "counts": dict(self.counts[name])}
            for name in sorted(self.calls)
        }
