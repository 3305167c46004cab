"""Seeded inputs, jobs and independent output checks for each workload.

Every workload turns ``--seed`` into a fixed list of jobs before timing
starts: DSL files (and coefficient tables) are written to a work directory,
and each job is either a ``commalg`` CLI invocation run in process through
``commalg.cli.run(argv)`` or, where no subcommand exists, a direct library
call.  The checks never trust the program: reachability comes from the
benchmark's own BFS over the generated arrows, path counts from its own walk
counting, chain bounds from its own cover DP, and the answers that have no
second route (projective dimensions, tabulated oracle reports) are compared
with digests recorded in ``digests.json``.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

DIGESTS_FILE = Path(__file__).with_name("digests.json")

BLOCKFORM_SIZES = tuple(range(50, 161, 10))
BLOCKFORM_CANDIDATES = 15  # draws per size, sampled by quantile of the closure cost
BLOCKFORM_PER_SIZE = 3

GLDIM_SIZES = (10, 12, 14, 16, 18, 20)
GLDIM_CORPUS_SEEDS = 20  # recorded posets per size
GLDIM_STRATA = 36

VERIFY_SIZES = (5, 6, 7)
VERIFY_FP_FIELD = "fp:1000003"
VERIFY_WORK_LIMIT = 2**15  # paths the oracle builds in one verify job
VERIFY_DRAWS = 1500  # about 1000 under the limit and 10 overflows per seed
VERIFY_PICKED = 64
VERIFY_OVERFLOW_PICKED = 2

ORACLE_CORPUS = 96
ORACLE_STRATA = 24
ORACLE_HEAVIEST = 4  # with 3 passes or more, the tail falls among their runs
ORACLE_MAX_COST = 0.5  # seconds; the 4 costlier entries would leave room for 2 passes
ORACLE_TRUNCATION = 4
ORACLE_EXCEPTIONS = 5


class CheckFailed(Exception):
    """The program's output for a job is wrong."""


@dataclass
class Job:
    """One unit of timed work and what its check needs to know."""

    label: str
    argv: list[str] | None = None
    call: Callable | None = None
    facts: dict = field(default_factory=dict)


@dataclass
class Outcome:
    stdout: str
    stderr: str
    rc: int
    seconds: float
    error: str | None = None


def run_job(commalg, job: Job) -> Outcome:
    """Run one job in process with stdout and stderr captured.

    The public entry point is looked up at call time, so wrappers installed
    by the tracer are the ones called.  Garbage from earlier jobs is
    collected before the clock starts, so each job begins from a clean heap
    as a fresh CLI process would.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = 0
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            if job.argv is not None:
                rc = commalg.cli.run(job.argv)
            else:
                out.write(job.call(commalg))
        except Exception as exc:  # a crash is a failed job, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
            rc = -1
        t1 = perf_counter()
    return Outcome(out.getvalue(), err.getvalue(), rc, t1 - t0, error)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_digests() -> dict:
    if not DIGESTS_FILE.is_file():
        return {}
    return json.loads(DIGESTS_FILE.read_text())


# ---------------------------------------------------------------- graph helpers


def write_dsl(path: Path, name: str, vertices, arrows) -> None:
    """Write a quiver file; ``arrows`` holds (name, source, target) triples."""
    lines = [f"quiver {name} {{", f"  vertices: {', '.join(vertices)};"]
    lines += [f"  {a}: {s} -> {t};" for a, s, t in arrows]
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")


def successors(vertices, arrows) -> list[list[int]]:
    index = {v: i for i, v in enumerate(vertices)}
    succ: list[list[int]] = [[] for _ in vertices]
    for _, s, t in arrows:
        succ[index[s]].append(index[t])
    return succ


def bfs_reach(succ: list[list[int]]) -> list[set[int]]:
    """Reflexive-transitive reachability, one BFS per vertex."""
    out = []
    for s in range(len(succ)):
        seen = {s}
        queue = [s]
        for x in queue:
            for y in succ[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        out.append(seen)
    return out


def reachable_pairs(succ: list[list[int]]) -> int:
    """Number of reachable (source, target) pairs, diagonal included.

    Closure over strongly connected components with int bitsets: Tarjan,
    then one OR per condensation arrow in reverse topological order.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []  # in reverse topological order
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            if i < len(succ[v]):
                work.append((v, i + 1))
                w = succ[v][i]
                if index[w] < 0:
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = len(comps)
                    members.append(w)
                    if w == v:
                        break
                comps.append(members)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    reach = []
    for c, members in enumerate(comps):
        bits = 0
        for v in members:
            bits |= 1 << v
            for w in succ[v]:
                if comp[w] != c:
                    bits |= reach[comp[w]]
        reach.append(bits)
    return sum(len(members) * bin(reach[c]).count("1") for c, members in enumerate(comps))


def walk_counts(succ: list[list[int]], source: int, length: int):
    """Walks from ``source`` by exact length: a list of per-target counts."""
    n = len(succ)
    cur = [0] * n
    cur[source] = 1
    levels = [cur]
    for _ in range(length):
        nxt = [0] * n
        for x, c in enumerate(cur):
            if c:
                for y in succ[x]:
                    nxt[y] += c
        levels.append(nxt)
        cur = nxt
    return levels


def paths_upto(succ, source: int, length: int) -> list[int]:
    """Per target, the number of paths of length <= ``length`` from source."""
    totals = [0] * len(succ)
    for level in walk_counts(succ, source, length):
        for t, c in enumerate(level):
            totals[t] += c
    return totals


@dataclass
class OracleModel:
    """Paths ``pattern_report`` plus ``vertex_nondegeneracy`` will build.

    ``overflow`` is the first (source, target) pair, in the order
    ``pattern_report`` visits pairs, whose enumeration exceeds the path cap:
    either a frontier of walks of one length or the matches themselves.
    """

    work: int
    overflow: tuple[int, int] | None


def oracle_model(succ, truncation: int, cap: int) -> OracleModel:
    n = len(succ)
    work = 0
    for s in range(n):
        levels = walk_counts(succ, s, truncation)
        frontier = [sum(level) for level in levels[1:]]
        built = sum(frontier)
        frontier_over = any(f > cap for f in frontier)
        matches = [sum(level[t] for level in levels) for t in range(n)]
        for t in range(n):
            if frontier_over or matches[t] > cap:
                return OracleModel(work + cap, (s, t))
            work += built
    # vertex_nondegeneracy repeats the diagonal pairs
    work += sum(sum(sum(lv) for lv in walk_counts(succ, s, truncation)[1:]) for s in range(n))
    return OracleModel(work, None)


def hasse_covers(leq) -> list[tuple[int, int]]:
    m = len(leq)
    return [
        (i, j)
        for i in range(m)
        for j in range(m)
        if i != j
        and leq[i][j]
        and not any(k != i and k != j and leq[i][k] and leq[k][j] for k in range(m))
    ]


def chain_facts(m: int, covers) -> tuple[int, list[bool]]:
    """Elements in a longest chain, and which elements are maximal."""
    up: list[list[int]] = [[] for _ in range(m)]
    for i, j in covers:
        up[i].append(j)
    best: dict[int, int] = {}

    def height(i: int) -> int:
        if i not in best:
            best[i] = 1 + max((height(j) for j in up[i]), default=0)
        return best[i]

    return max(height(i) for i in range(m)), [not up[i] for i in range(m)]


def rp2_face_poset() -> tuple[list[str], list[tuple[str, str]]]:
    """Face poset of the 6-vertex RP2 triangulation with a bottom and a top.

    33 elements; the covers run bottom -> vertex -> edge -> triangle -> top.
    """
    triangles = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    edges = sorted({e for t in triangles for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))})
    vname = [f"p{i}" for i in range(1, 7)]
    ename = [f"e{a}{b}" for a, b in edges]
    tname = [f"t{a}{b}{c}" for a, b, c in triangles]
    covers = [("bot", v) for v in vname]
    covers += [(f"p{x}", f"e{a}{b}") for a, b in edges for x in (a, b)]
    covers += [
        (f"e{a}{b}", f"t{t[0]}{t[1]}{t[2]}")
        for t in triangles
        for a, b in edges
        if a in t and b in t
    ]
    covers += [(t, "top") for t in tname]
    return ["bot", *vname, *ename, *tname, "top"], covers


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_success(out: Outcome) -> dict:
    _expect(out.error is None, f"raised {out.error}")
    _expect(out.rc == 0, f"exit {out.rc}: {out.stderr.strip()}")
    return json.loads(out.stdout)


# ------------------------------------------------------------------ workloads


class Workload:
    name = ""

    def generate(self, commalg, seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
        """The seed's jobs, inputs written to ``workdir``; ``tiny`` for smoke tests."""
        raise NotImplementedError

    def check(self, job: Job, out: Outcome, digests: dict) -> str:
        """Return "ok" or "undecided"; raise CheckFailed on a wrong answer."""
        raise NotImplementedError


class CorpusWorkload(Workload):
    """A workload drawn from a corpus whose answers are recorded in digests.json.

    The corpus is ordered by the job cost recorded with the digests.  The
    ``heaviest`` entries run for every seed: they set the tail, and drawing
    among them would move it by more than any useful bound.  Entries that
    cost more than ``max_cost`` are left out.  The rest is cut
    into ``strata - heaviest`` strata of neighbouring costs, and a seed draws
    one entry from each, so every seed runs the same spread of cheap and
    expensive jobs.
    """

    strata = 1
    heaviest = 3
    max_cost = float("inf")

    def corpus(self) -> list[str]:
        raise NotImplementedError

    def build(self, commalg, label: str, workdir: Path) -> Job:
        raise NotImplementedError

    def fixed_jobs(self, workdir: Path) -> list[Job]:
        return []

    def generate(self, commalg, seed, workdir, tiny=False):
        recorded = load_digests().get(self.name, {})
        cost = {lb: recorded.get(lb, {}).get("cost", 0.0) for lb in self.corpus()}
        labels = sorted((lb for lb in cost if cost[lb] <= self.max_cost), key=lambda lb: (cost[lb], lb))
        rest, top = labels[:-self.heaviest], labels[-self.heaviest:]
        n = 1 if tiny else self.strata - self.heaviest
        bounds = [len(rest) * k // n for k in range(n + 1)]
        rng = random.Random(f"{self.name}:{seed}")
        chosen = [rng.choice(rest[bounds[k]:bounds[k + 1]]) for k in range(n)]
        if not tiny:
            chosen += top
        return [self.build(commalg, lb, workdir) for lb in chosen] + self.fixed_jobs(workdir)

    def check_digest(self, job: Job, out: Outcome, digests: dict) -> None:
        recorded = digests.get(self.name, {}).get(job.label, {}).get("digest")
        _expect(recorded is not None, f"no recorded digest for {job.label}")
        _expect(digest(out.stdout) == recorded, "stdout differs from the recorded digest")


class BlockformSparse(Workload):
    """Random sparse quivers on a ladder of sizes, sampled by closure cost.

    Within one size the time of ``blockform`` follows n * T + n^2, where T
    is the number of reachable pairs (Warshall's inner loop and the
    transitivity checks run once per reachable pair).  T varies a lot
    between draws, so each size keeps the draws at fixed quantiles of it.
    """

    name = "blockform_sparse"

    def generate(self, commalg, seed, workdir, tiny=False):
        rng = random.Random(f"{self.name}:{seed}")
        jobs = []
        for n in (20, 30) if tiny else BLOCKFORM_SIZES:
            draws = []
            for r in range(BLOCKFORM_CANDIDATES):
                q = commalg.randgen.random_sparse_quiver(n, 2 * n, rng, name=f"b{n}_{r}")
                arrows = [(a.name, a.source, a.target) for a in q.arrows]
                draws.append((reachable_pairs(successors(q.vertices, arrows)), r, q, arrows))
            for *_, q, arrows in _quantile_pick(draws, 1 if tiny else BLOCKFORM_PER_SIZE):
                path = workdir / f"{q.name}.quiver"
                write_dsl(path, q.name, q.vertices, arrows)
                jobs.append(
                    Job(q.name, ["blockform", str(path)],
                        facts={"vertices": list(q.vertices), "arrows": arrows})
                )
        return jobs

    def check(self, job, out, digests):
        doc = _check_success(out)
        vertices = job.facts["vertices"]
        reach = bfs_reach(successors(vertices, job.facts["arrows"]))
        index = {v: i for i, v in enumerate(vertices)}
        order = [index[v] for v in doc["order"]]
        n = len(vertices)
        _expect(sorted(order) == list(range(n)), "order is not a permutation")
        pattern = doc["pattern"]
        for a, i in enumerate(order):
            row = "".join("1" if j in reach[i] else "0" for j in order)
            _expect(pattern[a] == row, f"pattern row {a} disagrees with BFS")
        _expect(doc["total_dimension"] == sum(len(r) for r in reach), "total_dimension")
        _expect(sum(doc["block_sizes"]) == n, "block sizes do not cover the vertices")
        starts = []
        at = 0
        for size in doc["block_sizes"]:
            block = order[at:at + size]
            starts.append(block[0])
            _expect(
                all(j in reach[i] for i in block for j in block),
                "a block is not strongly connected",
            )
            at += size
        _expect(
            all(not (a in reach[b] and b in reach[a])
                for x, a in enumerate(starts) for b in starts[x + 1:]),
            "two blocks are one path component",
        )
        expected_blocks = [
            "".join("1" if b in reach[a] else "0" for b in starts) for a in starts
        ]
        _expect(doc["component_pattern"] == expected_blocks, "component_pattern")
        _expect(
            all(b not in reach[a] for x, a in enumerate(starts) for b in starts[:x]),
            "blocks are not in topological order",
        )
        _expect(doc["field"] == "QQ", "field")
        return "ok"


class GldimPoset(CorpusWorkload):
    name = "gldim_poset"
    strata = GLDIM_STRATA

    def corpus(self):
        return [f"m{m}_s{s}" for m in GLDIM_SIZES for s in range(GLDIM_CORPUS_SEEDS)]

    def build(self, commalg, label, workdir):
        m, s = (int(part[1:]) for part in label.split("_"))
        poset = commalg.randgen.random_poset(m, 1000 * m + s, 0.3)
        els = list(poset.elements)
        covers = [(els[i], els[j]) for i, j in hasse_covers(poset.leq)]
        return self.write_poset(label, els, covers, workdir)

    def fixed_jobs(self, workdir):
        elements, covers = rp2_face_poset()
        return [self.write_poset("rp2", elements, covers, workdir)]

    @staticmethod
    def write_poset(label, elements, covers, workdir) -> Job:
        path = workdir / f"{label}.quiver"
        arrows = [(f"c{k}", x, y) for k, (x, y) in enumerate(covers)]
        write_dsl(path, label, elements, arrows)
        index = {x: i for i, x in enumerate(elements)}
        return Job(
            label, ["gldim", str(path)],
            facts={"elements": elements,
                   "covers": [(index[x], index[y]) for x, y in covers]},
        )

    def check(self, job, out, digests):
        doc = _check_success(out)
        elements = job.facts["elements"]
        bound, maximal = chain_facts(len(elements), job.facts["covers"])
        _expect(doc["elements"] == elements, "elements")
        pds = doc["projective_dimensions"]
        _expect(doc["chain_bound"] == bound, "chain bound disagrees with cover DP")
        _expect(doc["global_dimension"] == max(pds), "global dimension is not max pd")
        _expect(doc["global_dimension"] <= bound and doc["bound"] == "PASS", "bound")
        _expect(
            all((pd == 0) == top for pd, top in zip(pds, maximal)),
            "pd(S_x) = 0 must hold exactly at the maximal elements",
        )
        if job.label == "rp2":
            _expect(doc["global_dimension"] == 3, "RP2 face poset has gldim 3 over QQ")
        self.check_digest(job, out, digests)
        return "ok"


class VerifySmall(Workload):
    """Random quivers sampled at fixed quantiles of the oracle's path work.

    The job time of ``verify`` is close to proportional to the paths the
    oracle builds, which varies over orders of magnitude between draws; a
    fixed-quantile sample of many draws keeps each seed's mix comparable.
    Draws that overflow the default path cap (about 1 in 150) are kept as
    their own quota: verify exits 1 on them, and the check confirms the
    overflow by the benchmark's own walk count.  Draws that would build more
    than ``VERIFY_WORK_LIMIT`` paths are not small and are skipped.
    """

    name = "verify_small"

    def generate(self, commalg, seed, workdir, tiny=False):
        cap = commalg.oracle.DEFAULT_PATH_CAP
        rng = random.Random(f"{self.name}:{seed}")
        scale = 8 if tiny else 1
        normal, overflow = [], []
        for draw in range(VERIFY_DRAWS // scale):
            n = VERIFY_SIZES[draw % len(VERIFY_SIZES)]
            q = commalg.randgen.random_quiver(n, 2 * n, rng, name=f"r{draw}")
            arrows = [(a.name, a.source, a.target) for a in q.arrows]
            model = oracle_model(successors(q.vertices, arrows), n + 2, cap)
            if model.work > VERIFY_WORK_LIMIT:
                continue
            pool = overflow if model.overflow else normal
            pool.append((model.work, draw, q.vertices, arrows, model.overflow))
        picked = _quantile_pick(normal, VERIFY_PICKED // scale)
        picked += _quantile_pick(overflow, min(len(overflow), max(1, VERIFY_OVERFLOW_PICKED // scale)))
        jobs = []
        for k, (work, draw, vertices, arrows, over) in enumerate(picked):
            label = f"r{draw}"
            path = workdir / f"{label}.quiver"
            write_dsl(path, label, vertices, arrows)
            argv = ["verify", str(path)]
            if k % 4 == 1:
                argv[1:1] = ["--field", VERIFY_FP_FIELD]
            jobs.append(Job(label, argv, facts={
                "vertices": list(vertices), "arrows": arrows,
                "overflow": over, "cap": cap, "work": work,
            }))
        return jobs

    def check(self, job, out, digests):
        vertices = job.facts["vertices"]
        succ = successors(vertices, job.facts["arrows"])
        over = job.facts["overflow"]
        if over is not None:
            s, t = vertices[over[0]], vertices[over[1]]
            _expect(out.error is None and out.rc == 1 and out.stdout == "",
                    f"expected exit 1 on a cap overflow, got {out.rc} {out.error}")
            _expect(
                f"from {s!r} to {t!r} exceeds cap {job.facts['cap']}" in out.stderr,
                f"expected the overflow at ({s}, {t}): {out.stderr.strip()}",
            )
            return "undecided"
        doc = _check_success(out)
        n = len(vertices)
        reach = bfs_reach(succ)
        _expect(doc["truncation"] == n + 2, "default truncation is n + 2")
        _expect(doc["overall"] == "PASS", "overall")
        _expect(all(p["pass"] for p in doc["properties"]), "a property failed")
        counts = [paths_upto(succ, s, n + 2) for s in range(n)]
        pairs = doc["pairs"]
        _expect(len(pairs) == n * n, "one report per ordered pair")
        for k, p in enumerate(pairs):
            s, t = divmod(k, n)
            _expect((p["source"], p["target"]) == (vertices[s], vertices[t]), "pair order")
            _expect(p["dimension"] == int(t in reach[s]), f"dimension at {p['source']}->{p['target']}")
            _expect(p["path_count"] == counts[s][t], "path_count disagrees with walk count")
            _expect(p["relation_rank"] == p["path_count"] - p["dimension"], "relation_rank")
            _expect(p["certified"], "multiplicative reports at L >= n are certified")
        return "ok"


def _quantile_pick(pool: list, k: int) -> list:
    """``k`` entries at evenly spaced quantiles of ``pool`` sorted by work."""
    pool = sorted(pool)
    return [pool[int((i + 0.5) * len(pool) / k)] for i in range(k)]


class OracleTabulated(CorpusWorkload):
    """Direct ``pattern_report`` calls with tabulated path coefficients."""

    name = "oracle_tabulated"
    strata = ORACLE_STRATA
    heaviest = ORACLE_HEAVIEST
    max_cost = ORACLE_MAX_COST

    def corpus(self):
        return [f"c{c}" for c in range(ORACLE_CORPUS)]

    def build(self, commalg, label, workdir):
        c = int(label[1:])
        q = commalg.randgen.random_sparse_quiver(6, 10, 5000 + c, name=label)
        arrows = [(a.name, a.source, a.target) for a in q.arrows]
        rng = random.Random(f"{self.name}:exceptions:{c}")
        candidates = []
        for start in q.vertices:
            stack = [(start, ())]
            while stack:
                at, names = stack.pop()
                if names:
                    candidates.append((start, names))
                if len(names) < 3:
                    for a in q.arrows:
                        if a.source == at:
                            stack.append((a.target, names + (a.name,)))
        candidates.sort()
        exceptions = [
            (start, list(names),
             str(Fraction(rng.choice([2, 3, -1, 5, 7]), rng.choice([1, 4]))))
            for start, names in rng.sample(candidates, ORACLE_EXCEPTIONS)
        ]
        qpath = workdir / f"{label}.quiver"
        tpath = workdir / f"{label}.table.json"
        write_dsl(qpath, label, q.vertices, arrows)
        tpath.write_text(json.dumps(exceptions))
        return Job(
            label, call=_oracle_call(qpath, tpath, ORACLE_TRUNCATION),
            facts={"vertices": list(q.vertices), "arrows": arrows},
        )

    def check(self, job, out, digests):
        _expect(out.error is None, f"raised {out.error}")
        reports = json.loads(out.stdout)
        vertices = job.facts["vertices"]
        succ = successors(vertices, job.facts["arrows"])
        reach = bfs_reach(succ)
        n = len(vertices)
        _expect(len(reports) == n * n, "one report per ordered pair")
        for k, r in enumerate(reports):
            s, t = divmod(k, n)
            _expect((r["source"], r["target"]) == (vertices[s], vertices[t]), "pair order")
            _expect(r["dimension"] <= int(t in reach[s]), "dimension above the pattern's")
            _expect(
                r["path_count"] == paths_upto(succ, s, ORACLE_TRUNCATION)[t],
                "path_count disagrees with walk count",
            )
            _expect(r["relation_rank"] == r["path_count"] - r["dimension"], "relation_rank")
        self.check_digest(job, out, digests)
        return "ok"


def _oracle_call(qpath: Path, tpath: Path, truncation: int):
    """Read the quiver and table, build the coefficient table, report all pairs."""

    def call(commalg) -> str:
        quiver = commalg.dsl.parse_quiver(qpath.read_text())
        exceptions = {
            quiver.path(start, names): Fraction(value)
            for start, names, value in json.loads(tpath.read_text())
        }
        table = commalg.oracle.GeneralCoefficientTable(
            quiver, commalg.algebra.CoefficientFunction.trivial(), exceptions
        )
        reports = commalg.oracle.pattern_report(quiver, truncation, table)
        return json.dumps(
            [
                {"source": r.source, "target": r.target, "path_count": r.path_count,
                 "relation_rank": r.relation_rank, "dimension": r.dimension,
                 "certified": r.certified}
                for r in reports
            ],
            indent=1,
        ) + "\n"

    return call


WORKLOADS = {w.name: w for w in (BlockformSparse(), GldimPoset(), VerifySmall(), OracleTabulated())}
