"""Seeded instance generation, end-to-end reduction verification against
brute-force oracles, and report emission.

A pipeline's source is a seeded generator with the oracle, checker, report
JSON and file reader of its instances; a source of one problem kind
(lc-pce's lists, chosen-minmax's caps) takes all but the generator from
that kind's row of problems.KINDS.

Each case draws its own 64-bit seed from the run seed and the case index
through a splitmix-style mixer, so runs are reproducible case by case and a
disagreeing case can be replayed standalone.  Disagreement is report data,
not an exception: finding one is exactly what the harness is for.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

from twlab.errors import GuardError, InputError, require_at_most
from twlab.graphs import (
    VERTEX_CEILING,
    Graph,
    PartitionedGraph,
    graph_to_json,
    partitioned_from_json,
    partitioned_to_json,
)
from twlab import problems as pr
from twlab import reductions as rd
from twlab import solvers as sv
from twlab import treewidth as tw

MASK64 = (1 << 64) - 1


def mix(seed: int, index: int) -> int:
    """splitmix64 finalizer over seed + golden-ratio stride; the documented
    per-case seed derivation."""
    z = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class ExperimentConfig:
    pipeline: str
    k: int = 2
    n: int = 2
    p: float = 0.5
    plant: bool = False
    cases: int = 10
    seed: int = 0
    solver: str = "bf"
    max_weight: int = 4
    rho_max: int = 6
    unsafe: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise InputError(
                f"unknown pipeline {self.pipeline!r}; choose from {tuple(PIPELINES)}"
            )
        refuse_unread(f"{self.pipeline}'s generator", PIPELINES[self.pipeline].source.reads, self)
        if self.cases < 1:
            raise InputError("cases must be at least 1")
        if self.jobs < 1:
            raise InputError("jobs must be at least 1")
        _check_p(self.p)
        if self.solver not in ("bf", "dp", "both"):
            raise InputError("solver must be bf, dp, or both")
        if self.solver != "bf" and pr.KIND_BY_TAG[PIPELINES[self.pipeline].target].dp is None:
            raise InputError(f"pipeline {self.pipeline} has no DP solver; use solver=bf")

    def check_guards(self) -> None:
        if self.unsafe:
            return
        max_k, max_n = PIPELINES[self.pipeline].guard
        if self.k > max_k or self.n > max_n:
            raise GuardError(
                f"pipeline {self.pipeline} is guarded to k <= {max_k}, "
                f"n <= {max_n} (got k={self.k}, n={self.n}); "
                "pass unsafe/--unsafe to lift the guard"
            )


# --- generators ---------------------------------------------------------------

# the fields some generator reads, with their defaults
GENERATOR_FIELDS = {f: ExperimentConfig.__dataclass_fields__[f].default
                    for f in ("k", "n", "p", "plant", "max_weight", "rho_max")}


def refuse_unread(name: str, reads: tuple[str, ...], values) -> None:
    """Raise InputError naming the flag of the first of GENERATOR_FIELDS
    that `reads` lacks and that values (an ExperimentConfig or the CLI's
    parsed flags, which share its defaults) sets away from its default: the
    generator `name` would drop it unread.  A field values lacks is unset."""
    for f, default in GENERATOR_FIELDS.items():
        if f not in reads and getattr(values, f, default) != default:
            flag = f"-{f}" if len(f) == 1 else "--" + f.replace("_", "-")
            raise InputError(f"{name} does not read {flag}")


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise InputError("p must lie in [0, 1]")


def gen_partitioned(k: int, n: int, p: float, plant: bool, seed: int) -> PartitionedGraph:
    """k parts of n vertices; each cross pair kept with probability p; with
    plant, one random transversal is completed to a clique afterwards."""
    for name, value in (("k", k), ("n", n)):
        if value < 0:
            raise InputError(f"{name} must be non-negative, got {value}")
    _check_p(p)
    require_at_most("part count", k, VERTEX_CEILING)
    require_at_most("vertex count", k * n, VERTEX_CEILING)
    require_at_most("pair count", n * n * (k * (k - 1) // 2), pr.PAIR_CEILING)
    rng = random.Random(seed)
    parts = [tuple(range(i * n, (i + 1) * n)) for i in range(k)]
    edges = set()
    for i in range(k):
        for j in range(i + 1, k):
            for u in parts[i]:
                for v in parts[j]:
                    if rng.random() < p:
                        edges.add((u, v))
    if plant and n > 0:
        chosen = [part[rng.randrange(n)] for part in parts]
        for a, b in itertools.combinations(chosen, 2):
            edges.add((min(a, b), max(a, b)))
    return PartitionedGraph(Graph(k * n, sorted(edges)), parts)


def gen_graph(n: int, edge_p: float, seed: int) -> Graph:
    _check_p(edge_p)
    require_at_most("vertex count", n, VERTEX_CEILING)
    require_at_most("pair count", n * (n - 1) // 2, pr.PAIR_CEILING)
    rng = random.Random(seed)
    return Graph(
        n,
        [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < edge_p
        ],
    )


def gen_weighted(n: int, edge_p: float, max_w: int, seed: int) -> tuple[Graph, list[int]]:
    """A seeded graph and its weights, aligned with its edges."""
    if max_w < 1:
        raise InputError(f"max weight must be at least 1, got {max_w}")
    rng = random.Random(seed)
    g = gen_graph(n, edge_p, mix(seed, 1))
    return g, [rng.randint(1, max_w) for _ in g.edges]


def gen_rho(n: int, bound: int, seed: int) -> tuple[int, ...]:
    if bound < 0:
        raise InputError(f"largest cap must be non-negative, got {bound}")
    rng = random.Random(seed)
    # a list, not a generator: see graphs.Graph._adj
    return tuple([rng.randint(0, bound) for _ in range(n)])


def gen_list_instance(n: int, colors: int, edge_p: float, seed: int) -> pr.ListColoringInstance:
    rng = random.Random(seed)
    g = gen_graph(n, edge_p, mix(seed, 1))
    lists = [
        frozenset(c for c in range(1, colors + 1) if rng.random() < 0.55)
        for _ in range(n)
    ]
    return pr.ListColoringInstance(g, lists)


def gen_chosen_instance(n: int, edge_p: float, max_w: int, rho_max: int, seed: int):
    g, w = gen_weighted(n, edge_p, max_w, seed)
    return pr.ChosenOutdegreeInstance(g, w, gen_rho(n, rho_max, mix(seed, 2)))


# --- pipelines --------------------------------------------------------------------

@dataclass(frozen=True)
class Source:
    """Where a pipeline's source instances come from: the seeded generator
    (config, case seed) and the GENERATOR_FIELDS of the config it reads (a
    config setting any other away from its default is refused), the oracle
    deciding them, the checker of its yes-witnesses (source, witness), their
    report JSON, and the reader of `twlab reduce` (file object, -k or None,
    pipeline name), which refuses a -k that the file does not bear out."""

    generate: Callable[[ExperimentConfig, int], object]
    reads: tuple[str, ...]
    solve: Callable[[object], object]
    check: Callable[[object, object], bool]
    to_json: Callable[[object], dict]
    read: Callable[[object, int | None, str], object]


def _read_graph_and_k(obj, k, name):
    if k is None:
        raise InputError(f"{name} requires -k")
    return pr.graph_from_file(obj), k


def _read_partitioned(obj, k, name):
    pg = partitioned_from_json(obj)
    if k is not None and k != pg.k:
        raise InputError(f"{name}: -k {k} differs from the {pg.k} parts of the file")
    return pg


# Oracles and reductions are called through module attributes (pr.*, rd.*)
# looked up when the lambda runs, so tracing and monkeypatching see them.
def _kind_source(tag: str, generate: Callable[[ExperimentConfig, int], object],
                 reads: tuple[str, ...]) -> Source:
    """A source of problems.KINDS instances of one kind: that row's oracle,
    checker and codec, and a reader refusing every other kind."""
    kind = pr.KIND_BY_TAG[tag]

    def read(obj, k, name):
        if k is not None:
            raise InputError(f"{name} takes no -k: its source is a {tag} instance file")

        def refuse_other(other: pr.ProblemKind) -> None:
            if other is not kind:
                raise InputError(f"{name} expects a {tag} instance file")
        return pr.instance_from_json(obj, refuse_other)

    return Source(generate, reads, lambda inst: getattr(pr, kind.oracle)(inst), kind.check,
                  pr.instance_to_json, read)


PARTITIONED = Source(
    lambda cfg, seed: gen_partitioned(cfg.k, cfg.n, cfg.p, cfg.plant, seed),
    ("k", "n", "p", "plant"),
    lambda pg: pr.bf_partitioned_clique(pg),
    lambda pg, clique: len(clique) == pg.k and pr.is_clique(pg.graph, clique),
    partitioned_to_json,
    _read_partitioned,
)
GRAPH_AND_K = Source(  # the source is the pair (graph, k)
    lambda cfg, seed: (gen_graph(cfg.n, cfg.p, seed), cfg.k),
    ("k", "n", "p"),
    lambda source: pr.bf_clique(*source),
    lambda source, clique: len(clique) == source[1] and pr.is_clique(source[0], clique),
    lambda source: dict(graph_to_json(source[0]), k=source[1]),
    _read_graph_and_k,
)
LIST_COLORING = _kind_source(
    "list_coloring", lambda cfg, seed: gen_list_instance(cfg.n, cfg.k, cfg.p, seed), ("k", "n", "p")
)
CHOSEN_OUTDEGREE = _kind_source(
    "chosen_outdegree",
    lambda cfg, seed: gen_chosen_instance(cfg.n, cfg.p, cfg.max_weight, cfg.rho_max, seed),
    ("n", "p", "max_weight", "rho_max"),
)


@dataclass(frozen=True)
class Pipeline:
    """A reduction checked end to end.  `reduce` maps a source to its
    ReductionOutput; `check`, if set, records certificate checks once the
    target has been solved."""

    name: str
    guard: tuple[int, int]  # largest (k, n) the brute-force oracles are trusted with
    source: Source
    target: str  # problems.KINDS tag of the reduced instance
    reduce: Callable[[object], rd.ReductionOutput]
    # (out, source, source witness or None, {solver: target witness}, checks);
    # given only the yes-witnesses that passed their check
    check: Callable | None = None


def _clique_checks(out, pg, clique, witnesses, checks) -> None:
    """Read a clique back out of every yes-orientation, and build the
    orientation of the source clique, when the gadget is not degenerate.
    Only witnesses that passed their own check are passed in."""
    if not out.meta.get("gadget"):
        return
    for name, lam in witnesses.items():
        picked = rd.extract_clique(out, lam)
        checks[f"clique_ok_{name}"] = picked is not None and pr.is_clique(pg.graph, picked)
    if clique is not None:
        lam_c = rd.orientation_from_clique(out, clique)
        checks["constructive_ok"] = pr.check_admissible(out.instance, lam_c)


def _pc_to_minmax(pg):
    """pc-chosen then chosen-minmax on the gadget's witness and its k(k-1)+1."""
    out = rd.pc_to_chosen_outdegree(pg)
    return rd.chosen_to_minmax(out.instance, (out.witness, out.claimed_width_bound))


# conservative brute-force blowup guards; lift with unsafe=True
PIPELINES = {p.name: p for p in (
    Pipeline("pc-lc", (4, 6), PARTITIONED, "list_coloring",
             lambda pg: rd.pc_to_list_coloring(pg)),
    Pipeline("lc-pce", (6, 10), LIST_COLORING, "precoloring",
             lambda inst: rd.lc_to_precoloring(inst)),
    Pipeline("clique-gensat", (4, 8), GRAPH_AND_K, "gensat",
             lambda source: rd.clique_to_gensat(*source)),
    Pipeline("pc-chosen", (3, 3), PARTITIONED, "chosen_outdegree",
             lambda pg: rd.pc_to_chosen_outdegree(pg), _clique_checks),
    Pipeline("chosen-minmax", (10**9, 8), CHOSEN_OUTDEGREE, "minmax_outdegree",
             lambda inst: rd.chosen_to_minmax(inst)),
    Pipeline("pc-minmax", (2, 2), PARTITIONED, "minmax_outdegree", _pc_to_minmax),
)}


def _target_ntd(graph: Graph):
    """The nice decomposition a DP runs on: heuristic_nice's tree of the
    min-fill elimination, written for this very graph object with no host
    tree and no to_nice, and valid by construction."""
    return tw.heuristic_nice(graph, "min-fill")


def _case_record(cfg: ExperimentConfig, case: int) -> dict:
    case_seed = mix(cfg.seed, case)
    record: dict = {"case": case, "case_seed": case_seed}
    checks: dict = {}
    pipeline = PIPELINES[cfg.pipeline]

    t0 = time.perf_counter()
    source = pipeline.source.generate(cfg, case_seed)
    source_witness = pipeline.source.solve(source)
    t1 = time.perf_counter()
    out = pipeline.reduce(source)
    certified = not rd.certify(out)
    t2 = time.perf_counter()

    solvers_run: dict[str, object] = {}
    if cfg.solver in ("bf", "both"):
        solvers_run["bf"] = solve_bf(out.instance)
    if cfg.solver in ("dp", "both"):
        solvers_run["dp"] = solve_dp(out.instance)
    t3 = time.perf_counter()

    target_witness = next(iter(solvers_run.values()))
    answers = {name: w is not None for name, w in solvers_run.items()}
    source_yes = source_witness is not None
    agree = all(a == source_yes for a in answers.values())

    # each yes-witness is checked once, here, against its instance
    if source_yes:
        checks["witness_ok_source"] = pipeline.source.check(source, source_witness)
    target_check = pr.kind_of(out.instance).check
    for name, w in solvers_run.items():
        if w is not None:
            checks[f"witness_ok_{name}"] = target_check(out.instance, w)
    if pipeline.check is not None:
        pipeline.check(
            out,
            source,
            source_witness if checks.get("witness_ok_source") else None,
            {name: w for name, w in solvers_run.items() if checks.get(f"witness_ok_{name}")},
            checks,
        )

    # bound_ok folds in every certificate check for the case: each witness
    # decomposition against its graph and claimed width bound (certify), each
    # yes-witness against its instance, and the pipeline's read-back checks
    record.update(
        source_answer="yes" if source_yes else "no",
        target_answer="yes" if target_witness is not None else "no",
        agree=agree,
        witness_width=tw.width(out.witness),
        claimed_bound=out.claimed_width_bound,
        bound_ok=certified and all(checks.values()),
        timings_ms={
            "source": (t1 - t0) * 1000.0,
            "reduce": (t2 - t1) * 1000.0,
            "target": (t3 - t2) * 1000.0,
        },
    )
    if "dp" in answers:
        record["dp_answer"] = "yes" if answers["dp"] else "no"
    if checks:
        record["checks"] = checks
    if not agree:
        record["replay"] = {
            "source": pipeline.source.to_json(source),
            "target": pr.instance_to_json(out.instance),
        }
    return record


def solve_bf(instance):
    """Solve an instance of any problem kind with its brute-force oracle."""
    return getattr(pr, pr.kind_of(instance).oracle)(instance)


def require_dp(kind: pr.ProblemKind) -> None:
    """InputError unless the kind has a decomposition-driven solver.
    Callers check this before building a decomposition."""
    if kind.dp is None:
        raise InputError(f"no DP solver for {kind.cls.__name__}")


def solve_dp(instance, ntd=None):
    """Solve an instance with its kind's DP solver, on _target_ntd's tree if
    no nice decomposition is given.  A given one must have been built, by
    to_nice or heuristic_nice, for a graph equal to the instance's."""
    kind = pr.kind_of(instance)
    require_dp(kind)
    if ntd is None:
        ntd = _target_ntd(instance.graph)
    return getattr(sv, kind.dp)(instance, ntd)


# --- report -----------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    config: dict
    records: tuple[dict, ...]
    summary: dict

    @staticmethod
    def build(cfg: ExperimentConfig, records) -> "VerificationReport":
        records = tuple(records)
        disagreements = sum(1 for r in records if not r["agree"])
        yes_source = sum(1 for r in records if r["source_answer"] == "yes")
        summary = {
            "total": len(records),
            "agreements": len(records) - disagreements,
            "disagreements": disagreements,
            "max_width_seen": max((r["witness_width"] for r in records), default=-1),
            "yes_source": yes_source,
            "no_source": len(records) - yes_source,
            "pass": disagreements == 0 and all(r["bound_ok"] for r in records),
        }
        return VerificationReport(dict(vars(cfg)), records, summary)


def verify_reduction(cfg: ExperimentConfig) -> VerificationReport:
    """Generate cases, solve source and target, validate witnesses, and
    collect agreement records (in case order even when run in parallel).

    At most min(jobs, cases, CPU count) worker processes are started.
    """
    cfg.check_guards()
    workers = min(cfg.jobs, cfg.cases)
    if workers > 1:  # os.cpu_count() costs microseconds; a serial run skips it
        workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_case_record, [cfg] * cfg.cases, range(cfg.cases)))
    else:
        records = [_case_record(cfg, case) for case in range(cfg.cases)]
    return VerificationReport.build(cfg, records)


def report_to_json(rep: VerificationReport) -> dict:
    return {"config": rep.config, "records": list(rep.records), "summary": rep.summary}


def strip_timings(obj):
    """Copy of a report object with timing fields removed (determinism
    comparisons exclude timings)."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "timings_ms"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


CSV_COLUMNS = (
    "case",
    "case_seed",
    "source_answer",
    "target_answer",
    "agree",
    "witness_width",
    "claimed_bound",
    "bound_ok",
    "t_source_ms",
    "t_reduce_ms",
    "t_target_ms",
    "dp_answer",
)


def _report_csv(rep: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rep.records:
        row = {**r, "dp_answer": r.get("dp_answer", "")}
        row.update((f"t_{stage}_ms", f"{t:.3f}") for stage, t in r["timings_ms"].items())
        writer.writerow([row[c] for c in CSV_COLUMNS])
    return buf.getvalue()


def emit_report(rep: VerificationReport, path: str, fmt: str = "json") -> None:
    """Write the report atomically (temp file + rename)."""
    if fmt == "json":
        payload = json.dumps(report_to_json(rep), indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        payload = _report_csv(rep)
    else:
        raise InputError(f"unknown report format {fmt!r}")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload)
    os.replace(tmp, path)
