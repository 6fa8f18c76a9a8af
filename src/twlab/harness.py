"""Seeded instance generation, end-to-end reduction verification against
brute-force oracles, and report emission.

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
from dataclasses import asdict, dataclass

from twlab.errors import GuardError, InputError
from twlab.graphs import (
    EdgeWeighting,
    Graph,
    PartitionedGraph,
    graph_to_json,
    partitioned_to_json,
)
from twlab import problems as pr
from twlab import reductions as rd
from twlab import solvers as sv
from twlab import treewidth as tw

PIPELINES = (
    "pc-lc",
    "lc-pce",
    "clique-gensat",
    "pc-chosen",
    "chosen-minmax",
    "pc-minmax",
)

# conservative brute-force blowup guards; lift with unsafe=True or
# TWLAB_GUARD_OVERRIDE=1
GUARDS: dict[str, dict[str, int]] = {
    "pc-lc": {"k": 4, "n": 6},
    "lc-pce": {"k": 6, "n": 10},
    "clique-gensat": {"k": 4, "n": 8},
    "pc-chosen": {"k": 3, "n": 3},
    "chosen-minmax": {"k": 10**9, "n": 8},
    "pc-minmax": {"k": 2, "n": 2},
}

DP_PIPELINES = {"pc-lc", "pc-chosen", "chosen-minmax", "pc-minmax"}

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
            raise InputError(f"unknown pipeline {self.pipeline!r}; choose from {PIPELINES}")
        if self.cases < 1:
            raise InputError("cases must be at least 1")
        if self.jobs < 1:
            raise InputError("jobs must be at least 1")
        if not 0.0 <= self.p <= 1.0:
            raise InputError("p must lie in [0, 1]")
        if self.solver not in ("bf", "dp", "both"):
            raise InputError("solver must be bf, dp, or both")
        if self.solver != "bf" and self.pipeline not in DP_PIPELINES:
            raise InputError(f"pipeline {self.pipeline} has no DP solver; use solver=bf")

    def check_guards(self) -> None:
        if self.unsafe or os.environ.get("TWLAB_GUARD_OVERRIDE") == "1":
            return
        guard = GUARDS[self.pipeline]
        if self.k > guard["k"] or self.n > guard["n"]:
            raise GuardError(
                f"pipeline {self.pipeline} is guarded to k <= {guard['k']}, "
                f"n <= {guard['n']} (got k={self.k}, n={self.n}); "
                "pass unsafe/--unsafe or set TWLAB_GUARD_OVERRIDE=1"
            )


# --- generators ---------------------------------------------------------------

def gen_partitioned(k: int, n: int, p: float, plant: bool, seed: int) -> PartitionedGraph:
    """k parts of n vertices; each cross pair kept with probability p; with
    plant, one random transversal is completed to a clique afterwards."""
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


def gen_weighted(n: int, edge_p: float, max_w: int, seed: int) -> tuple[Graph, EdgeWeighting]:
    rng = random.Random(seed)
    g = gen_graph(n, edge_p, mix(seed, 1))
    return g, EdgeWeighting(g, [rng.randint(1, max_w) for _ in g.edges])


def gen_rho(n: int, bound: int, seed: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    return tuple(rng.randint(0, bound) for _ in range(n))


def gen_list_instance(n: int, colors: int, edge_p: float, seed: int) -> pr.ListColoringInstance:
    rng = random.Random(seed)
    g = gen_graph(n, edge_p, mix(seed, 1))
    lists = [
        frozenset(c for c in range(1, colors + 1) if rng.random() < 0.55)
        for _ in range(n)
    ]
    return pr.ListColoringInstance(g, lists)


# --- per-pipeline wiring --------------------------------------------------------

def _target_ntd(graph: Graph):
    return tw.to_nice(tw.heuristic_decomposition(graph, "min-fill"), graph)


def _case_record(cfg: ExperimentConfig, case: int) -> dict:
    case_seed = mix(cfg.seed, case)
    record: dict = {"case": case, "case_seed": case_seed}
    checks: dict = {}
    pipeline = cfg.pipeline

    t0 = time.perf_counter()
    if pipeline in ("pc-lc", "pc-chosen", "pc-minmax"):
        source = gen_partitioned(cfg.k, cfg.n, cfg.p, cfg.plant, case_seed)
        source_witness = pr.bf_partitioned_clique(source)
        source_json = partitioned_to_json(source)
    elif pipeline == "lc-pce":
        source = gen_list_instance(cfg.n, cfg.k, cfg.p, case_seed)
        source_witness = pr.bf_list_coloring(source)
        source_json = pr.instance_to_json(source)
    elif pipeline == "clique-gensat":
        source = gen_graph(cfg.n, cfg.p, case_seed)
        source_witness = pr.bf_clique(source, cfg.k)
        source_json = dict(graph_to_json(source), k=cfg.k)
    else:  # chosen-minmax
        g, w = gen_weighted(cfg.n, cfg.p, cfg.max_weight, case_seed)
        rho = gen_rho(cfg.n, cfg.rho_max, mix(case_seed, 2))
        source = pr.ChosenOutdegreeInstance(g, w, rho)
        source_witness = pr.bf_chosen_outdegree(source)
        source_json = pr.instance_to_json(source)
    t1 = time.perf_counter()

    if pipeline == "pc-lc":
        out = rd.pc_to_list_coloring(source)
    elif pipeline == "lc-pce":
        out = rd.lc_to_precoloring(source)
    elif pipeline == "clique-gensat":
        out = rd.clique_to_gensat(source, cfg.k)
    elif pipeline == "pc-chosen":
        out = rd.pc_to_chosen_outdegree(source)
    elif pipeline == "chosen-minmax":
        out = rd.chosen_to_minmax(source)
    else:  # pc-minmax
        stage1 = rd.pc_to_chosen_outdegree(source)
        out = rd.chosen_to_minmax(stage1.instance)
        checks["stage1_bound_ok"] = tw.width(stage1.witness) <= stage1.claimed_width_bound
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

    if pipeline == "pc-chosen" and out.meta.get("gadget"):
        for name, lam in solvers_run.items():
            if lam is not None:
                clique = rd.extract_clique(out, lam)
                checks[f"clique_ok_{name}"] = pr.is_clique(source.graph, clique)
        if source_yes:
            lam_c = rd.orientation_from_clique(out, source_witness)
            checks["constructive_ok"] = pr.check_admissible(out.instance, lam_c)

    # bound_ok folds in every certificate validation for the case: witness
    # decomposition validity, the claimed width bound, and yes-answer checks
    wcheck = tw.validate(out.witness, _witness_graph(out))
    witness_width = tw.width(out.witness)
    bound_ok = wcheck.ok and witness_width <= out.claimed_width_bound
    record.update(
        source_answer="yes" if source_yes else "no",
        target_answer="yes" if target_witness is not None else "no",
        agree=agree,
        witness_width=witness_width,
        claimed_bound=out.claimed_width_bound,
        bound_ok=bound_ok and all(checks.values()),
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
            "source": source_json,
            "target": pr.instance_to_json(out.instance),
        }
    return record


def _witness_graph(out: rd.ReductionOutput) -> Graph:
    if isinstance(out.instance, pr.GensatInstance):
        return out.meta["dual_graph"]
    return out.instance.graph


def solve_bf(instance):
    """Dispatch an instance of any of the seven problem kinds to its
    brute-force oracle."""
    if isinstance(instance, pr.ListColoringInstance):
        return pr.bf_list_coloring(instance)
    if isinstance(instance, pr.PrecoloringExtensionInstance):
        return pr.bf_precoloring(instance)
    if isinstance(instance, pr.EquitableColoringInstance):
        return pr.bf_equitable(instance)
    if isinstance(instance, pr.GeneralFactorInstance):
        return pr.bf_general_factor(instance)
    if isinstance(instance, pr.GensatInstance):
        return pr.bf_gensat(instance)
    if isinstance(instance, pr.ChosenOutdegreeInstance):
        return pr.bf_chosen_outdegree(instance)
    if isinstance(instance, pr.MinMaxOutdegreeInstance):
        return pr.bf_min_max_outdegree(instance)
    raise InputError(f"no brute-force solver for {type(instance).__name__}")


def require_dp_kind(instance) -> None:
    """InputError unless a decomposition-driven solver exists for the
    instance's kind; callers check this before building a decomposition."""
    dp_kinds = (pr.ListColoringInstance, pr.ChosenOutdegreeInstance, pr.MinMaxOutdegreeInstance)
    if not isinstance(instance, dp_kinds):
        raise InputError(f"no DP solver for {type(instance).__name__}")


def solve_dp(instance, ntd=None):
    """Dispatch to a decomposition-driven solver (list coloring or the two
    orientation problems), building a heuristic decomposition if none is
    given."""
    require_dp_kind(instance)
    if ntd is None:
        ntd = _target_ntd(instance.graph)
    if isinstance(instance, pr.ListColoringInstance):
        return sv.dp_list_coloring(instance, ntd)
    if isinstance(instance, pr.ChosenOutdegreeInstance):
        return sv.dp_chosen_outdegree(instance, ntd)
    return sv.min_max_outdegree(instance, ntd)


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
        summary = {
            "total": len(records),
            "agreements": len(records) - disagreements,
            "disagreements": disagreements,
            "max_width_seen": max((r["witness_width"] for r in records), default=-1),
            "pass": disagreements == 0 and all(r["bound_ok"] for r in records),
        }
        return VerificationReport(asdict(cfg), records, summary)


def verify_reduction(cfg: ExperimentConfig) -> VerificationReport:
    """Generate cases, solve source and target, validate witnesses, and
    collect agreement records (in case order even when run in parallel).

    At most min(jobs, cases, CPU count) worker processes are started.
    """
    cfg.check_guards()
    workers = min(cfg.jobs, cfg.cases, os.cpu_count() or 1)
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
        writer.writerow(
            [
                r["case"],
                r["case_seed"],
                r["source_answer"],
                r["target_answer"],
                r["agree"],
                r["witness_width"],
                r["claimed_bound"],
                r["bound_ok"],
                f"{r['timings_ms']['source']:.3f}",
                f"{r['timings_ms']['reduce']:.3f}",
                f"{r['timings_ms']['target']:.3f}",
                r.get("dp_answer", ""),
            ]
        )
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
