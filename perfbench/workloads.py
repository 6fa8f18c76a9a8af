"""The benchmark's workloads: which settings each one cycles through, how
one operation runs through twlab's public API, and how its output is checked.

Every setting owns a pool of inputs numbered 0..pool-1, and the committed
verdict reference (reference.json) holds one row per pool entry.  The
workload seed only chooses which pool entries a run visits and in what
order, so every operation a run can make has a reference row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from twlab import harness as hn
from twlab import problems as pr
from twlab import solvers as sv
from twlab import treewidth as tw
from twlab.graphs import Graph


@dataclass(frozen=True)
class Setting:
    """One parameter point of a workload; `weight` operations of it run per
    round, so the op mix of a run does not depend on the seed."""

    label: str
    group: str  # yes/no balance is printed per group (pipeline or op kind)
    params: dict
    weight: int = 1


@dataclass
class Outcome:
    """What one operation produced, as far as the benchmark checks it."""

    row: str  # compared with the reference row
    answer: str | None  # "yes"/"no" for the balance counts, None when none
    width: int  # decomposition width summed into td_width_sum
    problem: str | None  # set when a check outside the reference failed


# --- verify workloads -------------------------------------------------------

def verify_row(record: dict) -> str:
    """Reference row of one case: the letters of source_answer,
    target_answer and dp_answer ("-" when no DP ran), agree and bound_ok as
    1/0, then witness_width and claimed_bound, as in "yy-11 5 5"."""
    letters = "".join(record.get(f, "-")[0] for f in ("source_answer", "target_answer", "dp_answer"))
    flags = "".join("1" if record[f] else "0" for f in ("agree", "bound_ok"))
    return f"{letters}{flags} {record['witness_width']} {record['claimed_bound']}"


class VerifyWorkload:
    """One operation is one verified case: verify_reduction with cases=1 at
    the pool entry's seed."""

    def __init__(self, solver: str, settings: list[Setting], pool: int, pass_ops: int):
        self.solver = solver
        self.settings = settings
        self.pool = pool
        self.pass_ops = pass_ops

    def prepare(self, setting: Setting, j: int):
        return hn.ExperimentConfig(cases=1, seed=j, solver=self.solver, **setting.params)

    def run(self, cfg):
        return hn.verify_reduction(cfg)

    def outcome(self, setting: Setting, cfg, report) -> Outcome:
        record = report.records[0]
        return Outcome(
            row=verify_row(record),
            answer=record["source_answer"],
            width=record["witness_width"],
            problem=None if report.summary["pass"] else "verify summary did not pass",
        )


def _verify(pipeline: str, **params) -> Setting:
    label = pipeline + "".join(f" {k}={v}" for k, v in params.items())
    return Setting(label, pipeline, dict(pipeline=pipeline, **params))


# --- graph-scale ---------------------------------------------------------------

def grid_graph(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def band_graph(n: int, band: int, p: float, rng: random.Random) -> Graph:
    """Sparse random graph of bandwidth `band` (so treewidth <= band) under a
    random relabelling: a Hamiltonian path plus each other pair at most
    `band` apart kept with probability p."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    for i in range(n):
        for j in range(i + 1, min(n, i + band + 1)):
            if j == i + 1 or rng.random() < p:
                u, v = perm[i], perm[j]
                edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def gnp_graph(n: int, p: float, rng: random.Random) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def color_lists(n: int, rng: random.Random) -> list[frozenset[int]]:
    """Random 2- or 3-colour lists over the colours 1..4 (on these graphs
    that gives both yes- and no-instances)."""
    return [frozenset(rng.sample((1, 2, 3, 4), rng.choice((2, 3)))) for _ in range(n)]


@dataclass(frozen=True)
class GraphInput:
    kind: str  # "tw" (min-fill, to_nice, DP list colouring), "flow" or "exact"
    graph: Graph
    lists: tuple = ()


class GraphWorkload:
    """One operation is one standalone graph taken through the tw/solve path:
    `tw` runs min-fill, to_nice and the list-colouring DP (as `twlab tw` then
    `twlab solve --solver dp --td`), `flow` runs flow_min_max_uniform with
    unit weights, and `exact` runs exact_treewidth."""

    def __init__(self, settings: list[Setting], pool: int, pass_ops: int):
        self.settings = settings
        self.pool = pool
        self.pass_ops = pass_ops

    def prepare(self, setting: Setting, j: int) -> GraphInput:
        rng = random.Random(f"{setting.label}/{j}")
        kind, shape = setting.group, setting.params
        if "rows" in shape:
            g = grid_graph(shape["rows"], shape["cols"])
        elif kind == "exact":
            g = gnp_graph(shape["n"], shape["p"], rng)
        else:
            g = band_graph(shape["n"], shape["band"], shape["p"], rng)
        lists = tuple(color_lists(g.n, rng)) if kind == "tw" else ()
        return GraphInput(kind, g, lists)

    def run(self, inp: GraphInput):
        g = inp.graph
        if inp.kind == "tw":
            td = tw.heuristic_decomposition(g, "min-fill")
            inst = pr.ListColoringInstance(g, inp.lists)
            return td, inst, hn.solve_dp(inst, tw.to_nice(td, g))
        if inp.kind == "flow":
            return sv.flow_min_max_uniform(g, 1)
        return tw.exact_treewidth(g)

    def outcome(self, setting: Setting, inp: GraphInput, result) -> Outcome:
        g = inp.graph
        if inp.kind == "tw":
            td, inst, colors = result
            problem = None
            if not tw.validate(td, g).ok:
                problem = "min-fill decomposition does not validate"
            elif colors is not None and not pr.check_list_coloring(inst, colors):
                problem = "DP colouring fails check_list_coloring"
            answer = "yes" if colors is not None else "no"
            return Outcome(answer, answer, tw.width(td), problem)
        if inp.kind == "flow":
            return Outcome(str(result), None, 0, None)
        value, td = result
        problem = None
        if not tw.validate(td, g).ok or tw.width(td) != value:
            problem = "exact decomposition does not validate at the reported width"
        return Outcome(str(value), None, 0, problem)


def _graph(kind: str, weight: int = 1, **params) -> Setting:
    label = kind + "".join(f" {k}={v}" for k, v in params.items())
    return Setting(label, kind, params, weight)


# Pools are sized so that a 30 s run visits most of each verify pool, and
# pass_ops (whole rounds) is the op count of a traced run and the least of a
# timed one.  The graph-scale weights keep each layer under about half of the
# time (exact_treewidth takes about a third), and put as many ops above the
# 150-170 ms cluster (n=300, exact n=14) as below it, so that the median lands
# inside that cluster instead of in a gap between op sizes.
WORKLOADS = {
    "verify-bf": VerifyWorkload(
        "bf",
        [
            _verify("pc-lc", k=4, n=3, p=0.5),
            _verify("lc-pce", k=6, n=10, p=0.5),
            _verify("clique-gensat", k=4, n=8, p=0.6),
            _verify("chosen-minmax", n=8, p=0.5, rho_max=8),
            _verify("pc-chosen", k=3, n=3),
            _verify("pc-minmax", k=2, n=2, p=0.3),
        ],
        pool=1500,
        pass_ops=2400,
    ),
    "verify-dp": VerifyWorkload(
        "dp",
        [
            _verify("pc-chosen", k=2, n=3, p=0.5),
            _verify("pc-chosen", k=3, n=2, p=0.5),
            _verify("pc-minmax", k=2, n=2, p=0.25),
            _verify("chosen-minmax", n=8, p=0.4, rho_max=10),
            _verify("pc-lc", k=4, n=3, p=0.5),
        ],
        pool=600,
        pass_ops=1000,
    ),
    "graph-scale": GraphWorkload(
        [
            _graph("tw", 1, rows=3, cols=40),
            _graph("tw", 1, rows=4, cols=40),
            _graph("tw", 1, rows=5, cols=30),
            _graph("tw", 2, rows=6, cols=30),
            _graph("tw", 2, n=100, band=5, p=0.15),
            _graph("tw", 3, n=300, band=5, p=0.15),
            _graph("tw", 2, n=600, band=5, p=0.15),
            _graph("flow", 2, n=100, band=5, p=0.15),
            _graph("flow", 3, n=300, band=5, p=0.15),
            _graph("flow", 1, n=600, band=5, p=0.15),
            _graph("exact", 1, n=13, p=0.4),
            _graph("exact", 1, n=14, p=0.4),
            _graph("exact", 1, n=15, p=0.4),
            _graph("exact", 1, n=16, p=0.4),
        ],
        pool=40,
        pass_ops=110,
    ),
}


def op_stream(workload, seed: int, inputs: dict):
    """Endless (setting, pool index, input) stream for one seed: settings in
    a fixed round where each appears `weight` times, and within each setting
    a seeded permutation of its pool, repeated once exhausted."""
    order = [s for s in workload.settings for _ in range(s.weight)]
    perms = {
        s.label: random.Random(f"{seed}/{s.label}").sample(range(workload.pool), workload.pool)
        for s in workload.settings
    }
    taken = dict.fromkeys(perms, 0)
    while True:
        for s in order:
            j = perms[s.label][taken[s.label] % workload.pool]
            taken[s.label] += 1
            yield s, j, inputs[s.label][j]


def prepare_inputs(workload) -> dict:
    """Every pool entry's input, built before timing starts."""
    return {
        s.label: [workload.prepare(s, j) for j in range(workload.pool)]
        for s in workload.settings
    }
