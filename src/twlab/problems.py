"""Problem instance types with exact brute-force oracles.

Every oracle returns a witness (or None for "no").  The oracles do not check
their own witnesses: each kind's checker, a direct transcription of the
defining condition, is called once on every yes-witness where it is used
(harness._case_record for `twlab verify`, the CLI for `twlab solve`).
Witnesses are deterministic: the lexicographically first one under the
documented search order.  A uniform-cap (minmax) instance is a capped
(chosen) instance whose every cap is r, so the capped oracle, DP and checker
serve both kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from twlab import kernels
from twlab.errors import InputError, decoding, require_at_most
from twlab.graphs import (
    EdgeWeighting,
    Graph,
    Orientation,
    PartitionedGraph,
    all_outdegrees,
    graph_from_json,
    graph_to_json,
    is_clique,
    orientation_to_json,
    weighting_from_json,
    weighting_to_json,
)

# Input ceilings.  Each is checked before anything of its size is allocated,
# raises InputError (exit 2 in the CLI) and is not lifted by --unsafe; each
# lies far above every size the tests, CI and the benchmark use.
DEFAULT_WEIGHT_CEILING = 10**6  # total edge weight of a minmax_outdegree instance
R_CEILING = 10**6  # r of precoloring, equitable and minmax_outdegree (equitable allocates r)
VARIABLE_CEILING = 10**5  # gensat variables (the search allocates per variable)
ARITY_CEILING = 10**3  # gensat relation arity
PAIR_CEILING = 10**7  # vertex pairs a generator draws an edge for
# graphs.VERTEX_CEILING bounds the vertex count of every JSON graph and tree
# and of every generated graph


def _require_ints(what: str, xs) -> None:
    """InputError unless every member of xs is an int: a JSON number such as
    1.5 would pass the range checks and fail later, deep in a solver."""
    for x in xs:
        if not isinstance(x, int):
            raise InputError(f"{what} must be an integer, got {x!r}")


# --- instance types ----------------------------------------------------------

@dataclass(frozen=True)
class ListColoringInstance:
    graph: Graph
    lists: tuple[frozenset[int], ...]  # allowed colors per vertex; may be empty

    def __init__(self, graph: Graph, lists):
        lists = tuple(frozenset(l) for l in lists)
        if len(lists) != graph.n:
            raise InputError(f"{len(lists)} lists for {graph.n} vertices")
        for v, l in enumerate(lists):
            if any(not isinstance(c, int) or c < 1 for c in l):
                raise InputError(f"colors must be positive integers (vertex {v})")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "lists", lists)


@dataclass(frozen=True)
class PrecoloringExtensionInstance:
    graph: Graph
    precolor: tuple[tuple[int, int], ...]  # (vertex, color) pairs, sorted
    r: int

    def __init__(self, graph: Graph, precolor, r: int):
        _require_ints("r", [r])
        if r < 1:
            raise InputError(f"r must be positive, got {r}")
        require_at_most("r", r, R_CEILING)
        cmap: dict[int, int] = {}
        for v, c in precolor.items() if isinstance(precolor, dict) else precolor:
            if v in cmap:
                raise InputError(f"vertex {v} is precolored more than once")
            _require_ints("precolor entry", (v, c))
            graph._check_vertex(v)
            if not 1 <= c <= r:
                raise InputError(f"precolor {c} of vertex {v} outside 1..{r}")
            cmap[v] = c
        for u, v in graph.edges:
            if u in cmap and v in cmap and cmap[u] == cmap[v]:
                raise InputError(f"precoloring is not proper on edge ({u},{v})")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "precolor", tuple(sorted(cmap.items())))
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class EquitableColoringInstance:
    graph: Graph
    r: int

    def __post_init__(self):
        _require_ints("r", [self.r])
        if self.r < 1:
            raise InputError(f"r must be positive, got {self.r}")
        require_at_most("r", self.r, R_CEILING)


@dataclass(frozen=True)
class GeneralFactorInstance:
    graph: Graph
    cardinality_sets: tuple[frozenset[int], ...]  # allowed incident counts per vertex

    def __init__(self, graph: Graph, cardinality_sets):
        sets = tuple(frozenset(s) for s in cardinality_sets)
        if len(sets) != graph.n:
            raise InputError(f"{len(sets)} cardinality sets for {graph.n} vertices")
        for v, s in enumerate(sets):
            _require_ints("cardinality", s)
            if any(k < 0 or k > graph.degree(v) for k in s):
                raise InputError(
                    f"cardinality set of vertex {v} must lie within 0..deg={graph.degree(v)}"
                )
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "cardinality_sets", sets)


@dataclass(frozen=True)
class BooleanRelation:
    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __init__(self, arity: int, tuples):
        _require_ints("arity", [arity])
        if arity < 1:
            raise InputError(f"arity must be positive, got {arity}")
        require_at_most("arity", arity, ARITY_CEILING)
        tuples = frozenset(tuple(t) for t in tuples)
        for t in tuples:
            _require_ints("relation tuple entry", t)
            if len(t) != arity or any(b not in (0, 1) for b in t):
                raise InputError(f"tuple {t} is not a 0/1 sequence of length {arity}")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "tuples", tuples)


@dataclass(frozen=True)
class Constraint:
    scope: tuple[int, ...]
    relation: BooleanRelation

    def __init__(self, scope, relation: BooleanRelation):
        scope = tuple(scope)
        _require_ints("scope variable", scope)
        if len(scope) != relation.arity:
            raise InputError(f"scope length {len(scope)} != arity {relation.arity}")
        if len(set(scope)) != len(scope):
            raise InputError(f"scope variables must be distinct: {scope}")
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "relation", relation)


@dataclass(frozen=True)
class GensatInstance:
    """Conjunction of explicit Boolean relations over variables 0..m-1."""

    num_variables: int
    constraints: tuple[Constraint, ...]

    def __init__(self, num_variables: int, constraints):
        _require_ints("variable count", [num_variables])
        if num_variables < 0:
            raise InputError("variable count must be non-negative")
        require_at_most("variable count", num_variables, VARIABLE_CEILING)
        constraints = tuple(constraints)
        for c in constraints:
            for x in c.scope:
                if not 0 <= x < num_variables:
                    raise InputError(f"scope variable {x} outside 0..{num_variables - 1}")
        object.__setattr__(self, "num_variables", num_variables)
        object.__setattr__(self, "constraints", constraints)


@dataclass(frozen=True)
class ChosenOutdegreeInstance:
    graph: Graph
    weights: EdgeWeighting
    rho: tuple[int, ...]  # per-vertex outgoing-weight cap

    def __init__(self, graph: Graph, weights: EdgeWeighting, rho):
        rho = tuple(rho)
        if weights.graph != graph:
            raise InputError("weighting belongs to a different graph")
        if len(rho) != graph.n:
            raise InputError(f"{len(rho)} caps for {graph.n} vertices")
        _require_ints("cap", rho)
        if any(r < 0 for r in rho):
            raise InputError("caps must be non-negative")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class MinMaxOutdegreeInstance(ChosenOutdegreeInstance):
    """The uniform-cap case: a capped instance whose every cap is r, so the
    capped oracle, DP and checker take it as it is.  Weights are integers
    standing in for a unary encoding, so the total weight is capped at
    DEFAULT_WEIGHT_CEILING."""

    r: int

    def __init__(self, graph: Graph, weights: EdgeWeighting, r: int):
        _require_ints("r", [r])
        if r < 1:
            raise InputError(f"r must be positive, got {r}")
        require_at_most("r", r, R_CEILING)
        super().__init__(graph, weights, (r,) * graph.n)
        if weights.total_weight > DEFAULT_WEIGHT_CEILING:
            raise InputError(
                f"total weight {weights.total_weight} exceeds the ceiling "
                f"{DEFAULT_WEIGHT_CEILING} (weights are treated as unary)"
            )
        object.__setattr__(self, "r", r)


# --- witness checkers (direct transcriptions of the defining conditions) -----

def is_proper_coloring(g: Graph, colors: dict[int, int]) -> bool:
    return all(v in colors for v in g.vertices()) and all(
        colors[u] != colors[v] for u, v in g.edges
    )


def check_list_coloring(inst: ListColoringInstance, colors: dict[int, int]) -> bool:
    return is_proper_coloring(inst.graph, colors) and all(
        colors[v] in inst.lists[v] for v in inst.graph.vertices()
    )


def check_precoloring(inst: PrecoloringExtensionInstance, colors: dict[int, int]) -> bool:
    return (
        is_proper_coloring(inst.graph, colors)
        and all(1 <= colors[v] <= inst.r for v in inst.graph.vertices())
        and all(colors[v] == c for v, c in inst.precolor)
    )


def check_equitable(inst: EquitableColoringInstance, colors: dict[int, int]) -> bool:
    if not is_proper_coloring(inst.graph, colors):
        return False
    if any(not 1 <= colors[v] <= inst.r for v in inst.graph.vertices()):
        return False
    sizes = [0] * inst.r  # unused colors count as empty classes
    for v in inst.graph.vertices():
        sizes[colors[v] - 1] += 1
    return max(sizes) - min(sizes) <= 1


def check_general_factor(inst: GeneralFactorInstance, chosen: frozenset) -> bool:
    if not chosen <= inst.graph.edge_set:
        return False
    deg = [0] * inst.graph.n
    for u, v in chosen:
        deg[u] += 1
        deg[v] += 1
    return all(deg[v] in inst.cardinality_sets[v] for v in inst.graph.vertices())


def check_gensat(inst: GensatInstance, tau) -> bool:
    tau = tuple(tau)
    if len(tau) != inst.num_variables or any(b not in (0, 1) for b in tau):
        return False
    return all(
        tuple(tau[x] for x in c.scope) in c.relation.tuples for c in inst.constraints
    )


def check_admissible(inst: ChosenOutdegreeInstance, lam: Orientation) -> bool:
    out = all_outdegrees(inst.graph, inst.weights, lam)
    return all(out[v] <= inst.rho[v] for v in inst.graph.vertices())


# --- brute-force oracles ------------------------------------------------------

def _list_color(g: Graph, order, palettes) -> dict[int, int] | None:
    """Run kernels.list_color_search with the vertices of g in `order`,
    palettes[i] belonging to order[i]; the coloring found, keyed by vertex
    in search order, or None."""
    if any(not p for p in palettes):
        return None
    rank = {v: i for i, v in enumerate(order)}
    got = kernels.list_color_search([[rank[u] for u in g.neighbors(v)] for v in order], palettes)
    return None if got is None else dict(zip(order, got))


def bf_list_coloring(inst: ListColoringInstance) -> dict[int, int] | None:
    """Backtracking over vertices in decreasing degree, ties to the smaller
    index; colors tried in ascending order.  The witness is the first
    coloring in that order.  Hubs are colored first, so the kernel's forward
    check fails a branch as soon as some neighbor of a hub has no color
    left, before the search descends to that neighbor."""
    g = inst.graph
    order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    return _list_color(g, order, [sorted(inst.lists[v]) for v in order])


def bf_precoloring(inst: PrecoloringExtensionInstance) -> dict[int, int] | None:
    """List coloring with the precolored vertices first, each with its one
    color, then the uncolored vertices in index order, each with the colors
    1..r ascending.  The witness is the first extension in that order."""
    pre = dict(inst.precolor)
    free = [v for v in inst.graph.vertices() if v not in pre]
    palettes = [[c] for c in pre.values()] + [range(1, inst.r + 1)] * len(free)
    return _list_color(inst.graph, [*pre, *free], palettes)


def bf_equitable(inst: EquitableColoringInstance) -> dict[int, int] | None:
    """Backtracking over vertices in index order; class sizes are pruned
    against the ceiling floor(n/r)+1 and checked exactly at the end."""
    g, r = inst.graph, inst.r
    cap = -(-g.n // r) if g.n else 1  # ceil(n / r); every class size is floor or ceil
    colors: dict[int, int] = {}
    sizes = [0] * r

    def branches(v: int):
        for c in range(1, r + 1):
            if sizes[c - 1] >= cap:
                continue
            if any(colors.get(u) == c for u in g.neighbors(v)):
                continue
            colors[v] = c
            sizes[c - 1] += 1
            yield
            sizes[c - 1] -= 1
            del colors[v]

    if not kernels.backtrack(g.n, branches, lambda: max(sizes) - min(sizes) <= 1):
        return None
    return colors


def bf_general_factor(inst: GeneralFactorInstance) -> frozenset | None:
    """Include/exclude search over edges in canonical order (exclude first),
    pruning on per-vertex degree bounds."""
    g = inst.graph
    sets = inst.cardinality_sets
    if not all(sets):
        return None  # an empty cardinality set is unsatisfiable
    incident_left = [g.degree(v) for v in g.vertices()]
    deg = [0] * g.n
    lo = [min(s) for s in sets]
    hi = [max(s) for s in sets]
    chosen: list[tuple[int, int]] = []

    def feasible(v: int) -> bool:
        return deg[v] <= hi[v] and deg[v] + incident_left[v] >= lo[v]

    def branches(i: int):
        u, v = g.edges[i]
        incident_left[u] -= 1
        incident_left[v] -= 1
        if feasible(u) and feasible(v):
            yield
        deg[u] += 1
        deg[v] += 1
        chosen.append((u, v))
        if feasible(u) and feasible(v):
            yield
        chosen.pop()
        deg[u] -= 1
        deg[v] -= 1
        incident_left[u] += 1
        incident_left[v] += 1

    def exact() -> bool:
        return all(deg[v] in sets[v] for v in g.vertices())

    if not kernels.backtrack(len(g.edges), branches, exact):
        return None
    return frozenset(chosen)


def bf_gensat(inst: GensatInstance) -> tuple[int, ...] | None:
    """Assignment search in variable-index order (0 before 1), pruning any
    prefix some constraint can no longer match.  Each distinct relation is
    packed into bitmasks once, and the constraints that share it share that
    one list, so the kernel builds its per-position tuple bitsets once per
    relation too."""
    packed: dict[BooleanRelation, list[int]] = {}
    for c in inst.constraints:
        if c.relation not in packed:
            packed[c.relation] = [sum(b << p for p, b in enumerate(t)) for t in sorted(c.relation.tuples)]
    got = kernels.gensat_search(
        inst.num_variables,
        [c.scope for c in inst.constraints],
        [packed[c.relation] for c in inst.constraints],
    )
    if got is None:
        return None
    return tuple(got)


def bf_chosen_outdegree(inst: ChosenOutdegreeInstance) -> Orientation | None:
    """Orientation search with capacity propagation (see kernels).

    Edges are searched heaviest first (ties by canonical index) so the most
    constrained decisions come early; the witness is the lexicographically
    first admissible direction vector under that documented order, with the
    smaller endpoint tried as tail first.
    """
    g = inst.graph
    w = inst.weights.weights
    order = sorted(range(len(g.edges)), key=lambda i: (-w[i], i))
    edges = [g.edges[i] for i in order]
    got = kernels.orient_search(g.n, edges, [w[i] for i in order], inst.rho)
    if got is None:
        return None
    return Orientation(g, {e: e[::-1] if d else e for e, d in zip(edges, got)})


def bf_min_max_outdegree(inst: MinMaxOutdegreeInstance) -> Orientation | None:
    """The capped search: every cap of inst is r."""
    return bf_chosen_outdegree(inst)


def bf_min_max_value(g: Graph, w: EdgeWeighting) -> int:
    """Least r admitting an orientation with all outgoing weights <= r
    (binary search over [0, total weight])."""
    if not g.edges:
        return 0
    lo, hi = 0, w.total_weight

    def ok(r: int) -> bool:
        inst = ChosenOutdegreeInstance(g, w, (r,) * g.n)
        return bf_chosen_outdegree(inst) is not None

    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def bf_partitioned_clique(pg: PartitionedGraph) -> tuple[int, ...] | None:
    """First transversal (one vertex per part, parts in order, members by
    rank) that induces a clique."""
    g = pg.graph
    picked: list[int] = []

    def branches(i: int):
        for v in pg.parts[i]:
            if all(g.has_edge(u, v) for u in picked):
                picked.append(v)
                yield
                picked.pop()

    if not kernels.backtrack(pg.k, branches):
        return None
    return tuple(picked)


def bf_clique(g: Graph, k: int) -> tuple[int, ...] | None:
    """First k-subset (lexicographic) of vertices inducing a clique: picks
    vertices in increasing order, each adjacent to every earlier pick and
    leaving enough vertices for the rest."""
    if k < 0:
        raise InputError("k must be non-negative")
    picked: list[int] = []

    def branches(i: int):
        for v in range(picked[-1] + 1 if picked else 0, g.n - k + i + 1):
            if all(g.has_edge(u, v) for u in picked):
                picked.append(v)
                yield
                picked.pop()

    if not kernels.backtrack(k, branches):
        return None
    return tuple(picked)


# --- constraint graphs --------------------------------------------------------

def build_dual(inst: GensatInstance) -> Graph:
    """Constraints (by position), adjacent when they share a variable."""
    scopes = [set(c.scope) for c in inst.constraints]
    edges = [
        (i, j)
        for i in range(len(scopes))
        for j in range(i + 1, len(scopes))
        if scopes[i] & scopes[j]
    ]
    return Graph(len(scopes), edges)


def build_incidence(inst: GensatInstance) -> Graph:
    """Bipartite: variables 0..m-1, then constraints m..m+|S|-1; a pair is
    adjacent when the variable occurs in the constraint."""
    m = inst.num_variables
    edges = [(x, m + j) for j, c in enumerate(inst.constraints) for x in c.scope]
    return Graph(m + len(inst.constraints), edges)


# --- problem kinds and the JSON wire format -------------------------------------
#
# Instances are discriminated by "type"; graph fields are embedded flat (n,
# edges, weights).

@dataclass(frozen=True)
class ProblemKind:
    """One instance class: its JSON tag and field codec, its brute-force
    oracle and witness checker, the noun and JSON `twlab solve` gives its
    witnesses, and its DP solver, if any.

    The oracle (a function of this module) and the DP solver (a function of
    twlab.solvers) are kept as names and looked up when called, so that
    rebinding the module attribute, as tracing and tests do, takes effect.
    """

    tag: str
    cls: type
    encode: Callable[[object], dict]  # instance -> fields other than "type"
    decode: Callable[[dict], object]  # JSON object -> instance
    oracle: str
    check: Callable[[object, object], bool]
    witness: Callable[[object], tuple[str, object]]  # witness -> (noun, JSON)
    dp: str | None = None


def _gensat_fields(inst: GensatInstance) -> dict:
    relations: dict[BooleanRelation, int] = {}  # in order of first use
    constraints = [
        {"scope": list(c.scope), "relation": relations.setdefault(c.relation, len(relations))}
        for c in inst.constraints
    ]
    return {
        "variables": inst.num_variables,
        "relations": [
            {"arity": r.arity, "tuples": [list(t) for t in sorted(r.tuples)]}
            for r in relations
        ],
        "constraints": constraints,
    }


def _gensat_from_fields(obj: dict) -> GensatInstance:
    relations = [
        BooleanRelation(r["arity"], [tuple(t) for t in r["tuples"]])
        for r in obj["relations"]
    ]
    constraints = []
    for c in obj["constraints"]:
        if not 0 <= c["relation"] < len(relations):
            raise InputError(f"relation index {c['relation']} outside 0..{len(relations) - 1}")
        constraints.append(Constraint(c["scope"], relations[c["relation"]]))
    return GensatInstance(obj["variables"], constraints)


def _weighted(cls, obj: dict, *fields):
    w = weighting_from_json(obj)
    return cls(w.graph, w, *fields)


def _coloring_witness(colors):
    noun = f"proper coloring of {len(colors)} vertices"
    return noun, {"coloring": [colors[v] for v in sorted(colors)]}


def _orientation_witness(lam):
    return "admissible orientation", orientation_to_json(lam)


KINDS = (
    ProblemKind(
        "list_coloring", ListColoringInstance,
        lambda i: dict(graph_to_json(i.graph), lists=[sorted(l) for l in i.lists]),
        lambda o: ListColoringInstance(graph_from_json(o), o["lists"]),
        "bf_list_coloring", check_list_coloring, _coloring_witness, dp="dp_list_coloring",
    ),
    ProblemKind(
        "precoloring", PrecoloringExtensionInstance,
        lambda i: dict(graph_to_json(i.graph), precolor=[list(p) for p in i.precolor], r=i.r),
        lambda o: PrecoloringExtensionInstance(
            graph_from_json(o), [tuple(p) for p in o["precolor"]], o["r"]
        ),
        "bf_precoloring", check_precoloring, _coloring_witness,
    ),
    ProblemKind(
        "equitable", EquitableColoringInstance,
        lambda i: dict(graph_to_json(i.graph), r=i.r),
        lambda o: EquitableColoringInstance(graph_from_json(o), o["r"]),
        "bf_equitable", check_equitable, _coloring_witness,
    ),
    ProblemKind(
        "general_factor", GeneralFactorInstance,
        lambda i: dict(
            graph_to_json(i.graph), cardinality_sets=[sorted(s) for s in i.cardinality_sets]
        ),
        lambda o: GeneralFactorInstance(graph_from_json(o), o["cardinality_sets"]),
        "bf_general_factor", check_general_factor,
        lambda f: (f"edge subset of size {len(f)}", {"edges": sorted(list(e) for e in f)}),
    ),
    ProblemKind(
        "gensat", GensatInstance, _gensat_fields, _gensat_from_fields,
        "bf_gensat", check_gensat,
        lambda tau: ("satisfying assignment", {"assignment": list(tau)}),
    ),
    ProblemKind(
        "chosen_outdegree", ChosenOutdegreeInstance,
        lambda i: dict(weighting_to_json(i.weights), rho=list(i.rho)),
        lambda o: _weighted(ChosenOutdegreeInstance, o, o["rho"]),
        "bf_chosen_outdegree", check_admissible, _orientation_witness, dp="dp_chosen_outdegree",
    ),
    ProblemKind(
        "minmax_outdegree", MinMaxOutdegreeInstance,
        lambda i: dict(weighting_to_json(i.weights), r=i.r),
        lambda o: _weighted(MinMaxOutdegreeInstance, o, o["r"]),
        "bf_min_max_outdegree", check_admissible, _orientation_witness, dp="min_max_outdegree",
    ),
)
KIND_BY_TAG = {kind.tag: kind for kind in KINDS}
_KIND_BY_CLASS = {kind.cls: kind for kind in KINDS}


def kind_of(instance) -> ProblemKind:
    kind = _KIND_BY_CLASS.get(type(instance))
    if kind is None:
        raise InputError(f"unknown instance type {type(instance).__name__}")
    return kind


def instance_to_json(inst) -> dict:
    kind = kind_of(inst)
    return {"type": kind.tag, **kind.encode(inst)}


def instance_object(obj):
    """The "instance" of a reduction output file, or obj itself: the readers
    of instance and graph files take both, so one reduction's output is the
    next one's input."""
    if isinstance(obj, dict) and "instance" in obj and "type" not in obj:
        return obj["instance"]
    return obj


def graph_from_file(obj) -> Graph:
    """The graph of a graph file or of a graph problem's instance, bare or in
    a reduction output file; a gensat instance has none."""
    obj = instance_object(obj)
    if isinstance(obj, dict) and obj.get("type") == "gensat":
        raise InputError("a gensat instance has no graph of its own; this command takes "
                         "a graph or an instance of a graph problem")
    return graph_from_json(obj)


def instance_from_json(obj, check_kind: Callable[[ProblemKind], None] = lambda kind: None):
    """Decode an instance object, bare or in a reduction output file, by the
    row of KINDS its "type" tag names.  check_kind(kind) raises InputError
    for a kind the caller does not take before any other field is decoded,
    so a refused kind is never built, however large the sizes it states."""
    obj = instance_object(obj)
    with decoding("instance object", obj):
        kind = KIND_BY_TAG.get(obj["type"])
        if kind is None:
            raise InputError(f"unknown instance type {obj['type']!r}")
        check_kind(kind)
        return kind.decode(obj)
