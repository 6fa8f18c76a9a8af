import dataclasses
import itertools
import random
import signal
from bisect import bisect_right
from contextlib import contextmanager
from itertools import groupby
from operator import add, le
from typing import NamedTuple

import pytest

from twlab.errors import InputError
from twlab.graphs import (
    Graph,
    Orientation,
    PartitionedGraph,
    canon,
    is_clique,
)
from twlab.kernels import backtrack
from twlab.reductions import ReductionOutput, _gadget
from twlab.problems import (
    ChosenOutdegreeInstance,
    EquitableColoringInstance,
    GeneralFactorInstance,
    ListColoringInstance,
    PrecoloringExtensionInstance,
    check_admissible,
    check_equitable,
    check_general_factor,
    check_list_coloring,
    check_precoloring,
)
from twlab.solvers import _require_nice
from twlab.treewidth import (
    NiceTreeDecomposition,
    TreeDecomposition,
    _greedy_elimination,
    _walk,
    _write_nice,
    heuristic_decomposition,
    to_nice,
)


def complete(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def grid(rows: int, cols: int) -> Graph:
    return Graph(
        rows * cols,
        [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)],
    )


def elimination_test_graphs() -> list[Graph]:
    """The graphs the elimination-order oracle and the nice-form check run
    on: 200 seeded random graphs of varied size and density, grids,
    disconnected and edgeless graphs, and the graphs on 0 and 1 vertices."""
    rng = random.Random(41)
    graphs = [Graph(0), Graph(1), Graph(2), Graph(7)]
    for _ in range(200):
        n = rng.randint(2, 24)
        p = rng.choice((0.1, 0.2, 0.35, 0.5, 0.8))
        graphs.append(
            Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        )
    graphs += [grid(r, c) for r, c in ((1, 6), (2, 5), (3, 3), (4, 7), (5, 5))]
    # disconnected: a cycle, a K4 and a path side by side, plus isolated vertices
    cycle5 = [(i, (i + 1) % 5) for i in range(5)]
    k4 = [(5 + a, 5 + b) for a, b in itertools.combinations(range(4), 2)]
    graphs.append(Graph(15, cycle5 + k4 + [(9, 10), (10, 11)]))
    graphs.append(Graph(12, [(0, 1), (2, 3), (4, 5), (5, 6), (6, 4)]))
    return graphs


def subset_dp_treewidth(g: Graph) -> int:
    """Reference treewidth: the unpruned DP over all 2^n vertex subsets,
    TW(S) = min over v in S of max(TW(S - v), number of vertices outside S
    reachable from v through S - v)."""
    n = g.n
    masks = [sum(1 << u for u in g.neighbors(v)) for v in range(n)]
    dp = [-1] * (1 << n)
    for s in range(1, 1 << n):
        best = n
        for v in range(n):
            if s >> v & 1:
                prev = s ^ (1 << v)
                reach, frontier = masks[v], masks[v] & prev
                while frontier:
                    u = frontier.bit_length() - 1
                    frontier ^= 1 << u
                    new = masks[u] & ~reach
                    reach |= new
                    frontier |= new & prev
                back = (reach & ~prev & ~(1 << v)).bit_count()
                best = min(best, max(dp[prev], back))
        dp[s] = best
    return dp[-1]


def induced_subgraph(g: Graph, xs) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by the vertex set xs, reindexed to 0..|xs|-1.

    Returns the subgraph and the old->new index map (sorted order).
    """
    xs = g._check_vertex_set(xs)
    order = sorted(xs)
    index = {v: i for i, v in enumerate(order)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in xs and v in xs]
    return Graph(len(order), edges), index


def relabel(td: TreeDecomposition, mapping: dict[int, int]) -> TreeDecomposition:
    """Rename every bag vertex through mapping (which must cover them all)."""
    try:
        bags = [frozenset(mapping[v] for v in b) for b in td.bags]
    except KeyError as exc:
        raise InputError(f"mapping misses vertex {exc.args[0]}") from exc
    return TreeDecomposition(td.tree, bags)


def augment_with_set(td: TreeDecomposition, xs, g: Graph) -> TreeDecomposition:
    """Add the vertex set xs to every bag, turning a decomposition of
    g minus xs (same vertex labels) into one of g.  Width grows by at
    most |xs|.  The base decomposition is not validated here: callers
    certify the result against g, which fails whenever the base is not a
    decomposition of g minus xs."""
    xs = g._check_vertex_set(xs)
    return TreeDecomposition(td.tree, [bag | xs for bag in td.bags])


def decompose_forest(g: Graph) -> TreeDecomposition:
    """Width <= 1 decomposition of an acyclic graph: one bag per vertex,
    {v, parent(v)} under a rooting of each component, components chained."""
    if g.n == 0:
        return TreeDecomposition(Graph(1), [frozenset()])
    parent = _walk(g)[1]
    roots = [v for v in g.vertices() if parent[v] == -1]
    if len(g.edges) != g.n - len(roots):
        u, v = next((u, v) for u, v in g.edges if v != parent[u] and u != parent[v])
        raise InputError(f"graph has a cycle through edge ({u},{v})")
    tree_edges = [(v, p) for v, p in enumerate(parent) if p >= 0]
    tree_edges += zip(roots, roots[1:])
    bags = [frozenset({v, p} if p >= 0 else {v}) for v, p in enumerate(parent)]
    return TreeDecomposition(Graph(g.n, tree_edges), bags)


def forest_plus_set(g: Graph, xs) -> TreeDecomposition:
    """Reference witness for a graph that is a forest once xs is removed:
    the forest decomposition of g minus xs, relabelled to g's vertices, with
    xs added to every bag.  The reductions write their witnesses directly;
    this chain is the oracle they are checked against."""
    rest, index = induced_subgraph(g, set(g.vertices()) - set(xs))
    back = {i: v for v, i in index.items()}
    return augment_with_set(relabel(decompose_forest(rest), back), xs, g)


def decomposition_of_subset(g: Graph, xs) -> TreeDecomposition:
    """Min-fill decomposition of g's induced subgraph on V \\ xs, expressed
    in g's original vertex labels (the base that augment_with_set lifts)."""
    sub, index = induced_subgraph(g, set(g.vertices()) - set(xs))
    back = {i: v for v, i in index.items()}
    return relabel(heuristic_decomposition(sub, "min-fill"), back)


def search_is_tree(g: Graph) -> bool:
    if g.n == 0 or len(g.edges) != g.n - 1:
        return False
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def search_validate(td: TreeDecomposition, g: Graph) -> tuple[str, ...]:
    """Reference validate: the violations tuple, with the running
    intersection property checked by a fresh search over each vertex's
    tree nodes."""
    if not search_is_tree(td.tree):
        return ("host is not a tree (must be connected with |E| = |V| - 1)",)
    violations: list[str] = []
    where: dict[int, list[int]] = {}
    for t, bag in enumerate(td.bags):
        for v in bag:
            if v >= g.n:
                violations.append(f"bag {t} contains vertex {v} >= n={g.n}")
            where.setdefault(v, []).append(t)
    for v in g.vertices():
        if v not in where:
            violations.append(f"vertex {v} appears in no bag")
    occurs = {v: set(nodes) for v, nodes in where.items()}
    for u, v in g.edges:
        if u not in occurs or occurs[u].isdisjoint(occurs.get(v, ())):
            violations.append(f"edge ({u},{v}) is contained in no bag")
    for v, nodes in sorted(where.items()):
        if len(nodes) == 1:
            continue
        nodeset = occurs[v]
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            t = stack.pop()
            for s in td.tree.neighbors(t):
                if s in nodeset and s not in seen:
                    seen.add(s)
                    stack.append(s)
        if len(seen) != len(nodeset):
            stray = sorted(nodeset - seen)
            violations.append(
                f"vertex {v} occurs in disconnected tree nodes (e.g. bags {nodes[0]} and {stray[0]})"
            )
    return tuple(violations)


def union_find_links(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Reference chaining: edges linking the union-find representatives of
    the components of (n, edges), in ascending order."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    reps = sorted({find(v) for v in range(n)})
    return [(reps[i], reps[i + 1]) for i in range(len(reps) - 1)]


def greedy_order(g: Graph, method: str) -> list[int]:
    """The elimination order of the min-fill/min-degree heuristic alone."""
    return _greedy_elimination(g, method)[0]


def union_find_elimination_decomposition(g: Graph, order) -> TreeDecomposition:
    """Reference fill-in construction, its forest chained by union_find_links."""
    if g.n == 0:
        return TreeDecomposition(Graph(1), [frozenset()])
    position = {v: i for i, v in enumerate(order)}
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    bags: list[frozenset[int]] = [frozenset()] * g.n
    tree_edges: list[tuple[int, int]] = []
    for i, v in enumerate(order):
        rest = adj.pop(v)
        bags[i] = frozenset(rest | {v})
        if rest:
            tree_edges.append((i, position[min(rest, key=position.__getitem__)]))
        for a in rest:
            adj[a] |= rest - {a}
            adj[a].discard(v)
    tree_edges += union_find_links(g.n, tree_edges)
    return TreeDecomposition(Graph(g.n, tree_edges), bags)


def decompositions_with_inserted_and_hung_bags(rng: random.Random, count: int):
    """count graphs on 1..9 vertices, each with a valid decomposition that
    is not an elimination's: union_find_elimination_decomposition of a
    random order, then up to six bags inserted on a host edge (holding what
    both ends share, and more of their union) or hung as a leaf (a subset
    of a bag).  So host nodes have bags within a neighbour's, and vertices
    span more host nodes than the elimination gives them."""
    for _ in range(count):
        n = rng.randint(1, 9)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4])
        td = union_find_elimination_decomposition(g, rng.sample(range(g.n), g.n))
        bags, edges = [set(b) for b in td.bags], list(td.tree.edges)
        for _ in range(rng.randint(0, 6)):
            if edges and rng.random() < 0.6:
                a, b = edges.pop(rng.randrange(len(edges)))
                pool = sorted(bags[a] | bags[b])
                bags.append(bags[a] & bags[b] | set(rng.sample(pool, rng.randint(0, len(pool)))))
                edges += [(a, len(bags) - 1), (len(bags) - 1, b)]
            else:
                a = rng.randrange(len(bags))
                bags.append(set(rng.sample(sorted(bags[a]), rng.randint(0, len(bags[a])))))
                edges.append((a, len(bags) - 1))
        yield g, TreeDecomposition(Graph(len(bags), edges), bags)


def nice_from_elimination(g: Graph, order, rests) -> NiceTreeDecomposition:
    """The nice tree of a hand-written elimination of g, as the one writer
    writes it and unchecked (check_nice checks it): order lists the
    eliminated vertices and rests their rests, each ascending."""
    return _write_nice(g, list(order), [tuple(r) for r in rests])


# The four node kinds of the nice trees (Kloks 1994) that the tuple DPs
# and lift_then_intersect_tables read: a leaf has an empty bag and no
# child, introduce(v) adds v to its one child's bag, forget(v) drops v from
# it, and a join has two children with its own bag.  treewidth writes
# elimination trees; expand_to_four_kinds maps one onto this form.
LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


class NiceNode(NamedTuple):
    """One node of a four-kind nice tree as a record, for reading it node
    by node (nice_records)."""

    kind: str
    bag: frozenset[int]
    children: tuple[int, ...]
    vertex: int = -1  # introduce/forget payload


@dataclasses.dataclass
class FourKinds:
    """A four-kind nice tree, stored flat: kind[i], bag[i] (an ascending
    tuple), vertex[i] (-1 at a leaf or join), left[i] and right[i] (-1
    where there is none), children first, the last node the root.  forget[p]
    is the forget node of position p of the elimination tree it expands."""

    graph: Graph
    kind: list[str] = dataclasses.field(default_factory=list)
    bag: list[tuple[int, ...]] = dataclasses.field(default_factory=list)
    vertex: list[int] = dataclasses.field(default_factory=list)
    left: list[int] = dataclasses.field(default_factory=list)
    right: list[int] = dataclasses.field(default_factory=list)
    forget: list[int] = dataclasses.field(default_factory=list)

    @property
    def nodes(self) -> range:
        return range(len(self.kind))

    @property
    def root(self) -> int:
        return len(self.kind) - 1

    def add(self, kind: str, bag, vertex: int = -1, left: int = -1, right: int = -1) -> int:
        self.kind.append(kind)
        self.bag.append(tuple(sorted(bag)))
        self.vertex.append(vertex)
        self.left.append(left)
        self.right.append(right)
        return len(self.kind) - 1


def nice_records(four: FourKinds) -> list[NiceNode]:
    """The nodes of four as NiceNode records, in node id order."""
    rows = zip(four.kind, four.bag, four.left, four.right, four.vertex)
    return [NiceNode(kind, frozenset(bag), tuple([c for c in (l, r) if c >= 0]), x)
            for kind, bag, l, r, x in rows]


def expand_to_four_kinds(ntd: NiceTreeDecomposition) -> FourKinds:
    """The four-kind form of an elimination tree, such as heuristic_nice
    and to_nice build, for the tuple DPs to read.  Each position, of vertex
    v, rest R and bag B = {v} | R, becomes: an introduce chain lifting each
    child's forget to B, binary joins of those over B in children order,
    left to right, or, without children, a leaf and an introduce chain up
    to B; then forget(v) down to R.  Each chain introduces its vertices in
    ascending order.  The roots' forgets are joined over the empty bag in
    position order, and a tree with no position becomes one leaf."""
    four = FourKinds(ntd.graph)

    def lift(node: int, target: tuple[int, ...]) -> int:
        have = set(four.bag[node])
        for v in target:
            if v not in have:
                have.add(v)
                node = four.add(INTRODUCE, have, v, node)
        return node

    for v, rest, kids in zip(ntd.vertex, ntd.bag, ntd.children):
        whole = tuple(sorted((v, *rest)))
        top, *others = [lift(four.forget[c], whole) for c in kids] or [lift(four.add(LEAF, ()), whole)]
        for other in others:
            top = four.add(JOIN, whole, left=top, right=other)
        four.forget.append(four.add(FORGET, rest, v, top))
    top, *others = [four.forget[i] for i in ntd.nodes if not ntd.bag[i]] or [four.add(LEAF, ())]
    for other in others:
        top = four.add(JOIN, (), left=top, right=other)
    return four


def verify_dp_instances(seeds: int) -> list:
    """The target instances of `twlab verify --solver dp --cases 1 --seed j`
    for j < seeds at each of the five settings of the verify-dp benchmark
    workload (perfbench/workloads.py): its pool entries 0..seeds-1."""
    from twlab import harness as hn

    instances = []
    for params in (dict(pipeline="pc-chosen", k=2, n=3, p=0.5),
                   dict(pipeline="pc-chosen", k=3, n=2, p=0.5),
                   dict(pipeline="pc-minmax", k=2, n=2, p=0.25),
                   dict(pipeline="chosen-minmax", n=8, p=0.4, rho_max=10),
                   dict(pipeline="pc-lc", k=4, n=3, p=0.5)):
        pipeline = hn.PIPELINES[params["pipeline"]]
        for j in range(seeds):
            cfg = hn.ExperimentConfig(cases=1, seed=j, solver="dp", **params)
            instances.append(pipeline.reduce(pipeline.source.generate(cfg, hn.mix(j, 0))).instance)
    return instances


def graph_scale_tw_graphs() -> list[Graph]:
    """The graphs of the `tw` settings of the graph-scale benchmark workload
    (perfbench/workloads.py), pool entries 0..39 of each, 280 in all: the
    grids 3x40, 4x40, 5x30 and 6x30, and band graphs of n = 100, 300 and
    600, band 5 and p = 0.15, each seeded by its setting's label and pool
    index, relabelled by a shuffle and then given a Hamiltonian path plus
    each other pair at most band apart with probability p."""
    graphs = []
    for shape in (dict(rows=3, cols=40), dict(rows=4, cols=40), dict(rows=5, cols=30), dict(rows=6, cols=30),
                  dict(n=100, band=5, p=0.15), dict(n=300, band=5, p=0.15), dict(n=600, band=5, p=0.15)):
        label = "tw" + "".join(f" {k}={v}" for k, v in shape.items())
        for j in range(40):
            if "rows" in shape:
                graphs.append(grid(shape["rows"], shape["cols"]))
                continue
            rng = random.Random(f"{label}/{j}")
            n, band = shape["n"], shape["band"]
            perm = list(range(n))
            rng.shuffle(perm)
            graphs.append(Graph(n, sorted({canon(perm[i], perm[k]) for i in range(n)
                                           for k in range(i + 1, min(n, i + band + 1))
                                           if k == i + 1 or rng.random() < shape["p"]})))
    return graphs


def elimination_route_nice(g: Graph, method: str) -> NiceTreeDecomposition:
    """Reference route to the DP's nice decomposition: the greedy order
    alone, fill-in run a second time by the reference builder, and to_nice
    on a decomposition that carries no graph, so it is validated first."""
    td = union_find_elimination_decomposition(g, greedy_order(g, method))
    assert td.graph is None
    return to_nice(td, g)


def dp_pipeline_gadgets(cases: int) -> list[Graph]:
    """Target graphs of `cases` seeded sources on every pipeline whose
    target kind has a DP, at the sizes the DP sweeps use."""
    from twlab import harness as hn

    graphs = []
    for name, k, n, p in (("pc-chosen", 2, 3, 0.5), ("pc-chosen", 3, 2, 0.4),
                          ("pc-minmax", 2, 2, 0.25), ("chosen-minmax", 2, 8, 0.4),
                          ("pc-lc", 4, 3, 0.5)):
        extra = {"rho_max": 10} if name == "chosen-minmax" else {}
        cfg = hn.ExperimentConfig(name, k=k, n=n, p=p, **extra)
        pipeline = hn.PIPELINES[name]
        for case in range(cases):
            source = pipeline.source.generate(cfg, hn.mix(17, case))
            graphs.append(pipeline.reduce(source).instance.graph)
    return graphs


def search_forest_decomposition(g: Graph) -> TreeDecomposition | None:
    """Reference forest decomposition: a DFS per component from its least
    vertex, {v, parent(v)} bags, components chained by union_find_links;
    None when g has a cycle."""
    if g.n == 0:
        return TreeDecomposition(Graph(1), [frozenset()])
    bags: list[frozenset[int]] = [frozenset()] * g.n
    tree_edges: list[tuple[int, int]] = []
    parent = [-2] * g.n
    for root in g.vertices():
        if parent[root] != -2:
            continue
        parent[root] = -1
        bags[root] = frozenset({root})
        stack = [root]
        while stack:
            v = stack.pop()
            for u in sorted(g.neighbors(v)):
                if parent[u] != -2:
                    if u != parent[v]:
                        return None
                    continue
                parent[u] = v
                bags[u] = frozenset({u, v})
                tree_edges.append((u, v))
                stack.append(u)
    tree_edges += union_find_links(g.n, tree_edges)
    return TreeDecomposition(Graph(g.n, tree_edges), bags)


def stack_rooting(tree: Graph) -> tuple[list[int], list[list[int]]]:
    """Reference rooting of a host tree at node 0: the nodes parents-first
    and each node's children, in the order of a stack DFS over neighbors()."""
    order: list[int] = []
    kids: list[list[int]] = [[] for _ in range(tree.n)]
    stack = [(0, -1)]
    seen = {0}
    while stack:
        t, p = stack.pop()
        order.append(t)
        if p >= 0:
            kids[p].append(t)
        for s in tree.neighbors(t):
            if s not in seen:
                seen.add(s)
                stack.append((s, t))
    return order, kids


def _sorted_bags(nodes: list[NiceNode]) -> list[tuple[int, ...]]:
    return [tuple(sorted(n.bag)) for n in nodes]


def tuple_list_coloring_dp(inst: ListColoringInstance, ntd: NiceTreeDecomposition) -> dict[int, int] | None:
    """Reference list colouring: the DP over bag states as sorted tuples that
    solvers.dp_list_coloring replaced, kept as an oracle for its witnesses.

    A bag state assigns each bag vertex a color from its list; introduce
    branches over the fresh vertex's list, forget discards the states
    coloring the forgotten vertex like one of its neighbours in the bag and
    projects the rest, join keeps states present on both sides.  Each edge
    is checked at the forget of the endpoint forgotten first, unlike the
    packed DP, which drops clashes at introduce.
    """
    g = inst.graph
    _require_nice(ntd, g)
    nodes = nice_records(ntd)
    bags = _sorted_bags(nodes)
    tables: list[dict[tuple[int, ...], object]] = [None] * len(nodes)  # type: ignore[list-item]

    for i in range(len(nodes)):  # children first
        node = nodes[i]
        bag = bags[i]
        if node.kind == LEAF:
            tables[i] = {(): None}
        elif node.kind == INTRODUCE:
            pos = bag.index(node.vertex)
            palette = sorted(inst.lists[node.vertex])
            table: dict[tuple[int, ...], object] = {}
            for s in sorted(tables[node.children[0]]):
                for c in palette:
                    table.setdefault(s[:pos] + (c,) + s[pos:], s)
            tables[i] = table
        elif node.kind == FORGET:
            child_bag = bags[node.children[0]]
            pos = child_bag.index(node.vertex)
            nbrs = [child_bag.index(u) for u in g.neighbors(node.vertex) if u in child_bag]
            table = {}
            for s in sorted(tables[node.children[0]]):
                if all(s[p] != s[pos] for p in nbrs):
                    table.setdefault(s[:pos] + s[pos + 1 :], s)
            tables[i] = table
        else:  # JOIN
            left, right = node.children
            common = sorted(set(tables[left]) & set(tables[right]))
            tables[i] = {s: s for s in common}

    if () not in tables[ntd.root]:
        return None

    colors: dict[int, int] = {}
    stack: list[tuple[int, tuple[int, ...]]] = [(ntd.root, ())]
    while stack:
        i, s = stack.pop()
        node = nodes[i]
        if node.kind == LEAF:
            continue
        if node.kind == INTRODUCE:
            pos = bags[i].index(node.vertex)
            stack.append((node.children[0], s[:pos] + s[pos + 1 :]))
        elif node.kind == FORGET:
            child_state = tables[i][s]
            pos = bags[node.children[0]].index(node.vertex)
            colors.setdefault(node.vertex, child_state[pos])
            stack.append((node.children[0], child_state))
        else:  # JOIN
            stack.append((node.children[0], s))
            stack.append((node.children[1], s))
    assert check_list_coloring(inst, colors)
    return colors


def lift_then_intersect_tables(
    inst: ListColoringInstance, ntd: NiceTreeDecomposition, off: list[int]
) -> list[set[int]]:
    """Reference join tables of the list-colouring DP: the step that
    solvers.dp_list_coloring replaced, kept as an oracle for its joins.
    Every node builds its table, so each join child is lifted to the join's
    bag by its chain of introduce nodes, each colouring its vertex from its
    list and dropping the states in which a bag neighbour has that colour,
    and the join intersects the two lifted tables.  States are packed as in
    dp_list_coloring, vertex v's slot at bit off[v].  Returns every node's
    table, by node id."""
    palette = sorted(set().union(*inst.lists))
    code = {c: r + 1 for r, c in enumerate(palette)}
    mask = (1 << len(palette).bit_length()) - 1
    adj = inst.graph._adj
    tables: list[set[int]] = []
    for i, kind in enumerate(ntd.kind):
        child, v = ntd.left[i], ntd.vertex[i]
        if kind == LEAF:
            table = {0}
        elif kind == INTRODUCE:
            o = off[v]
            table = {s | code[c] << o for s in tables[child] for c in inst.lists[v]}
            for u in adj[v].intersection(ntd.bag[i]):
                table = {s for s in table if (s >> off[u] ^ s >> o) & mask}
        elif kind == FORGET:
            table = {s & ~(mask << off[v]) for s in tables[child]}
        else:
            table = tables[child] & tables[ntd.right[i]]
        tables.append(table)
    return tables


def tuple_pareto_minimal(table: dict[tuple[int, ...], object]) -> dict[tuple[int, ...], object]:
    """The entries of table whose keys no other key bounds pointwise.

    Key i gets bit i.  For each coordinate j, a prefix bitmask over the keys
    sorted by coordinate j gives, per key, the set of keys that are no larger
    in coordinate j; the AND of a key's masks over all coordinates is the set
    of keys that are <= it pointwise, which holds only its own bit exactly when
    it is minimal (keys are distinct).  Survivors keep their insertion order
    and their values.
    """
    keys = list(table)
    if len(keys) < 2:
        return table
    below = [(1 << len(keys)) - 1] * len(keys)
    for j in range(len(keys[0])):
        coord = [k[j] for k in keys].__getitem__
        mask = 0
        for _, tied in groupby(sorted(range(len(keys)), key=coord), key=coord):
            tied = list(tied)
            for i in tied:
                mask |= 1 << i
            for i in tied:
                below[i] &= mask
    return {k: table[k] for i, k in enumerate(keys) if below[i] == 1 << i}


def tuple_chosen_outdegree_dp(
    inst: ChosenOutdegreeInstance, ntd: NiceTreeDecomposition
) -> Orientation | None:
    """Reference capped orientation: the DP over bag states as sorted tuples
    that solvers.dp_chosen_outdegree replaced, kept as an oracle for its
    witnesses.

    A bag state carries each bag vertex's accumulated outgoing weight;
    introduce starts at 0, forget applies each edge from the forgotten
    vertex to a neighbour in its bag (by ascending neighbour), branching
    over the edge direction (smaller tail tried first) and pruning past the
    cap, then drops the accumulator; join adds accumulators pointwise.
    After every edge, forget and join a table keeps only its Pareto-minimal
    states; a kept state's back-pointer is the first one found.  Join sorts
    the right table once and walks, per left state, only the prefix whose
    first coordinate is within the slack.
    """
    g = inst.graph
    _require_nice(ntd, g)
    rho = inst.rho
    wmap = dict(zip(g.edges, inst.weights))
    nodes = nice_records(ntd)
    bags = _sorted_bags(nodes)
    tables: list[dict[tuple[int, ...], object]] = [None] * len(nodes)  # type: ignore[list-item]
    at_forget: dict[int, list] = {}  # forget node -> [(edge, its table of (state, tail))]

    for i in range(len(nodes)):  # children first
        node = nodes[i]
        bag = bags[i]
        if node.kind == LEAF:
            tables[i] = {(): None}
        elif node.kind == INTRODUCE:
            pos = bag.index(node.vertex)
            tables[i] = {
                s[:pos] + (0,) + s[pos:]: s for s in sorted(tables[node.children[0]])
            }
        elif node.kind == FORGET:
            child_bag = bags[node.children[0]]
            x = node.vertex
            states = tables[node.children[0]]
            at_forget[i] = []
            for e in sorted(canon(u, x) for u in g.neighbors(x) if u in child_bag):
                w = wmap[e]
                table: dict[tuple[int, ...], object] = {}
                for s in sorted(states):
                    for tail in e:
                        p = child_bag.index(tail)
                        if s[p] + w <= rho[tail]:
                            table.setdefault(s[:p] + (s[p] + w,) + s[p + 1 :], (s, tail))
                states = tuple_pareto_minimal(table)
                at_forget[i].append((e, states))
            pos = child_bag.index(x)
            table = {}
            for s in sorted(states):
                table.setdefault(s[:pos] + s[pos + 1 :], s)
            tables[i] = tuple_pareto_minimal(table)
        elif not bag:  # JOIN over the empty bag
            left, right = node.children
            tables[i] = {(): ((), ())} if tables[left] and tables[right] else {}
        else:  # JOIN
            left, right = node.children
            caps = [rho[v] for v in bag]
            rights = sorted(tables[right])
            firsts = [s[0] for s in rights]
            table = {}
            for s1 in sorted(tables[left]):
                slack = [c - a for c, a in zip(caps, s1)]
                for s2 in rights[: bisect_right(firsts, slack[0])]:
                    if all(map(le, s2, slack)):
                        table.setdefault(tuple(map(add, s1, s2)), (s1, s2))
            tables[i] = tuple_pareto_minimal(table)
        cap = 1
        for v in bag:
            cap *= rho[v] + 1
        assert len(tables[i]) <= cap, "state table exceeded the accumulator bound"

    if () not in tables[ntd.root]:
        return None

    direction: dict[tuple[int, int], tuple[int, int]] = {}
    stack: list[tuple[int, tuple[int, ...]]] = [(ntd.root, ())]
    while stack:
        i, s = stack.pop()
        node = nodes[i]
        if node.kind == LEAF:
            continue
        if node.kind == INTRODUCE:
            pos = bags[i].index(node.vertex)
            stack.append((node.children[0], s[:pos] + s[pos + 1 :]))
        elif node.kind == FORGET:
            s = tables[i][s]
            for e, table in reversed(at_forget[i]):
                s, tail = table[s]
                direction[e] = (tail, e[1] if tail == e[0] else e[0])
            stack.append((node.children[0], s))
        else:  # JOIN
            s1, s2 = tables[i][s]
            stack.append((node.children[0], s1))
            stack.append((node.children[1], s2))
    lam = Orientation(g, [direction[e] for e in g.edges])
    assert check_admissible(inst, lam)
    return lam


# --- the orientation search before hub propagation ------------------------------


def rescan_orient_search(n, edges, w, rho):
    """kernels.orient_search as it was before its incident lists were kept
    heaviest first: every push rescans all of the vertex's incident edges.
    The oracle for the witnesses of the hub propagation that replaced it."""
    m = len(edges)
    residual = list(rho)
    dirs = [-1] * m
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    trail: list[int] = []  # decided edges, in decision order

    def decide(e: int, d: int) -> bool:
        tail = edges[e][d]
        if residual[tail] < w[e]:
            return False
        dirs[e] = d
        residual[tail] -= w[e]
        trail.append(e)
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            e = trail.pop()
            residual[edges[e][dirs[e]]] += w[e]
            dirs[e] = -1

    def propagate(stack: list[int]) -> bool:
        while stack:
            z = stack.pop()
            for f in incident[z]:
                if dirs[f] != -1 or w[f] <= residual[z]:
                    continue
                d = 1 if edges[f][0] == z else 0  # the tail must be the other end
                o = edges[f][d]
                if w[f] > residual[o]:
                    return False
                decide(f, d)
                stack.append(o)
        return True

    def branches(e: int):
        if dirs[e] != -1:
            yield
            return
        for d in (0, 1):
            mark = len(trail)
            if decide(e, d) and propagate([edges[e][d]]):
                yield
            undo(mark)

    # the initial propagation catches edges infeasible from the start
    if propagate(list(range(n))) and backtrack(m, branches):
        return dirs
    return None


# --- the recursive searches kernels.backtrack replaced -------------------------
#
# Kept verbatim as oracles for the witnesses of the searches that now run on
# the driver: the three kernels with their CSR-packed signatures (see csr) and
# the four problems oracles.  They recurse once per position, so keep their
# inputs small.


def both_answers(results) -> None:
    """A witness-equality corpus must hold yes- and no-instances."""
    assert {r is None for r in results} == {True, False}, "the corpus must hold both answers"


def csr(rows) -> tuple[list[int], list[int]]:
    """(offsets, values) packing of a list of lists, as the old kernels took
    their adjacency, palettes, scopes and tuple masks."""
    offsets, values = [0], []
    for row in rows:
        values.extend(row)
        offsets.append(len(values))
    return offsets, values


def recursive_orient_search(n, eu, ev, w, rho):
    """Find an orientation with per-vertex outgoing weight caps.

    Edges are given as parallel lists (eu[i], ev[i], w[i]); rho caps the total
    weight a vertex may emit.  Returns a list of directions (0: tail eu[i],
    1: tail ev[i]) or None when no admissible orientation exists.

    Depth-first search over edges in index order with unit-propagation:
    an undecided edge too heavy for one endpoint's remaining budget is forced
    toward the other; an edge too heavy for both prunes the branch.
    """
    m = len(eu)
    residual = list(rho)
    dirs = [-1] * m
    incident: list[list[int]] = [[] for _ in range(n)]
    for i in range(m):
        incident[eu[i]].append(i)
        incident[ev[i]].append(i)
    trail: list[int] = []  # decided edges, in decision order

    def decide(e: int, d: int) -> bool:
        tail = eu[e] if d == 0 else ev[e]
        if residual[tail] < w[e]:
            return False
        dirs[e] = d
        residual[tail] -= w[e]
        trail.append(e)
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            e = trail.pop()
            tail = eu[e] if dirs[e] == 0 else ev[e]
            residual[tail] += w[e]
            dirs[e] = -1

    def propagate(stack: list[int]) -> bool:
        while stack:
            z = stack.pop()
            for f in incident[z]:
                if dirs[f] != -1:
                    continue
                if w[f] > residual[z]:
                    o = ev[f] if eu[f] == z else eu[f]
                    if w[f] > residual[o]:
                        return False
                    if not decide(f, 0 if o == eu[f] else 1):
                        return False
                    stack.append(o)
        return True

    def search() -> bool:
        e = 0
        while e < m and dirs[e] != -1:
            e += 1
        if e == m:
            return True
        for d in (0, 1):
            tail = eu[e] if d == 0 else ev[e]
            mark = len(trail)
            if decide(e, d) and propagate([tail]) and search():
                return True
            undo(mark)
        return False

    # initial propagation catches edges infeasible from the start
    mark = len(trail)
    if not propagate(list(range(n))):
        undo(mark)
        return None
    if search():
        return list(dirs)
    undo(mark)
    return None


def recursive_list_color_search(n, adj_offsets, adj_targets, pal_offsets, pal_values):
    """Backtracking list coloring over vertices 0..n-1 in index order.

    Adjacency and palettes are CSR-packed.  A vertex's candidate colors are
    tried in palette order against already-colored neighbors; after each
    assignment, forward checking fails the branch as soon as an uncolored
    neighbor has no live color left (prunes dead branches only, so the first
    witness is unaffected).  Returns the color list or None.
    """
    colors = [0] * n  # 0 = uncolored; palettes hold positive ints

    def alive(u: int) -> bool:
        for ci in range(pal_offsets[u], pal_offsets[u + 1]):
            c = pal_values[ci]
            if all(
                colors[adj_targets[ni]] != c
                for ni in range(adj_offsets[u], adj_offsets[u + 1])
            ):
                return True
        return False

    def place(v: int) -> bool:
        if v == n:
            return True
        for ci in range(pal_offsets[v], pal_offsets[v + 1]):
            c = pal_values[ci]
            ok = True
            for ni in range(adj_offsets[v], adj_offsets[v + 1]):
                if colors[adj_targets[ni]] == c:
                    ok = False
                    break
            if ok:
                colors[v] = c
                for ni in range(adj_offsets[v], adj_offsets[v + 1]):
                    u = adj_targets[ni]
                    if colors[u] == 0 and not alive(u):
                        ok = False
                        break
                if ok and place(v + 1):
                    return True
                colors[v] = 0
        return False

    return list(colors) if place(0) else None


def recursive_gensat_search(num_vars, scope_offsets, scope_vars, tup_offsets, tup_masks):
    """Backtracking search for a satisfying 0/1 assignment.

    Constraint j has scope variables scope_vars[scope_offsets[j]:...] and
    allowed tuples tup_masks[tup_offsets[j]:...] encoded as bitmasks (bit p =
    value of scope position p).  A partial assignment survives iff every
    constraint still has a compatible tuple.
    """
    num_cons = len(scope_offsets) - 1
    assigned_mask = [0] * num_cons
    assigned_val = [0] * num_cons
    # per-variable list of (constraint, position-within-scope)
    occ: list[list[tuple[int, int]]] = [[] for _ in range(num_vars)]
    for j in range(num_cons):
        for p in range(scope_offsets[j + 1] - scope_offsets[j]):
            occ[scope_vars[scope_offsets[j] + p]].append((j, p))

    def consistent(j: int) -> bool:
        am, av = assigned_mask[j], assigned_val[j]
        for ti in range(tup_offsets[j], tup_offsets[j + 1]):
            if tup_masks[ti] & am == av:
                return True
        return False

    for j in range(num_cons):
        if not consistent(j):
            return None

    values = [0] * num_vars

    def assign(x: int) -> bool:
        if x == num_vars:
            return True
        for val in (0, 1):
            values[x] = val
            ok = True
            for j, p in occ[x]:
                assigned_mask[j] |= 1 << p
                if val:
                    assigned_val[j] |= 1 << p
                if ok and not consistent(j):
                    ok = False  # keep updating so the undo loop is uniform
            if ok and assign(x + 1):
                return True
            for j, p in occ[x]:
                assigned_mask[j] &= ~(1 << p)
                assigned_val[j] &= ~(1 << p)
        values[x] = 0
        return False

    return list(values) if assign(0) else None


def recursive_bf_precoloring(inst: PrecoloringExtensionInstance) -> dict[int, int] | None:
    """Backtracking over uncolored vertices in index order, colors 1..r
    ascending."""
    g = inst.graph
    colors = dict(inst.precolor)
    free = [v for v in g.vertices() if v not in colors]

    def place(i: int) -> bool:
        if i == len(free):
            return True
        v = free[i]
        for c in range(1, inst.r + 1):
            if all(colors.get(u) != c for u in g.neighbors(v)):
                colors[v] = c
                if place(i + 1):
                    return True
                del colors[v]
        return False

    if not place(0):
        return None
    assert check_precoloring(inst, colors)
    return colors


def recursive_bf_equitable(inst: EquitableColoringInstance) -> dict[int, int] | None:
    """Backtracking over vertices in index order; class sizes are pruned
    against the ceiling floor(n/r)+1 and checked exactly at the end."""
    g, r = inst.graph, inst.r
    cap = -(-g.n // r) if g.n else 1  # ceil(n / r); every class size is floor or ceil
    colors: dict[int, int] = {}
    sizes = [0] * r

    def place(v: int) -> bool:
        if v == g.n:
            return max(sizes) - min(sizes) <= 1
        for c in range(1, r + 1):
            if sizes[c - 1] >= cap:
                continue
            if any(colors.get(u) == c for u in g.neighbors(v)):
                continue
            colors[v] = c
            sizes[c - 1] += 1
            if place(v + 1):
                return True
            sizes[c - 1] -= 1
            del colors[v]
        return False

    if not place(0):
        return None
    assert check_equitable(inst, colors)
    return colors


def recursive_bf_general_factor(inst: GeneralFactorInstance) -> frozenset | None:
    """Include/exclude search over edges in canonical order (exclude first),
    pruning on per-vertex degree bounds."""
    g = inst.graph
    m = len(g.edges)
    incident_left = [g.degree(v) for v in g.vertices()]
    deg = [0] * g.n
    lo = [min(s) if s else None for s in inst.cardinality_sets]
    hi = [max(s) if s else None for s in inst.cardinality_sets]
    if any(l is None for l in lo):
        return None  # an empty cardinality set is unsatisfiable
    chosen: list[tuple[int, int]] = []

    def feasible(v: int) -> bool:
        return deg[v] <= hi[v] and deg[v] + incident_left[v] >= lo[v]

    def place(i: int) -> bool:
        if i == m:
            return all(deg[v] in inst.cardinality_sets[v] for v in g.vertices())
        u, v = g.edges[i]
        incident_left[u] -= 1
        incident_left[v] -= 1
        if feasible(u) and feasible(v) and place(i + 1):
            return True
        deg[u] += 1
        deg[v] += 1
        chosen.append((u, v))
        if feasible(u) and feasible(v) and place(i + 1):
            return True
        chosen.pop()
        deg[u] -= 1
        deg[v] -= 1
        incident_left[u] += 1
        incident_left[v] += 1
        return False

    if not place(0):
        return None
    out = frozenset(chosen)
    assert check_general_factor(inst, out)
    return out


def recursive_bf_partitioned_clique(pg: PartitionedGraph) -> tuple[int, ...] | None:
    """First transversal (one vertex per part, parts in order, members by
    rank) that induces a clique."""
    g = pg.graph
    picked: list[int] = []

    def place(i: int) -> bool:
        if i == pg.k:
            return True
        for v in pg.parts[i]:
            if all(g.has_edge(u, v) for u in picked):
                picked.append(v)
                if place(i + 1):
                    return True
                picked.pop()
        return False

    if not place(0):
        return None
    out = tuple(picked)
    assert is_clique(g, out)
    return out


def combinations_bf_clique(g: Graph, k: int) -> tuple[int, ...] | None:
    """First k-subset (lexicographic) of vertices inducing a clique, by
    testing every k-subset in turn."""
    if k < 0:
        raise InputError("k must be non-negative")
    for cand in itertools.combinations(range(g.n), k):
        if is_clique(g, cand):
            return cand
    return None


def explicit_orientation_from_clique(out, clique) -> Orientation:
    """The orientation gadget's admissible orientation for a transversal
    clique, written edge kind by edge kind: the oracle for the edge plan
    that reductions.orientation_from_clique follows."""
    vid = out.meta.get("gadget")
    if vid is None:
        raise InputError("output does not carry a selection gadget")
    inst: ChosenOutdegreeInstance = out.instance
    pg: PartitionedGraph = out.meta["source"]
    pair_edges = out.meta["pair_edges"]
    k, n = pg.k, pg.part_size

    clique = tuple(clique)
    if len(clique) != k or not is_clique(pg.graph, clique):
        raise InputError("argument is not a transversal clique of the source")
    pick = {}
    for v in clique:
        for i, part in enumerate(pg.parts):
            if v in part:
                pick[i] = part.index(v)
    if sorted(pick) != list(range(k)):
        raise InputError("clique does not pick one vertex per part")

    direction: dict[tuple[int, int], tuple[int, int]] = {}

    def orient(tail: int, head: int) -> None:
        direction[canon(tail, head)] = (tail, head)

    for i in range(k):
        a = vid["a", i]
        for j in range(n):
            u, x, y = vid["u", i, j], vid["x", i, j], vid["y", i, j]
            cs = [vid["c", min(i, ip), max(i, ip)] for ip in range(k) if ip != i]
            bs = [vid["b", min(i, ip), max(i, ip)] for ip in range(k) if ip != i]
            if j == pick[i]:
                orient(a, u)
                orient(u, y)
                orient(x, u)
                for c in cs:
                    orient(y, c)
                for b in bs:
                    orient(b, x)
            else:
                orient(u, a)
                orient(y, u)
                orient(u, x)
                for c in cs:
                    orient(c, y)
                for b in bs:
                    orient(x, b)
    for (i, ip), es in pair_edges.items():
        b, c, d = vid["b", i, ip], vid["c", i, ip], vid["d", i, ip]
        sel = (pick[i], pick[ip])
        for q, qp in es:
            e = vid["e", i, ip, q, qp]
            if (q, qp) == sel:
                orient(e, d)
                orient(e, b)
                orient(c, e)
            else:
                orient(d, e)
                orient(b, e)
                orient(e, c)
    lam = Orientation(inst.graph, [direction[e] for e in inst.graph.edges])
    assert check_admissible(inst, lam), "constructive orientation is not admissible"
    return lam


# --- the read-back with two full admissibility passes ---------------------------
#
# reductions.extract_clique as it was before it moved the normalization's
# weight on one outdegree vector: a whole admissibility pass before the
# normalization and another after it.  The oracle for its outcome (clique,
# None or InputError) on every orientation of a small gadget.


def two_pass_extract_clique(out: ReductionOutput, lam: Orientation) -> tuple[int, ...] | None:
    """Read the selected transversal out of an admissible orientation of the
    selection gadget.

    Normalization first: a pick vertex with no outgoing edge has its first
    member edge turned outward, and a hub ``d`` with several incoming
    candidate edges keeps only the first — both reversals preserve
    admissibility.  The member picked at each part is the one whose ``a``
    edge points outward; None if normalization broke admissibility or a
    pick vertex selects other than one member.  The caller checks once that
    the result is a clique (the harness records ``clique_ok_<solver>``).
    """
    vid, inst, pg, k, n = _gadget(out)
    if not check_admissible(inst, lam):
        raise InputError("orientation is not admissible for the gadget instance")

    direction = dict(zip(inst.graph.edges, lam.direction))
    for i in range(k):
        a = vid["a", i]
        if not any(direction[canon(a, vid["u", i, j])][0] == a for j in range(n)):
            direction[canon(a, vid["u", i, 0])] = (a, vid["u", i, 0])
    for (i, ip), es in out.meta["pair_edges"].items():
        d = vid["d", i, ip]
        candidates = [vid["e", i, ip, q, qp] for q, qp in es]
        incoming = [e for e in candidates if direction[canon(d, e)][0] != d]
        for e in incoming[1:]:
            direction[canon(d, e)] = (d, e)
    if not check_admissible(inst, Orientation(inst.graph, [direction[e] for e in inst.graph.edges])):
        return None

    picked = []
    for i in range(k):
        a = vid["a", i]
        outgoing = [j for j in range(n) if direction[canon(a, vid["u", i, j])][0] == a]
        if len(outgoing) != 1:
            return None
        picked.append(pg.parts[i][outgoing[0]])
    return tuple(picked)


def witness_missing_edge(reduce):
    """`reduce` (a reduction) with its output's first edge uv dropped from
    the witness: u leaves every bag that holds v.  On pc_to_list_coloring, u
    is a selector and v a pad, so the witness misses exactly that edge."""

    def patched(source):
        out = reduce(source)
        u, v = out.graph.edges[0]
        bags = [b - {u} if v in b else b for b in out.witness.bags]
        return dataclasses.replace(out, witness=TreeDecomposition(out.witness.tree, bags))

    return patched


def adjacency_ignored(search):
    """`search` (kernels.list_color_search) run with every adjacency list
    emptied: each vertex takes the first colour of its palette, so two
    neighbours may share one."""

    def patched(adj, palettes):
        return search([[] for _ in adj], palettes)

    return patched


def first_edge_reversed(solve):
    """`solve` (an orientation DP) with the first edge of each yes-witness
    turned the other way."""

    def patched(inst, ntd):
        lam = solve(inst, ntd)
        if lam is None:
            return None
        return Orientation(lam.graph, (lam.direction[0][::-1], *lam.direction[1:]))

    return patched


class OutOfTime(Exception):
    """Raised by within_seconds.  Not a TimeoutError: that is an OSError,
    which cli.main turns into exit 2, so an in-process CLI run that ran out
    of time would pass for a refused input."""


@contextmanager
def within_seconds(seconds: int, what: str):
    """Raise OutOfTime if the block runs past `seconds` (SIGALRM); the
    previous handler is restored afterwards."""

    def out_of_time(signum, frame):
        raise OutOfTime(f"{what} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def triangle() -> Graph:
    return complete(3)
