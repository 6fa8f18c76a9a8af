"""Gadget reductions between problem families.

Every reduction returns a ReductionOutput bundling the target instance, a
witness tree decomposition certifying a width bound (pc-minmax composes the
orientation gadget's, so it claims the paper's k(k-1)+1), and a provenance
index mapping gadget vertices to their roles.  The reductions do not
validate their own output: certify(out) checks every witness an output
carries against its graph and claimed width bound, once, where the output
is used (harness._case_record for `twlab verify`, the CLI for `twlab reduce`).

Two witnesses are written straight from the gadget.  The orientation gadget
minus its hubs ``b`` and ``c`` is a forest, and each vertex is allocated
with its forest parent, so its witness takes one pass: per non-hub vertex in
increasing id, a bag of it, its parent and every hub, under its parent's
bag, with the roots (``a`` and ``d``) chained in increasing order.  That
certifies 2·C(k,2)+1.  clique_to_gensat's incidence witness is a path of
bags, one variable plus every constraint vertex, in variable order.

Gadget role tags used by the provenance index:

* ``v``       selector vertex standing for a part (list-coloring target)
* ``pad``     conflict vertex for a nonadjacent cross pair
* ``pendant`` degree-one precolored vertex encoding a forbidden color
* ``a``       per-part pick vertex (budget 1, one unit edge per member)
* ``u x y``   per-member lever triple relaying the pick to the hubs
* ``b c``     per-pair budget hubs on the low/high side
* ``d``       per-pair vertex forcing exactly one candidate inward
* ``e``       candidate vertex for one cross edge of a part pair
* ``xv yv``   slack triangle attached to a vertex with unused budget

``ReductionOutput.meta`` holds only what a reader needs and cannot get from
the output itself.  It is ``{}`` for pc-lc, lc-pce and chosen-minmax (so
pc-minmax), and for every degenerate single-bag output.  Otherwise:

* pc-chosen: ``source``, the partitioned graph the read-back reads;
  ``gadget``, a dict from role (the tag followed by its fields, as in
  ``("e", i, ip, q, qp)``; part indices and member ranks are 0-based) to
  vertex; ``pair_edges``, each part pair's cross edges as rank pairs; and
  ``plan``, which gives every gadget edge an owner (a lever ``u`` or a
  candidate ``e``) and the tail the edge takes when its owner is selected;
  otherwise the edge points the other way.
* clique-gensat: ``dual_graph`` (``out.graph`` again) and the incidence
  graph, witness and bound that certify checks, as ``incidence_graph``,
  ``incidence_witness`` and ``incidence_width_bound``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from twlab.errors import InputError, require_at_most
from twlab.graphs import (
    Graph,
    Orientation,
    PartitionedGraph,
    all_outdegrees,
    canon,
    graph_to_json,
    is_clique,
)
from twlab.problems import (
    ARITY_CEILING,
    VARIABLE_CEILING,
    ChosenOutdegreeInstance,
    BooleanRelation,
    Constraint,
    GensatInstance,
    ListColoringInstance,
    MinMaxOutdegreeInstance,
    PrecoloringExtensionInstance,
    build_dual,
    build_incidence,
    instance_to_json,
)
from twlab.treewidth import (
    TreeDecomposition,
    decomposition_to_json,
    heuristic_decomposition,
    validate,
    width,
)


@dataclass(frozen=True)
class ReductionOutput:
    """Target instance + witness decomposition + provenance.

    ``graph`` is the graph certify checks the witness against: the target's
    own graph, or the dual graph for a generalized-satisfiability target.
    ``meta`` holds the in-memory tables a reader needs beyond these, as the
    module docstring lists them per reduction; it is not part of the JSON
    format except for the documented dual/incidence extras.
    """

    instance: object
    witness: TreeDecomposition
    claimed_width_bound: int
    index: tuple[dict, ...]
    graph: Graph = field(compare=False, repr=False)
    meta: dict = field(default_factory=dict, compare=False, repr=False)


def certify(out: ReductionOutput) -> tuple[str, ...]:
    """Validate every witness the output carries against its graph and
    claimed width bound: the primary witness, and the incidence witness of a
    generalized-satisfiability target.  Returns the violations, each
    prefixed by the witness it concerns; an empty tuple certifies the output.
    Checks by return value, not assert, so they hold under python -O."""
    witnesses = [("witness", out.witness, out.graph, out.claimed_width_bound)]
    if "incidence_witness" in out.meta:
        m = out.meta
        witnesses.append(
            ("incidence witness", m["incidence_witness"], m["incidence_graph"], m["incidence_width_bound"])
        )
    violations: list[str] = []
    for name, td, graph, bound in witnesses:
        violations += (f"{name}: {v}" for v in validate(td, graph).violations)
        if td.bags and width(td) > bound:
            violations.append(f"{name}: width {width(td)} exceeds claimed bound {bound}")
    return tuple(violations)


def _single_bag(instance, bound, detail) -> ReductionOutput:
    """A degenerate target: a canonical instance under one bag holding all of
    its vertices, indexed by a single note."""
    g = instance.graph
    td = TreeDecomposition(Graph(1), [frozenset(g.vertices())])
    return ReductionOutput(instance, td, bound, ({"tag": "note", "detail": detail},), g)


# --- clique selection via list coloring ---------------------------------------

def pc_to_list_coloring(pg: PartitionedGraph) -> ReductionOutput:
    """One selector vertex per part, its list naming the part's members
    (color of vertex v is v+1); every nonadjacent cross pair gets a pad
    vertex adjacent to both selectors whose list holds exactly those two
    member colors.  Colorable iff the source has a transversal clique."""
    k = pg.k
    g = pg.graph
    color = {v: v + 1 for v in g.vertices()}
    lists: list[frozenset[int]] = [frozenset(color[v] for v in part) for part in pg.parts]
    edges: list[tuple[int, int]] = []
    index = [{"tag": "v", "i": i, "vertex": i} for i in range(k)]
    next_id = k
    for i in range(k):
        for j in range(i + 1, k):
            for u in pg.parts[i]:
                for v in pg.parts[j]:
                    if g.has_edge(u, v):
                        continue
                    lists.append(frozenset({color[u], color[v]}))
                    edges.append((i, next_id))
                    edges.append((j, next_id))
                    index.append({"tag": "pad", "u": u, "v": v, "vertex": next_id})
                    next_id += 1
    h = Graph(next_id, edges)
    inst = ListColoringInstance(h, lists)

    selectors = frozenset(range(k))
    pads = range(k, next_id)
    tree = Graph(1 + len(pads), [(0, 1 + t) for t in range(len(pads))])
    td = TreeDecomposition(tree, [selectors] + [selectors | {p} for p in pads])
    return ReductionOutput(inst, td, k + 1, tuple(index), h)


# --- lists via precolored pendants ---------------------------------------------

def lc_to_precoloring(inst: ListColoringInstance) -> ReductionOutput:
    """Replace lists by pendant precolored neighbors: the color universe is
    relabeled 1..r and every color missing from a vertex's list is blocked
    by a fresh degree-one neighbor precolored with it."""
    g = inst.graph
    universe = sorted(set().union(*inst.lists)) if inst.lists else []
    if g.n > 0 and not universe:
        # every list is empty: no coloring can exist; emit the canonical
        # infeasible target (r = 0 is outside the problem's domain)
        target = PrecoloringExtensionInstance(Graph(2, [(0, 1)]), {}, 1)
        return _single_bag(target, 1, "canonical infeasible")
    rank = {c: i + 1 for i, c in enumerate(universe)}
    r = max(len(universe), 1)
    edges = list(g.edges)
    precolor: dict[int, int] = {}
    index = [{"tag": "orig", "v": v, "vertex": v} for v in g.vertices()]
    next_id = g.n
    pendants: list[tuple[int, int]] = []  # (owner, pendant)
    for v in g.vertices():
        for c in universe:
            if c in inst.lists[v]:
                continue
            edges.append((v, next_id))
            precolor[next_id] = rank[c]
            index.append({"tag": "pendant", "v": v, "color": rank[c], "vertex": next_id})
            pendants.append((v, next_id))
            next_id += 1
    h = Graph(next_id, edges)
    target = PrecoloringExtensionInstance(h, precolor, r)

    base = heuristic_decomposition(g, "min-fill")
    td = _attach_leaf_bags(base, [(owner, frozenset({owner, p})) for owner, p in pendants])
    bound = max(width(base), 1) if g.n else 0
    return ReductionOutput(target, td, bound, tuple(index), h)


def _attach_leaf_bags(
    base: TreeDecomposition, additions: list[tuple[int, frozenset[int]]]
) -> TreeDecomposition:
    """Hang each new bag as a leaf under some base node containing its anchor
    vertex."""
    home: dict[int, int] = {}
    for t, bag in enumerate(base.bags):
        for v in bag:
            home.setdefault(v, t)
    bags = list(base.bags)
    tree_edges = list(base.tree.edges)
    for anchor, bag in additions:
        t = home[anchor]
        bags.append(bag)
        tree_edges.append((t, len(bags) - 1))
    return TreeDecomposition(Graph(len(bags), tree_edges), bags)


# --- clique via generalized satisfiability --------------------------------------

def clique_to_gensat(g: Graph, k: int) -> ReductionOutput:
    """One relation of arity 2n listing, per edge (p, q) with p < q, the
    concatenated indicator vectors of p and q; one constraint per position
    pair (i, j) over the i-th and j-th variable blocks.  Satisfiable iff g
    has a k-clique.  The arity 2n and the k*n variables are held to the
    ceilings of BooleanRelation and GensatInstance before anything of their
    size is built."""
    if k < 2:
        raise InputError(f"k must be at least 2, got {k}")
    n = g.n
    if n == 0:
        raise InputError("source graph must have at least one vertex")
    require_at_most("arity", 2 * n, ARITY_CEILING)
    require_at_most("variable count", k * n, VARIABLE_CEILING)
    tuples = []
    for p, q in g.edges:
        t = [0] * (2 * n)
        t[p] = 1
        t[n + q] = 1
        tuples.append(tuple(t))
    relation = BooleanRelation(2 * n, tuples)

    def block(i: int) -> list[int]:
        return list(range(i * n, (i + 1) * n))

    constraints = []
    con_tags = []
    for i in range(k):
        for j in range(i + 1, k):
            constraints.append(Constraint(block(i) + block(j), relation))
            con_tags.append((i, j))
    inst = GensatInstance(k * n, constraints)

    index = [
        {"tag": "var", "i": i, "l": l, "variable": i * n + l}
        for i in range(k)
        for l in range(n)
    ] + [
        {"tag": "con", "i": i, "j": j, "constraint": idx}
        for idx, (i, j) in enumerate(con_tags)
    ]

    dual = build_dual(inst)
    num_cons = len(constraints)
    witness = TreeDecomposition(Graph(1), [frozenset(range(num_cons))])
    # the variables are independent in the incidence graph: a path of bags
    # {x} plus every constraint vertex, in variable order
    cons = frozenset(range(k * n, k * n + num_cons))
    inc_witness = TreeDecomposition(
        Graph(k * n, [(x, x + 1) for x in range(k * n - 1)]), [cons | {x} for x in range(k * n)]
    )
    meta = {
        "dual_graph": dual,  # out.graph again, kept as perfbench/tracer.py reads it
        "incidence_graph": build_incidence(inst),
        "incidence_witness": inc_witness,
        "incidence_width_bound": num_cons,
    }
    return ReductionOutput(inst, witness, num_cons - 1, tuple(index), dual, meta)


# --- clique selection via capped orientation ------------------------------------

def pc_to_chosen_outdegree(pg: PartitionedGraph) -> ReductionOutput:
    """Orientation gadget selecting one member per part.

    Per part i: a pick vertex ``a`` with budget 1 joined by unit edges to n
    lever triples ``u–x, u–y``.  Per part pair: budget hubs ``b`` (low side)
    and ``c`` (high side) joined by special edges to every lever, a hub ``d``
    that can pay for all but one of the pair's candidate vertices ``e``, and
    one ``e`` per cross edge whose special weights equal the sum of the two
    matching lever weights.  The hub budgets make an admissible orientation
    encode a transversal clique and vice versa.
    """
    k, n = pg.k, pg.part_size
    bound = 2 * (k * (k - 1) // 2) + 1

    pair_edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(k):
        for ip in range(i + 1, k):
            pair_edges[(i, ip)] = [
                (q, qp)
                for q in range(n)
                for qp in range(n)
                if pg.graph.has_edge(pg.parts[i][q], pg.parts[ip][qp])
            ]
    if k == 0:
        # empty partition: the empty clique exists
        g = Graph(1)
        inst = ChosenOutdegreeInstance(g, [], (0,))
        return _single_bag(inst, bound, "canonical feasible")
    if n == 0 or not all(pair_edges.values()):
        # a part pair has no cross edges: no transversal clique exists
        g = Graph(2, [(0, 1)])
        inst = ChosenOutdegreeInstance(g, [1], (0, 0))
        return _single_bag(inst, bound, "canonical infeasible")

    # ranks are encoded in base radix; big exceeds any lever's special weight
    radix = n + 1
    r3 = radix**3
    big = k * (r3 + radix**2)
    index: list[dict] = []
    vid: dict[tuple, int] = {}  # role (tag, *fields) -> vertex
    rho: list[int] = []
    # each vertex's parent in the gadget minus its hubs, a forest: ROOT at
    # a and d, HUB at b and c; a parent is allocated before its children
    ROOT, HUB = -1, -2
    parent: list[int] = []

    def new(tag: str, up: int, **fields) -> int:
        role = (tag, *fields.values())
        assert role not in vid, f"gadget role {role} allocated twice"
        vid[role] = len(index)
        index.append({"tag": tag, **fields, "vertex": len(index)})
        rho.append(0)
        parent.append(up)
        return vid[role]

    # rank weights: member j of the lower part encodes as j+1, of the upper
    # part as (j+1)*radix; the +1 on the high side keeps c strictly costlier
    def xw(i_lower: bool, j: int) -> int:
        return r3 + (j + 1) if i_lower else r3 + (j + 1) * radix

    def yw(i_lower: bool, j: int) -> int:
        return xw(i_lower, j) + 1

    edges: dict[tuple[int, int], int] = {}
    plan: dict[tuple[int, int], tuple[int, int]] = {}  # edge -> (owner, tail if owner selected)

    def add_edge(u: int, v: int, w: int, owner: int, tail: int) -> None:
        e = canon(u, v)
        edges[e] = w
        plan[e] = (owner, tail)

    for i in range(k):
        a = new("a", ROOT, i=i)
        rho[a] = 1
        for j in range(n):
            u = new("u", a, i=i, j=j)
            x, y = new("x", u, i=i, j=j), new("y", u, i=i, j=j)
            add_edge(a, u, 1, u, a)
            add_edge(u, x, big, u, x)
            add_edge(u, y, big + 1, u, u)
            rho[u], rho[x], rho[y] = big + 1, big, big + 1
    for (i, ip), es in pair_edges.items():
        b, c, d = new("b", HUB, i=i, ip=ip), new("c", HUB, i=i, ip=ip), new("d", ROOT, i=i, ip=ip)
        for j in range(n):
            for part, lower in ((i, True), (ip, False)):
                u, x, y = vid["u", part, j], vid["x", part, j], vid["y", part, j]
                add_edge(x, b, xw(lower, j), u, b)
                add_edge(y, c, yw(lower, j), u, y)
        rho[d] = len(es) - 1
        for q, qp in es:
            e = new("e", d, i=i, ip=ip, q=q, qp=qp)
            web = xw(True, q) + xw(False, qp)
            wec = yw(True, q) + yw(False, qp)
            add_edge(d, e, 1, e, e)
            add_edge(e, b, web, e, e)
            add_edge(e, c, wec, e, c)
            rho[e] = wec
            rho[b] += web
        rho[c] = sum(yw(True, j) + yw(False, j) for j in range(n))

    h = Graph(len(index), edges.keys())
    inst = ChosenOutdegreeInstance(h, [edges[e] for e in h.edges], rho)
    hubs = frozenset([v for v, up in enumerate(parent) if up == HUB])
    _check_gadget_arithmetic(k, n, big, vid, hubs, pair_edges, edges, inst.rho)

    num_pairs = k * (k - 1) // 2
    total_cross = sum(len(es) for es in pair_edges.values())
    assert h.n == k * (3 * n + 1) + 3 * num_pairs + total_cross
    assert len(h.edges) == 3 * k * n + 3 * total_cross + 4 * n * num_pairs

    # the witness, as the module docstring describes it
    node = [-1] * h.n
    bags: list[frozenset[int]] = []
    tree_edges: list[tuple[int, int]] = []
    roots: list[int] = []
    for v, up in enumerate(parent):
        if up == HUB:
            continue
        node[v] = t = len(bags)
        if up == ROOT:
            bags.append(hubs | {v})
            roots.append(t)
        else:
            bags.append(hubs | {v, up})
            tree_edges.append((t, node[up]))
    tree_edges += zip(roots, roots[1:])
    witness = TreeDecomposition(Graph(len(bags), tree_edges), bags)
    meta = {"source": pg, "gadget": vid, "plan": plan, "pair_edges": pair_edges}
    return ReductionOutput(inst, witness, bound, tuple(index), h, meta)


def _check_gadget_arithmetic(k, n, big, vid, hubs, pair_edges, wmap, rho) -> None:
    """Construction-time checks of the capacity algebra the forcing argument
    relies on, over the gadget's edge -> weight map and caps."""
    r3 = (n + 1) ** 3
    special = [0] * len(rho)  # weight on each vertex's edges that touch a hub
    for (a, b), w in wmap.items():
        if a in hubs or b in hubs:
            special[a] += w
            special[b] += w

    if pair_edges:  # a single part has no special edges and nothing to order
        for i in range(k):
            for j in range(n):
                mx = special[vid["x", i, j]]
                my = special[vid["y", i, j]]
                assert mx < my < big, f"lever budgets out of order at part {i} member {j}"
    for (i, ip), es in pair_edges.items():
        b, c = vid["b", i, ip], vid["c", i, ip]
        assert rho[c] // r3 == 2 * n
        for q, qp in es:
            e = vid["e", i, ip, q, qp]
            web = wmap[canon(e, b)]
            wec = wmap[canon(e, c)]
            assert wec == web + 2
            assert rho[e] - web >= 2
            assert wec > 2 * r3
        for j in range(n):
            for xv, hub in (
                (vid["x", i, j], b),
                (vid["y", i, j], c),
                (vid["x", ip, j], b),
                (vid["y", ip, j], c),
            ):
                assert wmap[canon(xv, hub)] > r3


def _gadget(out: ReductionOutput):
    """The role map, instance, source and (k, n) of an orientation gadget."""
    vid = out.meta.get("gadget")
    if vid is None:
        raise InputError("output does not carry a selection gadget")
    pg = out.meta["source"]
    return vid, out.instance, pg, pg.k, pg.part_size


def extract_clique(out: ReductionOutput, lam: Orientation) -> tuple[int, ...] | None:
    """Read the selected transversal out of an admissible orientation of the
    selection gadget.

    One outdegree pass checks that lam is admissible (InputError if not).
    Normalization follows: a pick vertex with no outgoing edge has its first
    member edge turned outward, and a hub ``d`` with several incoming
    candidate edges keeps only the first.  Each turn moves the edge's weight
    from its old tail to its new one on the outdegree vector, and only the
    new tails are checked against their caps again, as no other vertex
    gained weight.  The member picked at each part is the one whose ``a``
    edge points outward; None if normalization broke admissibility or a
    pick vertex selects other than one member.  The caller checks once that
    the result is a clique (the harness records ``clique_ok_<solver>``).
    """
    vid, inst, pg, k, n = _gadget(out)
    g, rho = inst.graph, inst.rho
    load = all_outdegrees(g, inst.weights, lam)
    if any(x > r for x, r in zip(load, rho)):
        raise InputError("orientation is not admissible for the gadget instance")

    at = {e: t for t, e in enumerate(g.edges)}  # edge -> its index in g.edges
    turned = []  # the new tail of every edge turned

    def tail(u: int, v: int) -> int:
        return lam.direction[at[canon(u, v)]][0]

    def turn(u: int, v: int) -> None:  # from tail u to tail v
        w = inst.weights[at[canon(u, v)]]
        load[u] -= w
        load[v] += w
        turned.append(v)

    picks = []
    for i in range(k):
        a = vid["a", i]
        outgoing = [j for j in range(n) if tail(a, vid["u", i, j]) == a]
        if not outgoing:
            turn(vid["u", i, 0], a)
            outgoing = [0]
        picks.append(outgoing)
    for (i, ip), es in out.meta["pair_edges"].items():
        d = vid["d", i, ip]
        incoming = [e for e in (vid["e", i, ip, q, qp] for q, qp in es) if tail(d, e) != d]
        for e in incoming[1:]:
            turn(e, d)
    if any(load[v] > rho[v] for v in turned) or any(len(js) != 1 for js in picks):
        return None
    return tuple([part[js[0]] for part, js in zip(pg.parts, picks)])


def orientation_from_clique(out: ReductionOutput, clique) -> Orientation:
    """The explicit admissible orientation encoding a given transversal
    clique: the clique selects the lever of each picked member and the
    candidate of each of its edges, and every gadget edge follows its plan
    (built directly from the clique, independent of any search).  Whether
    it is admissible is left to the caller, which checks it once (the
    harness records ``constructive_ok``)."""
    vid, inst, pg, k, n = _gadget(out)
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

    selected = {vid["u", i, j] for i, j in pick.items()}
    selected |= {vid["e", i, ip, pick[i], pick[ip]] for i, ip in out.meta["pair_edges"]}
    plan = out.meta["plan"]
    direction = []
    for edge in inst.graph.edges:
        owner, tail = plan[edge]
        head = edge[0] + edge[1] - tail
        direction.append((tail, head) if owner in selected else (head, tail))
    return Orientation(inst.graph, direction)


# --- capped orientation via uniform cap ------------------------------------------

def chosen_to_minmax(
    inst: ChosenOutdegreeInstance, source_witness: tuple[TreeDecomposition, int] | None = None
) -> ReductionOutput:
    """Equalize the caps: r becomes the largest cap, and every vertex with
    slack r - rho(v) gets a triangle (two slack edges of that weight plus a
    weight-r brace) that forces it to spend exactly the slack.  The triangles
    hang as leaf bags on source_witness, a (decomposition, width bound) pair
    of the source, or else on min-fill and its width; the claim is that
    bound, at least 2."""
    g = inst.graph
    if g.n < 1:
        raise InputError("instance must have at least one vertex")
    r = max(inst.rho)
    if r == 0:
        # no budget anywhere: feasible iff there is nothing to orient
        if g.edges:
            h, weights, detail = Graph(2, [(0, 1)]), [2], "canonical infeasible"
        else:
            h, weights, detail = Graph(1), [], "canonical feasible"
        return _single_bag(MinMaxOutdegreeInstance(h, weights, 1), 2, detail)

    edges = dict(zip(g.edges, inst.weights))
    index = [{"tag": "orig", "v": v, "vertex": v} for v in g.vertices()]
    next_id = g.n
    triangles: list[tuple[int, int, int]] = []  # (v, xv, yv)
    for v in g.vertices():
        slack = r - inst.rho[v]
        if slack == 0:
            continue
        xv, yv = next_id, next_id + 1
        next_id += 2
        edges[v, xv] = slack  # v < xv < yv: each pair is canonical
        edges[v, yv] = slack
        edges[xv, yv] = r
        index.append({"tag": "xv", "v": v, "vertex": xv})
        index.append({"tag": "yv", "v": v, "vertex": yv})
        triangles.append((v, xv, yv))
    h = Graph(next_id, edges.keys())
    target = MinMaxOutdegreeInstance(h, [edges[e] for e in h.edges], r)

    if source_witness is None:
        base = heuristic_decomposition(g, "min-fill")
        source_witness = (base, width(base))
    base, bound = source_witness
    td = _attach_leaf_bags(
        base, [(v, frozenset({v, xv, yv})) for v, xv, yv in triangles]
    )
    return ReductionOutput(target, td, max(bound, 2), tuple(index), h)


# --- serialization ----------------------------------------------------------------

def reduction_output_to_json(out: ReductionOutput) -> dict:
    obj = {
        "instance": instance_to_json(out.instance),
        "witness": decomposition_to_json(out.witness),
        "claimed_width_bound": out.claimed_width_bound,
        "index": list(out.index),
    }
    if "incidence_graph" in out.meta:
        obj["dual"] = {
            "graph": graph_to_json(out.graph),
            "witness": decomposition_to_json(out.witness),
            "claimed_width_bound": out.claimed_width_bound,
        }
        obj["incidence"] = {
            "graph": graph_to_json(out.meta["incidence_graph"]),
            "witness": decomposition_to_json(out.meta["incidence_witness"]),
            "claimed_width_bound": out.meta["incidence_width_bound"],
        }
    return obj
