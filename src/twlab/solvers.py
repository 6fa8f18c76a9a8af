"""Solvers driven by nice tree decompositions, plus the path-reversal solver
for uniformly weighted orientation.

Both DP solvers keep sparse per-node tables (only reachable bag states) and
extract witnesses root-to-leaves, through back-pointers in the orientation DP
and through least-colour maps at forget nodes in the list-colouring DP, so
every yes-answer ships a certificate that is re-checked before being
returned.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Collection
from itertools import groupby
from math import prod
from operator import add, le

from twlab.errors import InputError
from twlab.graphs import EdgeWeighting, Graph, Orientation, canon
from twlab.problems import (
    ChosenOutdegreeInstance,
    ListColoringInstance,
    MinMaxOutdegreeInstance,
    check_admissible,
    check_list_coloring,
    check_minmax,
)
from twlab.treewidth import (
    FORGET,
    INTRODUCE,
    INTRODUCE_EDGE,
    JOIN,
    LEAF,
    NiceTreeDecomposition,
    check_nice,
)


def _require_nice(ntd: NiceTreeDecomposition, g: Graph) -> None:
    """Raise InputError unless ntd is a nice decomposition of g.  One that
    to_nice built for this very graph object is trusted without a re-check."""
    if ntd.graph is g:
        return
    check = check_nice(ntd, g)
    if not check.ok:
        raise InputError("invalid nice decomposition: " + "; ".join(check.violations[:3]))


def _topo_order(ntd: NiceTreeDecomposition) -> list[int]:
    """Node ids with children before parents."""
    order: list[int] = []
    stack = [ntd.root]
    while stack:
        i = stack.pop()
        order.append(i)
        stack.extend(ntd.nodes[i].children)
    order.reverse()
    return order


def _sorted_bags(ntd: NiceTreeDecomposition) -> list[tuple[int, ...]]:
    return [tuple(sorted(n.bag)) for n in ntd.nodes]


def dp_list_coloring(inst: ListColoringInstance, ntd: NiceTreeDecomposition) -> dict[int, int] | None:
    """List coloring by DP over the nice decomposition, with each bag state
    packed into one int.

    Slots: walking the nodes root-first, the forget node of v gives v the
    least slot not held by the other vertices of its bag.  Those vertices are
    forgotten higher up, so they hold slots already; a nice decomposition
    forgets each vertex exactly once, so every bag's vertices hold distinct
    slots and at most width + 1 slots are used.

    Encoding: the union of all lists is sorted once into the palette, and
    palette[r] has code r + 1; code 0 marks an empty slot.  Each slot is
    len(palette).bit_length() bits wide, and v's slot starts at bit off[v].
    Introduce ORs code << off[v] in, forget masks it out, join intersects the
    two tables, and the root state is 0.  A table is a set of these ints
    (at a forget node, the keys of its least-colour map).

    Filtering: introduce colours v from its list and drops every state in
    which a neighbour of v in the bag has v's colour; introduce_edge then
    passes its child's table through.  This is sound for any valid nice
    decomposition, even when the introduce_edge node of uv sits in another
    join branch: a state colouring two adjacent bag vertices alike can never
    be completed, so dropping it early changes no answer.  And no such state
    survives: going down from any node whose bag holds u and v, some path
    keeps both in the bag until one of them is introduced with the other
    present, where the clash is dropped, and a join keeps only states found
    in both of its branches.

    Witness: forget keeps, for each projected state, the least colour code
    it saw, and the traceback rebuilds the child state as s | code << off[v].
    The tuple DP that the tests keep as an oracle takes the first child state
    in sorted order, which has the least colour at v.  Its tables also hold
    states colouring adjacent bag vertices alike before their edge is
    introduced, but the traceback only visits restrictions of the final,
    proper colouring, and every edge at v is introduced below v's forget
    node; so at each visited forget node both DPs pick the least of the
    same colours and return the same colouring.  Each child table is dropped
    as soon as its parent has read it; only the forget nodes' least-colour
    maps are kept.
    """
    g = inst.graph
    _require_nice(ntd, g)
    nodes = ntd.nodes
    order = _topo_order(ntd)
    palette = sorted(set().union(*inst.lists))
    code = {c: r + 1 for r, c in enumerate(palette)}
    bits = len(palette).bit_length()
    mask = (1 << bits) - 1
    slot = [0] * g.n
    for i in reversed(order):
        node = nodes[i]
        if node.kind == FORGET:
            held = {slot[u] for u in node.bag}
            k = 0
            while k in held:
                k += 1
            slot[node.vertex] = k
    off = [k * bits for k in slot]
    fresh = [[code[c] << o for c in l] for l, o in zip(inst.lists, off)]
    size = [len(l) for l in inst.lists]

    tables: dict[int, Collection[int]] = {}
    least: dict[int, dict[int, int]] = {}  # forget node -> state -> least child code
    for i in order:
        node = nodes[i]
        if node.kind == LEAF:
            table: Collection[int] = {0}
        elif node.kind == INTRODUCE:
            v = node.vertex
            o = off[v]
            table = {s | cs for s in tables.pop(node.children[0]) for cs in fresh[v]}
            for u in node.bag & g.neighbors(v):
                p = off[u]
                table = {s for s in table if (s >> p ^ s >> o) & mask}
        elif node.kind == INTRODUCE_EDGE:
            table = tables.pop(node.children[0])
        elif node.kind == FORGET:
            o = off[node.vertex]
            keep = ~(mask << o)
            best: dict[int, int] = {}
            for s in tables.pop(node.children[0]):
                p, c = s & keep, s >> o & mask
                if best.get(p, c + 1) > c:
                    best[p] = c
            least[i] = best
            table = best.keys()
        else:  # JOIN
            left, right = node.children
            table = tables.pop(left) & tables.pop(right)
        assert len(table) <= prod(map(size.__getitem__, node.bag)), (
            "state table exceeded the list-product bound"
        )
        tables[i] = table

    if 0 not in tables[ntd.root]:
        return None

    colors: dict[int, int] = {}
    stack = [(ntd.root, 0)]
    while stack:
        i, s = stack.pop()
        node = nodes[i]
        if node.kind == FORGET:
            c = least[i][s]
            colors[node.vertex] = palette[c - 1]
            s |= c << off[node.vertex]
        elif node.kind == INTRODUCE:
            s &= ~(mask << off[node.vertex])
        stack.extend((child, s) for child in node.children)
    assert check_list_coloring(inst, colors)
    return colors


def _pareto_minimal(table: dict[tuple[int, ...], object]) -> dict[tuple[int, ...], object]:
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


def dp_chosen_outdegree(
    inst: ChosenOutdegreeInstance, ntd: NiceTreeDecomposition
) -> Orientation | None:
    """Capped-orientation DP over the nice decomposition.

    A bag state carries each bag vertex's accumulated outgoing weight;
    introduce starts at 0, introduce_edge branches over the edge direction
    (smaller tail tried first) and prunes past the cap, forget drops the
    accumulator, join adds accumulators pointwise — sound because every edge
    is introduced exactly once.

    Dominance: after every introduce_edge, forget and join, a table keeps only
    its Pareto-minimal states (no other state is <= it in every coordinate).
    This is sound because caps are upper bounds and the nodes above only ever
    add to the accumulators: each edge is introduced exactly once, below the
    forget node of both its endpoints, so the edges still to come are the same
    for every state of a node.  If state s completes to an admissible
    orientation, the same choices complete any s' <= s pointwise without
    passing a cap.  Introduce needs no filter: appending a 0 coordinate keeps
    an antichain an antichain.  Pruning changes which states exist, not the
    verdict; a kept state's back-pointer is still the first one found.

    Join sorts the right table once.  For each left state s1 the right states
    that fit, s2 <= caps - s1 pointwise, all have a first coordinate within
    the slack, so they lie in the prefix of the lexicographic order found by
    bisection; only that prefix is walked, in sorted order.
    """
    g = inst.graph
    _require_nice(ntd, g)
    rho = inst.rho
    wmap = dict(zip(g.edges, inst.weights.weights))
    bags = _sorted_bags(ntd)
    order = _topo_order(ntd)
    tables: list[dict[tuple[int, ...], object]] = [None] * len(ntd.nodes)  # type: ignore[list-item]

    for i in order:
        node = ntd.nodes[i]
        bag = bags[i]
        if node.kind == LEAF:
            tables[i] = {(): None}
        elif node.kind == INTRODUCE:
            pos = bag.index(node.vertex)
            tables[i] = {
                s[:pos] + (0,) + s[pos:]: s for s in sorted(tables[node.children[0]])
            }
        elif node.kind == INTRODUCE_EDGE:
            u, v = canon(*node.edge)
            w = wmap[(u, v)]
            pu, pv = bag.index(u), bag.index(v)
            table: dict[tuple[int, ...], object] = {}
            for s in sorted(tables[node.children[0]]):
                if s[pu] + w <= rho[u]:
                    t = list(s)
                    t[pu] += w
                    table.setdefault(tuple(t), (s, u))
                if s[pv] + w <= rho[v]:
                    t = list(s)
                    t[pv] += w
                    table.setdefault(tuple(t), (s, v))
            tables[i] = _pareto_minimal(table)
        elif node.kind == FORGET:
            child_bag = bags[node.children[0]]
            pos = child_bag.index(node.vertex)
            table = {}
            for s in sorted(tables[node.children[0]]):
                table.setdefault(s[:pos] + s[pos + 1 :], s)
            tables[i] = _pareto_minimal(table)
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
            tables[i] = _pareto_minimal(table)
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
        node = ntd.nodes[i]
        if node.kind == LEAF:
            continue
        if node.kind == INTRODUCE:
            pos = bags[i].index(node.vertex)
            stack.append((node.children[0], s[:pos] + s[pos + 1 :]))
        elif node.kind == INTRODUCE_EDGE:
            child_state, tail = tables[i][s]
            e = canon(*node.edge)
            direction[e] = (tail, e[1] if tail == e[0] else e[0])
            stack.append((node.children[0], child_state))
        elif node.kind == FORGET:
            stack.append((node.children[0], tables[i][s]))
        else:  # JOIN
            s1, s2 = tables[i][s]
            stack.append((node.children[0], s1))
            stack.append((node.children[1], s2))
    lam = Orientation(g, direction)
    assert check_admissible(inst, lam)
    return lam


def min_max_outdegree(
    inst: MinMaxOutdegreeInstance, ntd: NiceTreeDecomposition
) -> Orientation | None:
    """Uniform-cap decision via the capped-orientation DP."""
    chosen = ChosenOutdegreeInstance(inst.graph, inst.weights, (inst.r,) * inst.graph.n)
    return dp_chosen_outdegree(chosen, ntd)


# --- uniform orientation --------------------------------------------------------

def min_max_orientation(g: Graph) -> tuple[int, Orientation]:
    """Least d such that some orientation of g has outdegree <= d at every
    vertex, with such an orientation, by path reversal (Asahiro, Miyano, Ono
    & Zenmyo 2007).

    Every edge starts as u -> v.  Reversing a directed path lowers the
    outdegree of its start by one, raises that of its end by one and leaves
    the rest alone, so each round runs one BFS along out-edges from all
    vertices of maximum outdegree d and reverses vertex-disjoint tree paths
    to vertices of outdegree <= d - 2.  When no such vertex is reached, the
    orientation is optimal (Frank & Gyarfas 1976): the set R reached keeps
    its out-edges inside, so G[R] has more than (d - 1)|R| edges and every
    orientation gives some vertex of R outdegree >= d.
    """
    out: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        out[u].add(v)
    while True:
        d = max(map(len, out), default=0)
        parent = {v: -1 for v in range(g.n) if len(out[v]) == d}
        queue = list(parent)
        ends = []
        for x in queue:  # grows while it is read: a BFS
            for y in out[x]:
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
                    if len(out[y]) <= d - 2:
                        ends.append(y)
        if not ends:
            break
        used: set[int] = set()
        for t in ends:
            path = [t]
            while parent[path[-1]] != -1:
                path.append(parent[path[-1]])
            if used.isdisjoint(path):
                used.update(path)
                for head, tail in zip(path, path[1:]):
                    out[tail].remove(head)
                    out[head].add(tail)
    lam = Orientation(g, [(u, v) if v in out[u] else (v, u) for u, v in g.edges])
    unit = EdgeWeighting(g, [1] * len(g.edges))
    assert check_minmax(MinMaxOutdegreeInstance(g, unit, max(d, 1), len(g.edges)), lam)
    return d, lam


def flow_min_max_uniform(g: Graph, c: int, weights: EdgeWeighting | None = None) -> int:
    """Minimum achievable maximum outgoing weight when every edge weighs c:
    c times the least maximum outdegree of min_max_orientation."""
    if c < 1:
        raise InputError(f"uniform weight must be positive, got {c}")
    if weights is not None and any(w != c for w in weights.weights):
        raise InputError("weighting is not uniform")
    return c * min_max_orientation(g)[0]
