"""Solvers driven by nice tree decompositions, plus the path-reversal solver
for uniformly weighted orientation.

Both DP solvers run on one driver, _NiceDP.  Every nice tree comes from
the one writer of twlab.treewidth, fed by heuristic_nice (the DP path's own
tree, from the min-fill elimination) or by to_nice (a given
decomposition), so the driver checks only that the tree was built for the
graph solved on, not the tree itself.  The tree is an elimination tree:
one node per eliminated vertex v, with its rest R.  The driver gives each
vertex a fixed bag slot (_slots) and walks the positions in order, which
lists children first.  At each it builds two sparse tables of packed bag
states: the join, over {v} | R, folds the children's tables in order and
introduces what no child holds, and the forget drops v, leaving the
position's table over R.  It checks each table's size against its bound
(the product of its bag's bounds; a plain check, so it holds under
python -O), stops with no answer at the first empty table, and walks back
from each root (a position of empty rest).  There are no edge nodes: the
list DP drops colour clashes where it colours a vertex, and the
orientation DP applies each edge at the forget of the end eliminated
first.  Everything reads the nice tree's flat lists by position: a rest is
the ascending tuple of its vertices, and a vertex's neighbours in it are
those in its set of neighbours in the graph (Graph._adj), so no structure
indexed by vertex number is built per position.  A DP brings only its
encoding, a join and a forget handler and one back-step, each taking a
position; the back-steps read witnesses off back-pointers in the
orientation DP and least-colour maps in the list-colouring DP.  The
solvers do not check the witnesses they return: the harness (`twlab
verify`) and the CLI (`twlab solve`) check each yes-witness once with its
kind's checker.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Collection, Iterable
from functools import reduce
from itertools import groupby
from math import prod
from operator import and_

from twlab.errors import InputError
from twlab.graphs import Graph, Orientation, canon
from twlab.problems import ChosenOutdegreeInstance, ListColoringInstance, MinMaxOutdegreeInstance
from twlab.treewidth import (
    NiceTreeDecomposition,
    check_nice,  # noqa: F401  not called; test_tracer_restores_every_binding reads it here
)


def _require_nice(ntd: NiceTreeDecomposition, g: Graph) -> None:
    """Raise InputError unless ntd was built for a graph equal to g.  Only
    treewidth's one writer builds nice trees, and a tree it built for an
    equal graph is a nice tree of g."""
    if ntd.graph != g:
        raise InputError("invalid nice decomposition: built for another graph")


def _slots(ntd: NiceTreeDecomposition, n: int) -> list[int]:
    """Each vertex's bag slot: walking the positions parents first (from
    the last down to 0), the vertex v eliminated there takes the least slot
    not held by its rest, whose vertices are eliminated later and so hold
    slots already.  Each vertex is eliminated once, so the vertices of a
    bag hold distinct slots, at most width + 1 of them."""
    slot = [0] * n
    for v, rest in zip(reversed(ntd.vertex), reversed(ntd.bag)):
        held = 0  # bit k set iff slot k is held
        for u in rest:
            held |= 1 << slot[u]
        slot[v] = (~held & (held + 1)).bit_length() - 1  # the lowest clear bit
    return slot


class _NiceDP:
    """The driver both DPs run on.  The constructor checks that ntd was
    built for g and gives vertex v the bit offset off[v], its slot of _slots
    times slot_bits.  A DP builds its encoding over off, then its handlers
    over off and tables (position -> the table of packed states over its
    rest), and hands them to run.  Handlers and back-steps take positions
    and read the node's vertex, rest, children and new vertices off ntd's
    lists.  Each join reads only its children's tables, and pops them, or
    keeps them where its back-step reads them again."""

    def __init__(self, g: Graph, ntd: NiceTreeDecomposition, slot_bits: int):
        _require_nice(ntd, g)
        self.ntd = ntd
        self.off = [k * slot_bits for k in _slots(ntd, g.n)]
        self.tables: dict[int, Collection[int]] = {}

    def run(self, bound: list[int], join: Callable, forget: Callable, back: Callable) -> bool:
        """Position by position, children first: join(i) builds the table
        over {v} | R, folding the children's tables in order and then
        introducing new[i], and forget(i, joined) forgets v from it, which
        leaves position i's table over R.  A table over its cap raises
        AssertionError, under python -O too: the forget's cap is
        prod(bound[u] for u in R), every bound at least 1, and the join's
        is that times bound[v].  Every step maps an empty table to an empty
        one, so the first empty table fixes the answer: return False there,
        with it stored as position i's table (no forget runs on an empty
        join), the last in tables, and none built above it.  Otherwise
        every root's table, over the empty rest, must hold state 0; walk
        from each root, where back(i, s) records what position i adds to
        the witness and gives the states of its children in order, and
        return True."""
        ntd, tables = self.ntd, self.tables
        at = bound.__getitem__
        for i, (v, rest) in enumerate(zip(ntd.vertex, ntd.bag)):
            cap = prod(map(at, rest))
            table = join(i)
            if len(table) > cap * bound[v]:
                raise AssertionError("table over its bound")
            if table:
                table = forget(i, table)
                if len(table) > cap:
                    raise AssertionError("table over its bound")
            tables[i] = table
            if not table:
                return False
        stack = [(i, 0) for i in ntd.nodes if not ntd.bag[i]]
        if not all(0 in tables[i] for i, _ in stack):
            return False
        while stack:
            i, s = stack.pop()
            stack.extend(zip(ntd.children[i], back(i, s)))
        return True


def dp_list_coloring(inst: ListColoringInstance, ntd: NiceTreeDecomposition) -> dict[int, int] | None:
    """List coloring by DP over the nice decomposition, with each bag state
    packed into one int over the slots of _slots.

    Encoding: the union of all lists is sorted once into the palette, and
    palette[r] has code r + 1; code 0 marks an empty slot.  Each slot is
    len(palette).bit_length() bits wide, and v's slot starts at bit off[v].
    A join ORs code << off[u] in for each vertex u it introduces, forget
    masks v out, and a root's state is 0.  A table is a set of these ints
    (at a forget, the keys of its least-colour map).

    Filtering: a join colours the vertices it introduces one at a time, in
    ascending order, each from its list, and drops every state in which a
    bag vertex coloured before it, and adjacent to it, has its colour.  So
    every table holds only proper colourings of the graph induced on its
    bag, and as every edge lies in some bag, the tree needs no edge nodes.
    A join's cap is a product of list sizes, so every bound of the driver
    must be at least 1: an empty list answers None before any table.

    Join: position i over B = {v} | R starts from its first child's table,
    or from {0} over the empty bag when it has none.  It folds each further
    child in, in order: with the table so far T1 over X1, the union of the
    bags folded, and the child's T2 over X2, it indexes T2 by the colours
    on X1 & X2 and ORs each state of T1 with every state of T2 that agrees
    there (a natural join; Yannakakis, VLDB 1981), and drops the states
    that colour alike the ends of an edge between X1 - X2 and X2 - X1.  It
    then colours new[i], the vertices of B no child holds, as above.  That
    gives the proper colourings of G[B] that restrict into every child's
    table.

    Witness: forget keeps, for each projected state, the least colour code
    of v it saw, and the traceback rebuilds the joined state as
    s | code << off[v] and hands each child that state masked down to the
    child's rest.  The tuple DP that the tests keep as an oracle takes the
    first child state in sorted order, which has the least colour at v.  It
    drops clashes at forget instead, where v leaves its bag neighbours, so
    its tables also hold states colouring adjacent bag vertices alike; but
    the traceback only visits restrictions of the final, proper colouring,
    so at each visited forget both DPs pick the least of the same colours
    and return the same colouring.  Each table is dropped as soon as the
    join above it has read it; only the forgets' least-colour maps are
    kept.
    """
    g = inst.graph
    palette = sorted(set().union(*inst.lists))
    code = {c: r + 1 for r, c in enumerate(palette)}
    code_bits = len(palette).bit_length()
    mask = (1 << code_bits) - 1
    dp = _NiceDP(g, ntd, code_bits)
    if not all(inst.lists):
        return None
    off, tables = dp.off, dp.tables
    vertex, bag, children, new = ntd.vertex, ntd.bag, ntd.children, ntd.new
    adj = g._adj
    fresh = [[code[c] << o for c in l] for l, o in zip(inst.lists, off)]
    least: dict[int, dict[int, int]] = {}  # position -> state -> least code of its vertex
    held: dict[int, int] = {}  # position -> the state bits of its table's slots
    colors: dict[int, int] = {}

    def proper(table: set[int], v: int, nbrs: Iterable[int]) -> set[int]:
        """The states of table in which no vertex of nbrs has v's colour."""
        o = off[v]
        for u in nbrs:
            p = off[u]
            table = {s for s in table if (s >> p ^ s >> o) & mask}
        return table

    def join(i: int) -> Collection[int]:
        kids = children[i]
        table, h = (tables.pop(kids[0]), held[kids[0]]) if kids else ({0}, 0)
        have = set(bag[kids[0]]) if len(kids) > 1 else set()  # X1, the vertices folded in
        for c in kids[1:]:
            key = h & held[c]  # the slots of X1 & X2, as bag vertices hold distinct slots
            h |= held[c]
            index: dict[int, list[int]] = {}
            for s in tables.pop(c):
                index.setdefault(s & key, []).append(s)
            table = {s | t for s in table for t in index.get(s & key, ())}
            only2 = [u for u in bag[c] if u not in have]
            for u in have.difference(bag[c]):  # the edges between X1 - X2 and X2 - X1
                nu = adj[u]
                table = proper(table, u, [x for x in only2 if x in nu])
            have.update(only2)
        introduced, whole = new[i], (vertex[i], *bag[i])
        for v in introduced:  # its coloured bag neighbours: all but the new ones after it
            h |= mask << off[v]
            table = {s | cs for s in table for cs in fresh[v]}
            nv = adj[v]
            table = proper(table, v, [u for u in whole if u in nv and (u < v or u not in introduced)])
        held[i] = h  # the slots of {v} | R; forget masks v's out
        return table

    def forget(i: int, joined: Collection[int]) -> Collection[int]:
        o = off[vertex[i]]
        keep = ~(mask << o)
        best: dict[int, int] = {}
        for s in joined:
            p, c = s & keep, s >> o & mask
            if best.get(p, c + 1) > c:
                best[p] = c
        least[i] = best
        held[i] &= keep
        return best.keys()

    def back(i: int, s: int) -> list[int]:
        c = least[i][s]
        v = vertex[i]
        colors[v] = palette[c - 1]
        s |= c << off[v]
        return [s & held[k] for k in children[i]]

    if not dp.run([len(l) for l in inst.lists], join, forget, back):
        return None
    return colors


def _minimal_states(
    table: dict[int, object], guard: int, vmask: int, offs: Iterable[int]
) -> dict[int, object]:
    """The entries of table that no other state bounds pointwise, for states
    packed as in dp_chosen_outdegree.  Up to 64 states, each is guard-tested
    against the minimal ones kept so far, in ascending order, as only a
    smaller int can bound it: on small tables that beats a pass per field.
    But a test per pair takes over a minute per solve on the wide pc-chosen
    gadgets (35k states, 33k minimal), so larger tables go a field at a time,
    by bitsets of the states whose field is <= x for each value x: the AND
    of a state's bitsets is the set of states <= it, only itself iff minimal.
    """
    if len(table) <= 64:
        kept = []
        for b in sorted(table):
            bg = b | guard
            for a in kept:
                if (bg - a) & guard == guard:
                    break
            else:
                kept.append(b)
    else:
        bitsets = []
        for o in offs:
            field = [k >> o & vmask for k in table]
            at = field.__getitem__
            digits = bytearray(b"0") * len(field)  # in binary, state i is digit ~i
            upto = {}
            for x, tied in groupby(sorted(range(len(field)), key=at), key=at):
                for i in tied:
                    digits[~i] = 49  # "1"
                upto[x] = int(digits, 2)
            bitsets.append(list(map(upto.__getitem__, field)))
        kept = [k for i, k in enumerate(table) if reduce(and_, [b[i] for b in bitsets]) == 1 << i]
    return table if len(kept) == len(table) else {k: table[k] for k in kept}


def dp_chosen_outdegree(
    inst: ChosenOutdegreeInstance, ntd: NiceTreeDecomposition
) -> Orientation | None:
    """Capped-orientation DP over the nice decomposition, with each bag
    state packed into one int over the slots of _slots.

    Encoding: a slot is vb + 1 bits, vb = max(rho).bit_length(): v's
    accumulated outgoing weight in the low vb bits from off[v], then a guard
    bit that is 0 in every state.  No accumulator passes its cap, so every
    field is below 2^vb; for two such states a and b and G the bag's guard
    bits, each slot of (b | G) - a holds 2^vb + b_v - a_v, in [1, 2^(vb+1)):
    no borrow crosses a slot, and ((b | G) - a) & G == G iff a <= b pointwise.
    G is taken once per solve, over every slot rather than the bag's: a slot
    no bag vertex holds is 0 in both states, so it reads 2^vb in (b | G) - a,
    its guard bit set, and the test is the same.

    Positions: the join of a position without children has the one state
    0, and that of a position with one child is its child's table, as the
    slots it introduces are 0.  With more children it folds them in, in
    order, each fold adding a state s1 of the table so far and a state s2
    of the child's, sound as every edge is applied once.  For an s1 the
    child's states that fit, s2 <= caps - s1 pointwise with caps over
    {v} | R, are <= caps - s1 as ints (the difference borrows nowhere), so
    bisection bounds them in the child's sorted table and the guard test
    with b = caps - s1 picks them out.  Forget(v) first applies each edge from v to a neighbour u in its
    rest (each edge once: see NiceTreeDecomposition), by ascending u, into
    a table of its own (state -> tail): for the edge ab, a < b, it adds w at
    a to the states that keep a within its cap, then w at b where that gives
    a new state.  Forget then masks v's slot out.  A count of the edges
    applied short of the graph's raises AssertionError, by a plain raise
    that holds under python -O; a run that stopped at an empty table adds
    the edges of the forgets it did not build.

    Dominance: only forget filters, keeping the Pareto-minimal states of its
    table once its edges are applied and v's slot is masked out.  Caps are
    upper bounds, the steps above a position only add to the accumulators,
    and the edges still to come are the same for every state of a table
    (each is applied at one forget), so the choices that complete a state s
    complete any s' <= s as well.  Each step is monotone: if s >= m, m is
    feasible wherever s is and its images are <= those of s.  So
    min(op(S)) = min(op(min S)): every table's minimal states are those a
    filter after every step and every edge would keep.

    Witness: the sorted-tuple DP that the tests keep as an oracle, on the
    four-kind form of the tree (each fold a binary join), applies the edges
    at forget too, filters after every node and every edge, and its
    back-pointers are the first found while walking the states before each
    step in tuple order.  The traceback visits only minimal states: 0 at
    each root is one, and were a visited state's preimage c above some m of
    its table, the same step from m would give a smaller state.  So each
    back-pointer is read among the oracle's states, and three tie-breaks
    pick the oracle's one.  Edge ab: t - w at a and t - w at b agree before
    a and the first is smaller at a, so tail a wins where it can, as adding
    at a first gives.  Fold: s1 fixes s2 = t - s1, and the states s1 are
    walked in tuple order over {v} | R.  Forget's projection: preimages
    differ only at v and are written in descending order, so the least is
    kept.  It is minimal, as a state below it would have the same minimal
    projection and a smaller v field: it is the one preimage in the
    oracle's antichain.
    """
    g, rho = inst.graph, inst.rho
    vb = max(rho, default=0).bit_length()
    vmask = (1 << vb) - 1
    dp = _NiceDP(g, ntd, vb + 1)
    off, tables = dp.off, dp.tables  # tables: state -> back-pointer, kept for the traceback
    vertex, bag, children = ntd.vertex, ntd.bag, ntd.children
    guard = sum(1 << o + vb for o in set(off))  # every slot's guard bit
    weights = inst.weights
    adj = g._adj
    at = {e: t for t, e in enumerate(g.edges)}  # edge -> its index in g.edges
    tails: dict[int, dict[int, int]] = {}  # edge index -> state -> tail, kept for the traceback
    folds: dict[int, list[dict[int, int]]] = {}  # position -> per fold, state -> its s1
    direction = list(g.edges)  # aligned with g.edges; the traceback sets each
    applied = 0  # edges applied so far
    last = -1  # the last forget built

    def ends(i: int) -> list[int]:
        """The neighbours of position i's vertex in its rest, ascending:
        the other ends of the edges its forget applies."""
        nv = adj[vertex[i]]
        return [u for u in bag[i] if u in nv]

    def apply(child: Collection[int], a: int, b: int, w: int) -> dict[int, int]:  # state -> tail
        ma, la, wa = vmask << off[a], rho[a] - w << off[a], w << off[a]
        mb, lb, wb = vmask << off[b], rho[b] - w << off[b], w << off[b]
        table = {s + wa: a for s in child if s & ma <= la}  # none if w > rho[a]
        for s in child:
            if s & mb <= lb:
                table.setdefault(s + wb, b)
        return table

    def join(i: int) -> Collection[int]:
        kids = children[i]
        if not kids:
            return {0}
        table = tables[kids[0]]
        if len(kids) == 1:
            return table
        whole = sorted((vertex[i], *bag[i]))
        caps = sum(rho[v] << off[v] for v in whole)
        offs = [off[v] for v in whole]
        steps = folds[i] = []
        for c in kids[1:]:
            adds = sorted(tables[c])
            sofar = table
            if len(sofar) > 1:  # in the tuple oracle's order: fields by ascending vertex
                sofar = sorted(sofar, key=lambda s: [s >> o & vmask for o in offs])
            table = {}
            for s1 in sofar:
                top = caps - s1 | guard
                for s2 in adds[: bisect_right(adds, caps - s1)]:
                    if (top - s2) & guard == guard:
                        table.setdefault(s1 + s2, s1)
            steps.append(table)
        return table

    def forget(i: int, joined: Collection[int]) -> dict[int, int]:  # back-pointer: the state after the edges at v
        nonlocal applied, last
        v = vertex[i]
        last = i
        for u in ends(i):
            e = canon(u, v)
            j = at[e]
            joined = tails[j] = apply(joined, *e, weights[j])
            applied += 1
        keep = ~(vmask << off[v])
        if len(joined) <= 1:
            return {s & keep: s for s in joined}
        table = {s & keep: s for s in sorted(joined, reverse=True)}
        return _minimal_states(table, guard, vmask, map(off.__getitem__, bag[i]))

    def back(i: int, s: int) -> list[int]:
        t = tables[i][s]
        v = vertex[i]
        for u in reversed(ends(i)):  # the edges at v, last applied first
            j = at[canon(u, v)]
            tail = tails[j][t]
            direction[j] = (tail, u + v - tail)
            t -= weights[j] << off[tail]
        if not children[i]:
            return []
        later = []  # the states of the children after the first, last first
        for step in reversed(folds.get(i, ())):
            later.append(t - step[t])
            t = step[t]
        return [t, *reversed(later)]

    found = dp.run([r + 1 for r in rho], join, forget, back)
    # a run that stops at an empty table builds no forget above it: count
    # the edges those would apply, so the check reads the whole tree
    applied += sum(len(ends(i)) for i in range(last + 1, len(vertex)))
    if applied != len(g.edges):
        raise AssertionError(f"the nice tree applies {applied} of the graph's {len(g.edges)} edges")
    return Orientation(g, direction) if found else None


def min_max_outdegree(
    inst: MinMaxOutdegreeInstance, ntd: NiceTreeDecomposition
) -> Orientation | None:
    """The capped-orientation DP: every cap of inst is r."""
    return dp_chosen_outdegree(inst, ntd)


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
    return d, Orientation(g, [(u, v) if v in out[u] else (v, u) for u, v in g.edges])


def flow_min_max_uniform(g: Graph, c: int) -> int:
    """Minimum achievable maximum outgoing weight when every edge weighs c:
    c times the least maximum outdegree of min_max_orientation."""
    if c < 1:
        raise InputError(f"uniform weight must be positive, got {c}")
    return c * min_max_orientation(g)[0]
