"""Solvers driven by nice tree decompositions, plus the path-reversal solver
for uniformly weighted orientation.

Both DP solvers run on one driver, _NiceDP.  Every nice tree comes from
the one writer of twlab.treewidth, fed by heuristic_nice (the DP path's own
tree, from the min-fill elimination) or by to_nice (a given
decomposition), so the driver checks only that the tree was built for the
graph solved on, not the tree itself.  It gives each vertex a fixed bag slot
(_slots), fills one sparse table of packed bag states per node in index
order, which lists children first, checks each table's size against its
bound (a product carried up the walk; a plain check, so it holds under
python -O), tests the root table (the last node's) for the empty state and
walks back root-to-leaves.  A nice tree has forget and join nodes only,
and a join introduces the part of its bag its children lack.  It has no
edge nodes: the list DP drops colour clashes where it colours a vertex, and
the orientation DP applies each edge at the forget of the end forgotten
first.  Everything reads the nice tree's flat lists by node id: a bag is an
int bitmask whose vertices come by ascending bit, and a vertex's neighbours
in it are the bag ANDed with the vertex's adjacency mask, built per solve.
A DP brings only its encoding, one table handler per node kind and one
back-step, each taking a node id; the back-steps read witnesses off
back-pointers in the orientation DP and least-colour maps at forget nodes
in the list-colouring DP.  The solvers do not check the witnesses they
return: the harness
(`twlab verify`) and the CLI (`twlab solve`) check each yes-witness once
with its kind's checker.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Collection, Iterable
from functools import reduce
from itertools import groupby
from operator import and_

from twlab.errors import InputError
from twlab.graphs import Graph, Orientation, canon
from twlab.problems import ChosenOutdegreeInstance, ListColoringInstance, MinMaxOutdegreeInstance
from twlab.treewidth import (
    FORGET,
    JOIN,
    NiceTreeDecomposition,
    bits,
    check_nice,  # noqa: F401  not called; test_tracer_restores_every_binding reads it here
    neighbour_masks,
)


def _require_nice(ntd: NiceTreeDecomposition, g: Graph) -> None:
    """Raise InputError unless ntd was built for a graph equal to g.  Only
    treewidth's one writer builds nice trees, and a tree it built for an
    equal graph is a nice tree of g."""
    if ntd.graph != g:
        raise InputError("invalid nice decomposition: built for another graph")


def _slots(ntd: NiceTreeDecomposition, n: int) -> list[int]:
    """Each vertex's bag slot: walking the nodes parents first (from the
    root, the last node, down to node 0), the forget node of v gives v the
    least slot not held by the rest of its bag, whose vertices are forgotten
    higher up and so hold slots already.  Each vertex is forgotten once, so
    the vertices of a bag hold distinct slots, at most width + 1 of them."""
    slot = [0] * n
    kind, vertex, bag = ntd.kind, ntd.vertex, ntd.bag
    for i in reversed(range(len(kind))):
        if kind[i] == FORGET:
            held = 0  # bit k set iff slot k is held
            for u in bits(bag[i]):
                held |= 1 << slot[u]
            slot[vertex[i]] = (~held & (held + 1)).bit_length() - 1  # the lowest clear bit
    return slot


class _NiceDP:
    """The driver both DPs run on.  The constructor checks that ntd was
    built for g and gives vertex v the bit offset off[v], its slot of _slots
    times slot_bits.  A DP builds its encoding over off, then its handlers
    over off and tables (node id -> that node's table of packed bag
    states), and hands them to run.  Handlers and back-steps take node ids
    and read the node's kind, bag mask, vertex and children off ntd's
    lists.  Each handler reads only its children's tables, and pops them,
    or keeps them where its back-step reads them again."""

    def __init__(self, g: Graph, ntd: NiceTreeDecomposition, slot_bits: int):
        _require_nice(ntd, g)
        self.ntd = ntd
        self.off = [k * slot_bits for k in _slots(ntd, g.n)]
        self.tables: dict[int, Collection[int]] = {}

    def run(self, bound: list[int], step: dict[str, Callable], back: Callable) -> bool:
        """In index order, children first, step[FORGET](i) or
        step[JOIN](i, new) builds node i's table, new listing the bag
        vertices a join's children lack, ascending.  A table over cap[i] =
        prod(bound[v] for v in its bag) states raises AssertionError, under
        python -O too.  Every bound is at least 1; cap is carried up from
        the left child (1 without one): forget(v) divides by bound[v], a
        join multiplies by the bounds of the bag vertices its left child
        lacks (an XOR: a child's bag lies within its join's).  False if the
        root table lacks state 0.
        Otherwise walk root-to-leaves from state 0, where back(i, s) records
        what node i adds to the witness and gives the states of its children
        in order, and return True."""
        ntd, tables = self.ntd, self.tables
        kind, bag, vertex, left, right = ntd.kind, ntd.bag, ntd.vertex, ntd.left, ntd.right
        cap: list[int] = []
        for i, k in enumerate(kind):
            l, r = left[i], right[i]
            c = cap[l] if l >= 0 else 1
            if k == FORGET:
                table = step[k](i)
                c //= bound[vertex[i]]
            else:
                lacks = bits(bag[i] ^ bag[l] if l >= 0 else bag[i])
                for v in lacks:
                    c *= bound[v]
                table = step[k](i, lacks if r < 0 else bits(bag[i] ^ (bag[l] | bag[r])))
            if len(table) > c:
                raise AssertionError("table over its bound")
            cap.append(c)
            tables[i] = table
        if 0 not in tables[ntd.root]:
            return False
        stack = [(ntd.root, 0)]
        while stack:
            i, s = stack.pop()
            if left[i] >= 0:  # a join without children adds nothing
                t = back(i, s)
                stack.append((left[i], t[0]))
                if right[i] >= 0:
                    stack.append((right[i], t[1]))
        return True


def dp_list_coloring(inst: ListColoringInstance, ntd: NiceTreeDecomposition) -> dict[int, int] | None:
    """List coloring by DP over the nice decomposition, with each bag state
    packed into one int over the slots of _slots.

    Encoding: the union of all lists is sorted once into the palette, and
    palette[r] has code r + 1; code 0 marks an empty slot.  Each slot is
    len(palette).bit_length() bits wide, and v's slot starts at bit off[v].
    A join ORs code << off[v] in for each vertex v it introduces, forget
    masks it out, and the root state is 0.  A table is a set of these ints
    (at a forget node, the keys of its least-colour map).

    Filtering: a join colours the vertices it introduces one at a time, in
    ascending order, each from its list, and drops every state in which a
    bag vertex coloured before it, and adjacent to it, has its colour.  So
    every table holds only proper colourings of the graph induced on its
    bag, and as every edge lies in some bag, the tree needs no edge nodes.
    The driver's bound divides by a list's size at the forget of its
    vertex, so an empty list answers None before the walk.

    Join: over its bag B, a join starts from its left child's table T1 over
    bag X1, or from {0} over the empty bag when it has no child.  With a
    right child, table T2 over X2, it indexes T2 by the colours on X1 & X2
    and ORs each state of T1 with every state of T2 that agrees there (a
    natural join; Yannakakis, VLDB 1981), and drops the states that colour
    alike the ends of an edge between X1 - X2 and X2 - X1.  It then colours
    the vertices of B outside X1 | X2 as above.  That gives the proper
    colourings of G[B] that restrict into T1 and T2.

    Witness: forget keeps, for each projected state, the least colour code
    it saw, and the traceback rebuilds the child state as s | code << off[v];
    a join hands each child its state masked down to the child's bag.
    The tuple DP that the tests keep as an oracle takes the first child state
    in sorted order, which has the least colour at v.  It drops clashes at
    forget instead, where v leaves its bag neighbours, so its tables also
    hold states colouring adjacent bag vertices alike; but the traceback
    only visits restrictions of the final, proper colouring, so at each
    visited forget node both DPs pick the least of the same colours and
    return the same colouring.  Each table is dropped as
    soon as the node above it has read it; only the forget nodes'
    least-colour maps are kept.
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
    kind, vertex, bag, left, right = ntd.kind, ntd.vertex, ntd.bag, ntd.left, ntd.right
    adj = neighbour_masks(g)
    fresh = [[code[c] << o for c in l] for l, o in zip(inst.lists, off)]
    least: dict[int, dict[int, int]] = {}  # forget node -> state -> least child code
    held: dict[int, int] = {}  # node -> the state bits of its bag's slots
    colors: dict[int, int] = {}

    def proper(table: set[int], v: int, nbrs: Iterable[int]) -> set[int]:
        """The states of table in which no vertex of nbrs has v's colour."""
        o = off[v]
        for u in nbrs:
            p = off[u]
            table = {s for s in table if (s >> p ^ s >> o) & mask}
        return table

    def forget(i: int) -> Collection[int]:
        o = off[vertex[i]]
        keep = ~(mask << o)
        best: dict[int, int] = {}
        for s in tables.pop(left[i]):
            p, c = s & keep, s >> o & mask
            if best.get(p, c + 1) > c:
                best[p] = c
        least[i] = best
        held[i] = held[left[i]] & keep
        return best.keys()

    def join(i: int, new: list[int]) -> Collection[int]:
        l, r = left[i], right[i]
        table, h = (tables.pop(l), held[l]) if l >= 0 else ({0}, 0)
        if r >= 0:
            key = h & held[r]  # the slots of X1 & X2, as bag vertices hold distinct slots
            h |= held[r]
            index: dict[int, list[int]] = {}
            for s in tables.pop(r):
                index.setdefault(s & key, []).append(s)
            table = {s | t for s in table for t in index.get(s & key, ())}
            for u in bits(bag[l] & ~bag[r]):  # the edges between X1 - X2 and X2 - X1
                table = proper(table, u, bits(adj[u] & bag[r] & ~bag[l]))
        for v in new:  # its coloured bag neighbours: all but the new ones after it
            h |= mask << off[v]
            table = {s | cs for s in table for cs in fresh[v]}
            table = proper(table, v, [u for u in bits(bag[i] & adj[v]) if u < v or u not in new])
        held[i] = h
        return table

    def back(i: int, s: int) -> tuple[int, ...]:
        if kind[i] == FORGET:
            c = least[i][s]
            colors[vertex[i]] = palette[c - 1]
            return (s | c << off[vertex[i]],)
        return (s & held[left[i]],) if right[i] < 0 else (s & held[left[i]], s & held[right[i]])  # a join

    if not dp.run([len(l) for l in inst.lists], {FORGET: forget, JOIN: join}, back):
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

    Nodes: a join without children has the one state 0, and a join with
    one child passes its child's table through, as the slots it introduces
    are 0.  Forget(v) first applies each edge from v to a neighbour u in its
    child's bag (each edge once: see NiceTreeDecomposition), by ascending u,
    into a table of its own (state -> tail): for the edge ab, a < b, it adds
    w at a to the states that keep a within its cap, then w at b where that
    gives a new state.  A count of the edges applied short of the graph's
    raises AssertionError, by a plain raise that holds under python -O.
    Forget then masks v's slot out.  A join with two children adds a left
    and a right state, sound as every edge is applied once.  For a left
    state s1 the right states that fit, s2 <= caps - s1 pointwise, are
    <= caps - s1 as ints (the difference borrows nowhere), so bisection
    bounds them in the sorted right table and the guard test with
    b = caps - s1 picks them out.

    Dominance: only forget filters, keeping the Pareto-minimal states of its
    table once its edges are applied and v's slot is masked out.  Caps are
    upper bounds, the steps above a node only add to the accumulators, and
    the edges still to come are the same for every state of a node (each is
    applied at one forget), so the choices that complete a state s complete
    any s' <= s as well.  Each step is monotone: if s >= m, m is feasible
    wherever s is and its images are <= those of s.  So
    min(op(S)) = min(op(min S)): every table's minimal states are those a
    filter after every node and every edge would keep.

    Witness: the sorted-tuple DP that the tests keep as an oracle applies
    the edges at forget too, filters after every node and every edge, and
    its back-pointers are the first found while walking the states before
    each step in tuple order.  The traceback visits only minimal states: 0
    at the root is one, and were a visited state's preimage c above some m
    of its table, the same step from m would give a smaller state.  So each
    back-pointer is read among the oracle's states, and three tie-breaks
    pick the oracle's one.  Edge ab: t - w at a and t - w at b agree before
    a and the first is smaller at a, so tail a wins where it can, as adding
    at a first gives.  Join: s1 fixes s2 = t - s1, and left states are
    walked in tuple order.  Forget's projection: preimages differ only at v
    and are written in descending order, so the least is kept.  It is
    minimal, as a state below it would have the same minimal projection and
    a smaller v field: it is the one preimage in the oracle's antichain.
    """
    g, rho = inst.graph, inst.rho
    vb = max(rho, default=0).bit_length()
    vmask = (1 << vb) - 1
    dp = _NiceDP(g, ntd, vb + 1)
    off, tables = dp.off, dp.tables  # tables: state -> back-pointer, kept for the traceback
    kind, vertex, bag, left, right = ntd.kind, ntd.vertex, ntd.bag, ntd.left, ntd.right
    guard = sum(1 << o + vb for o in set(off))  # every slot's guard bit
    weights = inst.weights
    adj = neighbour_masks(g)
    at = {e: t for t, e in enumerate(g.edges)}  # edge -> its index in g.edges
    tails: dict[int, dict[int, int]] = {}  # edge index -> state -> tail, kept for the traceback
    direction = list(g.edges)  # aligned with g.edges; the traceback sets each
    applied = 0  # edges applied so far

    def apply(child: Collection[int], a: int, b: int, w: int) -> dict[int, int]:  # state -> tail
        ma, la, wa = vmask << off[a], rho[a] - w << off[a], w << off[a]
        mb, lb, wb = vmask << off[b], rho[b] - w << off[b], w << off[b]
        table = {s + wa: a for s in child if s & ma <= la}  # none if w > rho[a]
        for s in child:
            if s & mb <= lb:
                table.setdefault(s + wb, b)
        return table

    def forget(i: int) -> dict[int, object]:  # back-pointer: the state after the edges at v
        nonlocal applied
        v = vertex[i]
        child = tables[left[i]]
        for u in bits(bag[i] & adj[v]):
            e = canon(u, v)
            j = at[e]
            child = tails[j] = apply(child, *e, weights[j])
            applied += 1
        keep = ~(vmask << off[v])
        if len(child) <= 1:
            return {s & keep: s for s in child}
        table = {s & keep: s for s in sorted(child, reverse=True)}
        return _minimal_states(table, guard, vmask, map(off.__getitem__, bits(bag[i])))

    def join(i: int, new: list[int]) -> dict[int, object]:  # back-pointer: the left state
        if right[i] < 0:
            return tables[left[i]] if left[i] >= 0 else {0: None}
        caps = sum(rho[v] << off[v] for v in bits(bag[i]))
        rights = sorted(tables[right[i]])
        lefts = tables[left[i]]
        if len(lefts) > 1:  # in the tuple oracle's order: fields by ascending vertex
            offs = [off[v] for v in bits(bag[i])]
            lefts = sorted(lefts, key=lambda s: [s >> o & vmask for o in offs])
        table: dict[int, object] = {}
        for s1 in lefts:
            top = caps - s1 | guard
            for s2 in rights[: bisect_right(rights, caps - s1)]:
                if (top - s2) & guard == guard:
                    table.setdefault(s1 + s2, s1)
        return table

    def back(i: int, s: int) -> tuple[int, ...]:
        if kind[i] == JOIN and right[i] < 0:
            return (s,)
        t = tables[i][s]
        if kind[i] == JOIN:  # t is the left state
            return (t, s - t)
        v = vertex[i]
        for u in sorted(bits(bag[i] & adj[v]), reverse=True):  # the edges at v, last applied first
            j = at[canon(u, v)]
            tail = tails[j][t]
            direction[j] = (tail, u + v - tail)
            t -= weights[j] << off[tail]
        return (t,)

    found = dp.run([r + 1 for r in rho], {FORGET: forget, JOIN: join}, back)
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
