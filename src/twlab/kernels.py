"""Search kernels: the four hot loops behind the brute-force oracles and
exact treewidth.

Every search is deterministic:

* orient_search returns the lexicographically first admissible direction
  vector (edge i contributes digit 0 when its tail is the smaller endpoint,
  1 otherwise; edge index is the most significant digit).
* list_color_search colors vertices in the order 0..n-1 of its (pre-permuted)
  input, trying each vertex's palette in the given order; first success wins.
* gensat_search returns the lexicographically first satisfying assignment
  (variable 0 most significant, value 0 before 1).
* exact_treewidth expands a level's sets in the order they were reached,
  each by its missing vertices in increasing index; a set keeps the first
  parent of least value.  The first set to close an order at the final
  width wins, its missing vertices following in increasing index; when
  nothing beats the given bound, the bound's order is returned.
"""

from __future__ import annotations

from twlab.errors import GuardError

BACKEND = "python"  # the name benchmark results record for this implementation


def orient_search(n, eu, ev, w, rho):
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


def list_color_search(n, adj_offsets, adj_targets, pal_offsets, pal_values):
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


def gensat_search(num_vars, scope_offsets, scope_vars, tup_offsets, tup_masks):
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


def exact_treewidth(n, adj_masks, upper=None):
    """Exact treewidth by a level-by-level DP over elimination prefixes,
    pruned by an upper bound (Bodlaender, Fomin, Koster, Kratsch & Thilikos,
    On exact algorithms for treewidth, 2012).

    The value of a set S of eliminated vertices is the least width of an
    elimination prefix on S:
        TW(S) = min over v in S of max(TW(S \\ v), back-degree of v given S \\ v)
    where the back-degree counts vertices outside S reachable from v through
    S \\ v.  Level i holds the sets of size i whose value is below the best
    width known so far, which starts at `upper` = (width, order) of some
    elimination order ((n - 1, 0..n-1) when omitted).  Each of the n - |S|
    vertices left after S has back-degree at most n - |S| - 1, so S closes an
    order of width max(TW(S), n - |S| - 1); when that beats the best width it
    becomes the new bound, and once n - |S| - 1 <= TW(S) no extension of S can
    do better.  Returns (treewidth, elimination order); n = 0 gives (-1, []).
    Graphs above 26 vertices raise GuardError before any DP runs.
    """
    if n > 26:
        raise GuardError(f"exact treewidth supports at most 26 vertices (graph has {n})")
    best, order = upper if upper is not None else (n - 1, range(n))
    full = (1 << n) - 1
    last = {}  # set -> the vertex eliminated last in its best prefix
    closed = None  # the set that closed the best order found, if any
    level = {0: -1}
    for size in range(n + 1):
        nxt = {}
        for s, value in level.items():
            width = max(value, n - size - 1)
            if width < best:
                best, closed = width, s
            if value >= best:
                continue
            rest = full ^ s
            while rest:
                vbit = rest & -rest
                rest ^= vbit
                v = vbit.bit_length() - 1
                q = _back_degree(adj_masks, v, s)
                if q < value:
                    q = value
                t = s | vbit
                if q < nxt.get(t, best):
                    nxt[t] = q
                    last[t] = v
        level = nxt
    if closed is None:
        return best, list(order)
    prefix = []
    s = closed
    while s:
        v = last[s]
        prefix.append(v)
        s ^= 1 << v
    prefix.reverse()
    return best, prefix + [v for v in range(n) if not closed >> v & 1]


def _back_degree(adj_masks, v, inside):
    """Vertices outside `inside` (and != v) reachable from v via `inside`."""
    reach = adj_masks[v]
    frontier = reach & inside
    seen = frontier
    while frontier:
        nxt = 0
        rest = frontier
        while rest:
            ubit = rest & -rest
            rest ^= ubit
            nxt |= adj_masks[ubit.bit_length() - 1]
        reach |= nxt
        frontier = nxt & inside & ~seen
        seen |= frontier
    return (reach & ~inside & ~(1 << v)).bit_count()
