"""Search kernels: the backtracking driver, the three searches behind the
brute-force oracles that run through it, and exact treewidth.

backtrack is the one depth-first loop of all seven brute-force searches in
twlab: these three, and the equitable, general-factor, partitioned-clique
and clique searches in twlab.problems.  list_color_search serves two
oracles, list coloring and precoloring extension.  The stack is a list, so search depth is
bounded by memory, not by Python's recursion limit.

Every search is deterministic:

* orient_search returns the lexicographically first admissible direction
  vector (edge i contributes digit 0 when its tail is the first endpoint of
  edges[i], 1 otherwise; edge index is the most significant digit).
* list_color_search colors vertices in the order 0..n-1 of its (pre-permuted)
  input, trying each vertex's palette in the given order; first success wins.
* gensat_search returns the lexicographically first satisfying assignment
  (variable 0 most significant, value 0 before 1).  Its per-constraint
  bitsets of compatible tuples prune exactly the branches a scan of the
  tuples would, so they change its speed, not its witness.  The supports
  it ANDs in come with each relation, built once when the relation is.
* exact_treewidth expands a level's sets in the order they were reached,
  each by its missing vertices in increasing index; a set keeps the first
  parent of least value.  The first set to close an order at the final
  width wins, its missing vertices following in increasing index; when
  nothing beats the given bound, the bound's order is returned.
"""

from __future__ import annotations

from twlab.errors import GuardError

BACKEND = "python"  # the name benchmark results record for this implementation

_ONCE = (None,)  # iter(_ONCE) is the one branch of a position already decided


def backtrack(depth, branches, accept=None):
    """Depth-first search over positions 0..depth-1 on an explicit stack.

    branches(i) returns an iterator over the live choices for position i:
    each step applies the next choice, and the step after it undoes that
    choice first.  A generator that yields while its choice is applied
    does this; so does iter() of a one-item tuple where the position's one
    choice is already applied.  The first full assignment that accept()
    takes (any, when accept is None) ends the search with True; its choices
    are left applied, so the caller's state is the witness.  Undo code must
    therefore not sit in a `finally` block.  Returns False once every
    branch is exhausted, with every choice undone.
    """
    if depth == 0:
        return accept is None or accept()
    stack = [branches(0)]
    while stack:
        for _ in stack[-1]:
            break
        else:
            stack.pop()
            continue
        if len(stack) < depth:
            stack.append(branches(len(stack)))
        elif accept is None or accept():
            return True
    return False


def orient_search(n, edges, w, rho):
    """Find an orientation with per-vertex outgoing weight caps.

    Edge i is the pair edges[i] = (u, v) of weight w[i]; rho caps the total
    weight a vertex may emit.  Returns a list of directions (0: tail u,
    1: tail v) or None when no admissible orientation exists.

    Depth-first search over edges in index order with unit-propagation:
    an undecided edge too heavy for one endpoint's remaining budget is forced
    toward the other; an edge too heavy for both prunes the branch.  An edge
    already forced when the search reaches it has a single branch, a
    one-item iterator that costs no generator.  Each
    vertex keeps its incident edges heaviest first, so a push stops at the
    first edge that fits the residual: a hub costs the edges it forces, not
    its degree.  Unit propagation reaches the same closure in any order.
    """
    m = len(edges)
    residual = list(rho)
    dirs = [-1] * m
    incident: list[list[int]] = [[] for _ in range(n)]
    for i in sorted(range(m), key=w.__getitem__, reverse=True):  # stable: ties by index
        u, v = edges[i]
        incident[u].append(i)
        incident[v].append(i)
    trail: list[int] = []  # decided edges, in decision order

    def propagate(stack: list[int]) -> bool:
        while stack:
            z = stack.pop()
            room = residual[z]  # forcing edges away from z leaves it unchanged
            for f in incident[z]:
                wf = w[f]
                if wf <= room:
                    break  # so does every lighter edge
                if dirs[f] != -1:
                    continue
                d = 1 if edges[f][0] == z else 0  # the tail must be the other end
                tail = edges[f][d]
                if residual[tail] < wf:
                    return False
                dirs[f] = d
                residual[tail] -= wf
                trail.append(f)
                stack.append(tail)
        return True

    def choices(e: int):
        we = w[e]
        for d, tail in enumerate(edges[e]):
            if residual[tail] >= we:
                mark = len(trail)
                dirs[e] = d
                residual[tail] -= we
                trail.append(e)
                if propagate([tail]):
                    yield
                while len(trail) > mark:  # undo e and what it forced
                    f = trail.pop()
                    residual[edges[f][dirs[f]]] += w[f]
                    dirs[f] = -1

    def branches(e: int):
        return iter(_ONCE) if dirs[e] != -1 else choices(e)

    # the initial propagation catches edges infeasible from the start
    if propagate(list(range(n))) and backtrack(m, branches):
        return dirs
    return None


def list_color_search(adj, palettes):
    """Backtracking list coloring over vertices 0..n-1 in index order.

    adj[v] lists v's neighbours and palettes[v] its colors (positive ints)
    in the order they are tried.  A color is tried against already-colored
    neighbors; after each assignment, forward checking fails the branch as
    soon as an uncolored neighbor has no live color left (prunes dead
    branches only, so the first witness is unaffected).  Returns the color
    list or None.
    """
    colors = [0] * len(adj)  # 0 = uncolored

    def alive(u: int) -> bool:
        nbrs = adj[u]
        for c in palettes[u]:
            for x in nbrs:
                if colors[x] == c:
                    break
            else:
                return True
        return False

    def branches(v: int):
        nbrs = adj[v]
        taken = {colors[u] for u in nbrs}  # fixed while v branches
        for c in palettes[v]:
            if c not in taken:
                colors[v] = c
                for u in nbrs:
                    if colors[u] == 0 and not alive(u):
                        break
                else:
                    yield
                colors[v] = 0

    return colors if backtrack(len(adj), branches) else None


def gensat_search(num_vars, scopes, supports):
    """Backtracking search for a satisfying 0/1 assignment.

    Constraint j has the distinct scope variables scopes[j] and supports[j],
    as problems.BooleanRelation builds them once per relation: per scope
    position p, the bitsets (zero, one) of the relation's tuples (bit i for
    tuple i) with entry p = 0 and = 1.  A partial assignment survives iff
    every constraint still has a compatible tuple.

    Constraint j keeps alive[j], a bitset of its tuples still compatible
    with the assignment, at first all of them (zero | one at position 0;
    the arity is at least 1): simple tabular reduction in its bitset form
    (Ullmann 2007; Compact-Table, Demeulenaere et al., CP 2016).  Setting
    x = val ANDs the matching supports into the words of the constraints
    that hold x, as saved when the search reached x, and leaving x restores
    them.  A branch is pruned exactly when one of those words drops to 0,
    the test a scan of the tuples makes ("no compatible tuple left"), so the
    search tree and the witness are the scan's.
    """
    alive = []
    narrows = [([], ([], [])) for _ in range(num_vars)]  # x -> its constraints, supports per value
    for j, (scope, sup) in enumerate(zip(scopes, supports)):
        alive.append(sup[0][0] | sup[0][1])
        for x, (zero, one) in zip(scope, sup):
            js, (if_0, if_1) = narrows[x]
            js.append(j)
            if_0.append(zero)
            if_1.append(one)
    if not all(alive):
        return None

    values = [0] * num_vars

    def branches(x: int):
        js, by_value = narrows[x]
        saved = [alive[j] for j in js]
        for val, support in enumerate(by_value):
            for j, a, s in zip(js, saved, support):
                a &= s
                if not a:
                    break
                alive[j] = a
            else:
                values[x] = val
                yield
        for j, a in zip(js, saved):
            alive[j] = a
        values[x] = 0

    return values if backtrack(num_vars, branches) else None


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
