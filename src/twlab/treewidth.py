"""Tree decompositions: validation, width, construction (heuristic, exact,
fill-in from an elimination order), and the nice form consumed by the DP
solvers, built from an elimination or normalized from a decomposition.

The heuristic runs fill-in once: the greedy elimination already holds each
vertex's not-yet-eliminated neighbourhood when it picks the vertex, and that
neighbourhood plus the vertex is its bag.  Its neighbourhoods are int
bitmasks, and each elimination adjusts the scores it changes instead of
rescoring.  A decomposition built by heuristic_decomposition or
from_elimination_order carries the graph object it was built for, and
to_nice trusts it for that very object without validating it again; every
other decomposition (hand-built, written by a reduction, read from JSON, or
paired with an equal but distinct graph) is validated.

A nice decomposition is the elimination tree of an elimination: one node
per eliminated vertex v, whose bag is v plus its rest R (the later
vertices the bag holds), and whose children are the nodes whose rest has v
as its earliest-eliminated vertex.  A DP joins the children's tables over
{v} | R, introducing what no child holds, and forgets v.  There are no
node kinds, no edge nodes and no join chains.  It is stored flat: parallel
lists of vertex, rest (an ascending tuple), children and the vertices a
node introduces, one entry per node.  One writer, _write_nice, fills the
lists from an elimination's order and rests, for the graph the tree
carries; _parents gives it, and _fill_in, the one rule that hangs each
position under another.  heuristic_nice feeds it the min-fill (or
min-degree) elimination's rest lists, with no host tree; that is the tree
the DPs run on unless one is given.  to_nice feeds it the elimination it
reads off the frozenset bags of a given TreeDecomposition (a `--td` file, a
gadget's witness).  So a node costs its bag, not n: only the eliminations
(min-fill, from_elimination_order, exact_treewidth) hold int bitmasks
indexed by vertex number.  check_nice is the tests' oracle for the trees;
no solver calls it.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass, field

from twlab import kernels
from twlab.errors import GuardError, InputError, decoding, require_at_most
from twlab.graphs import VERTEX_CEILING, Graph

EXACT_DEFAULT_LIMIT = 18


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed by the nodes of a host tree.

    The constructor only checks shape (one bag per node, non-negative vertex
    ids); whether the host is a tree and the bags cover the decomposed graph
    is the job of validate(), which reports violations instead of raising.

    `graph` is the graph object the elimination builders made it for, valid
    by construction; every other decomposition carries None.
    """

    tree: Graph
    bags: tuple[frozenset[int], ...]
    graph: Graph | None = field(default=None, init=False, compare=False, repr=False)

    def __init__(self, tree: Graph, bags):
        # a list, not a generator: see graphs.Graph._adj
        bags = tuple([frozenset(b) for b in bags])
        if len(bags) != tree.n:
            raise InputError(f"{len(bags)} bags for {tree.n} tree nodes")
        for b in bags:
            for v in b:
                if v < 0:
                    raise InputError(f"negative vertex {v} in a bag")
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "bags", bags)


@dataclass(frozen=True)
class Validity:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def width(td: TreeDecomposition) -> int:
    """Largest bag size minus one.  A single empty bag has width -1."""
    if not td.bags:
        raise InputError("decomposition has no bags")
    return max(len(b) for b in td.bags) - 1


def neighbour_masks(g: Graph) -> list[int]:
    """Each vertex's neighbourhood in g as an int bitmask, built anew on
    every call (a Graph caches none)."""
    return [sum(1 << u for u in ns) for ns in g._adj]


def bits(mask: int) -> list[int]:
    """The set bits of mask (a neighbourhood's vertices) in ascending order,
    read from the top by bit_length: mask & -mask ANDs a negative int, slow
    when long."""
    out = []
    while mask:
        out.append(v := mask.bit_length() - 1)
        mask ^= 1 << v
    return out[::-1]


def _walk(g: Graph) -> tuple[list[int], list[int]]:
    """Every vertex of g parents-first, each component from its least vertex,
    and each vertex's parent in that spanning forest (-1 at component roots)."""
    adj = g._adj
    parent = [-2] * g.n  # -2: not reached yet
    order: list[int] = []
    for root in range(g.n):
        if parent[root] != -2:
            continue
        parent[root] = -1
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in adj[v]:
                if parent[u] == -2:
                    parent[u] = v
                    stack.append(u)
    return order, parent


def validate(td: TreeDecomposition, g: Graph) -> Validity:
    """Check the two decomposition conditions against g, in time linear in
    the host tree, the bags and g.

    Structural problems with the host tree are reported first; otherwise each
    violation names the offending vertex or edge and the bags involved.  With
    the host rooted at node 0, a top of a vertex is a node holding it whose
    parent's bag lacks it (or the root); the nodes holding a vertex form a
    subtree iff it has exactly one top.  Edges then follow from the subtree
    lemma: two subtrees of a rooted tree meet iff the top of one lies in the
    other, so uv is covered iff v is in the bag of u's top or u in the bag
    of v's top.  A vertex with several tops is tested on each of them.
    """
    order, parent = _walk(td.tree)
    if len(td.tree.edges) != td.tree.n - 1 or parent.count(-1) != 1:
        return Validity(("host is not a tree (must be connected with |E| = |V| - 1)",))
    violations: list[str] = []
    n, bags = g.n, td.bags
    top: dict[int, int] = {}  # vertex -> its top, the least-indexed one if several
    more: dict[int, list[int]] = {}  # vertex -> its other tops
    for t, p in enumerate(parent):
        for v in bags[t] - bags[p] if p >= 0 else bags[t]:
            if v in top:
                more.setdefault(v, []).append(t)
            else:
                top[v] = t
    if top and max(top) >= n:
        violations.extend(
            f"bag {t} contains vertex {v} >= n={n}" for t, bag in enumerate(bags) for v in bag if v >= n
        )
    violations.extend(f"vertex {v} appears in no bag" for v in range(n) if v not in top)
    padded = bags + (frozenset(),)  # index -1: the bag of a vertex in none
    top_bag = [padded[top.get(v, -1)] for v in range(n)]
    for u, v in g.edges:
        if v in top_bag[u] or u in top_bag[v]:
            continue
        if any(v in bags[a] for a in more.get(u, ())) or any(u in bags[b] for b in more.get(v, ())):
            continue
        violations.append(f"edge ({u},{v}) is contained in no bag")
    if more:
        # each node's piece (the top it hangs from) per split vertex, parents first
        piece: dict[int, dict[int, int]] = {v: {} for v in more}
        for t in order:
            p = parent[t]
            for v in bags[t] & more.keys():
                piece[v][t] = piece[v][p] if p >= 0 and v in bags[p] else t
        for v in sorted(more):
            nodes = sorted(piece[v])
            first = piece[v][nodes[0]]
            stray = next(t for t in nodes if piece[v][t] != first)
            violations.append(
                f"vertex {v} occurs in disconnected tree nodes (e.g. bags {nodes[0]} and {stray})"
            )
    return Validity(tuple(violations))


def _parents(order: list[int], rests: Sequence[Collection[int]]) -> list[int]:
    """The elimination tree of an elimination (order, rests): each position
    i hangs under the position of the earliest-eliminated vertex of its
    rest, and a position whose rest is empty is a root (-1)."""
    position = [0] * len(order)
    for i, v in enumerate(order):
        position[v] = i
    return [min(map(position.__getitem__, rest)) if rest else -1 for rest in rests]


def _fill_in(g: Graph, order: list[int], rests: list[Collection[int]]) -> TreeDecomposition:
    """The decomposition of an elimination of g: rests[i] is the
    not-yet-eliminated neighbourhood of order[i] at its elimination, and the
    bag of position i is that plus order[i].  Each bag hangs under its
    parent in the elimination tree (_parents), and the bags with an empty
    rest are chained.  Valid for g by construction, so it carries g."""
    if g.n == 0:
        td = TreeDecomposition(Graph(1), [frozenset()])
    else:
        parents = _parents(order, rests)
        roots = [i for i, p in enumerate(parents) if p < 0]
        tree_edges = [(i, p) for i, p in enumerate(parents) if p >= 0] + list(zip(roots, roots[1:]))
        bags = [frozenset([v, *rest]) for v, rest in zip(order, rests)]
        td = TreeDecomposition(Graph(g.n, tree_edges), bags)
    object.__setattr__(td, "graph", g)
    return td


def from_elimination_order(g: Graph, order) -> TreeDecomposition:
    """Fill-in construction: bag of v = v plus its not-yet-eliminated
    neighborhood at elimination time; each bag hangs under the bag of the
    earliest-eliminated such neighbor, and the bags with none are chained."""
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise InputError("order is not a permutation of the vertices")
    mask = neighbour_masks(g)
    rests = []
    for v in order:
        rest = bits(mask[v])
        for a in rest:
            mask[a] = (mask[a] | mask[v]) & ~(1 << a | 1 << v)
        rests.append(rest)
    return _fill_in(g, order, rests)


def _greedy_elimination(g: Graph, method: str) -> tuple[list[int], list[list[int]]]:
    """Eliminate a vertex of least score (fill-in edges for min-fill, degree
    for min-degree) until none is left; ties go to the smallest vertex.
    Returns the order and, for each position, the eliminated vertex's
    not-yet-eliminated neighbourhood in ascending order, its rest, as
    _fill_in and heuristic_nice take them.

    Neighbourhoods are int bitmasks, and scores[u] always holds u's exact
    score (Bodlaender & Koster 2010): |N(u)| for min-degree, and for min-fill
    the number of non-adjacent pairs in N(u).  Eliminating v updates it,
    never recomputes it.  With N = N(v):
    - each a in N loses v, and the pairs {v, x} for x in N(a) - N;
    - each missing pair a < b in N becomes an edge: a gains the pairs {b, x}
      for x in N(a) - N(b), b likewise, and each common neighbour of a and
      b loses the missing pair {a, b}.
    Each vertex whose score changed gets one heap entry (score, u), and a
    popped entry that is out of date is skipped.  So a live entry exists for
    every current score, and the pop is the least (score, v), as if every
    score were computed anew at each step.
    """
    if method not in ("min-fill", "min-degree"):
        raise InputError(f"unknown method {method!r}")
    mask = neighbour_masks(g)
    fill = method == "min-fill"
    # a ∈ N(v) misses |N(v) & ~N(a)| - 1 vertices of N(v); each pair counts twice
    scores = [(sum([(m & ~mask[a]).bit_count() for a in ns]) - len(ns)) // 2 if fill else len(ns)
              for ns, m in zip(g._adj, mask)]
    heap = [(s, v) for v, s in enumerate(scores)]
    heapq.heapify(heap)
    order: list[int] = []
    rests: list[list[int]] = []
    while len(order) < g.n:
        s, v = heapq.heappop(heap)
        if scores[v] != s:
            continue
        scores[v] = -1  # -1 once eliminated
        order.append(v)
        nm, vb = mask[v], 1 << v
        rest = bits(nm)
        rests.append(rest)
        before = [scores[a] for a in rest]
        common = 0  # vertices that lost a missing pair
        for a in rest:
            ma = mask[a] ^ vb
            if fill:
                scores[a] -= (ma & ~nm).bit_count()
            else:
                ma = (ma | nm) ^ 1 << a
                scores[a] = ma.bit_count()
            mask[a] = ma
        if fill and len(rest) > 1:
            for a in rest:
                for b in bits(nm & ~mask[a] & -(2 << a)):  # missing partners b > a
                    ma, mb = mask[a], mask[b]
                    scores[a] += (ma & ~mb).bit_count()
                    scores[b] += (mb & ~ma).bit_count()
                    both = ma & mb
                    for u in bits(both):
                        scores[u] -= 1
                    common |= both
                    mask[a] = ma | 1 << b
                    mask[b] = mb | 1 << a
        for u in [a for a, s in zip(rest, before) if scores[a] != s] + bits(common & ~nm):
            heapq.heappush(heap, (scores[u], u))
    return order, rests


def heuristic_decomposition(g: Graph, method: str = "min-fill") -> TreeDecomposition:
    """Greedy elimination decomposition, min-fill or min-degree; fully
    deterministic (ties go to the smallest vertex).  Its bags are the
    neighbourhoods the elimination held, so fill-in runs once."""
    return _fill_in(g, *_greedy_elimination(g, method))


def exact_treewidth(g: Graph, limit: int = EXACT_DEFAULT_LIMIT) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with a witness decomposition, for small graphs only.

    Dynamic programming over elimination prefixes, pruned by the width of
    the min-fill order; refuses graphs larger than `limit` vertices (use the
    heuristics instead).
    """
    if g.n > limit:
        raise GuardError(
            f"exact treewidth is gated to {limit} vertices (graph has {g.n}); "
            "raise the limit or use heuristic_decomposition"
        )
    min_fill, rests = _greedy_elimination(g, "min-fill")
    upper = (max(map(len, rests), default=-1), min_fill)
    tw, order = kernels.exact_treewidth(g.n, neighbour_masks(g), upper)
    td = from_elimination_order(g, order)
    assert width(td) == tw, "witness width disagrees with the DP value"
    return tw, td


# --- nice form ---------------------------------------------------------------


@dataclass(frozen=True)
class NiceTreeDecomposition:
    """The elimination tree of an elimination of `graph`, one node per
    position i of the elimination, stored children first (every child's id
    is smaller than its parent's).  Node i eliminates vertex[i]: its bag is
    {vertex[i]} plus bag[i], the rest, and its children are the positions
    whose rest has vertex[i] as its earliest-eliminated vertex, each with a
    bag within {vertex[i]} | bag[i].  A DP joins them over that bag,
    introducing new[i], the vertices of it that no child's bag holds, and
    then forgets vertex[i] down to bag[i].  The positions of empty rest are
    the roots; a graph with no vertex has no node.

    The nodes holding a vertex form a subtree, and v's forget sits at its
    top, so for each edge uv exactly one of the two forgets, that of the
    endpoint eliminated first, has the other endpoint in its rest: that
    forget is where a solver handles uv.

    The store is flat, one list entry per position: vertex[i]; bag[i], the
    ascending tuple of the rest; children[i], in position order; and
    new[i], an ascending tuple.  No entry is indexed by vertex number, so a
    node costs its bag, not n.

    One writer makes one, _write_nice, fed by heuristic_nice and to_nice:
    the constructor takes the graph and makes the lists empty, and the
    writer appends each node's entries.  So every nice tree is a nice
    tree of its `graph`, and the solvers compare graphs instead of checking
    it.
    """

    graph: Graph = field(compare=False, repr=False)
    vertex: list[int] = field(default_factory=list, init=False)
    bag: list[tuple[int, ...]] = field(default_factory=list, init=False)
    children: list[list[int]] = field(default_factory=list, init=False)
    new: list[tuple[int, ...]] = field(default_factory=list, init=False)

    @property
    def nodes(self) -> range:
        return range(len(self.vertex))

    def width(self) -> int:
        """The largest |{vertex[i]} | bag[i]| - 1, and -1 with no node."""
        return max(map(len, self.bag), default=-1)


def _write_nice(g: Graph, order: list[int], rests: Iterable[Sequence[int]]) -> NiceTreeDecomposition:
    """The elimination tree of an elimination of g, bucket elimination
    (Dechter, AIJ 1999): order lists every vertex of g once, and rests gives
    for each position, in ascending order, the rest R of the vertex v
    eliminated there, the later vertices its bag holds besides it.  The
    elimination must fit g: for each edge, the end eliminated later is in
    the rest of the other, and for each R, all of R but its
    earliest-eliminated vertex u lies in u's rest.  So each child's bag lies
    within its parent's {v} | R, every edge within some node's, and the
    result is a nice tree of g of width the largest |R|; it carries g as its
    `graph`.
    """
    ntd = NiceTreeDecomposition(g)
    rests = [tuple(r) for r in rests]
    children = [[] for _ in order]
    for i, p in enumerate(_parents(order, rests)):
        if p >= 0:
            children[p].append(i)
    ntd.vertex.extend(order)
    ntd.bag.extend(rests)
    ntd.children.extend(children)
    for v, r, kids in zip(order, rests, children):
        k = bisect_left(r, v)
        whole = r[:k] + (v,) + r[k:]
        if kids:
            have = set().union(*[rests[c] for c in kids])
            whole = tuple([u for u in whole if u not in have])
        ntd.new.append(whole)
    return ntd


def to_nice(td: TreeDecomposition, g: Graph) -> NiceTreeDecomposition:
    """Normalize a valid decomposition of g to nice form of the same width.

    A decomposition the elimination builders made for this very graph object
    (td.graph is g) is trusted; any other is validated first, and one that
    fails validate raises InputError.  The host tree, rooted at node 0 and
    walked children first, is read as an elimination for _write_nice: each
    host node t eliminates the vertices whose top it is (those of its bag
    that its parent's bag lacks) in ascending order, and gives each such v
    as its rest the bag of t less v and less the vertices t took before v
    (Bodlaender & Koster, Inf. Comput. 2010), read off the frozenset bags.

    The elimination fits g.  The nodes holding a vertex form a subtree, so
    the tops of the vertices of a bag lie on the path from it up to the
    root, and the children-first walk takes the lower top's vertices first.
    Let v have top t and rest R, and let u be the earliest-eliminated vertex
    of R: its top t_u is t or above it.  Every other w in R has its top at
    t_u, taken after u, or above t_u; either way w is in the bag of t_u
    and not taken before u, so R - {u} lies in rest(u).  For an edge uv,
    held by some bag, with u eliminated first, v is in rest(u) in the same
    way.  Every rest lies within a bag, so no bag is wider than td's; and
    climbing from a largest bag while the parent's bag holds it ends at a
    node that takes a vertex, the first of which has that bag as {v} | R,
    so the width is width(td).
    """
    if td.graph is not g:
        check = validate(td, g)
        if not check.ok:
            raise InputError("invalid decomposition: " + "; ".join(check.violations[:3]))
    walk, parent = _walk(td.tree)  # rooted at node 0
    bags = td.bags + (frozenset(),)  # index -1: the root's parent, empty
    order: list[int] = []
    rests: list[tuple[int, ...]] = []
    for t in reversed(walk):
        tops = bags[t] - bags[parent[t]]
        if tops:
            rest = sorted(bags[t])
            for v in sorted(tops):
                rest.remove(v)
                order.append(v)
                rests.append(tuple(rest))
    ntd = _write_nice(g, order, rests)
    assert ntd.width() == width(td), "normalization changed the width"
    return ntd


def heuristic_nice(g: Graph, method: str = "min-fill") -> NiceTreeDecomposition:
    """The nice tree of heuristic_decomposition's elimination, written by
    _write_nice straight from its order and rests, with no host tree.  The
    elimination fits g: eliminating v makes its rest R a clique, so when
    the earliest-eliminated vertex u of R goes, the rest of R is still
    adjacent to it, and so is the later end of each edge at u.  The tree
    has heuristic_decomposition's width.
    """
    return _write_nice(g, *_greedy_elimination(g, method))


def check_nice(ntd: NiceTreeDecomposition, g: Graph) -> Validity:
    """Structural checks for nice decompositions, read off the flat lists:
    the tests' oracle for _write_nice's trees.  The nodes eliminate the
    vertices of g, each once, and every rest is a strictly ascending tuple
    without its node's vertex.  Every child comes before its parent and has
    a bag within the parent's {v} | R, and new lists, ascending, the
    vertices of {v} | R that no child's bag holds.  A node of empty rest is
    the child of none, every other node the child of exactly one, so the
    nodes form a forest whose roots have empty rests; validate, on that
    forest with one more node of empty bag over its roots, checks the bags,
    each edge of g in some bag included."""
    violations = []
    vertex, bags, children = ntd.vertex, ntd.bag, ntd.children
    if sorted(vertex) != list(range(g.n)):
        violations.append(f"the nodes must eliminate the graph's {g.n} vertices, each once")
    parents = [0] * len(bags)
    for i, (v, rest, kids, new) in enumerate(zip(vertex, bags, children, ntd.new)):
        if any(c >= i for c in kids):
            violations.append(f"node {i}: children {tuple(kids)} do not all come before it")
            continue
        for c in kids:
            parents[c] += 1
        whole = set(rest) | {v}
        have = set().union(*[bags[c] for c in kids])
        if any(a >= b for a, b in zip(rest, rest[1:])) or v in rest:
            violations.append(f"node {i}: rest {rest} is not strictly ascending without {v}")
        elif not have.issubset(whole):
            violations.append(f"node {i}: its children's bags must lie within its own")
        elif new != tuple(sorted(whole - have)):
            violations.append(f"node {i}: its new vertices must be those of its bag its children lack")
    violations.extend(f"node {i} of rest {bags[i]} is the child of {p} nodes"
                      for i, p in enumerate(parents) if p != bool(bags[i]))
    if not violations:  # the nodes form a forest, so the flat host builds
        m = len(bags)
        host = [(i, c) for i, kids in enumerate(children) for c in kids] + [(m, i) for i in ntd.nodes if not bags[i]]
        flat = TreeDecomposition(Graph(m + 1, host), [(v, *rest) for v, rest in zip(vertex, bags)] + [()])
        violations.extend(validate(flat, g).violations)
    return Validity(tuple(violations))


# --- JSON wire format --------------------------------------------------------
#
# {"nodes": int, "tree_edges": [[a,b],...], "bags": [[v,...],...]}

def decomposition_to_json(td: TreeDecomposition) -> dict:
    return {
        "nodes": td.tree.n,
        "tree_edges": [list(e) for e in td.tree.edges],
        "bags": [sorted(b) for b in td.bags],
    }


def decomposition_from_json(obj: dict) -> TreeDecomposition:
    with decoding("decomposition object", obj):
        require_at_most("tree node count", obj["nodes"], VERTEX_CEILING)
        tree = Graph(obj["nodes"], [tuple(e) for e in obj["tree_edges"]])
        return TreeDecomposition(tree, [frozenset(b) for b in obj["bags"]])
