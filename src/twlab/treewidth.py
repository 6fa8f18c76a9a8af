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

A nice decomposition has two kinds of node, forget and join, and no edge
nodes; a join introduces the part of its bag that its children lack, so
there are no leaf or introduce nodes.  It is stored flat: parallel lists of
kind, bag (an int bitmask), vertex and the two children, one entry per
node.  One writer, _write_nice, fills the lists from an elimination's order
and rests, for the graph the tree carries.  heuristic_nice feeds it the
min-fill (or min-degree) elimination, with no host tree; that is the tree
the DPs run on unless one is given.  to_nice feeds it the elimination it
reads off a given TreeDecomposition (a `--td` file, a gadget's witness).
The solvers read the lists, so building and walking a nice tree allocates
no tuple or set per node.  check_nice is the tests' oracle for the trees;
no solver calls it.
"""

from __future__ import annotations

import heapq
from collections.abc import Collection, Iterable
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


def _fill_in(g: Graph, order: list[int], rests: list[Collection[int]]) -> TreeDecomposition:
    """The decomposition of an elimination of g: rests[i] is the
    not-yet-eliminated neighbourhood of order[i] at its elimination, and the
    bag of position i is that plus order[i].  Each bag hangs under the bag of
    the earliest-eliminated vertex of its rest, and the bags with an empty
    rest are chained.  Valid for g by construction, so it carries g."""
    if g.n == 0:
        td = TreeDecomposition(Graph(1), [frozenset()])
    else:
        position = [0] * g.n
        for i, v in enumerate(order):
            position[v] = i
        tree_edges: list[tuple[int, int]] = []
        roots: list[int] = []  # positions with no later neighbour, chained below
        for i, rest in enumerate(rests):
            if rest:
                tree_edges.append((i, min(map(position.__getitem__, rest))))
            else:
                roots.append(i)
        tree_edges += zip(roots, roots[1:])
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

FORGET = "forget"
JOIN = "join"


def bits(mask: int) -> list[int]:
    """The set bits of mask (a bag's vertices) in ascending order, read from
    the top by bit_length: mask & -mask ANDs a negative int, slow when long."""
    out = []
    while mask:
        out.append(v := mask.bit_length() - 1)
        mask ^= 1 << v
    return out[::-1]


@dataclass(frozen=True)
class NiceTreeDecomposition:
    """Rooted normalized decomposition with two kinds of node: forget(v),
    whose one child's bag is its own bag plus v, and join, which has no
    child, a left child, or a left and a right child, each with a bag within
    its own, and introduces the rest of its bag.  There are no edge nodes.
    The nodes holding a vertex form a subtree, and v's forget is the parent
    of its top, so for each edge uv exactly one of the two forgets, that of
    the endpoint forgotten first, has the other endpoint in its child's bag:
    that forget is where a solver handles uv.  Nodes are stored children
    first: every child's id is smaller than its parent's, and the last node
    is the root, whose bag is empty.

    The store is flat, one list entry per node id: kind[i]; bag[i] as an
    int bitmask, bit v set iff v is in the bag; vertex[i], the forget
    payload (-1 at a join); left[i] and right[i], the children (-1 where
    there is none; a join with one child has only a left child).

    One writer makes one, _write_nice, fed by heuristic_nice and to_nice:
    the constructor takes the graph and makes the lists empty, and the
    writer fills them through add and joins.  So every nice tree is a nice
    tree of its `graph`, and the solvers compare graphs instead of checking
    it.
    """

    graph: Graph = field(compare=False, repr=False)
    kind: list[str] = field(default_factory=list, init=False)
    bag: list[int] = field(default_factory=list, init=False)
    vertex: list[int] = field(default_factory=list, init=False)
    left: list[int] = field(default_factory=list, init=False)
    right: list[int] = field(default_factory=list, init=False)

    @property
    def nodes(self) -> range:
        return range(len(self.kind))

    @property
    def root(self) -> int:
        return len(self.kind) - 1

    def width(self) -> int:
        return max(b.bit_count() for b in self.bag) - 1

    def add(self, kind: str, bag: int, vertex: int = -1, left: int = -1, right: int = -1) -> int:
        """Append a node and return its id."""
        self.kind.append(kind)
        self.bag.append(bag)
        self.vertex.append(vertex)
        self.left.append(left)
        self.right.append(right)
        return len(self.kind) - 1

    def joins(self, bag: int, children: list[int]) -> int:
        """Join children, already added, under bag and return the top: one
        join over none, one or two of them, a chain of joins left to right
        over three or more, and no join over one child whose bag is bag."""
        if len(children) == 1 and self.bag[children[0]] == bag:
            return children[0]
        node = self.add(JOIN, bag, -1, *children[:2])
        for other in children[2:]:
            node = self.add(JOIN, bag, -1, node, other)
        return node


def _write_nice(g: Graph, order: list[int], rests: Iterable[int]) -> NiceTreeDecomposition:
    """The nice tree of an elimination of g, bucket elimination (Dechter,
    AIJ 1999): order lists every vertex of g once, and rests gives for each
    position, as an int bitmask, the rest R of the vertex v eliminated
    there, the later vertices its bag holds besides it.  The elimination
    must fit g: for each edge, the end eliminated later is in the rest of
    the other, and for each R, all of R but its earliest-eliminated vertex
    u lies in u's rest.

    Position i gives the joins over {v} | R of the forgets that hang under
    i (see joins: none over a lone forget that has that bag already), then
    forget(v) down to R.  forget(v) hangs under the position of u, whose
    join holds R.  The forgets whose R is empty are joined under one root
    of empty bag, which covers n = 0, isolated vertices and forests.
    Positions are written in order, children before parents, so the result
    is a nice tree of g of width the largest |R|, and it carries g as its
    `graph`.
    """
    ntd = NiceTreeDecomposition(g)
    add, joins = ntd.add, ntd.joins
    position = [0] * g.n
    for i, v in enumerate(order):
        position[v] = i
    under: dict[int, list[int]] = {}  # position -> the forgets under it, until read; key n: the root's
    for i, (v, r) in enumerate(zip(order, rests)):
        forget = add(FORGET, r, v, joins(r | 1 << v, under.pop(i, [])))
        under.setdefault(min(map(position.__getitem__, bits(r))) if r else g.n, []).append(forget)
    joins(0, under.pop(g.n, []))
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
    (Bodlaender & Koster, Inf. Comput. 2010).  Each host bag mask is
    dropped once t is read, as its children were read before it.

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
    node that takes a vertex, whose join has that bag, so the width is
    width(td).
    """
    if td.graph is not g:
        check = validate(td, g)
        if not check.ok:
            raise InputError("invalid decomposition: " + "; ".join(check.violations[:3]))
    walk, parent = _walk(td.tree)  # rooted at node 0
    masks = [sum([1 << v for v in b]) for b in td.bags] + [0]  # index -1: the root's parent, empty
    order: list[int] = []
    rests: list[int] = []
    for t in reversed(walk):
        bag = masks[t]
        for v in bits(bag & ~masks[parent[t]]):
            bag ^= 1 << v
            order.append(v)
            rests.append(bag)
        masks[t] = 0
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
    order, rests = _greedy_elimination(g, method)
    return _write_nice(g, order, (sum([1 << u for u in rest]) for rest in rests))


def check_nice(ntd: NiceTreeDecomposition, g: Graph) -> Validity:
    """Structural checks for nice decompositions, read off the flat lists:
    the tests' oracle for _write_nice's trees.  A forget(v) has one child,
    whose bag is its own plus v; a join has no child, a left one, or a left
    and a right one, each with a bag within its own.  Children before
    parents, and every node but the last the child of one node, make the
    nodes a tree rooted at the last node, and validate on that tree checks
    the bags, each edge of g in some bag included."""
    if not ntd.kind:
        return Validity(("no nodes: a nice decomposition has at least its root",))
    violations = []
    bags = ntd.bag
    parents = [0] * len(bags)
    ordered = True
    for i, (kind, bag, x, left, right) in enumerate(zip(ntd.kind, bags, ntd.vertex, ntd.left, ntd.right)):
        children = tuple([c for c in (left, right) if c >= 0])
        if left >= i or right >= i:
            violations.append(f"node {i}: children {children} do not all come before it")
            ordered = False
            continue
        for c in children:
            parents[c] += 1
        if kind == FORGET:
            if children != (left,) or x < 0 or not bags[left] >> x & 1 or bag != bags[left] ^ 1 << x:
                violations.append(f"node {i}: bad forget of {x}")
        elif kind == JOIN:
            if left < 0 <= right:
                violations.append(f"node {i}: a join with one child must have it on the left")
            elif any(bags[c] & ~bag for c in children):
                violations.append(f"node {i}: a join's children must have bags within its own")
        else:
            violations.append(f"node {i}: unknown kind {kind}")
    strays = [i for i, p in enumerate(parents[:-1]) if p != 1]
    violations.extend(f"node {i} is the child of {parents[i]} nodes, not one" for i in strays)
    if bags[-1]:
        violations.append("root bag must be empty")
    if ordered and not strays:  # the nodes form a tree, so the flat host builds
        host = [(i, c) for i, lr in enumerate(zip(ntd.left, ntd.right)) for c in lr if c >= 0]
        flat = TreeDecomposition(Graph(len(bags), host), map(bits, bags))
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
