"""Simple undirected graphs with balanced partitions and edge orientations.

Vertices are dense 0-based integers.  Edges are stored canonically with the
smaller endpoint first; all maps keyed by edges use the canonical form.  All
values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from twlab.errors import InputError, decoding, require_at_most

Edge = tuple[int, int]

# Largest vertex count a JSON graph (or decomposition tree) may state.  It is
# checked before the graph is built, as Graph allocates a set per vertex;
# see problems.DEFAULT_WEIGHT_CEILING for the other input ceilings.
VERTEX_CEILING = 10**5


def canon(u: int, v: int) -> Edge:
    """Canonical form of the edge {u, v}: smaller endpoint first."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertices 0..n-1.

    Loops, duplicate edges, and out-of-range endpoints are rejected at
    construction time.
    """

    n: int
    edges: tuple[Edge, ...]
    _adj: tuple[frozenset[int], ...] = field(repr=False, compare=False, default=())

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise InputError(f"vertex count must be non-negative, got {n}")
        canonical: list[Edge] = []
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise InputError(f"loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            au = adj[u]
            if v in au:
                raise InputError(f"duplicate edge {canon(u, v)}")
            au.add(v)
            adj[v].add(u)
            canonical.append((u, v) if u < v else (v, u))
        canonical.sort()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(canonical))
        # A tuple made from a generator, by tuple() or by *-unpacking into a
        # call, is grown by resizing, which takes no tuple from CPython's free
        # lists although freeing it adds it there, so over many small graphs
        # those lists fill up; a tuple made from a list is allocated once.
        object.__setattr__(self, "_adj", tuple([frozenset(a) for a in adj]))

    @property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u] if 0 <= u < self.n else False

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range for n={self.n}")

    def _check_vertex_set(self, xs) -> frozenset[int]:
        xs = frozenset(xs)
        for v in xs:
            self._check_vertex(v)
        return xs


@dataclass(frozen=True)
class PartitionedGraph:
    """A k-partite graph with equal-size parts and no intra-part edges.

    Parts are stored as sorted tuples; the position of a vertex inside its
    sorted part is its member rank, used by generators and reductions.
    """

    graph: Graph
    parts: tuple[tuple[int, ...], ...]

    def __init__(self, graph: Graph, parts):
        # a list, not a generator: see Graph._adj
        parts = tuple([tuple(sorted(p)) for p in parts])
        seen: set[int] = set()
        for p in parts:
            for v in p:
                graph._check_vertex(v)
                if v in seen:
                    raise InputError(f"vertex {v} appears in two parts")
                seen.add(v)
        if len(seen) != graph.n:
            raise InputError("parts do not cover every vertex")
        sizes = {len(p) for p in parts}
        if len(sizes) > 1:
            raise InputError(f"parts must have equal sizes, got {sorted(len(p) for p in parts)}")
        owner = {v: i for i, p in enumerate(parts) for v in p}
        for u, v in graph.edges:
            if owner[u] == owner[v]:
                raise InputError(f"edge ({u},{v}) lies inside part {owner[u]}")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "parts", parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def part_size(self) -> int:
        return len(self.parts[0]) if self.parts else 0


@dataclass(frozen=True)
class Orientation:
    """A direction (tail, head) for every edge of a companion graph."""

    graph: Graph
    direction: tuple[Edge, ...]  # aligned with graph.edges; each a reordering of its edge

    def __init__(self, graph: Graph, direction):
        direction = tuple([tuple(d) for d in direction])
        if len(direction) != len(graph.edges):
            raise InputError(
                f"{len(direction)} directions for {len(graph.edges)} edges"
            )
        for e, d in zip(graph.edges, direction):
            if d != e and d != (e[1], e[0]):
                raise InputError(f"direction {d} is not an ordering of edge {e}")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "direction", direction)


def is_clique(g: Graph, s) -> bool:
    """True iff every unordered pair in s is an edge of g (vacuously true
    for |s| <= 1)."""
    s = sorted(g._check_vertex_set(s))
    return all(g.has_edge(u, v) for i, u in enumerate(s) for v in s[i + 1 :])


def all_outdegrees(g: Graph, weights, lam: Orientation) -> list[int]:
    """Weighted outdegree of every vertex in one pass; weights are aligned
    with g.edges."""
    out = [0] * g.n
    for d, wt in zip(lam.direction, weights):
        out[d[0]] += wt
    return out


# --- JSON wire format -------------------------------------------------------
#
# {"n": int, "edges": [[u,v],...]} with u < v; optional "weights" aligned
# with "edges" (an orientation instance's, written by problems.KINDS);
# optional "parts"; optional "orientation" ([tail, head] pairs aligned with
# "edges").

def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def graph_from_json(obj: dict) -> Graph:
    with decoding("graph object", obj):
        require_at_most("vertex count", obj["n"], VERTEX_CEILING)
        return Graph(obj["n"], [tuple(e) for e in obj["edges"]])


def partitioned_to_json(pg: PartitionedGraph) -> dict:
    obj = graph_to_json(pg.graph)
    obj["parts"] = [list(p) for p in pg.parts]
    return obj


def partitioned_from_json(obj: dict) -> PartitionedGraph:
    g = graph_from_json(obj)
    with decoding("partitioned graph object", obj):
        return PartitionedGraph(g, [tuple(p) for p in obj["parts"]])


def orientation_to_json(lam: Orientation) -> dict:
    obj = graph_to_json(lam.graph)
    obj["orientation"] = [list(d) for d in lam.direction]
    return obj
