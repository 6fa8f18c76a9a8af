import itertools
import random
import signal
from contextlib import contextmanager

import pytest

from twlab.graphs import Graph
from twlab.problems import ListColoringInstance, check_list_coloring
from twlab.solvers import _require_nice, _sorted_bags, _topo_order
from twlab.treewidth import (
    FORGET,
    INTRODUCE,
    INTRODUCE_EDGE,
    LEAF,
    NiceTreeDecomposition,
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


def tuple_list_coloring_dp(inst: ListColoringInstance, ntd: NiceTreeDecomposition) -> dict[int, int] | None:
    """Reference list colouring: the DP over bag states as sorted tuples that
    solvers.dp_list_coloring replaced, kept as an oracle for its witnesses.

    A bag state assigns each bag vertex a color from its list; introduce
    branches over the fresh vertex's list, introduce_edge discards states
    coloring the endpoints equally, forget projects, join keeps states
    present on both sides.
    """
    g = inst.graph
    _require_nice(ntd, g)
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
            palette = sorted(inst.lists[node.vertex])
            table: dict[tuple[int, ...], object] = {}
            for s in sorted(tables[node.children[0]]):
                for c in palette:
                    table.setdefault(s[:pos] + (c,) + s[pos:], s)
            tables[i] = table
        elif node.kind == INTRODUCE_EDGE:
            u, v = node.edge
            pu, pv = bag.index(u), bag.index(v)
            tables[i] = {
                s: s for s in sorted(tables[node.children[0]]) if s[pu] != s[pv]
            }
        elif node.kind == FORGET:
            child_bag = bags[node.children[0]]
            pos = child_bag.index(node.vertex)
            table = {}
            for s in sorted(tables[node.children[0]]):
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
        node = ntd.nodes[i]
        if node.kind == LEAF:
            continue
        if node.kind == INTRODUCE:
            pos = bags[i].index(node.vertex)
            stack.append((node.children[0], s[:pos] + s[pos + 1 :]))
        elif node.kind == INTRODUCE_EDGE:
            stack.append((node.children[0], s))
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


@contextmanager
def within_seconds(seconds: int, what: str):
    """Raise TimeoutError if the block runs past `seconds` (SIGALRM); the
    previous handler is restored afterwards."""

    def out_of_time(signum, frame):
        raise TimeoutError(f"{what} ran past {seconds} s")

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
