import itertools
import random
import signal
from bisect import bisect_right
from contextlib import contextmanager
from itertools import groupby
from operator import add, le

import pytest

from twlab.graphs import Graph, Orientation, canon
from twlab.problems import (
    ChosenOutdegreeInstance,
    ListColoringInstance,
    check_admissible,
    check_list_coloring,
)
from twlab.solvers import _order_and_slots, _require_nice
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


def _sorted_bags(ntd: NiceTreeDecomposition) -> list[tuple[int, ...]]:
    return [tuple(sorted(n.bag)) for n in ntd.nodes]


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
    order, _ = _order_and_slots(ntd, g.n)
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


def tuple_pareto_minimal(table: dict[tuple[int, ...], object]) -> dict[tuple[int, ...], object]:
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


def tuple_chosen_outdegree_dp(
    inst: ChosenOutdegreeInstance, ntd: NiceTreeDecomposition
) -> Orientation | None:
    """Reference capped orientation: the DP over bag states as sorted tuples
    that solvers.dp_chosen_outdegree replaced, kept as an oracle for its
    witnesses.

    A bag state carries each bag vertex's accumulated outgoing weight;
    introduce starts at 0, introduce_edge branches over the edge direction
    (smaller tail tried first) and prunes past the cap, forget drops the
    accumulator, join adds accumulators pointwise.  After every
    introduce_edge, forget and join a table keeps only its Pareto-minimal
    states; a kept state's back-pointer is the first one found.  Join sorts
    the right table once and walks, per left state, only the prefix whose
    first coordinate is within the slack.
    """
    g = inst.graph
    _require_nice(ntd, g)
    rho = inst.rho
    wmap = dict(zip(g.edges, inst.weights.weights))
    bags = _sorted_bags(ntd)
    order, _ = _order_and_slots(ntd, g.n)
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
            tables[i] = tuple_pareto_minimal(table)
        elif node.kind == FORGET:
            child_bag = bags[node.children[0]]
            pos = child_bag.index(node.vertex)
            table = {}
            for s in sorted(tables[node.children[0]]):
                table.setdefault(s[:pos] + s[pos + 1 :], s)
            tables[i] = tuple_pareto_minimal(table)
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
            tables[i] = tuple_pareto_minimal(table)
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
