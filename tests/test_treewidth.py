import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    NiceNode,
    augment_with_set,
    complete,
    cycle,
    decompose_forest,
    decomposition_of_subset,
    decompositions_with_inserted_and_hung_bags,
    dp_pipeline_gadgets,
    elimination_route_nice,
    elimination_test_graphs,
    greedy_order,
    grid,
    induced_subgraph,
    nice_from_records,
    nice_records,
    path,
    petersen,
    relabel,
    search_forest_decomposition,
    search_validate,
    stack_rooting,
    star,
    subset_dp_treewidth,
    union_find_elimination_decomposition,
    verify_dp_instances,
    within_seconds,
)
from twlab import kernels, treewidth
from twlab.errors import GuardError, InputError
from twlab.graphs import Graph, canon
from twlab.reductions import ReductionOutput, certify
from twlab.treewidth import (
    FORGET,
    JOIN,
    NiceTreeDecomposition,
    TreeDecomposition,
    _greedy_elimination,
    check_nice,
    decomposition_from_json,
    decomposition_to_json,
    _walk,
    bits,
    exact_treewidth,
    from_elimination_order,
    heuristic_decomposition,
    heuristic_nice,
    to_nice,
    validate,
    width,
)


def random_graph(rng, n_max=9, p=0.4):
    n = rng.randint(1, n_max)
    return Graph(
        n,
        [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p],
    )


def band_graph(rng, n, band):
    """A path on a random labelling of n vertices, plus each other pair at
    most band apart along it with probability 0.15."""
    perm = rng.sample(range(n), n)
    return Graph(n, {
        canon(perm[i], perm[j])
        for i in range(n)
        for j in range(i + 1, min(n, i + band + 1))
        if j == i + 1 or rng.random() < 0.15
    })


class TestValidate:
    def test_single_bag_k3(self, triangle):
        td = TreeDecomposition(Graph(1), [{0, 1, 2}])
        assert validate(td, triangle).ok
        assert width(td) == 2

    def test_path_two_bags(self):
        td = TreeDecomposition(Graph(2, [(0, 1)]), [{0, 1}, {1, 2}])
        assert validate(td, path(3)).ok
        assert width(td) == 1

    def test_missing_edge_reported(self):
        td = TreeDecomposition(Graph(2, [(0, 1)]), [{0, 1}, {2}])
        check = validate(td, path(3))
        assert not check.ok
        assert any("edge (1,2)" in v for v in check.violations)

    def test_non_tree_host_reported_first(self, triangle):
        host = Graph(3, [(0, 1)])  # disconnected
        td = TreeDecomposition(host, [{0, 1, 2}, {0}, {1}])
        check = validate(td, triangle)
        assert not check.ok
        assert "not a tree" in check.violations[0]

    def test_disconnected_occurrences_reported(self):
        td = TreeDecomposition(Graph(3, [(0, 1), (1, 2)]), [{0}, {1}, {0}])
        check = validate(td, Graph(2, []))
        assert any("disconnected" in v for v in check.violations)

    def test_every_violation_in_order(self):
        g = Graph(5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)])
        host = Graph(4, [(0, 1), (1, 2), (2, 3)])
        td = TreeDecomposition(host, [{0, 1, 7}, {2}, {1}, {0, 2}])
        assert validate(td, g).violations == (
            "bag 0 contains vertex 7 >= n=5",
            "vertex 3 appears in no bag",
            "vertex 4 appears in no bag",
            "edge (0,4) is contained in no bag",
            "edge (1,2) is contained in no bag",
            "edge (2,3) is contained in no bag",
            "edge (3,4) is contained in no bag",
            "vertex 0 occurs in disconnected tree nodes (e.g. bags 0 and 3)",
            "vertex 1 occurs in disconnected tree nodes (e.g. bags 0 and 2)",
            "vertex 2 occurs in disconnected tree nodes (e.g. bags 1 and 3)",
        )


    def test_path_decomposition_of_a_hundred_thousand_nodes(self):
        """Linear time and memory: a quadratic per-vertex set of host nodes
        would not finish this within the limit."""
        n = 10**5
        td = TreeDecomposition(path(n - 1), [{i, i + 1} for i in range(n - 1)])
        broken = TreeDecomposition(td.tree, td.bags[:-1] + (frozenset({n - 1, 0}),))
        g = path(n)
        with within_seconds(5, "validate on a 10^5-node path decomposition"):
            assert validate(td, g).ok
            assert validate(broken, g).violations == (
                f"edge ({n - 2},{n - 1}) is contained in no bag",
                "vertex 0 occurs in disconnected tree nodes (e.g. bags 0 and 99998)",
            )


class TestWidth:
    def test_empty_bag(self):
        assert width(TreeDecomposition(Graph(1), [set()])) == -1

    def test_pair_bags(self):
        assert width(TreeDecomposition(Graph(2, [(0, 1)]), [{0, 1}, {1, 2}])) == 1

    def test_big_bag(self):
        assert width(TreeDecomposition(Graph(1), [set(range(8))])) == 7


class TestFromEliminationOrder:
    def test_path_order(self):
        td = from_elimination_order(path(3), [0, 2, 1])
        assert validate(td, path(3)).ok
        assert width(td) == 1

    def test_clique_any_order(self):
        td = from_elimination_order(complete(4), [2, 0, 3, 1])
        assert validate(td, complete(4)).ok
        assert width(td) == 3

    def test_cycle_fill_in(self):
        td = from_elimination_order(cycle(4), [0, 1, 2, 3])
        assert validate(td, cycle(4)).ok
        assert width(td) == 2

    def test_rejects_non_permutation(self):
        with pytest.raises(InputError):
            from_elimination_order(path(3), [0, 0, 1])

    def test_random_graphs_always_valid(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng)
            order = list(range(g.n))
            rng.shuffle(order)
            assert validate(from_elimination_order(g, order), g).ok


class TestHeuristics:
    @pytest.mark.parametrize("method", ["min-fill", "min-degree"])
    def test_tree_width_one(self, method):
        g = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        td = heuristic_decomposition(g, method)
        assert validate(td, g).ok
        assert width(td) == 1

    def test_k5(self):
        assert width(heuristic_decomposition(complete(5), "min-degree")) == 4

    def test_c4_min_fill(self):
        assert width(heuristic_decomposition(cycle(4), "min-fill")) == 2

    def test_unknown_method(self):
        with pytest.raises(InputError):
            heuristic_decomposition(path(2), "random")

    def test_valid_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(rng)
            for method in ("min-fill", "min-degree"):
                assert validate(heuristic_decomposition(g, method), g).ok


def quadratic_greedy_order(g, method):
    """Reference elimination: every score recomputed from scratch at every
    step.  Returns the order and, per position, the eliminated vertex's
    not-yet-eliminated neighbourhood in ascending order (the filled graph's
    neighbourhood of that vertex when it is eliminated)."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    order, rests = [], []
    while adj:
        if method == "min-degree":
            crit = {v: len(ns) for v, ns in adj.items()}
        else:  # min-fill
            crit = {
                v: sum(1 for a in ns for b in ns if a < b and b not in adj[a])
                for v, ns in adj.items()
            }
        best = min(crit.values())
        v = min(v for v, c in crit.items() if c == best)
        order.append(v)
        ns = adj.pop(v)
        rests.append(sorted(ns))
        for a in ns:
            adj[a] |= ns - {a}
            adj[a].discard(v)
    return order, rests


@st.composite
def elimination_graphs(draw):
    """Graphs on up to 30 vertices: a drawn edge set, or a star or complete
    bipartite graph (many tied scores), under a drawn labelling."""
    n = draw(st.integers(0, 30))
    shape = draw(st.sampled_from(("drawn", "star", "bipartite")))
    if shape == "drawn":
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    elif shape == "star":
        edges = {(0, b) for b in range(1, n)}
    else:
        s = draw(st.integers(0, n))
        edges = {(a, b) for a in range(s) for b in range(s, n)}
    perm = draw(st.permutations(range(n)))
    return Graph(n, {canon(perm[a], perm[b]) for a, b in edges})


class TestGreedyOrder:
    @pytest.mark.parametrize("method", ["min-fill", "min-degree"])
    def test_matches_quadratic_oracle(self, method):
        # many fill edges and tied scores, for this test only
        rng = random.Random(29)
        extra = [grid(6, 30), band_graph(rng, 200, 5), band_graph(rng, 200, 5)]
        for g in elimination_test_graphs() + extra:
            assert _greedy_elimination(g, method) == quadratic_greedy_order(g, method)

    @settings(max_examples=60, deadline=None)
    @given(elimination_graphs())
    def test_matches_quadratic_oracle_on_drawn_graphs(self, g):
        for method in ("min-fill", "min-degree"):
            assert _greedy_elimination(g, method) == quadratic_greedy_order(g, method)

    def test_grid_6x400_within_budget(self):
        """Min-fill and to_nice on the 6x400 grid, 2,400 vertices, stay far
        from quadratic time: 0.09-0.11 s measured on a shared Xeon core with
        Python 3.11, where the quadratic versions took about 18 s."""
        g = grid(6, 400)
        with within_seconds(10, "min-fill and to_nice on the 6x400 grid"):
            td = heuristic_decomposition(g, "min-fill")
            ntd = to_nice(td, g)
        assert width(td) == ntd.width() == 7 and check_nice(ntd, g).ok
        assert ntd.kind.count(FORGET) == g.n and len(ntd.nodes) < 2 * g.n


class TestExact:
    def test_p4(self):
        assert exact_treewidth(path(4))[0] == 1

    def test_c4(self):
        assert exact_treewidth(cycle(4))[0] == 2

    def test_petersen(self):
        value, td = exact_treewidth(petersen())
        assert value == 4
        assert validate(td, petersen()).ok
        assert width(td) == 4

    def test_guard(self):
        with pytest.raises(GuardError):
            exact_treewidth(Graph(20, []), limit=18)

    def test_matches_subset_dp_oracle(self):
        rng = random.Random(61)
        graphs = [random_graph(rng, n_max=12, p=rng.choice((0.2, 0.35, 0.5, 0.7)))
                  for _ in range(220)]
        graphs += [complete(n) for n in range(1, 8)] + [cycle(n) for n in range(3, 11)]
        graphs += [petersen(), grid(4, 4), Graph(0), Graph(5)]
        for g in graphs:
            expected = subset_dp_treewidth(g)
            value, td = exact_treewidth(g)
            assert value == expected
            assert validate(td, g).ok and width(td) == value
            # the kernel alone, bounded only by n - 1, where min-fill cannot help
            masks = [sum(1 << u for u in g.neighbors(v)) for v in g.vertices()]
            value, order = kernels.exact_treewidth(g.n, masks)
            assert value == expected
            assert width(from_elimination_order(g, order)) == value

    def test_n18_within_budget(self):
        """Three seeded n=18, p=0.4 graphs (the unpruned DP took about 6 s
        for each)."""
        rng = random.Random(18)
        graphs = [
            Graph(18, [(i, j) for i in range(18) for j in range(i + 1, 18) if rng.random() < 0.4])
            for _ in range(3)
        ]
        with within_seconds(10, "exact treewidth on three n=18 graphs"):
            results = [exact_treewidth(g) for g in graphs]
        for g, (value, td) in zip(graphs, results):
            assert validate(td, g).ok and width(td) == value
            assert value <= width(heuristic_decomposition(g, "min-fill"))

    def test_heuristics_never_beat_exact(self):
        rng = random.Random(77)
        for _ in range(25):
            g = random_graph(rng, n_max=8)
            exact, _ = exact_treewidth(g)
            for method in ("min-fill", "min-degree"):
                assert width(heuristic_decomposition(g, method)) >= exact


class TestAugment:
    def test_empty_set_identity(self, triangle):
        td = TreeDecomposition(Graph(1), [{0, 1, 2}])
        assert augment_with_set(td, set(), triangle) == td

    def test_k3_from_edge(self, triangle):
        td = TreeDecomposition(Graph(1), [{0, 1}])
        out = augment_with_set(td, {2}, triangle)
        assert validate(out, triangle).ok
        assert width(out) == 2

    def test_invalid_base_fails_certification(self, triangle):
        """augment_with_set does not validate its base; certifying the
        result against g rejects a base that misses an edge of g - xs."""
        td = TreeDecomposition(Graph(1), [{0}])  # misses vertex 1, edge (0,1)
        out = augment_with_set(td, {2}, triangle)
        assert not validate(out, triangle).ok
        violations = certify(ReductionOutput(None, out, 2, (), triangle))
        assert "witness: edge (0,1) is contained in no bag" in violations

    def test_random_bound(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_graph(rng, n_max=9)
            xs = {v for v in range(g.n) if rng.random() < 0.3}
            td = decomposition_of_subset(g, xs)
            out = augment_with_set(td, xs, g)
            assert validate(out, g).ok
            assert width(out) <= width(td) + len(xs)


class TestDecomposeForest:
    def test_edgeless(self):
        g = Graph(4, [])
        td = decompose_forest(g)
        assert validate(td, g).ok
        assert width(td) == 0

    def test_single_edge(self):
        td = decompose_forest(path(2))
        assert validate(td, path(2)).ok
        assert width(td) == 1

    def test_two_paths(self):
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        td = decompose_forest(g)
        assert validate(td, g).ok
        assert width(td) == 1

    def test_cycle_rejected_with_edge_named(self):
        with pytest.raises(InputError, match=r"cycle through edge \(\d+,\d+\)"):
            decompose_forest(cycle(3))


class TestToNice:
    def test_single_edge_chain(self):
        g = path(2)
        td = TreeDecomposition(Graph(1), [{0, 1}])
        ntd = to_nice(td, g)
        assert check_nice(ntd, g).ok
        assert ntd.kind == ["join", "forget", "forget"]

    def test_width_preserved_on_c4(self):
        g = cycle(4)
        td = heuristic_decomposition(g, "min-fill")
        ntd = to_nice(td, g)
        assert ntd.width() == width(td) == 2
        assert check_nice(ntd, g).ok

    def test_every_edge_has_one_forget_whose_child_bag_holds_its_other_end(self):
        # the forget of the endpoint forgotten first, where the orientation
        # DP applies the edge; on both heuristics' trees and on a validated
        # decomposition built by the reference fill-in from a random order
        rng = random.Random(9)
        for _ in range(30):
            g = random_graph(rng, n_max=10)
            order = rng.sample(range(g.n), g.n)
            hand_built = union_find_elimination_decomposition(g, order)
            assert hand_built.graph is None and validate(hand_built, g).ok
            for td in (heuristic_decomposition(g, "min-fill"), heuristic_decomposition(g, "min-degree"), hand_built):
                ntd = to_nice(td, g)
                assert check_nice(ntd, g).ok
                found = [canon(x, u) for i, x in enumerate(ntd.vertex) if ntd.kind[i] == "forget"
                         for u in g.neighbors(x) if ntd.bag[ntd.left[i]] >> u & 1]
                assert sorted(found) == list(g.edges)

    def test_invalid_decomposition_rejected(self, triangle):
        with pytest.raises(InputError):
            to_nice(TreeDecomposition(Graph(1), [{0, 1}]), triangle)

    def test_flattening_is_valid(self):
        g = cycle(5)
        nodes = nice_records(to_nice(heuristic_decomposition(g), g))
        host = Graph(len(nodes), [(i, c) for i, node in enumerate(nodes) for c in node.children])
        assert validate(TreeDecomposition(host, [node.bag for node in nodes]), g).ok

    @pytest.mark.parametrize("method", ["min-fill", "min-degree"])
    def test_children_come_first_and_the_last_node_is_the_root(self, method):
        for g in elimination_test_graphs():
            ntd = to_nice(heuristic_decomposition(g, method), g)
            nodes = nice_records(ntd)
            assert all(c < i for i, node in enumerate(nodes) for c in node.children)
            assert ntd.root == len(nodes) - 1 and nodes[-1].bag == frozenset()

    def test_check_nice_reports_an_empty_node_tuple(self):
        check = check_nice(NiceTreeDecomposition(Graph(0)), Graph(0))
        assert not check.ok and "no nodes" in check.violations[0]

    def test_check_nice_refuses_a_join_child_outside_its_bag_and_a_lone_right_child(self):
        g = path(2)
        nodes = [NiceNode(JOIN, frozenset({0, 1}), ()),
                 NiceNode(JOIN, frozenset({0}), (0,)),
                 NiceNode(FORGET, frozenset(), (1,), vertex=0)]
        assert check_nice(nice_from_records(g, nodes), g).violations == (
            "node 1: a join's children must have bags within its own",
        )
        nodes[1:] = [NiceNode(JOIN, frozenset({0, 1}), (0,)),
                     NiceNode(FORGET, frozenset({1}), (1,), vertex=0),
                     NiceNode(FORGET, frozenset(), (2,), vertex=1)]
        ntd = nice_from_records(g, nodes)
        assert check_nice(ntd, g).ok
        ntd.left[1], ntd.right[1] = -1, 0
        assert check_nice(ntd, g).violations == ("node 1: a join with one child must have it on the left",)


def assert_elimination_tree(g, method="min-fill"):
    """heuristic_nice's tree of g passes check_nice, carries g, has
    to_nice's width on heuristic_decomposition, and forgets the eliminated
    vertices in elimination order, each down to its rest from a child bag
    of its own bag plus it."""
    ntd = heuristic_nice(g, method)
    assert check_nice(ntd, g).ok and ntd.graph is g
    assert ntd.width() == to_nice(heuristic_decomposition(g, method), g).width()
    forgets = [i for i, kind in enumerate(ntd.kind) if kind == FORGET]
    for i in forgets:
        v = ntd.vertex[i]
        assert not ntd.bag[i] >> v & 1 and ntd.bag[ntd.left[i]] == ntd.bag[i] | 1 << v
    order, rests = _greedy_elimination(g, method)
    assert [ntd.vertex[i] for i in forgets] == order
    assert [ntd.bag[i] for i in forgets] == [sum(1 << u for u in rest) for rest in rests]
    return ntd


class TestHeuristicNice:
    """The DP path's nice tree, written straight from the elimination."""

    def test_verify_dp_corpus(self):
        for inst in verify_dp_instances(60):
            assert_elimination_tree(inst.graph)

    @pytest.mark.parametrize("method", ["min-fill", "min-degree"])
    def test_random_graphs_and_forests(self, method):
        rng = random.Random(36 if method == "min-fill" else 37)
        for trial in range(300):
            if trial % 4 == 3:
                g = random_forest(rng, 14)
            else:
                n = trial % 14
                p = rng.choice((0.0, 0.1, 0.25, 0.4, 0.7))
                g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
            assert_elimination_tree(g, method)

    def test_empty_edgeless_and_forest_roots(self):
        # the forgets with an empty rest are joined under one root of empty
        # bag: a lone join without children when there is no vertex, and no
        # join when one forget has an empty rest
        assert assert_elimination_tree(Graph(0)).kind == [JOIN]
        assert assert_elimination_tree(Graph(1)).kind == [JOIN, FORGET]
        edgeless = assert_elimination_tree(Graph(4))
        assert edgeless.kind == [JOIN, FORGET] * 4 + [JOIN] * 3 and edgeless.bag[-3:] == [0] * 3
        three_paths = Graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)])
        ntd = assert_elimination_tree(three_paths)
        root = ntd.root
        assert ntd.kind[root] == JOIN and ntd.kind[ntd.left[root]] == JOIN
        assert [ntd.bag[i] for i in range(len(ntd.kind)) if ntd.kind[i] == FORGET].count(0) == 3

    def test_unknown_method_refused(self, triangle):
        with pytest.raises(InputError, match="unknown method"):
            heuristic_nice(triangle, "min-width")


def reference_elimination(td):
    """The elimination to_nice reads off td, over frozenset bags: the host
    rooted at node 0 and walked children first (stack_rooting reversed),
    each node taking the vertices of its bag that its parent's bag lacks in
    ascending order, each with the rest of the bag not yet taken."""
    walk, kids = stack_rooting(td.tree)
    above = {s: td.bags[t] for t in walk for s in kids[t]}
    order, rests = [], []
    for t in reversed(walk):
        rest = td.bags[t]
        for v in sorted(rest - above.get(t, frozenset())):
            rest -= {v}
            order.append(v)
            rests.append(rest)
    return order, rests


def assert_same_nice(td, g):
    """to_nice's tree of td passes check_nice at width(td), carries g, and
    forgets the vertices of reference_elimination's order, each down to its
    rest, in node order."""
    ntd = to_nice(td, g)
    assert check_nice(ntd, g).ok and ntd.graph is g
    assert ntd.width() == width(td)
    forgets = [i for i, kind in enumerate(ntd.kind) if kind == FORGET]
    order, rests = reference_elimination(td)
    assert [ntd.vertex[i] for i in forgets] == order
    assert [frozenset(bits(ntd.bag[i])) for i in forgets] == rests


class TestMatchesReferenceBuilder:
    """to_nice reads an elimination off the given decomposition and writes
    it as heuristic_nice does: its tree is a nice tree of the decomposition's
    width, whose forgets are the reference reading's elimination."""

    @pytest.mark.parametrize("method", ["min-fill", "min-degree"])
    def test_elimination_test_graphs(self, method):
        for g in elimination_test_graphs():
            assert_same_nice(heuristic_decomposition(g, method), g)

    def test_validated_hand_built_decomposition(self):
        # a star host whose three children all hold the root's vertex 0
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        td = TreeDecomposition(
            Graph(4, [(0, 1), (0, 2), (0, 3)]), [{0, 2}, {0, 1, 2}, {0, 2, 3}, {0, 4}]
        )
        assert td.graph is None and validate(td, g).ok
        assert_same_nice(td, g)

    def test_grid_and_band_graph(self):
        for g in (grid(6, 30), band_graph(random.Random(12), 300, 5)):
            assert_same_nice(heuristic_decomposition(g), g)

    def test_decompositions_with_inserted_and_hung_bags(self):
        for g, td in decompositions_with_inserted_and_hung_bags(random.Random(5), 300):
            assert validate(td, g).ok
            assert_same_nice(td, g)


def count_validations(monkeypatch):
    calls = [0]

    def counting(td, g):
        calls[0] += 1
        return validate(td, g)

    monkeypatch.setattr(treewidth, "validate", counting)
    return calls


class TestTrustedDecomposition:
    """to_nice skips validate only for a decomposition that the elimination
    builders made for the very graph object handed in with it."""

    @pytest.mark.parametrize(
        "build",
        [lambda g: heuristic_decomposition(g, "min-fill"),
         lambda g: heuristic_decomposition(g, "min-degree"),
         lambda g: from_elimination_order(g, reversed(range(g.n)))],
        ids=["min-fill", "min-degree", "elimination-order"],
    )
    def test_builder_output_is_trusted_for_its_own_graph(self, monkeypatch, build):
        calls = count_validations(monkeypatch)
        graphs = (Graph(0), complete(3), grid(3, 4), petersen())
        tds = [build(g) for g in graphs]
        assert all(td.graph is g for td, g in zip(tds, graphs))
        ntds = [to_nice(td, g) for td, g in zip(tds, graphs)]
        assert calls[0] == 0
        assert all(check_nice(ntd, g).ok for ntd, g in zip(ntds, graphs))

    def test_copies_and_other_graph_objects_are_validated(self, triangle, monkeypatch):
        calls = count_validations(monkeypatch)
        td = heuristic_decomposition(triangle)
        trusted = to_nice(td, triangle)
        other = heuristic_decomposition(complete(3))
        assert other == td and other.graph == triangle and other.graph is not triangle
        copies = [
            TreeDecomposition(td.tree, td.bags),
            relabel(td, {v: v for v in triangle.vertices()}),
            augment_with_set(td, (), triangle),
            decomposition_from_json(decomposition_to_json(td)),
            other,
        ]
        assert calls[0] == 0
        for copy in copies:
            assert copy == td and copy.graph is not triangle
            assert to_nice(copy, triangle) == trusted
        assert calls[0] == len(copies)

    def test_invalid_decomposition_still_raises(self, triangle):
        path3 = Graph(3, [(0, 1), (1, 2)])
        for td in (heuristic_decomposition(path3),  # built for another graph
                   TreeDecomposition(Graph(2, [(0, 1)]), [{0, 1}, {1, 2}])):
            with pytest.raises(InputError, match=r"invalid decomposition: edge \(0,2\)"):
                to_nice(td, triangle)

    @pytest.mark.parametrize("method", ["min-fill", "min-degree"])
    def test_trusted_pass_matches_elimination_route(self, method):
        graphs = elimination_test_graphs() + dp_pipeline_gadgets(12)
        for g in graphs:
            assert to_nice(heuristic_decomposition(g, method), g) == elimination_route_nice(g, method)


class TestRelabelAndJson:
    def test_relabel_round_trip(self):
        g = cycle(4)
        sub, idx = induced_subgraph(g, {1, 2, 3})
        td = heuristic_decomposition(sub)
        lifted = relabel(td, {v: u for u, v in idx.items()})
        assert validate(lifted, Graph(4, [(1, 2), (2, 3)])).ok is False  # vertex 0 missing
        back = relabel(lifted, idx)
        assert back == td

    def test_json_round_trip(self):
        td = heuristic_decomposition(cycle(5))
        assert decomposition_from_json(decomposition_to_json(td)) == td

    def test_malformed_json(self):
        with pytest.raises(InputError):
            decomposition_from_json({"nodes": 1})


def random_host(rng, n: int, shape: str) -> Graph:
    """A random host on n nodes, labels shuffled: a tree, a tree plus one
    edge, or a forest (every third node in attach order starts a new tree)."""
    label = list(range(n))
    rng.shuffle(label)
    edges = set()
    for i in range(1, n):
        if shape != "forest" or i % 3:
            edges.add(tuple(sorted((label[i], label[rng.randrange(i)]))))
    if shape == "tree+edge" and n >= 3:
        missing = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
        edges.add(rng.choice(missing))
    return Graph(n, edges)


def random_forest(rng, n_max: int) -> Graph:
    n = rng.randint(0, n_max)
    if n == 0:
        return Graph(0)
    return random_host(rng, n, rng.choice(("tree", "forest")))


class TestSpanningWalk:
    """validate, the forest builders and the nice rooting against the
    search, union-find and stack-DFS references in conftest."""

    def random_case(self, rng):
        g = random_graph(rng, n_max=8, p=rng.choice((0.2, 0.4, 0.7)))
        if rng.random() < 0.4:
            # a valid decomposition, perhaps with one vertex dropped or added
            td = heuristic_decomposition(g)
            bags = [set(b) for b in td.bags]
            t = rng.randrange(len(bags))
            if rng.random() < 0.4 and bags[t]:
                bags[t].discard(rng.choice(sorted(bags[t])))
            elif rng.random() < 0.6:
                bags[t].add(rng.randrange(g.n + 1))
            return TreeDecomposition(td.tree, bags), g
        n = rng.choice((0, 1, 2, 3, 4, 5, 6, 7))
        shape = rng.choice(("tree", "tree", "tree+edge", "forest"))
        host = random_host(rng, n, shape) if n else Graph(0)
        bags = [
            {v for v in range(g.n + 2) if rng.random() < 0.35} for _ in range(n)
        ]
        return TreeDecomposition(host, bags), g

    def test_validate_matches_search_oracle(self):
        rng = random.Random(15)
        kinds = set()
        for _ in range(6000):
            td, g = self.random_case(rng)
            expected = search_validate(td, g)
            assert validate(td, g).violations == expected
            kinds.update(
                "disconnected" if "disconnected" in x else x.split()[0] for x in expected or ("ok",)
            )
        assert kinds == {"ok", "host", "bag", "vertex", "edge", "disconnected"}

    def test_elimination_builders_match_union_find_chaining(self):
        rng = random.Random(16)
        for _ in range(2500):
            g = random_graph(rng, n_max=9, p=rng.choice((0.1, 0.3, 0.6)))
            order = list(g.vertices())
            rng.shuffle(order)
            expected = union_find_elimination_decomposition(g, order)
            assert from_elimination_order(g, order) == expected
        for method in ("min-fill", "min-degree"):
            for _ in range(300):
                g = random_graph(rng, n_max=9, p=rng.choice((0.1, 0.3)))
                expected = union_find_elimination_decomposition(g, greedy_order(g, method))
                assert heuristic_decomposition(g, method) == expected

    def test_forest_builder_matches_union_find_chaining(self):
        rng = random.Random(17)
        for _ in range(2500):
            g = random_forest(rng, n_max=12)
            td = decompose_forest(g)
            assert td == search_forest_decomposition(g)
            assert validate(td, g).ok

    def test_cycle_edge_named_lies_on_a_cycle(self):
        rng = random.Random(18)
        for _ in range(1000):
            g = random_graph(rng, n_max=9, p=rng.choice((0.2, 0.4)))
            if search_forest_decomposition(g) is not None:
                continue
            with pytest.raises(InputError, match=r"cycle through edge") as err:
                decompose_forest(g)
            u, v = map(int, err.value.args[0].rsplit("(", 1)[1].rstrip(")").split(","))
            assert g.has_edge(u, v)
            # the ends stay connected without the edge
            reached, stack = {u}, [u]
            while stack:
                a = stack.pop()
                for b in g.neighbors(a) - reached:
                    if (a, b) not in ((u, v), (v, u)):
                        reached.add(b)
                        stack.append(b)
            assert v in reached

    def test_walk_roots_trees_like_the_stack_dfs(self):
        rng = random.Random(19)
        for _ in range(1000):
            tree = random_host(rng, rng.randint(1, 12), "tree")
            order, parent = _walk(tree)
            expected_order, expected_kids = stack_rooting(tree)
            assert order == expected_order
            kids = [[] for _ in order]
            for t in order[1:]:
                kids[parent[t]].append(t)
            assert kids == expected_kids


def test_bits_lists_the_set_bits_ascending():
    # bits reads a mask from the top; the reference reads its binary digits,
    # on short masks and on long sparse ones such as the bags of a long path
    rng = random.Random(21)
    masks = [0, 1, 2, 3, 1 << 20000, 1 << 20001 | 1 << 20000 | 1]
    masks += [rng.getrandbits(rng.choice((8, 64, 300))) for _ in range(200)]
    masks += [sum(1 << v for v in rng.sample(range(40000), rng.randint(1, 6))) for _ in range(50)]
    for mask in masks:
        assert bits(mask) == [v for v, digit in enumerate(reversed(bin(mask)[2:])) if digit == "1"]
