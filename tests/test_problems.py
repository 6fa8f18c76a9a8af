import random

import pytest

from conftest import (
    both_answers,
    combinations_bf_clique,
    complete,
    csr,
    cycle,
    path,
    recursive_bf_equitable,
    recursive_bf_general_factor,
    recursive_bf_partitioned_clique,
    recursive_bf_precoloring,
    recursive_list_color_search,
    star,
    within_seconds,
)
from twlab.errors import InputError
from twlab.graphs import EdgeWeighting, Graph, Orientation, PartitionedGraph
from twlab.harness import gen_list_instance, solve_bf
from twlab.problems import (
    DEFAULT_WEIGHT_CEILING,
    BooleanRelation,
    ChosenOutdegreeInstance,
    Constraint,
    EquitableColoringInstance,
    GeneralFactorInstance,
    GensatInstance,
    ListColoringInstance,
    MinMaxOutdegreeInstance,
    PrecoloringExtensionInstance,
    bf_chosen_outdegree,
    bf_clique,
    bf_equitable,
    bf_general_factor,
    bf_gensat,
    bf_list_coloring,
    bf_min_max_outdegree,
    bf_min_max_value,
    bf_partitioned_clique,
    bf_precoloring,
    build_dual,
    build_incidence,
    check_admissible,
    instance_from_json,
    instance_to_json,
    kind_of,
)
from twlab.reductions import lc_to_precoloring


def enumerate_orientations(g: Graph):
    """All 2^|E| orientations in lexicographic direction order (oracle for
    the propagation search; keep |E| small)."""
    m = len(g.edges)
    for bits in range(1 << m):
        yield Orientation(
            g,
            [
                (e if not (bits >> (m - 1 - i)) & 1 else (e[1], e[0]))
                for i, e in enumerate(g.edges)
            ],
        )


def rand_graph(rng, n_max=7, p=0.45):
    n = rng.randint(1, n_max)
    return Graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


class TestListColoring:
    def test_single_vertex(self):
        inst = ListColoringInstance(Graph(1), [{1}])
        assert bf_list_coloring(inst) == {0: 1}

    def test_triangle_two_colors(self, triangle):
        inst = ListColoringInstance(triangle, [{1, 2}] * 3)
        assert bf_list_coloring(inst) is None

    def test_path_forced_middle(self):
        inst = ListColoringInstance(path(3), [{1}, {1, 2}, {1}])
        got = bf_list_coloring(inst)
        assert got == {0: 1, 1: 2, 2: 1}

    def test_empty_list_infeasible(self):
        inst = ListColoringInstance(Graph(2, []), [{1}, set()])
        assert bf_list_coloring(inst) is None


class TestPrecoloring:
    def test_k2_identity_extension(self):
        inst = PrecoloringExtensionInstance(path(2), {0: 1, 1: 2}, 2)
        assert bf_precoloring(inst) == {0: 1, 1: 2}

    def test_k3_two_precolored(self, triangle):
        inst = PrecoloringExtensionInstance(triangle, {0: 1, 1: 2}, 2)
        assert bf_precoloring(inst) is None

    def test_c4_one_precolored(self):
        inst = PrecoloringExtensionInstance(cycle(4), {0: 1}, 2)
        got = bf_precoloring(inst)
        assert got is not None and got[0] == 1

    def test_improper_precolor_rejected(self):
        with pytest.raises(InputError):
            PrecoloringExtensionInstance(path(2), {0: 1, 1: 1}, 2)

    @pytest.mark.parametrize("precolor", [[(0, 1), (0, 2)], [(1, 2), (0, 1), (1, 2)]])
    def test_vertex_precolored_twice_rejected(self, precolor):
        """Checked before the pairs collapse, so neither the last colour nor
        a repeated equal one passes silently."""
        v = precolor[-1][0]
        with pytest.raises(InputError, match=f"vertex {v} is precolored more than once"):
            PrecoloringExtensionInstance(Graph(3, []), precolor, 2)


class TestEquitable:
    def test_k2_two_colors(self):
        assert bf_equitable(EquitableColoringInstance(path(2), 2)) is not None

    def test_star_two_colors_unbalanced(self):
        assert bf_equitable(EquitableColoringInstance(star(3), 2)) is None

    def test_star_four_colors(self):
        got = bf_equitable(EquitableColoringInstance(star(3), 4))
        assert got is not None and len(set(got.values())) == 4

    def test_unused_color_counts_as_empty_class(self):
        # 3 vertices, 2 colors: classes must be 2 and 1, never 3 and 0
        inst = EquitableColoringInstance(Graph(3, []), 2)
        got = bf_equitable(inst)
        sizes = sorted(list(got.values()).count(c) for c in (1, 2))
        assert sizes == [1, 2]


class TestGeneralFactor:
    def test_triangle_perfect_matching_impossible(self, triangle):
        inst = GeneralFactorInstance(triangle, [{1}] * 3)
        assert bf_general_factor(inst) is None

    def test_c4_perfect_matching(self):
        inst = GeneralFactorInstance(cycle(4), [{1}] * 4)
        got = bf_general_factor(inst)
        assert got is not None and len(got) == 2

    def test_empty_selection(self):
        inst = GeneralFactorInstance(cycle(4), [{0, 2}] * 4)
        assert bf_general_factor(inst) == frozenset()

    def test_cardinality_bounds_validated(self):
        with pytest.raises(InputError):
            GeneralFactorInstance(path(2), [{2}, {0}])


class TestGensat:
    def test_no_constraints(self):
        assert bf_gensat(GensatInstance(2, [])) == (0, 0)

    def test_empty_relation(self):
        rel = BooleanRelation(1, [])
        inst = GensatInstance(1, [Constraint((0,), rel)])
        assert bf_gensat(inst) is None

    def test_scope_must_be_distinct(self):
        rel = BooleanRelation(2, [(0, 1)])
        with pytest.raises(InputError):
            Constraint((0, 0), rel)

    def test_xor_chain(self):
        xor = BooleanRelation(2, [(0, 1), (1, 0)])
        inst = GensatInstance(3, [Constraint((0, 1), xor), Constraint((1, 2), xor)])
        assert bf_gensat(inst) == (0, 1, 0)  # lexicographically first

    def test_wide_relation_uses_pure_fallback(self):
        # tuple masks wider than 64 bits
        arity = 70
        tup = tuple([1] + [0] * (arity - 1))
        rel = BooleanRelation(arity, [tup])
        inst = GensatInstance(arity, [Constraint(tuple(range(arity)), rel)])
        assert bf_gensat(inst) == tup


class TestChosenOutdegree:
    def test_single_edge_no_budget(self):
        g = path(2)
        inst = ChosenOutdegreeInstance(g, EdgeWeighting(g, [1]), (0, 0))
        assert bf_chosen_outdegree(inst) is None

    def test_single_edge_one_side(self):
        g = path(2)
        inst = ChosenOutdegreeInstance(g, EdgeWeighting(g, [1]), (1, 0))
        lam = bf_chosen_outdegree(inst)
        assert lam.direction == ((0, 1),)

    def test_agrees_with_unpruned_enumeration(self):
        rng = random.Random(31)
        for _ in range(150):
            g = rand_graph(rng, n_max=6)
            if len(g.edges) > 16:
                continue
            w = EdgeWeighting(g, [rng.randint(1, 4) for _ in g.edges])
            rho = tuple(rng.randint(0, 5) for _ in range(g.n))
            inst = ChosenOutdegreeInstance(g, w, rho)
            brute = next(
                (lam for lam in enumerate_orientations(g) if check_admissible(inst, lam)),
                None,
            )
            fast = bf_chosen_outdegree(inst)
            assert (fast is None) == (brute is None)

    def test_huge_caps_use_pure_backend(self):
        # caps beyond 64-bit range must still solve
        g = path(2)
        inst = ChosenOutdegreeInstance(g, EdgeWeighting(g, [1]), (1 << 80, 0))
        lam = bf_chosen_outdegree(inst)
        assert lam is not None and lam.direction == ((0, 1),)

    def test_huge_color_labels_use_pure_backend(self):
        # color labels beyond 64-bit range must still solve
        big = 1 << 70
        inst = ListColoringInstance(path(2), [{big}, {big, big + 1}])
        assert bf_list_coloring(inst) == {0: big, 1: big + 1}

    def test_monotone_in_caps(self):
        rng = random.Random(13)
        for _ in range(60):
            g = rand_graph(rng, n_max=6)
            w = EdgeWeighting(g, [rng.randint(1, 3) for _ in g.edges])
            rho = tuple(rng.randint(0, 4) for _ in range(g.n))
            bigger = tuple(r + rng.randint(0, 2) for r in rho)
            if bf_chosen_outdegree(ChosenOutdegreeInstance(g, w, rho)) is not None:
                assert bf_chosen_outdegree(ChosenOutdegreeInstance(g, w, bigger)) is not None


class TestMinMax:
    def test_triangle_unit_value(self, triangle):
        w = EdgeWeighting(triangle, [1, 1, 1])
        assert bf_min_max_value(triangle, w) == 1

    def test_heavy_edge_dominates(self):
        g = path(3)
        w = EdgeWeighting(g, {(0, 1): 3, (1, 2): 1})
        assert bf_min_max_value(g, w) == 3

    def test_k4_unit(self):
        g = complete(4)
        assert bf_min_max_value(g, EdgeWeighting(g, [1] * 6)) == 2

    def test_decision_consistent_with_value(self):
        rng = random.Random(8)
        for _ in range(40):
            g = rand_graph(rng, n_max=6)
            if not g.edges:
                continue
            w = EdgeWeighting(g, [rng.randint(1, 4) for _ in g.edges])
            value = bf_min_max_value(g, w)
            assert bf_min_max_outdegree(MinMaxOutdegreeInstance(g, w, value)) is not None
            if value > 1:
                assert bf_min_max_outdegree(MinMaxOutdegreeInstance(g, w, value - 1)) is None

    def test_scale_invariance(self):
        rng = random.Random(44)
        for _ in range(30):
            g = rand_graph(rng, n_max=5)
            if not g.edges:
                continue
            w = EdgeWeighting(g, [rng.randint(1, 3) for _ in g.edges])
            r = rng.randint(1, 6)
            scaled = EdgeWeighting(g, [3 * x for x in w.weights])
            lhs = bf_min_max_outdegree(MinMaxOutdegreeInstance(g, w, r)) is not None
            rhs = bf_min_max_outdegree(MinMaxOutdegreeInstance(g, scaled, 3 * r)) is not None
            assert lhs == rhs

    def test_weight_ceiling_enforced(self):
        g = path(2)
        MinMaxOutdegreeInstance(g, EdgeWeighting(g, [DEFAULT_WEIGHT_CEILING]), 1)
        with pytest.raises(InputError):
            MinMaxOutdegreeInstance(g, EdgeWeighting(g, [DEFAULT_WEIGHT_CEILING + 1]), 1)


class TestPartitionedClique:
    def test_two_singletons_with_edge(self):
        pg = PartitionedGraph(Graph(2, [(0, 1)]), [(0,), (1,)])
        assert bf_partitioned_clique(pg) == (0, 1)

    def test_complete_multipartite(self):
        parts = [(0, 1), (2, 3), (4, 5)]
        edges = [
            (u, v)
            for i in range(3)
            for j in range(i + 1, 3)
            for u in parts[i]
            for v in parts[j]
        ]
        pg = PartitionedGraph(Graph(6, edges), parts)
        assert bf_partitioned_clique(pg) is not None

    def test_unreachable_part(self):
        parts = [(0, 1), (2, 3), (4, 5)]
        edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
        pg = PartitionedGraph(Graph(6, edges), parts)
        assert bf_partitioned_clique(pg) is None

    def test_bf_clique(self, triangle):
        assert bf_clique(triangle, 3) == (0, 1, 2)
        assert bf_clique(path(3), 3) is None

    def test_bf_clique_matches_combinations(self):
        rng = random.Random(20)
        ks = set()
        for _ in range(3000):
            n = rng.randint(0, 9)
            p = rng.choice((0.3, 0.6, 0.9))
            g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
            k = rng.randint(0, n + 2)
            ks.add((k == 0, k > n))
            assert bf_clique(g, k) == combinations_bf_clique(g, k)
        assert ks == {(True, False), (False, False), (False, True)}

    def test_bf_clique_rejects_negative_k(self, triangle):
        with pytest.raises(InputError):
            bf_clique(triangle, -1)


class TestConstraintGraphs:
    def test_single_binary_constraint(self):
        rel = BooleanRelation(2, [(0, 1)])
        inst = GensatInstance(2, [Constraint((0, 1), rel)])
        assert build_dual(inst) == Graph(1, [])
        assert build_incidence(inst) == Graph(3, [(0, 2), (1, 2)])

    def test_disjoint_scopes_dual_edgeless(self):
        rel = BooleanRelation(1, [(0,), (1,)])
        inst = GensatInstance(2, [Constraint((0,), rel), Constraint((1,), rel)])
        assert build_dual(inst).edges == ()

    def test_incidence_minus_constraints_edgeless(self):
        rel = BooleanRelation(2, [(0, 1)])
        inst = GensatInstance(3, [Constraint((0, 1), rel), Constraint((1, 2), rel)])
        inc = build_incidence(inst)
        variable_edges = [e for e in inc.edges if e[0] < 3 and e[1] < 3]
        assert variable_edges == []


# one small instance of every kind
INSTANCE_BUILDS = [
    lambda: ListColoringInstance(path(3), [{1}, {1, 2}, {3}]),
    lambda: PrecoloringExtensionInstance(cycle(4), {0: 1}, 2),
    lambda: EquitableColoringInstance(star(3), 2),
    lambda: GeneralFactorInstance(cycle(4), [{1}] * 4),
    lambda: GensatInstance(
        2, [Constraint((0, 1), BooleanRelation(2, [(0, 1), (1, 0)]))]
    ),
    lambda: ChosenOutdegreeInstance(
        path(3), EdgeWeighting(path(3), [2, 1]), (2, 1, 0)
    ),
    lambda: MinMaxOutdegreeInstance(cycle(4), EdgeWeighting(cycle(4), [1] * 4), 1),
]


class TestWitnessesAndJson:
    @pytest.mark.parametrize("build", INSTANCE_BUILDS)
    def test_every_yes_witness_is_checked(self, build):
        # the oracles do not check their witnesses; the kind's checker does
        inst = build()
        got = solve_bf(inst)
        assert got is None or kind_of(inst).check(inst, got)

    @pytest.mark.parametrize("build", INSTANCE_BUILDS)
    def test_instance_json_round_trip(self, build):
        inst = build()
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_unknown_type_rejected(self):
        with pytest.raises(InputError):
            instance_from_json({"type": "mystery"})


class TestKinds:
    def test_one_row_per_instance_class(self):
        import twlab.problems as pr

        classes = {
            obj for name, obj in vars(pr).items()
            if isinstance(obj, type) and name.endswith("Instance")
        }
        assert len(classes) == 7
        assert sorted(k.cls.__name__ for k in pr.KINDS) == sorted(c.__name__ for c in classes)
        assert len({k.tag for k in pr.KINDS}) == len(pr.KINDS) == len(pr.KIND_BY_TAG)

    def test_oracle_and_dp_names_resolve(self):
        import twlab.problems as pr
        import twlab.solvers as sv

        for kind in pr.KINDS:
            assert callable(getattr(pr, kind.oracle)) and kind.oracle.startswith("bf_")
            assert kind.dp is None or callable(getattr(sv, kind.dp))
        assert sorted(k.tag for k in pr.KINDS if k.dp) == [
            "chosen_outdegree", "list_coloring", "minmax_outdegree"
        ]

    def test_kind_of_unknown_class(self):
        from twlab.problems import kind_of

        with pytest.raises(InputError, match="unknown instance type Graph"):
            kind_of(path(2))


def seeded_graphs(seed: int, count: int, n_max: int):
    """count graphs with n = 0..n_max in turn and varied density."""
    rng = random.Random(seed)
    for trial in range(count):
        n = trial % (n_max + 1)
        p = rng.choice((0.2, 0.4, 0.6))
        yield rng, Graph(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        )


class TestWitnessesMatchRecursiveSearches:
    """Each oracle on kernels.backtrack gives the same witness (or None) as
    the recursive search it replaced, on seeded corpora that include n=0 and
    empty cardinality sets."""

    def test_precoloring(self):
        results = []
        for rng, g in seeded_graphs(21, 300, 8):
            r = rng.randint(1, 4)
            precolor = {}
            for v in rng.sample(range(g.n), rng.randint(0, g.n)):
                c = rng.randint(1, r)
                if all(precolor.get(u) != c for u in g.neighbors(v)):
                    precolor[v] = c
            inst = PrecoloringExtensionInstance(g, precolor, r)
            want = recursive_bf_precoloring(inst)
            assert bf_precoloring(inst) == want
            results.append(want)
        both_answers(results)

    def test_precoloring_pendant_targets(self):
        """lc-pce targets: a precolored pendant blocks each color missing
        from a vertex's list, so most vertices are precolored leaves."""
        results = []
        for seed in range(200):
            inst = lc_to_precoloring(gen_list_instance(10, 6, 0.5, seed)).instance
            want = recursive_bf_precoloring(inst)
            assert bf_precoloring(inst) == want
            results.append(want)
        both_answers(results)

    def test_equitable(self):
        results = []
        for rng, g in seeded_graphs(22, 300, 9):
            inst = EquitableColoringInstance(g, rng.randint(1, 4))
            want = recursive_bf_equitable(inst)
            assert bf_equitable(inst) == want
            results.append(want)
        both_answers(results)

    def test_general_factor(self):
        results = []
        for rng, g in seeded_graphs(23, 300, 7):
            sets = [
                rng.sample(range(g.degree(v) + 1), rng.randint(0, g.degree(v) + 1))
                if rng.random() < 0.9 else [g.degree(v)]
                for v in g.vertices()
            ]
            inst = GeneralFactorInstance(g, sets)
            want = recursive_bf_general_factor(inst)
            assert bf_general_factor(inst) == want
            results.append(want)
        both_answers(results)

    def test_partitioned_clique(self):
        rng = random.Random(24)
        results = []
        for trial in range(300):
            k, size = trial % 5, rng.randint(0, 3)
            parts = [tuple(range(i * size, (i + 1) * size)) for i in range(k)]
            edges = [
                (u, v)
                for i in range(k) for j in range(i + 1, k)
                for u in parts[i] for v in parts[j]
                if rng.random() < 0.6
            ]
            pg = PartitionedGraph(Graph(k * size, edges), parts)
            want = recursive_bf_partitioned_clique(pg)
            assert bf_partitioned_clique(pg) == want
            results.append(want)
        both_answers(results)

    def test_list_coloring(self):
        """The witness is the first coloring with vertices in decreasing
        degree, ties to the smaller index: a star's hub is colored first,
        and a path's interior left to right before its ends."""

        def recursive_on_degree_order(inst):
            g = inst.graph
            order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
            rank = {v: i for i, v in enumerate(order)}
            got = recursive_list_color_search(
                g.n,
                *csr([[rank[u] for u in g.neighbors(v)] for v in order]),
                *csr([sorted(inst.lists[v]) for v in order]),
            )
            return None if got is None else {order[i]: c for i, c in enumerate(got)}

        hub_last = Graph(5, [(i, 4) for i in range(4)])
        fixed = [
            (ListColoringInstance(hub_last, [{1, 2}] * 5), {4: 1, 0: 2, 1: 2, 2: 2, 3: 2}),
            (ListColoringInstance(path(5), [{1, 2}] * 5), {1: 1, 2: 2, 3: 1, 0: 2, 4: 2}),
        ]
        results = []
        for inst, want in fixed:
            assert recursive_on_degree_order(inst) == want
            assert bf_list_coloring(inst) == want
            results.append(want)
        for rng, g in seeded_graphs(25, 300, 9):
            lists = [set(rng.sample(range(1, 5), rng.randint(1, 3))) for _ in g.vertices()]
            inst = ListColoringInstance(g, lists)
            want = recursive_on_degree_order(inst)
            assert bf_list_coloring(inst) == want
            results.append(want)
        both_answers(results)


class TestLargeInputs:
    def test_path_and_star_of_ten_thousand_vertices(self):
        """Every brute-force oracle solves a 10^4-vertex path and star (and
        gensat a 10^4-variable chain) without running out of stack, and each
        yes-witness passes its kind's check."""
        n = 10**4
        xor = BooleanRelation(2, [(0, 1), (1, 0)])
        chain = GensatInstance(n, [Constraint((i, i + 1), xor) for i in range(n - 1)])
        answers = {}
        with within_seconds(30, "the 10^4-vertex path and star"):
            for name, g in (("path", path(n)), ("star", star(n - 1))):
                w = EdgeWeighting(g, [1] * len(g.edges))
                degrees = [g.degree(v) for v in g.vertices()]
                answers[name] = [
                    (inst, solve_bf(inst)) for inst in (
                        ListColoringInstance(g, [{1, 2}] * n),
                        PrecoloringExtensionInstance(g, {0: 1}, 2),
                        EquitableColoringInstance(g, 2),
                        GeneralFactorInstance(g, [{1}] * n),
                        ChosenOutdegreeInstance(g, w, degrees),
                        MinMaxOutdegreeInstance(g, w, 1),
                    )
                ]
            tau = bf_gensat(chain)
        for pairs in answers.values():
            assert all(a is None or kind_of(inst).check(inst, a) for inst, a in pairs)
        assert [a is not None for _, a in answers["path"]] == [True] * 6
        # the star has no balanced 2-colouring and no perfect matching
        assert [a is not None for _, a in answers["star"]] == [True, True, False, False, True, True]
        assert tau == tuple(i % 2 for i in range(n))
