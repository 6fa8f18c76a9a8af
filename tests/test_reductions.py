import dataclasses
import itertools
import random

import pytest

from conftest import complete, explicit_orientation_from_clique, forest_plus_set, path
from twlab.errors import InputError
from twlab.graphs import (
    EdgeWeighting,
    Graph,
    PartitionedGraph,
    canon,
    graph_to_json,
    is_clique,
)
from twlab import reductions
from twlab.harness import PIPELINES, gen_graph, gen_partitioned
from twlab.problems import (
    ChosenOutdegreeInstance,
    bf_chosen_outdegree,
    bf_clique,
    bf_gensat,
    bf_list_coloring,
    bf_min_max_outdegree,
    bf_partitioned_clique,
    bf_precoloring,
    check_admissible,
    instance_from_json,
)
from twlab.reductions import (
    certify,
    chosen_to_minmax,
    clique_to_gensat,
    extract_clique,
    lc_to_precoloring,
    orientation_from_clique,
    pc_to_chosen_outdegree,
    pc_to_list_coloring,
    reduction_output_to_json,
)
from twlab.problems import ListColoringInstance
from twlab.solvers import dp_chosen_outdegree
from twlab.treewidth import (
    TreeDecomposition,
    exact_treewidth,
    heuristic_decomposition,
    to_nice,
    validate,
    width,
)


def make_pg(k, n, edges):
    parts = [tuple(range(i * n, (i + 1) * n)) for i in range(k)]
    return PartitionedGraph(Graph(k * n, edges), parts)


def rand_pg(rng, k, n, p):
    parts = [tuple(range(i * n, (i + 1) * n)) for i in range(k)]
    edges = [
        (u, v)
        for i in range(k)
        for j in range(i + 1, k)
        for u in parts[i]
        for v in parts[j]
        if rng.random() < p
    ]
    return make_pg(k, n, edges)


class TestPcToListColoring:
    def test_two_singletons_with_edge(self):
        out = pc_to_list_coloring(make_pg(2, 1, [(0, 1)]))
        inst = out.instance
        assert inst.graph.n == 2 and inst.graph.edges == ()
        assert inst.lists == (frozenset({1}), frozenset({2}))
        assert bf_list_coloring(inst) is not None

    def test_two_singletons_without_edge(self):
        out = pc_to_list_coloring(make_pg(2, 1, []))
        assert out.instance.graph.n == 3  # one pad
        assert bf_list_coloring(out.instance) is None

    def test_pads_for_missing_pairs(self):
        out = pc_to_list_coloring(make_pg(2, 2, [(0, 2)]))
        pads = [e for e in out.index if e["tag"] == "pad"]
        assert {(e["u"], e["v"]) for e in pads} == {(0, 3), (1, 2), (1, 3)}
        assert bf_list_coloring(out.instance) is not None

    def test_witness_is_star_within_bound(self):
        pg = make_pg(3, 2, [(0, 2)])
        out = pc_to_list_coloring(pg)
        assert validate(out.witness, out.instance.graph).ok
        assert width(out.witness) <= out.claimed_width_bound == 4

    def test_equivalence_sweep(self):
        rng = random.Random(6)
        for _ in range(60):
            pg = rand_pg(rng, rng.randint(1, 3), rng.randint(1, 3), rng.random())
            out = pc_to_list_coloring(pg)
            assert (bf_partitioned_clique(pg) is None) == (
                bf_list_coloring(out.instance) is None
            )


class TestLcToPrecoloring:
    def test_single_vertex_one_pendant(self):
        inst = ListColoringInstance(Graph(2, []), [{1}, {1, 2}])
        out = lc_to_precoloring(inst)
        # vertex 0 misses color 2 -> one pendant precolored 2
        pendants = [e for e in out.index if e["tag"] == "pendant"]
        assert len(pendants) == 1 and pendants[0]["v"] == 0
        got = bf_precoloring(out.instance)
        assert got is not None and got[0] == 1

    def test_k2_same_singleton_lists(self):
        inst = ListColoringInstance(path(2), [{1}, {1}])
        out = lc_to_precoloring(inst)
        assert bf_precoloring(out.instance) is None

    def test_all_lists_empty_canonical_infeasible(self):
        inst = ListColoringInstance(Graph(2, []), [set(), set()])
        out = lc_to_precoloring(inst)
        assert bf_precoloring(out.instance) is None
        assert out.index == ({"tag": "note", "detail": "canonical infeasible"},)

    def test_equivalence_sweep(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 8)
            g = Graph(
                n,
                [
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.4
                ],
            )
            lists = [
                frozenset(c for c in range(1, 5) if rng.random() < 0.5)
                for _ in range(n)
            ]
            inst = ListColoringInstance(g, lists)
            out = lc_to_precoloring(inst)
            assert (bf_list_coloring(inst) is None) == (
                bf_precoloring(out.instance) is None
            )
            assert validate(out.witness, out.instance.graph).ok
            assert width(out.witness) <= out.claimed_width_bound


class TestCliqueToGensat:
    def test_k3_on_triangle(self, triangle):
        out = clique_to_gensat(triangle, 3)
        inst = out.instance
        assert inst.num_variables == 9
        assert len(inst.constraints) == 3
        rel = inst.constraints[0].relation
        assert rel.arity == 6
        assert rel.tuples == {
            (1, 0, 0, 0, 1, 0),
            (1, 0, 0, 0, 0, 1),
            (0, 1, 0, 0, 0, 1),
        }
        assert bf_gensat(inst) is not None

    def test_path_has_no_triangle(self):
        out = clique_to_gensat(path(3), 3)
        assert bf_gensat(out.instance) is None

    def test_k2_reduces_to_edge_existence(self):
        assert bf_gensat(clique_to_gensat(path(2), 2).instance) is not None
        assert bf_gensat(clique_to_gensat(Graph(2, []), 2).instance) is None

    def test_dual_is_k3_for_three_blocks(self, triangle):
        out = clique_to_gensat(triangle, 3)
        dual = out.meta["dual_graph"]
        assert dual == complete(3)
        assert width(out.witness) == out.claimed_width_bound == 2

    def test_incidence_witness_bound(self):
        out = clique_to_gensat(path(4), 3)
        inc = out.meta["incidence_graph"]
        assert validate(out.meta["incidence_witness"], inc).ok
        assert width(out.meta["incidence_witness"]) <= out.meta["incidence_width_bound"] == 3

    def test_certify_checks_both_witnesses(self):
        out = clique_to_gensat(path(4), 3)
        assert certify(out) == ()
        inc = out.meta["incidence_witness"]
        dropped = TreeDecomposition(inc.tree, [b - {0} for b in inc.bags])  # variable 0
        broken = dataclasses.replace(
            out, claimed_width_bound=1, meta={**out.meta, "incidence_witness": dropped}
        )
        violations = certify(broken)
        assert violations[0] == "witness: width 2 exceeds claimed bound 1"
        assert violations[1] == "incidence witness: vertex 0 appears in no bag"
        assert len(violations) > 2
        assert all(v.startswith("incidence witness: edge (0,") for v in violations[2:])

    def test_small_k_rejected(self, triangle):
        with pytest.raises(InputError):
            clique_to_gensat(triangle, 1)

    def test_bounds_vs_exact_treewidth(self):
        out = clique_to_gensat(complete(4), 3)
        assert exact_treewidth(out.meta["dual_graph"])[0] <= 2
        assert exact_treewidth(out.meta["incidence_graph"])[0] <= 3

    def test_equivalence_sweep(self):
        rng = random.Random(40)
        for _ in range(60):
            n = rng.randint(1, 6)
            g = Graph(
                n,
                [
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.5
                ],
            )
            out = clique_to_gensat(g, 3)
            assert (bf_clique(g, 3) is None) == (bf_gensat(out.instance) is None)


class TestOrientationGadget:
    def test_worked_small_case(self):
        out = pc_to_chosen_outdegree(make_pg(2, 1, [(0, 1)]))
        inst = out.instance
        vid = out.meta["gadget"]
        assert inst.graph.n == 12 and len(inst.graph.edges) == 13
        wmap = dict(zip(inst.graph.edges, inst.weights.weights))
        u, x, y = vid["u", 0, 0], vid["x", 0, 0], vid["y", 0, 0]
        assert wmap[canon(u, x)] == 24 and wmap[canon(u, y)] == 25  # big = 2 * (8 + 4)
        b, c, d = vid["b", 0, 1], vid["c", 0, 1], vid["d", 0, 1]
        e = vid["e", 0, 1, 0, 0]
        assert wmap[canon(vid["x", 0, 0], b)] == 9
        assert wmap[canon(vid["x", 1, 0], b)] == 10
        assert wmap[canon(vid["y", 0, 0], c)] == 10
        assert wmap[canon(vid["y", 1, 0], c)] == 11
        assert wmap[canon(e, b)] == 19 and wmap[canon(e, c)] == 21
        assert inst.rho[b] == 19 and inst.rho[c] == 21
        assert inst.rho[d] == 0 and inst.rho[e] == 21
        assert bf_chosen_outdegree(inst) is not None

    def test_no_cross_edge_short_circuits(self):
        out = pc_to_chosen_outdegree(make_pg(2, 1, []))
        assert bf_chosen_outdegree(out.instance) is None
        assert out.index == ({"tag": "note", "detail": "canonical infeasible"},)

    def test_size_formulas(self):
        rng = random.Random(1)
        for k, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
            pg = rand_pg(rng, k, n, 0.8)
            out = pc_to_chosen_outdegree(pg)
            if "gadget" not in out.meta:
                continue
            cross = sum(len(v) for v in out.meta["pair_edges"].values())
            pairs = k * (k - 1) // 2
            assert out.instance.graph.n == k * (3 * n + 1) + 3 * pairs + cross
            assert len(out.instance.graph.edges) == 3 * k * n + 3 * cross + 4 * n * pairs

    def test_witness_bound_claim(self, monkeypatch):
        """pc-chosen claims the paper's k(k-1)+1, and pc-minmax carries that
        claim (at least 2) through on the gadget's witness, without min-fill."""
        def no_min_fill(*args):
            raise AssertionError("pc-minmax ran min-fill")

        monkeypatch.setattr(reductions, "heuristic_decomposition", no_min_fill)
        rng = random.Random(2)
        for k, n in [(2, 2), (3, 2), (1, 3), (2, 3)]:
            pg = rand_pg(rng, k, n, 0.9)
            out = pc_to_chosen_outdegree(pg)
            assert "gadget" in out.meta
            assert validate(out.witness, out.instance.graph).ok
            assert width(out.witness) <= out.claimed_width_bound == 2 * (k * (k - 1) // 2) + 1
            minmax = PIPELINES["pc-minmax"].reduce(pg)
            assert minmax.claimed_width_bound == max(k * (k - 1) + 1, 2)
            assert certify(minmax) == ()

    def test_equivalence_sweep(self):
        rng = random.Random(3)
        for _ in range(80):
            k = rng.randint(2, 3)
            n = rng.randint(1, 2 if k == 3 else 3)
            pg = rand_pg(rng, k, n, rng.choice([0.3, 0.7]))
            out = pc_to_chosen_outdegree(pg)
            src = bf_partitioned_clique(pg)
            lam = bf_chosen_outdegree(out.instance)
            assert (src is None) == (lam is None)

    def test_extract_clique_from_search_orientation(self):
        rng = random.Random(5)
        pg = rand_pg(rng, 3, 2, 0.0)
        # plant a transversal clique
        chosen = [pg.parts[i][1] for i in range(3)]
        edges = [canon(a, b) for a, b in itertools.combinations(chosen, 2)]
        pg = make_pg(3, 2, edges)
        out = pc_to_chosen_outdegree(pg)
        lam = bf_chosen_outdegree(out.instance)
        clique = extract_clique(out, lam)
        assert is_clique(pg.graph, clique)

    def test_extract_clique_from_dp_orientation(self):
        pg = make_pg(2, 2, [canon(0, 2)])
        out = pc_to_chosen_outdegree(pg)
        ntd = to_nice(heuristic_decomposition(out.instance.graph), out.instance.graph)
        lam = dp_chosen_outdegree(out.instance, ntd)
        assert lam is not None
        assert is_clique(pg.graph, extract_clique(out, lam))

    def test_extract_rejects_inadmissible(self):
        out = pc_to_chosen_outdegree(make_pg(2, 1, [(0, 1)]))
        g = out.instance.graph
        from twlab.graphs import Orientation

        # orient everything out of vertex 0's side: not admissible
        lam = Orientation(g, list(g.edges))
        if check_admissible(out.instance, lam):
            pytest.skip("orientation happened to be admissible")
        with pytest.raises(InputError):
            extract_clique(out, lam)

    def test_constructive_orientation_from_every_clique(self):
        rng = random.Random(7)
        for _ in range(30):
            pg = rand_pg(rng, 2, 3, 0.6)
            out = pc_to_chosen_outdegree(pg)
            witness = bf_partitioned_clique(pg)
            if witness is None:
                continue
            lam = orientation_from_clique(out, witness)
            assert check_admissible(out.instance, lam)

    def test_extract_inverts_constructive_orientation(self):
        rng = random.Random(21)
        for _ in range(20):
            pg = rand_pg(rng, 3, 2, 0.5)
            out = pc_to_chosen_outdegree(pg)
            clique = bf_partitioned_clique(pg)
            if clique is None or "gadget" not in out.meta:
                continue
            lam = orientation_from_clique(out, clique)
            assert extract_clique(out, lam) == clique

    def test_constructive_rejects_non_clique(self):
        pg = make_pg(2, 2, [canon(0, 2)])
        out = pc_to_chosen_outdegree(pg)
        with pytest.raises(InputError):
            orientation_from_clique(out, (0, 3))  # not adjacent

    def test_single_part_always_feasible(self):
        # one part: any member is a 1-clique, and the gadget has no hub pairs
        pg = make_pg(1, 2, [])
        out = pc_to_chosen_outdegree(pg)
        lam = bf_chosen_outdegree(out.instance)
        assert lam is not None
        assert extract_clique(out, lam) in {(0,), (1,)}

    def test_edge_plan_matches_explicit_orientation(self):
        """On seeded sources (k, n in 1..3, planted and not), the orientation
        built from the edge plan equals the explicit one edge by edge for
        every transversal clique, and extract_clique reads the clique back."""
        checked = 0
        for seed in range(216):
            k, n = 1 + seed % 3, 1 + seed // 3 % 3
            p, plant = (0.3, 0.6, 0.9)[seed // 9 % 3], seed // 27 % 2 == 0
            pg = gen_partitioned(k, n, p, plant, seed)
            out = pc_to_chosen_outdegree(pg)
            for clique in itertools.product(*pg.parts):
                if not is_clique(pg.graph, clique):
                    continue
                lam = orientation_from_clique(out, clique)
                assert lam.direction == explicit_orientation_from_clique(out, clique).direction
                assert extract_clique(out, lam) == clique
                checked += 1
        assert checked >= 200

    def test_empty_partition_is_canonical_feasible(self):
        out = pc_to_chosen_outdegree(gen_partitioned(0, 2, 0.5, False, 1))
        assert out.index == ({"tag": "note", "detail": "canonical feasible"},)
        assert out.claimed_width_bound == 1
        assert bf_chosen_outdegree(out.instance) is not None

    def test_empty_parts_are_canonical_infeasible(self):
        out = pc_to_chosen_outdegree(gen_partitioned(2, 0, 0.5, True, 1))
        assert out.index == ({"tag": "note", "detail": "canonical infeasible"},)
        assert bf_chosen_outdegree(out.instance) is None

    @pytest.mark.parametrize("k, n", [(0, 2), (2, 0), (2, 1)])
    def test_degenerate_output_has_no_gadget(self, k, n):
        pg = gen_partitioned(k, n, 0.0, False, 1)
        assert PIPELINES["pc-minmax"].reduce(pg).claimed_width_bound == 2
        out = pc_to_chosen_outdegree(pg)
        lam = bf_chosen_outdegree(out.instance)
        with pytest.raises(InputError, match="output does not carry a selection gadget"):
            extract_clique(out, lam)
        with pytest.raises(InputError, match="output does not carry a selection gadget"):
            orientation_from_clique(out, ())

    def test_lever_edges_weigh_big(self):
        """Every lever's u-x edge weighs big = k * (radix^3 + radix^2) with
        radix = n + 1, and its u-y edge big + 1."""
        for k, n, big in [(2, 1, 2 * (8 + 4)), (3, 4, 3 * (125 + 25))]:
            out = pc_to_chosen_outdegree(gen_partitioned(k, n, 1.0, False, 1))
            wmap = out.instance.weights.as_dict()
            vid = out.meta["gadget"]
            for i in range(k):
                for j in range(n):
                    u, x, y = vid["u", i, j], vid["x", i, j], vid["y", i, j]
                    assert wmap[canon(u, x)] == big and wmap[canon(u, y)] == big + 1


class TestChosenToMinmax:
    def test_uniform_caps_identity(self):
        g = path(3)
        w = EdgeWeighting(g, [2, 1])
        inst = ChosenOutdegreeInstance(g, w, (2, 2, 2))
        out = chosen_to_minmax(inst)
        assert out.instance.graph == g
        assert out.instance.r == 2

    def test_k2_slack_triangle(self):
        g = path(2)
        inst = ChosenOutdegreeInstance(g, EdgeWeighting(g, [2]), (2, 0))
        out = chosen_to_minmax(inst)
        h = out.instance.graph
        assert h.n == 4 and len(h.edges) == 4
        wmap = dict(zip(h.edges, out.instance.weights.weights))
        assert sorted(wmap.values()) == [2, 2, 2, 2]
        assert bf_min_max_outdegree(out.instance) is not None

    def test_zero_caps(self):
        g = path(2)
        inst = ChosenOutdegreeInstance(g, EdgeWeighting(g, [1]), (0, 0))
        out = chosen_to_minmax(inst)
        assert bf_min_max_outdegree(out.instance) is None
        edgeless = ChosenOutdegreeInstance(Graph(2, []), EdgeWeighting(Graph(2, []), []), (0, 0))
        out2 = chosen_to_minmax(edgeless)
        assert bf_min_max_outdegree(out2.instance) is not None

    def test_equivalence_sweep(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(1, 6)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ][:12]
            g = Graph(n, edges)
            w = EdgeWeighting(g, [rng.randint(1, 4) for _ in edges])
            inst = ChosenOutdegreeInstance(
                g, w, tuple(rng.randint(0, 6) for _ in range(n))
            )
            out = chosen_to_minmax(inst)
            assert (bf_chosen_outdegree(inst) is None) == (
                bf_min_max_outdegree(out.instance) is None
            )
            assert validate(out.witness, out.instance.graph).ok
            assert width(out.witness) <= out.claimed_width_bound


class TestDirectWitnesses:
    """The gadgets write their forest-plus-hubs witnesses directly; the
    chain of induced subgraph, forest decomposition, relabel and augment
    (conftest.forest_plus_set) is the oracle they must equal node for node."""

    @pytest.mark.parametrize("k, n", [(k, n) for k in (1, 2, 3) for n in (1, 2, 3)] + [(4, 2)])
    def test_orientation_gadget_witness_matches_forest_chain(self, k, n):
        gadgets = 0
        for seed in range(4):
            for p in (0.3, 0.6, 0.9):
                for plant in (False, True):
                    pg = gen_partitioned(k, n, p, plant, seed)
                    out = pc_to_chosen_outdegree(pg)
                    if "gadget" not in out.meta:  # degenerate: one bag, no forest
                        continue
                    gadgets += 1
                    g = out.instance.graph
                    hubs = [v for role, v in out.meta["gadget"].items() if role[0] in ("b", "c")]
                    expected = forest_plus_set(g, hubs)
                    assert out.witness == expected
                    minmax = PIPELINES["pc-minmax"].reduce(pg)
                    composed = chosen_to_minmax(out.instance, (expected, out.claimed_width_bound))
                    assert minmax.witness == composed.witness
        assert gadgets >= 12  # every planted source builds a gadget

    def test_incidence_witness_matches_forest_chain(self):
        for n in range(1, 9):
            for k in (2, 3, 4):
                out = clique_to_gensat(gen_graph(n, 0.5, 10 * n + k), k)
                inc = out.meta["incidence_graph"]
                expected = forest_plus_set(inc, range(k * n, inc.n))
                assert out.meta["incidence_witness"] == expected


class TestOutputJson:
    def test_round_trip_instance(self):
        out = pc_to_chosen_outdegree(make_pg(2, 1, [(0, 1)]))
        obj = reduction_output_to_json(out)
        assert instance_from_json(obj["instance"]) == out.instance
        assert obj["claimed_width_bound"] == 3
        assert any(e["tag"] == "e" and "qp" in e for e in obj["index"])

    def test_gensat_output_carries_both_graph_views(self, triangle):
        out = clique_to_gensat(triangle, 3)
        obj = reduction_output_to_json(out)
        assert obj["dual"]["graph"] == graph_to_json(out.meta["dual_graph"])
        assert obj["dual"]["graph"]["n"] == 3
        # the dual block repeats the output's own witness and bound
        assert obj["dual"]["witness"] == obj["witness"]
        assert obj["dual"]["claimed_width_bound"] == obj["claimed_width_bound"] == 2
        assert obj["incidence"]["claimed_width_bound"] == 3


class TestMeta:
    """Each reduction's meta holds exactly the tables its readers read."""

    def test_key_sets(self):
        gadget = {"source", "gadget", "plan", "pair_edges"}
        gensat = {"dual_graph", "incidence_graph", "incidence_witness", "incidence_width_bound"}
        pg = make_pg(2, 1, [(0, 1)])
        caps = ChosenOutdegreeInstance(path(3), EdgeWeighting(path(3), [1, 2]), (1, 2, 0))
        zero = ChosenOutdegreeInstance(path(2), EdgeWeighting(path(2), [1]), (0, 0))
        edgeless = ChosenOutdegreeInstance(Graph(2), EdgeWeighting(Graph(2), []), (0, 0))
        cases = [
            (pc_to_list_coloring(pg), set()),
            (pc_to_list_coloring(make_pg(0, 2, [])), set()),
            (lc_to_precoloring(ListColoringInstance(path(2), [{1}, {1, 2}])), set()),
            (lc_to_precoloring(ListColoringInstance(Graph(2), [set(), set()])), set()),  # canonical
            (clique_to_gensat(path(4), 3), gensat),
            (clique_to_gensat(Graph(1), 2), gensat),
            (pc_to_chosen_outdegree(pg), gadget),
            (pc_to_chosen_outdegree(make_pg(0, 2, [])), set()),  # canonical feasible
            (pc_to_chosen_outdegree(make_pg(2, 1, [])), set()),  # canonical infeasible
            (pc_to_chosen_outdegree(make_pg(2, 0, [])), set()),  # canonical infeasible
            (chosen_to_minmax(caps), set()),
            (chosen_to_minmax(zero), set()),  # canonical infeasible
            (chosen_to_minmax(edgeless), set()),  # canonical feasible
            (PIPELINES["pc-minmax"].reduce(pg), set()),
            (PIPELINES["pc-minmax"].reduce(make_pg(2, 1, [])), set()),
        ]
        for out, keys in cases:
            assert set(out.meta) == keys, out.index
        assert pc_to_chosen_outdegree(pg).meta["source"] is pg
