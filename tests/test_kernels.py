"""The backtracking driver, witness equality of the three searches on it
against the recursive searches they replaced, and edge cases of the search
kernels (the oracles in test_problems cover their verdicts)."""

import random

import pytest

from conftest import (
    both_answers,
    csr,
    recursive_gensat_search,
    recursive_list_color_search,
    recursive_orient_search,
    rescan_orient_search,
    star,
    within_seconds,
)
from twlab import kernels
from twlab.errors import GuardError
from twlab.harness import PIPELINES, gen_chosen_instance, gen_graph, gen_partitioned
from twlab.problems import BooleanRelation, ChosenOutdegreeInstance, bf_chosen_outdegree, bf_gensat
from twlab.reductions import clique_to_gensat


def digits(state, choices=3):
    """branches for backtrack: position i takes each of 0..choices-1 in
    turn, appended to state while applied."""

    def branches(i):
        for c in range(choices):
            state.append(c)
            yield
            state.pop()

    return branches


class TestBacktrack:
    def test_accept_rejects_and_the_search_resumes(self):
        state, seen = [], []

        def accept():
            seen.append(tuple(state))
            return sum(state) == 3

        assert kernels.backtrack(2, digits(state), accept)
        assert seen == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert state == [1, 2]

    def test_exhausted_search_undoes_every_choice(self):
        state, seen = [], []

        def accept():
            seen.append(tuple(state))
            return False

        assert not kernels.backtrack(2, digits(state, 2), accept)
        assert seen == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert state == []

    def test_state_left_applied_on_success(self):
        state = []
        assert kernels.backtrack(4, digits(state))
        assert state == [0, 0, 0, 0]

    def test_dead_position_backtracks(self):
        state = []

        def branches(i):
            for c in range(2):
                if i == 2 and state[0] == 0:
                    return  # no live choice below a leading 0
                state.append(c)
                yield
                state.pop()

        assert kernels.backtrack(3, branches)
        assert state == [1, 0, 0]

    def test_depth_zero(self):
        def branches(i):
            raise AssertionError("no position to branch on")

        assert kernels.backtrack(0, branches)
        calls = []
        assert not kernels.backtrack(0, branches, lambda: calls.append(1) or False)
        assert calls == [1]

    def test_depth_beyond_the_recursion_limit(self):
        state = []
        assert kernels.backtrack(50_000, digits(state, 1))
        assert len(state) == 50_000


class TestWitnessesMatchRecursiveSearches:
    """Each search on the driver gives the same witness (or None) as the
    recursive search it replaced, on seeded corpora with n=0, empty
    palettes and relations, and zero caps."""

    def test_orient_search(self):
        rng = random.Random(7)
        results = []
        for trial in range(400):
            n = trial % 9
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            rng.shuffle(edges)
            edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
            w = [rng.randint(1, 4) for _ in edges]
            rho = [rng.randint(0, 5) for _ in range(n)]
            want = recursive_orient_search(
                n, [u for u, _ in edges], [v for _, v in edges], w, rho
            )
            assert kernels.orient_search(n, edges, w, rho) == want
            results.append(want)
        both_answers(results)

    def test_list_color_search(self):
        rng = random.Random(8)
        results = []
        for trial in range(400):
            n = trial % 10
            adj = [[] for _ in range(n)]
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.45:
                        adj[u].append(v)
                        adj[v].append(u)
            palettes = [rng.sample(range(1, 5), rng.randint(0, 3)) for _ in range(n)]
            want = recursive_list_color_search(n, *csr(adj), *csr(palettes))
            assert kernels.list_color_search(adj, palettes) == want
            results.append(want)
        both_answers(results)

    def test_gensat_search(self):
        rng = random.Random(9)
        results = []

        def reference(num_vars, scopes, relations):
            """The recursive search on the relations' tuples, each packed into
            a bitmask (bit p = entry p)."""
            masks = [[sum(b << p for p, b in enumerate(t)) for t in sorted(r.tuples)] for r in relations]
            want = recursive_gensat_search(num_vars, *csr(scopes), *csr(masks))
            results.append(want)
            return want

        def check(num_vars, scopes, relations):
            want = reference(num_vars, scopes, relations)
            assert kernels.gensat_search(num_vars, scopes, [r.supports for r in relations]) == want

        def relation(arity, masks):
            return BooleanRelation(arity, [[m >> p & 1 for p in range(arity)] for m in masks])

        for trial in range(400):
            num_vars = trial % 8
            scopes, relations = [], []
            for _ in range(rng.randint(0, 6) if num_vars else 0):
                arity = rng.randint(1, min(3, num_vars))
                scopes.append(tuple(rng.sample(range(num_vars), arity)))
                relations.append(relation(arity, rng.sample(range(1 << arity), rng.randint(0, 1 << arity))))
            check(num_vars, scopes, relations)
        # wide arities, one relation shared by every constraint, and the top
        # scope positions 0 in every tuple: supports must span the scope, not
        # the tuples' bit_length
        for trial in range(200):
            num_vars = rng.randint(12, 24)
            arity = rng.randint(12, min(20, num_vars))
            shared = relation(arity, rng.sample(range(1 << (arity - rng.choice((0, 1, 4)))), rng.randint(1, 10)))
            scopes = [tuple(rng.sample(range(num_vars), arity)) for _ in range(rng.randint(1, 4))]
            check(num_vars, scopes, [shared] * len(scopes))
        # the reduction's instances, through the oracle
        for seed in range(30):
            inst = clique_to_gensat(gen_graph(rng.randint(3, 10), 0.6, seed), 2 + seed % 4).instance
            cs = inst.constraints
            want = reference(inst.num_variables, [c.scope for c in cs], [c.relation for c in cs])
            assert bf_gensat(inst) == (None if want is None else tuple(want))
        both_answers(results)


class TestHubPropagation:
    """orient_search keeps each vertex's incident edges heaviest first and
    stops a push at the first edge that fits: the witnesses of the search
    that rescanned every incident edge, and a hub costs only what it forces."""

    def test_witnesses_match_rescanning_search(self, monkeypatch):
        rng = random.Random(20)
        instances = [
            gen_chosen_instance(
                trial % 11, rng.choice((0.3, 0.6, 0.9)), rng.randint(1, 5), rng.randint(0, 9), rng.getrandbits(32)
            )
            for trial in range(3000)
        ]
        got = [bf_chosen_outdegree(inst) for inst in instances]
        monkeypatch.setattr(kernels, "orient_search", rescan_orient_search)
        assert got == [bf_chosen_outdegree(inst) for inst in instances]
        both_answers(got)

    @pytest.mark.parametrize("pipeline, k, n", [
        ("pc-chosen", 2, 3), ("pc-chosen", 3, 2), ("pc-chosen", 3, 3), ("pc-minmax", 2, 2),
    ])
    def test_gadgets_match_rescanning_search(self, pipeline, k, n):
        """At gadget scale (up to 126 edges, where the corpus above stops
        at 10 vertices), on seeded sources with and without a planted
        clique, the edges in bf_chosen_outdegree's heaviest-first order."""
        results = []
        for seed in range(40):
            pg = gen_partitioned(k, n, (0.1, 0.3, 0.5)[seed % 3], seed % 4 == 0, seed)
            inst = PIPELINES[pipeline].reduce(pg).instance
            g, w = inst.graph, inst.weights
            order = sorted(range(len(g.edges)), key=lambda i: (-w[i], i))
            args = (g.n, [g.edges[i] for i in order], [w[i] for i in order], inst.rho)
            want = rescan_orient_search(*args)
            assert kernels.orient_search(*args) == want
            results.append(want)
        both_answers(results)

    def test_heavy_edge_listed_last_is_still_forced(self):
        """The kernel sorts each incident list itself: an edge too heavy for
        both ends is found by the first propagation although both ends list
        a lighter edge first, so the search never branches on the 30 free
        edges searched before it."""
        k = 30
        z, o, a, c = range(2 * k, 2 * k + 4)
        edges = [(2 * i, 2 * i + 1) for i in range(k)] + [(z, a), (o, c), (z, o)]
        w = [1] * (k + 2) + [5]
        rho = [1] * (2 * k) + [3, 3, 0, 0]
        with within_seconds(1, "an infeasible heavy edge behind 30 free ones"):
            assert kernels.orient_search(len(rho), edges, w, rho) is None

    def test_star_hub_of_ten_thousand_edges(self):
        g = star(10**4 - 1)
        inst = ChosenOutdegreeInstance(
            g, [1] * len(g.edges), [g.degree(v) for v in g.vertices()]
        )
        with within_seconds(1, "capped orientation of the 10^4-vertex star"):
            assert bf_chosen_outdegree(inst) is not None


class TestKernelEdgeCases:
    def test_orient_empty(self):
        assert kernels.orient_search(3, [], [], [0, 0, 0]) == []

    def test_orient_immediate_contradiction(self):
        assert kernels.orient_search(2, [(0, 1)], [5], [1, 1]) is None

    def test_orient_forced_edge_has_one_branch(self):
        # vertex 0 may emit nothing, so both edges are forced away from it
        assert kernels.orient_search(3, [(0, 1), (0, 2)], [1, 1], [0, 1, 1]) == [1, 1]

    def test_color_no_vertices(self):
        assert kernels.list_color_search([], []) == []

    def test_color_empty_palette(self):
        assert kernels.list_color_search([[]], [[]]) is None

    def test_gensat_no_constraints(self):
        assert kernels.gensat_search(2, [], []) == [0, 0]

    def test_gensat_empty_relation(self):
        assert kernels.gensat_search(1, [(0,)], [BooleanRelation(1, []).supports]) is None

    def test_exact_tw_empty_graph(self):
        assert kernels.exact_treewidth(0, []) == (-1, [])

    def test_exact_tw_k4(self):
        masks = [0b1110, 0b1101, 0b1011, 0b0111]
        tw, order = kernels.exact_treewidth(4, masks)
        assert tw == 3 and sorted(order) == [0, 1, 2, 3]

    def test_exact_tw_keeps_an_unbeaten_bound(self):
        # C4 has treewidth 2: an order of width 2 is returned as given
        masks = [0b1010, 0b0101, 0b1010, 0b0101]
        assert kernels.exact_treewidth(4, masks, (2, [3, 1, 0, 2])) == (2, [3, 1, 0, 2])
        # beaten: {0} closes at width max(deg 0, 4 - 1 - 1) = 2, the rest follow by index
        assert kernels.exact_treewidth(4, masks, (3, [3, 2, 1, 0])) == (2, [0, 1, 2, 3])

    def test_exact_tw_size_cap(self):
        with pytest.raises(GuardError):
            kernels.exact_treewidth(27, [0] * 27)
