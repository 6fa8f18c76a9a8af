import itertools
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest

from conftest import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    complete,
    cycle,
    decompositions_with_inserted_and_hung_bags,
    elimination_test_graphs,
    expand_to_four_kinds,
    grid,
    lift_then_intersect_tables,
    nice_from_elimination,
    nice_records,
    path,
    star,
    tuple_chosen_outdegree_dp,
    tuple_list_coloring_dp,
    tuple_pareto_minimal,
    verify_dp_instances,
    within_seconds,
)
from twlab import harness
from twlab.errors import InputError
from twlab.graphs import Graph, Orientation, all_outdegrees, canon
from twlab.problems import (
    KIND_BY_TAG,
    ChosenOutdegreeInstance,
    ListColoringInstance,
    MinMaxOutdegreeInstance,
    bf_chosen_outdegree,
    bf_list_coloring,
    bf_min_max_outdegree,
    bf_min_max_value,
    check_admissible,
    check_list_coloring,
)
from twlab import solvers
from twlab.solvers import (
    _minimal_states,
    dp_chosen_outdegree,
    dp_list_coloring,
    flow_min_max_uniform,
    min_max_orientation,
    min_max_outdegree,
)
from twlab.treewidth import (
    TreeDecomposition,
    check_nice,
    heuristic_decomposition,
    heuristic_nice,
    to_nice,
    width,
)


def nice_of(g):
    return to_nice(heuristic_decomposition(g, "min-fill"), g)


def with_four_kinds(ntd):
    """ntd, which the packed DPs read, and its expansion to four kinds,
    which the tuple DPs and lift_then_intersect_tables read."""
    four = expand_to_four_kinds(ntd)
    assert_four_kinds(four)
    return ntd, four


def both_trees(g, method="min-fill"):
    """to_nice's tree of g's heuristic decomposition, with four kinds."""
    return with_four_kinds(to_nice(heuristic_decomposition(g, method), g))


def elimination_trees(g, method="min-fill"):
    """heuristic_nice's tree of g, with four kinds."""
    return with_four_kinds(heuristic_nice(g, method))


def assert_four_kinds(four):
    """four is a four-kind nice tree: a leaf has an empty bag and no child,
    introduce(v) and forget(v) one child whose bag is its own without and
    with v, and a join two children with its bag; children come first, and
    the last node is the root, of empty bag."""
    records = nice_records(four)
    for i, node in enumerate(records):
        assert all(c < i for c in node.children), i
        bags = [records[c].bag for c in node.children]
        if node.kind == LEAF:
            assert not node.children and not node.bag, i
        elif node.kind == INTRODUCE:
            assert len(bags) == 1 and node.vertex not in bags[0] and node.bag == bags[0] | {node.vertex}, i
        elif node.kind == FORGET:
            assert len(bags) == 1 and node.vertex in bags[0] and node.bag == bags[0] - {node.vertex}, i
        else:
            assert node.kind == JOIN and bags == [node.bag] * 2, i
    assert four.bag[four.root] == ()


def rand_graph(rng, n_max, p=0.4):
    n = rng.randint(1, n_max)
    return Graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def minmax_instances(seed, n_max, max_w, max_r):
    """Endless random minmax instances; graphs without edges are skipped."""
    rng = random.Random(seed)
    while True:
        g = rand_graph(rng, n_max)
        if g.edges:
            w = [rng.randint(1, max_w) for _ in g.edges]
            yield MinMaxOutdegreeInstance(g, w, rng.randint(1, max_r))


def list_corpus(rng, trials):
    """Seeded list-colouring instances on n = 0..14 vertices, some edgeless,
    with lists over one of four palettes, mostly of two colours and
    sometimes empty, of one colour or of the whole palette."""
    palettes = [(1, 2, 3), (2, 5), (1, 2, 3, 5, 8, 13, 40), tuple(range(3, 30, 3))]
    for trial in range(trials):
        n = trial % 15  # n = 0 .. 14
        p = rng.choice((0.0, 0.1, 0.25, 0.4, 0.7))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        palette = rng.choice(palettes)
        lists = []
        for _ in range(n):
            size = rng.choice((0, 1, 1, 2, 2, 3, len(palette))) if rng.random() < 0.15 else 2
            lists.append(rng.sample(palette, min(size, len(palette))))
        yield ListColoringInstance(Graph(n, edges), lists)


def grid_instance(rows, cols, rng):
    """A rows x cols grid with random 2- or 3-colour lists over 1..4."""
    g = grid(rows, cols)
    return ListColoringInstance(
        g, [rng.sample((1, 2, 3, 4), rng.choice((2, 3))) for _ in range(g.n)]
    )


def band_instance(n, band, rng):
    """A random graph of bandwidth band, relabelled at random (a Hamiltonian
    path plus each other pair at most band apart with probability 0.15),
    with random 2- or 3-colour lists over 1..4."""
    perm = rng.sample(range(n), n)
    edges = {canon(perm[i], perm[j]) for i in range(n) for j in range(i + 1, min(n, i + band + 1))
             if j == i + 1 or rng.random() < 0.15}
    return ListColoringInstance(
        Graph(n, sorted(edges)), [rng.sample((1, 2, 3, 4), rng.choice((2, 3))) for _ in range(n)]
    )


def hand_built_joins():
    """Graphs with hand-built decompositions whose elimination trees join
    in the less common ways.  In each, a host node of bag {0, 1, 2} takes
    0, 1 and 2 after its children's vertices.  First graph: the position of
    0 has one child, of rest {0}, and introduces 1 and 2, and that of 1
    folds children of rests {1} and {1, 2}.  Second: the position of 0 has
    no child and introduces its whole bag, and that of 2 folds two children
    of rest {2}.  Third, a host node with three children: the positions of
    1 and 2 each fold two children."""
    triangle = [(0, 1), (0, 2), (1, 2)]
    yield (Graph(5, triangle + [(0, 3), (1, 4)]),
           TreeDecomposition(Graph(3, [(0, 1), (0, 2)]), [{0, 1, 2}, {0, 3}, {1, 4}]))
    yield (Graph(4, triangle + [(2, 3)]),
           TreeDecomposition(Graph(4, [(0, 1), (0, 2), (0, 3)]), [{0, 1, 2}, {0, 1}, {1, 2}, {2, 3}]))
    yield (Graph(6, triangle + [(0, 3), (1, 4), (2, 5)]),
           TreeDecomposition(Graph(4, [(0, 1), (0, 2), (0, 3)]), [{0, 1, 2}, {0, 3}, {1, 4}, {2, 5}]))


def other_branch_join_triangle():
    """Triangle 0-1-2 and two isolated vertices 3 and 4, with a
    hand-written elimination whose tree check_nice checks: 3 and 4 are
    eliminated first, each with the rest {0, 1, 2}, so the position of 2
    joins two children, each without children of its own, over {0, 1, 2}.
    Both branches hold every edge of the triangle, and each drops its
    colour clashes where it introduces 0, 1 and 2.  The orientation DP
    applies edges 02 and 12 at the forget of 2 above the join, and 01 at
    the forget of 0."""
    g = Graph(5, [(0, 1), (0, 2), (1, 2)])
    ntd = nice_from_elimination(g, [3, 4, 2, 0, 1], [(0, 1, 2), (0, 1, 2), (0, 1), (1,), ()])
    assert check_nice(ntd, g).ok and ntd.children[2] == [0, 1]
    return g, ntd


def square_joined_at_its_diagonal():
    """The 4-cycle 0-2-1-3 with a hand-written elimination whose tree
    check_nice checks: 2 and 3 are eliminated first, each with the rest
    {0, 1}, so the position of 1 joins them over the bag {0, 1}: vertex 2
    lies in the first branch and vertex 3 in the second, and each one's
    edges are applied at its forget there.  With caps (2, 2, 1, 1), each
    side has the states (0, 1) and (1, 0) over (0, 1), and the join state
    (1, 1) arises from both pairs."""
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    ntd = nice_from_elimination(g, [2, 3, 1, 0], [(0, 1), (0, 1), (0,), ()])
    assert check_nice(ntd, g).ok and ntd.children[2] == [0, 1]
    return g, ntd


def chosen_corpus(rng, method):
    """Seeded capped-orientation instances with their nice decompositions,
    each as a pair (an elimination tree, its four-kind form):
    n = 0..9 and a three-component graph, caps all 0 (one-bit slots), caps
    often below the weights, caps up to 1000 (11-bit slots); then the
    hand-built joins of other_branch_join_triangle and
    square_joined_at_its_diagonal."""
    three_parts = Graph(12, [(0, 1), (2, 3), (4, 5), (5, 6), (6, 4), (8, 9), (9, 10), (10, 11)])
    for trial in range(500):
        n = trial % 10
        p = rng.choice((0.0, 0.15, 0.3, 0.5, 0.8))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = Graph(n, edges) if trial % 25 else three_parts
        caps, heaviest = ((0, 3), (4, 9), (1000, 400), (8, 3), (8, 3))[trial % 5]
        rho = tuple(rng.randint(0, caps) for _ in range(g.n))
        w = [rng.randint(1, heaviest) for _ in g.edges]
        yield ChosenOutdegreeInstance(g, w, rho), both_trees(g, method)
    g, ntd = other_branch_join_triangle()
    for weights in itertools.product((1, 2), repeat=3):
        for rho in itertools.product(range(3), repeat=3):
            yield ChosenOutdegreeInstance(g, weights, rho + (0, 0)), with_four_kinds(ntd)
    g, ntd = square_joined_at_its_diagonal()
    for rho in itertools.product((1, 2), (1, 2), (0, 1, 2), (0, 1, 2)):
        yield ChosenOutdegreeInstance(g, [1] * 4, rho), with_four_kinds(ntd)


def count_pruned(monkeypatch):
    """Counts the states the dominance filter drops during DP runs."""
    pruned = [0]

    def counting(table, *fields):
        kept = _minimal_states(table, *fields)
        pruned[0] += len(table) - len(kept)
        return kept

    monkeypatch.setattr(solvers, "_minimal_states", counting)
    return pruned


def quadratic_pareto_minimal(table):
    return {
        k: v
        for k, v in table.items()
        if not any(o != k and all(a <= b for a, b in zip(o, k)) for o in table)
    }


class TestParetoMinimal:
    """The tuple oracle's filter."""

    def test_matches_quadratic_filter(self):
        rng = random.Random(6)
        for d in range(7):
            for _ in range(40):
                keys = {tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(rng.randint(1, 80))}
                table = {k: rng.random() for k in rng.sample(sorted(keys), len(keys))}
                # same keys, same order, same values
                assert list(tuple_pareto_minimal(table).items()) == list(
                    quadratic_pareto_minimal(table).items()
                )

    def test_single_key_and_empty_bag(self):
        assert tuple_pareto_minimal({(3, 1): "s"}) == {(3, 1): "s"}
        assert tuple_pareto_minimal({(): None}) == {(): None}


def packed_table(rng, size, d, vb):
    """A table of up to `size` distinct states with d fields of vb value
    bits, packed as dp_chosen_outdegree packs them (slots at (vb + 1) * j,
    guard bit on top), with the tuple of each state's fields as its value."""
    offs = [j * (vb + 1) for j in range(d)]
    tuples = {tuple(rng.randint(0, 2**vb - 1) for _ in range(d)) for _ in range(size)}
    table = {sum(x << o for x, o in zip(t, offs)): t for t in tuples}
    guard = sum(1 << o + vb for o in offs)
    return table, guard, (1 << vb) - 1, offs


class TestMinimalStates:
    """The packed filter against the quadratic one on decoded tuples, on
    both sides of its 64-state switch from the pairwise sweep to bitsets."""

    @pytest.mark.parametrize(
        "sizes,trials", [((2, 64), 300), ((65, 250), 100)], ids=["sweep", "bitsets"]
    )
    def test_matches_quadratic_filter_on_decoded_tuples(self, sizes, trials):
        rng = random.Random(sizes[0])
        seen = set()
        for trial in range(trials):
            d, vb = rng.randint(1, 7), rng.choice((0, 1, 2, 3, 4, 11))
            table, guard, vmask, offs = packed_table(rng, rng.randint(*sizes), d, vb)
            if not sizes[0] <= len(table) <= sizes[1]:
                continue
            seen.add(len(table) <= 64)
            kept = _minimal_states(table, guard, vmask, offs)
            decoded = {t: s for s, t in table.items()}
            expected = quadratic_pareto_minimal(decoded)
            assert {kept[s]: s for s in kept} == {t: decoded[t] for t in expected}, trial
        assert seen == {sizes[0] <= 64}


class TestDpListColoring:
    def test_path_forced(self):
        inst = ListColoringInstance(path(3), [{1}, {1, 2}, {1}])
        got = dp_list_coloring(inst, nice_of(path(3)))
        assert got is not None and check_list_coloring(inst, got)

    def test_triangle_infeasible(self, triangle):
        inst = ListColoringInstance(triangle, [{1, 2}] * 3)
        assert dp_list_coloring(inst, nice_of(triangle)) is None

    def test_matches_oracle_on_randoms(self):
        rng = random.Random(2)
        for _ in range(120):
            g = rand_graph(rng, n_max=10)
            lists = [
                frozenset(rng.sample(range(1, g.n + 1), rng.randint(0, min(3, g.n))))
                for _ in range(g.n)
            ]
            inst = ListColoringInstance(g, lists)
            assert (dp_list_coloring(inst, nice_of(g)) is None) == (
                bf_list_coloring(inst) is None
            )

    def test_rejects_wrong_decomposition(self, triangle):
        wrong = to_nice(
            TreeDecomposition(Graph(1), [{0, 1}]), Graph(2, [(0, 1)])
        )
        inst = ListColoringInstance(triangle, [{1}] * 3)
        with pytest.raises(InputError):
            dp_list_coloring(inst, wrong)

    @pytest.mark.parametrize("method", ["min-fill", "min-degree"])
    def test_witnesses_match_tuple_oracle(self, method):
        # the packed DP must return the very colouring the tuple DP returned
        answers = set()
        for trial, inst in enumerate(list_corpus(random.Random(8 if method == "min-fill" else 9), 550)):
            ntd, four = both_trees(inst.graph, method)
            got = dp_list_coloring(inst, ntd)
            assert got == tuple_list_coloring_dp(inst, four), (trial, inst)
            answers.add(got is None)
        assert answers == {True, False}

    @pytest.mark.parametrize("method", ["min-fill", "min-degree"])
    def test_witnesses_match_tuple_oracle_on_the_elimination_tree(self, method):
        # the packed DP on heuristic_nice's tree returns the colouring the
        # tuple DP returns on its expansion to four kinds: on random graphs
        # (n = 0..14, some edgeless), forests of three paths, and the pc-lc
        # gadgets of the verify-dp benchmark
        rng = random.Random(18 if method == "min-fill" else 19)
        insts = list(list_corpus(rng, 300))
        three_paths = Graph(11, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (7, 8), (8, 9), (9, 10)])
        insts += [ListColoringInstance(three_paths, [rng.sample((1, 2, 3), rng.choice((1, 2, 2))) for _ in range(11)])
                  for _ in range(30)]
        insts += [inst for inst in verify_dp_instances(60) if isinstance(inst, ListColoringInstance)]
        answers = set()
        for inst in insts:
            ntd, four = elimination_trees(inst.graph, method)
            got = dp_list_coloring(inst, ntd)
            assert got == tuple_list_coloring_dp(inst, four), inst
            answers.add(got is None)
        assert answers == {True, False}

    def test_witnesses_match_tuple_oracle_on_grids(self):
        rng = random.Random(10)
        for rows, cols in ((1, 6), (2, 5), (3, 3), (4, 7), (5, 12), (5, 30), (6, 30)):
            for _ in range(3):
                inst = grid_instance(rows, cols, rng)
                ntd, four = both_trees(inst.graph)
                assert dp_list_coloring(inst, ntd) == tuple_list_coloring_dp(inst, four)

    def test_disconnected_and_edgeless(self):
        for g in (Graph(0), Graph(5), Graph(12, [(0, 1), (2, 3), (4, 5), (5, 6), (6, 4)])):
            for lists in ([{1}] * g.n, [{7, 9}] * g.n, [set()] + [{1}] * (g.n - 1)):
                inst = ListColoringInstance(g, lists[: g.n])
                ntd, four = both_trees(g)
                got = dp_list_coloring(inst, ntd)
                assert got == tuple_list_coloring_dp(inst, four)
                assert (got is None) == (bf_list_coloring(inst) is None)

    def test_edges_introduced_in_other_join_branches(self):
        g, ntd = other_branch_join_triangle()
        four = with_four_kinds(ntd)[1]
        choices = ({1}, {2}, {1, 2}, {2, 3}, {1, 2, 3})
        answers = set()
        for a in choices:
            for b in choices:
                for c in choices:
                    inst = ListColoringInstance(g, [a, b, c, {1}, {2, 3}])
                    got = dp_list_coloring(inst, ntd)
                    assert got == tuple_list_coloring_dp(inst, four)
                    assert (got is None) == (bf_list_coloring(inst) is None)
                    answers.add(got is None)
        assert answers == {True, False}

    def test_an_empty_list_answers_no(self):
        # the DP answers None on an empty list before it builds any table,
        # as every bound of the driver is at least 1
        g5, joined = other_branch_join_triangle()
        cases = [(g5, with_four_kinds(joined), [{1, 2}, set(), {1, 2, 3}, {1}, {1}])]
        cases += [(g, both_trees(g), [{1, 2, 3}] * v + [set()] + [{1, 2, 3}] * (g.n - v - 1))
                  for g in (path(5), grid(3, 4), complete(4)) for v in (0, g.n // 2, g.n - 1)]
        for g, (ntd, four), lists in cases:
            inst = ListColoringInstance(g, lists)
            assert dp_list_coloring(inst, ntd) is None
            assert tuple_list_coloring_dp(inst, four) is None

    def test_every_table_matches_lift_then_intersect(self, monkeypatch):
        # each position's joined table, over {v} | R, must be the
        # intersection of its children's tables lifted to that bag, with its
        # new vertices introduced, and its own table, over R, that one with
        # v forgotten: in its four-kind form, the tables of its forget's
        # child and of its forget.  Every position built is compared, and
        # none above the stop is built.
        runs, run = [], solvers._NiceDP.run

        def recording(dp, bound, join, forget, back):
            def joining(i):
                joined[i] = set(join(i))
                return joined[i]

            def forgetting(i, table):
                forgot[i] = set(forget(i, table))
                return forgot[i]

            joined, forgot = {}, {}
            runs.append((dp, joined, forgot))
            return run(dp, bound, joining, forgetting, back)

        monkeypatch.setattr(solvers._NiceDP, "run", recording)
        rng = random.Random(16)
        insts = [grid_instance(rows, cols, rng) for rows, cols in ((3, 40), (4, 40), (5, 30), (6, 30)) for _ in "ab"]
        insts += [band_instance(n, 5, rng) for n in (100, 200, 300)]
        cases = [(inst, both_trees(inst.graph)) for inst in insts]
        for g, td in hand_built_joins():
            trees = with_four_kinds(to_nice(td, g))
            cases += [(ListColoringInstance(g, [rng.sample((1, 2, 3), rng.choice((1, 2, 2, 3))) for _ in range(g.n)]),
                       trees) for _ in range(150)]
        answers, folded, introduced = set(), 0, 0
        for inst, (ntd, four) in cases:
            answers.add(dp_list_coloring(inst, ntd) is None)
            dp, joined, forgot = runs.pop()
            # positions 0..stop are built, the stop's forget only if its
            # joined table is not empty; the stop is the last position or
            # its table is the first empty one
            stop = max(joined)
            assert list(joined) == list(range(stop + 1))
            assert list(forgot) == list(range(stop + bool(joined[stop])))
            assert stop == len(ntd.nodes) - 1 or not dp.tables[stop]
            # every table is dropped once read: what is left is the stop's,
            # the roots' and those whose reader lies above the stop, unbuilt
            reader = {c: p for p in ntd.nodes for c in ntd.children[p]}
            assert all(reader.get(i, len(ntd.nodes)) > stop for i in dp.tables if i != stop)
            tables = lift_then_intersect_tables(inst, four, dp.off)
            for i in joined:
                j = four.forget[i]
                assert joined[i] == tables[four.left[j]], i
                assert i not in forgot or forgot[i] == tables[j], i
                folded += len(ntd.children[i]) > 1 and bool(joined[i])
                introduced += bool(ntd.children[i] and ntd.new[i])
        assert answers == {True, False} and folded > 100 and introduced > 0

    def test_7x40_grid_peak_memory(self):
        inst = grid_instance(7, 40, random.Random(11))
        ntd = nice_of(inst.graph)
        tracemalloc.start()
        try:
            got = dp_list_coloring(inst, ntd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is None or check_list_coloring(inst, got)
        assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_8x40_grid_within_budget(self):
        inst = grid_instance(8, 40, random.Random(12))
        with within_seconds(10, "list colouring of the 8x40 grid"):
            ntd = nice_of(inst.graph)
            assert ntd.width() == 11
            got = dp_list_coloring(inst, ntd)
        assert got is None or check_list_coloring(inst, got)


class TestDpChosenOutdegree:
    def test_single_edge_yes(self):
        g = path(2)
        inst = ChosenOutdegreeInstance(g, [1], (1, 0))
        lam = dp_chosen_outdegree(inst, nice_of(g))
        assert lam is not None and check_admissible(inst, lam)

    def test_single_edge_no(self):
        g = path(2)
        inst = ChosenOutdegreeInstance(g, [1], (0, 0))
        assert dp_chosen_outdegree(inst, nice_of(g)) is None

    def test_matches_oracle_on_randoms(self):
        rng = random.Random(4)
        checked = 0
        while checked < 100:
            g = rand_graph(rng, n_max=8)
            w = [rng.randint(1, 3) for _ in g.edges]
            if sum(w) > 24:
                continue
            checked += 1
            rho = tuple(rng.randint(0, 5) for _ in range(g.n))
            inst = ChosenOutdegreeInstance(g, w, rho)
            assert (dp_chosen_outdegree(inst, nice_of(g)) is None) == (
                bf_chosen_outdegree(inst) is None
            )

    def test_matches_oracle_with_heavy_weights(self, monkeypatch):
        # wide weights and caps leave many dominated states, so the filter fires
        pruned = count_pruned(monkeypatch)
        rng = random.Random(40)
        yes = 0
        for _ in range(80):
            g = rand_graph(rng, n_max=8)
            w = [rng.randint(1, 40) for _ in g.edges]
            rho = tuple(rng.randint(0, 60) for _ in range(g.n))
            inst = ChosenOutdegreeInstance(g, w, rho)
            lam = dp_chosen_outdegree(inst, nice_of(g))
            assert (lam is None) == (bf_chosen_outdegree(inst) is None)
            if lam is not None:
                assert check_admissible(inst, lam)
                yes += 1
        assert 0 < yes < 80 and pruned[0] > 0

    @pytest.mark.parametrize("method", ["min-fill", "min-degree"])
    def test_witnesses_match_tuple_oracle(self, method):
        # the packed DP must return the very orientation the tuple DP returned
        answers = set()
        for inst, (ntd, four) in chosen_corpus(random.Random(13 if method == "min-fill" else 14), method):
            got = dp_chosen_outdegree(inst, ntd)
            expected = tuple_chosen_outdegree_dp(inst, four)
            assert got == expected, (inst.graph.edges, inst.weights, inst.rho)
            answers.add(got is None)
        assert answers == {True, False}

    @pytest.mark.parametrize("method", ["min-fill", "min-degree"])
    def test_witnesses_match_tuple_oracle_on_the_elimination_tree(self, method):
        # the packed DP on heuristic_nice's tree returns the orientation the
        # tuple DP returns on its expansion to four kinds: on chosen_corpus's
        # instances (n = 0..9, three components, the hand-built joins' graphs)
        # and the orientation gadgets of the verify-dp benchmark
        insts = [inst for inst, _ in chosen_corpus(random.Random(23 if method == "min-fill" else 24), method)]
        insts += [inst for inst in verify_dp_instances(60) if not isinstance(inst, ListColoringInstance)]
        answers = set()
        for inst in insts:
            ntd, four = elimination_trees(inst.graph, method)
            got = dp_chosen_outdegree(inst, ntd)
            assert got == tuple_chosen_outdegree_dp(inst, four), (inst.graph.edges, inst.weights, inst.rho)
            answers.add(got is None)
        assert answers == {True, False}

    @pytest.mark.parametrize("method", ["min-fill", "min-degree"])
    def test_only_forget_filters_and_the_traceback_visits_minimal_states(
        self, monkeypatch, method
    ):
        # join and the edges applied at forget keep dominated states; forget
        # filters its table to an antichain once it has applied its edges and
        # projected (a table of at most one state is one unfiltered), and the
        # traceback reads only minimal states
        runs, filtered_at, kind_now = [], [], [None]
        run, minimal = solvers._NiceDP.run, solvers._minimal_states

        def recording(dp, bound, join, forget, back):
            def joining(i):
                kind_now[0] = JOIN
                joined[i] = join(i)
                return joined[i]

            def forgetting(i, table):
                kind_now[0] = FORGET
                return forget(i, table)

            def visiting(i, s):
                visited.append((i, s))
                return back(i, s)

            joined, visited = {}, []
            runs.append((dp, joined, visited))
            return run(dp, bound, joining, forgetting, visiting)

        def counting(*args):
            filtered_at.append(kind_now[0])
            return minimal(*args)

        monkeypatch.setattr(solvers._NiceDP, "run", recording)
        monkeypatch.setattr(solvers, "_minimal_states", counting)
        forgets = visits = 0
        for inst, (ntd, _) in chosen_corpus(random.Random(13 if method == "min-fill" else 14), method):
            dp_chosen_outdegree(inst, ntd)
            vmask = (1 << max(inst.rho, default=0).bit_length()) - 1
            dp, joined, visited = runs.pop()
            # the last position, or the first empty table: none above it is built
            stop = max(dp.tables, default=-1)
            assert list(dp.tables) == list(joined) == list(range(stop + 1))
            assert stop == len(ntd.nodes) - 1 or not dp.tables[stop]

            def decoded(i):
                bag = ntd.bag[i]
                return {tuple(s >> dp.off[v] & vmask for v in bag): s for s in dp.tables[i]}

            def before_projection(i):
                # the joined table with every edge at the forgotten vertex
                # applied in both directions, unfiltered
                g, x, table = inst.graph, ntd.vertex[i], set(joined[i])
                for e, w in zip(g.edges, inst.weights):
                    if x in e and e[0] + e[1] - x in ntd.bag[i]:
                        table = {s + (w << dp.off[t]) for s in table for t in e
                                 if (s >> dp.off[t] & vmask) + w <= inst.rho[t]}
                return table

            for i in range(stop + 1):
                table = decoded(i)
                assert len(table) == len(dp.tables[i])
                assert tuple_pareto_minimal(table) == table
                forgets += len(before_projection(i)) > 1
            for i, s in visited:
                assert s in tuple_pareto_minimal(decoded(i)).values(), (i, s)
            visits += len(visited)
        assert filtered_at == [FORGET] * forgets and forgets > 0 and visits > 0

    def test_k5_gadget_within_budget(self):
        # width-20 pc-chosen gadgets whose tables reach 35k states, most of
        # them minimal: the size that needs the filter's bitsets
        from twlab.reductions import pc_to_chosen_outdegree

        got = {}
        for plant in (False, True):
            inst = pc_to_chosen_outdegree(harness.gen_partitioned(5, 3, 0.5, plant, 1)).instance
            with within_seconds(10, f"pc-chosen k=5 n=3 gadget, plant={plant}"):
                ntd = nice_of(inst.graph)
                got[plant] = dp_chosen_outdegree(inst, ntd)
        assert got[False] is None and got[True] is not None
        assert got[True] == tuple_chosen_outdegree_dp(inst, with_four_kinds(ntd)[1])


class TestMinMaxDp:
    def test_triangle_r1(self, triangle):
        w = [1, 1, 1]
        assert min_max_outdegree(MinMaxOutdegreeInstance(triangle, w, 1), nice_of(triangle)) is not None

    def test_triangle_r_zero_rejected_by_type(self, triangle):
        with pytest.raises(InputError):
            MinMaxOutdegreeInstance(triangle, [1, 1, 1], 0)

    def test_matches_oracle_on_randoms(self):
        for inst in itertools.islice(minmax_instances(12, 7, 3, 5), 100):
            assert (min_max_outdegree(inst, nice_of(inst.graph)) is None) == (
                bf_min_max_outdegree(inst) is None
            )

    def test_matches_oracle_with_heavy_weights(self, monkeypatch):
        pruned = count_pruned(monkeypatch)
        rng = random.Random(41)
        checked = yes = 0
        for _ in range(80):
            g = rand_graph(rng, n_max=8)
            if not g.edges:
                continue
            checked += 1
            w = [rng.randint(1, 40) for _ in g.edges]
            inst = MinMaxOutdegreeInstance(g, w, rng.randint(1, 60))
            lam = min_max_outdegree(inst, nice_of(g))
            assert (lam is None) == (bf_min_max_outdegree(inst) is None)
            if lam is not None:
                assert check_admissible(
                    ChosenOutdegreeInstance(g, w, (inst.r,) * g.n), lam
                )
                yes += 1
        assert 0 < yes < checked and pruned[0] > 0

    def test_is_a_capped_instance(self):
        """The capped oracle, DP and checker take a minmax instance as it is,
        and agree with the minmax entry points on the corpora of the two
        tests above (the second's 80 draws hold 58 graphs with edges)."""
        checker = KIND_BY_TAG["minmax_outdegree"].check
        corpora = (minmax_instances(12, 7, 3, 5), minmax_instances(41, 8, 40, 60))
        yes = 0
        for corpus, count in zip(corpora, (100, 58)):
            for inst in itertools.islice(corpus, count):
                ntd = nice_of(inst.graph)
                assert inst.rho == (inst.r,) * inst.graph.n
                lam = bf_chosen_outdegree(inst)
                assert lam == bf_min_max_outdegree(inst)
                assert dp_chosen_outdegree(inst, ntd) == min_max_outdegree(inst, ntd)
                if lam is None:
                    continue
                yes += 1
                flipped = Orientation(inst.graph, [d[::-1] for d in lam.direction])
                for o in (lam, flipped):
                    within = max(all_outdegrees(inst.graph, inst.weights, o)) <= inst.r
                    assert check_admissible(inst, o) == checker(inst, o) == within
        assert 0 < yes < 158


class TestNonHeuristicDecompositions:
    def test_dp_on_star_host_tree_with_joins(self):
        # hand-built decomposition whose host is a star: normalizing it
        # gives the position of vertex 0 three children, of rests {0, 2},
        # {0, 2} and {0}, folded in turn over its bag {0, 2}
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        td = TreeDecomposition(
            Graph(4, [(0, 1), (0, 2), (0, 3)]),
            [{0, 2}, {0, 1, 2}, {0, 2, 3}, {0, 4}],
        )
        ntd = to_nice(td, g)
        inst = ListColoringInstance(g, [{1, 2}] + [{1}] * 4)
        got = dp_list_coloring(inst, ntd)
        assert got is not None and got[0] == 2

    def test_dp_chosen_on_gadget_witness_decomposition(self):
        # the reduction's own witness has every hub in every bag; the DP must
        # still agree with the oracle through its wide join states
        from twlab.graphs import PartitionedGraph
        from twlab.reductions import pc_to_chosen_outdegree

        pg = PartitionedGraph(
            Graph(4, [(0, 2), (1, 3)]), [(0, 1), (2, 3)]
        )
        out = pc_to_chosen_outdegree(pg)
        ntd = to_nice(out.witness, out.instance.graph)
        lam = dp_chosen_outdegree(out.instance, ntd)
        assert (lam is None) == (bf_chosen_outdegree(out.instance) is None)
        if lam is not None:
            assert check_admissible(out.instance, lam)

    def test_witnesses_match_tuple_oracles_on_given_decompositions(self):
        # both packed DPs on to_nice's trees of decompositions that no
        # elimination wrote return the tuple DPs' witnesses on the trees'
        # four-kind forms: random decompositions with inserted and hung
        # bags, the hand-built joins and pc-chosen gadgets' own witnesses
        from twlab.reductions import pc_to_chosen_outdegree

        rng = random.Random(37)
        given = list(decompositions_with_inserted_and_hung_bags(rng, 300)) + list(hand_built_joins()) * 20
        gadgets = [pc_to_chosen_outdegree(harness.gen_partitioned(3, 2, 0.5, plant, 1)) for plant in (False, True)]
        given += [(out.instance.graph, out.witness) for out in gadgets]
        answers = set()
        for g, td in given:
            ntd, four = with_four_kinds(to_nice(td, g))
            assert check_nice(ntd, g).ok and ntd.width() == width(td)
            lists = ListColoringInstance(g, [rng.sample((1, 2, 3), rng.choice((1, 2, 2, 3))) for _ in range(g.n)])
            got = dp_list_coloring(lists, ntd)
            assert got == tuple_list_coloring_dp(lists, four), (g.edges, td)
            caps = ChosenOutdegreeInstance(g, [rng.randint(1, 3) for _ in g.edges], [rng.randint(0, 3) for _ in range(g.n)])
            lam = dp_chosen_outdegree(caps, ntd)
            assert lam == tuple_chosen_outdegree_dp(caps, four), (g.edges, td)
            answers |= {("lists", got is None), ("caps", lam is None)}
        for out in gadgets:
            ntd, four = with_four_kinds(to_nice(out.witness, out.instance.graph))
            assert dp_chosen_outdegree(out.instance, ntd) == tuple_chosen_outdegree_dp(out.instance, four)
        assert answers == {(dp, no) for dp in ("lists", "caps") for no in (True, False)}


def count_checks(monkeypatch):
    calls = [0]

    def counting(ntd, g):
        calls[0] += 1
        return check_nice(ntd, g)

    monkeypatch.setattr(solvers, "check_nice", counting)
    return calls


# a triangle with two colours has no list colouring and no orientation of
# outdegree 0 at vertex 0 and <= 1 elsewhere; without any one edge it has both
TRIANGLE_LISTS = [{1, 2}] * 3
TRIANGLE_CAPS = (0, 1, 1)


def triangle_instances(g):
    return (
        (dp_list_coloring, ListColoringInstance(g, TRIANGLE_LISTS)),
        (dp_chosen_outdegree, ChosenOutdegreeInstance(g, [1] * 3, TRIANGLE_CAPS)),
    )


class TestTrustedNice:
    """Only heuristic_nice and to_nice build nice trees, so the DPs never
    run check_nice: they accept a tree built for a graph equal to the one
    solved on and refuse any other."""

    def test_to_nice_result_is_trusted_for_its_own_graph(self, triangle, monkeypatch):
        calls = count_checks(monkeypatch)
        ntd = nice_of(triangle)
        for dp, inst in triangle_instances(triangle):
            assert dp(inst, ntd) is None
        assert calls[0] == 0

    def test_distinct_graph_with_other_edges_is_rejected(self, triangle):
        ntd = nice_of(Graph(3, [(0, 1), (1, 2)]))
        for dp, inst in triangle_instances(triangle):
            for solve in (dp, harness.solve_dp):
                with pytest.raises(InputError, match="invalid nice decomposition: built for another graph"):
                    solve(inst, ntd)

    def test_equal_but_distinct_graph_is_checked(self, triangle, monkeypatch):
        # the graph is compared, not the tree: an equal graph is accepted
        calls = count_checks(monkeypatch)
        ntd = nice_of(complete(3))
        assert ntd.graph == triangle and ntd.graph is not triangle
        for dp, inst in triangle_instances(triangle):
            assert dp(inst, ntd) is None
        assert calls[0] == 0

    @pytest.mark.parametrize("method", ["min-fill", "min-degree"])
    def test_to_nice_output_passes_check_nice(self, method):
        # the property the DPs do not check at run time
        for g in elimination_test_graphs():
            ntd = to_nice(heuristic_decomposition(g, method), g)
            assert ntd.graph is g
            assert check_nice(ntd, g).ok


class TestNodeOrder:
    """A nice decomposition lists children before parents; the DPs walk it
    by index, and check_nice refuses any other layout."""

    def test_a_child_after_its_parent_is_rejected(self):
        g, ntd = other_branch_join_triangle()
        swap = {2: 3, 3: 2}  # the position of 2 and its parent trade ids
        for entries in (ntd.vertex, ntd.bag, ntd.children, ntd.new):
            entries[2], entries[3] = entries[3], entries[2]
        ntd.children[:] = [[swap.get(c, c) for c in kids] for kids in ntd.children]
        check = check_nice(ntd, g)
        assert check.violations[0] == "node 2: children (3,) do not all come before it"

    def test_a_node_with_two_parents_is_rejected(self):
        # node 0 hangs under both other nodes and node 1, of nonempty rest,
        # under none: not a forest whose roots have empty rests
        g = Graph(3)
        ntd = nice_from_elimination(g, [0, 1, 2], [(2,), (2,), ()])
        assert check_nice(ntd, g).ok and ntd.children == [[], [], [0, 1]]
        ntd.children[1], ntd.children[2], ntd.new[1] = [0], [0], (1,)
        assert check_nice(ntd, g).violations == (
            "node 0 of rest (2,) is the child of 2 nodes",
            "node 1 of rest (2,) is the child of 0 nodes",
        )


# the join or the forget named returns a table of cap + extra states, where
# cap is the product of the bounds of its bag ({v} | R for the join, R for
# the forget), the most states it can have, and the other its cap; the tree
# has a position with two children whose first child lacks part of its bag,
# and a position with a child and bag vertices that no child holds
OVER_BOUND = """
import math, sys
from twlab.graphs import Graph
from twlab.solvers import _NiceDP
from twlab.treewidth import TreeDecomposition, to_nice
which, extra = sys.argv[1], int(sys.argv[2])
print(sys.flags.optimize)
g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
ntd = to_nice(TreeDecomposition(Graph(3, [(0, 1), (0, 2)]), [{0, 1, 2}, {0, 3}, {1, 4}]), g)
vertex, bag, children, new = ntd.vertex, ntd.bag, ntd.children, ntd.new
assert any(len(children[i]) > 1 and {vertex[i], *bag[i]} - set(bag[children[i][0]]) for i in ntd.nodes)
assert any(children[i] and new[i] for i in ntd.nodes)
bound = [2, 3, 5, 7, 11]

def table(bag, kind):
    return set(range(math.prod(bound[v] for v in bag) + (extra if kind == which else 0)))

try:
    _NiceDP(g, ntd, 1).run(bound, lambda i: table((vertex[i], *bag[i]), "join"),
                           lambda i, joined: table(bag[i], "forget"), lambda i, s: [s] * len(children[i]))
    print("within its bound")
except AssertionError as exc:
    print(exc)
"""


def test_table_over_its_bound_raises_under_python_O():
    # the driver's table-size checks are plain raises, not asserts, so they
    # hold plain and under python -O alike; a join's cap is the product of
    # the bounds of {v} | R, those of the bag vertices its first child lacks
    # and of the ones no child holds included, and a forget's that of R: a
    # table at its cap passes, and one over it raises
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(solvers.__file__).parents[1])}
    for flags in ([], ["-O"]):
        for which in ("join", "forget"):
            for extra, verdict in ((0, "within its bound"), (1, "table over its bound")):
                proc = subprocess.run([sys.executable, *flags, "-c", OVER_BOUND, which, str(extra)],
                                      capture_output=True, text=True, env=env)
                expected = f"{len(flags)}\n{verdict}\n"
                assert proc.returncode == 0 and proc.stdout == expected, (flags, which, extra, proc.stderr)


# the path 0-1-2 on an elimination tree in which 1 and 2 share no bag: 1 is
# eliminated with an empty rest, so no forget ever applies the edge 12.
# With caps 0 at 0 and 1 the edge 01 empties the table at the forget of 0,
# below the root 1.  Four caps hang vertex 3 off 0, eliminated first: the
# edge 03 empties the table there, and the forget of 0 above it, which
# would apply 01, is never built.
EDGE_IN_NO_BAG = """
import sys
from conftest import nice_from_elimination
from twlab.graphs import Graph
from twlab.problems import ChosenOutdegreeInstance
from twlab.solvers import dp_chosen_outdegree
caps = tuple(map(int, sys.argv[1].split(",")))
print(sys.flags.optimize)
if len(caps) == 3:
    g = Graph(3, [(0, 1), (1, 2)])
    ntd = nice_from_elimination(g, [0, 1, 2], [(1,), (), ()])
else:
    g = Graph(4, [(0, 1), (0, 3), (1, 2)])
    ntd = nice_from_elimination(g, [3, 0, 1, 2], [(0,), (1,), (), ()])
try:
    dp_chosen_outdegree(ChosenOutdegreeInstance(g, [1] * len(g.edges), caps), ntd)
except AssertionError as exc:
    print(exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_an_edge_no_forget_applies_raises(flags):
    # the orientation DP counts the edges it applies with a plain raise, so
    # a tree that misses an edge is refused under python -O too; and a run
    # that stops at an empty table counts the edges of the forgets above it
    src = pathlib.Path(solvers.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(pathlib.Path(__file__).parent)])}
    for caps, applied in (("1,1,1", "1 of the graph's 2"), ("0,0,1", "1 of the graph's 2"),
                          ("0,1,1,0", "2 of the graph's 3")):
        proc = subprocess.run([sys.executable, *flags, "-c", EDGE_IN_NO_BAG, caps],
                              capture_output=True, text=True, env=env)
        expected = f"{int(bool(flags))}\nthe nice tree applies {applied} edges\n"
        assert proc.returncode == 0 and proc.stdout == expected, (caps, proc.stderr)


@pytest.mark.parametrize("dp", ["list-coloring", "chosen-outdegree"])
def test_the_dp_stops_at_the_first_empty_table(monkeypatch, dp):
    # every step maps an empty table to an empty one, so _NiceDP.run answers
    # no at the first empty table, of a join or of a forget, and calls no
    # handler after it; the tuple oracles, which build every table, give the
    # same answers
    runs, run = [], solvers._NiceDP.run

    def recording(self, bound, join, forget, back):
        def at(handler):
            def handle(i, *args):
                table = handler(i, *args)
                built.append((i, len(table)))
                return table
            return handle

        built = []
        runs.append(built)
        return run(self, bound, at(join), at(forget), back)

    monkeypatch.setattr(solvers._NiceDP, "run", recording)
    rng = random.Random(38)
    if dp == "list-coloring":
        cases = [(inst, both_trees(inst.graph)) for inst in list_corpus(rng, 300) if all(inst.lists)]
        solve, oracle = dp_list_coloring, tuple_list_coloring_dp
    else:
        cases = chosen_corpus(rng, "min-fill")
        solve, oracle = dp_chosen_outdegree, tuple_chosen_outdegree_dp
    stopped = 0
    for inst, (ntd, four) in cases:
        got = solve(inst, ntd)
        assert got == oracle(inst, four)
        built = runs.pop()
        ids, sizes = [i for i, _ in built], [size for _, size in built]
        assert ids == [k // 2 for k in range(len(built))]  # each position's join, then its forget
        if len(built) < 2 * len(ntd.nodes):
            assert got is None and sizes[-1] == 0 and 0 not in sizes[:-1]
            stopped += 1
        else:
            assert 0 not in sizes[:-1]
    assert stopped > 20


class TestFlow:
    def test_c4(self):
        assert flow_min_max_uniform(cycle(4), 1) == 1

    def test_k4(self):
        assert flow_min_max_uniform(complete(4), 1) == 2

    def test_star_heavy(self):
        assert flow_min_max_uniform(star(5), 7) == 7

    def test_edgeless(self):
        assert flow_min_max_uniform(Graph(3, []), 2) == 0

    def test_scales_linearly_in_weight(self):
        rng = random.Random(3)
        for _ in range(20):
            g = rand_graph(rng, n_max=8)
            c = rng.randint(1, 9)
            assert flow_min_max_uniform(g, c) == c * flow_min_max_uniform(g, 1)

    def test_matches_brute_force_minimum(self):
        rng = random.Random(19)
        for _ in range(60):
            g = rand_graph(rng, n_max=8, p=0.45)
            w = [1] * len(g.edges)
            assert flow_min_max_uniform(g, 1) == bf_min_max_value(g, w)

    def test_orientation_certifies_its_value(self):
        """Independent of the solver: the vertices R reachable from those of
        maximum outdegree in the returned orientation span a subgraph whose
        density forces that maximum, ceil(|E(G[R])| / |R|) == value, and the
        orientation reaches it."""
        rng = random.Random(29)
        for n in [2, 5, 9, 20, 50, 120, 300] * 4:
            p = rng.choice((0.02, 0.05, 0.1, 0.3)) if n > 20 else rng.choice((0.2, 0.5, 0.8))
            g = rand_graph(rng, n_max=n, p=p)
            value, lam = min_max_orientation(g)
            assert value == flow_min_max_uniform(g, 1)
            unit = [1] * len(g.edges)
            assert check_admissible(MinMaxOutdegreeInstance(g, unit, max(value, 1)), lam)
            if not g.edges:
                assert value == 0
                continue
            out = {v: [] for v in g.vertices()}
            for tail, head in lam.direction:
                out[tail].append(head)
            reach = {v for v in g.vertices() if len(out[v]) == value}
            stack = list(reach)
            while stack:
                for y in out[stack.pop()]:
                    if y not in reach:
                        reach.add(y)
                        stack.append(y)
            inside = sum(1 for u, v in g.edges if u in reach and v in reach)
            assert -(-inside // len(reach)) == value

    def test_n800_within_budget(self):
        """A random graph with n=800 and m=3,161 (fresh max-flows per binary
        search step took about 11 s)."""
        g, _ = harness.gen_weighted(800, 0.01, 1, 10)
        assert len(g.edges) == 3161
        with within_seconds(10, "min-max orientation of the n=800 graph"):
            value, lam = min_max_orientation(g)
        unit = [1] * len(g.edges)
        assert check_admissible(MinMaxOutdegreeInstance(g, unit, value), lam)
        assert not check_admissible(MinMaxOutdegreeInstance(g, unit, value - 1), lam)
