import pytest
from hypothesis import given, strategies as st

from conftest import complete, cycle, induced_subgraph, path, star
from twlab.errors import InputError
from twlab.graphs import (
    Graph,
    Orientation,
    PartitionedGraph,
    all_outdegrees,
    graph_from_json,
    graph_to_json,
    is_clique,
    orientation_to_json,
    partitioned_from_json,
    partitioned_to_json,
)


def random_graphs():
    return st.integers(1, 8).flatmap(
        lambda n: st.builds(
            Graph,
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] < e[1]
                ),
                unique=True,
                max_size=n * (n - 1) // 2,
            ).map(lambda es: sorted(set(es))),
        )
    )


class TestConstruction:
    def test_loop_rejected(self):
        with pytest.raises(InputError):
            Graph(3, [(1, 1)])

    def test_duplicate_rejected_even_reversed(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])

    def test_edges_stored_canonically(self):
        g = Graph(3, [(2, 0), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))
        assert g.has_edge(0, 2) and g.has_edge(2, 0)

    def test_partition_rejects_intra_part_edge(self):
        with pytest.raises(InputError):
            PartitionedGraph(Graph(2, [(0, 1)]), [(0, 1)])

    def test_partition_rejects_unequal_parts(self):
        with pytest.raises(InputError):
            PartitionedGraph(Graph(3, []), [(0,), (1, 2)])

    def test_orientation_must_cover_edges(self):
        g = path(3)
        with pytest.raises(InputError, match="1 directions for 2 edges"):
            Orientation(g, [(0, 1)])


class TestInducedSubgraph:
    def test_identity(self, triangle):
        sub, idx = induced_subgraph(triangle, {0, 1, 2})
        assert sub == triangle and idx == {0: 0, 1: 1, 2: 2}

    def test_single_edge(self, triangle):
        sub, _ = induced_subgraph(triangle, {0, 1})
        assert sub.n == 2 and sub.edges == ((0, 1),)

    def test_path_subset_reindexed(self):
        sub, idx = induced_subgraph(path(4), {0, 2, 3})
        assert sub.n == 3
        assert sub.edges == ((idx[2], idx[3]),)

    def test_out_of_range(self, triangle):
        with pytest.raises(InputError):
            induced_subgraph(triangle, {0, 7})


class TestRemoveVertices:
    """Deleting a vertex set is the subgraph induced by its complement."""

    def test_k4_minus_one_is_k3(self):
        assert induced_subgraph(complete(4), {1, 2, 3})[0] == complete(3)

    def test_empty_removal_is_identity(self, triangle):
        assert induced_subgraph(triangle, triangle.vertices())[0] == triangle

    def test_star_center_leaves_isolated(self):
        g, _ = induced_subgraph(star(3), {1, 2, 3})
        assert g.n == 3 and g.edges == ()

    def test_vertex_count(self):
        g = cycle(6)
        assert induced_subgraph(g, set(g.vertices()) - {1, 4})[0].n == 4


class TestIsClique:
    def test_empty_set_vacuous(self, triangle):
        assert is_clique(triangle, set())

    def test_complete(self):
        assert is_clique(complete(4), {0, 1, 2, 3})

    def test_cycle_missing_diagonals(self):
        assert not is_clique(cycle(4), {0, 1, 2, 3})

    @given(random_graphs(), st.data())
    def test_monotone_under_subsets(self, g, data):
        s = data.draw(st.sets(st.integers(0, g.n - 1)))
        if is_clique(g, s):
            sub = data.draw(st.sets(st.sampled_from(sorted(s)) if s else st.nothing()))
            assert is_clique(g, sub)


class TestWeightedOutdegree:
    def test_isolated_vertex(self):
        g = Graph(2, [])
        w = []
        lam = Orientation(g, [])
        assert all_outdegrees(g, w, lam) == [0, 0]

    def test_single_edge(self):
        g = path(2)
        w = [5]
        lam = Orientation(g, [(0, 1)])
        assert all_outdegrees(g, w, lam) == [5, 0]

    def test_directed_triangle_sums_to_total(self, triangle):
        w = [1, 3, 2]  # (0, 1), (0, 2), (1, 2)
        lam = Orientation(triangle, [(0, 1), (2, 0), (1, 2)])
        outs = all_outdegrees(triangle, w, lam)
        assert outs == [1, 2, 3]
        assert sum(outs) == sum(w) == 6

    @given(random_graphs(), st.data())
    def test_outdegrees_sum_to_total_weight(self, g, data):
        w = [data.draw(st.integers(1, 9)) for _ in g.edges]
        dirs = [
            e if data.draw(st.booleans()) else (e[1], e[0]) for e in g.edges
        ]
        lam = Orientation(g, dirs)
        assert sum(all_outdegrees(g, w, lam)) == sum(w)


class TestSerialization:
    def test_graph_round_trip(self):
        g = cycle(5)
        assert graph_from_json(graph_to_json(g)) == g

    def test_partitioned_round_trip(self):
        pg = PartitionedGraph(Graph(4, [(0, 2), (1, 3)]), [(0, 1), (2, 3)])
        assert partitioned_from_json(partitioned_to_json(pg)) == pg

    def test_orientation_round_trip(self):
        g = path(3)
        lam = Orientation(g, [(1, 0), (1, 2)])
        obj = orientation_to_json(lam)
        assert Orientation(graph_from_json(obj), [tuple(d) for d in obj["orientation"]]) == lam

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            graph_from_json({"n": 2})
