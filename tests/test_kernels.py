"""Edge cases of the search kernels (the oracles in test_problems cover
their verdicts and witnesses)."""

import pytest

from twlab import kernels
from twlab.errors import GuardError


class TestKernelEdgeCases:
    def test_orient_empty(self):
        assert kernels.orient_search(3, [], [], [], [0, 0, 0]) == []

    def test_orient_immediate_contradiction(self):
        assert kernels.orient_search(2, [0], [1], [5], [1, 1]) is None

    def test_color_no_vertices(self):
        assert kernels.list_color_search(0, [0], [], [0], []) == []

    def test_gensat_no_constraints(self):
        assert kernels.gensat_search(2, [0], [], [0], []) == [0, 0]

    def test_gensat_empty_relation(self):
        assert kernels.gensat_search(1, [0, 1], [0], [0, 0], []) is None

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
