import random
import time

import pytest

from normcolour import (
    Colouring,
    ConflictGraph,
    IncompleteColouring,
    Norm,
    SchemaError,
    UnknownColour,
    dsatur,
    is_valid_colouring,
)
from normcolour.oracle import chromatic_number

from .conftest import complete_graph, make_graph


class TestDsatur:
    def test_isolated_vertices_share_one_colour(self):
        g = make_graph("abc")
        phi = dsatur(g)
        assert phi.num_colours == 1
        assert set(phi.assignment.values()) == {0}

    def test_triangle_needs_three_colours(self):
        g = make_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
        assert dsatur(g).num_colours == 3

    def test_path_matches_exact_chromatic_number(self):
        g = make_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        phi = dsatur(g)
        assert is_valid_colouring(g, phi)
        assert phi.num_colours == chromatic_number(g) == 2

    def test_empty_graph(self):
        phi = dsatur(make_graph([]))
        assert phi.num_colours == 0
        assert phi.assignment == {}

    def test_pinned_tiebreak_trace(self):
        # triangle abc plus disjoint edge d-e: highest degree first (a, by
        # insertion), saturation drives b then c, then d and e by insertion
        g = make_graph("abcde", [("a", "b"), ("a", "c"), ("b", "c"), ("d", "e")])
        phi = dsatur(g)
        # the assignment lists norms in selection order
        assert list(phi.assignment.items()) == [("a", 0), ("b", 1), ("c", 2), ("d", 0), ("e", 1)]

    def test_deterministic(self):
        g = make_graph("abcdef", [("a", "d"), ("b", "e"), ("c", "f"), ("a", "f")])
        assert dsatur(g) == dsatur(g)

    def test_colour_ids_contiguous_from_zero(self):
        g = complete_graph("abcd")
        phi = dsatur(g)
        assert sorted(set(phi.assignment.values())) == list(range(phi.num_colours))


def _timed_dsatur(g: ConflictGraph) -> tuple[Colouring, float]:
    start = time.perf_counter()
    phi = dsatur(g)
    return phi, time.perf_counter() - start


class TestDsaturScaling:
    """Guards on DSATUR's O((n + m) log n) cost. On the sparse graph the
    O(n²) selection scan it replaced takes over a minute on a 2-core
    machine, the heap 0.2 s."""

    def test_sparse_20k_norms(self):
        rng = random.Random("dsatur-scaling")
        n = 20_000
        ids = [f"n{i}" for i in range(n)]
        edges = set()
        while len(edges) < 100_000:
            a, b = rng.sample(range(n), 2)
            edges.add((min(a, b), max(a, b)))
        g = ConflictGraph([Norm(v) for v in ids], [(ids[a], ids[b]) for a, b in edges])
        phi, seconds = _timed_dsatur(g)
        assert is_valid_colouring(g, phi)
        assert phi.num_colours <= max(g.degree(v) for v in ids) + 1
        assert seconds < 10

    def test_complete_graph(self):
        # a coloured vertex leaves a stale heap entry for every colour it
        # saw; re-processing those instead of skipping them gives the same
        # colouring at O(n³) cost: about 28 s here against 0.4 s on a
        # 2-core machine
        g = complete_graph(f"n{i}" for i in range(800))
        phi, seconds = _timed_dsatur(g)
        assert phi.num_colours == len(g)
        assert seconds < 5


class TestValidity:
    def test_proper_two_colouring_of_even_cycle(self):
        g = make_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        phi = Colouring({"a": 0, "b": 1, "c": 0, "d": 1}, 2)
        assert is_valid_colouring(g, phi)

    def test_monochromatic_edge_detected(self):
        g = make_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        phi = Colouring({"a": 0, "b": 0, "c": 1, "d": 2}, 3)
        assert not is_valid_colouring(g, phi)

    def test_edgeless_graph_accepts_any_colouring(self):
        g = make_graph("abc")
        assert is_valid_colouring(g, Colouring({"a": 2, "b": 0, "c": 1}, 3))

    def test_missing_vertex_raises(self):
        g = make_graph("ab")
        with pytest.raises(IncompleteColouring):
            is_valid_colouring(g, Colouring({"a": 0}, 1))

    @pytest.mark.parametrize("colour", [-1, 1])
    def test_colour_outside_the_range_is_rejected(self, colour):
        with pytest.raises(UnknownColour, match="'b'"):
            Colouring({"a": 0, "b": colour}, 1)

    def test_a_colour_too_long_to_print_is_not_shown(self):
        with pytest.raises(UnknownColour) as info:
            Colouring({"a": 10**5000}, 1)
        assert str(info.value) == "vertex 'a' has colour <too long to print>, not in 0..0"

    @pytest.mark.parametrize(
        "assignment, num_colours", [({"a": 0.5, "b": 0}, 1), ({"a": 0}, 1.5), ({"a": True}, 2)]
    )
    def test_colour_ids_must_be_integers(self, assignment, num_colours):
        with pytest.raises(SchemaError):
            Colouring(assignment, num_colours)

    @pytest.mark.parametrize("num_colours", [-1, -5])
    def test_a_negative_count_is_rejected(self, num_colours):
        with pytest.raises(SchemaError, match="^num_colours: expected a non-negative integer$"):
            Colouring({}, num_colours)

    @pytest.mark.parametrize("assignment", [[("a", 0)], "ab", None])
    def test_an_assignment_must_be_a_mapping(self, assignment):
        with pytest.raises(SchemaError, match="^assignment: expected a mapping"):
            Colouring(assignment, 1)


class TestColourClasses:
    def test_triangle_gives_singletons(self):
        g = make_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
        assert sorted(dsatur(g).assignment.values()) == [0, 1, 2]

    def test_path_trace(self):
        # dsatur on a-b-c colours the centre first
        g = make_graph("abc", [("a", "b"), ("b", "c")])
        assert dsatur(g).assignment == {"b": 0, "a": 1, "c": 1}

    def test_edgeless_graph_single_class(self):
        g = make_graph("abcde")
        assert dsatur(g).assignment == dict.fromkeys("abcde", 0)

    def test_classes_partition_vertices_and_are_independent(self):
        g = make_graph("abcdef", [("a", "b"), ("c", "d"), ("e", "f"), ("a", "c")])
        phi = dsatur(g)
        assert sorted(phi.assignment) == sorted(g.ids)
        for v, c in phi.assignment.items():
            assert all(phi.assignment[w] != c for w in g.neighbours(v))
