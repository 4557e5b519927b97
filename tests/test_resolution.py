import copy

import pytest

from normcolour import (
    ALGORITHMS,
    Colouring,
    Policy,
    colour_curtail,
    colour_curtail_complete,
    colour_resolve,
    colour_resolve_complete,
    dsatur,
    is_valid_colouring,
)
from normcolour import resolution
from normcolour.oracle import is_admissible, is_complete_extension, is_conflict_free

from .conftest import complete_graph, make_graph


@pytest.fixture
def triangle_plus_edge():
    # triangle a,b,c plus a disjoint edge d-e
    g = make_graph("abcde", [("a", "b"), ("a", "c"), ("b", "c"), ("d", "e")])
    policy = Policy.weak_order({"c": 5, "d": 4, "e": 3, "a": 2, "b": 1})
    return g, policy


def entry_pairs(res):
    return [(e.norm, list(e.curtailed_wrt)) for e in res.entries]


class TestColourResolve:
    def test_single_norm(self):
        g = make_graph(["only"])
        res = colour_resolve(g, Policy.max_class())
        assert res.admitted == ("only",)
        assert res.admitted_unconditionally == {"only"}

    def test_complete_graph_admits_only_top_rank(self):
        ids = [f"n{i:02d}" for i in range(16)]
        g = complete_graph(ids)
        policy = Policy.weak_order({v: 15 - i for i, v in enumerate(ids)})
        res = colour_resolve(g, policy)
        assert res.admitted == (ids[0],)

    def test_triangle_with_ranks(self):
        g = make_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
        res = colour_resolve(g, Policy.weak_order({"a": 3, "b": 2, "c": 1}))
        assert res.admitted == ("a",)

    def test_never_curtails(self, triangle_plus_edge):
        g, policy = triangle_plus_edge
        res = colour_resolve(g, policy)
        assert all(not e.curtailed_wrt for e in res.entries)
        assert res.admitted == ("c",)

    def test_output_is_admissible(self, triangle_plus_edge):
        g, policy = triangle_plus_edge
        assert is_admissible(g, colour_resolve(g, policy).admitted)


class TestColourResolveComplete:
    def test_k2_already_complete(self):
        g = make_graph("ab", [("a", "b")])
        res = colour_resolve_complete(g, Policy.weak_order({"a": 2, "b": 1}))
        assert res.admitted == ("a",)
        assert is_complete_extension(g, res.admitted)

    def test_completion_pulls_in_unblocked_vertices(self, triangle_plus_edge):
        g, policy = triangle_plus_edge
        res = colour_resolve_complete(g, policy)
        assert set(res.admitted) == {"c", "d"}
        assert is_complete_extension(g, res.admitted)

    def test_isolated_vertex_joins(self):
        g = make_graph("abx", [("a", "b")])
        res = colour_resolve_complete(g, Policy.weak_order({"a": 2, "b": 1, "x": 0}))
        assert set(res.admitted) == {"a", "x"}
        assert is_complete_extension(g, res.admitted)

    def test_superset_of_plain_resolve(self, triangle_plus_edge):
        g, policy = triangle_plus_edge
        plain = set(colour_resolve(g, policy).admitted)
        completed = set(colour_resolve_complete(g, policy).admitted)
        assert plain <= completed

    def test_recoloured_colouring_stays_proper(self, triangle_plus_edge):
        g, policy = triangle_plus_edge
        res = colour_resolve_complete(g, policy)
        assert is_valid_colouring(g, res.colouring)


class TestColourCurtail:
    def test_edgeless_graph_admits_everything_uncurtailed(self):
        g = make_graph("abcd")
        res = colour_curtail(g, Policy.max_class())
        assert entry_pairs(res) == [("a", []), ("b", []), ("c", []), ("d", [])]

    def test_path_trace(self):
        g = make_graph("abc", [("a", "b"), ("b", "c")])
        res = colour_curtail(g, Policy.weak_order({"b": 3, "a": 2, "c": 1}))
        assert entry_pairs(res) == [("b", []), ("a", ["b"]), ("c", ["b"])]

    def test_k2(self):
        g = make_graph("ab", [("a", "b")])
        res = colour_curtail(g, Policy.weak_order({"a": 2, "b": 1}))
        assert entry_pairs(res) == [("a", []), ("b", ["a"])]

    def test_covers_every_norm_exactly_once(self, triangle_plus_edge):
        g, policy = triangle_plus_edge
        res = colour_curtail(g, policy)
        assert sorted(res.admitted) == sorted(g.ids)

    def test_first_class_matches_colour_resolve(self, triangle_plus_edge):
        g, policy = triangle_plus_edge
        res = colour_curtail(g, policy)
        best = res.colour_order[0]
        first = [e.norm for e in res.entries if res.colouring.assignment[e.norm] == best]
        assert tuple(first) == colour_resolve(g, policy).admitted

    def test_curtailments_point_at_earlier_conflicting_norms(self, triangle_plus_edge):
        g, policy = triangle_plus_edge
        res = colour_curtail(g, policy)
        seen: list[str] = []
        for e in res.entries:
            assert list(e.curtailed_wrt) == [w for w in seen if w in g.neighbours(e.norm)]
            seen.append(e.norm)

    def test_one_curtailment_per_conflict(self, triangle_plus_edge):
        g, policy = triangle_plus_edge
        assert colour_curtail(g, policy).total_curtailments == len(g.edges)


class TestColourCurtailComplete:
    def test_edgeless_graph(self):
        g = make_graph("abcd")
        res = colour_curtail_complete(g, Policy.max_class())
        assert entry_pairs(res) == [("a", []), ("b", []), ("c", []), ("d", [])]

    def test_triangle_plus_edge_trace(self, triangle_plus_edge):
        g, policy = triangle_plus_edge
        res = colour_curtail_complete(g, policy)
        assert entry_pairs(res) == [
            ("c", []),
            ("d", []),
            ("a", ["c"]),
            ("e", ["d"]),
            ("b", ["c", "a"]),
        ]

    def test_k2(self):
        g = make_graph("ab", [("a", "b")])
        res = colour_curtail_complete(g, Policy.weak_order({"a": 2, "b": 1}))
        assert entry_pairs(res) == [("a", []), ("b", ["a"])]

    def test_first_iteration_matches_resolve_complete(self, triangle_plus_edge):
        g, policy = triangle_plus_edge
        res = colour_curtail_complete(g, policy)
        best = res.colour_order[0]
        first = {e.norm for e in res.entries if res.colouring.assignment[e.norm] == best}
        assert first == set(colour_resolve_complete(g, policy).admitted)
        assert is_complete_extension(g, first)

    def test_uncurtailed_entries_conflict_free(self, triangle_plus_edge):
        g, policy = triangle_plus_edge
        res = colour_curtail_complete(g, policy)
        assert is_conflict_free(g, res.admitted_unconditionally)

    def test_covers_every_norm_and_colouring_stays_proper(self, triangle_plus_edge):
        g, policy = triangle_plus_edge
        res = colour_curtail_complete(g, policy)
        assert sorted(res.admitted) == sorted(g.ids)
        assert is_valid_colouring(g, res.colouring)

    def test_one_curtailment_per_conflict(self, triangle_plus_edge):
        g, policy = triangle_plus_edge
        assert colour_curtail_complete(g, policy).total_curtailments == len(g.edges)


class TestSharedBehaviour:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_empty_graph(self, name):
        g = make_graph([])
        res = ALGORITHMS[name](g, Policy.max_class())
        assert res.entries == ()
        assert res.colouring.num_colours == 0
        assert res.colour_order == ()

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_deterministic(self, name, triangle_plus_edge):
        g, policy = triangle_plus_edge
        assert ALGORITHMS[name](g, policy) == ALGORITHMS[name](g, policy)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_labels(self, name, triangle_plus_edge):
        g, policy = triangle_plus_edge
        res = ALGORITHMS[name](g, policy)
        assert res.algorithm == name
        assert res.policy == "weak-order:net"

    def test_admission_leaves_a_shared_preparation_unchanged(self, triangle_plus_edge):
        # every algorithm in name order on one set of classes and ranking, so
        # curtail-complete's completion runs before resolve reads the classes
        g, policy = triangle_plus_edge
        colour, buckets, order = resolution._prepare(g, policy)
        prepared = (buckets, order)
        before = copy.deepcopy(prepared)
        for name in sorted(ALGORITHMS):
            taken = resolution._admission(name, g._adj, *prepared)
            assert prepared == before
            res = ALGORITHMS[name](g, policy)
            assert tuple(g.ids[i] for members in taken for i in members) == res.admitted
            # class by class, in the ranking's order
            for c, members in zip(order, taken):
                assert all(res.colouring.assignment[g.ids[i]] == c for i in members)

    def test_custom_heuristic_accepted(self, triangle_plus_edge):
        g, _ = triangle_plus_edge

        def prefer_highest_colour_id(graph, phi, c):
            return float(c)

        res = colour_resolve(g, prefer_highest_colour_id)
        assert res.colour_order[0] == res.colouring.num_colours - 1
        assert res.policy == "prefer_highest_colour_id"

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_only_a_callable_is_handed_dsaturs_colouring(self, name, triangle_plus_edge,
                                                           monkeypatch):
        g, policy = triangle_plus_edge
        expected = list(dsatur(g).assignment.items())  # in colouring order
        built, seen = [], []
        check = Colouring.__post_init__

        def counted(phi):
            built.append(phi)
            check(phi)

        def heuristic(graph, phi, c):
            seen.append(phi)
            return float(c)

        monkeypatch.setattr(Colouring, "__post_init__", counted)
        res = ALGORITHMS[name](g, policy)
        assert built == [res.colouring]  # a built-in policy builds only the final one
        built.clear()
        res = ALGORITHMS[name](g, heuristic)
        assert len(built) == 2 and built[1] is res.colouring
        assert seen and all(phi is built[0] for phi in seen)
        assert list(built[0].assignment.items()) == expected
