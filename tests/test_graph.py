import dataclasses
import inspect
import re
from collections import namedtuple
from types import SimpleNamespace

import pytest

from normcolour import (
    Colouring,
    DuplicateNormId,
    Norm,
    Policy,
    SchemaError,
    SelfConflict,
    UnknownColour,
    UnknownNormId,
    build_graph,
    score_admitted_set,
)
from normcolour.oracle import is_admissible, is_conflict_free, report

from .conftest import complete_graph, make_graph


_AB = [Norm("a"), Norm("b")]
_BAD_PAIR = ["a"]


class TestBuildGraph:
    def test_six_norm_system(self, six_norm_graph):
        assert len(six_norm_graph) == 6
        assert len(six_norm_graph.edges) == 2
        assert set(six_norm_graph.edges) == {("2", "4"), ("5", "6")}

    def test_single_norm_no_conflicts(self):
        g = make_graph(["a"])
        assert len(g) == 1
        assert g.edges == ()

    def test_duplicate_and_reversed_pairs_collapse(self):
        g = make_graph(["a", "b"], [("a", "b"), ("b", "a"), ("a", "b")])
        assert g.edges == (("a", "b"),)

    def test_edge_set_independent_of_pair_order(self):
        g1 = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        g2 = make_graph(["a", "b", "c"], [("c", "b"), ("b", "a")])
        assert set(g1.edges) == set(g2.edges)

    def test_duplicate_norm_id_rejected(self):
        with pytest.raises(DuplicateNormId):
            build_graph([Norm("a"), Norm("a")], [])

    def test_unknown_norm_in_conflict_rejected(self):
        with pytest.raises(UnknownNormId):
            make_graph(["a"], [("a", "b")])

    def test_self_conflict_rejected(self):
        with pytest.raises(SelfConflict):
            make_graph(["a", "b"], [("a", "a")])

    def test_identical_text_distinct_ids_allowed(self):
        g = build_graph([Norm("a", label="same"), Norm("b", label="same")], [])
        assert len(g) == 2

    def test_empty_id_rejected(self):
        with pytest.raises(SchemaError):
            Norm("")

    def test_edges_follow_insertion_order(self):
        # Pairs scrambled in order and orientation, with duplicates: each edge
        # is listed once, from its earlier norm, ordered by both positions.
        g = make_graph(
            ["d", "b", "a", "c"],
            [("c", "a"), ("b", "d"), ("a", "d"), ("c", "b"), ("d", "b"), ("a", "b"), ("c", "d")],
        )
        assert g.edges == (("d", "b"), ("d", "a"), ("d", "c"), ("b", "a"), ("b", "c"), ("a", "c"))

    def test_str_subclass_ids_and_tuple_subclass_pairs_are_accepted(self):
        # neither is an exact str or tuple, so the isinstance checks take them
        class Id(str):
            pass

        Pair = namedtuple("Pair", "a b")
        g = build_graph([Norm(Id("a")), Norm("b"), Norm("c")], [("a", "b"), (Id("b"), "c")])
        assert g.edges == (("a", "b"), ("b", "c"))
        g = build_graph([Norm("a"), Norm("b")], iter([Pair("a", "b"), ["b", Id("a")]]))
        assert g.edges == (("a", "b"),)
        assert build_graph(_AB, [Pair("b", "a")] * 2000) == build_graph(_AB, [("b", "a")] * 2000)


    @pytest.mark.parametrize(
        "norms, conflicts, message",
        [
            (["a", "b"], [], "norms[0]: expected a Norm"),
            ([Norm("a"), SimpleNamespace(id=5)], [], "norms[1]: expected a Norm"),
            (None, [], "norms: expected an iterable of Norms, not None"),
            ([Norm("a")], None, "conflicts: expected an iterable of pairs of norm ids, not None"),
            ([Norm("a")], 5, "conflicts: expected an iterable"),
            # a bad pair is named at the first index that holds it
            (_AB, [("a", "b"), ["b", "a"], _BAD_PAIR, ("a", "b"), _BAD_PAIR],
             "conflicts[2]: expected a pair of norm ids"),
            (_AB, iter([("a", "b"), ("b", "a"), ("a", 5), ("a", 5)]),
             "conflicts[2][1]: expected a string"),
        ],
    )
    def test_bad_arguments_and_pairs_are_named(self, norms, conflicts, message):
        with pytest.raises(SchemaError, match="^" + re.escape(message)):
            build_graph(norms, conflicts)

    def test_a_norm_generator_is_read_once(self):
        g = build_graph((Norm(v) for v in "ab"), iter([("a", "b")]))
        assert g.ids == ("a", "b") and g.edges == (("a", "b"),)


class TestNormSchema:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("id", 7),
            ("label", 3),
            *[
                (field, value)
                for field in ("declared_at", "authority_rank")
                for value in ("x", True, None, 1.5)
            ],
            ("antecedents", "rain"),
            ("antecedents", {"p": 1}),
            ("antecedents", [1]),
        ],
    )
    def test_bad_field_names_itself(self, field, value):
        fields = {"id": "a", field: value}
        with pytest.raises(SchemaError, match=f"^{field}"):
            Norm(**fields)

    def test_antecedent_collections_become_frozensets(self):
        for ants in (["p", "q"], ("q", "p"), {"p", "q"}, frozenset({"p", "q"})):
            assert Norm("a", antecedents=ants).antecedents == frozenset({"p", "q"})

    def test_constructor_takes_the_fields_in_order_with_their_defaults(self):
        fields = [(f.name, f.default) for f in dataclasses.fields(Norm)]
        assert fields == [
            ("id", dataclasses.MISSING),
            ("label", ""),
            ("declared_at", 0),
            ("authority_rank", 0),
            ("antecedents", frozenset()),
        ]
        params = inspect.signature(Norm).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            (name, inspect.Parameter.empty if default is dataclasses.MISSING else default)
            for name, default in fields
        ]
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)

    @pytest.mark.parametrize("args", [("a",), ("a", "l", 3, 2, ["p"])])
    def test_instance_holds_the_fields_in_field_order(self, args):
        # the norm document writer reads vars(norm) in this order
        norm = Norm(*args)
        assert list(vars(norm)) == [f.name for f in dataclasses.fields(Norm)]
        assert Norm(**vars(norm)) == norm


class TestNeighbours:
    def test_six_norm_system(self, six_norm_graph):
        assert six_norm_graph.neighbours("2") == {"4"}

    def test_isolated_vertex(self):
        g = make_graph(["a", "b"], [])
        assert g.neighbours("a") == frozenset()

    def test_star_centre(self):
        # independent derivation: list the incident edges of the centre
        edges = [("hub", "l1"), ("hub", "l2"), ("hub", "l3")]
        expected = {b for a, b in edges if a == "hub"} | {a for a, b in edges if b == "hub"}
        g = make_graph(["hub", "l1", "l2", "l3"], edges)
        assert g.neighbours("hub") == expected == {"l1", "l2", "l3"}

    def test_unknown_vertex(self, six_norm_graph):
        with pytest.raises(UnknownNormId):
            six_norm_graph.neighbours("nope")

    def test_symmetry(self, six_norm_graph):
        for v in six_norm_graph.ids:
            for w in six_norm_graph.neighbours(v):
                assert v in six_norm_graph.neighbours(w)


class TestDegree:
    def test_triangle_is_two_regular(self):
        g = make_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
        assert [g.degree(v) for v in "abc"] == [2, 2, 2]

    def test_isolated_vertex(self):
        g = make_graph(["a"])
        assert g.degree("a") == 0

    def test_complete_graph_on_16(self):
        g = complete_graph([f"n{i}" for i in range(16)])
        assert all(g.degree(v) == 15 for v in g.ids)

    def test_handshake_identity(self, six_norm_graph):
        assert sum(six_norm_graph.degree(v) for v in six_norm_graph.ids) == 2 * len(
            six_norm_graph.edges
        )

    def test_unknown_vertex(self):
        with pytest.raises(UnknownNormId):
            make_graph(["a"]).degree("b")


def test_vertex_iteration_follows_insertion_order():
    g = make_graph(["z", "m", "a"])
    assert g.ids == ("z", "m", "a")
    assert list(g) == ["z", "m", "a"]


def test_a_graph_is_unequal_to_a_non_graph():
    g = make_graph("ab", [("a", "b")])
    assert g.__eq__(g.edges) is NotImplemented
    assert g != g.edges and g != "ab"
    assert g == make_graph("ab", [("b", "a")])


def test_repr_counts_norms_and_distinct_conflicts():
    g = make_graph("abc", [("a", "b"), ("b", "a"), ("b", "c")])
    assert repr(g) == "ConflictGraph(3 norms, 2 conflicts)"
    assert repr(make_graph("a")) == "ConflictGraph(1 norms, 0 conflicts)"


@pytest.mark.parametrize(
    "call",
    [
        lambda g: g.norm(["a"]),
        lambda g: g.degree(["a"]),
        lambda g: g.neighbours(["a"]),
        lambda g: is_conflict_free(g, [["a"]]),
        lambda g: is_admissible(g, [["a"]]),
        lambda g: score_admitted_set(g, [["a"]], {"a": 0, "b": 0}),
        lambda g: report(g, [["a"]]),
    ],
    ids=["norm", "degree", "neighbours", "is_conflict_free", "is_admissible",
         "score_admitted_set", "report"],
)
def test_an_unhashable_id_is_an_unknown_norm(call):
    g = make_graph(["a", "b"], [("a", "b")])
    with pytest.raises(UnknownNormId, match=re.escape("unknown norm id ['a']")):
        call(g)
    assert ["a"] not in g


_BIG = 10**5000  # repr refuses an int of over 4,300 digits


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda g: g.norm(_BIG), UnknownNormId),
        (lambda g: g.degree(_BIG), UnknownNormId),
        (lambda g: g.neighbours(_BIG), UnknownNormId),
        (lambda g: is_conflict_free(g, [_BIG]), UnknownNormId),
        (lambda g: is_admissible(g, [_BIG]), UnknownNormId),
        (lambda g: report(g, [_BIG]), UnknownNormId),
        (lambda g: score_admitted_set(g, [_BIG], {"a": 0, "b": 0}), UnknownNormId),
        (lambda g: Policy.weak_order({_BIG: "x"}), SchemaError),
        (lambda g: Colouring({_BIG: 1}, 1), UnknownColour),
    ],
    ids=["norm", "degree", "neighbours", "is_conflict_free", "is_admissible", "report",
         "score_admitted_set", "weak_order", "colouring"],
)
def test_an_unprintable_int_is_named_by_a_stand_in(call, error):
    g = make_graph(["a", "b"], [("a", "b")])
    with pytest.raises(error, match="<too long to print>"):
        call(g)


def test_ids_are_computed_once():
    g = make_graph("abc", [("a", "b")])
    assert g.ids == ("a", "b", "c")
    assert g.ids is g.ids


def test_norm_lookup_and_metadata():
    g = make_graph(["a"], declared_at={"a": 7}, antecedents={"a": ["p", "q"]})
    norm = g.norm("a")
    assert norm.declared_at == 7
    assert norm.antecedents == frozenset({"p", "q"})
    with pytest.raises(UnknownNormId):
        g.norm("missing")
