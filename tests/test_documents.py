import dataclasses
import gc
import json
import pickle
import re
from enum import IntEnum
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcolour import (
    ALGORITHMS,
    Colouring,
    CurtailedNorm,
    DocumentSyntaxError,
    DuplicateNormId,
    Norm,
    Policy,
    Resolution,
    SchemaError,
    SelfConflict,
    UnknownNormId,
    colour_curtail,
    build_graph,
    colour_resolve,
)
from normcolour import documents
from normcolour.documents import (
    ResolutionDocument,
    parse_norm_document,
    read_resolution,
    write_norm_document,
    write_resolution,
)

from .conftest import data_text, make_graph


class TestParseNormDocument:
    def test_six_norm_document(self):
        g = parse_norm_document(data_text("six_norms.json"))
        assert len(g) == 6
        assert set(g.edges) == {("2", "4"), ("5", "6")}

    def test_minimal_document(self):
        g = parse_norm_document('{"norms":[{"id":"a"}],"conflicts":[]}')
        assert g.ids == ("a",)
        assert g.edges == ()

    def test_metadata_defaults(self):
        g = parse_norm_document('{"norms":[{"id":"a"}]}')
        norm = g.norm("a")
        assert (norm.label, norm.declared_at, norm.authority_rank) == ("", 0, 0)
        assert norm.antecedents == frozenset()

    def test_self_conflict_surfaces(self):
        with pytest.raises(SelfConflict):
            parse_norm_document('{"norms":[{"id":"a"}],"conflicts":[["a","a"]]}')

    def test_duplicate_id_surfaces(self):
        with pytest.raises(DuplicateNormId):
            parse_norm_document('{"norms":[{"id":"a"},{"id":"a"}]}')

    def test_unknown_conflict_id_surfaces(self):
        with pytest.raises(UnknownNormId):
            parse_norm_document('{"norms":[{"id":"a"}],"conflicts":[["a","b"]]}')

    def test_syntax_error_reports_position(self):
        with pytest.raises(DocumentSyntaxError, match=r"line \d+, column \d+"):
            parse_norm_document('{"norms": [}')

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("[]", "top level"),
            ('{"norms": 3}', "norms"),
            ('{"norms":[5]}', "norms[0]"),
            ('{"norms":[{"label":"x"}]}', "missing required field 'id'"),
            ('{"norms":[{"id":""}]}', "norms[0].id"),
            ('{"norms":[{"id":"a","declared_at":"soon"}]}', "declared_at"),
            ('{"norms":[{"id":"a","declared_at":true}]}', "declared_at"),
            ('{"norms":[{"id":"a","antecedents":"p"}]}', "antecedents"),
            ('{"norms":[{"id":"a","antecedents":[1]}]}', "antecedents[0]"),
            ('{"norms":[{"id":"a"}],"conflicts":[["a"]]}', "conflicts[0]"),
            ('{"norms":[{"id":"a"}],"conflicts":["a,b"]}', "conflicts[0]"),
            ('{"norms":[{"id":5}]}', "norms[0].id"),
            ('{"norms":[{"id":"a","antecedents":{"p":1}}]}', "norms[0].antecedents"),
            ('{"norms":[{"id":"a"}],"conflicts":{"a":"b"}}', "conflicts: expected a list"),
        ],
    )
    def test_schema_errors_carry_path_context(self, text, fragment):
        with pytest.raises(SchemaError, match=re.escape(fragment)):
            parse_norm_document(text)

    @pytest.mark.parametrize(
        "text,error,fragment",
        [
            ('{"norms":[{"id":"a"}],"conflicts":[["a","a"]]}', SelfConflict, "conflicts[0]"),
            (
                '{"norms":[{"id":"a"},{"id":"b"}],"conflicts":[["a","b"],["b","x"]]}',
                UnknownNormId,
                "conflicts[1]: unknown norm id 'x'",
            ),
            ('{"norms":[{"id":"a"},{"id":"a"}]}', DuplicateNormId, "norms[1]"),
        ],
    )
    def test_graph_errors_carry_path_context(self, text, error, fragment):
        with pytest.raises(error, match=re.escape(fragment)):
            parse_norm_document(text)


_DOCUMENTS = {
    parse_norm_document: '{"norms": [{"id": "a"}]}',
    documents.parse_rank_map: '{"a": 1}',
    read_resolution: write_resolution(colour_resolve(make_graph("a"), Policy.max_class())),
}


@pytest.mark.parametrize(
    "kind", ["bytes", "bytearray", "none", "undecodable", "bad-byte-in-a-string"]
)
@pytest.mark.parametrize("parse, text", _DOCUMENTS.items(), ids=["norms", "ranks", "resolution"])
def test_a_document_must_be_text_or_bytes(parse, text, kind):
    data = text.encode()
    at = data.index(b'"a"') + 2  # inside the document's first string "a"
    not_utf8 = "invalid JSON: not utf-8 at byte {} (invalid start byte)"
    # each input, and the error it raises (None: it parses as the text does)
    document, error = {
        "bytes": (data, None),
        "bytearray": (bytearray(data), None),
        "none": (None, (SchemaError, "document: expected a str, bytes or bytearray, not NoneType")),
        "undecodable": (b"\xff", (DocumentSyntaxError, not_utf8.format(0))),
        "bad-byte-in-a-string": (
            bytearray(data[:at] + b"\xff" + data[at:]), (DocumentSyntaxError, not_utf8.format(at))
        ),
    }[kind]
    if error is None:
        assert parse(document) == parse(text)
    else:
        with pytest.raises(error[0], match=f"^{re.escape(error[1])}$"):
            parse(document)


class TestTrustedNorms:
    TEXT = json.dumps(
        {
            "norms": [
                {"id": "a", "label": "l", "declared_at": 3, "authority_rank": -2,
                 "antecedents": ["q", "p", "q"]},
                {"id": "b"},
            ]
        }
    )
    BUILT = (Norm("a", "l", 3, -2, ["q", "p", "q"]), Norm("b"))

    def test_a_parsed_norm_is_a_constructed_one(self):
        for parsed, built in zip(parse_norm_document(self.TEXT).norms, self.BUILT):
            assert type(parsed) is Norm
            assert parsed == built and hash(parsed) == hash(built)
            assert repr(parsed) == repr(built)
            assert vars(parsed) == vars(built)
            assert dataclasses.replace(parsed, label="m") == dataclasses.replace(built, label="m")
            copy = pickle.loads(pickle.dumps(parsed))
            assert copy == built and vars(copy) == vars(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                parsed.label = "x"

    def test_replace_still_checks(self):
        parsed = parse_norm_document(self.TEXT).norms[0]
        with pytest.raises(SchemaError, match="^declared_at"):
            dataclasses.replace(parsed, declared_at=True)


class TestGraphRoundTrip:
    def test_full_metadata_round_trip(self):
        g = make_graph(
            ["b", "a", "c"],
            [("b", "a"), ("a", "c")],
            declared_at={"a": 4, "b": -1},
            authority_rank={"c": 9},
            antecedents={"a": {"q", "p"}},
        )
        assert parse_norm_document(write_norm_document(g)) == g

    def test_written_norm_keeps_its_field_order(self):
        g = build_graph([Norm("a", "no \"disclosure\"", 3, 1, ["q", "p"]), Norm("b", "x")], [])
        text = write_norm_document(g)
        assert json.loads(text)["norms"] == [
            {"id": "a", "label": 'no "disclosure"', "declared_at": 3,
             "authority_rank": 1, "antecedents": ["p", "q"]},
            {"id": "b", "label": "x"},
        ]
        assert list(json.loads(text)["norms"][0]) == [
            "id", "label", "declared_at", "authority_rank", "antecedents"
        ]
        assert parse_norm_document(text) == g

    def test_six_norm_round_trip(self):
        g = parse_norm_document(data_text("six_norms.json"))
        assert parse_norm_document(write_norm_document(g)) == g

    def test_written_document_omits_defaults(self):
        doc = json.loads(write_norm_document(make_graph(["a"])))
        assert doc == {"norms": [{"id": "a"}], "conflicts": []}


class TestResolutionDocuments:
    def test_path_curtail_fixture(self):
        g = make_graph("abc", [("a", "b"), ("b", "c")])
        res = colour_curtail(g, Policy.weak_order({"b": 3, "a": 2, "c": 1}))
        doc = json.loads(write_resolution(res))
        assert doc["algorithm"] == "curtail"
        assert doc["entries"] == [
            {"norm": "b", "curtailed_wrt": []},
            {"norm": "a", "curtailed_wrt": ["b"]},
            {"norm": "c", "curtailed_wrt": ["b"]},
        ]

    def test_empty_resolution(self):
        res = colour_resolve(make_graph([]), Policy.max_class())
        doc = json.loads(write_resolution(res))
        assert doc["entries"] == []
        assert doc["colours_used"] == 0

    def test_resolve_output_never_curtails(self, six_norm_graph):
        res = colour_resolve(six_norm_graph, Policy.lex_posterior())
        doc = json.loads(write_resolution(res))
        assert all(e["curtailed_wrt"] == [] for e in doc["entries"])

    def test_round_trip(self, six_norm_graph):
        res = colour_curtail(six_norm_graph, Policy.lex_posterior())
        text = write_resolution(res)
        parsed = read_resolution(text)
        assert parsed == ResolutionDocument(
            res.algorithm, res.policy, res.colouring.num_colours, res.entries
        )
        # a second write/read cycle is a fixed point
        assert read_resolution(write_resolution(res)) == parsed

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "top level: expected an object"),
            ('{"entries": {}}', "entries: expected a list"),
            ('{"entries": [{"curtailed_wrt": []}]}', "entries[0]: expected an object with a"),
            ('{"entries": [{"norm": "a", "curtailed_wrt": "b"}]}', "entries[0].curtailed_wrt:"),
            ('{"entries": [{"norm": "a", "curtailed_wrt": [1]}]}', "entries[0].curtailed_wrt[0]:"),
            ('{"entries": [{"norm": "a"}, {"norm": 2}]}', "entries[1].norm: expected a string"),
            ('{"entries": [], "policy": 1}', "policy: expected a string"),
            ('{"entries": [], "colours_used": -3}', "colours_used: expected a non-negative"),
        ],
    )
    def test_read_rejects_bad_shapes(self, text, message):
        with pytest.raises(SchemaError, match="^" + re.escape(message)):
            read_resolution(text)

    def test_read_rejects_bad_json(self):
        with pytest.raises(DocumentSyntaxError):
            read_resolution("{")


def json_rendering(r: Resolution) -> str:
    """The resolution document as json.dumps lays it out."""
    doc = {
        "algorithm": r.algorithm,
        "policy": r.policy,
        "colours_used": r.colouring.num_colours,
        "entries": [
            {"norm": e.norm, "curtailed_wrt": list(e.curtailed_wrt)} for e in r.entries
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# quotes, backslashes, control characters, non-ASCII, astral characters (a
# surrogate pair each when escaped), and the two JavaScript line separators
_AWKWARD = st.sampled_from(
    ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "\U0001f600", "\u2028", "\u2029"]
)
_strings = st.text(_AWKWARD | st.characters(), max_size=6)


class _Count(IntEnum):
    TWO = 2


class _NamedFive:
    """A heuristic whose __name__ is not a str: it is labelled custom."""

    __name__ = 5

    def __call__(self, g, phi, c):
        return float(c)


_named_five = _NamedFive()


class TestWriterIdentity:
    @settings(max_examples=300, deadline=None)
    @given(
        _strings,
        _strings,
        st.integers(0, 10**6),
        st.lists(st.tuples(_strings, st.lists(_strings, max_size=3)), max_size=4),
    )
    def test_text_is_the_json_rendering(self, algorithm, policy, colours, entries):
        entries = tuple(CurtailedNorm(v, tuple(wrt)) for v, wrt in entries)
        r = Resolution(algorithm, policy, entries, Colouring({}, colours), ())
        assert write_resolution(r) == json_rendering(r)

    def test_empty_entries_and_curtailments(self):
        a, b = CurtailedNorm("a"), CurtailedNorm("b", ("a",))
        for entries in ((), (a,), (a, b)):
            r = Resolution("curtail", "max-class", entries, Colouring({}, 1), ())
            assert write_resolution(r) == json_rendering(r)

    def test_every_algorithm_on_the_six_norm_system(self, six_norm_graph):
        for algorithm in ALGORITHMS.values():
            r = algorithm(six_norm_graph, Policy.lex_posterior())
            assert write_resolution(r) == json_rendering(r)

    @pytest.mark.parametrize(
        "colours, entries",
        [
            (1, lambda: [CurtailedNorm("a", ["b"])]),
            (1, lambda: (CurtailedNorm("a", iter(["b", "c"])),)),
            (1, lambda: (CurtailedNorm("a", iter([])),)),
            (1, lambda: iter([CurtailedNorm("a")])),
            (_Count.TWO, tuple),
        ],
    )
    def test_a_hand_built_resolution_keeps_its_json_rendering(self, colours, entries):
        def r():
            return Resolution("resolve", "max-class", entries(), SimpleNamespace(num_colours=colours), ())

        assert write_resolution(r()) == json_rendering(r())

    @pytest.mark.parametrize(
        "algorithm, policy, colours, entries",
        [
            ("resolve", "max-class", 1, lambda: (CurtailedNorm(5, ()),)),
            ("resolve", "max-class", 2, lambda: (CurtailedNorm("a", (None, 1.5)),)),
            (3, "max-class", 1, tuple),
            ("resolve", None, 1, tuple),
            ("resolve", "max-class", True, tuple),
            ("resolve", "max-class", 2.5, tuple),
            ("resolve", "max-class", 1, lambda: (CurtailedNorm("a", iter(["b", 5])),)),
            ("resolve", "max-class", 1, lambda: iter([CurtailedNorm("a"), CurtailedNorm(5)])),
            # the reader's order: entries first, then algorithm, policy, colours_used
            (3, None, 2.5, lambda: (CurtailedNorm("a"), CurtailedNorm("b", ("a", 7)))),
            (3, None, 2.5, tuple),
            ("resolve", None, 2.5, tuple),
            ("resolve", "max-class", -3, tuple),
        ],
    )
    def test_a_hand_built_resolution_is_refused_as_the_reader_refuses_it(
        self, algorithm, policy, colours, entries
    ):
        def r():
            return Resolution(algorithm, policy, entries(), SimpleNamespace(num_colours=colours), ())

        with pytest.raises(SchemaError) as read:
            read_resolution(json_rendering(r()))
        with pytest.raises(SchemaError) as written:
            write_resolution(r())
        assert type(written.value) is type(read.value)
        assert str(written.value) == str(read.value)

    @pytest.mark.parametrize(
        "entries, colours, message",
        [
            (None, 1, "entries: expected a list"),
            (("a",), 1, "entries[0]: expected an object with a 'norm' field"),
            ((SimpleNamespace(curtailed_wrt=()),), 1, "entries[0]: expected an object"),
            ((CurtailedNorm("a", None),), 1, "entries[0].curtailed_wrt: expected a list"),
            ((SimpleNamespace(norm="a"),), 1, "entries[0].curtailed_wrt: expected a list"),
            # the first bad value, even before an entry with no JSON form
            ((CurtailedNorm(5), "b"), 1, "entries[0].norm: expected a string"),
            pytest.param((), 10**5000, "colours_used: an integer of over", id="5000-digits"),
            pytest.param((), None, "colours_used: expected an integer", id="no-colouring"),
        ],
    )
    def test_a_resolution_with_no_json_form_is_refused(self, entries, colours, message):
        colouring = None if colours is None else SimpleNamespace(num_colours=colours)
        r = Resolution("resolve", "max-class", entries, colouring, ())
        with pytest.raises(SchemaError, match="^" + re.escape(message)):
            write_resolution(r)

    def test_every_resolution_the_package_builds_reads_back(self, six_norm_graph):
        for algorithm in ALGORITHMS.values():
            for policy in (Policy.lex_posterior(), Policy.max_class(), _named_five):
                r = algorithm(six_norm_graph, policy)
                assert read_resolution(write_resolution(r)) == ResolutionDocument(
                    r.algorithm, r.policy, r.colouring.num_colours, r.entries
                )


_NORMS = '{"norms": [{"id": "a"}, {"id": "b"}], "conflicts": [["a", "b"]]}'


class TestCollectorPause:
    """The norm document parser pauses the cyclic collector for its whole
    body and leaves it as it found it, on success and on every kind of
    failure."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize(
        "text, error",
        [
            (_NORMS, None),
            ('{"norms": [', DocumentSyntaxError),
            ('{"norms": [{"id": 1}]}', SchemaError),
            ('{"norms": [{"id": "a"}], "conflicts": [["a", "x"]]}', UnknownNormId),
        ],
    )
    def test_the_collector_is_left_as_it_was(self, collector, text, error):
        if error is None:
            parse_norm_document(text)
        else:
            with pytest.raises(error):
                parse_norm_document(text)
        assert gc.isenabled() is collector

    def test_the_parser_runs_with_the_collector_paused(self, collector, monkeypatch):
        # the first step (_loads) and the last (build_graph)
        seen = []

        def spy(step):
            def run(*args):
                seen.append(gc.isenabled())
                return step(*args)

            return run

        for name in ("_loads", "build_graph"):
            monkeypatch.setattr(documents, name, spy(getattr(documents, name)))
        parse_norm_document(_NORMS)
        assert seen == [False] * 2
        assert gc.isenabled() is collector
