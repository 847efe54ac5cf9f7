import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discotrans import io
from discotrans.demo import collapse_number_translation, wardrobe_lexicon
from discotrans.dictionary import DictionaryQuery, DictionaryTable, build_dictionary
from discotrans.errors import FormatError, InvalidReductionError
from discotrans.grammar import Reduction, parse_type
from discotrans.lexicon import Lexicon, Phrase
from discotrans.product_space import PSObject
from discotrans.semantics import LanguageModel, make_tensor
from discotrans.translation import identity_translation, translate_lexicon
from oracles import lexicon_by_records
from test_cli import _fields
from test_dictionary import _random_bucket_pair, ones_lexicon


def test_model_round_trip(aware_model, tmp_path):
    path = tmp_path / "model.json"
    io.save_doc(io.model_to_doc(aware_model), path)
    assert io.load_model(path) == aware_model


def test_lexicon_round_trip_inline_model(wardrobe, tmp_path):
    path = tmp_path / "lex.json"
    io.save_doc(io.lexicon_to_doc(wardrobe), path)
    loaded = io.load_lexicon(path)
    assert loaded.model == wardrobe.model
    assert loaded.words == wardrobe.words
    for word in wardrobe.words:
        for a, b in zip(loaded.entries[word], wardrobe.entries[word]):
            assert a.type == b.type
            assert np.array_equal(a.meaning.array, b.meaning.array)


def test_lexicon_model_by_path(wardrobe, tmp_path):
    io.save_doc(io.model_to_doc(wardrobe.model), tmp_path / "model.json")
    doc = io.lexicon_to_doc(wardrobe)
    doc["model"] = "model.json"
    io.save_doc(doc, tmp_path / "lex.json")
    assert io.load_lexicon(tmp_path / "lex.json").model == wardrobe.model


def test_translation_round_trip(collapse, tmp_path):
    path = tmp_path / "t.json"
    io.save_doc(io.translation_to_doc(collapse), path)
    loaded = io.load_translation(path)
    assert loaded.source_model == collapse.source_model
    assert loaded.target_model == collapse.target_model
    assert loaded.j == collapse.j
    for base in collapse.alpha:
        assert np.array_equal(loaded.alpha[base], collapse.alpha[base])


def test_matrix_round_trip(tmp_path):
    matrix = np.array([[1.5, -2.0], [0.0, 3.25]])
    path = tmp_path / "matrix.json"
    io.save_doc(io.matrix_to_doc(matrix), path)
    assert np.array_equal(io.load_matrix(path), matrix)


def test_pairs_round_trip(tmp_path):
    doc = {
        "format": 1,
        "pairs": [
            {"source": [1.0, 0.0], "target": [0.5]},
            {"source": [0.0, 1.0], "target": [-2.0]},
        ],
    }
    path = tmp_path / "pairs.json"
    io.save_doc(doc, path)
    assert io.load_pairs(path) == [([1.0, 0.0], [0.5]), ([0.0, 1.0], [-2.0])]


def test_tensor_with_wrong_length_data_is_format_error(aware_model):
    doc = {"format": 1, "type": "n_s n_s^r s", "data": [1.0, 2.0, 3.0]}
    size = aware_model.dim("n_s") ** 2 * aware_model.dim("s")
    with pytest.raises(FormatError) as caught:
        io.tensor_from_doc(doc, aware_model)
    assert str(caught.value) == (
        f"tensor 'data': type 'n_s n_s^r s' in model {aware_model.name!r} "
        f"needs {size} entries, got 3"
    )


def test_a_library_error_names_its_place_in_the_document():
    doc = {"format": 1, "name": "m", "basic_types": {"n": 2.5}}
    with pytest.raises(FormatError) as caught:
        io.model_from_doc(doc)
    assert str(caught.value) == (
        "model 'basic_types': dimensions must be positive integers, but 'n' has 2.5"
    )


def test_a_lexicon_type_string_is_reported_with_its_record(wardrobe):
    doc = io.lexicon_to_doc(wardrobe)
    # each distinct type string is parsed once: the first record that holds it is named
    for record in doc["words"][1:]:
        record["type"] = "n_q"
    with pytest.raises(FormatError) as caught:
        io.lexicon_from_doc(doc)
    word = doc["words"][1]["word"]
    assert str(caught.value) == f"lexicon record {word!r} 'type': unknown basic type 'n_q'"


def test_a_tensor_type_string_is_reported_with_its_place(aware_model):
    doc = {"format": 1, "type": "n_s^x", "data": [1.0, 2.0, 3.0, 4.0]}
    with pytest.raises(FormatError) as caught:
        io.tensor_from_doc(doc, aware_model)
    assert str(caught.value) == "tensor 'type': malformed simple type 'n_s^x'"


def test_a_grammar_map_image_is_reported_with_its_base(collapse):
    doc = io.translation_to_doc(collapse)
    doc["j"]["n_p"] = "n_p"
    with pytest.raises(FormatError) as caught:
        io.translation_from_doc(doc)
    assert str(caught.value) == "translation 'j' image of 'n_p': unknown basic type 'n_p'"


def test_a_translation_rule_is_reported_with_its_document(collapse):
    doc = io.translation_to_doc(collapse)
    doc["alpha"]["s"] = [[1.0, 0.0]]
    with pytest.raises(FormatError) as caught:
        io.translation_from_doc(doc)
    assert str(caught.value) == (
        "translation document: alpha['s'] has shape (1, 2), expected (1, 1)"
    )


@pytest.mark.parametrize("key", ["source", "target"])
def test_a_reduction_type_string_is_reported_with_its_place(key):
    doc = _entry_doc()
    doc["entries"][0]["reduction"][key] = "n^"
    with pytest.raises(FormatError) as caught:
        io.dictionary_from_doc(doc)
    assert str(caught.value) == (
        f"dictionary entry entries[0] 'reduction' {key!r}: malformed simple type 'n^'"
    )


def test_a_fault_inside_a_reader_is_not_a_format_error():
    with pytest.raises(KeyError):
        with io._at("somewhere"):
            raise KeyError("a fault, not an input error")


# -- the lexicon reader against the per-record loop ------------------------------------

_READER_DIMS = {"n": 2, "s": 1, "p": 3}
_READER_TYPES = ["n", "p", "s", "", "n^r s n^l", "p n^l", "n^r s p^l"]
_EDGE_NUMBERS = [0, -0.0, 5e-324, 1e-310, 1.7e308, -1.7e308, 2**53 + 1, -(2**63), 2**63 - 1]
_json_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from(_EDGE_NUMBERS),
)


@st.composite
def _lexicon_docs(draw):
    """A valid lexicon document: types interleaved, words with several
    senses, and some records' data shaped as nested lists."""
    records = []
    for _ in range(draw(st.integers(1, 12))):
        type_string = draw(st.sampled_from(_READER_TYPES))
        shape = [_READER_DIMS[s.split("^")[0]] for s in type_string.split()]
        data = draw(st.lists(_json_numbers, min_size=math.prod(shape), max_size=math.prod(shape)))
        if len(shape) > 1 and draw(st.booleans()):
            data = np.array(data, dtype=object).reshape(shape).tolist()
        records.append({"word": draw(st.sampled_from("abcd")), "type": type_string, "data": data})
    doc = {"format": 1, "model": {"format": 1, "name": "m", "basic_types": _READER_DIMS},
           "words": records}
    return json.loads(json.dumps(doc))


def _first_leaves(data: list) -> list:
    """The innermost list that holds ``data``'s first number."""
    while isinstance(data[0], list):
        data = data[0]
    return data


_RECORD_FAULTS = {
    "string": lambda r: _first_leaves(r["data"]).__setitem__(0, "1.5"),
    "boolean": lambda r: _first_leaves(r["data"]).__setitem__(0, True),
    "null": lambda r: _first_leaves(r["data"]).__setitem__(0, None),
    "400-digit integer": lambda r: _first_leaves(r["data"]).__setitem__(0, 10**399),
    "nested number": lambda r: _first_leaves(r["data"]).__setitem__(0, [1.0]),
    "one entry too few": lambda r: _first_leaves(r["data"]).pop(),
    "one entry too many": lambda r: _first_leaves(r["data"]).append(1.0),
    "malformed type": lambda r: r.update(type="n^x"),
    "unknown type": lambda r: r.update(type="q"),
}


def _assert_same_lexicon(got: Lexicon, expected: Lexicon) -> None:
    assert got.model == expected.model
    assert list(got.entries) == list(expected.entries)
    for word, senses in expected.entries.items():
        assert [obj.type for obj in got.entries[word]] == [obj.type for obj in senses]
        for a, b in zip(got.entries[word], senses):
            assert a.meaning.shape == b.meaning.shape
            assert a.meaning.array.tobytes() == b.meaning.array.tobytes()
            for flag in ("c_contiguous", "owndata", "writeable"):
                assert getattr(a.meaning.array.flags, flag) == getattr(b.meaning.array.flags, flag)


def _assert_read_as_the_record_loop_reads(doc) -> None:
    try:
        expected = lexicon_by_records(doc)
    except FormatError as fault:
        with pytest.raises(FormatError) as caught:
            io.lexicon_from_doc(doc)
        assert str(caught.value) == str(fault)
    else:
        _assert_same_lexicon(io.lexicon_from_doc(doc), expected)


@settings(max_examples=150, deadline=None)
@given(_lexicon_docs())
def test_a_lexicon_is_read_as_the_record_loop_reads_it(doc):
    _assert_read_as_the_record_loop_reads(doc)


@settings(max_examples=150, deadline=None)
@given(_lexicon_docs(), st.data())
def test_a_one_field_fault_is_reported_as_the_record_loop_reports_it(doc, data):
    record = data.draw(st.sampled_from(doc["words"]))
    _RECORD_FAULTS[data.draw(st.sampled_from(sorted(_RECORD_FAULTS)))](record)
    _assert_read_as_the_record_loop_reads(doc)


@pytest.mark.parametrize("value", ["1.5", True, None, 10**399, [1.0]])
def test_a_non_number_in_a_shared_type_names_its_record(wardrobe, value):
    # numpy reads "1.5" as 1.5 and null as nan when asked for floats: neither may pass
    doc = io.lexicon_to_doc(wardrobe)
    record = doc["words"][2]  # 'boots', the second record of type n_p
    assert record["type"] == doc["words"][1]["type"]
    record["data"][0] = value
    problem = "be a regular array of numbers" if value == [1.0] else "hold JSON numbers only"
    with pytest.raises(FormatError) as caught:
        io.lexicon_from_doc(doc)
    assert str(caught.value) == f"lexicon record 'boots' 'data' must {problem}"
    _assert_read_as_the_record_loop_reads(doc)


def test_records_are_read_alone_only_in_a_failing_group(wardrobe, monkeypatch):
    read_alone = []
    tensor_of = io._tensor_of

    def counted(model, g, data, what):
        read_alone.append(what)
        return tensor_of(model, g, data, what)

    monkeypatch.setattr(io, "_tensor_of", counted)
    doc = io.lexicon_to_doc(wardrobe)
    io.lexicon_from_doc(doc)
    assert read_alone == []
    # the third of the four 'wears' senses, each of its own type: only it is read alone
    doc["words"][5]["data"].pop()
    with pytest.raises(FormatError):
        io.lexicon_from_doc(doc)
    assert read_alone == ["lexicon record 'wears'"]
    # the second of the two n_p records: both are read alone, in document order
    doc = io.lexicon_to_doc(wardrobe)
    doc["words"][2]["data"][0] = "1.5"
    read_alone.clear()
    with pytest.raises(FormatError):
        io.lexicon_from_doc(doc)
    assert read_alone == ["lexicon record 'a_boot'", "lexicon record 'boots'"]


@pytest.mark.parametrize(
    "value, kind",
    [(None, "null"), (7, "an integer"), (["a"], "an array"), (True, "a boolean"), ({}, "an object")],
)
def test_a_lexicon_word_and_type_must_be_json_strings(wardrobe, value, kind):
    doc = io.lexicon_to_doc(wardrobe)
    doc["words"][1]["word"] = value
    with pytest.raises(FormatError) as caught:
        io.lexicon_from_doc(doc)
    assert str(caught.value) == f"lexicon record words[1] 'word' must be a JSON string, not {kind}"
    doc = io.lexicon_to_doc(wardrobe)
    doc["words"][1]["type"] = value
    with pytest.raises(FormatError) as caught:
        io.lexicon_from_doc(doc)
    assert str(caught.value) == f"lexicon record words[1] 'type' must be a JSON string, not {kind}"


@pytest.mark.parametrize("word", ["", "a boot", "boots\n", " boots"])
def test_a_lexicon_word_must_be_one_phrase_token(wardrobe, word):
    doc = io.lexicon_to_doc(wardrobe)
    doc["words"][1]["word"] = word
    with pytest.raises(FormatError) as caught:
        io.lexicon_from_doc(doc)
    assert str(caught.value) == (
        f"lexicon record: word {word!r} must be a non-empty string with no whitespace"
    )


def test_dictionary_doc_round_trip(collapse, wardrobe):
    pushed = translate_lexicon(collapse, wardrobe)
    table = build_dictionary(wardrobe, pushed, collapse, DictionaryQuery(threshold=0.0))
    doc = json.loads(io.dictionary_to_json(table))
    loaded = io.dictionary_from_doc(json.loads(json.dumps(doc)))
    assert len(loaded) == len(table)
    for a, b in zip(loaded, table):
        assert a.source_phrase == b.source_phrase
        assert a.target_phrase == b.target_phrase
        assert a.reduction == b.reduction
        assert a.distance == pytest.approx(b.distance, abs=1e-9)


# a field deleted from the record rather than set
_MISSING = object()


def _entry_doc():
    record = {
        "source": {"words": ["dog"], "senses": [0]},
        "target": {"words": ["perro"], "senses": [0]},
        "reduction": {"source": "n", "target": "n", "cups": []},
        "distance": 0.5,
    }
    return {"format": 1, "entries": [record]}


def test_well_formed_entry_doc_loads():
    [entry] = io.dictionary_from_doc(_entry_doc())
    assert entry.source_phrase == Phrase(("dog",), (0,))
    assert not entry.reduction.cups and entry.distance == 0.5


@pytest.mark.parametrize(
    "part, key, value",
    [
        ("source", "words", "dog"),
        ("target", "words", []),
        ("source", "words", ["dog", 5]),
        ("source", "senses", "0"),
        ("target", "senses", [True]),
        ("target", "senses", None),
        ("reduction", "cups", [5]),
        ("reduction", "cups", [[0, 1, 2]]),
        ("reduction", "cups", [[0, 1.0]]),
        ("reduction", "cups", "(0,1)"),
        (None, "distance", "abc"),
        (None, "distance", True),
        (None, "distance", None),
        (None, "distance", float("nan")),
        (None, "distance", float("inf")),
        ("source", "senses", [0, 0]),
        ("reduction", "cups", [[0, 1]]),
        ("reduction", "target", "s"),
        ("reduction", "target", _MISSING),
    ],
)
def test_malformed_entry_docs_rejected(part, key, value):
    doc = _entry_doc()
    record = doc["entries"][0]
    fields = record if part is None else record[part]
    if value is _MISSING:
        del fields[key]
    else:
        fields[key] = value
    with pytest.raises(FormatError):
        io.dictionary_from_doc(doc)


def test_dictionary_rows_are_tab_separated(collapse, wardrobe):
    pushed = translate_lexicon(collapse, wardrobe)
    table = build_dictionary(wardrobe, pushed, collapse, DictionaryQuery(threshold=0.0))
    rows = io.dictionary_to_rows(table).splitlines()
    assert len(rows) == len(table)
    first = rows[0].split("\t")
    assert len(first) == 4
    assert first[2] == "id"
    assert float(first[3]) == 0.0


def _rows_one_by_one(table):
    """The rows as one f-string per entry, with ``round_sig``'s digits."""
    return "\n".join(
        f"{e.source_phrase}\t{e.target_phrase}\t{e.reduction}\t{e.distance:.12g}"
        for e in table
    )


def _doc_one_by_one(table):
    """The document with every record built afresh from its entry."""

    def phrase(p):
        if p.sense_choice is None:
            return {"words": list(p.words)}
        return {"words": list(p.words), "senses": list(p.sense_choice)}

    return {
        "format": 1,
        "entries": [
            {
                "source": phrase(e.source_phrase),
                "target": phrase(e.target_phrase),
                "reduction": {
                    "source": str(e.reduction.source),
                    "target": str(e.reduction.target),
                    "cups": [list(c) for c in e.reduction.sorted_cups],
                },
                "distance": io.round_sig(e.distance),
            }
            for e in table
        ],
    }


def _same_rows(table):
    rows = io.dictionary_to_rows(table)
    assert rows == _rows_one_by_one(table)
    return rows


def _same_doc(table):
    # compared as printed, so the key order counts too
    got, expected = json.loads(io.dictionary_to_json(table)), _doc_one_by_one(table)
    assert json.dumps(got, indent=2) == json.dumps(expected, indent=2)
    assert io.dictionary_to_json(table) == json.dumps(got, indent=2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_table_rows_are_the_entry_rows(seed):
    lex_a, lex_b, t, query = _random_bucket_pair(seed)
    table = build_dictionary(lex_a, lex_b, t, query)
    _same_rows(table)
    _same_doc(table)


def _one_row_table():
    zero = np.zeros(1, dtype=np.intp)
    return DictionaryTable(
        (Phrase(("dog", "runs"), (0, 1)),), (Phrase(("perro",), (2,)),),
        (Reduction.from_cups(parse_type("x x^r s"), [(0, 1)]),),
        zero, zero, zero, np.array([0.25]),
    )


def test_rows_of_an_empty_and_a_one_row_table():
    none = np.empty(0, dtype=np.intp)
    assert _same_rows(DictionaryTable((), (), (), none, none, none, np.empty(0))) == ""
    assert _same_rows(_one_row_table()) == "dog runs\tperro\t(0,1)\t0.25"


def test_docs_of_an_empty_and_a_one_row_table():
    none = np.empty(0, dtype=np.intp)
    _same_doc(DictionaryTable((), (), (), none, none, none, np.empty(0)))
    _same_doc(_one_row_table())
    [record] = json.loads(io.dictionary_to_json(_one_row_table()))["entries"]
    assert record["source"] == {"words": ["dog", "runs"], "senses": [0, 1]}
    assert record["reduction"] == {"source": "x x^r s", "target": "s", "cups": [[0, 1]]}


@pytest.mark.parametrize("seed", range(3))
def test_rows_with_many_distance_ties(seed):
    lex_a, _, _, query = _random_bucket_pair(seed)
    ones = ones_lexicon(lex_a)
    query = dataclasses.replace(
        query, max_source_len=2, threshold=None, target_type_filter=None
    )
    table = build_dictionary(ones, ones, identity_translation(ones.model), query)
    assert len(set(table.distance.tolist())) < len(table) / 2
    _same_rows(table)
    _same_doc(table)


def test_rows_with_distances_in_exponent_form():
    model = LanguageModel("m", {"x": 1})
    lex = Lexicon(model, {
        word: (PSObject(make_tensor(model, parse_type("x"), [value])),)
        for word, value in [("zero", 0.0), ("tiny", 1e-13), ("huge", 1e20)]
    })
    table = build_dictionary(lex, lex, identity_translation(model), DictionaryQuery())
    rows = _same_rows(table)
    assert {row.rsplit("\t", 1)[1] for row in rows.splitlines()} == {"0", "1e-13", "1e+20"}
    _same_doc(table)


def test_numbers_are_rounded_to_twelve_significant_digits():
    assert io.round_sig(1 / 3) == 0.333333333333
    assert io.round_sig(123456789.123456789) == 123456789.123


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"format": 2, "name": "m", "basic_types": {"n": 1}},
        {"format": 1, "basic_types": {"n": 1}},
        {"format": 1, "name": "m", "basic_types": {"n": 0}},
        {"format": 1, "name": "m", "basic_types": {"n": 1.5}},
    ],
)
def test_bad_model_documents_rejected(doc):
    with pytest.raises(FormatError):
        io.model_from_doc(doc)


def test_bad_json_file_reports_format_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        io.load_model(path)


def test_matrix_must_be_two_dimensional():
    with pytest.raises(FormatError):
        io.matrix_from_doc({"format": 1, "matrix": [1, 2, 3]})


# -- every reader against one-field changes of the demo documents ------------------------

def _demo_readers():
    """Each of the seven readers, as ``read(doc, base_dir)``, with the demo
    documents it loads.  The ``dict --json`` document's entries are
    independent records, so each is swept in a document of its own."""
    lex, t = wardrobe_lexicon(), collapse_number_translation()
    query = DictionaryQuery(
        threshold=0.0, max_source_len=3, max_target_len=3, target_type_filter=parse_type("s")
    )
    table = build_dictionary(lex, translate_lexicon(t, lex), t, query)
    pairs = [{"source": [1.0, 0.0], "target": [2.0, -1.0]},
             {"source": [0.0, 1.0], "target": [0.0, 3.0]}]
    return {
        "model": ([io.model_to_doc(lex.model)], lambda doc, _: io.model_from_doc(doc)),
        "lexicon": ([io.lexicon_to_doc(lex)], io.lexicon_from_doc),
        "translation": ([io.translation_to_doc(t)], io.translation_from_doc),
        "tensor": ([io.tensor_to_doc(lex.entries["wears"][0].meaning)],
                   lambda doc, _: io.tensor_from_doc(doc, lex.model)),
        "matrix": ([{"format": 1, "matrix": [[2.0, 0.0], [0.0, 0.5]]}],
                   lambda doc, _: io.matrix_from_doc(doc)),
        "pairs": ([{"format": 1, "pairs": pairs}], lambda doc, _: io.pairs_from_doc(doc)),
        "dictionary": (
            [
                {"format": 1, "entries": [entry]}
                for entry in json.loads(io.dictionary_to_json(table))["entries"]
            ],
            lambda doc, _: io.dictionary_from_doc(doc),
        ),
    }


_READERS = _demo_readers()


def _changed(doc, path, value):
    """A copy of ``doc`` whose field at ``path`` is deleted (``_MISSING``) or set to ``value``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    parent = doc
    for key in parents:
        parent = parent[key]
    if value is _MISSING:
        del parent[last]
    else:
        parent[last] = value
    return doc


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_every_one_field_change_loads_or_is_a_format_error(reader, tmp_path):
    docs, read = _READERS[reader]
    # a path-string model reference names a file: "x" is the demo model
    io.save_doc(_READERS["model"][0][0], tmp_path / "x")
    for doc in docs:
        read(doc, tmp_path)
        for path in _fields(doc):
            for value in [_MISSING, None, True, 7, "x", [], {}]:
                try:
                    read(_changed(doc, path, value), tmp_path)
                except FormatError:
                    pass
                except Exception as exc:
                    pytest.fail(f"{reader} {path} = {value!r}: {type(exc).__name__}: {exc}")


def _both_types_null(doc):
    doc["entries"][0]["reduction"].update(source=None, target=None, cups=[])


@pytest.mark.parametrize("reader, change, message", [
    # loaded as the name "7" or "None" by a str() of the value
    ("model", lambda doc: doc.update(name=7), "model 'name' must be a JSON string, not an integer"),
    ("model", lambda doc: doc.update(name=None), "model 'name' must be a JSON string, not null"),
    # reported as malformed simple type "['n']"
    ("translation", lambda doc: doc["j"].update(n_s=["n"]),
     "translation 'j' image of 'n_s' must be a JSON string, not an array"),
    # loaded with the basic type None on both sides
    ("dictionary", _both_types_null,
     "dictionary entry entries[0] 'reduction' 'source' must be a JSON string, not null"),
    # a record without data was named "lexicon record document"
    ("lexicon", lambda doc: doc["words"][2].pop("data"), "lexicon record words[2] is missing 'data'"),
    ("lexicon", lambda doc: doc["words"].__setitem__(2, 5),
     "lexicon record words[2] must be a JSON object, not an integer"),
    ("lexicon", lambda doc: doc.update(model=7),
     "lexicon 'model' must be a JSON string or object, not an integer"),
    ("pairs", lambda doc: doc["pairs"][1]["target"].__setitem__(0, None),
     "pair record pairs[1] 'target' must hold JSON numbers only"),
    ("dictionary", lambda doc: doc["entries"][0]["target"]["senses"].__setitem__(1, True),
     "dictionary entry entries[0] 'target' 'senses'[1] must be a JSON integer, not a boolean"),
    ("dictionary", lambda doc: doc["entries"][0]["source"]["words"].__setitem__(2, 5),
     "dictionary entry entries[0] 'source' 'words'[2] must be a JSON string, not an integer"),
    ("dictionary", lambda doc: doc["entries"][0]["reduction"]["cups"][1].__setitem__(0, 3.0),
     "dictionary entry entries[0] 'reduction' 'cups'[1][0] must be a JSON integer, not a number"),
    ("dictionary", lambda doc: doc["entries"][0]["reduction"]["cups"].__setitem__(0, [0, 1, 2]),
     "dictionary entry entries[0] 'reduction' 'cups': cup [0, 1, 2] is not a pair of indices"),
    ("dictionary", lambda doc: doc["entries"][0].update(distance="0"),
     "dictionary entry entries[0] 'distance' must be a JSON number, not a string"),
    ("dictionary", lambda doc: doc["entries"][0].update(distance=float("nan")),
     "dictionary entry entries[0] 'distance' must be a JSON number, not NaN"),
])
def test_a_field_fault_names_its_place_and_the_kind_found(reader, change, message):
    docs, read = _READERS[reader]
    doc = json.loads(json.dumps(docs[0]))
    change(doc)
    with pytest.raises(FormatError) as caught:
        read(doc, Path("."))
    assert str(caught.value) == message


@pytest.mark.parametrize("cups, message", [
    ([5], "'cups'[0] must be a JSON array, not an integer"),
    ([None], "'cups'[0] must be a JSON array, not null"),
    ([[0]], "'cups': cup [0] is not a pair of indices"),
    ([[0, 1, 2]], "'cups': cup [0, 1, 2] is not a pair of indices"),
    ([[0, True]], "'cups'[0][1] must be a JSON integer, not a boolean"),
    (5, "'cups' must be a JSON array, not an integer"),
])
def test_a_malformed_cup_in_a_dictionary_is_a_format_error(cups, message):
    # the reader checks each value's JSON kind; the cup's shape is the
    # library's rule, reported at the place the cups sit
    doc = _changed(_READERS["dictionary"][0][0], ("entries", 0, "reduction", "cups"), cups)
    with pytest.raises(FormatError) as caught:
        io.dictionary_from_doc(doc)
    assert str(caught.value) == "dictionary entry entries[0] 'reduction' " + message
    if "pair of indices" in message:
        assert isinstance(caught.value.__cause__, InvalidReductionError)


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_format_must_be_the_number_one(reader):
    # JSON true equals Python's 1; 1.0 is the number one and loads
    docs, read = _READERS[reader]
    doc = docs[0]
    read(_changed(doc, ("format",), 1.0), Path("."))
    with pytest.raises(FormatError) as caught:
        read(_changed(doc, ("format",), True), Path("."))
    assert str(caught.value) == f'{reader} document must declare "format": 1, got True'


@pytest.mark.parametrize(
    "load", [io.load_model, io.load_lexicon, io.load_translation, io.load_matrix, io.load_pairs]
)
def test_a_file_that_is_not_utf8_is_named(load, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(FormatError) as caught:
        load(path)
    assert str(caught.value).startswith(f"{path} is not valid JSON: 'utf-8' codec can't decode")


@pytest.mark.parametrize("text, found", [
    ("NaN", "NaN"),
    ("Infinity", "Infinity"),
    ("-Infinity", "-Infinity"),
    ("1e999", "Infinity"),  # json reads a number past float's range as inf
    ("true", "a boolean"),
    ("1" + "0" * 400, "an integer too large for a float"),
])
def test_a_distance_that_no_float_holds_finitely_is_refused(text, found):
    entries = [doc["entries"][0] for doc in _READERS["dictionary"][0][:2]]
    doc = json.loads(json.dumps({"format": 1, "entries": entries}))
    doc["entries"][1]["distance"] = "DISTANCE"
    doc = json.loads(json.dumps(doc).replace('"DISTANCE"', text))
    with pytest.raises(FormatError) as caught:
        io.dictionary_from_doc(doc)
    assert str(caught.value) == (
        f"dictionary entry entries[1] 'distance' must be a JSON number, not {found}"
    )


@pytest.mark.parametrize("text, distance", [
    ("0", 0.0), ("1e308", 1e308), ("1" + "0" * 300, 1e300), ("-2.5", -2.5),
])
def test_a_distance_that_a_float_holds_loads_as_that_float(text, distance):
    doc = json.loads(json.dumps(_READERS["dictionary"][0][0]))
    doc["entries"][0]["distance"] = "DISTANCE"
    doc = json.loads(json.dumps(doc).replace('"DISTANCE"', text))
    (entry,) = io.dictionary_from_doc(doc)
    assert type(entry.distance) is float and entry.distance == distance


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("text", [
    # json.load raises a RecursionError on deep nesting
    '{"format": 1, "model": ' + "[" * 100_000 + "]" * 100_000 + ', "words": []}',
    # and a plain ValueError, not a JSONDecodeError, on an integer past Python's digit limit
    pytest.param(
        '{"format": 1, "model": ' + "1" * (_DIGIT_LIMIT + 1) + ', "words": []}',
        marks=pytest.mark.skipif(not _DIGIT_LIMIT, reason="no integer digit limit"),
    ),
], ids=["deep", "long-integer"])
def test_a_file_that_json_cannot_read_is_not_valid_json(tmp_path, text):
    path = tmp_path / "lex.json"
    path.write_text(text)
    with pytest.raises(FormatError) as caught:
        io.load_lexicon(path)
    assert str(caught.value).startswith(f"{path} is not valid JSON: ")


def test_a_utf8_file_is_read_as_utf8(tmp_path):
    doc = {"format": 1, "name": "número", "basic_types": {"n": 2}}
    path = tmp_path / "model.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    assert io.load_model(path).name == "número"
