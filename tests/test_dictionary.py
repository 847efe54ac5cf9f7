import math

import numpy as np
import pytest

from discotrans.dictionary import (
    DictionaryEntry,
    DictionaryQuery,
    build_dictionary,
    threshold_relation,
    validate_entry,
)
from discotrans.errors import BudgetExceededError, ModelMismatchError
from discotrans.grammar import PregroupType, Reduction, parse_type
from discotrans.lexicon import Lexicon, Phrase, lex_phrase
from discotrans.product_space import PSObject
from discotrans.semantics import LanguageModel, make_tensor
from discotrans.translation import (
    Translation,
    identity_translation,
    translate_lexicon,
    translate_object,
)
from oracles import dictionary_by_brute_force, image_lexicon, phrases_with_senses
from test_acceptance import _five_word_pair


def _mini_pair(n_target_words=3):
    """A noun/intransitive-verb language pair with a rotation translation."""
    src = LanguageModel("animals", {"x": 2, "s": 1})
    tgt = LanguageModel("animales", {"x": 2, "s": 1})

    def obj(model, type_text, data):
        return PSObject.of(make_tensor(model, parse_type(type_text), data))

    lex_a = Lexicon(
        src,
        {
            "dog": (obj(src, "x", [1.0, 0.0]),),
            "cat": (obj(src, "x", [0.0, 1.0]),),
            "runs": (obj(src, "x^r s", [[0.5], [0.25]]),),
        },
    )
    theta = 0.3
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    t = Translation(
        src, tgt, {"x": parse_type("x"), "s": parse_type("s")}, {"x": rot, "s": np.eye(1)}
    )
    words = {
        "perro": (obj(tgt, "x", rot @ [1.0, 0.0]),),
        "gato": (obj(tgt, "x", [0.2, 0.9]),),
        "corre": (obj(tgt, "x^r s", (np.kron(rot, np.eye(1)) @ [0.5, 0.25]).reshape(2, 1)),),
        "duerme": (obj(tgt, "x^r s", [[0.1], [0.8]]),),
        "gata": (obj(tgt, "x", [0.21, 0.88]),),
    }
    lex_b = Lexicon(tgt, dict(list(words.items())[:n_target_words]))
    return lex_a, lex_b, t


def _same_entries(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.source_phrase == b.source_phrase
        assert a.target_phrase == b.target_phrase
        assert a.reduction == b.reduction
        assert a.distance == pytest.approx(b.distance, abs=1e-9)


# -- building ---------------------------------------------------------------------

def test_single_word_diagonal_under_pushforward(collapse, wardrobe):
    pushed = translate_lexicon(collapse, wardrobe)
    entries = build_dictionary(
        wardrobe, pushed, collapse, DictionaryQuery(threshold=0.0)
    )
    paired = {(str(e.source_phrase), str(e.target_phrase)) for e in entries}
    for word in wardrobe.words:
        assert (word, word) in paired
    assert all(e.distance == pytest.approx(0.0, abs=1e-12) for e in entries)


def test_boots_pairs_with_itself_at_zero(collapse, wardrobe):
    pushed = translate_lexicon(collapse, wardrobe)
    entries = build_dictionary(
        wardrobe, pushed, collapse, DictionaryQuery(threshold=0.0)
    )
    boots = [
        e
        for e in entries
        if e.source_phrase.words == ("boots",) and e.target_phrase.words == ("boots",)
    ]
    assert len(boots) == 1
    assert boots[0].reduction.is_identity
    assert boots[0].distance == 0.0


def test_each_sense_contributes_an_entry(collapse, wardrobe):
    # four verb senses on the source side all hit the single merged target sense
    pushed = translate_lexicon(collapse, wardrobe)
    entries = build_dictionary(wardrobe, pushed, collapse, DictionaryQuery(threshold=0.0))
    verb_pairs = [
        e
        for e in entries
        if e.source_phrase.words == ("wears",) and e.target_phrase.words == ("wears",)
    ]
    assert len(verb_pairs) == 4
    assert sorted(e.source_phrase.sense_choice for e in verb_pairs) == [
        (0,), (1,), (2,), (3,),
    ]
    assert all(e.target_phrase.sense_choice == (0,) for e in verb_pairs)


def test_identity_translation_diagonal(wardrobe):
    entries = build_dictionary(
        wardrobe,
        wardrobe,
        identity_translation(wardrobe.model),
        DictionaryQuery(threshold=0.0),
    )
    paired = {(str(e.source_phrase), str(e.target_phrase)) for e in entries}
    for word in wardrobe.words:
        assert (word, word) in paired


def test_sentence_pairs_collapse_at_distance_zero(collapse, wardrobe):
    # both number-marked sentences land on the same translated sentence value
    pushed = translate_lexicon(collapse, wardrobe)
    entries = build_dictionary(
        wardrobe,
        pushed,
        collapse,
        DictionaryQuery(
            max_source_len=3,
            max_target_len=3,
            target_type_filter=parse_type("s"),
            threshold=0.0,
            max_pairs=2_000_000,
        ),
    )
    sources = {str(e.source_phrase) for e in entries}
    targets = {str(e.target_phrase) for e in entries}
    assert "Rosie wears boots" in sources
    assert "Rosie wears a_boot" in sources
    assert "Rosie wears boots" in targets
    assert "Rosie wears a_boot" in targets


def test_matches_brute_force_enumeration():
    lex_a, lex_b, t = _mini_pair()
    query = DictionaryQuery(max_source_len=2, max_target_len=2, max_pairs=1_000_000)
    _same_entries(
        build_dictionary(lex_a, lex_b, t, query),
        dictionary_by_brute_force(lex_a, lex_b, t, query),
    )


def test_matches_brute_force_with_filter_and_threshold():
    lex_a, lex_b, t = _mini_pair()
    query = DictionaryQuery(
        max_source_len=3,
        max_target_len=3,
        target_type_filter=parse_type("s"),
        threshold=0.75,
        max_pairs=1_000_000,
    )
    _same_entries(
        build_dictionary(lex_a, lex_b, t, query),
        dictionary_by_brute_force(lex_a, lex_b, t, query),
    )


def test_entries_are_sorted_and_deterministic():
    lex_a, lex_b, t = _mini_pair()
    query = DictionaryQuery(max_source_len=2, max_target_len=2, max_pairs=1_000_000)
    once = build_dictionary(lex_a, lex_b, t, query)
    twice = build_dictionary(lex_a, lex_b, t, query)
    assert once == twice
    keys = [e.sort_key() for e in once]
    assert keys == sorted(keys)


def test_entry_distances_revalidate():
    lex_a, lex_b, t = _mini_pair()
    query = DictionaryQuery(max_source_len=2, max_target_len=2, max_pairs=1_000_000)
    for entry in build_dictionary(lex_a, lex_b, t, query):
        assert validate_entry(lex_a, lex_b, t, entry) == pytest.approx(
            entry.distance, abs=1e-9
        )


def test_budget_cap_raises():
    lex_a, lex_b, t = _mini_pair()
    with pytest.raises(BudgetExceededError):
        build_dictionary(
            lex_a,
            lex_b,
            t,
            DictionaryQuery(max_source_len=3, max_target_len=3, max_pairs=10),
        )


def test_model_mismatch_rejected(collapse, wardrobe):
    lex_a, _, _ = _mini_pair()
    with pytest.raises(ModelMismatchError):
        build_dictionary(lex_a, wardrobe, collapse, DictionaryQuery())


# -- word-by-word translation -------------------------------------------------------

@pytest.mark.parametrize("pair", ["five-word", "wardrobe"])
def test_whole_phrase_translation_equals_word_by_word(pair, collapse, wardrobe):
    if pair == "wardrobe":
        lex, t = wardrobe, collapse
    else:
        lex, _, t = _five_word_pair()
    images = image_lexicon(t, lex)
    for phrase in phrases_with_senses(lex, 3):
        whole = translate_object(t, lex_phrase(lex, phrase))
        split = lex_phrase(images, phrase)
        assert whole.type == split.type
        gap = np.max(np.abs(whole.meaning.array - split.meaning.array), initial=0.0)
        assert gap <= 1e-12


def test_pushed_through_phrase_pairs_are_exactly_zero():
    lex_a, _, t = _five_word_pair()
    pushed = translate_lexicon(t, lex_a)
    query = DictionaryQuery(
        max_source_len=2, max_target_len=2, threshold=0.0, max_pairs=1_000_000
    )
    exact = {
        (e.source_phrase, e.target_phrase)
        for e in build_dictionary(lex_a, pushed, t, query)
        if e.reduction.is_identity and e.distance == 0.0
    }
    for phrase in phrases_with_senses(lex_a, 2):
        assert (phrase, phrase) in exact


# -- thresholding ---------------------------------------------------------------------

def _fake_entries(distances):
    r = Reduction.identity(PregroupType())
    return [
        DictionaryEntry(Phrase(("w",)), Phrase(("v",)), r, d) for d in distances
    ]


def test_threshold_keeps_close_pairs():
    entries = _fake_entries([0.0, 0.5])
    assert [e.distance for e in threshold_relation(entries, 0.0)] == [0.0]


def test_threshold_infinity_keeps_all():
    entries = _fake_entries([0.0, 0.5, 123.0])
    assert threshold_relation(entries, math.inf) == entries


def test_threshold_is_monotone():
    entries = _fake_entries([0.0, 0.05, 0.5, 2.0, 11.0])
    sizes = [len(threshold_relation(entries, k)) for k in (0.0, 0.1, 1.0, 10.0)]
    assert sizes == sorted(sizes)
    assert sizes == [1, 2, 3, 4]


def test_threshold_rejects_negative():
    with pytest.raises(ValueError):
        threshold_relation([], -1.0)
