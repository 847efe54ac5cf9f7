import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discotrans import dictionary
from discotrans.dictionary import (
    DictionaryEntry,
    DictionaryQuery,
    _phrase_buckets,
    build_dictionary,
    threshold_relation,
    validate_entry,
)
from discotrans.errors import BudgetExceededError, ModelMismatchError
from discotrans.grammar import PregroupType, Reduction, parse_type
from discotrans.lexicon import Lexicon, Phrase, lex_phrase
from discotrans.product_space import PSObject, frobenius_distance
from discotrans.semantics import LanguageModel, make_tensor, space_shape
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


def test_query_rejects_nan_threshold():
    with pytest.raises(ValueError):
        DictionaryQuery(threshold=math.nan)


# -- type buckets -------------------------------------------------------------------

_WORD_TYPES = ("x", "x x", "x^r s", "x x^l", "x^r s x^l", "s")


def _random_senses(rng, model, types):
    return tuple(
        PSObject.of(make_tensor(model, g, rng.standard_normal(space_shape(model, g))))
        for g in map(parse_type, types)
    )


def _random_bucket_pair(seed):
    """Random multi-sense lexicons over x and s, a random translation,
    and a target side holding one source word pushed through it."""
    rng = np.random.default_rng(seed)
    dims = {"x": int(rng.integers(1, 3)), "s": int(rng.integers(1, 3))}
    src, tgt = LanguageModel("a", dims), LanguageModel("b", dims)
    t = Translation(
        src, tgt, {b: parse_type(b) for b in dims},
        {b: rng.standard_normal((d, d)) for b, d in dims.items()},
    )

    def pick(types=_WORD_TYPES):
        return [types[k] for k in rng.choice(len(types), rng.integers(1, 3), replace=False)]

    # "one" and "two" put the word sequences (x, x x) and (x x, x) in one bucket.
    lex_a = Lexicon(src, {
        "one": _random_senses(rng, src, ["x"]),
        "two": _random_senses(rng, src, ["x x"]),
        "verb": _random_senses(rng, src, pick(("x^r s", "x^r s x^l", "x x^l"))),
        "any": _random_senses(rng, src, pick()),
    })
    pushed = lex_a.words[int(rng.integers(4))]
    lex_b = Lexicon(tgt, {
        "b" + pushed: tuple(translate_object(t, obj) for obj in lex_a.senses(pushed)),
        "bx": _random_senses(rng, tgt, ["x"]),
        "bs": _random_senses(rng, tgt, pick(("s", "x^r s", "x"))),
        "bany": _random_senses(rng, tgt, pick()),
    })
    query = DictionaryQuery(
        max_source_len=int(rng.integers(1, 4)),
        max_target_len=int(rng.integers(1, 3)),
        target_type_filter=[None, parse_type("s"), parse_type("x")][rng.integers(3)],
        threshold=[None, 0.0, 2.0, 8.0][rng.integers(4)],
        max_pairs=10**6,
    )
    return lex_a, lex_b, t, query


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bucketed_build_matches_brute_force(seed):
    lex_a, lex_b, t, query = _random_bucket_pair(seed)
    built = build_dictionary(lex_a, lex_b, t, query)
    _same_entries(built, dictionary_by_brute_force(lex_a, lex_b, t, query))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dictionary, "_BLOCK_ELEMENTS", 1)
        assert build_dictionary(lex_a, lex_b, t, query) == built


@pytest.mark.parametrize("seed", range(6))
def test_bucket_rows_are_the_phrase_tensors(seed):
    lex_a, lex_b, _, _ = _random_bucket_pair(seed)
    for lex in (lex_a, lex_b, _five_word_pair()[0]):
        seen = []
        for g, phrases, stack in _phrase_buckets(lex, 3):
            assert len(stack) == len(phrases)
            for phrase, row in zip(phrases, stack):
                obj = lex_phrase(lex, phrase)
                assert obj.type == g
                assert np.array_equal(row, obj.meaning.array)
            seen += phrases
        assert len(set(seen)) == len(seen)
        assert set(seen) == set(phrases_with_senses(lex, 3))


@pytest.mark.parametrize("seed", range(6))
def test_identity_entries_are_the_frobenius_distance_bit_for_bit(seed):
    lex_a, lex_b, t, _ = _random_bucket_pair(seed)
    query = DictionaryQuery(max_source_len=2, max_target_len=2, max_pairs=10**6)
    images = image_lexicon(t, lex_a)
    entries = build_dictionary(lex_a, lex_b, t, query)
    assert any(e.reduction.is_identity for e in entries)
    for e in entries:
        if e.reduction.is_identity:
            expected = frobenius_distance(
                lex_phrase(images, e.source_phrase).meaning.array,
                lex_phrase(lex_b, e.target_phrase).meaning.array,
            )
            assert e.distance == expected
        assert validate_entry(lex_a, lex_b, t, e) == e.distance


def test_pushed_pairs_stay_zero_when_buckets_differ_in_size():
    # "p q" reduces onto s by three nested cups.  Its bucket holds one
    # phrase on the source side and two on the target side, where "q2"
    # shares q's type; the pushed-through pair must still be exactly 0.
    rng = np.random.default_rng(3)
    model = LanguageModel("m", {"x": 3, "s": 1})
    t = identity_translation(model)
    lex_a = Lexicon(model, {
        "p": _random_senses(rng, model, ["x x x"]),
        "q": _random_senses(rng, model, ["x^r x^r x^r s"]),
    })
    lex_b = Lexicon(model, {**lex_a.entries, "q2": _random_senses(rng, model, ["x^r x^r x^r s"])})
    query = DictionaryQuery(
        max_source_len=2, max_target_len=2, target_type_filter=parse_type("s"),
        threshold=0.0, max_pairs=10**6,
    )
    kept = {(str(e.source_phrase), str(e.target_phrase))
            for e in build_dictionary(lex_a, lex_b, t, query)}
    assert ("p q", "p q") in kept


def test_wide_bucket_pair_is_built_in_bounded_memory():
    # 420 x 420 phrases at d=16: the unblocked difference of the two
    # "x x" buckets alone would hold 400 * 400 * 256 floats (328 MB).
    rng = np.random.default_rng(5)
    model = LanguageModel("m", {"x": 16})
    lex = Lexicon(model, {f"w{i:02d}": _random_senses(rng, model, ["x"]) for i in range(20)})
    query = DictionaryQuery(max_source_len=2, max_target_len=2, threshold=0.0, max_pairs=10**6)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        entries = build_dictionary(lex, lex, identity_translation(model), query)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(entries) == 20 + 20 * 20
    assert all(e.distance == 0.0 and e.source_phrase == e.target_phrase for e in entries)
    assert elapsed < 2.0
    assert peak < 16 * 2**20
