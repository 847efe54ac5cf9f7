import dataclasses
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
    _PhraseBuckets,
    _reduced_rows,
    build_dictionary,
    threshold_relation,
)
from discotrans.errors import BudgetExceededError, ModelMismatchError, NonFiniteError
from discotrans.grammar import PregroupType, Reduction, free_group_image, parse_type, reduce_search
from discotrans.lexicon import Lexicon, Phrase, lex_phrase
from discotrans.product_space import PSObject, frobenius_distance
from discotrans.semantics import LanguageModel, make_tensor, space_shape
from discotrans.translation import (
    Translation,
    compose_translations,
    identity_translation,
    translate_lexicon,
    translate_object,
)
from oracles import (
    dictionary_by_brute_force,
    image_lexicon,
    phrases_with_senses,
    random_orthogonal,
    validate_entry,
)
from test_acceptance import _five_word_pair


def _mini_pair(n_target_words=3):
    """A noun/intransitive-verb language pair with a rotation translation."""
    src = LanguageModel("animals", {"x": 2, "s": 1})
    tgt = LanguageModel("animales", {"x": 2, "s": 1})

    def obj(model, type_text, data):
        return PSObject(make_tensor(model, parse_type(type_text), data))

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
    assert not boots[0].reduction.cups
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
    once = list(build_dictionary(lex_a, lex_b, t, query))
    twice = list(build_dictionary(lex_a, lex_b, t, query))
    assert once == twice
    keys = [e.sort_key() for e in once]
    assert keys == sorted(keys)


def overflow_pair():
    """Two x words, one of them huge enough that squared distances overflow."""
    model = LanguageModel("m", {"x": 2})
    lex = Lexicon(model, {
        "big": (PSObject(make_tensor(model, parse_type("x"), [1e200, 1.0])),),
        "a": (PSObject(make_tensor(model, parse_type("x"), [0.5, 2.0])),),
    })
    return lex, identity_translation(model)


@pytest.mark.parametrize("threshold", [None, 1.0])
def test_non_finite_distance_is_a_numeric_error(threshold):
    # RuntimeWarning is an error under pytest, so none may escape either
    lex, t = overflow_pair()
    query = DictionaryQuery(max_source_len=2, max_target_len=2, threshold=threshold)
    with pytest.raises(NonFiniteError, match="overflows float64"):
        build_dictionary(lex, lex, t, query)


def test_non_finite_distance_names_the_phrases():
    # single words stay finite; the two-word phrases' squares overflow
    model = LanguageModel("m", {"x": 2})
    lex = Lexicon(model, {
        word: (PSObject(make_tensor(model, parse_type("x"), value)),)
        for word, value in [("a", [1e100, 0.0]), ("z", [0.0, 0.0])]
    })
    query = DictionaryQuery(max_source_len=2, max_target_len=2)
    with pytest.raises(NonFiniteError) as raised:
        build_dictionary(lex, lex, identity_translation(model), query)
    assert str(raised.value) == (
        "distance from a a to a z by id is inf: the arithmetic overflows float64"
    )


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


@pytest.mark.parametrize("cap", ["max_source_len", "max_target_len"])
def test_length_caps_must_be_at_least_one(cap):
    with pytest.raises(ValueError) as caught:
        DictionaryQuery(**{cap: 0})
    assert str(caught.value) == "phrase length caps must be at least 1"


@pytest.mark.parametrize("value", [2.0, 1.5, True, "3"])
@pytest.mark.parametrize("cap", ["max_source_len", "max_target_len", "max_pairs"])
def test_caps_must_be_integers(cap, value):
    with pytest.raises(ValueError) as caught:
        DictionaryQuery(**{cap: value})
    assert str(caught.value) == f"{cap} must be an integer, got {value!r}"


def test_a_numpy_integer_cap_builds_the_demo_dictionary(collapse, wardrobe):
    pushed = translate_lexicon(collapse, wardrobe)
    query = DictionaryQuery(max_source_len=2, max_target_len=2, max_pairs=np.int64(10**6))
    assert type(query.max_pairs) is int
    expected = DictionaryQuery(max_source_len=2, max_target_len=2, max_pairs=10**6)
    assert list(build_dictionary(wardrobe, pushed, collapse, query)) == list(
        build_dictionary(wardrobe, pushed, collapse, expected)
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
        if not e.reduction.cups and e.distance == 0.0
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


@pytest.mark.parametrize("k", [-1.0, math.nan])
@pytest.mark.parametrize("caller", ["DictionaryQuery", "threshold_relation"])
def test_threshold_rule_has_one_wording(caller, k):
    with pytest.raises(ValueError) as caught:
        if caller == "DictionaryQuery":
            DictionaryQuery(threshold=k)
        else:
            threshold_relation([], k)
    assert str(caught.value) == "threshold must be non-negative"


@pytest.mark.parametrize("k", [True, False, "0.5"])
@pytest.mark.parametrize("caller", ["DictionaryQuery", "threshold_relation"])
def test_threshold_must_be_a_real_number(caller, k):
    # True would read as k = 1, and a string would fail a comparison
    with pytest.raises(ValueError) as caught:
        if caller == "DictionaryQuery":
            DictionaryQuery(threshold=k)
        else:
            threshold_relation([], k)
    assert str(caught.value) == f"threshold must be a real number, got {k!r}"


@pytest.mark.parametrize("k", [np.float64(0.5), np.float32(0.5), 1, 0.5])
def test_a_real_threshold_is_accepted(k):
    assert DictionaryQuery(threshold=k).threshold == k
    assert [e.distance for e in threshold_relation(_fake_entries([0.0, 0.5, 2.0]), k)] == [0.0, 0.5]


@pytest.mark.parametrize("value", ["s", ("s",), 1])
def test_type_filter_must_be_a_pregroup_type(value):
    with pytest.raises(ValueError) as caught:
        DictionaryQuery(target_type_filter=value)
    assert str(caught.value) == (
        f"target_type_filter must be a PregroupType or None, got {value!r}"
    )


# -- type buckets -------------------------------------------------------------------

_WORD_TYPES = ("x", "x x", "x^r s", "x x^l", "x^r s x^l", "s")


def _random_senses(rng, model, types):
    return tuple(
        PSObject(make_tensor(model, g, rng.standard_normal(space_shape(model, g))))
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


def ones_lexicon(lex):
    """``lex`` with all-ones tensors and every sense twice."""
    model = lex.model
    return Lexicon(model, {
        w: tuple(PSObject(make_tensor(model, o.type, np.ones(space_shape(model, o.type))))
                 for o in lex.senses(w) for _ in range(2))
        for w in lex.words
    })


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bucketed_build_matches_brute_force(seed):
    lex_a, lex_b, t, query = _random_bucket_pair(seed)
    built = list(build_dictionary(lex_a, lex_b, t, query))
    assert built == sorted(built, key=DictionaryEntry.sort_key)
    _same_entries(built, dictionary_by_brute_force(lex_a, lex_b, t, query))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dictionary, "_BLOCK_ELEMENTS", 1)
        assert list(build_dictionary(lex_a, lex_b, t, query)) == built
    with pytest.MonkeyPatch.context() as mp:
        # every bucket pair joined: the join skips only pairs that cannot reduce
        mp.setattr(dictionary, "free_group_image", lambda g: ())
        assert list(build_dictionary(lex_a, lex_b, t, query)) == built


# -- the paper's laws on whole dictionaries ----------------------------------------
#
# A translation is a monoidal functor and a dictionary compares a lexicon's
# image with another lexicon, so these hold whatever arithmetic the build uses.

_FILTERS = st.sampled_from([None, "s", "x"])


def _law_pair(seed, onto):
    """``_random_bucket_pair``'s lexicons and translation, filtered onto
    ``onto`` (or not at all), with no threshold."""
    lex_a, lex_b, t, query = _random_bucket_pair(seed)
    type_filter = None if onto is None else parse_type(onto)
    query = dataclasses.replace(query, target_type_filter=type_filter, threshold=None)
    return lex_a, lex_b, t, query


def _keyed(table) -> dict:
    """A dictionary's distances by (source phrase, target phrase, reduction)."""
    return {(e.source_phrase, e.target_phrase, e.reduction): e.distance for e in table}


def _same_keys_and_distances(got, expected):
    """The same keys, with distances within 1e-12 relative (of the largest
    distance, for those near 0)."""
    got, expected = _keyed(got), _keyed(expected)
    assert got.keys() == expected.keys()
    scale = max(expected.values(), default=0.0)
    for key, distance in expected.items():
        assert got[key] == pytest.approx(distance, rel=1e-12, abs=1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), onto=_FILTERS)
def test_composite_translation_builds_the_two_step_dictionary(seed, onto):
    lex_a, lex_b, t1, query = _law_pair(seed, onto)
    rng = np.random.default_rng(seed)
    dims = t1.target_model.dims
    t2 = Translation(
        t1.target_model, LanguageModel("c", dims), {b: parse_type(b) for b in dims},
        {b: rng.standard_normal((d, d)) for b, d in dims.items()},
    )
    lex_c = translate_lexicon(t2, lex_b)
    composite = build_dictionary(lex_a, lex_c, compose_translations(t2, t1), query)
    two_step = build_dictionary(image_lexicon(t1, lex_a), lex_c, t2, query)
    _same_keys_and_distances(composite, two_step)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), onto=_FILTERS)
def test_orthogonal_alphas_on_both_sides_keep_the_dictionary(seed, onto):
    lex_a, lex_b, _, query = _law_pair(seed, onto)
    model = lex_a.model
    lex_b = Lexicon(model, lex_b.entries)  # the same dimensions, on one model
    rng = np.random.default_rng(seed)
    rotation = Translation(
        model, model, {b: parse_type(b) for b in model.dims},
        {b: random_orthogonal(rng, d) for b, d in model.dims.items()},
    )
    same = identity_translation(model)
    rotated_a, rotated_b = image_lexicon(rotation, lex_a), image_lexicon(rotation, lex_b)
    _same_keys_and_distances(
        build_dictionary(rotated_a, rotated_b, same, query),
        build_dictionary(lex_a, lex_b, same, query),
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), onto=_FILTERS)
def test_threshold_is_the_relation_on_the_unthresholded_build(seed, onto):
    lex_a, lex_b, t, query = _law_pair(seed, onto)
    everything = list(build_dictionary(lex_a, lex_b, t, query))
    # k at 0 and at two of the distances themselves, where a pair is kept
    # only if its distance has the same bits in both builds
    rng = np.random.default_rng(seed)
    distances = [e.distance for e in everything]
    for k in [0.0, *rng.choice(distances, min(2, len(distances)), replace=False)]:
        thresholded = build_dictionary(lex_a, lex_b, t, dataclasses.replace(query, threshold=k))
        assert list(thresholded) == threshold_relation(everything, k)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), onto=st.sampled_from(["s", "x"]))
def test_filter_lands_every_row_and_pairs_each_image_phrase_with_itself(seed, onto):
    lex_a, _, t, query = _law_pair(seed, onto)
    image = image_lexicon(t, lex_a)
    h = query.target_type_filter
    assert all(e.reduction.target == h for e in build_dictionary(lex_a, image, t, query))
    exact = build_dictionary(lex_a, image, t, dataclasses.replace(query, threshold=0.0))
    paired = {(e.source_phrase, e.target_phrase) for e in exact}
    for p in phrases_with_senses(image, min(query.max_source_len, query.max_target_len)):
        if reduce_search(lex_phrase(image, p).type, h, max_results=1):
            assert (p, p) in paired


@pytest.mark.parametrize("seed", range(8))
def test_distance_ties_are_ordered_by_the_rest_of_the_sort_key(seed):
    # all-ones tensors, each sense twice, under an identity translation: a
    # distance depends on the types alone, so most entries tie on it and
    # words, senses and cups decide their order
    lex_a, _, _, query = _random_bucket_pair(seed)
    ones = ones_lexicon(lex_a)
    query = dataclasses.replace(
        query, max_source_len=2, threshold=None, target_type_filter=None
    )
    built = list(build_dictionary(ones, ones, identity_translation(ones.model), query))
    assert len({e.distance for e in built}) < len(built)
    assert built == sorted(built, key=DictionaryEntry.sort_key)


@pytest.mark.parametrize("seed", range(6))
def test_bucket_rows_are_the_phrase_tensors(seed):
    lex_a, lex_b, _, _ = _random_bucket_pair(seed)
    for lex in (lex_a, lex_b, _five_word_pair()[0]):
        buckets = _PhraseBuckets(lex, 3)
        seen = []
        for g, seqs in buckets.plan.items():
            for first, stack in map(buckets.sequence, seqs):
                phrases = [Phrase(*label) for label in buckets.labels[first : first + len(stack)]]
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
    assert any(not e.reduction.cups for e in entries)
    for e in entries:
        if not e.reduction.cups:
            expected = frobenius_distance(
                lex_phrase(images, e.source_phrase).meaning.array,
                lex_phrase(lex_b, e.target_phrase).meaning.array,
            )
            assert e.distance == expected
        assert validate_entry(lex_a, lex_b, t, e) == e.distance


@pytest.mark.parametrize("n_items, column", [
    (6, [4, 1, 1, 4, 2]),  # items 0 and 5 unused, indices repeat
    (3, [2, 2, 2]),
    (4, [0, 1, 2, 3, 3, 0]),
    (5, []),
    (0, []),
])
def test_used_is_the_unique_remap(n_items, column):
    items = [f"item{i}" for i in range(n_items)]
    column = np.array(column, dtype=np.intp)
    used, remapped = dictionary._used(items, column)
    expected_used, expected = np.unique(column, return_inverse=True)
    assert used == [items[i] for i in expected_used.tolist()]
    assert remapped.dtype == np.intp
    assert remapped.tolist() == expected.tolist()


@pytest.mark.parametrize("seed", [2, 9, 23])
def test_build_makes_phrases_only_for_kept_rows(seed, monkeypatch):
    built = []

    class CountedPhrase(Phrase):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(dictionary, "Phrase", CountedPhrase)
    lex_a, lex_b, t, _ = _random_bucket_pair(seed)
    query = DictionaryQuery(
        max_source_len=3, max_target_len=2, target_type_filter=parse_type("s"), threshold=8.0
    )
    table = build_dictionary(lex_a, lex_b, t, query)
    assert len(table) > 0
    assert len(built) == len(table.source_phrases) + len(table.target_phrases)
    assert len(table.source_phrases) < len(list(phrases_with_senses(lex_a, 3)))


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


@pytest.mark.parametrize("onto", [None, "s"])
def test_deep_query_searches_only_joined_pairs(monkeypatch, onto):
    # four word classes at d=2, source phrases up to three words: of all
    # pairs of a bucket type and a type it may land on, only those with
    # equal free-group images and a landing type no longer than the bucket
    # type are searched, on the source side and on the filtered target side
    rng = np.random.default_rng(41)
    model = LanguageModel("m", {"x": 2, "s": 1})
    classes = [("n", ["x"]), ("i", ["x^r s"]), ("a", ["x x^l"]), ("v", ["x^r s x^l", "x^r s"])]
    lex = Lexicon(model, {
        f"{label}{k}": _random_senses(rng, model, types)
        for label, types in classes
        for k in range(2)
    })
    t = Translation(model, model, {b: parse_type(b) for b in ("x", "s")},
                    {"x": random_orthogonal(rng, 2), "s": np.eye(1)})
    pushed = translate_lexicon(t, lex)
    type_filter = None if onto is None else parse_type(onto)
    query = DictionaryQuery(max_source_len=3, max_target_len=2, target_type_filter=type_filter,
                            threshold=0.5, max_pairs=10**7)
    calls = []

    def counted(g, h, max_results=None):
        calls.append((g, h, max_results))
        return reduce_search(g, h, max_results)

    monkeypatch.setattr(dictionary, "reduce_search", counted)
    table = build_dictionary(lex, pushed, t, query)
    sources, targets = _PhraseBuckets(lex, 3).plan, _PhraseBuckets(pushed, 2).plan

    def joined(types, landing, max_results=None):
        return {(g, h, max_results) for g in types for h in landing
                if free_group_image(g) == free_group_image(h) and len(h) <= len(g)}

    if type_filter is None:
        expected = joined(sources, targets)
    else:
        expected = joined(targets, [type_filter], 1) | joined(sources, [type_filter])
    assert len(calls) == len(set(calls)) == len(expected)
    assert set(calls) == expected
    assert len(expected) * 10 < len(sources) * len(targets)
    assert len(table) > 0


def test_landing_type_rows_in_one_block_are_one_distance_call(monkeypatch):
    # two source parts land on "s": noun-verb pairs by one cup and
    # noun-verb-noun phrases by two; their rows fit in one block, so the
    # build compares them with the target rows in one call
    rng = np.random.default_rng(3)
    model = LanguageModel("m", {"x": 2, "s": 1})
    lex_a = Lexicon(model, {
        "n": _random_senses(rng, model, ["x", "x"]),
        "i": _random_senses(rng, model, ["x^r s"]),
        "v": _random_senses(rng, model, ["x^r s x^l"]),
    })
    lex_b = Lexicon(model, {"z": _random_senses(rng, model, ["s", "s"])})
    t = identity_translation(model)
    query = DictionaryQuery(max_source_len=3, max_target_len=1, max_pairs=10**6)
    calls = []

    def counted(source_rows, target_rows):
        calls.append(len(source_rows))
        return distances(source_rows, target_rows)

    distances = dictionary._distances
    monkeypatch.setattr(dictionary, "_distances", counted)
    table = build_dictionary(lex_a, lex_b, t, query)
    assert calls == [2 + 4]
    assert len(table) == (2 + 4) * 2
    assert {len(e.source_phrase.words) for e in table} == {2, 3}
    # one row per block: the same table, from six calls
    monkeypatch.setattr(dictionary, "_BLOCK_ELEMENTS", 1)
    assert list(build_dictionary(lex_a, lex_b, t, query)) == list(table)
    assert len(calls) == 1 + 6


def test_budget_cap_is_exact():
    lex_a, lex_b, t = _mini_pair()
    pairs = (3 + 3**2) * (3 + 3**2)
    query = DictionaryQuery(max_source_len=2, max_target_len=2, max_pairs=pairs)
    assert len(build_dictionary(lex_a, lex_b, t, query)) > 0
    with pytest.raises(BudgetExceededError, match=f"more than the cap of {pairs - 1} "):
        build_dictionary(lex_a, lex_b, t, dataclasses.replace(query, max_pairs=pairs - 1))


def test_identity_rows_are_a_view_of_the_stack():
    # a target bucket compared at its own type is not copied
    rng = np.random.default_rng(2)
    g = parse_type("x^r s x^l")
    stack = rng.standard_normal((3, 2, 1, 2))
    rows = _reduced_rows(Reduction.identity(g), stack)
    assert np.shares_memory(rows, stack)
    assert np.array_equal(rows, stack.reshape(3, -1))


def test_source_bucket_without_reduction_is_never_built():
    # no target type shares an image with a type holding "blob", so the
    # stack of its three-word phrases (8 rows of 64^3 floats, 16 MiB) and
    # every other bucket holding it are never grown
    rng = np.random.default_rng(7)
    model = LanguageModel("m", {"x": 2, "y": 64})
    lex_a = Lexicon(model, {
        "n": _random_senses(rng, model, ["x"]),
        "blob": _random_senses(rng, model, ["y", "y"]),
    })
    lex_b = Lexicon(model, {"m": _random_senses(rng, model, ["x"])})
    t = identity_translation(model)
    query = DictionaryQuery(max_source_len=3, max_target_len=3, max_pairs=10**6)
    tracemalloc.start()
    try:
        table = build_dictionary(lex_a, lex_b, t, query)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert {(str(e.source_phrase), str(e.target_phrase)) for e in table} == {
        ("n", "m"), ("n n", "m m"), ("n n n", "m m m")
    }
    assert peak < 2**20
