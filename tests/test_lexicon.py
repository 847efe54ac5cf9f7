import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discotrans import demo
from discotrans.errors import (
    BudgetExceededError,
    NoReductionError,
    SenseIndexError,
    UnknownWordError,
)
from discotrans.grammar import PregroupType, Reduction, SimpleType, parse_type
from discotrans.lexicon import Lexicon, Phrase, lex_phrase, phrase_meaning, phrase_reduction
from discotrans.product_space import PSObject, ps_tensor
from discotrans.semantics import LanguageModel, _contract, make_tensor, space_shape
from conftest import random_model, random_obj, random_word
from oracles import phrase_reduction_by_product, reduction_matrix, reductions_by_elimination


def test_phrase_needs_words():
    with pytest.raises(ValueError):
        Phrase(())


def test_phrase_sense_length_checked():
    with pytest.raises(SenseIndexError):
        Phrase(("a", "b"), (0,))


@pytest.mark.parametrize("field", ["words", "sense_choice"])
def test_phrase_refuses_a_string(field):
    # a string is a sequence of one-character words
    args = {"words": ("Rosie", "wears", "boots"), field: "Rosie wears boots"}
    with pytest.raises(ValueError) as caught:
        Phrase(**args)
    assert str(caught.value) == (
        "words and sense_choice are sequences, not strings (see Phrase.parse)"
    )


def test_phrase_meaning_of_a_type_too_long_to_search_is_a_budget_error():
    # 600 words of type n n^r then s: 1,201 simple types
    model = LanguageModel("m", {"n": 1, "s": 1})
    lex = Lexicon(model, {
        "a": (PSObject(make_tensor(model, parse_type("n n^r"), [1.0])),),
        "b": (PSObject(make_tensor(model, parse_type("s"), [1.0])),),
    })
    with pytest.raises(BudgetExceededError) as caught:
        phrase_meaning(lex, Phrase(("a",) * 600 + ("b",)), parse_type("s"))
    assert str(caught.value) == "a type is too long to search for reductions"


def test_entries_must_match_model_shapes():
    model = LanguageModel("m", {"n": 3})
    bad = PSObject(make_tensor(LanguageModel("other", {"n": 2}), parse_type("n"), [1, 0]))
    with pytest.raises(ValueError):
        Lexicon(model, {"w": (bad,)})


def test_empty_entry_list_rejected():
    with pytest.raises(ValueError):
        Lexicon(LanguageModel("m", {"n": 2}), {"w": ()})


@pytest.mark.parametrize("word", ["", "a b", "a\tb", "w\n", "a\xa0b", 7, None])
def test_a_word_is_one_phrase_token(word):
    # Phrase.parse splits on whitespace, so no phrase could name such a word
    model = LanguageModel("m", {"n": 2})
    sense = PSObject(make_tensor(model, parse_type("n"), [1, 0]))
    with pytest.raises(ValueError) as caught:
        Lexicon(model, {"w": (sense,), word: (sense,)})
    assert str(caught.value) == f"word {word!r} must be a non-empty string with no whitespace"


def test_single_word_phrase_is_its_entry(wardrobe):
    out = lex_phrase(wardrobe, Phrase(("Rosie",)))
    assert out == wardrobe.entries["Rosie"][0]


def test_lex_phrase_unknown_word(wardrobe):
    with pytest.raises(UnknownWordError):
        lex_phrase(wardrobe, Phrase(("Rose",)))


def test_lex_phrase_bad_sense_index(wardrobe):
    with pytest.raises(SenseIndexError):
        lex_phrase(wardrobe, Phrase(("Rosie",), (3,)))


def _two_sense_lexicon():
    """One word with two senses of one type, so sense 1 is told apart from 0."""
    model = LanguageModel("m", {"n": 2})
    senses = tuple(PSObject(make_tensor(model, parse_type("n"), d)) for d in ([1, 0], [0, 1]))
    return Lexicon(model, {"w": senses})


_PIPELINES = pytest.mark.parametrize("pipeline", [
    lex_phrase, lambda lex, p: phrase_meaning(lex, p, parse_type("n")),
], ids=["lex_phrase", "phrase_meaning"])


@_PIPELINES
@pytest.mark.parametrize(
    "index", [True, 1.0, np.float64(1), "1"], ids=["bool", "float", "numpy-float", "string"]
)
def test_a_sense_index_must_be_an_integer(pipeline, index):
    # True took sense 1; the others failed raw in tuple indexing or the range test
    with pytest.raises(SenseIndexError) as caught:
        pipeline(_two_sense_lexicon(), Phrase(("w",), (index,)))
    assert str(caught.value) == f"sense {index!r} for 'w' is not an integer"


@_PIPELINES
def test_a_sense_index_may_be_a_numpy_integer(pipeline):
    lex = _two_sense_lexicon()
    got = pipeline(lex, Phrase(("w",), (np.int64(1),)))
    assert got == pipeline(lex, Phrase(("w",), (1,)))
    assert got != pipeline(lex, Phrase(("w",), (0,)))


def test_phrase_product_types_and_shape(wardrobe):
    out = lex_phrase(wardrobe, Phrase(("Rosie", "wears", "boots"), (0, 1, 0)))
    assert str(out.type) == "n_s n_s^r s n_p^l n_p"
    assert out.meaning.shape == (4, 4, 1, 4, 4)
    rosie, wears, boots = (
        wardrobe.entries["Rosie"][0],
        wardrobe.entries["wears"][1],
        wardrobe.entries["boots"][0],
    )
    expected = np.multiply.outer(
        np.multiply.outer(rosie.meaning.array, wears.meaning.array),
        boots.meaning.array,
    )
    assert np.array_equal(out.meaning.array, expected)


def test_lex_phrase_is_a_monoid_homomorphism(wardrobe):
    # integer-valued sample data, so the outer products are exact
    p = Phrase(("Rosie", "wears"), (0, 1))
    q = Phrase(("boots",), (0,))
    joined = lex_phrase(wardrobe, Phrase(p.words + q.words, (0, 1, 0)))
    split = ps_tensor(lex_phrase(wardrobe, p), lex_phrase(wardrobe, q))
    assert joined.type == split.type
    assert np.array_equal(joined.meaning.array, split.meaning.array)


def test_sentence_meanings(wardrobe):
    s = parse_type("s")
    surprising = phrase_meaning(wardrobe, Phrase.parse("Rosie wears a_boot"), s)
    plain = phrase_meaning(wardrobe, Phrase.parse("Rosie wears boots"), s)
    assert float(plain.flat[0]) == pytest.approx(0.0, abs=1e-9)
    assert float(surprising.flat[0]) == pytest.approx(-1.0, abs=1e-9)


def test_sense_backtracking_reports_choice(wardrobe):
    # the default all-first-senses assignment cannot take a plural object
    _, reduction, senses = phrase_reduction(
        wardrobe, Phrase.parse("Rosie wears boots"), parse_type("s")
    )
    assert senses == (0, 1, 0)
    assert reduction.sorted_cups == ((0, 1), (3, 4))


def test_explicit_senses_disable_backtracking(wardrobe):
    with pytest.raises(NoReductionError):
        phrase_meaning(
            wardrobe, Phrase(("Rosie", "wears", "boots"), (0, 0, 0)), parse_type("s")
        )


def test_single_noun_reduces_to_itself(wardrobe):
    out = phrase_meaning(wardrobe, Phrase(("boots",)), parse_type("n_p"))
    assert np.array_equal(out.array, wardrobe.entries["boots"][0].meaning.array)


def test_wardrobe_leaves_the_demo_matrix_alone():
    before = demo.WEARS_MATRIX.copy()
    lex = demo.wardrobe_lexicon()
    for obj in lex.senses("wears"):
        assert not np.shares_memory(obj.meaning.array, demo.WEARS_MATRIX)
    meaning = phrase_meaning(lex, Phrase.parse("Rosie wears a_boot"), parse_type("s"))
    assert meaning.array.tolist() == [-1.0]
    assert np.array_equal(demo.WEARS_MATRIX, before)
    assert demo.WEARS_MATRIX.flags.writeable


def test_entries_are_read_only(wardrobe):
    other = LanguageModel("other", {"n": 3})
    with pytest.raises(TypeError):
        wardrobe.entries["b"] = (PSObject(make_tensor(other, parse_type("n"), [1, 2, 3])),)
    assert "b" not in wardrobe.words


def test_sentence_meaning_holds_one_phrase_tensor():
    # noun, transitive verb, noun at d=32: the phrase tensor is 32**4
    # floats (8 MiB), built once by the outer product and not copied
    model = LanguageModel("m", {"n": 32, "s": 1})
    rng = np.random.default_rng(3)

    def word(text):
        g = parse_type(text)
        data = rng.standard_normal(space_shape(model, g))
        return (PSObject(make_tensor(model, g, data)),)

    lex = Lexicon(model, {"a": word("n"), "v": word("n^r s n^l"), "b": word("n")})
    phrase, s = Phrase(("a", "v", "b")), parse_type("s")
    phrase_meaning(lex, phrase, s)  # fill the grammar memo first
    tracemalloc.start()
    try:
        phrase_meaning(lex, phrase, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * 2**20


def test_no_reduction_to_wrong_target(wardrobe):
    with pytest.raises(NoReductionError):
        phrase_meaning(wardrobe, Phrase(("boots",)), parse_type("n_s"))


def test_meaning_invariant_under_regrouping(wardrobe):
    # fold the outer product in two different orders before reducing
    words = [
        wardrobe.entries["Rosie"][0],
        wardrobe.entries["wears"][1],
        wardrobe.entries["boots"][0],
    ]
    left = ps_tensor(ps_tensor(words[0], words[1]), words[2])
    right = ps_tensor(words[0], ps_tensor(words[1], words[2]))
    from discotrans.grammar import Reduction
    from discotrans.semantics import apply_reduction

    r = Reduction.from_cups(left.type, [(0, 1), (3, 4)])
    a = apply_reduction(wardrobe.model, r, left.meaning)
    b = apply_reduction(wardrobe.model, r, right.meaning)
    assert np.max(np.abs(a.array - b.array)) <= 1e-12


# -- the word network against the product definition ----------------------------

def _reducible_word_types(rng, target):
    """Word types whose product reduces onto ``target``: cups inserted at
    random into the target, the result cut into one to four words."""
    simples = list(target.simples)
    for _ in range(rng.integers(0, 4)):
        s = SimpleType(("x", "y")[rng.integers(2)], int(rng.integers(-1, 2)))
        at = int(rng.integers(len(simples) + 1))
        simples[at:at] = [s, s.right]
    cuts = sorted(rng.integers(0, len(simples) + 1, size=rng.integers(0, 4)))
    bounds = [0, *cuts, len(simples)]
    return [PregroupType(tuple(simples[a:b])) for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_phrase_reduction_equals_the_product_definition(seed):
    # the definition: the first sense assignment in index order whose product
    # type reduces, its leftmost reduction, applied as an explicit matrix to
    # the outer product of the word tensors; both the pipeline and the
    # contraction of the word tensors as one network must give it
    rng = np.random.default_rng(seed)
    model = random_model(rng, max_dim=3)
    target = random_word(rng, max_len=2)
    entries = {}
    for k, g in enumerate(_reducible_word_types(rng, target)):
        # the reducible sense among zero to two random ones, so that the
        # search backtracks
        types = [random_word(rng, max_len=3) for _ in range(rng.integers(0, 3))]
        types.insert(int(rng.integers(len(types) + 1)), g)
        entries[f"w{k}"] = tuple(random_obj(rng, model, h) for h in types)
    lex = Lexicon(model, entries)
    words = tuple(entries)
    for senses in product(*(range(len(lex.senses(w))) for w in words)):
        phrase = lex_phrase(lex, Phrase(words, senses))
        cup_sets = reductions_by_elimination(phrase.type, target)
        if cup_sets:
            break
    r = Reduction.from_cups(phrase.type, min(cup_sets, key=sorted))
    meaning, got_r, got_senses = phrase_reduction(lex, Phrase(words), target)
    assert got_senses == senses
    assert got_r == r
    assert meaning.type == target
    matrix = reduction_matrix(model, r)
    expected = matrix @ phrase.meaning.flat
    # relative to the summed magnitudes of the terms behind each entry
    scale = matrix @ np.abs(phrase.meaning.flat)
    assert np.all(np.abs(meaning.flat - expected) <= 1e-12 * scale)
    network = _contract(r, *(lex.senses(w)[i].meaning.array for w, i in zip(words, senses)))
    assert np.all(np.abs(network.reshape(-1) - expected) <= 1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_phrase_reduction_matches_the_product_loop(seed):
    # senses drawn with repeats from three types, the reducible one among
    # them or not: one sense per distinct type gives what trying every
    # combination gives, senses, reduction and value alike
    rng = np.random.default_rng(seed)
    model = random_model(rng, max_dim=2)
    target = random_word(rng, max_len=2)
    entries = {}
    for k, g in enumerate(_reducible_word_types(rng, target)):
        pool = [g, random_word(rng, max_len=3), random_word(rng, max_len=3)]
        types = [pool[i] for i in rng.integers(len(pool), size=rng.integers(1, 5))]
        entries[f"w{k}"] = tuple(random_obj(rng, model, h) for h in types)
    lex = Lexicon(model, entries)
    phrase = Phrase(tuple(entries))
    try:
        value, reduction, senses = phrase_reduction_by_product(lex, phrase, target)
    except NoReductionError:
        with pytest.raises(NoReductionError):
            phrase_reduction(lex, phrase, target)
        return
    got_value, got_reduction, got_senses = phrase_reduction(lex, phrase, target)
    assert got_senses == senses
    assert got_reduction == reduction
    assert np.array_equal(got_value.array, value.array)
