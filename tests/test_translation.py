import dataclasses
import time
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discotrans.demo import collapse_number_translation
from discotrans.dictionary import DictionaryQuery, build_dictionary
from discotrans.errors import (
    DiscotransError,
    ModelMismatchError,
    NonFunctorialTranslationError,
    RankDeficientError,
    TypeMismatchError,
    UnknownBasicTypeError,
)
from discotrans.grammar import PregroupType, Reduction, SimpleType, parse_type
from discotrans.lexicon import Lexicon
from discotrans.product_space import PSObject, ps_morphism, ps_tensor
from discotrans.semantics import LanguageModel, Tensor, apply_reduction, make_tensor, space_shape
from discotrans.translation import (
    Translation,
    alpha_component,
    check_naturality,
    compose_translations,
    fit_alpha,
    identity_translation,
    j_apply,
    nearest_unitary,
    solve_generator_map,
    translate_lexicon,
    translate_morphism,
    translate_object,
    translate_reduction,
)
from conftest import random_obj, random_word
from oracles import (
    all_reductions,
    alpha_block,
    alpha_component_by_tensordot,
    alpha_matrix_by_kron,
    image_lexicon,
    naturality_by_basis_probe,
    random_orthogonal,
    random_reduction,
)


def _random_translation(rng, source_model, target_model):
    j = {}
    alpha = {}
    target_bases = sorted(target_model.dims)
    for base, dim in source_model.dims.items():
        length = int(rng.integers(0, 3))
        simples = tuple(
            SimpleType(target_bases[rng.integers(len(target_bases))], int(rng.integers(-1, 2)))
            for _ in range(length)
        )
        image = PregroupType(simples)
        j[base] = image
        rows = int(np.prod(space_shape(target_model, image), dtype=int))
        alpha[base] = rng.standard_normal((rows, dim))
    return Translation(source_model, target_model, j, alpha)


# -- construction ------------------------------------------------------------------

def test_grammar_map_must_cover_all_basics(blind_model):
    with pytest.raises(UnknownBasicTypeError):
        Translation(
            LanguageModel("m", {"n": 3, "s": 1}),
            blind_model,
            j={"n": parse_type("n")},
            alpha={"n": np.eye(3)},
        )


def test_extra_keys_are_dropped(blind_model):
    source = LanguageModel("m", {"n": 3})
    t = Translation(
        source,
        blind_model,
        j={"n": parse_type("n"), "q": parse_type("s")},
        alpha={"n": np.eye(3), "q": np.eye(1), "r": np.eye(1)},
    )
    assert set(t.j) == set(t.alpha) == {"n"}
    for g in (parse_type("q"), parse_type("r")):
        with pytest.raises(UnknownBasicTypeError):
            j_apply(t, g)
        with pytest.raises(UnknownBasicTypeError):
            alpha_component(t, g, np.ones(1))


def test_alpha_is_read_only():
    t = identity_translation(LanguageModel("m", {"n": 2}))
    with pytest.raises(TypeError):
        t.alpha["n"] = np.zeros((5, 5))
    assert check_naturality(t, Reduction.identity(parse_type("n"))).passed


def test_grammar_map_is_read_only():
    t = identity_translation(LanguageModel("m", {"n": 2, "s": 1}))
    with pytest.raises(TypeError):
        t.j["n"] = parse_type("s s")
    assert j_apply(t, parse_type("n")) == parse_type("n")


def test_a_model_name_names_one_model(blind_model):
    # source and target share a name but not their dimensions
    impostor = LanguageModel(blind_model.name, {"n": 2, "s": 1})
    with pytest.raises(ModelMismatchError) as caught:
        Translation(
            impostor,
            blind_model,
            j={"n": parse_type("n"), "s": parse_type("s")},
            alpha={"n": np.ones((3, 2)), "s": np.eye(1)},
        )
    assert str(caught.value) == "model 'number-blind' is declared twice with different dimensions"


def test_alpha_shape_checked(aware_model, blind_model):
    with pytest.raises(TypeMismatchError):
        Translation(
            blind_model,
            blind_model,
            j={"n": parse_type("n"), "s": parse_type("s")},
            alpha={"n": np.eye(2), "s": np.eye(1)},
        )


def test_a_grammar_map_image_must_be_a_type():
    # a string image raised a raw AttributeError ('str' object has no attribute 'simples')
    model = LanguageModel("m", {"n": 2})
    with pytest.raises(ValueError) as caught:
        Translation(model, model, {"n": "n"}, {"n": np.eye(2)})
    assert str(caught.value) == "j['n'] must be a PregroupType, got 'n'"


def test_an_alpha_of_other_than_numbers_names_its_base():
    # numpy's "could not convert string to float: 'x'" named no basic type
    model = LanguageModel("m", {"n": 2})
    with pytest.raises(ValueError) as caught:
        Translation(model, model, {"n": parse_type("n")}, {"n": [[1, 0], [0, "x"]]})
    assert str(caught.value).startswith("alpha['n'] is not a matrix of numbers: ")


# -- the grammar map ----------------------------------------------------------------

def test_j_collapses_noun_flavours(collapse):
    g = parse_type("n_s n_s^r s n_p^l n_p")
    assert str(j_apply(collapse, g)) == "n n^r s n^l n"


def test_j_preserves_unit(collapse):
    assert j_apply(collapse, PregroupType()) == PregroupType()


def test_j_commutes_with_adjoints(collapse):
    g = parse_type("n_s^l")
    assert j_apply(collapse, g) == j_apply(collapse, parse_type("n_s")).left


def test_j_reverses_word_images():
    source = LanguageModel("m", {"b": 4})
    target = LanguageModel("m2", {"p": 2, "q": 2})
    t = Translation(source, target, {"b": parse_type("p q")}, {"b": np.eye(4)})
    assert str(j_apply(t, parse_type("b^l"))) == "q^l p^l"
    assert str(j_apply(t, parse_type("b^r"))) == "q^r p^r"


# -- alpha components ----------------------------------------------------------------

def _alpha_matrix(t, g):
    """Per-axis alpha applied to every basis vector of F(g), as a matrix."""
    shape = space_shape(t.source_model, g)
    size = int(np.prod(shape, dtype=int))
    images = alpha_component(t, g, np.eye(size).reshape(*shape, size))
    return images.reshape(-1, size)


def test_alpha_on_unit_is_scalar_identity(collapse):
    assert alpha_matrix_by_kron(collapse, PregroupType()).tolist() == [[1.0]]
    assert _alpha_matrix(collapse, PregroupType()).tolist() == [[1.0]]


def test_alpha_on_singular_noun_is_projection(collapse):
    expected = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    assert alpha_matrix_by_kron(collapse, parse_type("n_s")).tolist() == expected
    assert _alpha_matrix(collapse, parse_type("n_s")).tolist() == expected


def test_alpha_on_verb_type_is_kron(collapse):
    p = alpha_matrix_by_kron(collapse, parse_type("n_s"))
    expected = np.kron(p, np.kron(np.eye(1), p))
    verb = parse_type("n_s^r s n_s^l")
    assert np.array_equal(alpha_matrix_by_kron(collapse, verb), expected)
    assert np.array_equal(_alpha_matrix(collapse, verb), expected)


def _two_simple_translation(rng, n=3, y=2, b=4, s=2, c=2, p=2, q=3):
    """Source n, y, b, s; n maps to the two-simple word n c, b to the
    reversing word p q, y is erased and s kept."""
    source = LanguageModel("src", {"n": n, "y": y, "b": b, "s": s})
    target = LanguageModel("tgt", {"n": n, "c": c, "p": p, "q": q, "s": s})
    return Translation(
        source,
        target,
        {
            "n": parse_type("n c"),
            "y": PregroupType(),
            "b": parse_type("p q"),
            "s": parse_type("s"),
        },
        {
            "n": rng.standard_normal((n * c, n)),
            "y": rng.standard_normal((1, y)),
            "b": rng.standard_normal((p * q, b)),
            "s": rng.standard_normal((s, s)),
        },
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    word=st.lists(
        st.tuples(st.sampled_from("nybs"), st.sampled_from([-2, -1, 0, 1, 2])),
        max_size=4,
    ),
    trailing=st.lists(st.integers(1, 3), max_size=2),
)
@example(seed=0, word=[], trailing=[])
@example(seed=1, word=[], trailing=[3])
@example(seed=2, word=[("n", 1), ("s", 0), ("b", -1)], trailing=[2])
@example(seed=3, word=[("b", 1), ("b", 0), ("n", -2), ("y", 1)], trailing=[2, 3])
def test_per_axis_alpha_matches_kronecker_matrix(seed, word, trailing):
    rng = np.random.default_rng(seed)
    t = _two_simple_translation(rng)
    g = PregroupType(tuple(SimpleType(b, z) for b, z in word))
    shape = space_shape(t.source_model, g)
    array = rng.standard_normal((*shape, *trailing))
    got = alpha_component(t, g, array)
    image_shape = space_shape(t.target_model, j_apply(t, g))
    assert got.shape == (*image_shape, *trailing)
    flat = array.reshape(int(np.prod(shape, dtype=int)), -1)
    expected = (alpha_matrix_by_kron(t, g) @ flat).reshape(got.shape)
    assert np.max(np.abs(got - expected), initial=0.0) <= 1e-12


def _bits(array: np.ndarray) -> tuple:
    return array.shape, array.dtype, array.tobytes()


_DIMS = st.fixed_dictionaries({base: st.integers(1, 5) for base in "nybscpq"})
_WORD = st.lists(
    st.tuples(st.sampled_from("nybs"), st.sampled_from([-2, -1, 0, 1, 2])), max_size=4
)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=_DIMS, word=_WORD,
       trailing=st.lists(st.integers(1, 3), max_size=2))
# verify's two-simple image n -> n c at both parities, with a pass-through axis
@example(seed=0, dims=dict(n=4, y=1, b=1, s=1, c=2, p=1, q=1), word=[("n", 0), ("n", 1)],
         trailing=[3])
@example(seed=1, dims=dict(n=5, y=5, b=5, s=5, c=5, p=5, q=5),
         word=[("b", -1), ("n", 2), ("s", 0), ("y", 1)], trailing=[])
def test_alpha_component_is_the_tensordot_chain_bit_for_bit(seed, dims, word, trailing):
    rng = np.random.default_rng(seed)
    t = _two_simple_translation(rng, **dims)
    g = PregroupType(tuple(SimpleType(b, z) for b, z in word))
    array = rng.standard_normal((*space_shape(t.source_model, g), *trailing))
    expected = alpha_component_by_tensordot(t, g, array)
    # a second call reads the same prepared matrices again
    for _ in range(2):
        assert _bits(alpha_component(t, g, array)) == _bits(expected)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       dims=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=3, max_size=3))
def test_composite_alpha_is_the_tensordot_chain_bit_for_bit(seed, dims):
    rng = np.random.default_rng(seed)
    models = [LanguageModel(f"m{i}", {"x": x, "y": y}) for i, (x, y) in enumerate(dims)]
    t1 = _random_translation(rng, models[0], models[1])
    t2 = _random_translation(rng, models[1], models[2])
    composite = compose_translations(t2, t1)
    for base, matrix in t1.alpha.items():
        block = alpha_block(t1, SimpleType(base))
        expected = alpha_component_by_tensordot(t2, t1.j[base], block)
        assert _bits(composite.alpha[base]) == _bits(expected.reshape(-1, matrix.shape[1]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=_DIMS,
       senses=st.lists(st.lists(_WORD, min_size=1, max_size=3), min_size=1, max_size=4))
def test_translate_object_is_the_lexicon_entry_bit_for_bit(seed, dims, senses):
    rng = np.random.default_rng(seed)
    t = _two_simple_translation(rng, **dims)
    lex = Lexicon(t.source_model, {
        f"w{i}": tuple(
            random_obj(rng, t.source_model, PregroupType(tuple(SimpleType(b, z) for b, z in w)))
            for w in words
        )
        for i, words in enumerate(senses)
    })
    image = translate_lexicon(t, lex)
    fresh = Translation(t.source_model, t.target_model, t.j, t.alpha)
    for word in lex.words:
        # random senses have distinct images, so none is merged
        assert len(image.entries[word]) == len(lex.senses(word))
        for obj, entry in zip(lex.senses(word), image.entries[word]):
            for translation in (t, fresh):
                got = translate_object(translation, obj)
                assert got.type == entry.type
                assert _bits(got.meaning.array) == _bits(entry.meaning.array)


def _small_translation(n_entry=2.0):
    """n (dimension 2) to n c (4), s (2) to s (2): alpha[n][0, 0] is ``n_entry``."""
    source = LanguageModel("src", {"n": 2, "s": 2})
    target = LanguageModel("tgt", {"n": 2, "c": 2, "s": 2})
    j = {"n": parse_type("n c"), "s": parse_type("s")}
    n = np.arange(8.0).reshape(4, 2)
    n[0, 0] = n_entry
    return Translation(source, target, j, {"n": n, "s": [[0.0, -1.0], [1.0, 0.0]]})


def test_translations_compare_by_value():
    t = _small_translation()
    assert t == _small_translation() and not t != _small_translation()
    assert t != _small_translation(n_entry=3.0)
    assert t != dataclasses.replace(t, j={"n": parse_type("c n"), "s": parse_type("s")})
    assert t != identity_translation(t.source_model)
    assert t != t.alpha
    with pytest.raises(TypeError):
        hash(t)


def _state(t):
    """Each attribute of ``t``, its mappings copied."""
    return {k: dict(v) if isinstance(v, Mapping) else v for k, v in vars(t).items()}


def test_using_a_translation_changes_neither_its_equality_nor_its_repr():
    used, twin = _small_translation(), _small_translation()
    source = used.source_model
    before, state = repr(used), _state(used)
    # the matrices are prepared when a translation is made, and imaging keeps nothing
    assert set(twin._factors) == {(b, z) for b in "ns" for z in (0, 1)}
    verb = PSObject(make_tensor(source, parse_type("n^r s n^l"), np.arange(8.0)))
    translate_lexicon(used, Lexicon(source, {"sees": (verb,)}))
    translate_object(used, verb)
    assert _state(used) == state
    assert used == twin
    assert repr(used) == before == repr(twin)


def test_a_replaced_translation_prepares_its_own_matrices(collapse, wardrobe):
    translate_lexicon(collapse, wardrobe)
    doubled = dataclasses.replace(collapse, alpha={b: 2 * m for b, m in collapse.alpha.items()})
    for word in wardrobe.words:
        for obj in wardrobe.senses(word):
            for t in (collapse, doubled):
                expected = alpha_component_by_tensordot(t, obj.type, obj.meaning.array)
                assert _bits(translate_object(t, obj).meaning.array) == _bits(expected)


def test_prepared_matrices_are_read_only(rng):
    t = _two_simple_translation(rng)
    # both parities of each base; b^l's matrix is a reordered copy of alpha's rows
    assert set(t._factors) == {(b, z) for b in "nybs" for z in (0, 1)}
    with pytest.raises(TypeError):
        t._factors["n", 0] = t._factors["n", 1]
    for matrix, _ in t._factors.values():
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0


# -- objects and lexicons --------------------------------------------------------------

def test_object_mapping_table(collapse, wardrobe):
    rosie = translate_object(collapse, wardrobe.entries["Rosie"][0])
    assert str(rosie.type) == "n"
    assert rosie.meaning.flat.tolist() == [2, 5, 3]
    boots = translate_object(collapse, wardrobe.entries["boots"][0])
    assert boots.meaning.flat.tolist() == [1, 0, 0]
    wears = translate_object(collapse, wardrobe.entries["wears"][0])
    assert str(wears.type) == "n^r s n^l"
    assert wears.meaning.array.reshape(3, 3).tolist() == [
        [1, 1, 1],
        [-1, -1, -1],
        [1, 1, 1],
    ]


def test_identity_translation_is_inert(wardrobe):
    ident = identity_translation(wardrobe.model)
    rosie = wardrobe.entries["Rosie"][0]
    assert translate_object(ident, rosie).meaning == rosie.meaning


def test_translated_lexicon_merges_equal_senses(collapse, wardrobe):
    lex2 = translate_lexicon(collapse, wardrobe)
    assert len(lex2.entries["wears"]) == 1
    assert lex2.model == collapse.target_model


def test_translate_lexicon_model_mismatch(collapse, blind_model):
    from discotrans.lexicon import Lexicon

    lex = Lexicon(
        blind_model,
        {"w": (PSObject(make_tensor(blind_model, parse_type("n"), [1, 2, 3])),)},
    )
    with pytest.raises(ModelMismatchError):
        translate_lexicon(collapse, lex)


@pytest.mark.parametrize("case", ["demo", "random"])
def test_translate_lexicon_is_the_merged_per_sense_image(case, collapse, wardrobe, rng):
    if case == "demo":
        t, lex = collapse, wardrobe
    else:
        source = LanguageModel("r", {"x": 2, "y": 3})
        t = _random_translation(rng, source, LanguageModel("r2", {"x": 2, "y": 2}))
        entries = {}
        for word in ("d", "a", "c", "b"):
            senses = [random_obj(rng, source, random_word(rng, max_len=3)) for _ in range(3)]
            senses.insert(int(rng.integers(4)), senses[int(rng.integers(3))])
            entries[word] = senses
        lex = Lexicon(source, entries)
    merged = {}
    for word, images in image_lexicon(t, lex).entries.items():
        kept = merged[word] = []
        for image in images:
            if not any(image.meaning == seen.meaning for seen in kept):
                kept.append(image)
    got = translate_lexicon(t, lex)
    assert list(got.entries) == list(lex.entries)
    assert any(len(got.entries[w]) < len(lex.entries[w]) for w in lex.entries)

    def bits(objs):
        return [(o.type, o.meaning.array.dtype, o.meaning.array.tobytes()) for o in objs]

    assert all(bits(got.entries[w]) == bits(merged[w]) for w in lex.entries)


@pytest.mark.parametrize("caller", ["translate_lexicon", "dictionary source", "dictionary target"])
def test_lexicon_model_mismatch_has_one_wording(caller, collapse, wardrobe):
    blind = translate_lexicon(collapse, wardrobe)
    lex, wants = (wardrobe, "number-blind") if caller == "dictionary target" else (blind, "number-aware")
    uses = lex.model.name
    with pytest.raises(ModelMismatchError) as caught:
        if caller == "translate_lexicon":
            translate_lexicon(collapse, lex)
        else:
            build_dictionary(lex, lex, collapse, DictionaryQuery())
    assert str(caught.value) == f"lexicon uses model {uses!r}, the translation needs {wants!r}"


@pytest.mark.parametrize("caller", ["translate_lexicon", "build_dictionary"])
def test_a_lexicon_model_of_the_source_name_must_be_the_source(caller, collapse, wardrobe):
    # the lexicon's model has the translation source's name, other dimensions
    impostor = LanguageModel(collapse.source_model.name, {"n_s": 2, "n_p": 2, "n": 2, "s": 1})
    lex = Lexicon(impostor, {"w": (PSObject(make_tensor(impostor, parse_type("n_s"), [1, 0])),)})
    with pytest.raises(ModelMismatchError) as caught:
        if caller == "translate_lexicon":
            translate_lexicon(collapse, lex)
        else:
            blind = translate_lexicon(collapse, wardrobe)
            build_dictionary(lex, blind, collapse, DictionaryQuery())
    assert str(caught.value) == "model 'number-aware' is declared twice with different dimensions"


# -- reductions and morphisms ------------------------------------------------------------

def test_reduction_image_keeps_cup_pattern(collapse):
    g = parse_type("n_s n_s^r s n_p^l n_p")
    r = Reduction.from_cups(g, [(0, 1), (3, 4)])
    image = translate_reduction(collapse, r)
    assert image.sorted_cups == ((0, 1), (3, 4))
    assert str(image.source) == "n n^r s n^l n"
    assert str(image.target) == "s"


def test_reduction_image_nests_word_blocks():
    source = LanguageModel("m", {"b": 4})
    target = LanguageModel("m2", {"p": 2, "q": 2})
    t = Translation(source, target, {"b": parse_type("p q")}, {"b": np.eye(4)})
    r = Reduction.from_cups(parse_type("b b^r"), [(0, 1)])
    image = translate_reduction(t, r)
    assert image.sorted_cups == ((0, 3), (1, 2))
    assert str(image.source) == "p q q^r p^r"


def test_reduction_image_with_erased_generator():
    source = LanguageModel("m", {"b": 3, "s": 1})
    target = LanguageModel("m2", {"s": 1})
    t = Translation(
        source,
        target,
        {"b": PregroupType(), "s": parse_type("s")},
        {"b": np.ones((1, 3)), "s": np.eye(1)},
    )
    r = Reduction.from_cups(parse_type("b b^r s"), [(0, 1)])
    image = translate_reduction(t, r)
    assert not image.cups
    assert str(image.source) == "s"


_SIMPLES = st.tuples(st.sampled_from("abc"), st.integers(-2, 2))


def _word(simples):
    return PregroupType(tuple(SimpleType(b, z) for b, z in simples))


@settings(max_examples=80, deadline=None)
@given(
    images=st.fixed_dictionaries(
        {b: st.lists(st.tuples(st.sampled_from("pq"), st.integers(-2, 2)), max_size=3)
         for b in "abc"}
    ),
    left=st.lists(_SIMPLES, max_size=3),
    nested=st.lists(_SIMPLES, max_size=3),
    right=st.lists(_SIMPLES, max_size=3),
)
@example(images={"a": [], "b": [("p", 0)], "c": [("p", 1), ("q", -2)]},
         left=[("c", 1)], nested=[("a", 0), ("c", 2)], right=[("b", -1), ("b", 0)])
def test_every_reduction_image_is_a_reduction(images, left, nested, right):
    # images: empty, one or several simple types with iterated adjoints;
    # source words: a random word around a word followed by its right
    # adjoint, so the reductions nest
    source = LanguageModel("m", {b: 1 for b in "abc"})
    target = LanguageModel("m2", {"p": 1, "q": 1})
    t = Translation(source, target, {b: _word(w) for b, w in images.items()},
                    {b: np.ones((1, 1)) for b in "abc"})
    inner = _word(nested)
    for r in all_reductions(_word(left) @ inner @ inner.right @ _word(right)):
        image = translate_reduction(t, r)
        assert isinstance(image, Reduction)
        assert image.source == j_apply(t, r.source)
        assert image.target == j_apply(t, r.target)
        assert len(image.cups) == sum(len(t.j[r.source.simples[a].base]) for a, _ in r.cups)


def test_uncovered_basic_type_is_unknown(collapse):
    r = Reduction.from_cups(parse_type("q q^r s"), [(0, 1)])
    with pytest.raises(UnknownBasicTypeError):
        translate_reduction(collapse, r)
    with pytest.raises(UnknownBasicTypeError):
        check_naturality(collapse, r)


def test_alpha_component_refuses_an_array_of_too_small_rank(collapse):
    with pytest.raises(TypeMismatchError) as caught:
        alpha_component(collapse, parse_type("n_s n_s"), np.ones(4))
    assert str(caught.value) == "array of rank 1 is too small for type 'n_s n_s'"


def test_alpha_component_refuses_an_axis_of_the_wrong_size(collapse):
    # numpy's ValueError from np.dot escaped
    with pytest.raises(TypeMismatchError) as caught:
        alpha_component(collapse, parse_type("n_s"), np.ones(5))
    assert str(caught.value) == "axis 0 of the array has size 5, but 'n_s' in type 'n_s' needs 4"
    wrong = PSObject(Tensor(parse_type("n_s n_s"), np.ones((4, 5))))
    with pytest.raises(TypeMismatchError) as caught:
        translate_object(collapse, wrong)
    assert str(caught.value) == (
        "axis 1 of the array has size 5, but 'n_s' in type 'n_s n_s' needs 4"
    )


def test_alpha_component_on_an_uncovered_base_names_the_grammar_map(collapse):
    with pytest.raises(UnknownBasicTypeError) as caught:
        alpha_component(collapse, parse_type("q"), np.ones(2))
    assert str(caught.value) == "grammar map does not cover 'q'"


def test_identity_morphism_translates_to_identity(collapse, wardrobe):
    rosie = wardrobe.entries["Rosie"][0]
    m = ps_morphism(
        wardrobe.model, rosie, Reduction.identity(rosie.type), rosie
    )
    out = translate_morphism(collapse, m, rosie, rosie)
    assert not out.reduction.cups
    assert out.distance == 0.0


def test_zero_distance_sentence_survives_translation(collapse, wardrobe):
    from discotrans.lexicon import Phrase, lex_phrase

    phrase = lex_phrase(wardrobe, Phrase(("Rosie", "wears", "boots"), (0, 1, 0)))
    r = Reduction.from_cups(phrase.type, [(0, 1), (3, 4)])
    target = PSObject(apply_reduction(wardrobe.model, r, phrase.meaning))
    m = ps_morphism(wardrobe.model, phrase, r, target)
    assert m.distance == 0.0
    out = translate_morphism(collapse, m, phrase, target)
    assert out.distance == pytest.approx(0.0, abs=1e-9)


# -- composition ---------------------------------------------------------------------

def test_compose_with_identity(collapse):
    left = compose_translations(identity_translation(collapse.target_model), collapse)
    right = compose_translations(collapse, identity_translation(collapse.source_model))
    for t in (left, right):
        assert t.j == collapse.j
        for base in collapse.alpha:
            assert np.allclose(t.alpha[base], collapse.alpha[base], atol=1e-12)


def test_projection_chain_composes_to_product():
    a = LanguageModel("a", {"n": 4})
    b = LanguageModel("b", {"n": 3})
    c = LanguageModel("c", {"n": 2})
    p1 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=float)
    p2 = np.array([[1, 0, 0], [0, 1, 0]], dtype=float)
    t1 = Translation(a, b, {"n": parse_type("n")}, {"n": p1})
    t2 = Translation(b, c, {"n": parse_type("n")}, {"n": p2})
    composite = compose_translations(t2, t1)
    assert np.array_equal(composite.alpha["n"], p2 @ p1)


def test_compose_model_chain_checked(collapse):
    with pytest.raises(ModelMismatchError):
        compose_translations(collapse, collapse)


def test_compose_is_associative(rng):
    models = [
        LanguageModel(f"m{i}", {"x": int(rng.integers(1, 4)), "y": int(rng.integers(1, 4))})
        for i in range(4)
    ]
    for _ in range(20):
        t1 = _random_translation(rng, models[0], models[1])
        t2 = _random_translation(rng, models[1], models[2])
        t3 = _random_translation(rng, models[2], models[3])
        left = compose_translations(t3, compose_translations(t2, t1))
        right = compose_translations(compose_translations(t3, t2), t1)
        assert left.j == right.j
        for base in left.alpha:
            assert np.max(np.abs(left.alpha[base] - right.alpha[base])) <= 1e-12


# -- functor laws for the product-space image --------------------------------------------

def test_translation_respects_composition(rng):
    source = LanguageModel("src", {"x": 3, "y": 2})
    target = LanguageModel("tgt", {"p": 2, "q": 3})
    for _ in range(100):
        t = _random_translation(rng, source, target)
        g = random_word(rng, bases=("x", "y"), max_len=4)
        r1 = random_reduction(rng, g)
        r2 = random_reduction(rng, r1.target)
        a = random_obj(rng, source, g)
        b = random_obj(rng, source, r1.target)
        c = random_obj(rng, source, r2.target)
        m1 = ps_morphism(source, a, r1, b)
        m2 = ps_morphism(source, b, r2, c)
        from discotrans.product_space import ps_compose

        composite = ps_compose(m2, m1, a, b, c)
        direct = translate_morphism(t, composite, a, c)
        stepwise = ps_compose(
            translate_morphism(t, m2, b, c),
            translate_morphism(t, m1, a, b),
            translate_object(t, a),
            translate_object(t, b),
            translate_object(t, c),
        )
        assert direct.reduction == stepwise.reduction
        assert direct.distance == pytest.approx(stepwise.distance, abs=1e-9)


def test_translation_respects_tensor(rng):
    source = LanguageModel("src", {"x": 3, "y": 2})
    target = LanguageModel("tgt", {"p": 2, "q": 3})
    for _ in range(100):
        t = _random_translation(rng, source, target)
        a = random_obj(rng, source, random_word(rng, bases=("x", "y"), max_len=3))
        b = random_obj(rng, source, random_word(rng, bases=("x", "y"), max_len=3))
        joint = translate_object(t, ps_tensor(a, b))
        split = ps_tensor(translate_object(t, a), translate_object(t, b))
        assert joint.type == split.type
        assert np.max(
            np.abs(joint.meaning.array - split.meaning.array), initial=0.0
        ) <= 1e-12


# -- naturality ---------------------------------------------------------------------

def test_identity_translation_residual_is_exactly_zero(rng):
    model = LanguageModel("m", {"x": 3, "y": 2})
    ident = identity_translation(model)
    for _ in range(20):
        g = random_word(rng, bases=("x", "y"), max_len=4)
        r = random_reduction(rng, g)
        report = check_naturality(ident, r)
        assert report.max_residual == 0.0
        assert report.passed


def test_orthogonal_components_commute_with_reductions(rng):
    source = LanguageModel("src", {"x": 3, "y": 2})
    target = LanguageModel("tgt", {"u": 3, "v": 2})
    t = Translation(
        source,
        target,
        {"x": parse_type("u"), "y": parse_type("v")},
        {"x": random_orthogonal(rng, 3), "y": random_orthogonal(rng, 2)},
    )
    for _ in range(50):
        g = random_word(rng, bases=("x", "y"), max_len=4)
        r = random_reduction(rng, g)
        report = check_naturality(t, r, tolerance=1e-9)
        assert report.passed, report


def test_orthogonal_component_with_word_valued_map_commutes(rng):
    # odd adjoints reverse the image word, so the dual identification
    # must reorder the component's rows accordingly
    source = LanguageModel("src", {"b": 6, "s": 1})
    target = LanguageModel("tgt", {"p": 2, "q": 3, "s": 1})
    t = Translation(
        source,
        target,
        {"b": parse_type("p q"), "s": parse_type("s")},
        {"b": random_orthogonal(rng, 6), "s": np.eye(1)},
    )
    r = Reduction.from_cups(parse_type("b b^r s"), [(0, 1)])
    assert check_naturality(t, r, tolerance=1e-9).passed
    r_left = Reduction.from_cups(parse_type("b^l b s"), [(0, 1)])
    assert check_naturality(t, r_left, tolerance=1e-9).passed


def _naturality_translation(kind, rng):
    """(translation, source bases) for the naturality property test."""
    if kind == "collapse":
        t = collapse_number_translation()
        return t, ("n_s", "n_p", "s")
    if kind == "isometric":
        source = LanguageModel("src", {"x": 6, "y": 2})
        target = LanguageModel("tgt", {"n": 3, "c": 2, "s": 2})
        j = {"x": parse_type("n c"), "y": parse_type("s")}
        return Translation(
            source, target, j, {"x": random_orthogonal(rng, 6), "y": random_orthogonal(rng, 2)}
        ), ("x", "y")
    if kind == "erasing":
        # x is erased and y maps to a reversed multi-simple word; y's
        # columns have unit length but are not orthogonal, so the residual
        # of its cups comes from the off-diagonal Gram entries
        source = LanguageModel("src", {"x": 3, "y": 2})
        target = LanguageModel("tgt", {"u": 2, "v": 2})
        j = {"x": PregroupType(), "y": parse_type("v u u")}
        y = rng.standard_normal((8, 2))
        alpha = {"x": rng.standard_normal((1, 3)), "y": y / np.linalg.norm(y, axis=0)}
        return Translation(source, target, j, alpha), ("x", "y")
    source = LanguageModel("src", {"x": 3, "y": 2})
    target = LanguageModel("tgt", {"u": 3, "v": 2})
    alpha = {"x": random_orthogonal(rng, 3), "y": random_orthogonal(rng, 2)}
    if kind == "perturbed":
        alpha = {b: m + 0.01 * rng.standard_normal(m.shape) for b, m in alpha.items()}
    j = {"x": parse_type("u"), "y": parse_type("v")}
    return Translation(source, target, j, alpha), ("x", "y")


@pytest.mark.parametrize(
    "kind", ["orthogonal", "isometric", "perturbed", "collapse", "erasing"]
)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_contracted_naturality_matches_basis_probe(kind, seed):
    rng = np.random.default_rng(seed)
    t, bases = _naturality_translation(kind, rng)
    g = random_word(rng, bases=bases, max_len=5, z_range=(-2, -1, 0, 1, 2))
    r = random_reduction(rng, g)
    got = check_naturality(t, r)
    expected = naturality_by_basis_probe(t, r)
    assert got.passed == expected.passed
    assert got.basis_size == expected.basis_size
    gap = abs(got.max_residual - expected.max_residual)
    assert gap <= 1e-9 * max(got.max_residual, expected.max_residual) or gap <= 1e-12


def test_unit_columns_at_an_angle_leave_the_off_diagonal_residual():
    # every column keeps its length, so the cup's diagonal terms vanish
    # and the residual is the cosine between the two columns
    model = LanguageModel("m", {"x": 2})
    alpha = np.array([[1.0, 0.5], [0.0, np.sqrt(0.75)]])
    t = Translation(model, model, {"x": parse_type("x")}, {"x": alpha})
    r = Reduction.from_cups(parse_type("x x^r"), [(0, 1)])
    report = check_naturality(t, r)
    assert report.max_residual == pytest.approx(0.5, rel=1e-12)
    assert report.max_residual == pytest.approx(
        naturality_by_basis_probe(t, r).max_residual, rel=1e-12
    )
    assert not report.passed


def test_projection_component_breaks_naturality(collapse):
    g = parse_type("n_s n_s^r s n_p^l n_p")
    r = Reduction.from_cups(g, [(0, 1), (3, 4)])
    report = check_naturality(collapse, r)
    assert report.max_residual > 0.1
    assert not report.passed


def _rotating_model(rng, d):
    model = LanguageModel("m", {"n": d, "s": 1})
    j = {"n": parse_type("n"), "s": parse_type("s")}
    return Translation(model, model, j, {"n": random_orthogonal(rng, d), "s": np.eye(1)})


def _traced_peak(fn):
    """(result, seconds, tracemalloc peak bytes) of one call."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, elapsed, peak


def test_three_verb_phrase_translates_without_a_kronecker_matrix(rng):
    # the phrase has 8**6 entries; its Kronecker matrix would need 512 GiB
    t = _rotating_model(rng, 8)
    verbs = [random_obj(rng, t.source_model, parse_type("n^r s n^l")) for _ in range(3)]
    phrase = ps_tensor(ps_tensor(verbs[0], verbs[1]), verbs[2])
    whole, _, peak = _traced_peak(lambda: translate_object(t, phrase))
    images = [translate_object(t, v) for v in verbs]
    split = ps_tensor(ps_tensor(images[0], images[1]), images[2])
    assert whole.type == split.type
    assert np.max(np.abs(whole.meaning.array - split.meaning.array)) <= 1e-12
    assert peak < 64 * 2**20


def test_naturality_check_of_a_wide_transitive_sentence_is_cheap(rng):
    t = _rotating_model(rng, 32)
    r = Reduction.from_cups(parse_type("n n^r s n^l n"), [(0, 1), (3, 4)])
    report, elapsed, peak = _traced_peak(lambda: check_naturality(t, r))
    assert report.passed
    assert report.basis_size == 2**20
    assert elapsed < 1.0
    assert peak < 256 * 2**20


def test_naturality_check_of_a_d64_transitive_sentence_builds_no_basis(rng):
    model = LanguageModel("m", {"n": 64, "s": 2})
    j = {"n": parse_type("n"), "s": parse_type("s")}
    alpha = {"n": random_orthogonal(rng, 64), "s": random_orthogonal(rng, 2)}
    t = Translation(model, model, j, alpha)
    r = Reduction.from_cups(parse_type("n n^r s n^l n"), [(0, 1), (3, 4)])
    report, _, peak = _traced_peak(lambda: check_naturality(t, r))
    assert report.passed
    assert report.basis_size == 2**25
    assert peak < 2**20


def test_naturality_check_of_a_long_identity_reduction_is_exactly_zero():
    # 27 axes, each with an open basis index: the check must not be bound
    # by a limit on the number of axes
    model = LanguageModel("m", {"x": 1})
    word = parse_type(" ".join(["x"] * 27))
    report = check_naturality(identity_translation(model), Reduction.identity(word))
    assert report.max_residual == 0.0
    assert report.basis_size == 1


@pytest.mark.parametrize("tolerance", [float("nan"), -1.0])
def test_naturality_check_rejects_a_nan_or_negative_tolerance(collapse, tolerance):
    r = Reduction.identity(parse_type("n_s"))
    with pytest.raises(ValueError):
        check_naturality(collapse, r, tolerance)


@pytest.mark.parametrize("tolerance", [True, False, "1", None])
def test_naturality_tolerance_must_be_a_real_number(collapse, tolerance):
    # True would pass a residual of 1 as a tolerance of 1
    r = Reduction(parse_type("n_s n_s^r s"), [(0, 1)])
    with pytest.raises(ValueError) as caught:
        check_naturality(collapse, r, tolerance)
    assert str(caught.value) == f"tolerance must be a real number, got {tolerance!r}"


@pytest.mark.parametrize("tolerance", [np.float64(1e-9), np.float32(1e-9), 0])
def test_naturality_takes_a_numpy_or_integer_tolerance(collapse, tolerance):
    r = Reduction(parse_type("n_s n_s^r s"), [(0, 1)])
    report = check_naturality(collapse, r, tolerance)
    assert (report.passed, report.tolerance) == (False, tolerance)


# -- nearest orthogonal ----------------------------------------------------------------

def test_identity_is_its_own_projection():
    assert np.allclose(nearest_unitary(np.eye(3)), np.eye(3), atol=1e-12)


def test_positive_diagonal_projects_to_identity():
    assert np.allclose(nearest_unitary(np.diag([2.0, 0.5])), np.eye(2), atol=1e-12)


def test_scaled_rotation_projects_to_rotation():
    theta = 0.7
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    assert np.allclose(nearest_unitary(3.0 * rot), rot, atol=1e-12)


def test_huge_well_conditioned_matrix_projects():
    # the rank cutoff s[0] * n * eps must not overflow on the way
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(nearest_unitary(1e308 * hadamard), hadamard / np.sqrt(2), atol=1e-12)


def test_projection_output_is_orthogonal(rng):
    for _ in range(50):
        a = rng.standard_normal((4, 4))
        q = nearest_unitary(a)
        assert np.linalg.norm(q.T @ q - np.eye(4)) <= 1e-8


def test_projection_beats_random_orthogonal_candidates(rng):
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        q = nearest_unitary(a)
        best = np.linalg.norm(a - q)
        for _ in range(50):
            p = random_orthogonal(rng, 4)
            assert best <= np.linalg.norm(a - p) + 1e-9


def test_singular_input_rejected():
    with pytest.raises(RankDeficientError):
        nearest_unitary(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_non_square_input_rejected():
    with pytest.raises(ValueError):
        nearest_unitary(np.ones((2, 3)))


# -- fitting ------------------------------------------------------------------------

def test_fit_on_a_full_basis_interpolates():
    pairs = [([1.0, 0.0], [2.0, -1.0, 0.5]), ([0.0, 1.0], [0.0, 3.0, 1.0])]
    matrix = fit_alpha(pairs)
    assert np.allclose(matrix, np.array([[2, 0], [-1, 3], [0.5, 1]]).astype(float))


def test_fit_recovers_known_matrix(rng):
    truth = rng.standard_normal((3, 4))
    xs = rng.standard_normal((20, 4))
    pairs = [(x, truth @ x) for x in xs]
    assert np.max(np.abs(fit_alpha(pairs) - truth)) <= 1e-8


def test_unitary_fit_beats_raw_fit_near_a_rotation(rng):
    truth = random_orthogonal(rng, 4)
    xs = rng.standard_normal((60, 4))
    pairs = [(x, truth @ x + 0.01 * rng.standard_normal(4)) for x in xs]
    raw = fit_alpha(pairs)
    projected = fit_alpha(pairs, unitary=True)
    assert np.linalg.norm(projected.T @ projected - np.eye(4)) <= 1e-8
    assert np.linalg.norm(projected - truth) < np.linalg.norm(raw - truth)


def test_underdetermined_fit_warns_and_returns_min_norm():
    with pytest.warns(UserWarning):
        matrix = fit_alpha([([1.0, 0.0], [3.0])])
    assert np.allclose(matrix, [[3.0, 0.0]])


def test_unitary_flag_requires_square():
    # the square rule is nearest_unitary's own
    pairs = [([1.0, 0.0], [1.0]), ([0.0, 1.0], [2.0])]
    with pytest.raises(ValueError) as caught:
        fit_alpha(pairs, unitary=True)
    assert str(caught.value) == "expected a non-empty square matrix, got shape (1, 2)"


def test_fit_needs_pairs():
    with pytest.raises(ValueError) as caught:
        fit_alpha([])
    assert str(caught.value) == "at least one pair is required"


@pytest.mark.parametrize(
    "pairs,problem",
    [
        ([([1, 0], [1, 0]), ([1, 0, 0], [0, 1])],
         "pair 2's source has length 3, but pair 1's has length 2"),
        ([([], [])], "pair 1 has an empty source"),
    ],
    ids=["ragged", "empty"],
)
def test_fit_checks_its_vectors(pairs, problem):
    with pytest.raises(DiscotransError) as caught:
        fit_alpha(pairs)
    assert str(caught.value) == problem


# -- solving grammar maps from constraints -------------------------------------------------

def test_solver_handles_consistent_constraints():
    images = solve_generator_map(
        [
            (parse_type("a"), parse_type("a2")),
            (parse_type("a n"), parse_type("a2 n2")),
        ]
    )
    assert str(images["a"]) == "a2"
    assert str(images["n"]) == "n2"


def test_solver_accepts_a_constraint_that_known_images_already_meet():
    images = solve_generator_map(
        [(parse_type("n"), parse_type("n2")), (parse_type("n n"), parse_type("n2 n2"))]
    )
    assert images == {"n": parse_type("n2")}


def test_solver_uses_later_constraints_to_unblock():
    images = solve_generator_map(
        [
            (parse_type("a n"), parse_type("a2 n2")),
            (parse_type("n"), parse_type("n2")),
        ]
    )
    assert str(images["a"]) == "a2"


def test_adjective_order_swap_is_not_functorial():
    # adjective-noun order on one side, noun-adjective on the other
    with pytest.raises(NonFunctorialTranslationError):
        solve_generator_map(
            [
                (parse_type("a"), parse_type("a2")),
                (parse_type("a n"), parse_type("n2 a2")),
            ]
        )


def test_solver_rejects_an_image_with_words_left_over():
    # 'n' is fixed to 'n2', so 'n' cannot also send to 'n2 n2'
    with pytest.raises(NonFunctorialTranslationError) as caught:
        solve_generator_map(
            [(parse_type("n"), parse_type("n2")), (parse_type("n"), parse_type("n2 n2"))]
        )
    assert str(caught.value) == "images of 'n' leave 'n2' of 'n2 n2' unaccounted for"


def test_solver_reports_underdetermined_generators():
    with pytest.raises(ValueError):
        solve_generator_map([(parse_type("a n"), parse_type("a2 n2 s2"))])
