import warnings

import numpy as np
import pytest

from discotrans.errors import NonFiniteError, TypeMismatchError
from discotrans.grammar import (
    UNIT,
    PregroupType,
    Reduction,
    compose_reductions,
    parse_type,
    tensor_reductions,
)
from discotrans.product_space import (
    PSMorphism,
    PSObject,
    frobenius_distance,
    ps_compose,
    ps_morphism,
    ps_tensor,
    ps_tensor_morphism,
)
from discotrans.semantics import (
    LanguageModel,
    Tensor,
    apply_reduction,
    make_tensor,
)
from discotrans.translation import Translation, identity_translation, translate_morphism
from conftest import random_model, random_obj, random_word
from oracles import random_reduction


def _obj(model, type_text, data):
    return PSObject(make_tensor(model, parse_type(type_text), data))


def test_survivors_target_and_type_are_derived():
    # a reduction is its source and cups, an object is its meaning: the
    # rest is derived, so no value can restate it inconsistently
    g = parse_type("n n^r s n^l n")
    r = Reduction(g, [(0, 1), (3, 4)])
    assert (r.survivors, str(r.target)) == ((2,), "s")
    assert r == Reduction.from_cups(g, [(3, 4), (0, 1)])
    identity = Reduction.identity(g)
    assert (identity.survivors, identity.target) == ((0, 1, 2, 3, 4), g)
    first = Reduction.from_cups(g, [(0, 1)])
    assert (first.survivors, str(first.target)) == ((2, 3, 4), "s n^l n")
    composite = compose_reductions(Reduction(first.target, [(1, 2)]), first)
    assert (composite.survivors, composite.target) == (r.survivors, r.target)
    product = tensor_reductions(first, Reduction(parse_type("n n^r"), [(0, 1)]))
    assert (product.survivors, str(product.target)) == ((2, 3, 4), "s n^l n")
    t = make_tensor(LanguageModel("m", {"n": 2}), parse_type("n"), [1, 0])
    assert PSObject(t).type is t.type


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        PSMorphism(Reduction.identity(PregroupType()), -0.5)


def test_nan_distance_rejected():
    # NaN < 0 is false, so a NaN label passed the old check
    with pytest.raises(ValueError):
        PSMorphism(Reduction.identity(PregroupType()), float("nan"))


def test_an_overflowing_label_raises_without_a_warning():
    # 1e308 - (-1e308) overflows float64: the label was inf, after numpy's
    # overflow RuntimeWarning, where build_dictionary raises for the same pair
    model = LanguageModel("m", {"n": 2})
    big, small = _obj(model, "n", [1e308, 1e308]), _obj(model, "n", [-1e308, -1e308])
    one = _obj(model, "n", [1, 0])  # a product with it does not overflow, only the label
    identity = Reduction.identity(big.type)
    arrow = PSMorphism(identity, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError) as caught:
            ps_morphism(model, big, identity, small)
        assert str(caught.value) == (
            "the label of the arrow from 'n' to 'n' by id is inf: the arithmetic overflows float64"
        )
        with pytest.raises(NonFiniteError):
            ps_compose(arrow, arrow, big, big, small)
        with pytest.raises(NonFiniteError):
            ps_tensor_morphism(arrow, arrow, big, one, small, one)
        with pytest.raises(NonFiniteError):
            translate_morphism(identity_translation(model), arrow, big, small)
        # overflow while making the endpoints themselves: the product big ⊗ big,
        # and the image of big under a huge alpha
        with pytest.raises(NonFiniteError):
            ps_tensor_morphism(arrow, arrow, big, big, big, big)
        huge = Translation(model, model, {"n": big.type}, {"n": 1e300 * np.eye(2)})
        with pytest.raises(NonFiniteError):
            translate_morphism(huge, ps_morphism(model, big, identity, big), big, big)


def test_identity_arrow_has_zero_distance():
    model = LanguageModel("m", {"n": 3})
    obj = _obj(model, "n", [1, 2, 3])
    m = ps_morphism(model, obj, Reduction.identity(obj.type), obj)
    assert m.distance == 0.0


def test_three_four_five_distance():
    model = LanguageModel("m", {"n": 2})
    src = _obj(model, "n", [3, 4])
    tgt = _obj(model, "n", [0, 0])
    m = ps_morphism(model, src, Reduction.identity(src.type), tgt)
    assert m.distance == pytest.approx(5.0)


def test_frobenius_distance_refuses_arrays_of_different_sizes():
    # numpy's broadcast ValueError escaped
    with pytest.raises(TypeMismatchError) as caught:
        frobenius_distance(np.ones(3), np.ones(4))
    assert str(caught.value) == "arrays of 3 and 4 entries have no distance"


def test_exact_sentence_image_has_zero_distance(wardrobe):
    from discotrans.lexicon import Phrase, lex_phrase

    model = wardrobe.model
    phrase = lex_phrase(wardrobe, Phrase(("Rosie", "wears", "boots"), (0, 1, 0)))
    r = Reduction.from_cups(phrase.type, [(0, 1), (3, 4)])
    target = _obj(model, "s", [0.0])
    assert ps_morphism(model, phrase, r, target).distance == pytest.approx(0.0)


def test_morphism_endpoint_types_checked():
    model = LanguageModel("m", {"n": 2})
    obj = _obj(model, "n", [1, 0])
    with pytest.raises(TypeMismatchError):
        ps_morphism(model, obj, Reduction.identity(parse_type("n n")), obj)


@pytest.mark.parametrize("caller", [
    "ps_morphism", "ps_compose", "ps_tensor_morphism", "translate_morphism",
])
def test_endpoint_mismatch_has_one_wording(caller):
    model = LanguageModel("m", {"n": 2})
    a, aa = _obj(model, "n", [1, 0]), _obj(model, "n n", [1, 0, 0, 1])
    m = PSMorphism(Reduction.identity(parse_type("n")), 0.0)
    with pytest.raises(TypeMismatchError) as caught:
        if caller == "ps_morphism":
            ps_morphism(model, aa, m.reduction, a)
        elif caller == "ps_compose":
            ps_compose(m, m, a, aa, a)
        elif caller == "ps_tensor_morphism":
            ps_tensor_morphism(m, m, a, a, a, aa)
        else:
            translate_morphism(identity_translation(model), m, aa, a)
    ends = ("'n n' -> 'n'", "'n' -> 'n n'")[caller in ("ps_compose", "ps_tensor_morphism")]
    assert str(caught.value) == f"reduction 'n' -> 'n' does not fit endpoints {ends}"


def test_morphism_checks_the_meaning_shape_against_the_model():
    # the endpoint types fit, but the meaning belongs to another model
    wide = _obj(LanguageModel("wide", {"n": 3}), "n", [1, 0, 0])
    with pytest.raises(TypeMismatchError, match="does not match model 'm'"):
        ps_morphism(LanguageModel("m", {"n": 2}), wide, Reduction.identity(wide.type), wide)


# -- composition -------------------------------------------------------------------

def test_compose_zero_distances_stay_zero(rng):
    model = LanguageModel("m", {"x": 3})
    g = parse_type("x x^r x")
    a = random_obj(rng, model, g)
    r1 = Reduction.from_cups(g, [(0, 1)])
    b = PSObject(apply_reduction(model, r1, a.meaning))
    r2 = Reduction.identity(r1.target)
    c = PSObject(apply_reduction(model, r2, b.meaning))
    m1 = ps_morphism(model, a, r1, b)
    m2 = ps_morphism(model, b, r2, c)
    assert ps_compose(m2, m1, a, b, c).distance == pytest.approx(0.0, abs=1e-12)


def test_compose_unit_law(rng):
    for _ in range(30):
        model = random_model(rng)
        g = random_word(rng, max_len=4)
        a = random_obj(rng, model, g)
        r = random_reduction(rng, g)
        b = random_obj(rng, model, r.target)
        m = ps_morphism(model, a, r, b)
        ident = ps_morphism(model, b, Reduction.identity(b.type), b)
        composite = ps_compose(ident, m, a, b, b)
        assert composite.reduction == m.reduction
        assert composite.distance == pytest.approx(m.distance, abs=1e-12)


def test_composite_distance_satisfies_triangle_bound(rng):
    for _ in range(100):
        model = random_model(rng, max_dim=3)
        g = random_word(rng, max_len=5)
        a = random_obj(rng, model, g)
        r1 = random_reduction(rng, g)
        b = random_obj(rng, model, r1.target)
        r2 = random_reduction(rng, r1.target)
        c = random_obj(rng, model, r2.target)
        m1 = ps_morphism(model, a, r1, b)
        m2 = ps_morphism(model, b, r2, c)
        composite = ps_compose(m2, m1, a, b, c)
        pushed_first = frobenius_distance(
            apply_reduction(model, r2, apply_reduction(model, r1, a.meaning)).array,
            apply_reduction(model, r2, b.meaning).array,
        )
        assert composite.distance <= pushed_first + m2.distance + 1e-9


# -- monoidal structure ---------------------------------------------------------------

def test_tensor_with_unit_object():
    model = LanguageModel("m", {"n": 2})
    a = _obj(model, "n", [1, 2])
    unit = PSObject(Tensor(UNIT, 1.0))
    assert ps_tensor(a, unit).meaning == a.meaning
    assert ps_tensor(unit, a).meaning == a.meaning


def test_tensor_concatenates_types(wardrobe):
    rosie = wardrobe.entries["Rosie"][0]
    wears = wardrobe.entries["wears"][1]
    boots = wardrobe.entries["boots"][0]
    out = ps_tensor(ps_tensor(rosie, wears), boots)
    assert str(out.type) == "n_s n_s^r s n_p^l n_p"
    assert out.meaning.shape == (4, 4, 1, 4, 4)


def test_tensor_associativity_exact_on_integer_data():
    model = LanguageModel("m", {"n": 2})
    a = _obj(model, "n", [1, -2])
    b = _obj(model, "n", [3, 5])
    c = _obj(model, "n", [-7, 2])
    left = ps_tensor(ps_tensor(a, b), c)
    right = ps_tensor(a, ps_tensor(b, c))
    assert left.type == right.type
    assert np.array_equal(left.meaning.array, right.meaning.array)


def test_tensor_associativity_on_random_data(rng):
    for _ in range(50):
        model = random_model(rng)
        objs = [
            random_obj(rng, model, random_word(rng, max_len=2)) for _ in range(3)
        ]
        left = ps_tensor(ps_tensor(objs[0], objs[1]), objs[2])
        right = ps_tensor(objs[0], ps_tensor(objs[1], objs[2]))
        assert left.type == right.type
        assert np.max(np.abs(left.meaning.array - right.meaning.array), initial=0.0) <= 1e-12


def test_interchange_of_tensor_and_composition(rng):
    for _ in range(100):
        model = random_model(rng, max_dim=3)
        g1, g2 = random_word(rng, max_len=3), random_word(rng, max_len=3)
        a1, a2 = random_obj(rng, model, g1), random_obj(rng, model, g2)
        r1, r2 = random_reduction(rng, g1), random_reduction(rng, g2)
        b1, b2 = random_obj(rng, model, r1.target), random_obj(rng, model, r2.target)
        q1, q2 = random_reduction(rng, r1.target), random_reduction(rng, r2.target)
        c1, c2 = random_obj(rng, model, q1.target), random_obj(rng, model, q2.target)

        m1, m2 = ps_morphism(model, a1, r1, b1), ps_morphism(model, a2, r2, b2)
        n1, n2 = ps_morphism(model, b1, q1, c1), ps_morphism(model, b2, q2, c2)

        tensored_then_composed = ps_compose(
            ps_tensor_morphism(n1, n2, b1, b2, c1, c2),
            ps_tensor_morphism(m1, m2, a1, a2, b1, b2),
            ps_tensor(a1, a2),
            ps_tensor(b1, b2),
            ps_tensor(c1, c2),
        )
        composed_then_tensored = ps_tensor_morphism(
            ps_compose(n1, m1, a1, b1, c1),
            ps_compose(n2, m2, a2, b2, c2),
            a1,
            a2,
            c1,
            c2,
        )
        assert tensored_then_composed.reduction == composed_then_tensored.reduction
        assert tensored_then_composed.distance == pytest.approx(
            composed_then_tensored.distance, abs=1e-9
        )


def test_distance_zero_iff_exact_image(rng):
    for _ in range(50):
        model = random_model(rng, max_dim=3)
        g = random_word(rng, max_len=4)
        a = random_obj(rng, model, g)
        r = random_reduction(rng, g)
        exact = PSObject(apply_reduction(model, r, a.meaning))
        assert ps_morphism(model, a, r, exact).distance <= 1e-12
        bumped = PSObject(
            make_tensor(model, r.target, exact.meaning.array + 0.5)
        )
        if exact.meaning.array.size:
            assert ps_morphism(model, a, r, bumped).distance > 1e-12


def test_distance_is_symmetric_in_endpoints(rng):
    for _ in range(30):
        model = random_model(rng)
        g = random_word(rng, max_len=3)
        x = random_obj(rng, model, g)
        y = random_obj(rng, model, g)
        ident = Reduction.identity(g)
        assert ps_morphism(model, x, ident, y).distance == pytest.approx(
            ps_morphism(model, y, ident, x).distance, abs=1e-12
        )
