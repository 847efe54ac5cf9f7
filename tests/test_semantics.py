import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discotrans import io
from discotrans.errors import NonFiniteError, TypeMismatchError, UnknownBasicTypeError
from discotrans.grammar import (
    UNIT,
    PregroupType,
    Reduction,
    SimpleType,
    compose_reductions,
    parse_type,
    tensor_reductions,
)
from discotrans.semantics import (
    LanguageModel,
    Tensor,
    _contract,
    _join,
    apply_reduction,
    make_tensor,
    normalize_sentence,
    space_shape,
    tensor_product,
)
from discotrans.product_space import PSObject
from discotrans.translation import identity_translation, translate_object
from conftest import random_model, random_word
from oracles import random_orthogonal, random_reduction, reduction_matrix


# -- models and shapes ---------------------------------------------------------

def test_model_rejects_zero_dimension():
    with pytest.raises(ValueError):
        LanguageModel("bad", {"n": 0})


@pytest.mark.parametrize("dim", [True, 2.5, "3", 0])
def test_model_dimensions_are_positive_integers(dim):
    # a bool is an int, so True must not pass as dimension 1
    with pytest.raises(ValueError) as caught:
        LanguageModel("bad", {"n": dim})
    assert str(caught.value) == f"dimensions must be positive integers, but 'n' has {dim!r}"


def test_model_accepts_numpy_integers():
    assert LanguageModel("m", {"n": np.int64(3)}).dim("n") == 3


def test_model_dimensions_are_python_ints():
    # so every writer that embeds the model makes a document json can print
    model = LanguageModel("m", {"n": np.int64(3)})
    assert type(model.dim("n")) is int
    doc = json.dumps(io.model_to_doc(model))
    assert doc == '{"format": 1, "name": "m", "basic_types": {"n": 3}}'


def test_model_keeps_its_own_dimensions():
    dims = {"n": 3}
    model = LanguageModel("m", dims)
    dims["n"] = 0
    dims["s"] = 1
    assert model.dims == {"n": 3}


def test_model_dimensions_are_read_only():
    model = LanguageModel("m", {"n": 2})
    with pytest.raises(TypeError):
        model.dims["n"] = 0
    assert model.dim("n") == 2


def test_space_shape_of_verb_type():
    model = LanguageModel("m", {"n": 4, "s": 1})
    assert space_shape(model, parse_type("n^r s n^l")) == [4, 1, 4]


def test_space_shape_of_unit_is_scalar():
    model = LanguageModel("m", {"n": 3})
    assert space_shape(model, PregroupType()) == []


def test_space_shape_is_monoidal():
    model = LanguageModel("m", {"n": 3})
    assert space_shape(model, parse_type("n n")) == [3, 3]


def test_space_shape_unknown_basic():
    model = LanguageModel("m", {"n": 3})
    with pytest.raises(UnknownBasicTypeError):
        space_shape(model, parse_type("q"))


def test_adjoints_keep_base_dimension():
    model = LanguageModel("m", {"n": 3})
    assert space_shape(model, parse_type("n^l n n^r n^ll")) == [3, 3, 3, 3]


# -- tensors --------------------------------------------------------------------

def test_tensor_rank_must_match_type():
    with pytest.raises(TypeMismatchError):
        Tensor(parse_type("n n"), np.zeros(3))


def test_tensor_arrays_are_frozen():
    t = make_tensor(LanguageModel("m", {"n": 2}), parse_type("n"), [1, 2])
    with pytest.raises(ValueError):
        t.array[0] = 5


@pytest.mark.parametrize("build", ["Tensor", "make_tensor"])
@pytest.mark.parametrize("frozen", [False, True], ids=["writeable", "read-only-view"])
def test_public_constructors_copy_the_callers_array(build, frozen):
    model = LanguageModel("m", {"n": 2})
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    given = a.view() if frozen else a
    if frozen:
        given.flags.writeable = False
    if build == "Tensor":
        t = Tensor(parse_type("n n"), given)
    else:
        t = make_tensor(model, parse_type("n n"), given)
    assert not np.shares_memory(t.array, a)
    a[0, 0] = 9.0
    assert t.array.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_library_results_are_read_only():
    model = LanguageModel("m", {"n": 2, "s": 1})
    u = make_tensor(model, parse_type("n"), [1.0, 2.0])
    v = make_tensor(model, parse_type("n^r s"), [3.0, 4.0])
    uv = tensor_product(u, v)
    r = Reduction.from_cups(uv.type, [(0, 1)])
    results = [
        uv,
        tensor_product(Tensor(UNIT, 2.0), Tensor(UNIT, 3.0)),
        apply_reduction(model, r, uv),
        apply_reduction(model, Reduction.identity(uv.type), uv),
        normalize_sentence(apply_reduction(model, r, uv)),
        Tensor(UNIT, 5.0),
        translate_object(identity_translation(model), PSObject(uv)).meaning,
        translate_object(identity_translation(model), PSObject(Tensor(UNIT, 2.0))).meaning,
    ]
    for t in results:
        assert not t.array.flags.writeable
        assert t.array.ndim == len(t.type.simples)
        with pytest.raises(ValueError):
            t.array[...] = 0.0
    assert results[2].array.tolist() == [11.0]


def test_tensor_product_unit():
    model = LanguageModel("m", {"n": 4})
    u = make_tensor(model, parse_type("n"), [2, 5, 3, 1])
    assert tensor_product(u, Tensor(UNIT, 1.0)) == u
    assert tensor_product(Tensor(UNIT, 1.0), u) == u


def test_tensor_product_of_basis_vectors():
    model = LanguageModel("m", {"n": 2})
    e1 = make_tensor(model, parse_type("n"), [1, 0])
    e2 = make_tensor(model, parse_type("n"), [0, 1])
    out = tensor_product(e1, e2)
    assert out.array.tolist() == [[0, 1], [0, 0]]


def test_tensor_product_norm_multiplies(rng):
    for _ in range(25):
        model = random_model(rng)
        g, h = random_word(rng, max_len=3), random_word(rng, max_len=3)
        u = make_tensor(model, g, rng.standard_normal(_shape_size(model, g)))
        v = make_tensor(model, h, rng.standard_normal(_shape_size(model, h)))
        left = np.linalg.norm(tensor_product(u, v).flat)
        right = np.linalg.norm(u.flat) * np.linalg.norm(v.flat)
        assert left == pytest.approx(right, abs=1e-9)


def test_tensor_product_is_the_outer_product_of_any_ranks(rng):
    model = LanguageModel("m", {"x": 2, "y": 3})
    words = [parse_type(w) for w in ("", "x", "x y", "y x^l y")]
    for g in words:
        for h in words:
            u = make_tensor(model, g, rng.standard_normal(_shape_size(model, g)))
            v = make_tensor(model, h, rng.standard_normal(_shape_size(model, h)))
            out = tensor_product(u, v)
            expected = np.multiply.outer(u.array, v.array)
            assert out.type == g @ h
            assert out.array.flags.c_contiguous
            assert out.array.tobytes() == np.ascontiguousarray(expected).tobytes()
            assert out.shape == np.shape(expected)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_join_writes_the_batch_leading_outer_product(data):
    # operands of rank 0-3 with dimensions 1-3, and every batch count either
    # may lead with, up to two
    def operand(draw):
        shape = draw(st.lists(st.integers(1, 3), max_size=3))
        return np.arange(1, 1 + int(np.prod(shape)), dtype=float).reshape(shape) * draw(
            st.floats(-4, 4, allow_nan=False)
        )

    out, a = operand(data.draw), operand(data.draw)
    batch = data.draw(st.integers(0, min(2, out.ndim)))
    extra = data.draw(st.integers(0, min(2, a.ndim)))
    got = _join(out, a, batch, extra)
    # np.array keeps a 0-d product 0-d, where np.ascontiguousarray would not
    expected = np.array(np.moveaxis(
        np.multiply.outer(out, a),
        range(out.ndim, out.ndim + extra), range(batch, batch + extra),
    ), order="C")
    assert got.flags.c_contiguous
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


def _shape_size(model, g):
    return int(np.prod(space_shape(model, g), dtype=int))


# -- contraction -----------------------------------------------------------------

def test_identity_reduction_keeps_tensor(rng):
    model = random_model(rng)
    g = random_word(rng, max_len=4)
    t = make_tensor(model, g, rng.standard_normal(_shape_size(model, g)))
    assert apply_reduction(model, Reduction.identity(g), t) == t


def test_contraction_requires_matching_type():
    model = LanguageModel("m", {"n": 2})
    r = Reduction.from_cups(parse_type("n n^r"), [(0, 1)])
    t = make_tensor(model, parse_type("n"), [1, 0])
    with pytest.raises(TypeMismatchError):
        apply_reduction(model, r, t)


def test_cup_is_the_dot_product():
    model = LanguageModel("m", {"n": 2})
    r = Reduction.from_cups(parse_type("n n^r"), [(0, 1)])
    t = make_tensor(model, parse_type("n n^r"), [[1.0, 2.0], [3.0, 4.0]])
    out = apply_reduction(model, r, t)
    assert out.type == PregroupType()
    assert float(out.array) == pytest.approx(5.0)  # trace


def test_sentence_example_values():
    model = LanguageModel("m", {"n": 4, "s": 1})
    rosie = make_tensor(model, parse_type("n"), [2, 5, 3, 1])
    wears = make_tensor(
        model,
        parse_type("n^r s n^l"),
        np.array(
            [[1, 1, 1, 0], [-1, -1, -1, 0], [1, 1, 1, 0], [-2, -2, -1, 1]]
        ).reshape(4, 1, 4),
    )
    sentence = parse_type("n n^r s n^l n")
    r = Reduction.from_cups(sentence, [(0, 1), (3, 4)])
    boots = make_tensor(model, parse_type("n"), [1, 0, 0, 2])
    a_boot = make_tensor(model, parse_type("n"), [1, 0, 0, 1])
    both = tensor_product(tensor_product(rosie, wears), boots)
    assert float(apply_reduction(model, r, both).flat[0]) == pytest.approx(0.0, abs=1e-9)
    alt = tensor_product(tensor_product(rosie, wears), a_boot)
    assert float(apply_reduction(model, r, alt).flat[0]) == pytest.approx(-1.0, abs=1e-9)


# -- normalization ----------------------------------------------------------------

@pytest.mark.parametrize("value,expected", [(-1.0, 1.0), (0.0, 0.0), (7.3, 1.0)])
def test_normalize_sentence_values(value, expected):
    model = LanguageModel("m", {"s": 1})
    t = make_tensor(model, parse_type("s"), [value])
    assert float(normalize_sentence(t).flat[0]) == expected


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_normalizing_a_non_finite_value_is_a_numeric_error(value):
    model = LanguageModel("m", {"s": 1})
    with pytest.raises(NonFiniteError, match="cannot be normalised"):
        normalize_sentence(make_tensor(model, parse_type("s"), [value]))


def test_normalize_rejects_non_scalars():
    model = LanguageModel("m", {"n": 2})
    with pytest.raises(TypeMismatchError):
        normalize_sentence(make_tensor(model, parse_type("n"), [1, 2]))


def test_make_tensor_counts_its_entries():
    model = LanguageModel("m", {"n": 2, "s": 1})
    with pytest.raises(TypeMismatchError, match=r"type 'n s' in model 'm' needs 2 entries, got 3"):
        make_tensor(model, parse_type("n s"), [1, 2, 3])


def test_contraction_operands_share_one_pass_through_count():
    r = Reduction.from_cups(parse_type("n n^r"), [(0, 1)])
    with pytest.raises(TypeMismatchError):
        _contract(r, np.ones((2, 3)), np.ones(2))


@pytest.mark.parametrize(
    "arrays", [[np.ones((2, 3))], [np.ones((4, 2, 3))], [np.ones(2), np.ones(3)]],
    ids=["phrase", "stack", "words"],
)
def test_a_cup_joins_axes_of_one_size(arrays):
    # a diagonal view of unequal axes would sum over the shorter one alone
    r = Reduction.from_cups(parse_type("n n^r"), [(0, 1)])
    with pytest.raises(TypeMismatchError, match=r"shapes .* cannot carry type 'n n\^r'"):
        _contract(r, *arrays)


def _random_planar_reduction(rng, length: int) -> Reduction:
    """A reduction of a random word of ``length`` simple types, drawn as a
    random bracketing: cups nest or sit side by side, and a simple type
    survives only outside every cup."""
    simples, cups, opened = [], [], []
    for k in range(length):
        moves = ["close" if opened else "survive"]
        if length - k >= len(opened) + 2:
            moves.append("open")
        move = moves[rng.integers(len(moves))]
        if move == "close":
            i = opened.pop()
            cups.append((i, k))
            simples.append(SimpleType(simples[i].base, simples[i].z + 1))
        else:
            if move == "open":
                opened.append(k)
            simples.append(SimpleType(("x", "y")[rng.integers(2)], int(rng.integers(-1, 1))))
    return Reduction.from_cups(PregroupType(tuple(simples)), cups)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 6), rows=st.integers(2, 8))
def test_a_phrase_contracts_to_the_same_bits_alone_as_in_a_stack(seed, length, rows):
    # the sums run in an order fixed by the reduction: neither the batch
    # size nor the memory layout may move a bit
    rng = np.random.default_rng(seed)
    r = _random_planar_reduction(rng, length)
    model = random_model(rng, max_dim=4)
    stack = rng.standard_normal((rows, *space_shape(model, r.source)))
    batch = _contract(r, stack)
    assert batch.shape == (rows, *space_shape(model, r.target))
    assert np.array_equal(_contract(r, stack[:1])[0], batch[0])
    assert np.array_equal(_contract(r, stack[0]), batch[0])
    assert np.array_equal(_contract(r, np.asfortranarray(stack)), batch)


def test_word_stacks_contract_as_their_phrases_do(rng):
    # each word stack leads with its sense axis; the result's batch axes
    # come operand by operand, before the survivor
    r = Reduction.from_cups(parse_type("n n^r s n^l n"), [(0, 1), (3, 4)])
    subjects = rng.standard_normal((3, 2))
    verbs = rng.standard_normal((4, 2, 3, 2))
    objects = rng.standard_normal((2, 2))
    got = _contract(r, subjects, verbs, objects)
    assert got.shape == (3, 4, 2, 3)
    for a, b, c in np.ndindex(3, 4, 2):
        phrase = np.multiply.outer(np.multiply.outer(subjects[a], verbs[b]), objects[c])
        np.testing.assert_allclose(got[a, b, c], _contract(r, phrase), rtol=1e-12, atol=1e-14)


def test_word_stacks_join_batch_leading_as_their_phrases_do(rng):
    # the identity contracts nothing: the join is the result, written
    # C-contiguous with the sense axes in front
    g = parse_type("n n^r s n^l n")
    subjects = rng.standard_normal((3, 2))
    verbs = rng.standard_normal((4, 2, 3, 2))
    objects = rng.standard_normal((2, 2))
    got = _contract(Reduction.identity(g), subjects, verbs, objects)
    assert got.shape == (3, 4, 2, 2, 2, 3, 2, 2)
    assert got.flags.c_contiguous
    for a, b, c in np.ndindex(3, 4, 2):
        phrase = np.multiply.outer(np.multiply.outer(subjects[a], verbs[b]), objects[c])
        assert np.array_equal(got[a, b, c], phrase)


@pytest.mark.parametrize("n", [30, 100])
def test_word_network_of_n_adjectives_builds_no_phrase_tensor(rng, n):
    # n adjectives x x^l and a noun x: 2n + 1 simple types, and a phrase
    # tensor of 2**(2n + 1) entries
    adjectives = [random_orthogonal(rng, 2) for _ in range(n)]
    noun = rng.standard_normal(2)
    g = parse_type(" ".join(["x x^l"] * n + ["x"]))
    r = Reduction.from_cups(g, [(2 * k + 1, 2 * k + 2) for k in range(n)])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got = _contract(r, *adjectives, noun)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    folded = noun
    for a in reversed(adjectives):
        folded = a @ folded
    assert np.max(np.abs(got - folded)) <= 1e-12 * np.linalg.norm(noun)
    assert elapsed < 1.0
    assert peak < 2**20


# -- explicit matrices -------------------------------------------------------------

def test_identity_matrix_on_noun():
    model = LanguageModel("m", {"n": 3})
    g = parse_type("n")
    assert np.array_equal(
        reduction_matrix(model, Reduction.identity(g)), np.eye(3)
    )


def test_cup_matrix_is_flattened_dot():
    model = LanguageModel("m", {"n": 2})
    r = Reduction.from_cups(parse_type("n n^r"), [(0, 1)])
    assert reduction_matrix(model, r).tolist() == [[1.0, 0.0, 0.0, 1.0]]


def test_matrix_agrees_with_contraction(rng):
    # dual-route check: explicit delta matrix vs contraction
    for _ in range(100):
        model = random_model(rng, max_dim=4)
        g = random_word(rng, max_len=5)
        r = random_reduction(rng, g)
        t = make_tensor(model, g, rng.standard_normal(_shape_size(model, g)))
        via_matrix = reduction_matrix(model, r) @ t.flat
        direct = apply_reduction(model, r, t).flat
        assert np.max(np.abs(via_matrix - direct), initial=0.0) <= 1e-9


# -- algebraic laws ----------------------------------------------------------------

def test_functoriality_of_contraction(rng):
    for _ in range(100):
        model = random_model(rng, max_dim=4)
        g = random_word(rng, max_len=5)
        r1 = random_reduction(rng, g)
        r2 = random_reduction(rng, r1.target)
        t = make_tensor(model, g, rng.standard_normal(_shape_size(model, g)))
        once = apply_reduction(model, compose_reductions(r2, r1), t)
        twice = apply_reduction(model, r2, apply_reduction(model, r1, t))
        assert np.max(np.abs(once.array - twice.array), initial=0.0) <= 1e-9


def test_monoidality_of_contraction(rng):
    for _ in range(100):
        model = random_model(rng, max_dim=4)
        g, h = random_word(rng, max_len=3), random_word(rng, max_len=3)
        r1, r2 = random_reduction(rng, g), random_reduction(rng, h)
        t = make_tensor(model, g, rng.standard_normal(_shape_size(model, g)))
        u = make_tensor(model, h, rng.standard_normal(_shape_size(model, h)))
        joint = apply_reduction(model, tensor_reductions(r1, r2), tensor_product(t, u))
        split = tensor_product(
            apply_reduction(model, r1, t), apply_reduction(model, r2, u)
        )
        assert np.max(np.abs(joint.array - split.array), initial=0.0) <= 1e-9


def test_contraction_is_bilinear(rng):
    model = LanguageModel("m", {"x": 3})
    g = parse_type("x x^r x")
    r = Reduction.from_cups(g, [(0, 1)])
    for _ in range(20):
        t1 = make_tensor(model, g, rng.standard_normal(27))
        t2 = make_tensor(model, g, rng.standard_normal(27))
        a, b = rng.standard_normal(2)
        combined = make_tensor(model, g, a * t1.array + b * t2.array)
        lhs = apply_reduction(model, r, combined).array
        rhs = (
            a * apply_reduction(model, r, t1).array
            + b * apply_reduction(model, r, t2).array
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-9
