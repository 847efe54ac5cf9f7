import json
import time
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discotrans import io
from discotrans.errors import BudgetExceededError, InvalidReductionError, TypeSyntaxError
from discotrans.errors import UnknownBasicTypeError
from discotrans.grammar import (
    UNIT,
    PregroupType,
    Reduction,
    SimpleType,
    compose_reductions,
    free_group_image,
    parse_type,
    reduce_search,
)
from oracles import all_reductions, random_reduction, reductions_by_elimination

simple_types = st.builds(
    SimpleType, st.sampled_from(["x", "y"]), st.integers(min_value=-2, max_value=2)
)
words = st.lists(simple_types, max_size=6).map(lambda s: PregroupType(tuple(s)))
short_words = st.lists(
    st.builds(SimpleType, st.just("a"), st.integers(-1, 1)), max_size=6
).map(lambda s: PregroupType(tuple(s)))


# -- parsing ------------------------------------------------------------------

def test_parse_transitive_verb_type():
    assert parse_type("n^r s n^l").simples == (
        SimpleType("n", 1),
        SimpleType("s", 0),
        SimpleType("n", -1),
    )


def test_parse_empty_is_unit():
    assert parse_type("") == PregroupType()


def test_parse_iterated_left_adjoint():
    # doubled suffix agrees with taking the left adjoint twice
    assert parse_type("n^ll").simples == (SimpleType("n").left.left,)
    assert parse_type("n^rr").simples == (SimpleType("n").right.right,)


@pytest.mark.parametrize("bad", ["n^", "n^lr", "n^x", "^l", "n^rl", "3n"])
def test_parse_rejects_malformed_tokens(bad):
    with pytest.raises(TypeSyntaxError):
        parse_type(bad)


def test_parse_checks_declared_basics():
    parse_type("n s", basics={"n", "s"})
    with pytest.raises(UnknownBasicTypeError):
        parse_type("n q", basics={"n", "s"})


@given(words)
def test_parse_round_trips_with_printer(g):
    assert parse_type(str(g)) == g


# -- adjoints -----------------------------------------------------------------

@given(simple_types)
def test_simple_adjoints_cancel(s):
    assert s.left.right == s
    assert s.right.left == s


@given(words, words)
def test_product_adjoint_reverses(g, h):
    assert (g @ h).left == h.left @ g.left
    assert (g @ h).right == h.right @ g.right


@given(words, words, words)
def test_tensor_types_monoid(g, h, k):
    unit = PregroupType()
    assert g @ unit == g
    assert unit @ g == g
    assert (g @ h) @ k == g @ (h @ k)


# -- reduction search ----------------------------------------------------------

def test_transitive_sentence_reduction():
    found = reduce_search(parse_type("n n^r s n^l n"), parse_type("s"))
    assert len(found) == 1
    assert found[0].sorted_cups == ((0, 1), (3, 4))
    assert found[0].survivors == (2,)


def test_identity_reduction_found():
    g = parse_type("n")
    found = reduce_search(g, g)
    assert found == [Reduction.identity(g)]


def test_single_inner_cup():
    found = reduce_search(parse_type("a a^l a"), parse_type("a"))
    assert [r.sorted_cups for r in found] == [((1, 2),)]


def test_no_reduction_gives_empty_list():
    assert reduce_search(parse_type("n n"), parse_type("s")) == []


def test_max_results_is_a_prefix():
    g = parse_type("a a^r a a^r")
    target = parse_type("a a^r")
    everything = reduce_search(g, target)
    assert [r.sorted_cups for r in everything] == [((0, 1),), ((2, 3),)]
    assert reduce_search(g, target, max_results=1) == everything[:1]
    assert reduce_search(g, target, max_results=np.int64(2)) == everything
    with pytest.raises(ValueError):
        reduce_search(g, target, max_results=0)


@pytest.mark.parametrize("count", [True, 1.5, 2.0, "2"])
def test_max_results_must_be_an_integer(count):
    # True was read as 1; the others failed raw, in islice or in the comparison
    with pytest.raises(ValueError) as caught:
        reduce_search(parse_type("n n^r s"), parse_type("s"), max_results=count)
    assert str(caught.value) == (
        f"the number of reductions to list must be an integer, got {count!r}"
    )


def test_results_in_leftmost_lexicographic_order():
    g = parse_type("a a^r a a^r a a^r")
    found = [r.sorted_cups for r in reduce_search(g, parse_type("a a^r"))]
    assert found == sorted(found)


@settings(max_examples=150, deadline=None)
@given(short_words, st.lists(st.builds(SimpleType, st.just("a"), st.integers(-1, 1)), max_size=2))
def test_search_matches_elimination_oracle(source, target_simples):
    target = PregroupType(tuple(target_simples))
    ours = {r.cups for r in reduce_search(source, target)}
    assert ours == reductions_by_elimination(source, target)


@settings(max_examples=100, deadline=None)
@given(words)
def test_self_search_contains_identity(g):
    assert Reduction.identity(g) in reduce_search(g, g)


@settings(max_examples=200, deadline=None)
@given(words)
def test_reductions_keep_the_free_group_image(g):
    # every target the elimination oracle reaches from g, all of which
    # reduce_search finds, has g's image
    for r in all_reductions(g):
        assert reduce_search(g, r.target)
        assert free_group_image(r.target) == free_group_image(g)


@settings(max_examples=100, deadline=None)
@given(short_words)
def test_no_returned_reduction_has_crossing_cups(source):
    for r in all_reductions(source):
        for found in reduce_search(r.source, r.target):
            for (i, j) in found.cups:
                for (k, l) in found.cups:
                    assert not (i < k < j < l)


def _stacked_word(k):
    return parse_type(" ".join(["x^l x"] * k + ["x^r x"] * k))


@pytest.mark.parametrize("k", range(1, 6))
def test_stacked_family_reduction_count(k):
    # (x^l x)^k (x^r x)^k reduces to the unit in half the central
    # binomial coefficient C(2k, k) ways; the elimination oracle agrees.
    found = reduce_search(_stacked_word(k), UNIT)
    assert len(found) == comb(2 * k, k) // 2
    if k <= 3:
        assert {r.cups for r in found} == reductions_by_elimination(_stacked_word(k), UNIT)


def test_a_type_too_long_to_search_is_a_budget_error():
    # the chart recurses about once per simple type: 2,001 of them pass
    # Python's recursion limit, which the search reports as its own
    word = parse_type("n n^r " * 1000 + "s")
    with pytest.raises(BudgetExceededError) as caught:
        reduce_search(word, parse_type("s"))
    assert str(caught.value) == "a type is too long to search for reductions"


def test_first_reduction_of_long_word_is_lazy():
    # 120 simple types with C(59, 30) reductions: only the first may be built
    word = _stacked_word(30)
    start = time.perf_counter()
    found = reduce_search(word, UNIT, max_results=1)
    elapsed = time.perf_counter() - start
    assert len(found) == 1 and found[0].target == UNIT
    assert elapsed < 1.0


# -- reduction validation --------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.data())
def test_from_cups_rejects_exactly_the_non_reductions(data):
    source = data.draw(short_words)
    n = len(source)
    valid = {r.cups for r in all_reductions(source)}
    # toggle a few pairs of a valid cup set: adjoint pairs (which may cross
    # or enclose), or any pairs (reversed, out of range at n, sharing an index)
    base = data.draw(st.sampled_from(sorted(valid, key=sorted)[-3:]))
    pairs = st.tuples(st.integers(0, n), st.integers(0, n))
    adjoint = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if source.simples[j] == source.simples[i].right
    ]
    if adjoint:
        pairs = st.one_of(st.sampled_from(adjoint), st.sampled_from(adjoint), pairs)
    cups = base ^ data.draw(st.frozensets(pairs, max_size=3))
    if cups in valid:
        assert Reduction.from_cups(source, cups).cups == cups
    else:
        with pytest.raises(InvalidReductionError):
            Reduction.from_cups(source, cups)


def test_crossing_cups_rejected():
    g = parse_type("a a a^r a^r")
    with pytest.raises(InvalidReductionError):
        Reduction.from_cups(g, [(0, 2), (1, 3)])


def test_non_adjoint_cup_rejected():
    with pytest.raises(InvalidReductionError):
        Reduction.from_cups(parse_type("a a"), [(0, 1)])


def test_cup_enclosing_survivor_rejected():
    # the survivor between the cup ends blocks elimination
    with pytest.raises(InvalidReductionError):
        Reduction.from_cups(parse_type("a s a^r"), [(0, 2)])


@pytest.mark.parametrize(
    "cup", [(0.0, 1.0), (0.5, 1), ("0", "1"), (False, True)],
    ids=["floats", "half", "strings", "booleans"],
)
def test_a_cup_end_must_be_an_integer(cup):
    # floats and strings failed raw in the validation pass; booleans were
    # kept, and written as a document that the library's reader refuses
    with pytest.raises(InvalidReductionError) as caught:
        Reduction(parse_type("n n^r s"), [cup])
    assert str(caught.value) == f"cup {cup} has an end that is not an integer"


@pytest.mark.parametrize("cups, message", [
    ([5], "cup 5 is not a pair of indices"),
    ([None], "cup None is not a pair of indices"),
    ([(0,)], "cup (0,) is not a pair of indices"),
    ([(0, 1, 2)], "cup (0, 1, 2) is not a pair of indices"),
    ([(0, True)], "cup (0, True) has an end that is not an integer"),
    (5, "cups 5 are not a collection"),
], ids=["integer", "none", "one-end", "three-ends", "boolean-end", "not-a-collection"])
def test_a_malformed_cup_is_refused_by_name(cups, message):
    # an integer or None failed raw with TypeError, and a cup of one or
    # three ends read "out of range"
    with pytest.raises(InvalidReductionError) as caught:
        Reduction(parse_type("n n^r s n^l n"), cups)
    assert str(caught.value) == message


def test_a_cup_past_the_word_reads_out_of_range():
    with pytest.raises(InvalidReductionError) as caught:
        Reduction(parse_type("n n^r s n^l n"), [(0, 7)])
    assert str(caught.value) == "cup (0, 7) out of range for word of length 5"


def test_numpy_cup_ends_are_kept_as_python_ints():
    r = Reduction(parse_type("n n^r s"), [(np.int64(0), np.int64(1))])
    assert r.cups == {(0, 1)}
    assert {type(end) for cup in r.cups for end in cup} == {int}
    assert json.loads(json.dumps(io._reduction_to_doc(r)))["cups"] == [[0, 1]]


# -- composition ----------------------------------------------------------------

def test_compose_relabels_through_survivors():
    r1 = Reduction.from_cups(parse_type("n n^r n n^r"), [(0, 1)])
    assert str(r1.target) == "n n^r"
    r2 = Reduction.from_cups(parse_type("n n^r"), [(0, 1)])
    composite = compose_reductions(r2, r1)
    assert composite.sorted_cups == ((0, 1), (2, 3))
    assert composite.target == PregroupType()


def test_compose_type_mismatch():
    r = Reduction.identity(parse_type("n"))
    with pytest.raises(Exception):
        compose_reductions(Reduction.identity(parse_type("s")), r)


def test_compose_unit_laws(rng):
    for _ in range(50):
        source = _random_word(rng)
        r = random_reduction(rng, source)
        assert compose_reductions(r, Reduction.identity(source)) == r
        assert compose_reductions(Reduction.identity(r.target), r) == r


def test_compose_associative(rng):
    for _ in range(100):
        source = _random_word(rng)
        r1 = random_reduction(rng, source)
        r2 = random_reduction(rng, r1.target)
        r3 = random_reduction(rng, r2.target)
        left = compose_reductions(r3, compose_reductions(r2, r1))
        right = compose_reductions(compose_reductions(r3, r2), r1)
        assert left == right


def _random_word(rng):
    simples = tuple(
        SimpleType(("x", "y")[rng.integers(2)], int(rng.integers(-1, 2)))
        for _ in range(rng.integers(0, 7))
    )
    return PregroupType(simples)
