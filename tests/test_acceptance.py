"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import time
from itertools import product as iproduct

import numpy as np

from discotrans.demo import collapse_number_translation, wardrobe_lexicon
from discotrans.dictionary import DictionaryQuery, build_dictionary
from discotrans.errors import NonFunctorialTranslationError
from discotrans.grammar import (
    PregroupType,
    Reduction,
    SimpleType,
    parse_type,
    reduce_search,
)
from discotrans.lexicon import Lexicon, Phrase, phrase_meaning
from discotrans.product_space import (
    PSObject,
    ps_compose,
    ps_morphism,
    ps_tensor,
    ps_tensor_morphism,
)
from discotrans.semantics import (
    LanguageModel,
    apply_reduction,
    make_tensor,
    normalize_sentence,
    space_shape,
)
from discotrans.translation import (
    Translation,
    check_naturality,
    fit_alpha,
    identity_translation,
    nearest_unitary,
    solve_generator_map,
    translate_lexicon,
    translate_morphism,
    translate_object,
)
from conftest import random_obj
from oracles import (
    all_reductions,
    dictionary_by_brute_force,
    random_orthogonal,
    random_reduction,
    reduction_matrix,
)


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}{detail}")
    assert ok, f"criterion {number} failed: {description}{detail}"


def _random_word(rng, bases=("x", "y"), max_len=4):
    return PregroupType(
        tuple(
            SimpleType(bases[rng.integers(len(bases))], int(rng.integers(-1, 2)))
            for _ in range(rng.integers(0, max_len + 1))
        )
    )


def _random_translation(rng, source_model, target_model):
    j, alpha = {}, {}
    target_bases = sorted(target_model.dims)
    for base, dim in source_model.dims.items():
        image = PregroupType(
            tuple(
                SimpleType(
                    target_bases[rng.integers(len(target_bases))],
                    int(rng.integers(-1, 2)),
                )
                for _ in range(rng.integers(0, 3))
            )
        )
        j[base] = image
        rows = int(np.prod(space_shape(target_model, image), dtype=int))
        alpha[base] = rng.standard_normal((rows, dim))
    return Translation(source_model, target_model, j, alpha)


def test_criterion_1_golden_sentence_values():
    start = time.perf_counter()
    lex = wardrobe_lexicon()
    t = collapse_number_translation()
    s = parse_type("s")

    plain = float(phrase_meaning(lex, Phrase.parse("Rosie wears boots"), s).flat[0])
    odd = float(phrase_meaning(lex, Phrase.parse("Rosie wears a_boot"), s).flat[0])
    odd_norm = float(
        normalize_sentence(phrase_meaning(lex, Phrase.parse("Rosie wears a_boot"), s)).flat[0]
    )
    pushed = translate_lexicon(t, lex)
    plain_t = float(phrase_meaning(pushed, Phrase.parse("Rosie wears boots"), s).flat[0])
    odd_t = float(phrase_meaning(pushed, Phrase.parse("Rosie wears a_boot"), s).flat[0])
    elapsed = time.perf_counter() - start

    ok = (
        abs(plain - 0.0) <= 1e-9
        and abs(odd - (-1.0)) <= 1e-9
        and abs(odd_norm - 1.0) <= 1e-9
        and abs(plain_t - 0.0) <= 1e-9
        and abs(odd_t - 0.0) <= 1e-9
        and elapsed < 1.0
    )
    _report(
        1,
        "golden sentence values reproduced",
        ok,
        f" (plain={plain:g}, marked={odd:g}->{odd_norm:g}, "
        f"translated={plain_t:g},{odd_t:g}; {elapsed:.3f}s)",
    )


def test_criterion_2_reduction_search_and_oracle_sweep():
    found = reduce_search(parse_type("n n^r s n^l n"), parse_type("s"))
    exact = len(found) == 1 and found[0].sorted_cups == ((0, 1), (3, 4))

    start = time.perf_counter()
    simples = [SimpleType("a", z) for z in (-1, 0, 1)]
    targets = [
        PregroupType(combo)
        for length in range(3)
        for combo in iproduct(simples, repeat=length)
    ]
    mismatches = 0
    words = 0
    for length in range(7):
        for combo in iproduct(simples, repeat=length):
            word = PregroupType(combo)
            words += 1
            by_target: dict = {}
            for r in all_reductions(word):
                if len(r.target) <= 2:
                    by_target.setdefault(r.target, set()).add(r.cups)
            for target in targets:
                ours = {r.cups for r in reduce_search(word, target)}
                if ours != by_target.get(target, set()):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = exact and mismatches == 0 and elapsed < 10.0
    _report(
        2,
        "reduction search matches exhaustive elimination",
        ok,
        f" ({words} words x {len(targets)} targets, "
        f"{mismatches} mismatches, {elapsed:.2f}s)",
    )


def test_criterion_3_contraction_matches_explicit_matrix():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        model = LanguageModel(
            "m", {"x": int(rng.integers(1, 5)), "y": int(rng.integers(1, 5))}
        )
        g = _random_word(rng, max_len=5)
        r = random_reduction(rng, g)
        size = int(np.prod(space_shape(model, g), dtype=int))
        t = make_tensor(model, g, rng.standard_normal(size))
        via_matrix = reduction_matrix(model, r) @ t.flat
        direct = apply_reduction(model, r, t).flat
        worst = max(worst, float(np.max(np.abs(via_matrix - direct), initial=0.0)))
    ok = worst <= 1e-9
    _report(3, "contraction agrees with explicit matrices", ok, f" (max error {worst:.2e})")


def test_criterion_4_functor_and_monoidality_laws():
    rng = np.random.default_rng(4)
    model = LanguageModel("src", {"x": 3, "y": 2})
    target = LanguageModel("tgt", {"p": 2, "q": 3})
    worst = {"composition": 0.0, "interchange": 0.0, "functoriality": 0.0, "monoidality": 0.0}

    for _ in range(200):
        g = _random_word(rng)
        r1 = random_reduction(rng, g)
        r2 = random_reduction(rng, r1.target)
        r3 = random_reduction(rng, r2.target)
        a, b = random_obj(rng, model, g), random_obj(rng, model, r1.target)
        c, d = random_obj(rng, model, r2.target), random_obj(rng, model, r3.target)
        m1 = ps_morphism(model, a, r1, b)
        m2 = ps_morphism(model, b, r2, c)
        m3 = ps_morphism(model, c, r3, d)
        left = ps_compose(m3, ps_compose(m2, m1, a, b, c), a, c, d)
        right = ps_compose(ps_compose(m3, m2, b, c, d), m1, a, b, d)
        assert left.reduction == right.reduction
        worst["composition"] = max(worst["composition"], abs(left.distance - right.distance))
        ident = ps_morphism(model, a, Reduction.identity(g), a)
        worst["composition"] = max(
            worst["composition"],
            abs(ps_compose(m1, ident, a, a, b).distance - m1.distance),
        )

    for _ in range(200):
        g1, g2 = _random_word(rng, max_len=3), _random_word(rng, max_len=3)
        r1, r2 = random_reduction(rng, g1), random_reduction(rng, g2)
        q1, q2 = random_reduction(rng, r1.target), random_reduction(rng, r2.target)
        a1, a2 = random_obj(rng, model, g1), random_obj(rng, model, g2)
        b1, b2 = random_obj(rng, model, r1.target), random_obj(rng, model, r2.target)
        c1, c2 = random_obj(rng, model, q1.target), random_obj(rng, model, q2.target)
        m1, m2 = ps_morphism(model, a1, r1, b1), ps_morphism(model, a2, r2, b2)
        n1, n2 = ps_morphism(model, b1, q1, c1), ps_morphism(model, b2, q2, c2)
        joint = ps_compose(
            ps_tensor_morphism(n1, n2, b1, b2, c1, c2),
            ps_tensor_morphism(m1, m2, a1, a2, b1, b2),
            ps_tensor(a1, a2),
            ps_tensor(b1, b2),
            ps_tensor(c1, c2),
        )
        split = ps_tensor_morphism(
            ps_compose(n1, m1, a1, b1, c1), ps_compose(n2, m2, a2, b2, c2),
            a1, a2, c1, c2,
        )
        assert joint.reduction == split.reduction
        worst["interchange"] = max(worst["interchange"], abs(joint.distance - split.distance))

    for _ in range(200):
        t = _random_translation(rng, model, target)
        g = _random_word(rng)
        r1 = random_reduction(rng, g)
        r2 = random_reduction(rng, r1.target)
        a, b = random_obj(rng, model, g), random_obj(rng, model, r1.target)
        c = random_obj(rng, model, r2.target)
        m1, m2 = ps_morphism(model, a, r1, b), ps_morphism(model, b, r2, c)
        direct = translate_morphism(t, ps_compose(m2, m1, a, b, c), a, c)
        stepwise = ps_compose(
            translate_morphism(t, m2, b, c),
            translate_morphism(t, m1, a, b),
            translate_object(t, a),
            translate_object(t, b),
            translate_object(t, c),
        )
        assert direct.reduction == stepwise.reduction
        worst["functoriality"] = max(
            worst["functoriality"], abs(direct.distance - stepwise.distance)
        )

    for _ in range(200):
        t = _random_translation(rng, model, target)
        a = random_obj(rng, model, _random_word(rng, max_len=3))
        b = random_obj(rng, model, _random_word(rng, max_len=3))
        joint = translate_object(t, ps_tensor(a, b))
        split = ps_tensor(translate_object(t, a), translate_object(t, b))
        assert joint.type == split.type
        worst["monoidality"] = max(
            worst["monoidality"],
            float(np.max(np.abs(joint.meaning.array - split.meaning.array), initial=0.0)),
        )

    ok = all(v <= 1e-9 for v in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _report(4, "functor and monoidality law suites (200 cases each)", ok, f" ({detail})")


def test_criterion_5_naturality_residuals():
    rng = np.random.default_rng(5)
    model = LanguageModel("m", {"x": 3, "y": 2})
    ident = identity_translation(model)
    identity_ok = True
    for _ in range(30):
        r = random_reduction(rng, _random_word(rng))
        if check_naturality(ident, r).max_residual != 0.0:
            identity_ok = False

    target = LanguageModel("m2", {"u": 3, "v": 2})
    orthogonal = Translation(
        model,
        target,
        {"x": parse_type("u"), "y": parse_type("v")},
        {"x": random_orthogonal(rng, 3), "y": random_orthogonal(rng, 2)},
    )
    worst_orth = 0.0
    for _ in range(50):
        r = random_reduction(rng, _random_word(rng))
        worst_orth = max(worst_orth, check_naturality(orthogonal, r).max_residual)

    collapse = collapse_number_translation()
    sentence = parse_type("n_s n_s^r s n_p^l n_p")
    projection_residual = check_naturality(
        collapse, Reduction.from_cups(sentence, [(0, 1), (3, 4)])
    ).max_residual

    ok = identity_ok and worst_orth <= 1e-9 and projection_residual > 0.0
    _report(
        5,
        "naturality residuals behave",
        ok,
        f" (identity exact, orthogonal max {worst_orth:.2e}, "
        f"projection residual {projection_residual:.3f} > 0)",
    )


def test_criterion_6_procrustes_and_fitting():
    rng = np.random.default_rng(6)
    candidates = [random_orthogonal(rng, 4) for _ in range(1000)]
    worst_orth = 0.0
    optimal = True
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        q = nearest_unitary(a)
        worst_orth = max(worst_orth, float(np.linalg.norm(q.T @ q - np.eye(4))))
        best = np.linalg.norm(a - q)
        for p in candidates:
            if best > np.linalg.norm(a - p) + 1e-9:
                optimal = False

    truth = rng.standard_normal((3, 4))
    xs = rng.standard_normal((25, 4))
    recovered = fit_alpha([(x, truth @ x) for x in xs])
    fit_error = float(np.max(np.abs(recovered - truth)))

    ok = worst_orth <= 1e-8 and optimal and fit_error <= 1e-8
    _report(
        6,
        "orthogonal projection and least-squares fitting",
        ok,
        f" (orthogonality {worst_orth:.2e}, optimal vs 1000 candidates, "
        f"fit error {fit_error:.2e})",
    )


def _five_word_pair():
    src = LanguageModel("animals", {"x": 2, "s": 1})
    tgt = LanguageModel("animales", {"x": 2, "s": 1})

    def obj(model, type_text, data):
        return PSObject(make_tensor(model, parse_type(type_text), data))

    lex_a = Lexicon(
        src,
        {
            "dog": (obj(src, "x", [1.0, 0.0]),),
            "cat": (obj(src, "x", [0.0, 1.0]),),
            "puppy": (obj(src, "x", [0.9, 0.1]),),
            "runs": (obj(src, "x^r s", [[0.5], [0.25]]),),
            "sleeps": (obj(src, "x^r s", [[0.1], [0.7]]),),
        },
    )
    theta = 0.25
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    t = Translation(
        src, tgt, {"x": parse_type("x"), "s": parse_type("s")}, {"x": rot, "s": np.eye(1)}
    )
    lex_b = Lexicon(
        tgt,
        {
            "perro": (obj(tgt, "x", rot @ [1.0, 0.0]),),
            "gato": (obj(tgt, "x", [0.2, 0.9]),),
            "cachorro": (obj(tgt, "x", [0.8, 0.3]),),
            "corre": (obj(tgt, "x^r s", (np.kron(rot, np.eye(1)) @ [0.5, 0.25]).reshape(2, 1)),),
            "duerme": (obj(tgt, "x^r s", [[0.15], [0.6]]),),
        },
    )
    return lex_a, lex_b, t


def test_criterion_7_dictionary_diagonal_and_oracle():
    lex = wardrobe_lexicon()
    t = collapse_number_translation()
    pushed = translate_lexicon(t, lex)
    entries = build_dictionary(lex, pushed, t, DictionaryQuery(threshold=0.0))
    paired = {(str(e.source_phrase), str(e.target_phrase)) for e in entries}
    diagonal = all((w, w) in paired for w in lex.words)

    start = time.perf_counter()
    lex_a, lex_b, trans = _five_word_pair()
    query = DictionaryQuery(max_source_len=3, max_target_len=3, max_pairs=2_000_000)
    built = build_dictionary(lex_a, lex_b, trans, query)
    reference = dictionary_by_brute_force(lex_a, lex_b, trans, query)
    elapsed = time.perf_counter() - start
    agree = len(built) == len(reference) and all(
        a.source_phrase == b.source_phrase
        and a.target_phrase == b.target_phrase
        and a.reduction == b.reduction
        and abs(a.distance - b.distance) <= 1e-9
        for a, b in zip(built, reference)
    )
    ok = diagonal and agree and elapsed < 30.0
    _report(
        7,
        "dictionary diagonal at k=0 and brute-force equivalence",
        ok,
        f" ({len(built)} entries on the 5-word pair, {elapsed:.2f}s)",
    )


def test_criterion_8_adjective_order_swap_rejected():
    raised = False
    try:
        solve_generator_map(
            [
                (parse_type("adj"), parse_type("adj2")),
                (parse_type("adj noun"), parse_type("noun2 adj2")),
            ]
        )
    except NonFunctorialTranslationError:
        raised = True
    _report(
        8,
        "noun-adjective order swap raises the non-functoriality error",
        raised,
    )
