"""Output checks, run outside the timed region.

Expected values are recomputed without the library's hot path: phrase
tensors by explicit outer products, translations axis by axis with
``tensordot``, reductions by the elimination oracle and the explicit
reduction matrices of ``tests/oracles.py``, and sentence values by one
``np.einsum`` over the word tensors.  Each check returns a list of error
strings; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import product

import numpy as np

from inputs import DictInputs, Lex, Trans

TOL = 1e-9


def close(observed: float, expected: float) -> bool:
    return abs(observed - expected) <= TOL * max(1.0, abs(expected))


def image_type(type_text: str, trans: Trans) -> str:
    """Image of a type under a grammar map whose images are single simples."""
    out = []
    for simple in type_text.split():
        base, _, suffix = simple.partition("^")
        out.append(trans.j[base] + ("^" + suffix if suffix else ""))
    return " ".join(out)


def translate_axes(array: np.ndarray, type_text: str, trans: Trans) -> np.ndarray:
    """Apply ``alpha`` to one axis at a time (single-simple images only)."""
    for axis, simple in enumerate(type_text.split()):
        matrix = trans.alpha[simple.partition("^")[0]]
        array = np.moveaxis(np.tensordot(matrix, array, axes=([1], [axis])), 0, axis)
    return array


def _phrases(words: dict[str, list[tuple[str, np.ndarray]]], max_len: int):
    """(phrase text, type, flat tensor) for every phrase and sense choice."""
    vocab = sorted(words)
    for length in range(1, max_len + 1):
        for phrase in product(vocab, repeat=length):
            for senses in product(*(words[w] for w in phrase)):
                tensor = reduce(np.multiply.outer, [a for _, a in senses])
                yield " ".join(phrase), " ".join(t for t, _ in senses), tensor.ravel()


def _buckets(items) -> dict[str, tuple[list[str], np.ndarray]]:
    grouped: dict[str, list] = {}
    for text, type_text, flat in items:
        grouped.setdefault(type_text, []).append((text, flat))
    return {t: ([p for p, _ in rows], np.stack([f for _, f in rows])) for t, rows in grouped.items()}


def reduction_text(cups) -> str:
    return "".join(f"({i},{j})" for i, j in sorted(cups)) or "id"


def expected_dictionary(inputs: DictInputs, oracles) -> dict[tuple[str, str, str], list[float]]:
    """Every entry a dictionary query must print, keyed by (source phrase,
    target phrase, reduction), with the distances of its sense choices."""
    from discotrans.grammar import Reduction, parse_type
    from discotrans.semantics import LanguageModel

    trans, size = inputs.translation, inputs.size
    translated = {
        w: [(image_type(t, trans), translate_axes(a, t, trans)) for t, a in senses]
        for w, senses in inputs.source.by_word().items()
    }
    sources = _buckets(_phrases(translated, size.max_source_len))
    targets = _buckets(_phrases(inputs.target.by_word(), size.max_target_len))
    model = LanguageModel(inputs.target.name, inputs.target.dims)
    expected: dict[tuple[str, str, str], list[float]] = {}
    for (s_type, (s_text, s_flat)), (t_type, (t_text, t_flat)) in product(
        sources.items(), targets.items()
    ):
        source = parse_type(s_type)
        for cups in oracles.reductions_by_elimination(source, parse_type(t_type)):
            matrix = oracles.reduction_matrix(model, Reduction.from_cups(source, cups))
            reduced = s_flat @ matrix.T
            dist = np.sqrt(((reduced[:, None, :] - t_flat[None, :, :]) ** 2).sum(axis=-1))
            keep = np.ones(dist.shape, bool) if size.k is None else dist <= size.k
            red = reduction_text(cups)
            for i, j in zip(*np.nonzero(keep)):
                expected.setdefault((s_text[i], t_text[j], red), []).append(float(dist[i, j]))
    return expected


def check_dictionary(rows_text: str, inputs: DictInputs, oracles) -> list[str]:
    """The printed rows must be exactly the expected entry set, sorted by
    distance, with the pushed-through single words at distance exactly 0."""
    errors: list[str] = []
    rows = []
    for n, line in enumerate(rows_text.splitlines()):
        fields = line.split("\t")
        if len(fields) != 4:
            return [f"row {n}: expected 4 tab-separated fields, got {line!r}"]
        rows.append((fields[0], fields[1], fields[2], fields[3], float(fields[3])))

    for n in range(1, len(rows)):
        a, b = rows[n - 1], rows[n]
        if b[4] < a[4]:
            errors.append(f"row {n}: distance {b[3]} follows {a[3]}")
        elif a[3] == b[3] == "0" and (b[0].split(), b[1].split()) < (a[0].split(), a[1].split()):
            errors.append(f"row {n}: zero-distance rows out of phrase order")

    observed: dict[tuple[str, str, str], list[tuple[float, str]]] = {}
    for src, tgt, red, text, value in rows:
        observed.setdefault((src, tgt, red), []).append((value, text))
    expected = expected_dictionary(inputs, oracles)
    k = inputs.size.k

    def settled(values):
        # A distance within the tolerance of the threshold may fall either way.
        return sorted(v for v in values if k is None or abs(v - k) > TOL * max(1.0, k))

    for key in sorted(set(observed) | set(expected)):
        got = settled(v for v, _ in observed.get(key, []))
        want = settled(expected.get(key, []))
        if len(got) != len(want) or not all(close(g, w) for g, w in zip(got, want)):
            errors.append(f"entry {key}: distances {got[:4]} expected {want[:4]}")
    target_words = inputs.target.by_word()
    for word in inputs.pushed:
        senses = len(target_words[word])
        zeros = sum(text == "0" for _, text in observed.get((word, word, "id"), []))
        if zeros < senses:
            errors.append(f"diagonal entry {word!r}: {zeros} of {senses} senses at exactly 0")
    return errors[:20]


def expected_sentence(source: Lex, trans: Trans, words: tuple[str, str, str]):
    """(source value, translated value) of a "noun verb noun" sentence.

    On the source side the verb sense is the one whose argument numbers
    match the nouns; on the translated side every verb sense has the same
    type, so the first one is taken.
    """
    lex = source.by_word()
    (subj_type, subj), (obj_type, obj) = lex[words[0]][0], lex[words[2]][0]
    verbs = lex[words[1]]
    verb_type, verb = next(
        (t, a) for t, a in verbs if t == f"{subj_type}^r s {obj_type}^l"
    )
    source_value = np.einsum("a,asb,b->s", subj, verb, obj)
    first_type, first = verbs[0]
    translated_value = np.einsum(
        "a,asb,b->s",
        translate_axes(subj, subj_type, trans),
        translate_axes(first, first_type, trans),
        translate_axes(obj, obj_type, trans),
    )
    return source_value, translated_value


def check_sentence(observed, expected) -> list[str]:
    errors = []
    for side, got, want in zip(("source", "translated"), observed, expected):
        if got.shape != want.shape or not np.allclose(got, want, rtol=TOL, atol=TOL):
            errors.append(f"{side} meaning {got.ravel()[:3]} expected {want.ravel()[:3]}")
    return errors


def check_naturality_output(
    code: int, stdout: str, stderr: str, must_pass: bool, basis_size: int
) -> list[str]:
    """A commuting translation exits 0 with a residual within tolerance;
    the perturbed one exits 1 with a residual above it."""
    if code != (0 if must_pass else 1):
        return [f"exit code {code}, expected {0 if must_pass else 1}; stderr {stderr.strip()!r}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"output is not a JSON document: {stdout[:80]!r}"]
    errors = []
    if doc.get("passed") is not must_pass:
        errors.append(f"passed={doc.get('passed')!r}, expected {must_pass}")
    residual, tolerance = doc.get("max_residual"), doc.get("tolerance")
    if not isinstance(residual, float) or not isinstance(tolerance, float):
        errors.append(f"residual {residual!r} or tolerance {tolerance!r} is not a number")
    elif (residual <= tolerance) is not must_pass:
        errors.append(f"max_residual {residual} against tolerance {tolerance}")
    if doc.get("basis_size") != basis_size:
        errors.append(f"basis_size {doc.get('basis_size')}, expected {basis_size}")
    return errors


def basis_size(type_text: str, dims: dict[str, int]) -> int:
    return int(np.prod([dims[s.partition("^")[0]] for s in type_text.split()]))

