"""Independent reference implementations used to cross-check the library.

The reduction enumerator here works by literally replaying every order
of adjacent-pair eliminations, with none of the first-cup recursion the
library uses; it is deliberately slow and only meant for short words.
"""

from __future__ import annotations

import math
from itertools import product
from pathlib import Path

import numpy as np

from discotrans import io
from discotrans.dictionary import DictionaryEntry, _reduced_rows
from discotrans.errors import ModelMismatchError, NoReductionError
from discotrans.grammar import PregroupType, Reduction, SimpleType, reduce_search
from discotrans.lexicon import Lexicon, Phrase, lex_phrase
from discotrans.product_space import PSObject, _distances
from discotrans.semantics import LanguageModel, _contract, apply_reduction, space_shape
from discotrans.translation import (
    NaturalityReport,
    Translation,
    _image_lexicon,
    translate_object,
    translate_reduction,
)


def reductions_by_elimination(
    source: PregroupType, target: PregroupType
) -> set[frozenset[tuple[int, int]]]:
    """Every cup set reaching ``target``, found by trying all elimination orders."""
    results: set[frozenset[tuple[int, int]]] = set()

    def step(alive: tuple[int, ...], cups: frozenset[tuple[int, int]]) -> None:
        if tuple(source.simples[i] for i in alive) == target.simples:
            results.add(cups)
        for k in range(len(alive) - 1):
            i, j = alive[k], alive[k + 1]
            a, b = source.simples[i], source.simples[j]
            if a.base == b.base and b.z == a.z + 1:
                step(alive[:k] + alive[k + 2 :], cups | {(i, j)})

    step(tuple(range(len(source))), frozenset())
    return results


def all_reductions(source: PregroupType) -> list[Reduction]:
    """Every reduction out of ``source``, to whatever target it reaches."""
    seen: set[frozenset[tuple[int, int]]] = set()
    found: list[Reduction] = []

    def step(alive: tuple[int, ...], cups: frozenset[tuple[int, int]]) -> None:
        if cups not in seen:
            seen.add(cups)
            found.append(Reduction.from_cups(source, cups))
        for k in range(len(alive) - 1):
            i, j = alive[k], alive[k + 1]
            a, b = source.simples[i], source.simples[j]
            if a.base == b.base and b.z == a.z + 1:
                step(alive[:k] + alive[k + 2 :], cups | {(i, j)})

    step(tuple(range(len(source))), frozenset())
    return found


def random_reduction(rng: np.random.Generator, source: PregroupType) -> Reduction:
    """A random valid reduction built by a random elimination walk."""
    alive = list(range(len(source)))
    cups: set[tuple[int, int]] = set()
    while True:
        candidates = []
        for k in range(len(alive) - 1):
            i, j = alive[k], alive[k + 1]
            a, b = source.simples[i], source.simples[j]
            if a.base == b.base and b.z == a.z + 1:
                candidates.append((i, j))
        if not candidates or rng.random() < 0.3:
            break
        i, j = candidates[rng.integers(len(candidates))]
        cups.add((i, j))
        alive.remove(i)
        alive.remove(j)
    return Reduction.from_cups(source, cups)


def reduction_matrix(model: LanguageModel, r: Reduction) -> np.ndarray:
    """Explicit matrix of the reduction between flattened spaces.

    Built entry by entry from the Kronecker deltas of the cups, with no
    shared code with apply_reduction, so the two can check each other.
    """
    src_shape = space_shape(model, r.source)
    tgt_shape = space_shape(model, r.target)
    matrix = np.zeros((math.prod(tgt_shape), math.prod(src_shape)))
    for col, idx in enumerate(np.ndindex(*src_shape)):
        if any(idx[i] != idx[j] for i, j in r.cups):
            continue
        out = tuple(idx[k] for k in r.survivors)
        row = int(np.ravel_multi_index(out, tgt_shape)) if tgt_shape else 0
        matrix[row, col] = 1.0
    return matrix


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random orthogonal matrix from a sign-fixed QR factorization."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def alpha_matrix_by_kron(t: Translation, g: PregroupType) -> np.ndarray:
    """Component matrix of alpha at a product type, materialised.

    The Kronecker product of the per-simple matrices, acting on the
    flattened source space.  Adjoint simple types reuse the base matrix;
    an odd adjoint exponent reverses the image word, so the matrix rows
    are reordered by the matching axis reversal (a no-op for
    single-simple images).  Its size is the square of the phrase's, so
    it is only usable on small types.
    """
    matrix = np.eye(1)
    for s in g.simples:
        component = t.alpha[s.base]
        if s.z % 2:
            shape = space_shape(t.target_model, t.j[s.base])
            if len(shape) > 1:
                perm = np.arange(math.prod(shape)).reshape(shape)
                component = component[perm.transpose().ravel()]
        matrix = np.kron(matrix, component)
    return matrix


def alpha_block(t: Translation, s: SimpleType) -> np.ndarray:
    """``alpha[s.base]`` with its rows unflattened to the image block of
    ``s``: shape ``(*image_block, dim(s.base))``, a view of ``alpha``.

    An odd adjoint exponent reverses the image word, so the block axes
    are reversed to match (a no-op for single-simple images).
    """
    matrix = t.alpha[s.base]
    block = matrix.reshape(*space_shape(t.target_model, t.j[s.base]), matrix.shape[1])
    if s.z % 2:
        block = block.transpose(*reversed(range(block.ndim - 1)), block.ndim - 1)
    return block


def alpha_component_by_tensordot(t: Translation, g: PregroupType, array) -> np.ndarray:
    """The component of alpha at ``g`` applied to ``array`` by one
    ``np.tensordot`` per simple type over its ``alpha_block``, with no
    prepared matrix; trailing axes of ``array`` pass through."""
    array = np.asarray(array, dtype=float)
    extra = array.ndim - len(g)
    image_rank = 0
    for s in g.simples:
        block = alpha_block(t, s)
        array = np.tensordot(array, block, axes=([0], [block.ndim - 1]))
        image_rank += block.ndim - 1
    return array.transpose(*range(extra, extra + image_rank), *range(extra))


_PROBE_ENTRIES = 1 << 16


def naturality_by_basis_probe(
    t: Translation, r: Reduction, tolerance: float = 1e-9
) -> NaturalityReport:
    """Naturality check by pushing the identity matrix down both paths.

    Every standard basis vector of the source space is reduced then
    translated, and translated then reduced, with alpha applied one axis
    at a time by ``alpha_component_by_tensordot``; the report carries the
    worst per-vector Euclidean mismatch.  The basis goes through in
    blocks of about ``_PROBE_ENTRIES`` entries, so no size × size matrix
    is built.
    """
    image = translate_reduction(t, r)
    src_shape = space_shape(t.source_model, r.source)
    size = math.prod(src_shape)

    def alpha(g: PregroupType, batch: np.ndarray) -> np.ndarray:
        # alpha at g on every basis vector of the block, the batch axis leading
        out = alpha_component_by_tensordot(t, g, np.moveaxis(batch, 0, -1))
        return np.moveaxis(out, -1, 0)

    max_residual, step = 0.0, max(1, _PROBE_ENTRIES // size)
    for start in range(0, size, step):
        # one basis vector per row, the batch axis leading
        basis = np.eye(min(step, size - start), size, start).reshape(-1, *src_shape)
        reduced_first = alpha(r.target, _contract(r, basis))
        translated_first = _contract(image, alpha(r.source, basis))
        diff = (reduced_first - translated_first).reshape(len(basis), -1)
        max_residual = max(max_residual, float(np.linalg.norm(diff, axis=1).max()))
    return NaturalityReport(max_residual, max_residual <= tolerance, tolerance, size)


def phrases_with_senses(lex: Lexicon, max_len: int):
    """Every phrase up to ``max_len`` words, under every sense assignment."""
    for length in range(1, max_len + 1):
        for words in product(lex.words, repeat=length):
            for senses in product(*(range(len(lex.senses(w))) for w in words)):
                yield Phrase(tuple(words), tuple(senses))


def phrase_reduction_by_product(lex: Lexicon, p: Phrase, target: PregroupType):
    """``phrase_reduction`` by the definition: every sense combination of the
    phrase in index order, one search each, until one reduces."""
    if p.sense_choice is not None:
        combinations = [p.sense_choice]
    else:
        combinations = product(*(range(len(lex.senses(w))) for w in p.words))
    for choice in combinations:
        phrase = lex_phrase(lex, Phrase(p.words, choice))
        found = reduce_search(phrase.type, target, max_results=1)
        if found:
            return apply_reduction(lex.model, found[0], phrase.meaning), found[0], tuple(choice)
    raise NoReductionError(f"no sense assignment of '{p}' reduces to '{target}'")


def image_lexicon(t: Translation, lex: Lexicon) -> Lexicon:
    """Every word sense pushed through ``translate_object``, sense order kept."""
    return Lexicon(
        t.target_model,
        {w: tuple(translate_object(t, obj) for obj in lex.senses(w)) for w in lex.words},
    )


def dictionary_by_brute_force(lex_a, lex_b, t, q) -> list[DictionaryEntry]:
    """Definition-level dictionary enumeration.

    Uses the elimination search and the explicit reduction matrices
    instead of the library's first-cup search and contraction kernel.
    Translated phrases are built word by word: each source word sense is
    translated once and phrases are products of the images, which equals
    translating the whole phrase because the translation is monoidal.
    """
    images = image_lexicon(t, lex_a)
    cache: dict = {}

    def reductions(source, target):
        key = (source.simples, target.simples)
        if key not in cache:
            cups = reductions_by_elimination(source, target)
            cache[key] = sorted(
                (Reduction.from_cups(source, c) for c in cups),
                key=lambda r: r.sorted_cups,
            )
        return cache[key]

    entries = []
    for tp in phrases_with_senses(lex_b, q.max_target_len):
        t_obj = lex_phrase(lex_b, tp)
        t_type, t_flat = t_obj.type, t_obj.meaning.flat
        if q.target_type_filter is not None:
            onto = reductions(t_type, q.target_type_filter)
            if not onto:
                continue
            t_flat = reduction_matrix(lex_b.model, onto[0]) @ t_flat
            t_type = q.target_type_filter
        for sp in phrases_with_senses(lex_a, q.max_source_len):
            image = lex_phrase(images, sp)
            for r in reductions(image.type, t_type):
                reduced = reduction_matrix(lex_b.model, r) @ image.meaning.flat
                d = float(np.linalg.norm(reduced - t_flat))
                if q.threshold is not None and d > q.threshold:
                    continue
                entries.append(DictionaryEntry(sp, tp, r, d))
    entries.sort(key=DictionaryEntry.sort_key)
    return entries


def validate_entry(lex_a, lex_b, t, entry: DictionaryEntry) -> float:
    """Recompute an entry's distance from the per-word lexicon data, by
    the build's own contraction and distance arithmetic."""
    source_words = set(entry.source_phrase.words)
    image = lex_phrase(_image_lexicon(t, lex_a, source_words), entry.source_phrase)
    target = lex_phrase(lex_b, entry.target_phrase)
    target_row = target.meaning.array.reshape(1, -1)
    if entry.reduction.target != target.type:
        onto = reduce_search(target.type, entry.reduction.target, max_results=1)
        if not onto:
            raise ModelMismatchError("entry's reduction target is unreachable from the target phrase")
        target_row = _reduced_rows(onto[0], target.meaning.array[None])
    source_row = _reduced_rows(entry.reduction, image.meaning.array[None])
    return float(_distances(source_row, target_row)[0, 0])


def lexicon_by_records(doc, base_dir: Path = Path(".")) -> Lexicon:
    """``io.lexicon_from_doc`` as a per-record loop: each record's fields,
    type and data are checked and converted on their own, in document
    order, so the first bad record is the one named."""
    doc = io._check_format(doc, "lexicon")
    model = io._resolve_model(doc, "model", "lexicon", base_dir)
    records = io._field(doc, "words", "lexicon", list)
    entries: dict[str, list[PSObject]] = {}
    types: dict[str, PregroupType] = {}
    for i, record in enumerate(records):
        word = io._field(record, "word", "lexicon record words[{}]", str, i)
        type_string = io._field(record, "type", "lexicon record words[{}]", str, i)
        if type_string not in types:
            types[type_string] = io._type_of(
                record, "type", "lexicon record {!r}", model.basics, word
            )
        data = io._field(record, "data", "lexicon record words[{}]", list, i)
        tensor = io._tensor_of(model, types[type_string], data, f"lexicon record {word!r}")
        entries.setdefault(word, []).append(PSObject(tensor))
    with io._at("lexicon record"):
        return Lexicon(model, {w: tuple(objs) for w, objs in entries.items()})
