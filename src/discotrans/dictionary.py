"""Phrase dictionaries induced by a translation between two lexicons.

Every source phrase is translated, reduced onto a target phrase's type
(or onto a common filter type), and paired with that phrase at the
resulting Euclidean distance.  Thresholding keeps only pairs whose
meanings are close enough.

Phrases are handled per word-type sequence: the phrases whose words have
the types of one sequence sit in one tensor stack.  Sequences whose types
concatenate to the same type share a bucket, which only keys the type
search.  The build is planned on types first, by one join that serves
both sides: a bucket type is searched for reductions onto a type only
when their free-group images agree, which every reduction keeps, and the
bucket type is no shorter.  The target buckets land on their own types by
the identity, or on the filter type by their first reduction; the source
buckets land on the types the target side reached.  Both sides then take
one row path: each (bucket, reduction) part contracts the stack of each
of its bucket's sequences once, and at each landing type the target rows
are compared with the rows of all the source parts, a block of rows at a
time.  A stack is grown only for a sequence whose bucket some reduction
leaves or lands on.  The kept pairs are collected as columns (source
phrase, target phrase, reduction, distance) and ordered by one
``np.lexsort``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, NonFiniteError, is_integer, is_real
from .grammar import PregroupType, Reduction, free_group_image, reduce_search
from .lexicon import Lexicon, Phrase
from .product_space import _distances
from .semantics import _contract, _join
from .translation import Translation, _check_model, _image_lexicon

# One block of the broadcast source-minus-target difference holds at most
# this many float64 entries (rows x target phrases x row width), unless one
# source row against all the target rows is larger: a block is then that
# one row.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class DictionaryEntry:
    """A translated source phrase paired with a target phrase.

    The stored phrases carry the sense indices that produced the entry;
    the reduction runs from the translated source type to the target
    side's type (or the filter type), and the distance is the Euclidean
    gap between the reduced translated meaning and the target meaning.
    """

    source_phrase: Phrase
    target_phrase: Phrase
    reduction: Reduction
    distance: float

    def sort_key(self):
        """The order ``build_dictionary`` emits: distance, then source
        words, target words, source senses, target senses and cups."""
        return (
            self.distance,
            self.source_phrase.words,
            self.target_phrase.words,
            self.source_phrase.sense_choice,
            self.target_phrase.sense_choice,
            self.reduction.sorted_cups,
        )


@dataclass(frozen=True, eq=False)
class DictionaryTable:
    """The dictionary ``build_dictionary`` returns: four columns, sorted by
    ``DictionaryEntry.sort_key``.

    Row ``k`` pairs ``source_phrases[source[k]]`` with
    ``target_phrases[target[k]]`` by ``reductions[reduction[k]]`` at
    ``distance[k]``.  The phrase and reduction tuples hold only what some
    row points at.  Iterating yields the rows as ``DictionaryEntry``
    records; ``io`` writes rows and documents from the columns instead.
    """

    source_phrases: tuple[Phrase, ...]
    target_phrases: tuple[Phrase, ...]
    reductions: tuple[Reduction, ...]
    source: np.ndarray
    target: np.ndarray
    reduction: np.ndarray
    distance: np.ndarray

    def __len__(self) -> int:
        return len(self.distance)

    def __iter__(self) -> Iterator[DictionaryEntry]:
        sources, targets, reductions = self.source_phrases, self.target_phrases, self.reductions
        columns = (self.source, self.target, self.reduction, self.distance)
        for i, j, r, d in zip(*(column.tolist() for column in columns)):
            yield DictionaryEntry(sources[i], targets[j], reductions[r], d)


@dataclass(frozen=True)
class DictionaryQuery:
    max_source_len: int = 1
    max_target_len: int = 1
    target_type_filter: PregroupType | None = None
    threshold: float | None = None
    max_pairs: int = 100_000

    def __post_init__(self) -> None:
        # each cap is kept as a Python int, whose bit_length the budget check takes
        for name in ("max_source_len", "max_target_len", "max_pairs"):
            cap = getattr(self, name)
            if not is_integer(cap):
                raise ValueError(f"{name} must be an integer, got {cap!r}")
            object.__setattr__(self, name, int(cap))
        if self.max_source_len < 1 or self.max_target_len < 1:
            raise ValueError("phrase length caps must be at least 1")
        if self.max_pairs < 0:
            raise ValueError(f"max_pairs must be at least 0, got {self.max_pairs}")
        f = self.target_type_filter
        if f is not None and not isinstance(f, PregroupType):
            raise ValueError(f"target_type_filter must be a PregroupType or None, got {f!r}")
        if self.threshold is not None:
            _check_threshold(self.threshold)


def _check_threshold(k: float) -> None:
    if not is_real(k):
        raise ValueError(f"threshold must be a real number, got {k!r}")
    if not k >= 0:  # NaN fails every comparison
        raise ValueError("threshold must be non-negative")


def _candidate_count(lex: Lexicon, max_len: int, cap: int) -> int:
    """The number of phrases-with-senses up to ``max_len`` words or, when
    that exceeds ``cap``, a smaller number that still exceeds it."""
    per_position = sum(len(senses) for senses in lex.entries.values())
    if per_position <= 1:
        # no phrase at all, or one of each length
        return per_position * max_len
    # the phrases of cap.bit_length() + 1 words alone outnumber cap
    max_len = min(max_len, cap.bit_length() + 1)
    return sum(per_position**length for length in range(1, max_len + 1))


class _PhraseBuckets:
    """Every phrase-with-senses of a lexicon up to a length cap, grouped by type.

    ``plan`` is made before any array: it maps each bucket's type to the
    word-type sequences that spell it, each a tuple of indices into the
    lexicon's distinct word types, in the order ``_rows`` takes their rows.
    Word sequences whose types concatenate to the same type share a bucket.

    ``sequence(seq)`` grows a sequence's stack, one phrase tensor per row,
    on first use, and is the only stack kept; a bucket is no stack, only
    the type key of its sequences.  A sequence's phrases grow one word at a
    time on the right by the outer products ``lex_phrase`` takes, so every
    row is bitwise equal to its phrase's ``lex_phrase`` tensor; prefix
    stacks are kept for the longer sequences that share them.  A
    sequence's phrases are numbered when it is grown, prefixes before the
    sequences they start, and ``labels`` lists them as (words, senses)
    pairs of tuples, the fields of their ``Phrase``; no ``Phrase`` is made
    here, so the build pays for one only where a kept row needs it.
    """

    def __init__(self, lex: Lexicon, max_len: int) -> None:
        by_type: dict[PregroupType, tuple[list, list]] = {}
        for word in lex.words:
            for sense, obj in enumerate(lex.senses(word)):
                labels, arrays = by_type.setdefault(obj.type, ([], []))
                labels.append(((word,), (sense,)))
                arrays.append(obj.meaning.array)
        self._words = list(by_type.values())
        self.plan: dict[PregroupType, list[tuple[int, ...]]] = {}
        level = [((i,), g) for i, g in enumerate(by_type)]
        for length in range(1, max_len + 1):
            if not level:
                break  # a lexicon without words has no phrase of any length
            if length > 1:
                level = [(seq + (i,), g @ h) for seq, g in level for i, h in enumerate(by_type)]
            for seq, g in level:
                self.plan.setdefault(g, []).append(seq)
        self.labels: list[tuple[tuple[str, ...], tuple[int, ...]]] = []
        self._grown: dict[tuple[int, ...], tuple[int, np.ndarray]] = {}

    def sequence(self, seq: tuple[int, ...]) -> tuple[int, np.ndarray]:
        """The number in ``labels`` of a word-type sequence's first phrase, and its stack."""
        if seq not in self._grown:
            if len(seq) == 1:
                labels, arrays = self._words[seq[0]]
                stack = np.stack(arrays)
            else:
                (i, prefix), (j, words) = self.sequence(seq[:-1]), self.sequence(seq[-1:])
                # every prefix times every word on its right, prefix-major
                labels = [(pw + w, ps + s) for pw, ps in self.labels[i : i + len(prefix)]
                          for w, s in self.labels[j : j + len(words)]]
                stack = _join(prefix, words, 1, 1)
                stack = stack.reshape(-1, *stack.shape[2:])
            self._grown[seq] = len(self.labels), stack
            self.labels += labels
        return self._grown[seq]


def _reduced_rows(r: Reduction, stack: np.ndarray) -> np.ndarray:
    """``r`` applied to every phrase of a stack, one flattened row each.

    The stack's batch axis leads, and ``_contract`` sums each row in an
    order fixed by ``r`` alone, so a phrase has the same row alone as in
    any stack, and a pushed-through pair is exactly 0.  The identity
    contracts nothing, so its rows are a view of the stack.
    """
    return _contract(r, stack).reshape(len(stack), -1)


def build_dictionary(
    lexA: Lexicon, lexB: Lexicon, t: Translation, q: DictionaryQuery
) -> DictionaryTable:
    """Enumerate entry triples over the two vocabularies, as a sorted table.

    Without a filter type, each target phrase is taken at its own type;
    with one, both sides are first brought onto the filter type and the
    target side uses its first reduction.  Entries above the threshold
    (when given) are dropped; rows are sorted by (distance, phrases).
    Raises ``NonFiniteError`` when a distance overflows to inf or NaN.
    """
    _check_model(lexA, t.source_model)
    _check_model(lexB, t.target_model)
    n_source = _candidate_count(lexA, q.max_source_len, q.max_pairs)
    n_target = _candidate_count(lexB, q.max_target_len, q.max_pairs)
    if n_source * n_target > q.max_pairs:
        raise BudgetExceededError(
            f"more than the cap of {q.max_pairs} phrase pairs; "
            "raise max_pairs or lower the length limits"
        )
    # overflow shows up as a non-finite distance, which is checked per block
    with np.errstate(over="ignore", invalid="ignore"):
        return _build_table(lexA, lexB, t, q)


def _build_table(
    lexA: Lexicon, lexB: Lexicon, t: Translation, q: DictionaryQuery
) -> DictionaryTable:
    sources = _PhraseBuckets(_image_lexicon(t, lexA, lexA.words), q.max_source_len)
    targets = _PhraseBuckets(lexB, q.max_target_len)
    if q.target_type_filter is None:
        target_parts = {h: [(h, Reduction.identity(h))] for h in targets.plan}
    else:
        target_parts = _landings(targets.plan, [q.target_type_filter], max_results=1)
    source_parts = _landings(sources.plan, target_parts)

    limit = math.inf if q.threshold is None else q.threshold
    reductions: list[Reduction] = []
    no_rows = np.empty(0, dtype=np.intp)
    # (source, target, reduction, distance) columns per block, after an empty one
    kept = [(no_rows, no_rows, no_rows, np.empty(0))]
    for h, landing in source_parts.items():
        target, _, target_rows = _rows(targets, target_parts[h])
        source, part, rows = _rows(sources, landing)
        reduction = part + len(reductions)
        reductions += [r for _, r in landing]
        step = max(1, _BLOCK_ELEMENTS // target_rows.size)
        for start in range(0, len(rows), step):
            block = _distances(rows[start : start + step], target_rows)
            finite = np.isfinite(block)
            if not finite.all():
                i, j = np.argwhere(~finite)[0]
                row = start + i
                raise NonFiniteError(
                    f"distance from {' '.join(sources.labels[source[row]][0])} to "
                    f"{' '.join(targets.labels[target[j]][0])} by {reductions[reduction[row]]} "
                    f"is {block[i, j]}: the arithmetic overflows float64"
                )
            kept_i, kept_j = np.nonzero(block <= limit)
            if len(kept_i):
                distance = block[kept_i, kept_j]
                kept_i += start
                kept.append((source[kept_i], target[kept_j], reduction[kept_i], distance))
    source, target, reduction, distance = map(np.concatenate, zip(*kept))
    return _sorted_table(
        sources.labels, targets.labels, reductions, source, target, reduction, distance
    )


def _landings(
    types: Iterable[PregroupType], onto: Iterable[PregroupType], max_results: int | None = None
) -> dict[PregroupType, list[tuple[PregroupType, Reduction]]]:
    """Every reduction (up to ``max_results`` per pair) from one of ``types``
    onto one of ``onto``, as (type, reduction) parts by the type they land on.

    A reduction keeps the free-group image and never lengthens a type, so
    only the pairs that meet both conditions are searched.
    """
    by_image: dict[tuple, list[PregroupType]] = {}
    for h in onto:
        by_image.setdefault(free_group_image(h), []).append(h)
    landings: dict[PregroupType, list[tuple[PregroupType, Reduction]]] = {}
    for g in types:
        for h in by_image.get(free_group_image(g), ()):
            if len(h) <= len(g):
                for r in reduce_search(g, h, max_results):
                    landings.setdefault(h, []).append((g, r))
    return landings


def _rows(
    buckets: _PhraseBuckets, parts: list[tuple[PregroupType, Reduction]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phrase numbers, part indices and reduced rows of every (sequence,
    reduction) of the (bucket type, reduction) parts, in part then plan order."""
    numbered = []
    for k, (g, r) in enumerate(parts):
        for first, stack in map(buckets.sequence, buckets.plan[g]):
            numbers = np.arange(first, first + len(stack))
            numbered.append((numbers, np.full(len(stack), k), _reduced_rows(r, stack)))
    return numbered[0] if len(numbered) == 1 else tuple(map(np.concatenate, zip(*numbered)))


def _sorted_table(
    source_labels, target_labels, reductions, source, target, reduction, distance
) -> DictionaryTable:
    """The kept rows in ``DictionaryEntry.sort_key`` order, by one ``np.lexsort``.

    Only the phrase labels and reductions that some row uses are ranked,
    and only their labels become ``Phrase`` objects.  Each rank is dense,
    so equal keys rank equally, and no two rows share a full key, so the
    order is the one Python's sort gives the entries.  Distances are
    finite here, so they sort as they compare.
    """
    source_labels, source = _used(source_labels, source)
    target_labels, target = _used(target_labels, target)
    reductions, reduction = _used(reductions, reduction)
    order = np.lexsort((
        _ranks([r.sorted_cups for r in reductions])[reduction],
        _ranks([senses for _, senses in target_labels])[target],
        _ranks([senses for _, senses in source_labels])[source],
        _ranks([words for words, _ in target_labels])[target],
        _ranks([words for words, _ in source_labels])[source],
        distance,
    ))
    return DictionaryTable(
        tuple(Phrase(words, senses) for words, senses in source_labels),
        tuple(Phrase(words, senses) for words, senses in target_labels),
        tuple(reductions),
        source[order], target[order], reduction[order], distance[order],
    )


def _used(items: list, column: np.ndarray) -> tuple[list, np.ndarray]:
    """The items a column points at, in index order, and the column re-pointed into them."""
    used = np.flatnonzero(np.bincount(column, minlength=len(items)))
    position = np.empty(len(items), dtype=np.intp)
    position[used] = np.arange(len(used))
    return [items[i] for i in used.tolist()], position[column]


def _ranks(keys: list) -> np.ndarray:
    """Each key's position among the distinct keys, in Python's order."""
    position = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return np.array([position[key] for key in keys], dtype=np.intp)


def threshold_relation(entries: Iterable[DictionaryEntry], k: float) -> list[DictionaryEntry]:
    """Keep entries at distance <= k, preserving order."""
    _check_threshold(k)
    return [e for e in entries if e.distance <= k]

