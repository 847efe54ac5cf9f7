"""Phrase dictionaries induced by a translation between two lexicons.

Every source phrase is translated, reduced onto a target phrase's type
(or onto a common filter type), and paired with that phrase at the
resulting Euclidean distance.  Thresholding keeps only pairs whose
meanings are close enough.

Phrases are handled in type buckets: all phrases of one type sit in one
tensor stack, each (source bucket, target bucket) pair is searched for
reductions once, and each reduction contracts the whole source stack
once before its distances are computed a block of rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ModelMismatchError
from .grammar import PregroupType, Reduction, reduce_search
from .lexicon import Lexicon, Phrase, lex_phrase
from .semantics import _contract
from .translation import Translation, translate_object

# One block of the broadcast source-minus-target difference holds at most
# this many float64 entries (rows x target phrases x row width).
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
        return (
            self.distance,
            self.source_phrase.words,
            self.target_phrase.words,
            self.source_phrase.sense_choice,
            self.target_phrase.sense_choice,
            self.reduction.sorted_cups,
        )


@dataclass(frozen=True)
class DictionaryQuery:
    max_source_len: int = 1
    max_target_len: int = 1
    target_type_filter: PregroupType | None = None
    threshold: float | None = None
    max_pairs: int = 100_000

    def __post_init__(self) -> None:
        if self.max_source_len < 1 or self.max_target_len < 1:
            raise ValueError("phrase length caps must be at least 1")
        if self.threshold is not None and (self.threshold < 0 or math.isnan(self.threshold)):
            raise ValueError("threshold must be non-negative")


def _candidate_count(lex: Lexicon, max_len: int) -> int:
    per_position = sum(len(senses) for senses in lex.entries.values())
    return sum(per_position**length for length in range(1, max_len + 1))


def _phrase_buckets(
    lex: Lexicon, max_len: int
) -> list[tuple[PregroupType, list[Phrase], np.ndarray]]:
    """Every phrase-with-senses up to the length cap, grouped by type.

    Each bucket is (type, phrases, stack) with one phrase tensor per row
    of the stack.  Phrases grow one word at a time on the right by the
    outer products ``lex_phrase`` takes, so every row is bitwise equal to
    its phrase's ``lex_phrase`` tensor.  Word sequences whose types
    concatenate to the same type share a bucket.
    """
    by_type: dict[PregroupType, tuple[list, list]] = {}
    for word in lex.words:
        for sense, obj in enumerate(lex.senses(word)):
            labels, arrays = by_type.setdefault(obj.type, ([], []))
            labels.append(((word,), (sense,)))
            arrays.append(obj.meaning.array)
    word_stacks = [(g, labels, np.stack(arrays)) for g, (labels, arrays) in by_type.items()]
    buckets: dict[PregroupType, list] = {}
    level = word_stacks
    for length in range(1, max_len + 1):
        if length > 1:
            level = [
                (g @ h, [(pw + w, ps + s) for pw, ps in prefixes for w, s in labels],
                 _grow(stack, word_stack))
                for g, prefixes, stack in level
                for h, labels, word_stack in word_stacks
            ]
        for g, labels, stack in level:
            buckets.setdefault(g, []).append((labels, stack))
    return [
        (
            g,
            [Phrase(w, s) for labels, _ in parts for w, s in labels],
            parts[0][1] if len(parts) == 1 else np.concatenate([stack for _, stack in parts]),
        )
        for g, parts in buckets.items()
    ]


def _grow(prefixes: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Every stacked prefix times every stacked word on its right, prefix-major."""
    out = np.empty((len(prefixes), len(words), *prefixes.shape[1:], *words.shape[1:]))
    np.multiply.outer(prefixes, words, out=np.moveaxis(out, 1, prefixes.ndim))
    return out.reshape(-1, *out.shape[2:])


def _reduced_rows(r: Reduction, stack: np.ndarray) -> np.ndarray:
    """``r`` applied to every phrase of a stack, one flattened row each.

    The stack's batch axis is handed to ``_contract`` as its trailing
    pass-through axis but stays outermost in memory, so the sums within
    a row do not depend on how many rows there are.  A lone phrase is
    stacked twice: numpy sums a single full reduction in another order
    than a batch, and a pushed-through pair is exactly 0 only when both
    sides went through the same arithmetic.
    """
    n = len(stack)
    if n == 1:
        stack = np.concatenate([stack, stack])
    out = _contract(r, np.moveaxis(stack, 0, -1))
    return np.moveaxis(out, -1, 0).reshape(len(stack), -1)[:n]


def _distances(source_rows: np.ndarray, target_rows: np.ndarray) -> np.ndarray:
    """Euclidean distance from every source row to every target row.

    Each difference row is C-contiguous and dotted with itself in one
    BLAS call, as ``np.linalg.norm`` does, so every value equals
    ``frobenius_distance`` of the two rows bit for bit.
    """
    diff = np.empty((len(source_rows), *target_rows.shape))
    np.subtract(source_rows[:, None, :], target_rows[None, :, :], out=diff)
    return np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])


def _image_lexicon(t: Translation, lex: Lexicon, words) -> Lexicon:
    """Each sense of each word translated once, in sense order.

    Unlike ``translate_lexicon`` nothing is merged, so sense indices
    still refer to the source lexicon.  Phrases built from these images
    equal the translated phrases because a translation is monoidal, and
    a pushed-through target phrase is then bitwise equal to its source
    image, keeping its distance exactly 0.
    """
    return Lexicon(
        t.target_model,
        {w: tuple(translate_object(t, obj) for obj in lex.senses(w)) for w in words},
    )


def build_dictionary(
    lexA: Lexicon, lexB: Lexicon, t: Translation, q: DictionaryQuery
) -> list[DictionaryEntry]:
    """Enumerate entry triples over the two vocabularies.

    Without a filter type, each target phrase is taken at its own type;
    with one, both sides are first brought onto the filter type and the
    target side uses its first reduction.  Entries above the threshold
    (when given) are dropped; output is sorted by (distance, phrases).
    """
    if lexA.model != t.source_model:
        raise ModelMismatchError(
            f"source lexicon uses model {lexA.model.name!r}, translation starts at "
            f"{t.source_model.name!r}"
        )
    if lexB.model != t.target_model:
        raise ModelMismatchError(
            f"target lexicon uses model {lexB.model.name!r}, translation lands in "
            f"{t.target_model.name!r}"
        )
    n_source = _candidate_count(lexA, q.max_source_len)
    n_target = _candidate_count(lexB, q.max_target_len)
    if n_source * n_target > q.max_pairs:
        raise BudgetExceededError(
            f"{n_source} x {n_target} phrase pairs exceed the cap of {q.max_pairs}; "
            "raise max_pairs or lower the length limits"
        )

    sources = _phrase_buckets(_image_lexicon(t, lexA, lexA.words), q.max_source_len)
    buckets = _phrase_buckets(lexB, q.max_target_len)
    if q.target_type_filter is None:
        targets = [(g, phrases, stack.reshape(len(phrases), -1)) for g, phrases, stack in buckets]
    else:
        filtered_phrases, filtered_rows = [], []
        for g, phrases, stack in buckets:
            onto = reduce_search(g, q.target_type_filter, max_results=1)
            if onto:
                filtered_phrases += phrases
                filtered_rows.append(_reduced_rows(onto[0], stack))
        targets = []
        if filtered_rows:
            targets.append((q.target_type_filter, filtered_phrases, np.concatenate(filtered_rows)))
    limit = math.inf if q.threshold is None else q.threshold

    entries = []
    for source_type, source_phrases, source_stack in sources:
        for target_type, target_phrases, target_rows in targets:
            for r in reduce_search(source_type, target_type):
                reduced = _reduced_rows(r, source_stack)
                step = max(1, _BLOCK_ELEMENTS // target_rows.size)
                for start in range(0, len(reduced), step):
                    block = _distances(reduced[start : start + step], target_rows)
                    kept_i, kept_j = np.nonzero(~(block > limit))
                    entries.extend(
                        DictionaryEntry(source_phrases[start + i], target_phrases[j], r, d)
                        for i, j, d in zip(
                            kept_i.tolist(), kept_j.tolist(), block[kept_i, kept_j].tolist()
                        )
                    )
    entries.sort(key=DictionaryEntry.sort_key)
    return entries


def threshold_relation(entries: list[DictionaryEntry], k: float) -> list[DictionaryEntry]:
    """Keep entries at distance <= k, preserving order."""
    if k < 0 or math.isnan(k):
        raise ValueError("threshold must be non-negative")
    return [e for e in entries if e.distance <= k]


def validate_entry(
    lexA: Lexicon, lexB: Lexicon, t: Translation, entry: DictionaryEntry
) -> float:
    """Recompute an entry's distance from the per-word lexicon data, by
    the build's own contraction and distance arithmetic."""
    source_words = set(entry.source_phrase.words)
    image = lex_phrase(_image_lexicon(t, lexA, source_words), entry.source_phrase)
    target = lex_phrase(lexB, entry.target_phrase)
    target_row = target.meaning.array.reshape(1, -1)
    if entry.reduction.target != target.type:
        onto = reduce_search(target.type, entry.reduction.target, max_results=1)
        if not onto:
            raise ModelMismatchError("entry's reduction target is unreachable from the target phrase")
        target_row = _reduced_rows(onto[0], target.meaning.array[None])
    source_row = _reduced_rows(entry.reduction, image.meaning.array[None])
    return float(_distances(source_row, target_row)[0, 0])
