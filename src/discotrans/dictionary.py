"""Phrase dictionaries induced by a translation between two lexicons.

Every source phrase is translated, reduced onto a target phrase's type
(or onto a common filter type), and paired with that phrase at the
resulting Euclidean distance.  Thresholding keeps only pairs whose
meanings are close enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .errors import BudgetExceededError, ModelMismatchError
from .grammar import PregroupType, Reduction, reduce_search
from .lexicon import Lexicon, Phrase, lex_phrase
from .product_space import PSObject, frobenius_distance
from .semantics import _contract
from .translation import Translation, translate_object


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
        if self.threshold is not None and self.threshold < 0:
            raise ValueError("threshold must be non-negative")


def _candidate_count(lex: Lexicon, max_len: int) -> int:
    per_position = sum(len(senses) for senses in lex.entries.values())
    return sum(per_position**length for length in range(1, max_len + 1))


def _candidates(lex: Lexicon, max_len: int):
    """All (phrase-with-senses, object) pairs up to the length cap, in
    deterministic word order."""
    vocab = lex.words
    for length in range(1, max_len + 1):
        for words in product(vocab, repeat=length):
            for senses in product(*(range(len(lex.senses(w))) for w in words)):
                phrase = Phrase(tuple(words), tuple(senses))
                yield phrase, lex_phrase(lex, phrase)


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

    images = _image_lexicon(t, lexA, lexA.words)
    translated = list(_candidates(images, q.max_source_len))
    targets = list(_candidates(lexB, q.max_target_len))

    entries = []
    for target_phrase, target_obj in targets:
        target_type = target_obj.type
        target_array = target_obj.meaning.array
        if q.target_type_filter is not None:
            onto = reduce_search(target_type, q.target_type_filter, max_results=1)
            if not onto:
                continue
            target_type = q.target_type_filter
            target_array = _contract(onto[0], target_array)
        for source_phrase, image in translated:
            for r in reduce_search(image.type, target_type):
                distance = frobenius_distance(
                    _contract(r, image.meaning.array), target_array
                )
                if q.threshold is not None and distance > q.threshold:
                    continue
                entries.append(
                    DictionaryEntry(source_phrase, target_phrase, r, distance)
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
    """Recompute an entry's distance from the per-word lexicon data."""
    source_words = set(entry.source_phrase.words)
    image = lex_phrase(_image_lexicon(t, lexA, source_words), entry.source_phrase)
    target: PSObject = lex_phrase(lexB, entry.target_phrase)
    target_array = target.meaning.array
    if entry.reduction.target != target.type:
        onto = reduce_search(target.type, entry.reduction.target, max_results=1)
        if not onto:
            raise ModelMismatchError("entry's reduction target is unreachable from the target phrase")
        target_array = _contract(onto[0], target_array)
    return frobenius_distance(_contract(entry.reduction, image.meaning.array), target_array)
