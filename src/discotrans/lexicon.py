"""Lexicons: word-to-meaning tables and the phrase-meaning pipeline.

A word may carry several typed entries (polymorphic words such as a
transitive verb accepting singular or plural arguments).  Phrase
meanings default to each word's first sense; when that assignment has
no reduction to the requested target type, the remaining sense
combinations are tried in index order.  Senses of one word that share a
type reduce alike, so only the first sense of each distinct type is
tried.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import matmul
from types import MappingProxyType

from .errors import NoReductionError, SenseIndexError, UnknownWordError, is_integer
from .grammar import PregroupType, Reduction, reduce_search
from .product_space import PSObject, ps_tensor
from .semantics import LanguageModel, Tensor, apply_reduction, space_shape


@dataclass(frozen=True)
class Lexicon:
    model: LanguageModel
    entries: Mapping[str, tuple[PSObject, ...]]

    def __post_init__(self) -> None:
        normalized = {}
        for word, objs in self.entries.items():
            # a word is one token of a phrase as Phrase.parse splits it
            if not isinstance(word, str) or word.split() != [word]:
                raise ValueError(f"word {word!r} must be a non-empty string with no whitespace")
            objs = tuple(objs)
            if not objs:
                raise ValueError(f"word {word!r} has an empty entry list")
            for obj in objs:
                shape = space_shape(self.model, obj.type)
                if list(obj.meaning.shape) != shape:
                    raise ValueError(
                        f"entry for {word!r} has shape {list(obj.meaning.shape)}, "
                        f"model {self.model.name!r} expects {shape} for '{obj.type}'"
                    )
            normalized[word] = objs
        object.__setattr__(self, "entries", MappingProxyType(normalized))

    @property
    def words(self) -> list[str]:
        return sorted(self.entries)

    def senses(self, word: str) -> tuple[PSObject, ...]:
        try:
            return self.entries[word]
        except KeyError:
            raise UnknownWordError(f"word {word!r} is not in the lexicon") from None


@dataclass(frozen=True)
class Phrase:
    """A non-empty word sequence, optionally pinned to per-word senses."""

    words: tuple[str, ...]
    sense_choice: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if isinstance(self.words, str) or isinstance(self.sense_choice, str):
            raise ValueError("words and sense_choice are sequences, not strings (see Phrase.parse)")
        object.__setattr__(self, "words", tuple(self.words))
        if not self.words:
            raise ValueError("a phrase needs at least one word")
        if self.sense_choice is not None:
            choice = tuple(self.sense_choice)
            if len(choice) != len(self.words):
                raise SenseIndexError(
                    f"{len(choice)} sense indices for {len(self.words)} words"
                )
            object.__setattr__(self, "sense_choice", choice)

    @classmethod
    def parse(cls, text: str) -> Phrase:
        return cls(tuple(text.split()))

    def __str__(self) -> str:
        return " ".join(self.words)


def _resolve_senses(lex: Lexicon, p: Phrase) -> tuple[int, ...]:
    choice = p.sense_choice or (0,) * len(p.words)
    for word, idx in zip(p.words, choice):
        senses = lex.senses(word)
        # checked here, not in Phrase, which dict makes for every kept row
        if not is_integer(idx):
            raise SenseIndexError(f"sense {idx!r} for {word!r} is not an integer")
        if not 0 <= idx < len(senses):
            raise SenseIndexError(
                f"sense {idx} out of range for {word!r} ({len(senses)} entries)"
            )
    return choice


def _chosen_objects(lex: Lexicon, p: Phrase, choice: tuple[int, ...]) -> list[PSObject]:
    return [lex.senses(w)[i] for w, i in zip(p.words, choice)]


def lex_phrase(lex: Lexicon, p: Phrase) -> PSObject:
    """Monoidal product of the per-word objects, left to right."""
    return reduce(ps_tensor, _chosen_objects(lex, p, _resolve_senses(lex, p)))


def _sense_combinations(lex: Lexicon, p: Phrase):
    if p.sense_choice is not None:
        yield _resolve_senses(lex, p)
        return
    yield from product(*(_first_sense_per_type(lex.senses(w)) for w in p.words))


def _first_sense_per_type(senses: tuple[PSObject, ...]) -> list[int]:
    """The lowest sense index of each distinct type, in index order.

    The first reducing combination in index order uses only these: a
    sense with a lower-indexed twin of its type could be swapped for the
    twin, giving an earlier combination of the same type.
    """
    first: dict[PregroupType, int] = {}
    for i, obj in enumerate(senses):
        first.setdefault(obj.type, i)
    return list(first.values())


def phrase_meaning(lex: Lexicon, p: Phrase, target: PregroupType) -> Tensor:
    """Reduce the phrase's meaning onto the target type.

    Sense combinations are tried in index order (all-first-senses
    first), one sense per distinct type of each word; the first whose
    combined type reduces to the target wins, and its first reduction is
    applied.
    """
    tensor, _, _ = phrase_reduction(lex, p, target)
    return tensor


def phrase_reduction(
    lex: Lexicon, p: Phrase, target: PregroupType
) -> tuple[Tensor, Reduction, tuple[int, ...]]:
    """Like phrase_meaning but also reports the reduction and senses used."""
    for choice in _sense_combinations(lex, p):
        objs = _chosen_objects(lex, p, choice)
        found = reduce_search(reduce(matmul, (obj.type for obj in objs)), target, max_results=1)
        if not found:
            continue
        meaning = reduce(ps_tensor, objs).meaning
        return apply_reduction(lex.model, found[0], meaning), found[0], choice
    raise NoReductionError(
        f"no sense assignment of '{p}' reduces to '{target}'"
    )
