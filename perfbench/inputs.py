"""Seeded inputs for every workload, as plain arrays and JSON documents.

The documents follow the file formats of the discotrans README.  Floats
are written with ``json``'s shortest round-trip repr, so a file read back
gives bit-identical arrays; that is what lets a target word made by
pushing a source word through the translation sit at distance exactly 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Lex:
    """A lexicon as the benchmark generated it: (word, type, array) senses."""

    name: str
    dims: dict[str, int]
    senses: list[tuple[str, str, np.ndarray]] = field(default_factory=list)

    def shape(self, type_text: str) -> tuple[int, ...]:
        return tuple(self.dims[s.split("^")[0]] for s in type_text.split())

    def add(self, word: str, type_text: str, array) -> None:
        self.senses.append((word, type_text, np.asarray(array, float).reshape(self.shape(type_text))))

    def by_word(self) -> dict[str, list[tuple[str, np.ndarray]]]:
        words: dict[str, list[tuple[str, np.ndarray]]] = {}
        for word, type_text, array in self.senses:
            words.setdefault(word, []).append((type_text, array))
        return words

    def doc(self) -> dict:
        return {
            "format": 1,
            "model": model_doc(self.name, self.dims),
            "words": [
                {"word": w, "type": t, "data": a.ravel().tolist()} for w, t, a in self.senses
            ],
        }


@dataclass
class Trans:
    """A translation: grammar map as type strings, one matrix per basic type."""

    source: Lex
    target_name: str
    target_dims: dict[str, int]
    j: dict[str, str]
    alpha: dict[str, np.ndarray]

    def doc(self) -> dict:
        return {
            "format": 1,
            "source": model_doc(self.source.name, self.source.dims),
            "target": model_doc(self.target_name, self.target_dims),
            "j": dict(self.j),
            "alpha": {b: m.tolist() for b, m in self.alpha.items()},
        }


def model_doc(name: str, dims: dict[str, int]) -> dict:
    return {"format": 1, "name": name, "basic_types": dict(dims)}


def write_json(doc: dict, path: Path) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle)


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


# -- dictionary workloads ------------------------------------------------------

@dataclass(frozen=True)
class DictSize:
    dims: dict
    classes: tuple  # (label, word count, sense types)
    max_source_len: int
    max_target_len: int
    k: float | None


DICT_SIZES = {
    "dict-wide": DictSize({"x": 8, "s": 1}, (("noun", 11, ("x",)), ("verb", 4, ("x^r s x^l",))),
                          2, 2, None),
    "dict-deep": DictSize(
        {"x": 2, "s": 1},
        (("noun", 4, ("x",)), ("intr", 3, ("x^r s",)), ("adj", 2, ("x x^l",)),
         ("verb", 2, ("x^r s x^l", "x^r s"))),
        3, 2, 0.5,
    ),
}
DICT_SMOKE = {
    "dict-wide": DictSize({"x": 3, "s": 1}, (("noun", 3, ("x",)), ("verb", 2, ("x^r s x^l",))),
                          2, 2, None),
    "dict-deep": DictSize(
        {"x": 2, "s": 1},
        (("noun", 2, ("x",)), ("intr", 1, ("x^r s",)), ("adj", 1, ("x x^l",)),
         ("verb", 1, ("x^r s x^l", "x^r s"))),
        3, 2, 0.5,
    ),
}


@dataclass
class DictInputs:
    size: DictSize
    source: Lex
    target: Lex
    translation: Trans
    pushed: list[str]  # target words that are source words pushed through


def dict_inputs(rng: np.random.Generator, size: DictSize, push) -> DictInputs:
    """Random source lexicon and orthogonal translation; about half the
    target words are source words pushed through the translation by
    ``push`` (the library's ``translate_lexicon``), the rest random."""
    source = Lex("source", dict(size.dims))
    for label, count, types in size.classes:
        for i in range(count):
            for type_text in types:
                source.add(f"{label}{i:02d}", type_text,
                           rng.standard_normal(source.shape(type_text)))
    alpha = {b: random_orthogonal(rng, d) for b, d in size.dims.items()}
    translation = Trans(source, "target", dict(size.dims), {b: b for b in size.dims}, alpha)
    images = push(source, translation)
    target = Lex("target", dict(size.dims))
    pushed = []
    for label, count, types in size.classes:
        n_pushed = (count + 1) // 2
        for i in range(count):
            if i < n_pushed:
                word = f"{label}{i:02d}"
                pushed.append(word)
                for type_text, array in images[word]:
                    target.add(word, type_text, array)
            else:
                for type_text in types:
                    target.add(f"t{label}{i:02d}", type_text,
                               rng.standard_normal(target.shape(type_text)))
    return DictInputs(size, source, target, translation, pushed)


def candidate_count(lex: Lex, max_len: int) -> int:
    per_position = len(lex.senses)
    return sum(per_position**n for n in range(1, max_len + 1))


# -- sentences -------------------------------------------------------------------

@dataclass(frozen=True)
class SentenceSize:
    dim: int
    nouns: int
    verbs: int
    sentences: int


SENTENCE_SIZE = SentenceSize(32, 12, 4, 64)
SENTENCE_SMOKE = SentenceSize(4, 4, 2, 8)
NUMBERS = ("n_s", "n_p")


@dataclass
class SentenceInputs:
    source: Lex
    translation: Trans
    sentences: list[tuple[str, str, str]]


def sentence_inputs(rng: np.random.Generator, size: SentenceSize) -> SentenceInputs:
    """Number-aware nouns and four-sense verbs (one sense per subject and
    object number, singular first), collapsed onto plain nouns."""
    d = size.dim
    source = Lex("number-aware", {"n_s": d, "n_p": d, "s": 1})
    for i in range(size.nouns):
        source.add(f"noun{i:02d}", NUMBERS[i % 2], rng.standard_normal(d))
    for i in range(size.verbs):
        for subj in NUMBERS:
            for obj in NUMBERS:
                source.add(f"verb{i:02d}", f"{subj}^r s {obj}^l", rng.standard_normal((d, 1, d)))
    a = random_orthogonal(rng, d)
    translation = Trans(source, "number-blind", {"n": d, "s": 1},
                        {"n_s": "n", "n_p": "n", "s": "s"},
                        {"n_s": a, "n_p": a, "s": np.eye(1)})
    sentences = [
        (f"noun{rng.integers(size.nouns):02d}", f"verb{rng.integers(size.verbs):02d}",
         f"noun{rng.integers(size.nouns):02d}")
        for _ in range(size.sentences)
    ]
    return SentenceInputs(source, translation, sentences)


# -- naturality checks --------------------------------------------------------------

@dataclass(frozen=True)
class VerifySize:
    n: int
    s: int
    image_n: int  # the isometric translation sends n to "n c"; image_n * image_c == n
    image_c: int


VERIFY_SIZE = VerifySize(6, 2, 3, 2)
VERIFY_SMOKE = VerifySize(2, 2, 2, 1)

# (source type, target type) of each checked reduction: transitive,
# intransitive, adjective + intransitive, adjective + noun, intransitive +
# adverb.  The two with five noun axes cost far more than the other three;
# keeping them a minority puts the median check inside the light group
# instead of on the boundary between the two groups.
REDUCTIONS = (
    ("n n^r s n^l n", "s"),
    ("n n^r s", "s"),
    ("n n^l n n^r s", "s"),
    ("n n^l n", "n"),
    ("n n^r s s^r s", "s"),
)


def verify_inputs(rng: np.random.Generator, size: VerifySize) -> dict[str, tuple[Trans, bool]]:
    """Translations to check, each with whether it must commute with
    every reduction: an orthogonal one, an isometric one whose noun image
    has two simple types, and a perturbed copy of the orthogonal one."""
    model = Lex("plain", {"n": size.n, "s": size.s})
    orth = Trans(model, "plain", dict(model.dims), {"n": "n", "s": "s"},
                 {"n": random_orthogonal(rng, size.n), "s": random_orthogonal(rng, size.s)})
    iso = Trans(model, "split", {"n": size.image_n, "c": size.image_c, "s": size.s},
                {"n": "n c", "s": "s"},
                {"n": random_orthogonal(rng, size.n), "s": random_orthogonal(rng, size.s)})
    bent = Trans(model, "plain", dict(model.dims), {"n": "n", "s": "s"},
                 {"n": orth.alpha["n"] + 0.05 * rng.standard_normal((size.n, size.n)),
                  "s": orth.alpha["s"]})
    return {"orthogonal": (orth, True), "isometric": (iso, True), "perturbed": (bent, False)}
