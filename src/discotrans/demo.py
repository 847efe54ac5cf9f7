"""A small built-in language pair: number-aware nouns collapsing to plain nouns.

The source model distinguishes singular and plural noun types, both
four-dimensional (three content coordinates plus a quantity
coordinate); the target model has a single three-dimensional noun type.
The translation keeps the content coordinates and forgets the quantity,
so sentences that differed only in number become indistinguishable.
Used by the test-suite fixtures and the example scripts.
"""

from __future__ import annotations

import numpy as np

from .grammar import parse_type
from .lexicon import Lexicon
from .product_space import PSObject
from .semantics import LanguageModel, make_tensor
from .translation import Translation

WEARS_MATRIX = np.array(
    [
        [1, 1, 1, 0],
        [-1, -1, -1, 0],
        [1, 1, 1, 0],
        [-2, -2, -1, 1],
    ],
    dtype=float,
)

DROP_QUANTITY = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
    ],
    dtype=float,
)


def number_aware_model() -> LanguageModel:
    return LanguageModel("number-aware", {"n_s": 4, "n_p": 4, "n": 3, "s": 1})


def number_blind_model() -> LanguageModel:
    return LanguageModel("number-blind", {"n": 3, "s": 1})


def wardrobe_lexicon() -> Lexicon:
    """Nouns with a quantity coordinate and a polymorphic transitive verb."""
    model = number_aware_model()

    def entry(type_text: str, data) -> PSObject:
        return PSObject(make_tensor(model, parse_type(type_text), data))

    wears = tuple(
        entry(f"{subj}^r s {obj}^l", WEARS_MATRIX.reshape(4, 1, 4))
        for subj in ("n_s", "n_p")
        for obj in ("n_s", "n_p")
    )
    return Lexicon(
        model,
        {
            "Rosie": (entry("n_s", [2, 5, 3, 1]),),
            "boots": (entry("n_p", [1, 0, 0, 2]),),
            "a_boot": (entry("n_p", [1, 0, 0, 1]),),
            "wears": wears,
        },
    )


def collapse_number_translation() -> Translation:
    """Merge singular and plural nouns, dropping the quantity coordinate."""
    return Translation(
        number_aware_model(),
        number_blind_model(),
        j={
            "n_s": parse_type("n"),
            "n_p": parse_type("n"),
            "n": parse_type("n"),
            "s": parse_type("s"),
        },
        alpha={
            "n_s": DROP_QUANTITY,
            "n_p": DROP_QUANTITY,
            "n": np.eye(3),
            "s": np.eye(1),
        },
    )
