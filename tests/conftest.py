import math

import numpy as np
import pytest

from discotrans.demo import (
    collapse_number_translation,
    number_aware_model,
    number_blind_model,
    wardrobe_lexicon,
)
from discotrans.grammar import PregroupType, SimpleType
from discotrans.product_space import PSObject
from discotrans.semantics import LanguageModel, make_tensor, space_shape


@pytest.fixture
def aware_model():
    return number_aware_model()


@pytest.fixture
def blind_model():
    return number_blind_model()


@pytest.fixture
def wardrobe():
    return wardrobe_lexicon()


@pytest.fixture
def collapse():
    return collapse_number_translation()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_word(rng, bases=("x", "y"), max_len=6, z_range=(-1, 0, 1)) -> PregroupType:
    length = int(rng.integers(0, max_len + 1))
    simples = tuple(
        SimpleType(bases[rng.integers(len(bases))], int(rng.choice(z_range)))
        for _ in range(length)
    )
    return PregroupType(simples)


def random_model(rng, bases=("x", "y"), max_dim=4) -> LanguageModel:
    return LanguageModel(
        "random", {b: int(rng.integers(1, max_dim + 1)) for b in bases}
    )


def random_obj(rng, model, g) -> PSObject:
    size = math.prod(space_shape(model, g))
    return PSObject(make_tensor(model, g, rng.standard_normal(size)))
