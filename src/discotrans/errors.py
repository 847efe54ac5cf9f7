"""Exception types and argument rules shared across the package."""

import numbers

import numpy as np


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not.

    >>> [is_integer(v) for v in (2, True, 2.0, np.int64(2), np.float32(0.5))]
    [True, False, False, True, False]
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a real number, numpy's included; a bool is not.

    >>> [is_real(v) for v in (2, True, 2.0, np.int64(2), np.float32(0.5))]
    [True, False, True, True, True]
    """
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class DiscotransError(Exception):
    """Base class for all errors raised by this package."""


class TypeSyntaxError(DiscotransError):
    """A type string could not be parsed."""


class UnknownBasicTypeError(DiscotransError):
    """A basic type is not declared by the relevant language model or grammar map."""


class TypeMismatchError(DiscotransError):
    """Two objects that must share a pregroup type (or be composable) do not."""


class InvalidReductionError(DiscotransError):
    """A reduction's cups fail the planarity / adjoint-pair validity check."""


class ModelMismatchError(DiscotransError):
    """Operands belong to different language models."""


class UnknownWordError(DiscotransError):
    """A phrase uses a word that is not in the lexicon."""


class SenseIndexError(DiscotransError):
    """A phrase's sense choice points outside a word's entry list."""


class NoReductionError(DiscotransError):
    """No type reduction exists from a phrase's type to the requested target."""


class NonFunctorialTranslationError(DiscotransError):
    """The requested grammar map cannot be realised by a single-valued monoidal functor."""


class RankDeficientError(DiscotransError):
    """The nearest-orthogonal projection is not unique for a singular input."""


class BudgetExceededError(DiscotransError):
    """An input needs more work than the library will do.

    A dictionary build that would enumerate more phrase pairs than its cap,
    or a type too long for the reduction search.
    """


class FormatError(DiscotransError):
    """An input document does not match the expected file schema."""


class NonFiniteError(DiscotransError):
    """A computed value overflowed float64 to infinity or NaN."""
