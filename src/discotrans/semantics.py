"""Language models: dimension assignments and reductions as contractions.

A language model sends each basic type to a dimension; a pregroup type
then names a tensor shape (adjoint exponents keep the base dimension,
duals being identified with their primal along the fixed basis).  A
reduction acts on a tensor of its source type by summing each cupped
axis pair against the canonical dot product.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TypeMismatchError, UnknownBasicTypeError
from .grammar import PregroupType, Reduction

_AXIS_LETTERS = string.ascii_lowercase + string.ascii_uppercase
# (cups, survivors, operand ranks) keys whose einsum subscripts are kept
_SUBSCRIPT_CACHE_SIZE = 4096


@dataclass(frozen=True)
class LanguageModel:
    """Assignment of a positive dimension to every basic type.

    >>> m = LanguageModel("toy", {"n": 4, "s": 1})
    >>> m.dim("n")
    4
    """

    name: str
    dims: dict[str, int]

    def __post_init__(self) -> None:
        for base, dim in self.dims.items():
            if dim < 1:
                raise ValueError(f"dimension of {base!r} must be >= 1, got {dim}")

    def dim(self, base: str) -> int:
        try:
            return self.dims[base]
        except KeyError:
            raise UnknownBasicTypeError(
                f"basic type {base!r} is not declared by model {self.name!r}"
            ) from None

    @property
    def basics(self) -> frozenset[str]:
        return frozenset(self.dims)


def space_shape(model: LanguageModel, g: PregroupType) -> list[int]:
    """Per-simple-type dimension list of the space F(g); [] for the unit."""
    return [model.dim(s.base) for s in g.simples]


@dataclass(frozen=True, eq=False)
class Tensor:
    """A dense real tensor typed by a pregroup word.

    The array has one axis per simple type; a unit-typed tensor is a
    0-d scalar.  Arrays are frozen and C-ordered.  ``Tensor(type, array)``
    (and so ``make_tensor``) copies the caller's array, which the caller
    may still hold and write to; the library's own operations
    (``tensor_product``, ``apply_reduction``, ``normalize_sentence``,
    ``unit_scalar``, ``translate_object``) adopt the arrays they have
    just made, without a copy.
    """

    type: PregroupType
    array: np.ndarray

    def __post_init__(self) -> None:
        self._freeze(np.array(self.array, dtype=float, order="C"))

    @classmethod
    def _adopt(cls, g: PregroupType, array) -> Tensor:
        """Wrap an array that nothing else may write to: one the library
        has just made, or a view of a frozen one.  It is frozen in place
        and kept without a copy (copied only if it is not C-ordered; a
        NumPy scalar becomes a 0-d array)."""
        tensor = object.__new__(cls)
        object.__setattr__(tensor, "type", g)
        tensor._freeze(np.asarray(array, dtype=float, order="C"))
        return tensor

    def _freeze(self, arr: np.ndarray) -> None:
        if arr.ndim != len(self.type.simples):
            raise TypeMismatchError(
                f"array of rank {arr.ndim} cannot carry type '{self.type}' "
                f"({len(self.type.simples)} simple types)"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def flat(self) -> np.ndarray:
        return self.array.reshape(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.type == other.type and np.array_equal(self.array, other.array)

    __hash__ = None

    def __str__(self) -> str:
        return f"Tensor('{self.type}', shape={list(self.shape)})"


def make_tensor(model: LanguageModel, g: PregroupType, data) -> Tensor:
    """Build a tensor of type g from flat row-major (or already shaped) data."""
    shape = space_shape(model, g)
    arr = np.asarray(data, dtype=float).reshape(shape)
    return Tensor(g, arr)


def unit_scalar(value: float = 1.0) -> Tensor:
    return Tensor._adopt(PregroupType(), np.asarray(float(value)))


def tensor_product(u: Tensor, v: Tensor) -> Tensor:
    """Outer product; flattens row-major to the Kronecker product."""
    return Tensor._adopt(u.type @ v.type, np.multiply.outer(u.array, v.array))


def _contract(r: Reduction, *arrays: np.ndarray) -> np.ndarray:
    """Apply a reduction's cups as dot-product contractions, in one einsum.

    The operands carry ``r.source``'s axes in order: one phrase tensor,
    or several factors side by side (word tensors) whose outer product
    is then never formed.  Each operand may carry the same number of
    trailing axes beyond its share of the source; these pass through,
    after the survivors, operand by operand.
    """
    subscripts = _subscripts(r.cups, r.survivors, tuple(a.ndim for a in arrays))
    return np.einsum(subscripts, *arrays, optimize="greedy" if len(arrays) > 1 else False)


@lru_cache(maxsize=_SUBSCRIPT_CACHE_SIZE)
def _subscripts(
    cups: frozenset[tuple[int, int]], survivors: tuple[int, ...], ranks: tuple[int, ...]
) -> str:
    """``_contract``'s einsum subscripts, one label per cup, survivor and
    pass-through axis, numbered left to right."""
    n = 2 * len(cups) + len(survivors)
    extra, rest = divmod(sum(ranks) - n, len(ranks))
    if extra < 0 or rest or min(ranks) < extra:
        raise TypeMismatchError(
            f"operands of ranks {list(ranks)} cannot carry a source word of length {n}"
        )
    if len(cups) + len(survivors) + extra * len(ranks) > len(_AXIS_LETTERS):
        raise TypeMismatchError("too many axes for contraction")
    letters = iter(_AXIS_LETTERS)
    partner = dict(cups)
    label = [""] * n
    for k in range(n):
        if not label[k]:
            label[k] = next(letters)
            if k in partner:
                label[partner[k]] = label[k]
    inputs, out, start = [], [label[k] for k in survivors], 0
    for rank in ranks:
        passed = [next(letters) for _ in range(extra)]
        inputs.append("".join(label[start : start + rank - extra] + passed))
        out += passed
        start += rank - extra
    return ",".join(inputs) + "->" + "".join(out)


def apply_reduction(model: LanguageModel, r: Reduction, t: Tensor) -> Tensor:
    """Evaluate the reduction on a tensor of its source type."""
    if t.type != r.source:
        raise TypeMismatchError(
            f"tensor has type '{t.type}' but reduction starts at '{r.source}'"
        )
    if list(t.shape) != space_shape(model, r.source):
        raise TypeMismatchError(
            f"tensor shape {list(t.shape)} does not match model "
            f"{model.name!r} shape {space_shape(model, r.source)}"
        )
    # an identity reduction gives a view of t's frozen array, adopted as
    # it is: neither tensor can be written to
    return Tensor._adopt(r.target, _contract(r, t.array))


def normalize_sentence(model: LanguageModel, t: Tensor) -> Tensor:
    """Collapse a one-dimensional sentence value: zero stays zero, anything else becomes one."""
    if t.array.size != 1:
        raise TypeMismatchError(
            f"normalization needs a one-dimensional sentence value, got shape {list(t.shape)}"
        )
    value = 0.0 if float(t.flat[0]) == 0.0 else 1.0
    return Tensor._adopt(t.type, np.full(t.shape, value))
