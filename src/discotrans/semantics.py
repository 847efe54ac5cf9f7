"""Language models: dimension assignments and reductions as contractions.

A language model sends each basic type to a dimension; a pregroup type
then names a tensor shape (adjoint exponents keep the base dimension,
duals being identified with their primal along the fixed basis).  A
reduction acts on a tensor of its source type by summing each cupped
axis pair against the canonical dot product.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from types import MappingProxyType

import numpy as np

from .errors import NonFiniteError, TypeMismatchError, UnknownBasicTypeError, is_integer
from .grammar import PregroupType, Reduction


@dataclass(frozen=True)
class LanguageModel:
    """Assignment of a positive dimension to every basic type.

    >>> m = LanguageModel("toy", {"n": 4, "s": 1})
    >>> m.dim("n")
    4
    """

    name: str
    dims: Mapping[str, int]

    def __post_init__(self) -> None:
        for base, dim in self.dims.items():
            if not is_integer(dim) or dim < 1:
                raise ValueError(f"dimensions must be positive integers, but {base!r} has {dim!r}")
        # the model's own read-only mapping of Python ints: the caller's dict may change later
        dims = {base: int(dim) for base, dim in self.dims.items()}
        object.__setattr__(self, "dims", MappingProxyType(dims))

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
    ``translate_object``) adopt the arrays they have just made, without a
    copy.
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
    arr = np.asarray(data, dtype=float)
    if arr.size != math.prod(shape):
        raise TypeMismatchError(
            f"type '{g}' in model {model.name!r} needs {math.prod(shape)} entries, "
            f"got {arr.size}"
        )
    return Tensor(g, arr.reshape(shape))


def tensor_product(u: Tensor, v: Tensor) -> Tensor:
    """Outer product (``_join`` with no batch axes); flattens row-major to
    the Kronecker product."""
    return Tensor._adopt(u.type @ v.type, _join(u.array, v.array, 0, 0))


def _contract(r: Reduction, *arrays: np.ndarray) -> np.ndarray:
    """Apply a reduction's cups as dot-product contractions, in a fixed order.

    The operands carry ``r.source``'s axes in order: one phrase tensor,
    or several factors side by side (word tensors) whose outer product
    is then never formed whole.  Each operand may lead with the same
    number of batch axes; these lead the result, operand by operand,
    before the survivors.

    Operands join left to right by outer product (``_join``), each
    pairwise product formed in full before the cups it closes are taken.
    Those cups, the ones whose right end lies in the newest operand,
    become diagonal views, and are then summed innermost first, each over
    its index in ascending order, by elementwise adds alone.  So an
    entry's bits depend only on its own operands and the reduction, never
    on the batch size or the memory layout.  The identity on one operand
    returns that operand; on several, their C-contiguous join.
    """
    ranks = [a.ndim for a in arrays]
    extra, rest = divmod(sum(ranks) - len(r.source), len(arrays))
    # every operand leads with ``extra`` batch axes, and each cup joins two
    # axes of one size
    sizes = [d for a in arrays for d in a.shape[extra:]]
    if extra < 0 or rest or min(ranks) < extra or any(sizes[i] != sizes[j] for i, j in r.cups):
        shapes = [a.shape for a in arrays]
        raise TypeMismatchError(f"operands of shapes {shapes} cannot carry type '{r.source}'")
    left_end = {j: i for i, j in r.cups}
    # ``opened`` holds the source indices of out's axes after its batch axes
    out, batch, opened, start = arrays[0], extra, [], 0
    for n, a in enumerate(arrays):
        if n:
            out = _join(out, a, batch, extra)
            batch += extra
        stop = start + a.ndim - extra
        opened += range(start, stop)
        closed = [(left_end[j], j) for j in range(start, stop) if j in left_end]
        for i, j in closed:
            out = out.diagonal(0, batch + opened.index(i), batch + opened.index(j))
            opened.remove(i)
            opened.remove(j)
        for _ in closed:
            # the innermost cup's diagonal, its index summed in ascending order
            axis = batch + len(opened)
            out = reduce(np.add, out.transpose(axis, *range(axis), *range(axis + 1, out.ndim)))
        start = stop
    return out


def _join(out: np.ndarray, a: np.ndarray, batch: int, extra: int) -> np.ndarray:
    """The outer product of ``out`` and ``a``, written C-contiguous with
    every batch axis in front: ``out``'s ``batch`` leading axes, then
    ``a``'s ``extra``, then the other axes of ``out`` and of ``a``."""
    joined = np.empty((*out.shape[:batch], *a.shape[:extra], *out.shape[batch:], *a.shape[extra:]))
    # written through a view in the axis order ``np.multiply.outer`` makes: out's, then a's
    k = out.ndim + extra
    order = *range(batch), *range(batch + extra, k), *range(batch, batch + extra)
    np.multiply.outer(out, a, out=joined.transpose(*order, *range(k, joined.ndim)))
    return joined


def _check_space(model: LanguageModel, t: Tensor) -> None:
    """A tensor belongs to ``model`` when its shape is its type's space there."""
    if list(t.shape) != space_shape(model, t.type):
        raise TypeMismatchError(
            f"tensor shape {list(t.shape)} does not match model "
            f"{model.name!r} shape {space_shape(model, t.type)}"
        )


def apply_reduction(model: LanguageModel, r: Reduction, t: Tensor) -> Tensor:
    """Evaluate the reduction on a tensor of its source type."""
    if t.type != r.source:
        raise TypeMismatchError(
            f"tensor has type '{t.type}' but reduction starts at '{r.source}'"
        )
    _check_space(model, t)
    # an identity reduction gives t's own frozen array, adopted as it is:
    # neither tensor can write to it
    return Tensor._adopt(r.target, _contract(r, t.array))


def normalize_sentence(t: Tensor) -> Tensor:
    """Collapse a one-dimensional sentence value: zero stays zero, anything
    else finite becomes one, and a non-finite value raises ``NonFiniteError``."""
    if t.array.size != 1:
        raise TypeMismatchError(
            f"normalization needs a one-dimensional sentence value, got shape {list(t.shape)}"
        )
    value = float(t.flat[0])
    if not math.isfinite(value):
        raise NonFiniteError(
            f"sentence value {value} cannot be normalised: the arithmetic overflows float64"
        )
    return Tensor._adopt(t.type, np.full(t.shape, float(value != 0.0)))
