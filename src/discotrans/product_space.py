"""Product-space view of a language model: typed vectors and labelled reductions.

Objects pair a pregroup type with a tensor living in its space; a
morphism pairs a reduction with the Euclidean (Frobenius) distance
between the reduced source tensor and the target tensor.  Between any
two tensors there is exactly one such arrow, so composite labels are
recomputed from the outer endpoints rather than accumulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, TypeMismatchError
from .grammar import PregroupType, Reduction, compose_reductions, tensor_reductions
from .semantics import LanguageModel, Tensor, _check_space, _contract, tensor_product


@dataclass(frozen=True)
class PSObject:
    """A (type, meaning) pair, its type being the meaning tensor's own."""

    meaning: Tensor

    @property
    def type(self) -> PregroupType:
        return self.meaning.type


@dataclass(frozen=True)
class PSMorphism:
    """A reduction together with its distance label."""

    reduction: Reduction
    distance: float

    def __post_init__(self) -> None:
        if not self.distance >= 0:  # NaN fails every comparison
            raise ValueError(f"distance must be non-negative, got {self.distance}")


def frobenius_distance(u: np.ndarray, v: np.ndarray) -> float:
    """The Euclidean distance between two arrays of equal size: ``_distances``
    on one pair of rows."""
    u, v = np.reshape(u, (1, -1)), np.reshape(v, (1, -1))
    if u.size != v.size:
        raise TypeMismatchError(f"arrays of {u.size} and {v.size} entries have no distance")
    return float(_distances(u, v)[0, 0])


def _distances(source_rows: np.ndarray, target_rows: np.ndarray) -> np.ndarray:
    """Euclidean distance from every source row to every target row.

    Each difference row is C-contiguous and dotted with itself in one
    BLAS call, so a pair's value does not depend on the other rows.
    """
    diff = np.empty((len(source_rows), *target_rows.shape))
    np.subtract(source_rows[:, None, :], target_rows[None, :, :], out=diff)
    return np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])


def ps_morphism(
    model: LanguageModel, source: PSObject, r: Reduction, target: PSObject
) -> PSMorphism:
    """The unique arrow along r: its label measures how far the reduced
    source meaning lands from the target meaning.  Raises
    ``NonFiniteError`` when the label overflows to inf or NaN."""
    _check_endpoints(r, source, target)
    _check_space(model, source.meaning)
    return _arrow(r, source, target)


def ps_compose(
    m2: PSMorphism, m1: PSMorphism, first: PSObject, middle: PSObject, last: PSObject
) -> PSMorphism:
    """Composite arrow; the label is recomputed between the outer endpoints."""
    _check_endpoints(m1.reduction, first, middle)
    _check_endpoints(m2.reduction, middle, last)
    return _arrow(compose_reductions(m2.reduction, m1.reduction), first, last)


def ps_tensor(a: PSObject, b: PSObject) -> PSObject:
    """Monoidal product: concatenate types, outer-multiply meanings."""
    return PSObject(tensor_product(a.meaning, b.meaning))


def ps_tensor_morphism(
    m1: PSMorphism,
    m2: PSMorphism,
    source1: PSObject,
    source2: PSObject,
    target1: PSObject,
    target2: PSObject,
) -> PSMorphism:
    """Side-by-side product of arrows, label recomputed on the product endpoints."""
    _check_endpoints(m1.reduction, source1, target1)
    _check_endpoints(m2.reduction, source2, target2)
    product = tensor_reductions(m1.reduction, m2.reduction)
    return _arrow(product, (source1, source2), (target1, target2), lambda ends: ps_tensor(*ends))


def _arrow(r: Reduction, source, target, make=lambda o: o) -> PSMorphism:
    """The arrow along ``r`` from ``make(source)`` to ``make(target)``, its
    label measured between the contracted source meaning and the target
    meaning.  The endpoints are made inside the overflow guard, so overflow
    anywhere shows up as a non-finite label, which raises ``NonFiniteError``
    and is never returned.  The endpoints are not checked."""
    with np.errstate(over="ignore", invalid="ignore"):
        image = _contract(r, make(source).meaning.array)
        distance = frobenius_distance(image, make(target).meaning.array)
    if not math.isfinite(distance):
        raise NonFiniteError(
            f"the label of the arrow from '{r.source}' to '{r.target}' by {r} is {distance}: "
            "the arithmetic overflows float64"
        )
    return PSMorphism(r, distance)


def _check_endpoints(r: Reduction, source: PSObject, target: PSObject) -> None:
    """An arrow along ``r`` runs from an object of ``r``'s source type to
    one of its target type."""
    if r.source != source.type or r.target != target.type:
        raise TypeMismatchError(
            f"reduction '{r.source}' -> '{r.target}' does not fit "
            f"endpoints '{source.type}' -> '{target.type}'"
        )
