"""Translations between language models.

A translation is a grammar map ``j`` (basic type to target word, pushed
through products and adjoints monoidally) together with one matrix per
basic type sending its meaning space into the space of its image type.
The module covers applying translations to objects, morphisms and whole
lexicons, composing them, verifying that a translation commutes with a
reduction, projecting a matrix to its nearest orthogonal one, and
fitting a matrix from example vector pairs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ModelMismatchError,
    NonFunctorialTranslationError,
    RankDeficientError,
    TypeMismatchError,
    UnknownBasicTypeError,
    is_real,
)
from .grammar import PregroupType, Reduction, SimpleType
from .lexicon import Lexicon
from .product_space import PSMorphism, PSObject, _arrow, _check_endpoints
from .semantics import LanguageModel, Tensor, space_shape


@dataclass(frozen=True, eq=False)
class Translation:
    """A grammar map plus per-basic-type meaning matrices.

    ``alpha[b]`` maps the source space of ``b`` (columns) into the
    flattened target space of ``j[b]`` (rows).  Both maps keep exactly the
    source model's basic types; keys for any other type are dropped, and
    neither map can be written to.  A source and a target model of one
    name must be one model.

    Two translations are equal when their models, grammar maps and
    matrices are.  The read-only right-hand matrix of each (basic type,
    adjoint parity) is prepared when the translation is made and kept
    with it, taking no part in equality or ``repr``; using a translation
    changes nothing in it.
    """

    source_model: LanguageModel
    target_model: LanguageModel
    j: Mapping[str, PregroupType]
    alpha: Mapping[str, np.ndarray]
    # (base, z % 2) -> (right-hand matrix, image axes), see alpha_component
    _factors: Mapping = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _same_model(self.source_model, self.target_model)
        frozen_j, frozen_alpha, factors = {}, {}, {}
        for base in self.source_model.dims:
            if base not in self.j:
                raise UnknownBasicTypeError(
                    f"grammar map does not cover basic type {base!r}"
                )
            if base not in self.alpha:
                raise UnknownBasicTypeError(f"alpha has no matrix for basic type {base!r}")
            frozen_j[base] = self.j[base]
            if not isinstance(frozen_j[base], PregroupType):
                raise ValueError(f"j[{base!r}] must be a PregroupType, got {frozen_j[base]!r}")
            image = space_shape(self.target_model, frozen_j[base])
            rows, cols = math.prod(image), self.source_model.dim(base)
            try:
                matrix = np.asarray(self.alpha[base], dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"alpha[{base!r}] is not a matrix of numbers: {exc}") from None
            if matrix.shape != (rows, cols):
                raise TypeMismatchError(
                    f"alpha[{base!r}] has shape {matrix.shape}, expected ({rows}, {cols})"
                )
            matrix = matrix.copy()
            matrix.flags.writeable = False
            frozen_alpha[base] = matrix
            # alpha's rows unflattened to the image block of base, axes (*image, cols)
            block = matrix.reshape(*image, cols)
            for parity in (0, 1):
                # the right-hand matrix of np.tensordot(array, block, axes=([0], [-1])),
                # built as tensordot builds it, so a product with it has tensordot's bits
                right = block.transpose(len(image), *range(len(image))).reshape(cols, rows)
                right.flags.writeable = False
                factors[base, parity] = (right, block.shape[:-1])
                # an odd adjoint exponent reverses the image word, and so the block axes
                block = block.transpose(*reversed(range(len(image))), len(image))
        object.__setattr__(self, "j", MappingProxyType(frozen_j))
        object.__setattr__(self, "alpha", MappingProxyType(frozen_alpha))
        object.__setattr__(self, "_factors", MappingProxyType(factors))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Translation):
            return NotImplemented
        # equal source models give both the same alpha keys
        return (
            self.source_model == other.source_model
            and self.target_model == other.target_model
            and self.j == other.j
            and all(np.array_equal(m, other.alpha[b]) for b, m in self.alpha.items())
        )

    __hash__ = None


def _same_model(a: LanguageModel, b: LanguageModel) -> None:
    """A model name names one model: two models of one name must be equal."""
    if a.name == b.name and a != b:
        raise ModelMismatchError(f"model {a.name!r} is declared twice with different dimensions")


def identity_translation(model: LanguageModel) -> Translation:
    j = {b: PregroupType((SimpleType(b),)) for b in model.dims}
    alpha = {b: np.eye(d) for b, d in model.dims.items()}
    return Translation(model, model, j, alpha)


def _image(t: Translation, s: SimpleType) -> PregroupType:
    """Image of a simple type: ``j`` of its base with the adjoint pushed through."""
    if s.base not in t.j:
        raise UnknownBasicTypeError(f"grammar map does not cover {s.base!r}")
    return t.j[s.base].adjoint(s.z)


def j_apply(t: Translation, g: PregroupType) -> PregroupType:
    """Image of a type: per-simple images with adjoints pushed through."""
    return PregroupType(tuple(x for s in g.simples for x in _image(t, s).simples))


def alpha_component(t: Translation, g: PregroupType, array) -> np.ndarray:
    """Apply the component of alpha at type ``g`` to ``array``.

    The leading axes of ``array`` carry ``g`` (one axis per simple
    type); any further trailing axes pass through unchanged.  The result
    carries ``j_apply(t, g)`` on its leading axes, followed by the same
    trailing axes.  The component is the tensor product of the
    per-simple matrices, applied one axis at a time: one ``np.dot`` per
    simple type with its prepared matrix, the operand reshaped as
    ``np.tensordot`` reshapes it, so no phrase-sized matrix is ever
    built.
    """
    array = np.asarray(array, dtype=float)
    n = len(g.simples)
    if array.ndim < n:
        raise TypeMismatchError(
            f"array of rank {array.ndim} is too small for type '{g}'"
        )
    extra = array.ndim - n
    image_rank = 0
    for axis, s in enumerate(g.simples):
        try:
            matrix, image = t._factors[s.base, s.z % 2]
        except KeyError:
            raise UnknownBasicTypeError(f"grammar map does not cover {s.base!r}") from None
        if array.shape[0] != matrix.shape[0]:
            raise TypeMismatchError(
                f"axis {axis} of the array has size {array.shape[0]}, "
                f"but '{s}' in type '{g}' needs {matrix.shape[0]}"
            )
        rest = array.shape[1:]
        operand = array.transpose(*range(1, array.ndim), 0)
        operand = operand.reshape(math.prod(rest), array.shape[0])
        array = np.dot(operand, matrix).reshape((*rest, *image))
        image_rank += len(image)
    # the g axes were consumed from the front and the image axes appended,
    # so the pass-through axes now lead; move them back behind the image
    return array.transpose(*range(extra, extra + image_rank), *range(extra))


def translate_object(t: Translation, o: PSObject) -> PSObject:
    """Image of an object: its meaning pushed through alpha axis by axis."""
    image = alpha_component(t, o.type, o.meaning.array)
    return PSObject(Tensor._adopt(j_apply(t, o.type), image))


def translate_reduction(t: Translation, r: Reduction) -> Reduction:
    """Image of a reduction: each cup becomes a nest of cups pairing the
    two image blocks inside out.

    The image is always a valid reduction onto ``j_apply(t, r.target)``.
    A cup joins ``(b, z)`` with ``(b, z+1)``.  Their images, the ``z``-th
    and ``(z+1)``-th adjoints of the word ``j[b]``, are a word and its
    right adjoint, so paired inside out they are cups.  Cups nested in the
    source nest in the image, so it stays planar, and the image blocks of
    the surviving simple types survive in order.
    """
    lengths = [len(_image(t, s)) for s in r.source.simples]
    offsets = [0, *accumulate(lengths)]
    cups = [
        (offsets[a] + k, offsets[b + 1] - 1 - k) for a, b in r.cups for k in range(lengths[a])
    ]
    return Reduction(j_apply(t, r.source), cups)


def translate_morphism(
    t: Translation, m: PSMorphism, source: PSObject, target: PSObject
) -> PSMorphism:
    """Image arrow; its distance label is recomputed between the
    translated-and-reduced source and the translated target."""
    _check_endpoints(m.reduction, source, target)
    image = translate_reduction(t, m.reduction)
    return _arrow(image, source, target, lambda o: translate_object(t, o))


def _check_model(lex: Lexicon, model: LanguageModel) -> None:
    """A lexicon meets a translation only at the model the translation
    starts at (source side) or lands in (target side); a model of the same
    name with other dimensions is reported as a model declared twice."""
    _same_model(lex.model, model)
    if lex.model != model:
        raise ModelMismatchError(
            f"lexicon uses model {lex.model.name!r}, the translation needs {model.name!r}"
        )


def _image_lexicon(t: Translation, lex: Lexicon, words, merge: bool = False) -> Lexicon:
    """Each sense of each of ``words`` translated once, in sense order.

    Without ``merge`` sense indices still refer to the source lexicon.
    Phrases built from these images equal the translated phrases because
    a translation is monoidal, and a pushed-through target phrase is then
    bitwise equal to its source image, keeping its distance exactly 0.
    With ``merge`` an image equal to an earlier image of the same word is
    dropped; equal images share a type, so the first sense of each type
    is still there.
    """
    _check_model(lex, t.source_model)
    entries = {}
    for word in words:
        images: list[PSObject] = []
        for obj in lex.senses(word):
            image = translate_object(t, obj)
            if not (merge and any(image.meaning == seen.meaning for seen in images)):
                images.append(image)
        entries[word] = tuple(images)
    return Lexicon(t.target_model, entries)


def translate_lexicon(t: Translation, lex: Lexicon) -> Lexicon:
    """Push a whole lexicon through a translation, dropping senses whose
    images coincide."""
    return _image_lexicon(t, lex, lex.entries, merge=True)


def compose_translations(t2: Translation, t1: Translation) -> Translation:
    """Pointwise composite: grammar maps compose, matrices chain."""
    if t1.target_model != t2.source_model:
        raise ModelMismatchError(
            f"cannot compose: first translation lands in {t1.target_model.name!r}, "
            f"second starts at {t2.source_model.name!r}"
        )
    j = {b: j_apply(t2, t1.j[b]) for b in t1.j}
    alpha = {}
    for b, matrix in t1.alpha.items():
        # axes (*image, cols)
        block = matrix.reshape(*space_shape(t1.target_model, t1.j[b]), matrix.shape[1])
        alpha[b] = alpha_component(t2, t1.j[b], block).reshape(-1, matrix.shape[1])
    return Translation(t1.source_model, t2.target_model, j, alpha)


@dataclass(frozen=True)
class NaturalityReport:
    max_residual: float
    passed: bool
    tolerance: float
    basis_size: int


def check_naturality(
    t: Translation, r: Reduction, tolerance: float = 1e-9
) -> NaturalityReport:
    """Verify that translating commutes with reducing along ``r``.

    Both paths (reduce-then-translate and translate-then-reduce) are
    linear, so comparing their images of every standard basis vector
    ``e_i`` of the source space is exhaustive; the report carries the
    worst per-vector Euclidean mismatch, worked out in closed form
    without building the basis or contracting anything.

    Both paths apply alpha to the survivors, so they differ only at the
    cups.  On basic type ``b`` a cup contributes ``δ(i_a, i_b)`` when
    reducing first and ``G_b[i_a, i_b]``, with ``G_b = α_bᵀ α_b``, when
    translating first: the image's nested cups pair each image block
    with its own reverse, which is the dot product of alpha's columns
    for either adjoint parity.  Hence

        residual(e_i) = ∏_survivors ‖α[:, i_s]‖ · |∏_cups G[i_a, i_b] − ∏_cups δ(i_a, i_b)|.

    Every source axis is a survivor or in exactly one cup, so the
    maximum factors into independent per-axis maxima: the largest
    column norm per survivor, times the largest cup term.  With every
    cup on its diagonal the cup term is ``|∏ diag − 1|``, and diagonals
    are sums of squares, so its extremes are the products of the
    per-cup largest and smallest diagonal entries.  With some cup off
    its diagonal it is ``|∏ G|``, largest when one cup takes its largest
    off-diagonal ``|G|`` and every other cup its largest ``|G|``.  No
    cups (or ``G = I``, an identity translation) give exactly 0.
    """
    if not is_real(tolerance):
        raise ValueError(f"tolerance must be a real number, got {tolerance!r}")
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite non-negative number, got {tolerance}")
    j_apply(t, r.source)  # raises UnknownBasicTypeError on an uncovered basic type
    alphas = [t.alpha[s.base] for s in r.source.simples]
    grams = [alphas[a].T @ alphas[a] for a, _ in r.cups]
    offs = [np.abs(g - np.diag(g.diagonal())).max() for g in grams]
    peaks = [np.abs(g).max() for g in grams]
    high, low = (math.prod(f(g.diagonal()) for g in grams) for f in (np.max, np.min))
    some_off = (off * math.prod(peaks[:c] + peaks[c + 1 :]) for c, off in enumerate(offs))
    scale = math.prod(np.linalg.norm(alphas[k], axis=0).max() for k in r.survivors)
    max_residual = float(scale * max(high - 1.0, 1.0 - low, *some_off))
    size = math.prod(space_shape(t.source_model, r.source))
    return NaturalityReport(max_residual, max_residual <= tolerance, tolerance, size)


def nearest_unitary(matrix: np.ndarray) -> np.ndarray:
    """Orthogonal matrix closest in Frobenius norm to ``matrix``.

    Parameters
    ----------
    matrix : (n, n) array_like
        Square full-rank matrix.

    Returns
    -------
    (n, n) ndarray
        The orthogonal polar factor U Vt of the singular value
        decomposition of ``matrix``.

    Raises
    ------
    RankDeficientError
        If ``matrix`` is singular; the minimizer is then not unique.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {matrix.shape}")
    u, s, vt = np.linalg.svd(matrix)
    # eps scaled first: s[0] * max(shape) alone may overflow
    cutoff = s[0] * (max(matrix.shape) * np.finfo(float).eps)
    if s[-1] <= cutoff:
        raise RankDeficientError(
            "matrix is rank deficient: every orthogonal completion of the "
            "deficient directions is equally close, so the projection is not unique"
        )
    return u @ vt


def fit_alpha(
    pairs: Sequence[tuple[Sequence[float], Sequence[float]]], unitary: bool = False
) -> np.ndarray:
    """Least-squares matrix sending each source vector near its target.

    Parameters
    ----------
    pairs : sequence of (source, target) vector pairs
    unitary : bool
        When set, replace the fit with its nearest orthogonal matrix;
        ``nearest_unitary`` refuses a fit that is not square.

    Returns
    -------
    (d_out, d_in) ndarray minimizing the summed squared residuals; for
    underdetermined systems the minimal-norm solution, with a warning.
    """
    sources, targets = _pair_rows(pairs)
    solution, _, rank, _ = np.linalg.lstsq(sources, targets, rcond=None)
    if rank < sources.shape[1]:
        warnings.warn(
            "fit is underdetermined; returning the minimal-norm solution",
            stacklevel=2,
        )
    return nearest_unitary(solution.T) if unitary else solution.T


def _pair_rows(pairs: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The source and the target vectors of ``pairs`` as the rows of two
    matrices; there must be at least one pair."""
    if not pairs:
        raise ValueError("at least one pair is required")
    return _rows_of([p[0] for p in pairs], "source"), _rows_of([p[1] for p in pairs], "target")


def _rows_of(vectors: list, side: str) -> np.ndarray:
    """The vectors of one side of the pairs as the rows of a matrix; each
    must be a non-empty vector as long as pair 1's."""
    shapes = [np.shape(v) for v in vectors]
    for number, shape in enumerate(shapes, start=1):
        if len(shape) != 1:
            raise TypeMismatchError(f"pair {number}'s {side} has shape {shape}, not a vector's")
        if not shape[0]:
            raise TypeMismatchError(f"pair {number} has an empty {side}")
        if shape != shapes[0]:
            raise TypeMismatchError(
                f"pair {number}'s {side} has length {shape[0]}, "
                f"but pair 1's has length {shapes[0][0]}"
            )
    return np.asarray(vectors, dtype=float)


def solve_generator_map(
    constraints: Iterable[tuple[PregroupType, PregroupType]]
) -> dict[str, PregroupType]:
    """Solve for per-generator images from whole-type requirements.

    Each constraint demands that the image of a source type equal a
    given target word.  Because the map must be single valued on
    generators and push through products, conflicting requirements (for
    example sending adjective-noun order to noun-adjective order while
    keeping adjectives mapped to adjectives) have no solution and raise
    ``NonFunctorialTranslationError``.
    """
    images: dict[str, PregroupType] = {}
    pending = list(constraints)
    while pending:
        stuck = [(g, h) for g, h in pending if not _apply_constraint(g, h, images)]
        if len(stuck) == len(pending):
            unknowns = sorted(
                {s.base for g, _ in pending for s in g.simples if s.base not in images}
            )
            raise ValueError(
                f"constraints leave generators {unknowns} underdetermined"
            )
        pending = stuck
    return images


def _apply_constraint(
    g: PregroupType, h: PregroupType, images: dict[str, PregroupType]
) -> bool:
    """Apply one constraint to ``images``; False when it has two or more unknowns left."""
    remaining, target = list(g.simples), list(h.simples)
    # strip known images off the left end, then off the right: that order picks
    # which mismatch is reported when both ends have one
    for end in (0, -1):
        while remaining and remaining[end].base in images:
            simple = remaining.pop(end)
            image = images[simple.base].adjoint(simple.z)
            span = slice(0, len(image)) if end == 0 else slice(len(target) - len(image), None)
            if tuple(target[span]) != image.simples:
                raise NonFunctorialTranslationError(
                    f"a single-valued grammar map cannot send '{g}' to '{h}': "
                    f"the image of {simple} is fixed to '{image}' "
                    f"but '{h}' requires '{PregroupType(tuple(target[span]))}' there"
                )
            del target[span]
    if len(remaining) > 1:
        return False
    if remaining:
        # the one unknown left takes what the known images leave of the target
        images[remaining[0].base] = PregroupType(tuple(target)).adjoint(-remaining[0].z)
    elif target:
        raise NonFunctorialTranslationError(
            f"images of '{g}' leave '{PregroupType(tuple(target))}' of '{h}' unaccounted for"
        )
    return True
