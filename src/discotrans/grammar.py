"""Free pregroup type algebra and search for cup-built type reductions.

Types are words of simple types, a simple type being a basic type name
decorated with an integer adjoint exponent (``n^l`` is ``(n, -1)``,
``n^r`` is ``(n, +1)``, iterated adjoints stack).  A reduction is a
planar set of cups, each contracting an adjacent ``(x, z) (x, z+1)``
pair once everything nested inside has been contracted.

>>> t = parse_type("n^r s n^l")
>>> str(t)
'n^r s n^l'
>>> [r.sorted_cups for r in reduce_search(parse_type("n n^r s n^l n"), parse_type("s"))]
[((0, 1), (3, 4))]
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from typing import Collection, Iterable, Iterator, NamedTuple

from .errors import BudgetExceededError, InvalidReductionError, TypeMismatchError
from .errors import TypeSyntaxError, UnknownBasicTypeError, is_integer

# Basic types are bare identifier strings; models declare the generator set.
BasicType = str

_SIMPLE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(l+|r+))?$")


class SimpleType(NamedTuple):
    """A basic type with an adjoint exponent: z < 0 left, z > 0 right.

    A named tuple, so words of simple types hash and compare in C.
    """

    base: BasicType
    z: int = 0

    @property
    def left(self) -> SimpleType:
        return SimpleType(self.base, self.z - 1)

    @property
    def right(self) -> SimpleType:
        return SimpleType(self.base, self.z + 1)

    def __str__(self) -> str:
        if self.z < 0:
            return f"{self.base}^{'l' * -self.z}"
        if self.z > 0:
            return f"{self.base}^{'r' * self.z}"
        return self.base


@dataclass(frozen=True)
class PregroupType:
    """A word of simple types; the empty word is the monoidal unit.

    >>> g = PregroupType((SimpleType("n"), SimpleType("s", 1)))
    >>> str(g.left)
    's n^l'
    >>> g.left.right == g
    True
    """

    simples: tuple[SimpleType, ...] = ()

    def __matmul__(self, other: PregroupType) -> PregroupType:
        return PregroupType(self.simples + other.simples)

    def __len__(self) -> int:
        return len(self.simples)

    def adjoint(self, z: int) -> PregroupType:
        """z-fold adjoint: exponents shift by z, order reverses when z is odd."""
        simples = tuple(SimpleType(s.base, s.z + z) for s in self.simples)
        return PregroupType(simples[::-1] if z % 2 else simples)

    @property
    def left(self) -> PregroupType:
        return self.adjoint(-1)

    @property
    def right(self) -> PregroupType:
        return self.adjoint(+1)

    def __str__(self) -> str:
        return " ".join(str(s) for s in self.simples)


UNIT = PregroupType()


def parse_type(text: str, basics: Collection[str] | None = None) -> PregroupType:
    """Parse a whitespace-separated type string; "" is the unit type.

    When ``basics`` is given, every basic type name must belong to it.

    >>> parse_type("n^ll").simples
    (SimpleType(base='n', z=-2),)
    """
    simples = []
    for token in text.split():
        match = _SIMPLE_RE.match(token)
        if match is None:
            raise TypeSyntaxError(f"malformed simple type {token!r}")
        name, suffix = match.groups()
        if basics is not None and name not in basics:
            raise UnknownBasicTypeError(f"unknown basic type {name!r}")
        z = 0 if suffix is None else (len(suffix) if suffix[0] == "r" else -len(suffix))
        simples.append(SimpleType(name, z))
    return PregroupType(tuple(simples))


@dataclass(frozen=True)
class Reduction:
    """A type reduction witnessed by cups over the source word.

    ``cups`` holds index pairs (i, j) of Python ints, i < j, each
    contracting the pair ``(x, z)`` at i with ``(x, z+1)`` at j.
    ``_cup`` reads each cup: anything but a pair of integers (bools
    excluded) is refused with ``InvalidReductionError``, as is a ``cups``
    that is not a collection.  Construction then validates the whole
    structure against the word in one left-to-right pass, which also
    derives ``survivors``, the uncupped indices in order, and ``target``,
    the simple types they spell.
    """

    source: PregroupType
    cups: frozenset[tuple[int, int]]
    # derived from source and cups, so they take no part in equality
    survivors: tuple[int, ...] = field(init=False, compare=False)
    target: PregroupType = field(init=False, compare=False)

    def __post_init__(self) -> None:
        try:
            cups = frozenset(map(_cup, self.cups))
        except TypeError:
            raise InvalidReductionError(f"cups {self.cups!r} are not a collection") from None
        object.__setattr__(self, "cups", cups)
        survivors = _validate(self.source, self.cups)
        object.__setattr__(self, "survivors", survivors)
        object.__setattr__(
            self, "target", PregroupType(tuple(self.source.simples[i] for i in survivors))
        )

    @property
    def sorted_cups(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.cups))

    @classmethod
    def identity(cls, g: PregroupType) -> Reduction:
        return cls(g, frozenset())

    @classmethod
    def from_cups(cls, source: PregroupType, cups: Iterable[tuple[int, int]]) -> Reduction:
        """The reduction of ``source`` by ``cups``, the same as ``Reduction(source, cups)``."""
        return cls(source, cups)

    def __str__(self) -> str:
        if not self.cups:
            return "id"
        return "".join(f"({i},{j})" for i, j in self.sorted_cups)


def _cup(cup) -> tuple[int, int]:
    """``cup`` as a pair of Python ints; anything else is refused."""
    try:
        i, j = cup
    except (TypeError, ValueError):
        raise InvalidReductionError(f"cup {cup!r} is not a pair of indices") from None
    if not (is_integer(i) and is_integer(j)):
        raise InvalidReductionError(f"cup {(i, j)} has an end that is not an integer")
    return int(i), int(j)


def _validate(source: PregroupType, cups: frozenset[tuple[int, int]]) -> tuple[int, ...]:
    """Check that ``cups`` reduce ``source``; return the uncupped indices in order."""
    n = len(source)
    partner: dict[int, int] = {}
    for i, j in cups:
        if not 0 <= i < j < n:
            raise InvalidReductionError(f"cup {(i, j)} out of range for word of length {n}")
        if i in partner or j in partner:
            raise InvalidReductionError(f"index reused across cups at {(i, j)}")
        partner[i], partner[j] = j, i
    # One left-to-right pass with a stack of open cups: a cup must close
    # innermost first (planarity) and nothing may survive while a cup is
    # open (fully contracted interiors).
    simples = source.simples
    open_cups: list[int] = []
    survivors: list[int] = []
    for k in range(n):
        i = partner.get(k, k)
        if i > k:
            open_cups.append(k)
        elif i == k and not open_cups:
            survivors.append(k)
        elif i == k or open_cups.pop() != i:
            raise InvalidReductionError("cups are crossing or enclose surviving material")
        elif simples[k] != simples[i].right:
            raise InvalidReductionError(
                f"cup ({i},{k}) joins {simples[i]} with {simples[k]}, not an adjoint pair"
            )
    return tuple(survivors)


class _Chart:
    """The chart of one search for reductions of ``word`` onto ``target``.

    State (i, j, k) asks whether ``word[i:j]`` reduces onto ``target[k:]``;
    ``k = len(target)`` stands for the unit.  Each state's first cups are
    solved once and kept until the search returns, so feasibility is
    polynomial in the word length, and no state outlives its search.
    """

    def __init__(self, word: tuple[SimpleType, ...], target: tuple[SimpleType, ...]):
        self.word, self.target, self.unit = word, target, len(target)
        self.at: dict[SimpleType, list[int]] = {}  # each simple type's positions
        for b, s in enumerate(word):
            self.at.setdefault(s, []).append(b)
        self.firsts: dict[tuple[int, int, int], list[tuple[int, int]]] = {}

    def reduces(self, i: int, j: int, k: int) -> bool:
        """Whether some reduction takes ``word[i:j]`` onto ``target[k:]``."""
        extra = (j - i) - (self.unit - k)
        if extra == 0:
            return self.word[i:j] == self.target[k:]
        return extra > 0 and extra % 2 == 0 and bool(self.first_cups(i, j, k))

    def first_cups(self, i: int, j: int, k: int) -> list[tuple[int, int]]:
        """Every first cup (a, b) that begins a reduction of ``word[i:j]`` onto ``target[k:]``.

        The first cup is the one with the smallest opening index: ``word[i:a]``
        survives and spells ``target[k:k + a - i]``, the interior contracts
        to the unit, and ``word[b + 1:j]`` reduces onto the rest of the
        target.  Only called when ``word[i:j]`` is longer than
        ``target[k:]`` by an even amount.
        """
        cups = self.firsts.get((i, j, k))
        if cups is None:
            # every state it asks about is shorter, so the entry is only
            # read once it is complete
            cups = self.firsts[i, j, k] = []
            for a in range(i, min(i + self.unit - k, j - 1) + 1):
                if a > i and self.word[a - 1] != self.target[k + a - 1 - i]:
                    break
                for b in self.at.get(self.word[a].right, ()):
                    if a < b < j and self.reduces(a + 1, b, self.unit):
                        if self.reduces(b + 1, j, k + a - i):
                            cups.append((a, b))
        return cups

    def walk(self, i: int, j: int, k: int) -> Iterator[tuple[tuple[int, int], ...]]:
        """Yield the cup sets of a reducible ``word[i:j]`` onto ``target[k:]``.

        Cup sets come out sorted by opening index and in lexicographic order
        of that sorted sequence, so truncation gives the leftmost-cup-first
        results.  Every chart entry leads to a reduction, so the walk never
        backtracks.
        """
        if j - i == self.unit - k:
            yield ()
            return
        for a, b in self.first_cups(i, j, k):
            for inner in self.walk(a + 1, b, self.unit):
                for rest in self.walk(b + 1, j, k + a - i):
                    yield ((a, b),) + inner + rest


def reduce_search(
    source: PregroupType, target: PregroupType, max_results: int | None = None
) -> list[Reduction]:
    """Find reductions from source to target, leftmost-cup-first.

    Returns up to ``max_results`` distinct reductions (all of them when
    None); an empty list when no reduction exists.  Each call builds its
    own chart, so no search depends on an earlier one.  The chart recurses
    about once per simple type, so a type too long for Python's recursion
    limit is refused with ``BudgetExceededError``.
    """
    if max_results is not None:
        if not is_integer(max_results):
            raise ValueError(
                f"the number of reductions to list must be an integer, got {max_results!r}"
            )
        if max_results < 1:
            raise ValueError(
                f"the number of reductions to list must be at least 1, got {max_results}"
            )
    chart = _Chart(source.simples, target.simples)
    try:
        if not chart.reduces(0, len(source), 0):
            return []
        walk = chart.walk(0, len(source), 0)
        return [Reduction(source, cups) for cups in islice(walk, max_results)]
    except RecursionError:
        raise BudgetExceededError("a type is too long to search for reductions") from None


def free_group_image(g: PregroupType) -> tuple[tuple[BasicType, int], ...]:
    """The image of ``g`` in the free group on the basic types, freely reduced.

    The simple type ``(b, z)`` goes to the generator ``b`` with sign
    ``(-1)^z``.  A cup ``(b, z) (b, z+1)`` then meets a generator next to
    its inverse, so a reduction keeps the image, and two types with
    different images have no reduction between them (Lambek 1999, "Type
    grammar revisited").

    >>> free_group_image(parse_type("n n^r s n^l"))
    (('s', 1), ('n', -1))
    >>> free_group_image(parse_type("n^ll n^l n^r"))
    (('n', -1),)
    """
    image: list[tuple[BasicType, int]] = []
    for s in g.simples:
        sign = -1 if s.z % 2 else 1
        if image and image[-1] == (s.base, -sign):
            image.pop()
        else:
            image.append((s.base, sign))
    return tuple(image)


def compose_reductions(r2: Reduction, r1: Reduction) -> Reduction:
    """Sequential composite r2 after r1; r2's cups relabel through r1's survivors."""
    if r1.target != r2.source:
        raise TypeMismatchError(
            f"cannot compose: first lands in '{r1.target}' but second starts at '{r2.source}'"
        )
    lifted = {(r1.survivors[i], r1.survivors[j]) for i, j in r2.cups}
    return Reduction(r1.source, r1.cups | lifted)


def tensor_reductions(r1: Reduction, r2: Reduction) -> Reduction:
    """Side-by-side product of reductions on the concatenated source."""
    off = len(r1.source)
    return Reduction(r1.source @ r2.source, r1.cups | {(i + off, j + off) for i, j in r2.cups})
