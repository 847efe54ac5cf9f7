"""Readers and writers for the JSON document family.

Every document carries ``"format": 1``.  Tensor data is stored as a
flat row-major array; shapes are always rederived from the type and
the model.  Model references inside lexicon and translation files may
be inline documents or path strings resolved relative to the
containing file.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .dictionary import DictionaryEntry, DictionaryTable
from .errors import DiscotransError, FormatError, NonFiniteError
from .grammar import PregroupType, Reduction, parse_type
from .lexicon import Lexicon, Phrase
from .product_space import PSObject
from .semantics import LanguageModel, Tensor, make_tensor, space_shape
from .translation import Translation, _pair_rows

FORMAT_VERSION = 1


def round_sig(x: float) -> float:
    """``x`` to 12 significant digits, as every document writer prints it.

    Raises ``NonFiniteError`` on infinity or NaN, which strict JSON
    readers reject.
    """
    value = float(f"{float(x):.12g}")
    if not math.isfinite(value):
        raise NonFiniteError(
            f"a result is {value}, which no document may hold: the arithmetic overflows float64"
        )
    return value


def _check_format(doc, kind: str) -> dict:
    if not isinstance(doc, dict):
        raise FormatError(f"{kind} document must be a JSON object, not {_found(doc)}")
    version = doc.get("format")
    # JSON true is Python's 1, so a boolean is refused by its type
    if version != FORMAT_VERSION or isinstance(version, bool):
        raise FormatError(
            f"{kind} document must declare \"format\": {FORMAT_VERSION}, got {version!r}"
        )
    return doc


_NUMBER = (int, float)  # a number that a float holds finitely: not NaN, Infinity or 10**400
_KINDS = {str: "string", int: "integer", _NUMBER: "number", list: "array", dict: "object",
          (str, dict): "string or object"}
_FOUND = {type(None): "null", bool: "a boolean", int: "an integer", float: "a number",
          str: "a string", list: "an array", dict: "an object"}


def _found(value) -> str:
    if type(value) in _NUMBER and not abs(value) <= sys.float_info.max:
        return "an integer too large for a float" if type(value) is int else json.dumps(value)
    return _FOUND.get(type(value), type(value).__name__)


def _key(key) -> str:
    """A field's key as a fault names it: ``'key'``, or ``[i]`` for an index."""
    return f"[{key}]" if isinstance(key, int) else f" {key!r}"


def _field(doc, key, where: str, kind=None, name=None):
    """``doc[key]``: ``doc`` must be a JSON object that holds ``key``, or a
    JSON array that an index ``key`` is taken from.

    If ``kind`` is given, the value must be of that JSON kind: ``str``,
    ``int``, ``_NUMBER`` (a number that is finite as a float, so neither
    NaN nor Infinity), ``list``, ``dict`` or ``(str, dict)``; a boolean is
    none of them.  A fault names ``where.format(name)``, formatted only
    then, and the key as ``_key`` writes it.
    """
    try:
        value = doc[key]
    except (KeyError, TypeError, IndexError):
        if not isinstance(doc, dict):
            raise FormatError(
                f"{where.format(name)} must be a JSON object, not {_found(doc)}"
            ) from None
        raise FormatError(f"{where.format(name)} is missing {key!r}") from None
    # a JSON value has its exact type, which the first test takes at once
    if type(value) is kind or kind is None:
        return value
    if type(value) is not bool and isinstance(value, kind):
        # NaN compares false, and an integer is compared exactly, with no overflow
        if kind is not _NUMBER or abs(value) <= sys.float_info.max:
            return value
    raise FormatError(
        f"{where.format(name)}{_key(key)} must be a JSON {_KINDS[kind]}, not {_found(value)}"
    )


@contextmanager
def _at(where: str):
    """Report a library error raised inside as a ``FormatError`` that names
    ``where`` in the document the value sits.

    The library owns each rule on a value; a reader states only where the
    value came from.  Any other exception is a fault and passes through.
    """
    try:
        yield
    except (DiscotransError, ValueError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _type_of(doc, key, where: str, basics=None, name=None) -> PregroupType:
    """The type that the string ``_field(doc, key, where, str, name)``
    spells; one that does not parse is reported at that field."""
    value = _field(doc, key, where, str, name)
    with _at(where.format(name) + _key(key)):
        return parse_type(value, basics)


def _numbers(value, what: str) -> np.ndarray:
    """``value`` as a float array; every element must be a finite JSON number.

    A JSON boolean is rejected even among numbers, where numpy would read
    it as 0 or 1, and so are the NaN and Infinity literals that Python's
    ``json`` accepts.
    """
    try:
        array = np.asarray(value)
    except ValueError as exc:
        raise FormatError(f"{what} must be a regular array of numbers") from exc
    if array.dtype.kind not in "iuf":
        raise FormatError(f"{what} must hold JSON numbers only")
    array = array.astype(float)
    # a boolean is read as 0 or 1, so only those elements need a type check
    suspects = (array == 0) | (array == 1)
    if suspects.any() and bool in set(map(type, np.asarray(value, dtype=object)[suspects])):
        raise FormatError(f"{what} must hold JSON numbers only")
    if not np.isfinite(array).all():
        raise FormatError(f"{what} must hold finite numbers only")
    return array


# -- models -----------------------------------------------------------------

def model_from_doc(doc) -> LanguageModel:
    doc = _check_format(doc, "model")
    name = _field(doc, "name", "model", str)
    basic_types = _field(doc, "basic_types", "model", dict)
    with _at("model 'basic_types'"):
        return LanguageModel(name, dict(basic_types))


def model_to_doc(model: LanguageModel) -> dict:
    return {"format": FORMAT_VERSION, "name": model.name, "basic_types": dict(model.dims)}


def _resolve_model(doc: dict, key: str, kind: str, base_dir: Path) -> LanguageModel:
    """The model that ``doc[key]`` holds: a path string, relative to
    ``base_dir``, or an inline model document."""
    ref = _field(doc, key, kind, (str, dict))
    return load_model(base_dir / ref) if isinstance(ref, str) else model_from_doc(ref)


# -- lexicons ---------------------------------------------------------------

def lexicon_from_doc(doc, base_dir: Path = Path(".")) -> Lexicon:
    """The lexicon a document holds, read one type at a time.

    Each record's fields are checked in document order, and each distinct
    type string is parsed at its first record.  The data of all records
    of one type string are then converted and checked together; a group
    that fails is read record by record, which names its first bad one.
    """
    doc = _check_format(doc, "lexicon")
    model = _resolve_model(doc, "model", "lexicon", base_dir)
    records = _field(doc, "words", "lexicon", list)
    keys: list[tuple[str, str]] = []  # each record's word and type string, in document order
    groups: dict[str, tuple[PregroupType, list, list]] = {}  # type string -> (type, words, data)
    for i, record in enumerate(records):
        word = _field(record, "word", "lexicon record words[{}]", str, i)
        type_string = _field(record, "type", "lexicon record words[{}]", str, i)
        group = groups.get(type_string)
        if group is None:
            g = _type_of(record, "type", "lexicon record {!r}", model.basics, word)
            group = groups[type_string] = (g, [], [])
        group[1].append(word)
        group[2].append(_field(record, "data", "lexicon record words[{}]", list, i))
        keys.append((word, type_string))
    tensors = {s: iter(_tensors_of(model, *group)) for s, group in groups.items()}
    entries: dict[str, list[PSObject]] = {}
    for word, type_string in keys:
        entries.setdefault(word, []).append(PSObject(next(tensors[type_string])))
    with _at("lexicon record"):
        return Lexicon(model, {w: tuple(objs) for w, objs in entries.items()})


def _tensors_of(model: LanguageModel, g: PregroupType, words: list, data: list) -> list[Tensor]:
    """The tensors of type ``g`` that the records of ``words`` hold in ``data``.

    The data lists are converted and checked by one ``_numbers`` call,
    and each record gets its own C-contiguous copy of its row.  If that
    check fails, or the data are shaped rather than flat, every record is
    read alone by ``_tensor_of``, which names the first bad one.
    """
    shape = space_shape(model, g)
    try:
        rows = _numbers(data, "data")
    except FormatError:
        rows = None
    if rows is None or rows.shape != (len(data), math.prod(shape)):
        return [_tensor_of(model, g, d, f"lexicon record {w!r}") for w, d in zip(words, data)]
    return [Tensor._adopt(g, row.copy()) for row in rows.reshape(len(data), *shape)]


def lexicon_to_doc(lex: Lexicon) -> dict:
    records = [
        {
            "word": word,
            "type": str(obj.type),
            "data": [round_sig(x) for x in obj.meaning.flat],
        }
        for word in lex.words
        for obj in lex.entries[word]
    ]
    return {
        "format": FORMAT_VERSION,
        "model": model_to_doc(lex.model),
        "words": records,
    }


# -- translations -----------------------------------------------------------

def translation_from_doc(doc, base_dir: Path = Path(".")) -> Translation:
    doc = _check_format(doc, "translation")
    source = _resolve_model(doc, "source", "translation", base_dir)
    target = _resolve_model(doc, "target", "translation", base_dir)
    j_doc = _field(doc, "j", "translation", dict)
    alpha_doc = _field(doc, "alpha", "translation", dict)
    j = {b: _type_of(j_doc, b, "translation 'j' image of", target.basics) for b in j_doc}
    alpha = {b: _numbers(rows, f"translation alpha[{b!r}]") for b, rows in alpha_doc.items()}
    with _at("translation document"):
        return Translation(source, target, j, alpha)


def translation_to_doc(t: Translation) -> dict:
    return {
        "format": FORMAT_VERSION,
        "source": model_to_doc(t.source_model),
        "target": model_to_doc(t.target_model),
        "j": {b: str(g) for b, g in sorted(t.j.items())},
        "alpha": {
            b: [[round_sig(x) for x in row] for row in matrix]
            for b, matrix in sorted(t.alpha.items())
        },
    }


# -- tensors, matrices, pairs ------------------------------------------------

def tensor_to_doc(t: Tensor) -> dict:
    return {
        "format": FORMAT_VERSION,
        "type": str(t.type),
        "data": [round_sig(x) for x in t.flat],
    }


def tensor_from_doc(doc, model: LanguageModel) -> Tensor:
    doc = _check_format(doc, "tensor")
    g = _type_of(doc, "type", "tensor", model.basics)
    return _tensor_of(model, g, _field(doc, "data", "tensor", list), "tensor")


def _tensor_of(model: LanguageModel, g: PregroupType, data: list, what: str) -> Tensor:
    """The tensor of type ``g`` whose entries ``data`` lists, one number each."""
    numbers = _numbers(data, f"{what} 'data'")
    with _at(f"{what} 'data'"):
        return make_tensor(model, g, numbers)


def matrix_from_doc(doc) -> np.ndarray:
    doc = _check_format(doc, "matrix")
    matrix = _numbers(_field(doc, "matrix", "matrix", list), "matrix")
    if matrix.ndim != 2:
        raise FormatError("matrix must be a list of equal-length rows")
    return matrix


def matrix_to_doc(matrix: np.ndarray) -> dict:
    return {
        "format": FORMAT_VERSION,
        "matrix": [[round_sig(x) for x in row] for row in np.asarray(matrix)],
    }


def pairs_from_doc(doc) -> list[tuple[list[float], list[float]]]:
    """The (source, target) vector pairs of a pairs document, as
    ``fit_alpha`` takes them."""
    doc = _check_format(doc, "pairs")
    pairs = [
        tuple(
            _numbers(
                _field(record, key, "pair record pairs[{}]", list, i),
                f"pair record pairs[{i}] {key!r}",
            ).tolist()
            for key in ("source", "target")
        )
        for i, record in enumerate(_field(doc, "pairs", "pairs", list))
    ]
    with _at("pairs document"):
        _pair_rows(pairs)
    return pairs


# -- dictionaries -----------------------------------------------------------

def _phrase_to_doc(p: Phrase) -> dict:
    doc = {"words": list(p.words)}
    if p.sense_choice is not None:
        doc["senses"] = list(p.sense_choice)
    return doc


def _reduction_to_doc(r: Reduction) -> dict:
    return {
        "source": str(r.source),
        "target": str(r.target),
        "cups": [list(c) for c in r.sorted_cups],
    }


def _items(doc, key, where: str, kind) -> list:
    """``_field(doc, key, where, list)``, each of whose items must be of
    JSON kind ``kind``."""
    items = _field(doc, key, where, list)
    for i, item in enumerate(items):
        if type(item) is not kind:  # the place is formatted only for an item of another type
            _field(items, i, where + _key(key), kind)
    return items


def _phrase_from_doc(record: dict, key: str, entry: str) -> Phrase:
    """The phrase that the ``key`` field of a dictionary ``entry`` holds."""
    where = entry + _key(key)
    doc = _field(record, key, entry)
    words = _items(doc, "words", where, str)
    senses = _items(doc, "senses", where, int) if "senses" in doc else None
    with _at(where):
        return Phrase(words, senses)


def _gather(items: list, column: np.ndarray) -> list:
    """``[items[i] for i in column]``, by one object-array indexing."""
    return np.array(items, dtype=object)[column].tolist()


def dictionary_from_doc(doc) -> list[DictionaryEntry]:
    doc = _check_format(doc, "dictionary")
    entries = []
    for n, record in enumerate(_field(doc, "entries", "dictionary", list)):
        entry = f"dictionary entry entries[{n}]"
        where = entry + " 'reduction'"
        red_doc = _field(record, "reduction", entry)
        source = _type_of(red_doc, "source", where)
        target = _type_of(red_doc, "target", where)
        cups = _items(red_doc, "cups", where, list)
        for c in range(len(cups)):
            _items(cups, c, where + " 'cups'", int)
        with _at(where + " 'cups'"):
            reduction = Reduction(source, cups)
        if reduction.target != target:
            raise FormatError(
                f"{where} 'cups' take '{source}' to '{reduction.target}', "
                f"not to its declared target '{target}'"
            )
        entries.append(
            DictionaryEntry(
                _phrase_from_doc(record, "source", entry),
                _phrase_from_doc(record, "target", entry),
                reduction,
                float(_field(record, "distance", entry, _NUMBER)),
            )
        )
    return entries


def dictionary_to_rows(table: DictionaryTable) -> str:
    """Tab-separated rows: phrase, phrase, reduction, distance.

    ``%.12g`` prints a float with ``round_sig``'s digits.
    """
    return _render(table, "%s\t%s\t%s\t%.12g", "\n", str, str, np.ndarray.tolist)


def dictionary_to_json(table: DictionaryTable) -> str:
    """The dictionary document, one record per row, as ``json.dumps(doc,
    indent=2)`` prints it, written from the columns.

    A record holds the source and target phrase documents, the reduction
    document and the distance to 12 significant digits.  Each phrase's
    and reduction's document is encoded once, indented to the depth of a
    record's fields, so no row passes through ``json``'s indenting
    encoder, which is pure Python.  ``%r`` prints a float as ``json``
    does.
    """
    def nested(doc: dict) -> str:
        return json.dumps(doc, indent=2).replace("\n", "\n      ")

    record = (
        '    {\n      "source": %s,\n      "target": %s,\n      "reduction": %s,\n'
        '      "distance": %r\n    }'
    )
    records = _render(
        table, record, ",\n",
        lambda p: nested(_phrase_to_doc(p)),
        lambda r: nested(_reduction_to_doc(r)),
        lambda distance: [round_sig(d) for d in distance.tolist()],
    )
    entries = f"[\n{records}\n  ]" if len(table) else "[]"
    return f'{{\n  "format": {FORMAT_VERSION},\n  "entries": {entries}\n}}'


def _render(
    table: DictionaryTable, record: str, separator: str, phrase_text, reduction_text, distance_cells
) -> str:
    """Every row of ``table`` formatted by ``record`` and joined by ``separator``.

    Each phrase's and each reduction's text is made once, the text
    columns are gathered by object-array indexing, and all rows are
    formatted by one C-level call.  ``distance_cells`` turns the distance
    column into the list of values ``record`` formats.
    """
    cells = [None] * (4 * len(table))
    cells[0::4] = _gather([phrase_text(p) for p in table.source_phrases], table.source)
    cells[1::4] = _gather([phrase_text(p) for p in table.target_phrases], table.target)
    cells[2::4] = _gather([reduction_text(r) for r in table.reductions], table.reduction)
    cells[3::4] = distance_cells(table.distance)
    return separator.join([record] * len(table)) % tuple(cells)


# -- path-level helpers -------------------------------------------------------

def _load_json(path) -> dict:
    """The JSON document in the file ``path``, read as UTF-8 (RFC 8259).

    A file that does not decode or parse (a ``ValueError``: a
    ``UnicodeDecodeError``, a ``JSONDecodeError``, or an integer past
    Python's digit limit) or that nests too deeply for the parser's
    recursion is reported as not valid JSON.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def load_model(path) -> LanguageModel:
    return model_from_doc(_load_json(path))


def load_lexicon(path) -> Lexicon:
    return lexicon_from_doc(_load_json(path), Path(path).parent)


def load_translation(path) -> Translation:
    return translation_from_doc(_load_json(path), Path(path).parent)


def load_matrix(path) -> np.ndarray:
    return matrix_from_doc(_load_json(path))


def load_pairs(path) -> list[tuple[list[float], list[float]]]:
    return pairs_from_doc(_load_json(path))


def save_doc(doc: dict, path) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
