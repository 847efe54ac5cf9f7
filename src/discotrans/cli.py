"""Command-line front end.

Subcommands: parse, meaning, translate, check, procrustes, fit, dict.
Exit codes: 0 success (a reader that closes stdout early included), 1
negative result (no reduction, failed check, empty dictionary), 2 input
error (an input too large for memory and a type too long to search for
reductions included) or internal error, 3 numeric failure (any result
that overflows float64 to infinity or NaN).  Structured output goes to
stdout as JSON documents that the loaders can read back; numbers are
printed with 12 significant digits, and are always finite.  A warning
the library emits, such as an underdetermined fit, goes to stderr as one
``warning:`` line and leaves the exit code alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from contextlib import contextmanager

import numpy as np

from . import io
from .dictionary import DictionaryQuery, build_dictionary
from .errors import DiscotransError, FormatError, NonFiniteError, NoReductionError
from .errors import RankDeficientError
from .grammar import parse_type, reduce_search
from .lexicon import Phrase, phrase_meaning
from .semantics import normalize_sentence
from .translation import _image_lexicon, check_naturality, fit_alpha, nearest_unitary

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _print_doc(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _load(load, args, option: str):
    """The file that ``--option`` names, read by ``load``; a file that
    cannot be read, or whose document is at fault, is reported with the
    option and the path given."""
    path = getattr(args, option.replace("-", "_"))
    try:
        return load(path)
    except (OSError, FormatError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.filename == path else exc
        raise type(exc)(f"--{option} {path!r}: {reason}") from None


@contextmanager
def _option(option: str, value):
    """Report a ``ValueError`` raised inside with the option and the value given."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{option} {value}: {exc}") from None


def _phrase(args) -> Phrase:
    senses = args.senses
    if senses is not None:
        try:
            senses = tuple(int(s) for s in senses.split(","))
        except ValueError:
            raise ValueError(f"--senses takes comma-separated indices, got {senses!r}") from None
    return Phrase(tuple(args.phrase.split()), senses)


def cmd_parse(args) -> int:
    basics = None
    if args.model is not None:
        basics = _load(io.load_model, args, "model").basics
    source = parse_type(args.source_type, basics)
    target = parse_type(args.target_type, basics)
    with _option("--max", args.max):
        found = reduce_search(source, target, args.max)
    if not found:
        print("no reduction")
        return EXIT_NEGATIVE
    for k, r in enumerate(found, start=1):
        survivors = ",".join(str(i) for i in r.survivors)
        print(f"reduction {k}: cups={r} survivors=[{survivors}]")
    return EXIT_OK


def cmd_meaning(args) -> int:
    lex = _load(io.load_lexicon, args, "lex")
    if args.translation is not None:
        t = _load(io.load_translation, args, "translation")
        # the phrase's words only, unmerged, so --senses indexes the source senses
        lex = _image_lexicon(t, lex, dict.fromkeys(args.phrase.split()))
    target = parse_type(args.target_type, lex.model.basics)
    tensor = phrase_meaning(lex, _phrase(args), target)
    if args.normalize:
        tensor = normalize_sentence(tensor)
    _print_doc(io.tensor_to_doc(tensor))
    return EXIT_OK


def cmd_check(args) -> int:
    t = _load(io.load_translation, args, "translation")
    source = parse_type(args.source_type, t.source_model.basics)
    target = parse_type(args.target_type, t.source_model.basics)
    found = reduce_search(source, target, max_results=1)
    if not found:
        raise NoReductionError(f"no reduction from '{source}' to '{target}' to check")
    with _option("--tolerance", args.tolerance):
        report = check_naturality(t, found[0], args.tolerance)
    _print_doc(
        {
            "format": io.FORMAT_VERSION,
            "max_residual": io.round_sig(report.max_residual),
            "tolerance": io.round_sig(report.tolerance),
            "passed": report.passed,
            "basis_size": report.basis_size,
        }
    )
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def cmd_procrustes(args) -> int:
    matrix = _load(io.load_matrix, args, "matrix")
    _print_doc(io.matrix_to_doc(nearest_unitary(matrix)))
    return EXIT_OK


def cmd_fit(args) -> int:
    pairs = _load(io.load_pairs, args, "pairs")
    _print_doc(io.matrix_to_doc(fit_alpha(pairs, unitary=args.unitary)))
    return EXIT_OK


def cmd_dict(args) -> int:
    lex_a = _load(io.load_lexicon, args, "lex-a")
    lex_b = _load(io.load_lexicon, args, "lex-b")
    t = _load(io.load_translation, args, "translation")
    type_filter = None
    if args.target_type is not None:
        type_filter = parse_type(args.target_type, lex_b.model.basics)
    query = DictionaryQuery(target_type_filter=type_filter)
    # one field at a time, so the query's own rule is reported with its option
    for option, field in (("--max-source-len", "max_source_len"),
                          ("--max-target-len", "max_target_len"),
                          ("--k", "threshold"), ("--max-pairs", "max_pairs")):
        value = getattr(args, field)
        with _option(option, value):
            query = dataclasses.replace(query, **{field: value})
    table = build_dictionary(lex_a, lex_b, t, query)
    if args.json:
        print(io.dictionary_to_json(table))
    elif len(table):
        print(io.dictionary_to_rows(table))
    return EXIT_OK if len(table) else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discotrans",
        description="Pregroup parsing, tensor meanings, translations and dictionaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="search for type reductions")
    p.add_argument("--from", dest="source_type", required=True, metavar="TYPE")
    p.add_argument("--to", dest="target_type", required=True, metavar="TYPE")
    p.add_argument("--max", type=int, default=None, help="cap on reductions listed")
    p.add_argument("--model", help="model file whose basic types constrain parsing")
    p.set_defaults(func=cmd_parse)

    # the phrase options, one declaration for meaning and translate
    phrase = argparse.ArgumentParser(add_help=False)
    phrase.add_argument("--lex", required=True, help="lexicon file (translate: the source side's)")
    phrase.add_argument("--phrase", required=True, help="the words, separated by spaces")
    phrase.add_argument("--to", dest="target_type", required=True, metavar="TYPE",
                        help="type to reduce onto (translate: a target-model type)")
    phrase.add_argument("--senses", help="comma-separated per-word sense indices into --lex")
    phrase.add_argument("--normalize", action="store_true",
                        help="collapse a nonzero sentence value to 1")

    p = sub.add_parser("meaning", parents=[phrase], help="reduce a phrase's meaning onto a type")
    p.set_defaults(func=cmd_meaning, translation=None)

    p = sub.add_parser("translate", parents=[phrase],
                       help="translate a phrase, then compute its meaning")
    p.add_argument("--translation", required=True, help="translation file")
    p.set_defaults(func=cmd_meaning)

    p = sub.add_parser("check", help="verify a translation commutes with a reduction")
    p.add_argument("--translation", required=True)
    p.add_argument("--from", dest="source_type", required=True, metavar="TYPE")
    p.add_argument("--to", dest="target_type", required=True, metavar="TYPE")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("procrustes", help="nearest orthogonal matrix")
    p.add_argument("--matrix", required=True, help="matrix file")
    p.set_defaults(func=cmd_procrustes)

    p = sub.add_parser("fit", help="least-squares matrix from vector pairs")
    p.add_argument("--pairs", required=True, help="pairs file")
    p.add_argument("--unitary", action="store_true",
                   help="project the fit to its nearest orthogonal matrix")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("dict", help="build a phrase dictionary over a translation")
    p.add_argument("--lex-a", required=True, help="source lexicon file")
    p.add_argument("--lex-b", required=True, help="target lexicon file")
    p.add_argument("--translation", required=True)
    p.add_argument("--k", dest="threshold", type=float, metavar="K", help="distance threshold")
    p.add_argument("--max-source-len", type=int, default=DictionaryQuery.max_source_len)
    p.add_argument("--max-target-len", type=int, default=DictionaryQuery.max_target_len)
    p.add_argument("--to", dest="target_type", default=None, metavar="TYPE",
                   help="reduce both sides onto this type first")
    p.add_argument("--reduced-only", action="store_const", dest="target_type", const="s",
                   help="shorthand for --to s")
    p.add_argument("--max-pairs", type=int, default=DictionaryQuery.max_pairs)
    p.add_argument("--json", action="store_true",
                   help="emit the structured document instead of rows")
    p.set_defaults(func=cmd_dict)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow ends as a non-finite number, which no document may hold:
        # the command raises NonFiniteError instead of warning
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr
            )
            code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early, as ``| head`` does: not an error.
        # Point stdout at the null device so the flush at exit cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except NoReductionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (RankDeficientError, NonFiniteError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DiscotransError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # a fault of the program, not of the input: still one line, no traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
