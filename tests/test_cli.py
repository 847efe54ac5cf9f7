import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discotrans
from discotrans import cli, dictionary, io
from discotrans.cli import main
from discotrans.demo import DROP_QUANTITY, collapse_number_translation, wardrobe_lexicon
from discotrans.dictionary import DictionaryQuery, build_dictionary
from discotrans.grammar import parse_type
from discotrans.lexicon import Lexicon, Phrase, phrase_meaning
from discotrans.product_space import PSObject
from discotrans.semantics import LanguageModel, make_tensor
from discotrans.translation import Translation, identity_translation, translate_lexicon
from oracles import image_lexicon
from test_dictionary import _random_bucket_pair, overflow_pair


@pytest.fixture
def files(tmp_path):
    lex = wardrobe_lexicon()
    t = collapse_number_translation()
    io.save_doc(io.lexicon_to_doc(lex), tmp_path / "aware.lex.json")
    io.save_doc(io.lexicon_to_doc(translate_lexicon(t, lex)), tmp_path / "blind.lex.json")
    io.save_doc(io.translation_to_doc(t), tmp_path / "collapse.json")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parse -------------------------------------------------------------------------

def test_parse_finds_sentence_reduction(capsys):
    code, out, _ = run(capsys, "parse", "--from", "n n^r s n^l n", "--to", "s")
    assert code == 0
    assert "cups=(0,1)(3,4)" in out
    assert "survivors=[2]" in out


def test_parse_identity(capsys):
    code, out, _ = run(capsys, "parse", "--from", "n", "--to", "n")
    assert code == 0
    assert "cups=id" in out


def test_parse_reports_no_reduction(capsys):
    code, out, _ = run(capsys, "parse", "--from", "n n", "--to", "s")
    assert code == 1
    assert "no reduction" in out


def test_parse_rejects_bad_syntax(capsys):
    code, _, err = run(capsys, "parse", "--from", "n^lr", "--to", "s")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("pairs, expected", [(300, 0), (1000, 2)])
def test_parse_of_a_long_type(capsys, pairs, expected):
    # the chart's recursion deepens with every pair of simple types: 2,001 of
    # them pass Python's recursion limit, which is an input error, not a
    # negative result
    code, out, err = run(capsys, "parse", "--from", "n n^r " * pairs + "s", "--to", "s")
    assert code == expected
    assert "Traceback" not in err
    if expected == 0:
        assert (out.count("\n"), err) == (1, "")
    else:
        assert (out, err) == ("", "error: a type is too long to search for reductions\n")


@pytest.mark.parametrize("value", ["0", "-3"])
def test_parse_max_below_one_names_the_option(capsys, value):
    code, out, err = run(capsys, "parse", "--from", "n n^r s", "--to", "s", "--max", value)
    assert (code, out) == (2, "")
    assert err == (
        f"error: --max {value}: the number of reductions to list must be at least 1, got {value}\n"
    )


def test_parse_outcome_does_not_depend_on_earlier_searches():
    # 400 pairs come near Python's recursion limit: a search that the same
    # process ran before, at 300 pairs, must not change whether it succeeds.
    # Each run is a fresh interpreter, so both start at the same stack depth.
    src = str(Path(discotrans.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from discotrans.cli import main\n"
        "for pairs in map(int, sys.argv[1:]):\n"
        "    code = main(['parse', '--from', 'n n^r ' * pairs + 's', '--to', 's'])\n"
        "sys.exit(code)\n"
    )

    def exit_code(*pairs):
        proc = subprocess.run(
            [sys.executable, "-c", script, *map(str, pairs)],
            capture_output=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert b"Traceback" not in proc.stderr
        return proc.returncode

    assert exit_code(400) == exit_code(300, 400)


def test_parse_model_constrains_basics(files, tmp_path, capsys):
    lex = io.load_lexicon(files / "aware.lex.json")
    io.save_doc(io.model_to_doc(lex.model), tmp_path / "model.json")
    code, out, _ = run(
        capsys,
        "parse", "--model", str(tmp_path / "model.json"),
        "--from", "n_s n_s^r s", "--to", "s",
    )
    assert code == 0
    code, _, err = run(
        capsys,
        "parse", "--model", str(tmp_path / "model.json"),
        "--from", "q", "--to", "q",
    )
    assert code == 2
    assert "unknown basic type" in err


# -- meaning and translate ------------------------------------------------------------

def test_meaning_of_plain_sentence(files, capsys):
    code, out, _ = run(
        capsys,
        "meaning", "--lex", str(files / "aware.lex.json"),
        "--phrase", "Rosie wears boots", "--to", "s",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "s"
    assert doc["data"] == [0.0]


def test_meaning_with_normalization(files, capsys):
    code, out, _ = run(
        capsys,
        "meaning", "--lex", str(files / "aware.lex.json"),
        "--phrase", "Rosie wears a_boot", "--to", "s", "--normalize",
    )
    assert code == 0
    assert json.loads(out)["data"] == [1.0]


def test_normalization_is_opt_in(files, capsys):
    code, out, _ = run(
        capsys,
        "meaning", "--lex", str(files / "aware.lex.json"),
        "--phrase", "Rosie wears a_boot", "--to", "s",
    )
    assert code == 0
    assert json.loads(out)["data"] == [-1.0]


def test_explicit_senses_flag(files, capsys):
    code, out, _ = run(
        capsys,
        "meaning", "--lex", str(files / "aware.lex.json"),
        "--phrase", "Rosie wears boots", "--to", "s", "--senses", "0,1,0",
    )
    assert code == 0
    assert json.loads(out)["data"] == [0.0]
    code, _, _ = run(
        capsys,
        "meaning", "--lex", str(files / "aware.lex.json"),
        "--phrase", "Rosie wears boots", "--to", "s", "--senses", "0,0,0",
    )
    assert code == 1


def test_meaning_of_single_word_is_its_vector(files, capsys):
    code, out, _ = run(
        capsys,
        "meaning", "--lex", str(files / "aware.lex.json"),
        "--phrase", "boots", "--to", "n_p",
    )
    assert code == 0
    assert json.loads(out)["data"] == [1.0, 0.0, 0.0, 2.0]


def test_meaning_failure_is_negative_result(files, capsys):
    code, _, err = run(
        capsys,
        "meaning", "--lex", str(files / "aware.lex.json"),
        "--phrase", "boots boots", "--to", "s",
    )
    assert code == 1


def test_translated_sentences_collapse(files, capsys):
    for phrase in ("Rosie wears boots", "Rosie wears a_boot"):
        code, out, _ = run(
            capsys,
            "translate", "--translation", str(files / "collapse.json"),
            "--lex", str(files / "aware.lex.json"),
            "--phrase", phrase, "--to", "s",
        )
        assert code == 0
        assert json.loads(out)["data"] == [0.0]


def test_translate_takes_every_meaning_option():
    # one argv with all the phrase options parses alike under both commands,
    # so no phrase option can reach one of the two only
    phrase = ["--lex", "F.lex.json", "--phrase", "Rosie wears boots", "--to", "s",
              "--senses", "0,1,0", "--normalize"]
    parser = cli.build_parser()
    meaning = vars(parser.parse_args(["meaning", *phrase]))
    translate = vars(parser.parse_args(["translate", *phrase, "--translation", "T.json"]))
    assert (meaning.pop("command"), translate.pop("command")) == ("meaning", "translate")
    assert (meaning.pop("translation"), translate.pop("translation")) == (None, "T.json")
    assert meaning == translate


@pytest.mark.parametrize("senses", [(0, 1, 0), (0, 3, 0)])
def test_translate_senses_index_the_source_lexicon(files, capsys, senses):
    # "wears" has four source senses and one merged image: the pin still
    # names source senses, as for meaning and dict; (0, 3, 0) reduces only
    # once the translation has forgotten number
    code, out, err = run(
        capsys,
        "translate", "--translation", str(files / "collapse.json"),
        "--lex", str(files / "aware.lex.json"),
        "--phrase", "Rosie wears boots", "--to", "s",
        "--senses", ",".join(map(str, senses)),
    )
    assert (code, err) == (0, "")
    images = image_lexicon(collapse_number_translation(), wardrobe_lexicon())
    phrase = Phrase(("Rosie", "wears", "boots"), senses)
    assert json.loads(out) == io.tensor_to_doc(phrase_meaning(images, phrase, parse_type("s")))


def _random_lexicon_files(tmp_path):
    """Nouns w0..w4 and a two-sense verb, with random meanings, and a random
    translation into a model of other dimensions."""
    rng = np.random.default_rng(23)
    source = LanguageModel("src", {"n": 3, "s": 2})
    target = LanguageModel("tgt", {"n": 2, "s": 2})

    def sense(model, g):
        shape = [model.dim(s.base) for s in g.simples]
        return PSObject(make_tensor(model, g, rng.standard_normal(shape).ravel()))

    n, verb = parse_type("n"), parse_type("n^r s n^l")
    entries = {f"w{i}": (sense(source, n),) for i in range(5)}
    entries["likes"] = (sense(source, verb), sense(source, verb))
    j = {"n": n, "s": parse_type("s")}
    alpha = {"n": rng.standard_normal((2, 3)), "s": rng.standard_normal((2, 2))}
    io.save_doc(io.lexicon_to_doc(Lexicon(source, entries)), tmp_path / "random.lex.json")
    io.save_doc(io.translation_to_doc(Translation(source, target, j, alpha)), tmp_path / "t.json")
    return tmp_path / "random.lex.json", tmp_path / "t.json"


@pytest.mark.parametrize("phrase, senses", [
    ("w0 likes w1", None), ("w1 likes w1", None), ("w2 likes w0", "0,1,0"),
])
def test_translate_images_only_the_phrase_words(tmp_path, capsys, monkeypatch, phrase, senses):
    lex_path, t_path = _random_lexicon_files(tmp_path)
    calls = []
    image = discotrans.translation.translate_object
    monkeypatch.setattr(
        "discotrans.translation.translate_object", lambda t, o: calls.append(o) or image(t, o)
    )
    pin = [] if senses is None else ["--senses", senses]
    code, out, err = run(
        capsys, "translate", "--translation", str(t_path), "--lex", str(lex_path),
        "--phrase", phrase, "--to", "s", *pin,
    )
    assert (code, err) == (0, "")
    # one call per sense of each distinct phrase word: likes has two, each noun one
    assert len(calls) == len(set(phrase.split())) + 1
    # the bytes of the meaning over the whole lexicon's image
    lex, t = io.load_lexicon(lex_path), io.load_translation(t_path)
    pinned = None if senses is None else tuple(map(int, senses.split(",")))
    expected = phrase_meaning(
        image_lexicon(t, lex), Phrase(tuple(phrase.split()), pinned), parse_type("s")
    )
    assert out == json.dumps(io.tensor_to_doc(expected), indent=2) + "\n"


@pytest.mark.parametrize("command", ["meaning", "translate"])
def test_a_phrase_word_missing_from_the_lexicon_is_input_error(files, capsys, command):
    extra = ["--translation", str(files / "collapse.json")] if command == "translate" else []
    code, out, err = run(
        capsys, command, "--lex", str(files / "aware.lex.json"), *extra,
        "--phrase", "Rosie wears socks", "--to", "s",
    )
    assert (code, out, err) == (2, "", "error: word 'socks' is not in the lexicon\n")


@pytest.mark.parametrize("argv", [
    ["meaning", "--senses", ""],
    ["translate", "--translation", "{files}/collapse.json", "--senses", ""],
    ["parse", "--model", "", "--from", "n", "--to", "n"],
], ids=["meaning-senses", "translate-senses", "parse-model"])
def test_empty_optional_argument_is_input_error(files, capsys, argv):
    # an empty value is given, not absent: it must not fall back to the default
    if argv[0] != "parse":
        argv = [*argv, "--lex", str(files / "aware.lex.json"),
                "--phrase", "Rosie wears boots", "--to", "s"]
    code, out, err = run(capsys, *(a.format(files=files) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["meaning", "translate"])
@pytest.mark.parametrize("senses", ["0,x,0", "", "0,,0", "0,1.0,0"])
def test_malformed_senses_name_the_option_and_the_value(files, capsys, command, senses):
    argv = [command, "--lex", str(files / "aware.lex.json"), "--phrase", "Rosie wears boots",
            "--to", "s", "--senses", senses]
    if command == "translate":
        argv += ["--translation", str(files / "collapse.json")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: --senses takes comma-separated indices, got {senses!r}\n"


_AWARE, _BLIND = "{files}/aware.lex.json", "{files}/blind.lex.json"
_COLLAPSE = "{files}/collapse.json"
# each file option's document and the first field that a reader of it takes
_FIRST_FIELD = {
    "model": ("model", "name"),
    "lex": ("lexicon", "model"),
    "lex-a": ("lexicon", "model"),
    "lex-b": ("lexicon", "model"),
    "translation": ("translation", "source"),
    "matrix": ("matrix", "matrix"),
    "pairs": ("pairs", "pairs"),
}


@pytest.mark.parametrize("option, argv", [
    ("model", ["parse", "--from", "n", "--to", "n"]),
    ("lex", ["meaning", "--phrase", "Rosie", "--to", "n_s"]),
    ("translation", ["translate", "--lex", _AWARE, "--phrase", "Rosie", "--to", "n"]),
    ("translation", ["check", "--from", "n_s", "--to", "n_s"]),
    ("lex-a", ["dict", "--lex-b", _BLIND, "--translation", _COLLAPSE]),
    ("lex-b", ["dict", "--lex-a", _AWARE, "--translation", _COLLAPSE]),
    ("matrix", ["procrustes"]),
    ("pairs", ["fit"]),
])
@pytest.mark.parametrize("path, reason", [
    ("", "No such file or directory"),
    ("{files}", "Is a directory"),
    # a document that declares its format and nothing else lacks its first field
    ("{files}/format-only.json", "{0} is missing {1!r}"),
])
def test_an_unreadable_file_names_the_option_and_the_path(
    files, capsys, option, argv, path, reason
):
    (files / "format-only.json").write_text('{"format": 1}')
    # an empty path is not the current directory
    path = path.format(files=files)
    code, out, err = run(capsys, *(a.format(files=files) for a in argv), f"--{option}", path)
    assert (code, out) == (2, "")
    assert err == f"error: --{option} {path!r}: {reason.format(*_FIRST_FIELD[option])}\n"


# a file option, the demo file it reads here and a command that reads it
_FILE_OPTIONS = {
    "lex": ("aware.lex.json", ["meaning", "--phrase", "Rosie wears boots", "--to", "s"]),
    "lex-b": ("blind.lex.json", ["dict", "--lex-a", _AWARE, "--translation", _COLLAPSE]),
    "translation": ("collapse.json", ["check", "--from", "n_s", "--to", "n"]),
}


def _wears(doc):
    return next(r for r in doc["words"] if r["word"] == "wears")


@pytest.mark.parametrize("option, change, message", [
    ("lex", lambda doc: _wears(doc).update(type="n_q"),
     "lexicon record 'wears' 'type': unknown basic type 'n_q'"),
    ("lex", lambda doc: doc["words"][1].update(word=None),
     "lexicon record words[1] 'word' must be a JSON string, not null"),
    ("lex", lambda doc: doc["words"][1]["data"].__setitem__(0, "1.5"),
     "lexicon record 'a_boot' 'data' must hold JSON numbers only"),
    ("lex", lambda doc: doc["words"][1].pop("data"), "lexicon record words[1] is missing 'data'"),
    # the same fault in the target lexicon names --lex-b, not --lex-a
    ("lex-b", lambda doc: doc["words"][1].pop("data"), "lexicon record words[1] is missing 'data'"),
    ("translation", lambda doc: doc["j"].update(n_s=["n"]),
     "translation 'j' image of 'n_s' must be a JSON string, not an array"),
], ids=["unknown-type", "null-word", "string-number", "no-data", "no-data-lex-b", "list-image"])
def test_a_field_fault_names_the_option_the_file_and_the_place(
    files, capsys, option, change, message
):
    name, argv = _FILE_OPTIONS[option]
    path = str(files / name)
    doc = json.loads(Path(path).read_text())
    change(doc)
    io.save_doc(doc, path)
    code, out, err = run(capsys, *(a.format(files=files) for a in argv), f"--{option}", path)
    assert (code, out, err) == (2, "", f"error: --{option} {path!r}: {message}\n")


def test_an_unreadable_model_reference_names_the_option_and_the_file(files, capsys):
    doc = io.lexicon_to_doc(wardrobe_lexicon())
    doc["model"] = "missing.model.json"
    io.save_doc(doc, files / "referring.lex.json")
    lex = str(files / "referring.lex.json")
    code, out, err = run(capsys, "meaning", "--lex", lex, "--phrase", "Rosie", "--to", "n_s")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --lex {lex!r}: ") and err.count("\n") == 1
    assert str(files / "missing.model.json") in err


def test_a_file_that_is_not_utf8_names_its_path(files, capsys):
    path = str(files / "utf16.lex.json")
    Path(path).write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(capsys, "meaning", "--lex", path, "--phrase", "Rosie", "--to", "n_s")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --lex {path!r}: {path} is not valid JSON: ")
    assert err.count("\n") == 1


def test_a_file_nested_too_deeply_names_the_option_and_its_path(files, capsys):
    # json.load raises RecursionError, which is not the reduction search's
    path = str(files / "deep.lex.json")
    Path(path).write_text('{"format": 1, "model": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run(capsys, "meaning", "--lex", path, "--phrase", "Rosie", "--to", "n_s")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --lex {path!r}: {path} is not valid JSON: ")
    assert err.count("\n") == 1 and "too long" not in err


@pytest.mark.parametrize("a, b, count, message", [
    # 81 simple types: one tensor axis each, past numpy 2's 64 and numpy 1's 32
    ("n n^l", "n", 40, "error: "),
    # 1,201 simple types: too many for the reduction search's recursion
    ("n n^r", "s", 600, "error: a type is too long to search for reductions\n"),
], ids=["numpy-axes", "search-depth"])
def test_a_phrase_of_too_many_simple_types_is_input_error(tmp_path, capsys, a, b, count, message):
    # a one-dimensional lexicon: "a" * count then "b" reduces onto b's type
    model = LanguageModel("m", {"n": 1, "s": 1})
    ones = {g: PSObject(make_tensor(model, parse_type(g), [1.0])) for g in (a, b)}
    lex = Lexicon(model, {"a": (ones[a],), "b": (ones[b],)})
    io.save_doc(io.lexicon_to_doc(lex), tmp_path / "long.lex.json")
    phrase = " ".join(["a"] * count + ["b"])
    code, out, err = run(
        capsys, "meaning", "--lex", str(tmp_path / "long.lex.json"), "--phrase", phrase, "--to", b
    )
    assert (code, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1


def test_meaning_output_reloads(files, capsys):
    code, out, _ = run(
        capsys,
        "meaning", "--lex", str(files / "aware.lex.json"),
        "--phrase", "Rosie", "--to", "n_s",
    )
    assert code == 0
    lex = io.load_lexicon(files / "aware.lex.json")
    tensor = io.tensor_from_doc(json.loads(out), lex.model)
    assert tensor.flat.tolist() == [2.0, 5.0, 3.0, 1.0]


def _overflowing_meaning_files(tmp_path):
    """A lexicon whose two-word sentence overflows float64, and an identity translation."""
    model = LanguageModel("m", {"n": 2, "s": 1})
    lex = Lexicon(model, {
        "big": (PSObject(make_tensor(model, parse_type("n"), [1e200, 1.0])),),
        "runs": (PSObject(make_tensor(model, parse_type("n^r s"), [1e200, 1.0])),),
    })
    io.save_doc(io.lexicon_to_doc(lex), tmp_path / "big.lex.json")
    io.save_doc(io.translation_to_doc(identity_translation(model)), tmp_path / "id.json")
    return tmp_path


@pytest.mark.parametrize("normalize", [[], ["--normalize"]], ids=["plain", "normalize"])
@pytest.mark.parametrize("command", ["meaning", "translate"])
def test_overflowing_meaning_is_numeric_error(tmp_path, capsys, command, normalize):
    # RuntimeWarning is an error under pytest, so none may escape either
    files = _overflowing_meaning_files(tmp_path)
    extra = ["--translation", str(files / "id.json")] if command == "translate" else []
    code, out, err = run(
        capsys,
        command, "--lex", str(files / "big.lex.json"), *extra,
        "--phrase", "big runs", "--to", "s", *normalize,
    )
    assert code == 3
    assert out == ""
    assert err.startswith("numeric error:") and err.count("\n") == 1
    assert "overflows float64" in err


# -- check -----------------------------------------------------------------------------

def test_check_projection_translation_fails(files, capsys):
    code, out, _ = run(
        capsys,
        "check", "--translation", str(files / "collapse.json"),
        "--from", "n_s n_s^r s n_p^l n_p", "--to", "s",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["max_residual"] > 0


def test_check_identity_translation_passes(files, tmp_path, capsys):
    from discotrans.translation import identity_translation

    lex = io.load_lexicon(files / "aware.lex.json")
    io.save_doc(
        io.translation_to_doc(identity_translation(lex.model)), tmp_path / "id.json"
    )
    code, out, _ = run(
        capsys,
        "check", "--translation", str(tmp_path / "id.json"),
        "--from", "n_s n_s^r s n_p^l n_p", "--to", "s",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["max_residual"] == 0


def test_check_prints_its_tolerance_to_12_significant_digits(files, capsys):
    argv = ["check", "--translation", str(files / "collapse.json"),
            "--from", "n_s n_s^r s n_p^l n_p", "--to", "s"]
    code, out, _ = run(capsys, *argv, "--tolerance", "0.12345678901234567")
    assert code == 1
    assert '\n  "tolerance": 0.123456789012,\n' in out
    # the residual is 1.0: a tolerance just below it prints as 1.0 and still fails,
    # since passed compares against the full value
    code, out, _ = run(capsys, *argv, "--tolerance", "0.99999999999999")
    doc = json.loads(out)
    assert (code, doc["tolerance"], doc["passed"]) == (1, 1.0, False)
    code, out, _ = run(capsys, *argv)
    assert '\n  "tolerance": 1e-09,\n' in out


def test_check_without_a_reduction_is_negative(files, capsys):
    code, out, err = run(
        capsys, "check", "--translation", str(files / "collapse.json"), "--from", "n_s", "--to", "s"
    )
    assert (code, out, err) == (1, "", "error: no reduction from 'n_s' to 's' to check\n")


# an infinite tolerance is rejected too: no document may hold it
@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_check_nan_or_negative_tolerance_is_input_error(files, capsys, tolerance):
    code, out, err = run(
        capsys,
        "check", "--translation", str(files / "collapse.json"),
        "--from", "n_s n_s^r s n_p^l n_p", "--to", "s", "--tolerance", tolerance,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_check_overflowing_residual_is_numeric_error(tmp_path, capsys):
    # alpha's Gram matrix overflows: no document may hold the infinite
    # residual, and RuntimeWarning is an error under pytest, so none may escape
    t = collapse_number_translation()
    alpha = dict(t.alpha, n_s=1e200 * DROP_QUANTITY)
    big = Translation(t.source_model, t.target_model, t.j, alpha)
    io.save_doc(io.translation_to_doc(big), tmp_path / "big.json")
    code, out, err = run(
        capsys,
        "check", "--translation", str(tmp_path / "big.json"), "--from", "n_s n_s^r s", "--to", "s",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("numeric error:") and err.count("\n") == 1


# -- procrustes and fit -----------------------------------------------------------------

def test_procrustes_on_positive_diagonal(tmp_path, capsys):
    io.save_doc(io.matrix_to_doc(np.diag([2.0, 0.5])), tmp_path / "m.json")
    code, out, _ = run(capsys, "procrustes", "--matrix", str(tmp_path / "m.json"))
    assert code == 0
    assert io.matrix_from_doc(json.loads(out)).tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_procrustes_numeric_failure(tmp_path, capsys):
    io.save_doc(io.matrix_to_doc(np.zeros((2, 2))), tmp_path / "m.json")
    code, _, err = run(capsys, "procrustes", "--matrix", str(tmp_path / "m.json"))
    assert code == 3
    assert "numeric error" in err


def test_fit_interpolates_basis(tmp_path, capsys):
    doc = {
        "format": 1,
        "pairs": [
            {"source": [1, 0], "target": [2, -1]},
            {"source": [0, 1], "target": [0, 3]},
        ],
    }
    io.save_doc(doc, tmp_path / "pairs.json")
    code, out, _ = run(capsys, "fit", "--pairs", str(tmp_path / "pairs.json"))
    assert code == 0
    matrix = io.matrix_from_doc(json.loads(out))
    assert matrix.tolist() == [[2.0, 0.0], [-1.0, 3.0]]


def test_fit_overflow_is_numeric_error(tmp_path, capsys):
    # the fitted 1e300 / 1e-320 is infinite, which no document may hold
    doc = {"format": 1, "pairs": [{"source": [1e-320], "target": [1e300]}]}
    io.save_doc(doc, tmp_path / "pairs.json")
    code, out, err = run(capsys, "fit", "--pairs", str(tmp_path / "pairs.json"))
    assert code == 3
    assert out == ""
    assert err.startswith("numeric error:") and err.count("\n") == 1


def test_underdetermined_fit_warns_on_one_line(tmp_path, capsys):
    doc = {"format": 1, "pairs": [{"source": [1, 0], "target": [2, -1]}]}
    io.save_doc(doc, tmp_path / "pairs.json")
    code, out, err = run(capsys, "fit", "--pairs", str(tmp_path / "pairs.json"))
    assert code == 0
    assert io.matrix_from_doc(json.loads(out)).tolist() == [[2.0, 0.0], [-1.0, 0.0]]
    assert err == "warning: fit is underdetermined; returning the minimal-norm solution\n"


@pytest.mark.parametrize(
    "pairs, message",
    [
        # vectors of different lengths, which numpy cannot stack
        (
            [{"source": [1, 0], "target": [1, 0]}, {"source": [1, 0, 0], "target": [0, 1]}],
            "pair 2's source has length 3, but pair 1's has length 2",
        ),
        (
            [{"source": [1, 0], "target": [1, 0]}, {"source": [0, 1], "target": [0]}],
            "pair 2's target has length 1, but pair 1's has length 2",
        ),
        # zero-length vectors, whose fit is an empty matrix no loader reads
        ([{"source": [], "target": []}], "pair 1 has an empty source"),
        ([{"source": [1], "target": [1]}, {"source": [2], "target": []}],
         "pair 2 has an empty target"),
    ],
)
def test_fit_on_mismatched_vectors_is_input_error(tmp_path, capsys, pairs, message):
    path = str(tmp_path / "pairs.json")
    io.save_doc({"format": 1, "pairs": pairs}, path)
    code, out, err = run(capsys, "fit", "--pairs", path)
    assert (code, out) == (2, "")
    assert err == f"error: --pairs {path!r}: pairs document: {message}\n"


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([], "at least one pair is required"),
        ([{"source": [[1, 0]], "target": [1]}], "pair 1's source has shape (1, 2), not a vector's"),
    ],
    ids=["no-pairs", "matrix-source"],
)
def test_fit_on_pairs_that_fit_alpha_refuses_is_input_error(tmp_path, capsys, pairs, message):
    path = str(tmp_path / "pairs.json")
    io.save_doc({"format": 1, "pairs": pairs}, path)
    code, out, err = run(capsys, "fit", "--pairs", path)
    assert (code, out, err) == (2, "", f"error: --pairs {path!r}: pairs document: {message}\n")


def test_unitary_fit_of_a_non_square_matrix_is_input_error(tmp_path, capsys):
    # 2-vectors to 1-vectors fit a 1x2 matrix, which nearest_unitary refuses
    pairs = [{"source": [1, 0], "target": [1]}, {"source": [0, 1], "target": [2]}]
    io.save_doc({"format": 1, "pairs": pairs}, tmp_path / "pairs.json")
    code, out, err = run(capsys, "fit", "--pairs", str(tmp_path / "pairs.json"), "--unitary")
    assert (code, out) == (2, "")
    assert err == "error: expected a non-empty square matrix, got shape (1, 2)\n"


def test_fit_unitary_outputs_orthogonal(tmp_path, capsys, rng):
    truth = np.array([[0.0, -1.0], [1.0, 0.0]])
    pairs = []
    for _ in range(10):
        x = rng.standard_normal(2)
        y = truth @ x + 0.01 * rng.standard_normal(2)
        pairs.append({"source": x.tolist(), "target": y.tolist()})
    io.save_doc({"format": 1, "pairs": pairs}, tmp_path / "pairs.json")
    code, out, _ = run(capsys, "fit", "--pairs", str(tmp_path / "pairs.json"), "--unitary")
    assert code == 0
    q = io.matrix_from_doc(json.loads(out))
    assert np.linalg.norm(q.T @ q - np.eye(2)) <= 1e-8


# -- dict -------------------------------------------------------------------------------

def test_dict_rows_at_zero_threshold(files, capsys):
    code, out, _ = run(
        capsys,
        "dict", "--lex-a", str(files / "aware.lex.json"),
        "--lex-b", str(files / "blind.lex.json"),
        "--translation", str(files / "collapse.json"),
        "--k", "0",
    )
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert ["boots", "boots", "id", "0"] in rows
    assert all(float(r[3]) == 0.0 for r in rows)


def test_dict_json_document(files, capsys):
    code, out, _ = run(
        capsys,
        "dict", "--lex-a", str(files / "aware.lex.json"),
        "--lex-b", str(files / "blind.lex.json"),
        "--translation", str(files / "collapse.json"),
        "--k", "0", "--json",
    )
    assert code == 0
    entries = io.dictionary_from_doc(json.loads(out))
    assert any(e.source_phrase.words == ("boots",) for e in entries)


def test_dict_reduced_only_sentences(files, capsys):
    code, out, _ = run(
        capsys,
        "dict", "--lex-a", str(files / "aware.lex.json"),
        "--lex-b", str(files / "blind.lex.json"),
        "--translation", str(files / "collapse.json"),
        "--max-source-len", "3", "--max-target-len", "3",
        "--reduced-only", "--k", "0", "--max-pairs", "2000000",
    )
    assert code == 0
    assert "Rosie wears boots\tRosie wears a_boot" in out


def test_dict_reduced_only_and_to_the_later_one_wins(files, capsys):
    argv = [
        "dict", "--lex-a", str(files / "aware.lex.json"),
        "--lex-b", str(files / "blind.lex.json"),
        "--translation", str(files / "collapse.json"),
        "--max-source-len", "3", "--max-target-len", "3", "--k", "0",
    ]
    onto_s = run(capsys, *argv, "--to", "s")
    onto_nn = run(capsys, *argv, "--to", "n n")
    assert onto_s != onto_nn
    assert run(capsys, *argv, "--to", "n n", "--reduced-only") == onto_s
    assert run(capsys, *argv, "--reduced-only", "--to", "n n") == onto_nn


def test_dict_empty_result_is_negative(files, tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "dict", "--lex-a", str(files / "aware.lex.json"),
        "--lex-b", str(files / "blind.lex.json"),
        "--translation", str(files / "collapse.json"),
        "--to", "n n",
    )
    assert code == 1
    assert out == ""


def test_dict_to_the_empty_type_filters_onto_the_unit(files, capsys):
    # "" parses as the unit type, and no demo phrase reduces onto it
    code, out, err = run(
        capsys,
        "dict", "--lex-a", str(files / "aware.lex.json"),
        "--lex-b", str(files / "blind.lex.json"),
        "--translation", str(files / "collapse.json"),
        "--max-source-len", "3", "--max-target-len", "3", "--to", "",
    )
    assert (code, out, err) == (1, "", "")


def test_dict_nan_threshold_is_input_error(files, capsys):
    code, out, err = run(
        capsys,
        "dict", "--lex-a", str(files / "aware.lex.json"),
        "--lex-b", str(files / "blind.lex.json"),
        "--translation", str(files / "collapse.json"),
        "--k", "nan",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_dict_budget_of_a_huge_length_cap_is_input_error(files, capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        "dict", "--lex-a", str(files / "aware.lex.json"),
        "--lex-b", str(files / "blind.lex.json"),
        "--translation", str(files / "collapse.json"),
        "--max-source-len", "100000",
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: more than the cap of 100000 phrase pairs; "
        "raise max_pairs or lower the length limits\n"
    )


@pytest.mark.parametrize("words, expected", [
    # one word with one sense: a phrase per length, 10^9 of them
    (slice(1), (2, "", "error: more than the cap of 100000 phrase pairs; "
                       "raise max_pairs or lower the length limits\n")),
    # no words: no phrase of any length, so an empty dictionary
    (slice(0), (1, "", "")),
])
def test_dict_huge_length_cap_on_a_small_lexicon_is_answered_at_once(
    files, capsys, words, expected
):
    path = files / "aware.lex.json"
    doc = json.loads(path.read_text())
    doc["words"] = doc["words"][words]
    io.save_doc(doc, path)
    start = time.perf_counter()
    result = run(
        capsys,
        "dict", "--lex-a", str(path),
        "--lex-b", str(files / "blind.lex.json"),
        "--translation", str(files / "collapse.json"),
        "--max-source-len", "1000000000",
    )
    assert time.perf_counter() - start < 1.0
    assert result == expected


def test_dict_negative_max_pairs_is_input_error(files, capsys):
    code, out, err = run(
        capsys,
        "dict", "--lex-a", str(files / "aware.lex.json"),
        "--lex-b", str(files / "blind.lex.json"),
        "--translation", str(files / "collapse.json"),
        "--max-pairs", "-5",
    )
    assert (code, out, err) == (2, "", "error: --max-pairs -5: max_pairs must be at least 0, got -5\n")


@pytest.mark.parametrize(
    "option, value, shown, rule",
    [
        ("--max-pairs", "-1", "-1", "max_pairs must be at least 0, got -1"),
        ("--max-source-len", "0", "0", "phrase length caps must be at least 1"),
        ("--max-target-len", "0", "0", "phrase length caps must be at least 1"),
        ("--k", "nan", "nan", "threshold must be non-negative"),
        ("--k", "-1", "-1.0", "threshold must be non-negative"),
        ("--tolerance", "-1", "-1.0", "tolerance must be a finite non-negative number, got -1.0"),
    ],
)
def test_an_argument_error_names_its_option_and_value(files, capsys, option, value, shown, rule):
    if option == "--tolerance":
        argv = ["check", "--translation", str(files / "collapse.json"),
                "--from", "n_s n_s^r s", "--to", "s"]
    else:
        argv = ["dict", "--lex-a", str(files / "aware.lex.json"),
                "--lex-b", str(files / "blind.lex.json"),
                "--translation", str(files / "collapse.json")]
    code, out, err = run(capsys, *argv, option, value)
    assert (code, out, err) == (2, "", f"error: {option} {shown}: {rule}\n")


def test_dict_output_is_deterministic(files, capsys):
    argv = (
        "dict", "--lex-a", str(files / "aware.lex.json"),
        "--lex-b", str(files / "blind.lex.json"),
        "--translation", str(files / "collapse.json"), "--k", "0",
    )
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


_DEMO_DICT = [
    "dict", "--lex-a", "{files}/aware.lex.json", "--lex-b", "{files}/blind.lex.json",
    "--translation", "{files}/collapse.json",
    "--max-source-len", "3", "--max-target-len", "3", "--k", "0",
]
_DEMO_MEANING = ["meaning", "--lex", "{files}/aware.lex.json", "--to", "s", "--phrase"]
_DEMO_TRANSLATE = [
    "translate", "--translation", "{files}/collapse.json",
    "--lex", "{files}/aware.lex.json", "--to", "s", "--phrase",
]


# the demo data are small integers and these dictionaries keep only exact
# zeros, so the bytes do not depend on the BLAS build
@pytest.mark.parametrize("argv, code, sha256", [
    (_DEMO_DICT, 0, "583aca4a91498f2ddb88deb0a7d7a8a3b69a11bc394daba0df588842e956aa62"),
    (_DEMO_DICT + ["--to", "s"], 0,
     "ab999e0558541aff41c46b5caf4b1b1f5f92c85d28774aec750225926ddddfbd"),
    (_DEMO_DICT + ["--to", "s", "--json"], 0,
     "e22b5609cb62f5aa22c890139860f13ffc620760d26c5553ea432ce2ba57cd11"),
    (_DEMO_MEANING + ["Rosie wears boots"], 0,
     "0bc869ac162317bdfea6d1aedc94b0ea470ab7370613146ccac777b95175541a"),
    (_DEMO_MEANING + ["Rosie wears boots", "--normalize"], 0,
     "0bc869ac162317bdfea6d1aedc94b0ea470ab7370613146ccac777b95175541a"),
    (_DEMO_MEANING + ["Rosie wears a_boot"], 0,
     "4fb5a23a0e98e09ab10420ce0d3df26035b85835d1d52c3d3d0aa31fd4c61101"),
    (_DEMO_MEANING + ["Rosie wears a_boot", "--normalize"], 0,
     "71cbf74911a49418ff3714892f37ad7b15f88972baad5073de9dce108a36d519"),
    (_DEMO_TRANSLATE + ["Rosie wears boots"], 0,
     "0bc869ac162317bdfea6d1aedc94b0ea470ab7370613146ccac777b95175541a"),
    (_DEMO_TRANSLATE + ["Rosie wears boots", "--normalize"], 0,
     "0bc869ac162317bdfea6d1aedc94b0ea470ab7370613146ccac777b95175541a"),
    (_DEMO_TRANSLATE + ["Rosie wears a_boot"], 0,
     "0bc869ac162317bdfea6d1aedc94b0ea470ab7370613146ccac777b95175541a"),
    (_DEMO_TRANSLATE + ["Rosie wears a_boot", "--normalize"], 0,
     "0bc869ac162317bdfea6d1aedc94b0ea470ab7370613146ccac777b95175541a"),
    (_DEMO_TRANSLATE + ["Rosie wears boots", "--senses", "0,1,0"], 0,
     "0bc869ac162317bdfea6d1aedc94b0ea470ab7370613146ccac777b95175541a"),
    (["check", "--translation", "{files}/collapse.json",
      "--from", "n_s n_s^r s n_p^l n_p", "--to", "s"], 1,
     "b52a7de94bfb248042c950f4409cf417c01c8790b57f6b2116013c7019f86307"),
])
def test_demo_outputs_are_pinned_byte_for_byte(files, capsys, argv, code, sha256):
    got = run(capsys, *(arg.format(files=files) for arg in argv))
    assert (got[0], hashlib.sha256(got[1].encode()).hexdigest(), got[2]) == (code, sha256, "")


def _demo_dict(files):
    argv = [
        "dict", "--lex-a", str(files / "aware.lex.json"),
        "--lex-b", str(files / "blind.lex.json"),
        "--translation", str(files / "collapse.json"),
        "--max-source-len", "2", "--max-target-len", "2", "--max-pairs", "10000",
    ]
    return argv, DictionaryQuery(max_source_len=2, max_target_len=2, max_pairs=10_000)


def _random_dict(tmp_path, seed):
    """A multi-bucket pair reduced onto s and thresholded."""
    lex_a, lex_b, t, _ = _random_bucket_pair(seed)
    for name, doc in [("a.lex.json", io.lexicon_to_doc(lex_a)),
                      ("b.lex.json", io.lexicon_to_doc(lex_b)),
                      ("t.json", io.translation_to_doc(t))]:
        io.save_doc(doc, tmp_path / name)
    argv = [
        "dict", "--lex-a", str(tmp_path / "a.lex.json"), "--lex-b", str(tmp_path / "b.lex.json"),
        "--translation", str(tmp_path / "t.json"),
        "--max-source-len", "3", "--max-target-len", "2", "--to", "s", "--k", "8",
    ]
    query = DictionaryQuery(
        max_source_len=3, max_target_len=2, target_type_filter=parse_type("s"), threshold=8.0
    )
    return argv, query


def _library_table(argv, query):
    """What ``build_dictionary`` gives on the files a ``dict`` command reads."""
    files = dict(zip(argv[1::2], argv[2::2]))
    lex_a, lex_b = io.load_lexicon(files["--lex-a"]), io.load_lexicon(files["--lex-b"])
    return build_dictionary(lex_a, lex_b, io.load_translation(files["--translation"]), query)


# at these seeds, phrases of two types reduce onto s on each side
@pytest.fixture(params=["demo", "random-2", "random-9", "random-23"])
def dict_case(request, files, tmp_path):
    if request.param == "demo":
        return _demo_dict(files)
    return _random_dict(tmp_path, int(request.param.split("-")[1]))


def test_dict_rows_are_the_library_rows(dict_case, capsys):
    argv, query = dict_case
    table = _library_table(argv, query)
    assert len({e.source_phrase.words for e in table}) > 1
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == io.dictionary_to_rows(table) + "\n"


def test_dict_json_is_the_library_document(dict_case, capsys):
    argv, query = dict_case
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out) == json.loads(io.dictionary_to_json(_library_table(argv, query)))
    # the library reads the document back: one entry per row the same query prints
    _, rows, _ = run(capsys, *argv)
    assert len(io.dictionary_from_doc(json.loads(out))) == rows.count("\n")


def test_dict_rows_build_no_entry_objects(files, capsys, monkeypatch):
    built = []

    class CountedEntry(dictionary.DictionaryEntry):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(dictionary, "DictionaryEntry", CountedEntry)
    argv, _ = _demo_dict(files)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert built == []
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["entries"]
    assert built == []
    # the counter does see the entries that iterating the table makes
    entries = list(_library_table(*_demo_dict(files)))
    assert len(built) == len(entries) > 0


@pytest.mark.parametrize("extra", [[], ["--json"], ["--k", "1"]], ids=["rows", "json", "k1"])
def test_dict_overflow_is_numeric_error(tmp_path, capsys, extra):
    lex, t = overflow_pair()
    io.save_doc(io.lexicon_to_doc(lex), tmp_path / "big.lex.json")
    io.save_doc(io.translation_to_doc(t), tmp_path / "id.json")
    code, out, err = run(
        capsys,
        "dict", "--lex-a", str(tmp_path / "big.lex.json"), "--lex-b", str(tmp_path / "big.lex.json"),
        "--translation", str(tmp_path / "id.json"),
        "--max-source-len", "2", "--max-target-len", "2", *extra,
    )
    assert code == 3
    assert out == ""
    assert err.startswith("numeric error:") and err.count("\n") == 1


def test_closed_stdout_is_not_an_error(files):
    # the reader takes one line and closes the pipe, as `| head -1` does;
    # the document (about 1.2 MB) is far larger than a pipe's buffer
    src = str(Path(discotrans.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.Popen(
        [sys.executable, "-m", "discotrans", "dict",
         "--lex-a", str(files / "aware.lex.json"), "--lex-b", str(files / "blind.lex.json"),
         "--translation", str(files / "collapse.json"),
         "--max-source-len", "3", "--max-target-len", "3", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "meaning", "--lex", "nope.json", "--phrase", "x", "--to", "s")
    assert code == 2


def test_lexicon_with_non_array_words_is_input_error(files, capsys):
    path = files / "aware.lex.json"
    doc = json.loads(path.read_text())
    doc["words"] = 5
    io.save_doc(doc, path)
    code, _, err = run(capsys, "meaning", "--lex", str(path), "--phrase", "Rosie", "--to", "n_s")
    assert code == 2
    assert "'words' must be a JSON array" in err


def test_translation_with_non_object_j_is_input_error(files, capsys):
    path = files / "collapse.json"
    doc = json.loads(path.read_text())
    doc["j"] = ["n"]
    io.save_doc(doc, path)
    code, _, err = run(
        capsys, "check", "--translation", str(path), "--from", "n_s", "--to", "n_s"
    )
    assert code == 2
    assert "'j' must be a JSON object" in err


def test_translation_without_alpha_matrix_is_input_error(files, capsys):
    path = files / "collapse.json"
    doc = json.loads(path.read_text())
    del doc["alpha"]["n_s"]
    io.save_doc(doc, path)
    code, _, err = run(
        capsys, "check", "--translation", str(path), "--from", "n_s", "--to", "n_s"
    )
    assert code == 2
    assert "no matrix for basic type 'n_s'" in err


def test_boolean_dimension_is_input_error(files, capsys):
    # JSON true is a Python int; it must not pass as dimension 1
    path = files / "aware.lex.json"
    doc = json.loads(path.read_text())
    doc["model"]["basic_types"]["s"] = True
    io.save_doc(doc, path)
    code, _, err = run(capsys, "meaning", "--lex", str(path), "--phrase", "Rosie", "--to", "n_s")
    assert code == 2
    assert "positive integers" in err


@pytest.mark.parametrize("dim", [2.5, "3", 0])
def test_non_integer_dimension_names_the_model_field(files, capsys, dim):
    path = files / "aware.lex.json"
    doc = json.loads(path.read_text())
    doc["model"]["basic_types"]["s"] = dim
    io.save_doc(doc, path)
    code, out, err = run(capsys, "meaning", "--lex", str(path), "--phrase", "Rosie", "--to", "n_s")
    assert (code, out) == (2, "")
    assert err == (
        f"error: --lex {str(path)!r}: "
        f"model 'basic_types': dimensions must be positive integers, but 's' has {dim!r}\n"
    )


def test_lexicon_with_non_number_data_is_input_error(files, capsys):
    path = files / "aware.lex.json"
    doc = json.loads(path.read_text())
    doc["words"][0]["data"][0] = {"value": 1}
    io.save_doc(doc, path)
    code, _, err = run(capsys, "meaning", "--lex", str(path), "--phrase", "Rosie", "--to", "n_s")
    assert code == 2
    assert "'data' must hold JSON numbers only" in err


def test_lexicon_with_wrong_length_data_is_input_error(files, capsys):
    path = files / "aware.lex.json"
    doc = json.loads(path.read_text())
    record = doc["words"][0]
    record["data"].append(1.0)
    io.save_doc(doc, path)
    code, out, err = run(capsys, "meaning", "--lex", str(path), "--phrase", "Rosie", "--to", "n_s")
    assert (code, out) == (2, "")
    size = len(record["data"]) - 1
    assert err == (
        f"error: --lex {str(path)!r}: "
        f"lexicon record {record['word']!r} 'data': type '{record['type']}' "
        f"in model {doc['model']['name']!r} needs {size} entries, got {size + 1}\n"
    )


def test_lexicon_with_boolean_among_numbers_is_input_error(files, capsys):
    # numpy reads [2.0, true, 3.0, 1.0] as floats; the true must not pass as 1.0
    path = files / "aware.lex.json"
    doc = json.loads(path.read_text())
    doc["words"][0]["data"][1] = True
    io.save_doc(doc, path)
    code, _, err = run(capsys, "meaning", "--lex", str(path), "--phrase", "Rosie", "--to", "n_s")
    assert code == 2
    assert "'data' must hold JSON numbers only" in err


def _with_non_finite_rosie(files, value):
    # json writes these as the NaN and Infinity literals, which json reads back
    path = files / "aware.lex.json"
    doc = json.loads(path.read_text())
    doc["words"][0]["data"][0] = value
    io.save_doc(doc, path)
    return path


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_lexicon_with_non_finite_data_is_input_error(files, capsys, value):
    path = _with_non_finite_rosie(files, value)
    code, out, err = run(
        capsys, "meaning", "--lex", str(path), "--phrase", "Rosie", "--to", "n_s"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "finite" in err


def test_dict_over_non_finite_data_is_input_error(files, capsys):
    path = _with_non_finite_rosie(files, float("nan"))
    code, out, err = run(
        capsys,
        "dict", "--lex-a", str(path),
        "--lex-b", str(files / "blind.lex.json"),
        "--translation", str(files / "collapse.json"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "finite" in err


def test_translation_with_object_alpha_is_input_error(files, capsys):
    path = files / "collapse.json"
    doc = json.loads(path.read_text())
    doc["alpha"]["n_s"] = {"rows": doc["alpha"]["n_s"]}
    io.save_doc(doc, path)
    code, _, err = run(
        capsys, "check", "--translation", str(path), "--from", "n_s", "--to", "n_s"
    )
    assert code == 2
    assert "alpha['n_s'] must hold JSON numbers only" in err


def test_out_of_memory_is_input_error(files, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr("discotrans.cli.build_dictionary", exhausted)
    code, out, err = run(
        capsys,
        "dict", "--lex-a", str(files / "aware.lex.json"),
        "--lex-b", str(files / "blind.lex.json"),
        "--translation", str(files / "collapse.json"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory")


@pytest.mark.parametrize("lex_b", ["impostor.lex.json", "aware.lex.json"])
def test_conflicting_model_declarations_rejected(files, capsys, lex_b):
    # a second lexicon reusing the source model's name with other dimensions,
    # and the source lexicon itself: --lex-b's model is not the translation's
    # target, whatever its name
    impostor = LanguageModel("number-aware", {"n_s": 2, "n_p": 2, "n": 2, "s": 1})
    lex = Lexicon(
        impostor,
        {"w": (PSObject(make_tensor(impostor, parse_type("n_s"), [1, 0])),)},
    )
    io.save_doc(io.lexicon_to_doc(lex), files / "impostor.lex.json")
    code, out, err = run(
        capsys,
        "dict", "--lex-a", str(files / "aware.lex.json"),
        "--lex-b", str(files / lex_b),
        "--translation", str(files / "collapse.json"),
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: lexicon uses model 'number-aware', the translation needs 'number-blind'\n"
    )


def test_an_internal_fault_is_one_line_and_exit_2(capsys, monkeypatch):
    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_parse", broken)
    code, out, err = run(capsys, "parse", "--from", "n", "--to", "n")
    assert (code, out, err) == (2, "", "error: internal error: KeyError: 'boom'\n")


# -- fuzzed documents ---------------------------------------------------------------

_DELETE = object()
_FUZZ_VALUES = [None, True, False, 0, -1, 2.5, 1e308, "", "n^r", [], [1], {}, [True, 1.0]]
_FUZZ_COMMANDS = {
    "meaning": ["--lex", "{aware}", "--phrase", "Rosie wears boots", "--to", "s"],
    "translate": ["--lex", "{aware}", "--translation", "{collapse}",
                  "--phrase", "Rosie wears boots", "--to", "s"],
    "check": ["--translation", "{collapse}", "--from", "n_s n_s^r s n_p^l n_p", "--to", "s"],
    "dict": ["--lex-a", "{aware}", "--lex-b", "{blind}", "--translation", "{collapse}",
             "--max-source-len", "2", "--max-target-len", "2"],
}


def _demo_docs():
    lex, t = wardrobe_lexicon(), collapse_number_translation()
    return {
        "aware": io.lexicon_to_doc(lex),
        "blind": io.lexicon_to_doc(translate_lexicon(t, lex)),
        "collapse": io.translation_to_doc(t),
    }


def _fields(node, path=()):
    """The path of every field below ``node``: object keys and array indices."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _fields(child, path + (key,))


_DOCS = _demo_docs()
_DOC_FIELDS = {name: list(_fields(doc)) for name, doc in _DOCS.items()}


@st.composite
def _mutated_run(draw):
    """A command, its documents with one field replaced or deleted, and its options."""
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    argv = _FUZZ_COMMANDS[command]
    name = draw(st.sampled_from([n for n in sorted(_DOCS) if f"{{{n}}}" in argv]))
    path = draw(st.sampled_from(_DOC_FIELDS[name]))
    value = draw(st.sampled_from([_DELETE, *_FUZZ_VALUES]))
    if command in ("meaning", "translate") and draw(st.booleans()):
        argv = [*argv, "--normalize"]
    return command, name, path, value, argv


@settings(max_examples=100, deadline=None)
@given(_mutated_run())
def test_mutated_documents_end_in_a_documented_exit(case):
    # every outcome is one of the four exit codes with one-line messages, and
    # exit 1 is a negative result, never a fault
    command, name, path, value, argv = case
    docs = json.loads(json.dumps(_DOCS))
    *parents, last = path
    parent = docs[name]
    for key in parents:
        parent = parent[key]
    if value is _DELETE:
        del parent[last]
    else:
        parent[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        paths = {doc_name: str(Path(tmp, f"{doc_name}.json")) for doc_name in docs}
        for doc_name, doc in docs.items():
            io.save_doc(doc, paths[doc_name])
        argv = [a.format_map(paths) for a in argv]
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, *argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert all(re.match("(error|numeric error|warning): ", line) for line in err.splitlines())
    assert "internal error" not in err
    if code == 1:
        no_reduction = re.fullmatch(r"error: no (sense assignment of|reduction from) .*\n", err)
        failed_check = command == "check" and err == "" and json.loads(out)["passed"] is False
        empty_dictionary = command == "dict" and (out, err) == ("", "")
        assert no_reduction or failed_check or empty_dictionary
