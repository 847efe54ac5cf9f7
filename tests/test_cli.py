import json

import numpy as np
import pytest

from discotrans import io
from discotrans.cli import main
from discotrans.demo import collapse_number_translation, wardrobe_lexicon
from discotrans.translation import translate_lexicon


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


def test_dict_output_is_deterministic(files, capsys):
    argv = (
        "dict", "--lex-a", str(files / "aware.lex.json"),
        "--lex-b", str(files / "blind.lex.json"),
        "--translation", str(files / "collapse.json"), "--k", "0",
    )
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


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


def test_lexicon_with_non_number_data_is_input_error(files, capsys):
    path = files / "aware.lex.json"
    doc = json.loads(path.read_text())
    doc["words"][0]["data"][0] = {"value": 1}
    io.save_doc(doc, path)
    code, _, err = run(capsys, "meaning", "--lex", str(path), "--phrase", "Rosie", "--to", "n_s")
    assert code == 2
    assert "'data' must hold JSON numbers only" in err


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


def test_conflicting_model_declarations_rejected(files, tmp_path, capsys):
    # a second lexicon reusing the model name with other dimensions
    from discotrans.grammar import parse_type
    from discotrans.lexicon import Lexicon
    from discotrans.product_space import PSObject
    from discotrans.semantics import LanguageModel, make_tensor

    impostor = LanguageModel("number-aware", {"n_s": 2, "n_p": 2, "n": 2, "s": 1})
    lex = Lexicon(
        impostor,
        {"w": (PSObject.of(make_tensor(impostor, parse_type("n_s"), [1, 0])),)},
    )
    io.save_doc(io.lexicon_to_doc(lex), tmp_path / "impostor.lex.json")
    code, _, err = run(
        capsys,
        "dict", "--lex-a", str(files / "aware.lex.json"),
        "--lex-b", str(tmp_path / "impostor.lex.json"),
        "--translation", str(files / "collapse.json"),
    )
    assert code == 2
    assert "declared twice" in err
