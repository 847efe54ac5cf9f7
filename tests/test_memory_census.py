"""Memory census: CLI commands whose inputs sit within every budget.

Each case runs one command in a child interpreter that caps its own
address space at 1 GiB with ``RLIMIT_AS`` and uses one BLAS thread, so a
command that asks for more ends in exit 2 (``error: out of memory``)
instead of taking the memory.  The cases that ask for more today are
strict xfails on ``MemoryError``, each naming the ROADMAP item that fixes
it; when that item lands, the case passes and its mark must go.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import discotrans

resource = pytest.importorskip("resource")

_CAP = 1 << 30
_NOT_ENFORCED = 77
# the child caps itself, then maps twice the cap without touching it: if
# that mapping succeeds, the cap is not enforced here and the case skips
_CHILD = f"""
import mmap, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({_CAP}, {_CAP}))
try:
    mmap.mmap(-1, {2 * _CAP}).close()
except OSError:
    pass
else:
    sys.exit({_NOT_ENFORCED})
from discotrans.cli import main
sys.exit(main(sys.argv[1:]))
"""
_SRC = str(Path(discotrans.__file__).resolve().parents[1])
_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
    **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"),
)


def _run_capped(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv], capture_output=True, text=True, env=_ENV,
        timeout=60,
    )
    if proc.returncode == _NOT_ENFORCED:
        pytest.skip("RLIMIT_AS is not enforced on this platform")
    if proc.stderr.startswith("error: out of memory:"):
        raise MemoryError(proc.stderr)
    assert (proc.returncode, proc.stderr) == (0, "")


def _model(name, dims):
    return {"format": 1, "name": name, "basic_types": dims}


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _lexicon(path, dims, words, name="m"):
    """A lexicon file of random senses; ``words`` maps each word to its type."""
    rng = np.random.default_rng(0)
    records = []
    for word, type_text in words.items():
        size = int(np.prod([dims[s.split("^")[0]] for s in type_text.split()]))
        records.append({"word": word, "type": type_text,
                        "data": rng.standard_normal(size).tolist()})
    return _write(path, {"format": 1, "model": _model(name, dims), "words": records})


def _identity(path, dims):
    model = _model("m", dims)
    return _write(path, {
        "format": 1, "source": model, "target": model, "j": {b: b for b in dims},
        "alpha": {b: np.eye(d).tolist() for b, d in dims.items()},
    })


def _dict(tmp_path, d):
    # 3 nouns and 2 transitive verbs: 155 phrases of up to 3 words a side,
    # 24,025 of the default 100,000 pairs
    dims = {"x": d, "s": 1}
    words = {"n1": "x", "n2": "x", "n3": "x", "v1": "x^r s x^l", "v2": "x^r s x^l"}
    lex = _lexicon(tmp_path / "lex.json", dims, words)
    _run_capped("dict", "--lex-a", lex, "--lex-b", lex,
                "--translation", _identity(tmp_path / "id.json", dims),
                "--max-source-len", "3", "--max-target-len", "3", "--to", "s")


def test_dict_of_transitive_sentences_at_d32(tmp_path):
    _dict(tmp_path, 32)


@pytest.mark.xfail(strict=True, raises=MemoryError,
                   reason="asks for 2.25 GiB: items 4b and 9, the phrase stack bounded in bytes")
def test_dict_of_transitive_sentences_at_d64(tmp_path):
    _dict(tmp_path, 64)


def test_check_of_a_transitive_sentence_at_n64(tmp_path):
    t = _identity(tmp_path / "id.json", {"n": 64, "s": 2})
    _run_capped("check", "--translation", t, "--from", "n n^r s n^l n", "--to", "s")


def test_parse_of_a_long_type():
    _run_capped("parse", "--from", "n n^r " * 480 + "s", "--to", "s")


@pytest.mark.xfail(strict=True, raises=MemoryError,
                   reason="asks for 2.00 GiB for 16 entries: item 4a, meanings over word networks")
def test_meaning_of_three_adjectives_and_a_noun(tmp_path):
    lex = _lexicon(tmp_path / "lex.json", {"n": 16}, {"a": "n n^l", "c": "n"})
    _run_capped("meaning", "--lex", lex, "--phrase", "a a a c", "--to", "n")


@pytest.mark.xfail(strict=True, raises=MemoryError,
                   reason="asks for 1.00 GiB for 512 entries: item 4a, meanings over word networks")
def test_translate_of_an_adjective_and_a_noun(tmp_path):
    # a two-word phrase at d=2, pushed through n -> m m m at m=8
    lex = _lexicon(tmp_path / "lex.json", {"n": 2}, {"adj": "n n^l", "c": "n"}, "a")
    alpha = np.random.default_rng(1).standard_normal((8 ** 3, 2))
    t = _write(tmp_path / "t.json", {
        "format": 1, "source": _model("a", {"n": 2}), "target": _model("b", {"m": 8}),
        "j": {"n": "m m m"}, "alpha": {"n": alpha.tolist()},
    })
    _run_capped("translate", "--lex", lex, "--translation", t, "--phrase", "adj c",
                "--to", "m m m")
