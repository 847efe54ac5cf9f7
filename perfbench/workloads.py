"""The benchmark's workloads: set-up, one cycle of operations, and checks.

Every workload is one closed loop with one caller: the next operation
starts when the previous one has returned.  ``setup`` makes the inputs
from the seed (the same seed gives the same inputs); ``ops`` lists one
cycle of operations; ``run`` performs and times one operation; ``check``
verifies its output after the timed region.

- ``dict-wide`` and ``dict-deep`` time one ``discotrans dict`` command per
  operation, each in a fresh interpreter so the grammar memo starts empty.
- ``sentences`` computes a sentence's meaning and its translated meaning
  in-process through ``phrase_meaning``, as a library caller does.
- ``verify`` runs ``cli.main(["check", ...])`` in-process.
"""

from __future__ import annotations

import hashlib
import io as stdio
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150


@dataclass
class OpResult:
    seconds: float
    items: int
    payload: object
    stdout_bytes: int = 0
    rss_mb: float | None = None  # peak RSS of the child that ran the operation
    layers: dict | None = None  # per-layer totals from a traced child


class DictWorkload:
    """One ``dict`` command per operation; items are candidate phrase pairs."""

    in_process = False

    def __init__(self, name: str, seed: int, smoke: bool, workdir: Path, src_dir: Path, oracles):
        self.size = (inputs.DICT_SMOKE if smoke else inputs.DICT_SIZES)[name]
        self.seed, self.workdir, self.src_dir, self.oracles = seed, workdir, src_dir, oracles
        self.outputs: dict[str, bytes] = {}
        self.verdicts: dict[str, list[str]] = {}

    def setup(self) -> None:
        from discotrans.io import lexicon_from_doc, translation_from_doc
        from discotrans.translation import translate_lexicon

        def push(source: inputs.Lex, trans: inputs.Trans):
            image = translate_lexicon(translation_from_doc(trans.doc()), lexicon_from_doc(source.doc()))
            return {w: [(str(o.type), o.meaning.array) for o in objs]
                    for w, objs in image.entries.items()}

        self.inputs = inputs.dict_inputs(np.random.default_rng(self.seed), self.size, push)
        paths = {n: self.workdir / f"{n}.json" for n in ("source", "target", "translation")}
        inputs.write_json(self.inputs.source.doc(), paths["source"])
        inputs.write_json(self.inputs.target.doc(), paths["target"])
        inputs.write_json(self.inputs.translation.doc(), paths["translation"])
        self.pairs = (inputs.candidate_count(self.inputs.source, self.size.max_source_len)
                      * inputs.candidate_count(self.inputs.target, self.size.max_target_len))
        self.argv = [
            "dict", "--lex-a", str(paths["source"]), "--lex-b", str(paths["target"]),
            "--translation", str(paths["translation"]),
            "--max-source-len", str(self.size.max_source_len),
            "--max-target-len", str(self.size.max_target_len),
            "--max-pairs", str(self.pairs),
        ] + ([] if self.size.k is None else ["--k", repr(self.size.k)])

    def ops(self) -> list:
        return ["dict"]

    def run(self, op, spans_path: Path | None = None) -> OpResult:
        rows_path, meta_path = self.workdir / "rows.tsv", self.workdir / "meta.json"
        meta_path.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "dict_child.py"), str(self.src_dir), str(meta_path),
                   str(spans_path) if spans_path else "-", "--", *self.argv]
        with open(rows_path, "wb") as rows:
            proc = subprocess.run(command, stdout=rows, stderr=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not meta_path.exists():
            raise RuntimeError(f"dict child exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
        meta = json.loads(meta_path.read_text())
        if meta["exit"] != 0:
            raise RuntimeError(f"dict exited {meta['exit']}: {proc.stderr.decode()[-400:]}")
        data = rows_path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        self.outputs.setdefault(digest, data)
        return OpResult(meta["seconds"], self.pairs, digest, len(data), meta["rss_mb"],
                        meta.get("layers"))

    def check(self, op, digest: str) -> list[str]:
        if digest not in self.verdicts:
            rows = self.outputs[digest].decode()
            self.verdicts[digest] = checks.check_dictionary(rows, self.inputs, self.oracles)
        return self.verdicts[digest]


class SentenceWorkload:
    """One sentence per operation: its meaning and its translated meaning."""

    in_process = True

    def __init__(self, name: str, seed: int, smoke: bool, workdir: Path, src_dir: Path, oracles):
        self.size = inputs.SENTENCE_SMOKE if smoke else inputs.SENTENCE_SIZE
        self.seed = seed
        self.expected: dict[int, tuple] = {}

    def setup(self) -> None:
        from discotrans.grammar import parse_type
        from discotrans.io import lexicon_from_doc, translation_from_doc
        from discotrans.lexicon import Phrase
        from discotrans.translation import translate_lexicon

        self.inputs = inputs.sentence_inputs(np.random.default_rng(self.seed), self.size)
        self.lexicon = lexicon_from_doc(self.inputs.source.doc())
        translation = translation_from_doc(self.inputs.translation.doc())
        self.translated = translate_lexicon(translation, self.lexicon)
        self.phrases = [Phrase(words) for words in self.inputs.sentences]
        self.s_source = parse_type("s", self.lexicon.model.basics)
        self.s_target = parse_type("s", self.translated.model.basics)

    def ops(self) -> list:
        return list(range(len(self.phrases)))

    def run(self, op: int, spans_path=None) -> OpResult:
        from discotrans.lexicon import phrase_meaning

        phrase = self.phrases[op]
        start = time.perf_counter()
        source = phrase_meaning(self.lexicon, phrase, self.s_source)
        translated = phrase_meaning(self.translated, phrase, self.s_target)
        seconds = time.perf_counter() - start
        return OpResult(seconds, 1, (source.array, translated.array))

    def check(self, op: int, payload) -> list[str]:
        if op not in self.expected:
            self.expected[op] = checks.expected_sentence(
                self.inputs.source, self.inputs.translation, self.inputs.sentences[op])
        return checks.check_sentence(payload, self.expected[op])


class VerifyWorkload:
    """One ``check`` command per operation, over every (reduction,
    translation) pair in turn."""

    in_process = True

    def __init__(self, name: str, seed: int, smoke: bool, workdir: Path, src_dir: Path, oracles):
        self.size = inputs.VERIFY_SMOKE if smoke else inputs.VERIFY_SIZE
        self.seed, self.workdir = seed, workdir

    def setup(self) -> None:
        self.translations = inputs.verify_inputs(np.random.default_rng(self.seed), self.size)
        self.paths = {}
        for name, (trans, _) in self.translations.items():
            self.paths[name] = self.workdir / f"{name}.json"
            inputs.write_json(trans.doc(), self.paths[name])

    def ops(self) -> list:
        return [(name, source, target) for source, target in inputs.REDUCTIONS
                for name in self.translations]

    def run(self, op, spans_path=None) -> OpResult:
        from discotrans import cli

        name, source, target = op
        argv = ["check", "--translation", str(self.paths[name]), "--from", source, "--to", target]
        out, err = stdio.StringIO(), stdio.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
        text = out.getvalue()
        return OpResult(seconds, 1, (code, text, err.getvalue()), len(text.encode()))

    def check(self, op, payload) -> list[str]:
        name, source, _ = op
        trans, must_pass = self.translations[name]
        code, stdout, stderr = payload
        return checks.check_naturality_output(
            code, stdout, stderr, must_pass, checks.basis_size(source, trans.source.dims))


WORKLOADS = {
    "dict-wide": DictWorkload,
    "dict-deep": DictWorkload,
    "sentences": SentenceWorkload,
    "verify": VerifyWorkload,
}
