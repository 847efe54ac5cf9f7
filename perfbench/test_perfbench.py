"""Tests of the benchmark itself, on the smoke sizes of every workload.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from workloads import DictWorkload  # noqa: E402

WORKLOADS = ["dict-wide", "dict-deep", "sentences", "verify"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_metrics_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    for key, metrics in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in SPEC[key]] == metrics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result = bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, trace=1), bench(workload, trace=1)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    exact = [n for n in first["metrics"] if n.endswith(".calls") or "bytes" in n]
    assert {n: first["metrics"][n]["value"] for n in exact} == {
        n: second["metrics"][n]["value"] for n in exact}
    reached = {
        "dict-wide": ["cli.main.calls", "translation.alpha_component.calls"],
        "dict-deep": ["cli.main.calls", "grammar.reduce_search.calls"],
        "sentences": ["lexicon.phrase_meaning.calls"],
        "verify": ["cli.main.calls", "translation.check_naturality.calls"],
    }[workload]
    assert all(first["metrics"][name]["value"] > 0 for name in reached)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    def make(seed):
        return inputs.sentence_inputs(np.random.default_rng(seed), inputs.SENTENCE_SMOKE)

    a, b, c = make(3), make(3), make(4)
    assert a.sentences == b.sentences
    assert all(np.array_equal(x[2], y[2]) for x, y in zip(a.source.senses, b.source.senses))
    assert not all(np.array_equal(x[2], y[2]) for x, y in zip(a.source.senses, c.source.senses))


@pytest.fixture(scope="module")
def dict_rows(tmp_path_factory):
    workload = DictWorkload("dict-deep", 5, True, tmp_path_factory.mktemp("dict"),
                            ROOT / "src", oracles)
    workload.setup()
    digest = workload.run("dict").payload
    rows = workload.outputs[digest].decode()
    assert checks.check_dictionary(rows, workload.inputs, oracles) == []
    return workload, rows.splitlines()


def _row_with(lines, predicate):
    return next(i for i, line in enumerate(lines) if predicate(line.split("\t")))


@pytest.mark.parametrize("defect", ["drop", "distance", "order", "diagonal", "reduction"])
def test_dictionary_check_catches_defects(dict_rows, defect):
    workload, lines = dict_rows
    lines = list(lines)
    if defect == "drop":
        del lines[len(lines) // 2]
    elif defect == "distance":
        i = _row_with(lines, lambda f: f[3] != "0")
        f = lines[i].split("\t")
        lines[i] = "\t".join(f[:3] + [repr(float(f[3]) * (1 + 1e-6))])
    elif defect == "order":
        lines[0], lines[-1] = lines[-1], lines[0]
    elif defect == "diagonal":
        i = _row_with(lines, lambda f: f[0] == f[1] and f[0] in workload.inputs.pushed)
        f = lines[i].split("\t")
        lines[i] = "\t".join(f[:3] + ["1e-17"])
    elif defect == "reduction":
        i = _row_with(lines, lambda f: f[2] != "id")
        f = lines[i].split("\t")
        lines[i] = "\t".join(f[:2] + ["id", f[3]])
    assert checks.check_dictionary("\n".join(lines), workload.inputs, oracles)


def test_sentence_and_naturality_checks_catch_defects():
    si = inputs.sentence_inputs(np.random.default_rng(1), inputs.SENTENCE_SMOKE)
    want = checks.expected_sentence(si.source, si.translation, si.sentences[0])
    assert checks.check_sentence(want, want) == []
    assert checks.check_sentence((want[0] * (1 + 1e-6), want[1]), want)
    ok = json.dumps({"format": 1, "max_residual": 1e-15, "tolerance": 1e-9,
                     "passed": True, "basis_size": 8})
    assert checks.check_naturality_output(0, ok, "", True, 8) == []
    assert checks.check_naturality_output(1, ok, "", True, 8)
    assert checks.check_naturality_output(0, ok, "", False, 8)
    assert checks.check_naturality_output(0, ok, "", True, 9)
