import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SCRIPT = _ROOT / "scripts" / "compare.py"
_METRICS = ("setup_s", "peak_rss_mb", "items_per_s", "op_p50_ms")


def _compare(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(_SCRIPT), *map(str, argv)],
                          capture_output=True, text=True, timeout=120)


def _smoke_verify(base: Path, head: Path, out: Path) -> subprocess.CompletedProcess:
    return _compare("--workloads", "verify", "--smoke", "--pairs", "1", "--seconds", "0.5",
                    "--out", out, base, head)


def test_the_repository_against_itself_reports_every_metric(tmp_path):
    out = tmp_path / "BENCH_self.json"
    proc = _smoke_verify(_ROOT, _ROOT, out)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "verify seed 41: 1 pairs, correct True/True, failed 0/0"
    assert [line.split(":")[0] for line in lines[1:]] == [f"  {m}" for m in _METRICS]
    assert all("1 better" in line and ", bound " in line for line in lines[1:])
    record = json.loads(out.read_text())["workloads"]["verify seed 41"]
    assert record["pairs"] == 1
    assert record["correct"] == {"parent": True, "change": True}
    assert record["failed"] == {"parent": 0, "change": 0}
    assert all(n > 0 for n in record["attempted"].values())
    bounds = {m["name"]: m["bound"] for m in json.loads((_ROOT / "BENCHMARK.json").read_text())
              ["end_to_end"]}
    for name, metric in record["metrics"].items():
        assert metric["of"] == 1 and metric["wins"] in (0, 1)
        assert metric["parent_q1"] == metric["parent_q3"] == metric["parent_median"]
        assert metric["bound"] == bounds[name]
        assert metric["verdict"] in ("within", "beyond bound")
    assert list(record["metrics"]) == list(_METRICS)


def test_a_run_that_fails_sets_exit_code_one(tmp_path):
    broken = tmp_path / "broken"
    (broken / "perfbench").mkdir(parents=True)
    (broken / "perfbench" / "run.py").write_text("raise SystemExit(2)\n")
    proc = _smoke_verify(broken, _ROOT, tmp_path / "out.json")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[0] == "verify seed 41: 1 pairs, correct False/True, failed 0/0"
    assert "exited 2" in proc.stderr


def test_an_unknown_workload_is_a_usage_error():
    proc = _compare("--workloads", "verify,nope", _ROOT, _ROOT)
    assert proc.returncode == 2
    assert "unknown workloads ['nope']" in proc.stderr
    assert proc.stdout == ""
