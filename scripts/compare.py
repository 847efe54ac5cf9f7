"""Compare the benchmark of two source trees in alternating pairs of runs.

Usage: python3 scripts/compare.py [--workloads W,W...] [--pairs N] [--seconds S]
                                  [--smoke] [--out FILE] BASE HEAD

BASE and HEAD are checkouts of this repository, or one checkout twice to
see the noise floor.  Both trees are byte-compiled first, so neither run
pays for compiling its imports.  Then, for each workload, at seed 41, each
pair runs ``perfbench/run.py --trace 0`` once in each tree, BASE first in
the odd pairs and HEAD first in the even ones.  Workloads, bounds and the
default ``--seconds`` come from HEAD's ``BENCHMARK.json``; nothing under
``perfbench/`` and no bound is changed.

Per workload and end-to-end metric it prints both medians, BASE's
quartiles, how many pairs HEAD wins in the metric's direction, the
relative change of the medians, and the metric's bound, with a verdict:

- ``unresolved`` when BASE's own IQR, relative to its median, exceeds the
  bound, so these runs cannot tell a change within the bound from noise;
- ``beyond bound`` when HEAD's median is worse than BASE's by more than
  the bound;
- ``within`` otherwise.

``--out FILE`` writes the same figures as JSON, in the schema of
``BENCH_lexicon_reader.json``: one record per "workload seed 41", with
``pairs``, ``correct``, ``failed`` and ``attempted`` per side ("parent" is
BASE, "change" is HEAD), and per metric the medians, BASE's quartiles and
IQR, ``wins`` of ``of`` pairs, ``relative_change``, ``bound`` and
``verdict``.

The exit code is 0 when every run finished with a correct result and no
failed operation, 1 otherwise, and 2 on a usage error.  Timings never
change the exit code.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SEED = 41


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles, interpolated as numpy's default is."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _names(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


def _sig(x: float) -> float:
    return float(f"{x:.6g}")


def revision(tree: Path) -> str:
    """The tree's git commit, marked if it has uncommitted changes, else its path."""
    git = ["git", "-C", str(tree)]
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode:
        return str(tree)
    dirty = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return head.stdout.strip() + (" with uncommitted changes" if dirty else "")


def compile_tree(tree: Path) -> None:
    parts = [str(tree / part) for part in ("src", "perfbench", "tests")]
    # a file that does not compile fails its runs, so the result is not checked here
    subprocess.run([sys.executable, "-m", "compileall", "-q", *parts],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def run_once(tree: Path, workload: str, seconds: float, smoke: bool) -> dict:
    """One ``run.py`` run in ``tree``: its last stdout line, or an incorrect
    record if the run did not finish with one."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", "0", *(["--smoke"] if smoke else [])]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode or result is None:
        print(f"{tree}: {workload} seed {SEED} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return result


def summary(metric: dict, base: list[dict], head: list[dict]) -> dict:
    """One metric over the pairs in which both runs reported it."""
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
             for b, h in zip(base, head) if name in b["metrics"] and name in h["metrics"]]
    if not pairs:
        return {"unit": metric["unit"], "better": metric["better"], "of": 0}
    base_values, head_values = [b for b, _ in pairs], [h for _, h in pairs]
    base_median, head_median = statistics.median(base_values), statistics.median(head_values)
    q1, q3 = quartiles(base_values)
    change = (head_median - base_median) / base_median if base_median else 0.0
    bound = metric["bound"]
    if base_median and (q3 - q1) / base_median > bound:
        verdict = "unresolved"
    elif (change if lower else -change) > bound:
        verdict = "beyond bound"
    else:
        verdict = "within"
    return {
        "unit": metric["unit"], "better": metric["better"],
        "parent_median": _sig(base_median), "change_median": _sig(head_median),
        "parent_iqr": _sig(q3 - q1), "parent_q1": _sig(q1), "parent_q3": _sig(q3),
        "wins": sum((h < b) if lower else (h > b) for b, h in pairs), "of": len(pairs),
        "relative_change": round(change, 4), "bound": bound, "verdict": verdict,
    }


def record(metrics: list[dict], base: list[dict], head: list[dict]) -> dict:
    sides = {"parent": base, "change": head}
    return {
        "pairs": len(base),
        "correct": {k: all(r["correct"] for r in runs) for k, runs in sides.items()},
        "failed": {k: sum(r["failed"] for r in runs) for k, runs in sides.items()},
        "attempted": {k: sum(r["attempted"] for r in runs) for k, runs in sides.items()},
        "metrics": {m["name"]: summary(m, base, head) for m in metrics},
    }


def print_record(key: str, rec: dict) -> None:
    print(f"{key}: {rec['pairs']} pairs, correct {rec['correct']['parent']}/"
          f"{rec['correct']['change']}, failed {rec['failed']['parent']}/{rec['failed']['change']}")
    for name, m in rec["metrics"].items():
        if not m["of"]:
            print(f"  {name}: no pair reported it")
            continue
        print(f"  {name}: {m['parent_median']:.6g} -> {m['change_median']:.6g} {m['unit']} "
              f"(base q1-q3 {m['parent_q1']:.6g}-{m['parent_q3']:.6g}), "
              f"{m['wins']}/{m['of']} better, {m['relative_change']:+.2%}, "
              f"bound {m['bound']:.0%}: {m['verdict']}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare two trees' benchmark in pairs of runs.")
    parser.add_argument("--workloads", type=_names, help="comma-separated; default: all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--smoke", action="store_true", help="the benchmark's small sizes")
    parser.add_argument("--out", type=Path, help="write the figures as a BENCH JSON file")
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    for tree in (args.base, args.head):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    bench = json.loads((args.head / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads or known
    if unknown := sorted(set(workloads) - set(known)):
        parser.error(f"unknown workloads {unknown}; choose from {known}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    for tree in (args.base, args.head):
        compile_tree(tree)
    records = {}
    for workload in workloads:
        base, head = [], []
        for pair in range(args.pairs):
            order = ((args.base, base), (args.head, head))
            for tree, runs in order if pair % 2 == 0 else order[::-1]:
                runs.append(run_once(tree, workload, seconds, args.smoke))
        key = f"{workload} seed {SEED}"
        records[key] = record(bench["end_to_end"], base, head)
        print_record(key, records[key])

    if args.out:
        import numpy

        doc = {
            "parent": revision(args.base), "change": revision(args.head),
            "machine": f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, "
                       f"Python {platform.python_version()}, numpy {numpy.__version__}, "
                       "one BLAS thread",
            "method": f"{args.pairs} pairs per workload of `python perfbench/run.py "
                      f"--workload W --seed {SEED} --seconds {seconds:g} --trace 0"
                      f"{' --smoke' if args.smoke else ''}`, parent first in odd pairs and "
                      "change first in even pairs, both trees byte-compiled first; medians "
                      "and the parent's quartiles over each side's runs; wins counts pairs "
                      "where the change reads better in the metric's direction",
            "claim": None,
            "workloads": records,
        }
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    ok = all(r["correct"]["parent"] and r["correct"]["change"] and not any(r["failed"].values())
             for r in records.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
