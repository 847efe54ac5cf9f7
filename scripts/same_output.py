"""Compare the ``dict`` output of two source trees byte for byte.

Usage: python3 scripts/same_output.py [--smoke] BASE HEAD

BASE and HEAD are checkouts of this repository.  The inputs of the
benchmark's dict-wide and dict-deep workloads are written once for each of
the seeds 5, 7, 11, 23 and 41, by HEAD's ``perfbench/workloads.py``
(``DictWorkload.setup``: HEAD's ``perfbench/inputs.py``, with HEAD's
``translate_lexicon`` pushing the source words).  Each ``dict`` command
that ``setup`` builds is then run in both trees, as
``PYTHONPATH=<tree>/src python -m discotrans`` with one BLAS thread.

One line is printed per command: its workload and seed, the two exit
codes, the two stdout lengths, and ``same`` or the first byte offset at
which the two stdouts differ.  The exit code is 1 if any command differs
in its exit code or stdout, else 0.  ``--smoke`` takes the benchmark's
small ``DICT_SMOKE`` sizes instead of its timed ones.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("dict-wide", "dict-deep")
SEEDS = (5, 7, 11, 23, 41)
_ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def first_difference(a: bytes, b: bytes) -> int | None:
    """The first offset at which ``a`` and ``b`` differ, or None if they are equal."""
    if a == b:
        return None
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _run(tree: Path, argv: list[str]) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **_ONE_THREAD)
    proc = subprocess.run([sys.executable, "-m", "discotrans", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.returncode, proc.stdout


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare two trees' dict outputs.")
    parser.add_argument("--smoke", action="store_true", help="the benchmark's small sizes")
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.head / "perfbench"), str(args.head / "src")]
    from workloads import DictWorkload

    differ = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name in WORKLOADS:
            for seed in SEEDS:
                workdir = Path(scratch, f"{name}-{seed}")
                workdir.mkdir()
                workload = DictWorkload(name, seed, args.smoke, workdir, None, None)
                workload.setup()
                (base_code, base_out), (head_code, head_out) = (
                    _run(tree, workload.argv) for tree in (args.base, args.head)
                )
                offset = first_difference(base_out, head_out)
                same = base_code == head_code and offset is None
                verdict = "same" if same else f"differ from byte {offset}"
                print(f"{name} seed {seed}: exit {base_code}/{head_code}, "
                      f"{len(base_out)}/{len(head_out)} bytes, {verdict}")
                differ += not same
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
