"""The ``dict`` output under two OpenBLAS kernels and two BLAS thread counts.

Each ``dict`` command runs in a child interpreter, and each test asserts
that two runs print the same bytes.  Today they do not: the distances' dot
products (ROADMAP item 11) and the translations' matrix products (item 17)
are BLAS calls whose bits depend on the kernel, and the dot products' bits
on the thread count too.  So each test is a strict xfail, and a fix turns
it into an XPASS that fails the suite until its mark goes.

- The benchmark's dict-wide smoke inputs at seed 41, written once by
  ``perfbench/workloads.py``'s ``DictWorkload.setup`` as
  ``scripts/same_output.py`` writes them, print one output under OpenBLAS's
  Haswell kernel (with FMA) and its Sandybridge kernel (without), and one
  output under Haswell and SkylakeX (both with FMA), where only the
  distances' dot products differ.
- The same inputs, pushed through under Haswell, keep their ``--k 0`` rows
  under Sandybridge.
- A ``dict`` whose difference rows are wider than OpenBLAS splits over
  its threads prints one output under one and two threads.

The kernel tests skip unless numpy's BLAS is an OpenBLAS built with
``DYNAMIC_ARCH`` that really switches to each kernel: a child interpreter
asked for the kernel must exit 0 and name it in its ``OPENBLAS_VERBOSE=2``
report (``Core: <kernel>``).  So a CPU without AVX-512, which SkylakeX
needs, skips the SkylakeX test.  The thread test skips unless a dot
product's bits really change between one and two threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import discotrans

_ROOT = Path(__file__).resolve().parents[1]
_SRC = str(Path(discotrans.__file__).resolve().parents[1])
_KERNELS = ("Haswell", "Sandybridge")

# writes the dict-wide smoke inputs at seed 41 into argv[2] and prints the dict argv
_PUSH = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from workloads import DictWorkload
workload = DictWorkload("dict-wide", 41, True, Path(sys.argv[2]), None, None)
workload.setup()
print(json.dumps(workload.argv))
"""

# one fixed 32,768-entry vector dotted with itself, as the hex of its bits
_DOT = (
    "import numpy as np; v = np.random.default_rng(0).standard_normal(32768); "
    "print(float(v @ v).hex())"
)


def _env(threads: int = 1, **extra: str) -> dict:
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
        **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                        str(threads)),
        **extra,
    )


def _dict(argv: list, threads: int = 1, **extra: str) -> tuple[int, bytes]:
    """The exit code and stdout of one ``dict`` command in a child interpreter."""
    proc = subprocess.run([sys.executable, "-m", "discotrans", *argv], capture_output=True,
                          env=_env(threads, **extra), timeout=120)
    # exit 1 is an empty dictionary; any other exit is a failure the tests do not expect
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"dict exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
    return proc.returncode, proc.stdout


def _kernels_switch(kernels: tuple[str, ...]) -> bool:
    """Whether numpy's BLAS loads under each of ``kernels`` and reports it when asked for it."""
    for kernel in kernels:
        probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                               text=True, env=_env(OPENBLAS_CORETYPE=kernel, OPENBLAS_VERBOSE="2"),
                               timeout=60)
        if probe.returncode or f"Core: {kernel}" not in probe.stderr:
            return False
    return True


def _threads_change_bits() -> bool:
    """Whether numpy's BLAS gives ``_DOT`` other bits under one and two threads."""
    bits = {
        subprocess.run([sys.executable, "-c", _DOT], capture_output=True, text=True,
                       env=_env(threads), timeout=60, check=True).stdout
        for threads in (1, 2)
    }
    return len(bits) == 2


def _skip_unless_kernels_switch(kernels: tuple[str, ...] = _KERNELS) -> None:
    if not _kernels_switch(kernels):
        pytest.skip(f"numpy's BLAS cannot be switched between the {' and '.join(kernels)} "
                    "kernels (not a DYNAMIC_ARCH OpenBLAS, or a CPU that lacks one)")


def _dict_wide_under(kernels: tuple[str, ...], tmp_path, monkeypatch) -> list:
    """The dict-wide smoke ``dict`` at seed 41, once under each of ``kernels``."""
    _skip_unless_kernels_switch(kernels)
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    from workloads import DictWorkload

    workload = DictWorkload("dict-wide", 41, True, tmp_path, None, None)
    workload.setup()
    return [_dict(workload.argv, OPENBLAS_CORETYPE=kernel) for kernel in kernels]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="BLAS bits differ between kernels: items 11 (distances) "
                          "and 17 (translations)")
def test_dict_wide_prints_one_output_under_the_haswell_and_sandybridge_kernels(
    tmp_path, monkeypatch
):
    haswell, sandybridge = _dict_wide_under(_KERNELS, tmp_path, monkeypatch)
    assert haswell == sandybridge


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a distance's dot product has other bits under each FMA kernel: "
                          "item 11")
def test_dict_wide_prints_one_output_under_the_haswell_and_skylakex_kernels(
    tmp_path, monkeypatch
):
    haswell, skylakex = _dict_wide_under(("Haswell", "SkylakeX"), tmp_path, monkeypatch)
    assert haswell == skylakex


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a translation's bits depend on the kernel, so a target pushed "
                          "through under Haswell is no exact zero under Sandybridge: item 17")
def test_a_target_pushed_through_under_haswell_keeps_its_zeros_under_sandybridge(tmp_path):
    # a zero difference row sums to 0 in any order, so item 11 alone does not
    # change this case
    _skip_unless_kernels_switch()
    push = subprocess.run([sys.executable, "-c", _PUSH, str(_ROOT / "perfbench"), str(tmp_path)],
                          capture_output=True, text=True, env=_env(OPENBLAS_CORETYPE="Haswell"),
                          timeout=120, check=True)
    argv = [*json.loads(push.stdout), "--k", "0"]
    haswell, sandybridge = (_dict(argv, OPENBLAS_CORETYPE=kernel) for kernel in _KERNELS)
    assert haswell == sandybridge


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a distance's dot product is split over the BLAS threads: item 11")
def test_dict_prints_one_output_under_one_and_two_blas_threads(tmp_path):
    # phrases of up to three words of x=8 nouns and x^r s x^l verbs give
    # difference rows of up to 8^6 entries, which OpenBLAS splits over its threads
    if not _threads_change_bits():
        pytest.skip("numpy's BLAS gives one dot product the same bits under 1 and 2 threads")
    rng = np.random.default_rng(0)
    model = {"format": 1, "name": "m", "basic_types": {"x": 8, "s": 1}}
    words = [{"word": f"n{i}", "type": "x", "data": rng.standard_normal(8).tolist()}
             for i in range(3)]
    words += [{"word": f"v{i}", "type": "x^r s x^l", "data": rng.standard_normal(64).tolist()}
              for i in range(2)]
    translation = {"format": 1, "source": model, "target": model, "j": {"x": "x", "s": "s"},
                   "alpha": {"x": np.eye(8).tolist(), "s": [[1.0]]}}
    lex, trans = tmp_path / "lex.json", tmp_path / "translation.json"
    lex.write_text(json.dumps({"format": 1, "model": model, "words": words}))
    trans.write_text(json.dumps(translation))
    argv = ["dict", "--lex-a", str(lex), "--lex-b", str(lex), "--translation", str(trans),
            "--max-source-len", "3", "--max-target-len", "3"]
    one, two = (_dict(argv, threads) for threads in (1, 2))
    assert one == two
