"""The ``dict`` output under two OpenBLAS kernels.

The benchmark's dict-wide smoke inputs at seed 41 are written once, by
``perfbench/workloads.py``'s ``DictWorkload.setup`` as
``scripts/same_output.py`` writes them.  The ``dict`` command then runs in
two child interpreters with one BLAS thread, one on OpenBLAS's Haswell
kernel (with FMA) and one on its Sandybridge kernel (without), and both
must print the same bytes.  Today they do not: the distances' dot products
(ROADMAP item 11) and the translations' matrix products (item 17) are BLAS
calls whose bits depend on the kernel.  So the test is a strict xfail,
and a fix turns it into an XPASS that fails the suite until its mark goes.

The test skips unless numpy's BLAS is an OpenBLAS built with
``DYNAMIC_ARCH`` that really switches to each kernel, as its
``OPENBLAS_VERBOSE=2`` report (``Core: <kernel>``) shows.  SkylakeX is
left out because it needs AVX-512.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import discotrans

_ROOT = Path(__file__).resolve().parents[1]
_SRC = str(Path(discotrans.__file__).resolve().parents[1])
_KERNELS = ("Haswell", "Sandybridge")


def _env(kernel: str, **extra: str) -> dict:
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
        OPENBLAS_CORETYPE=kernel,
        **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"),
        **extra,
    )


def _kernels_switch() -> bool:
    """Whether numpy's BLAS reports each kernel of ``_KERNELS`` when asked for it."""
    for kernel in _KERNELS:
        probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                               text=True, env=_env(kernel, OPENBLAS_VERBOSE="2"), timeout=60)
        if f"Core: {kernel}" not in probe.stderr:
            return False
    return True


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="BLAS bits differ between kernels: items 11 (distances) "
                          "and 17 (translations)")
def test_dict_wide_prints_one_output_under_the_haswell_and_sandybridge_kernels(
    tmp_path, monkeypatch
):
    if not _kernels_switch():
        pytest.skip("numpy's BLAS cannot be switched between the Haswell and Sandybridge "
                    "kernels (not a DYNAMIC_ARCH OpenBLAS)")
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    from workloads import DictWorkload

    workload = DictWorkload("dict-wide", 41, True, tmp_path, None, None)
    workload.setup()
    # check=True: a command that fails raises CalledProcessError, not the expected failure
    haswell, sandybridge = (
        subprocess.run([sys.executable, "-m", "discotrans", *workload.argv], capture_output=True,
                       env=_env(kernel), timeout=120, check=True).stdout
        for kernel in _KERNELS
    )
    assert haswell == sandybridge
