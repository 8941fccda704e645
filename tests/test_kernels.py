"""The bitwise promises that hold on every OpenBLAS kernel, under other kernels.

numpy's OpenBLAS picks a kernel for the CPU when it loads, and
``OPENBLAS_CORETYPE`` makes one process take another.  Under Haswell (the
kernel of AVX2 CPUs: Intel before AVX-512, AMD Zen 1-3) a row's bits depend
on where it sits in a product's 6-row tiles, and under Sandybridge they do
not.  So each kernel here runs, in a fresh interpreter, the tests of the
promises that hold on all of them: one run is bit for bit the scalar loop,
the helper split and the plan's blocks of steps move no bit, and stacked GA
generations and validations give the same bytes on every rerun.  The whole
suite runs under a kernel the same way (see the README).
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from qst_control.reporting import _blas_corename

REPO_ROOT = Path(__file__).resolve().parents[1]
# the CPU flag each kernel needs
KERNELS = {"Haswell": "avx2", "Sandybridge": "avx"}
KEPT_PROMISES = [
    "tests/test_lockstep.py::test_single_run_is_bitwise_the_scalar_loop",
    "tests/test_threads.py::test_the_split_kernel_is_bitwise_the_serial_one",
    "tests/test_chain.py::test_plan_blocks_leave_every_bit_as_it_is",
    "tests/test_ga.py::test_lockstep_seeds_match_their_runs_alone[staggered-halts]",
    "tests/test_lockstep.py::test_stacked_validation_is_bitwise_the_per_cell_loop[fixed-1-one-call]",
    "tests/test_lockstep.py::test_stacked_validation_is_bitwise_the_per_cell_loop[greedy-2-several-calls]",
]
# reads the kernel back as the manifest records it, then runs the tests
PROBE = (
    "import os, sys; from qst_control.reporting import machine_facts; "
    "corename = machine_facts()['blas']['corename']; "
    "assert corename == os.environ['OPENBLAS_CORETYPE'], corename; "
    "import pytest; sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[1:]]))"
)


def _cpu_flags() -> set:
    cpuinfo = Path("/proc/cpuinfo")
    if not cpuinfo.exists():
        return set()
    return {f for line in cpuinfo.read_text().splitlines() if line.startswith("flags") for f in line.split()}


def _runnable() -> list:
    """The kernels this machine's numpy can be made to run."""
    if _blas_corename() is None or platform.machine() != "x86_64":
        return []
    flags = _cpu_flags()
    return [kernel for kernel, flag in KERNELS.items() if flag in flags]


@pytest.fixture(scope="module")
def probes():
    """One fresh interpreter per kernel, all started at once: each spends
    most of its time importing."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    procs = {
        kernel: subprocess.Popen(
            [sys.executable, "-c", PROBE, *KEPT_PROMISES],
            cwd=REPO_ROOT, env={**env, "OPENBLAS_CORETYPE": kernel},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for kernel in _runnable()
    }
    yield procs
    for proc in procs.values():
        proc.kill()
        proc.wait(timeout=60)


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_the_kept_bitwise_promises_hold_under(kernel, probes):
    if kernel not in probes:
        pytest.skip(f"numpy's BLAS cannot run OpenBLAS's {kernel} kernel on this machine")
    out, _ = probes[kernel].communicate(timeout=300)
    assert probes[kernel].returncode == 0, out
    assert f"{len(KEPT_PROMISES)} passed" in out
