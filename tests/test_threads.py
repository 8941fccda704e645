"""Threads: the BLAS pin set on import, and the step kernel's helper thread.

The pin's tests start fresh interpreters, because OpenBLAS reads its thread
count once, when numpy loads; this session's own numpy was loaded pinned by
``conftest.py``.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qst_control import chain
from qst_control.actions import build_cache, site_by_site_set
from qst_control.chain import ChainSpec, evolve_lockstep
from qst_control.harness import run_jobs
from qst_control.noise import NoiseModel
from qst_control.rng import RandomStream

REPO_ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
REPORT = (
    "import json, os, qst_control, qst_control.chain as c; "
    "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), qst_control.ONE_BLAS_THREAD, c.KERNEL_SPLIT]))"
)


def _python(code, **thread_vars):
    """Run ``code`` in a fresh interpreter with only the given thread variables set."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(thread_vars, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _two_cpus():
    return len(os.sched_getaffinity(0)) >= 2 if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1) >= 2


def test_import_pins_one_blas_thread_by_default():
    assert _python(REPORT) == ["1", True, _two_cpus()]


def test_a_thread_count_the_user_set_wins_and_keeps_the_kernel_serial():
    assert _python(REPORT, OPENBLAS_NUM_THREADS="2") == ["2", False, False]
    assert _python(REPORT, OPENBLAS_NUM_THREADS="1") == ["1", True, _two_cpus()]


def test_numpy_loaded_first_unpinned_keeps_the_kernel_serial():
    # OpenBLAS has already started its threads: the variable set later is moot
    assert _python("import numpy; " + REPORT) == ["1", False, False]
    # set before numpy loaded, the pin acts
    assert _python("import numpy; " + REPORT, OPENBLAS_NUM_THREADS="1") == ["1", True, _two_cpus()]


def test_dqn_artifacts_do_not_depend_on_the_blas_thread_variable(tmp_path):
    # at hidden1=2048 the trained bits depend on the BLAS thread count: unset
    # must mean the same single thread as an explicit 1
    args = ["dqn-train", "--set", "chain.n=4", "--set", "dqn.hidden1=2048", "--set", "dqn.episodes=40"]
    manifests = []
    for name, thread_vars in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env.update(thread_vars, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "qst_control.cli", *args, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        manifests.append(json.loads((out / "manifest.json").read_text()))
    hashes = [{name: entry["sha256"] for name, entry in m["artifacts"].items()} for m in manifests]
    assert set(hashes[0]) == {"dqn_episodes", "best_sequence", "qnetwork"}
    assert hashes[0] == hashes[1]
    assert [m["machine"]["OPENBLAS_NUM_THREADS"] for m in manifests] == ["1", "1"]


# ------------------------------------------------------- the helper thread


def _cache(n):
    spec = ChainSpec(n=n)
    return build_cache(site_by_site_set(n, spec.field_strength), spec)


def _run(cache, kind, rows, length, noisy, lonely, seed):
    gen = np.random.default_rng(seed)
    n_actions, n = cache.unitaries.shape[0], cache.unitaries.shape[1]
    genes = gen.integers(0, n_actions, (rows, length))
    if lonely:
        # steps where row 0 alone takes the last action: one-row classes
        steps = gen.random(length) < 0.5
        genes[1:, steps] %= n_actions - 1
        genes[0, steps] = n_actions - 1
    if kind == "shared":
        actions = genes[0]
    elif kind == "rows":
        actions = genes
    else:
        def actions(states):
            # reads every bit of the states it is given
            return (np.abs(states).argmax(axis=1) + states.real.view(np.int64)[:, 0]) % n_actions
    keys = RandomStream(seed).substream_keys(1, count=rows)
    noise = [NoiseModel(p=0.5, delta=0.4 + r / rows) for r in range(rows)] if noisy else None
    run = evolve_lockstep(cache.unitaries, actions, length, noise, keys)
    assert run.probabilities.shape == (rows, length)
    return run


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 7),
    rows=st.integers(2, 6),
    kind=st.sampled_from(["shared", "rows", "policy"]),
    noisy=st.booleans(),
    lonely=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_split_kernel_is_bitwise_the_serial_one(n, rows, kind, noisy, lonely, seed):
    cache = _cache(n)
    length = 3 * n
    args = (cache, kind, rows, length, noisy, lonely, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "KERNEL_SPLIT", False)
        serial = _run(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "KERNEL_SPLIT", True)
        mp.setattr(chain, "SPLIT_WORK", 0)
        mp.setattr(chain, "SPLIT_GROUPED_WORK", 0)
        split = _run(*args)
    assert split.probabilities.tobytes() == serial.probabilities.tobytes()
    assert np.array_equal(split.actions, serial.actions)


def test_the_helper_raises_its_task_error_in_the_caller_and_keeps_serving():
    helper = chain._Helper()

    def fail():
        raise ZeroDivisionError("task")

    def fail_too():
        raise KeyError("own")

    with pytest.raises(ZeroDivisionError, match="task"):
        helper.run(fail, lambda: None)
    assert helper.run(lambda: 1, lambda: 2) == (1, 2)
    # the caller's own error wins, and the task's is not left for the next run
    with pytest.raises(KeyError, match="own"):
        helper.run(fail, fail_too)
    assert helper.run(lambda: 3, lambda: 4) == (3, 4)


def test_threads_of_run_jobs_never_start_a_second_level(monkeypatch):
    cache = _cache(6)
    monkeypatch.setattr(chain, "KERNEL_SPLIT", True)
    monkeypatch.setattr(chain, "SPLIT_WORK", 0)
    monkeypatch.setattr(chain, "SPLIT_GROUPED_WORK", 0)
    calls = []
    real_run = chain._Helper.run
    monkeypatch.setattr(chain._Helper, "run", lambda self, task, own: calls.append(1) or real_run(self, task, own))
    genes = np.random.default_rng(3).integers(0, len(cache), (8, 12))

    def job():
        return evolve_lockstep(cache.unitaries, genes, 12).probabilities

    pooled = run_jobs({k: job for k in range(2)}, workers=2)
    assert calls == []
    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(chain._step_helper).result() is None
    alone = job()  # the main thread shares every step
    assert len(calls) == 12
    assert all(p.tobytes() == alone.tobytes() for p in pooled.values())


def test_split_steps_beside_pool_threads_under_fast_switching(monkeypatch):
    # more threads than cores, and the interpreter switching threads as often
    # as it can: a step that read a half-written state would move bits
    cache = _cache(7)
    genes = np.random.default_rng(5).integers(0, len(cache), (9, 21))
    keys = RandomStream(5).substream_keys(2, count=9)
    noise = NoiseModel(p=0.5, delta=0.9)

    def runs():
        return [
            evolve_lockstep(cache.unitaries, genes, 21).probabilities.tobytes(),
            evolve_lockstep(cache.unitaries, genes[0], 21, noise, keys).probabilities.tobytes(),
        ]

    reference = runs()
    monkeypatch.setattr(chain, "KERNEL_SPLIT", True)
    monkeypatch.setattr(chain, "SPLIT_WORK", 0)
    monkeypatch.setattr(chain, "SPLIT_GROUPED_WORK", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            pooled = [pool.submit(lambda: [runs() for _ in range(20)]) for _ in range(3)]
            split = [runs() for _ in range(20)]
            pooled = [fut.result(timeout=120) for fut in pooled]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == reference for r in split)
    assert all(r == reference for rounds in pooled for r in rounds)
