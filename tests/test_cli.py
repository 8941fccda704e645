import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from qst_control.actions import build_cache, make_action_set
from qst_control.chain import evolve_sequence
from qst_control.cli import main
from qst_control.config import load_config, resolve

REPO_ROOT = Path(__file__).resolve().parents[1]

# Small enough to keep every invocation in this module under a second:
# a 3-qubit chain at dt=0.75 gives 3-step sequences.
TINY_CHAIN = ["--set", "chain.n=3", "--set", "chain.dt=0.75"]
TINY_GA = TINY_CHAIN + [
    "--set", "ga.population_size=16",
    "--set", "ga.max_generations=6",
    "--set", "ga.saturation=3",
    "--set", "ga.parents_mating=4",
    "--set", "ga.keep_elitism=2",
    "--set", "ga.target_probability=1.0",
]
TINY_DQN = TINY_CHAIN + [
    "--set", "dqn.hidden1=12",
    "--set", "dqn.hidden2=6",
    "--set", "dqn.minibatch=4",
    "--set", "dqn.replay_capacity=64",
    "--set", "dqn.learning_period=2",
    "--set", "dqn.target_sync_period=5",
    "--set", "dqn.episodes=6",
]


VALIDATE_SETS = [
    "--set", "validate.runs=8",
    "--set", "validate.p_values=[0.0, 0.25]",
    "--set", "validate.delta_values=[0.25]",
]
SWEEP_SETS = ["--set", "sweep.h_values=[50.0]", "--set", "sweep.dt_values=[0.5, 0.75]"]
SCALING_SETS = ["--set", "scaling.lengths=[3, 4]", "--set", "scaling.n_seeds=2"]
HISTOGRAM_COMPLETE = [
    "--set", "histogram.n_sequences=6",
    "--set", "histogram.threshold=0.0",
    "--set", "histogram.max_runs=4",
]
HISTOGRAM_PARTIAL = [
    "--set", "histogram.n_sequences=5",
    "--set", "histogram.threshold=1.0",
    "--set", "histogram.max_runs=2",
]
HPO_SETS = [
    "--set", "hpo.trials=2",
    "--set", "hpo.val_runs=2",
    "--set", "hpo.hidden1=[8, 12]",
]

# every artifact-writing run: its arguments, artifact names and exit code
ARTIFACT_RUNS = {
    "ga": (["ga"] + TINY_GA, {"ga_generations", "best_sequence"}, 0),
    "dqn-train": (["dqn-train"] + TINY_DQN, {"dqn_episodes", "best_sequence", "qnetwork"}, 0),
    "validate": (["validate"] + TINY_GA + VALIDATE_SETS, {"controller", "validation"}, 0),
    "sweep": (["sweep"] + TINY_GA + SWEEP_SETS, {"sweep"}, 0),
    "histogram": (["histogram"] + TINY_GA + HISTOGRAM_COMPLETE, {"action_histogram"}, 0),
    "histogram-partial": (["histogram"] + TINY_GA + HISTOGRAM_PARTIAL, {"action_histogram"}, 3),
    "scaling": (["scaling"] + TINY_GA + SCALING_SETS, {"scaling", "scaling_runs"}, 0),
    "baseline": (["baseline", "--set", "chain.n=4"], {"baseline", "baseline_peak"}, 0),
    "hpo": (["hpo"] + TINY_DQN + HPO_SETS, {"hpo_trials", "hpo_best"}, 0),
}


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("run", list(ARTIFACT_RUNS))
def test_baseline_artifacts_and_manifest_hashes(run, tmp_path, capsys):
    args, names, code = ARTIFACT_RUNS[run]
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == code
    manifest = read_manifest(out)
    assert set(manifest) >= {"mode", "seed", "config", "versions", "wall_time", "artifacts"}
    assert manifest["mode"] == args[0]
    assert manifest["seed"] == 0
    assert manifest["wall_time"] > 0.0
    assert "numpy" in manifest["versions"]
    assert set(manifest["artifacts"]) == names
    for entry in manifest["artifacts"].values():
        blob = (out / entry["path"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert len(blob) == entry["bytes"]
    # after the summary, one line per artifact in name order, then the manifest
    wrote = [f"wrote {out / manifest['artifacts'][name]['path']}" for name in sorted(names)]
    wrote.append(f"wrote {out / 'manifest.json'}")
    assert capsys.readouterr().out.splitlines()[-len(wrote) :] == wrote


def test_manifest_records_the_threads_and_the_machine(tmp_path):
    assert main(["baseline", "--set", "chain.n=4", "--out", str(tmp_path)]) == 0
    machine = read_manifest(tmp_path)["machine"]
    # conftest.py pins one BLAS thread before numpy loads
    assert machine["OPENBLAS_NUM_THREADS"] == os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert machine["OMP_NUM_THREADS"] == os.environ["OMP_NUM_THREADS"]
    assert machine["one_blas_thread"] is True
    assert machine["cpu_count"] == os.cpu_count()
    assert machine["affinity"] == sorted(os.sched_getaffinity(0))
    assert machine["kernel_split"] == (len(machine["affinity"]) >= 2)
    assert set(machine["blas"]) == {"name", "version", "corename"}


# the header line of every CSV the CLI writes, by the run above that writes
# it: a renamed or reordered record field would rename or move its column
CSV_HEADERS = {
    "ga": ("ga_generations.csv", "generation,best_fitness,mean_fitness"),
    "dqn-train": ("dqn_episodes.csv", "episode,max_probability,epsilon,loss"),
    "validate": ("validation.csv", "p,delta,mean_max_probability,std_max_probability,mean_fidelity,n_runs"),
    "sweep": ("sweep.csv", "h,dt,max_probability,halt_reason,generations"),
    "histogram": ("action_histogram.csv", "action_id,count,frequency"),
    "scaling": (
        "scaling.csv",
        "n,best_max_probability,mean_max_probability,std_max_probability,n_seeds,best_fidelity",
    ),
    "baseline": ("baseline.csv", "step,time,probability"),
    "hpo": ("hpo_trials.csv", "trial,gamma,learning_rate,hidden1,score,train_best"),
}


@pytest.mark.parametrize("run", list(CSV_HEADERS))
def test_csv_header_is_pinned(run, tmp_path):
    args, _, code = ARTIFACT_RUNS[run]
    name, header = CSV_HEADERS[run]
    assert main(args + ["--out", str(tmp_path)]) == code
    assert (tmp_path / name).read_text().split("\n", 1)[0] == header


def test_baseline_rows_and_peak(tmp_path):
    out = tmp_path / "out"
    assert main(["baseline", "--set", "chain.n=4", "--out", str(out)]) == 0
    rows = csv_rows(out / "baseline.csv")
    assert len(rows) == 20  # ceil(0.75*4/0.15) free-evolution steps
    assert rows[0]["step"] == "0"

    peak = json.loads((out / "baseline_peak.json").read_text())
    assert peak["n"] == 4
    assert peak["p_peak"] == pytest.approx(0.9727504636718878, rel=1e-9)
    assert peak["t_peak"] == pytest.approx(1.4049629426311594, rel=1e-9)
    assert peak["grid_max_probability"] == pytest.approx(0.9611265768684443, rel=1e-9)

    assert read_manifest(out)["config"]["chain"]["n"] == 4


def test_ga_run_artifacts(tmp_path):
    out = tmp_path / "out"
    rc = main(["ga", "--out", str(out), "--seed", "1"] + TINY_GA)
    assert rc == 0
    best = json.loads((out / "best_sequence.json").read_text())
    assert len(best["sequence"]) == 3
    assert 0.0 <= best["max_probability"] <= 1.0
    assert best["halt_reason"] in {"target_reached", "saturation", "max_generations"}
    rows = csv_rows(out / "ga_generations.csv")
    assert len(rows) == best["generations_run"]
    assert rows[0]["generation"] == "1"
    assert float(rows[-1]["best_fitness"]) == best["max_probability"]


def test_ga_rerun_is_byte_identical(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["ga", "--out", str(out), "--seed", "3"] + TINY_GA) == 0
    for name in ("ga_generations.csv", "best_sequence.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # the manifest is the one artifact allowed to differ, and only in its
    # timing and in the echoed output location
    manifests = [read_manifest(out) for out in outs]
    for m in manifests:
        del m["wall_time"]
        del m["config"]["output_dir"]
    assert manifests[0] == manifests[1]


def test_seed_flag_changes_the_run(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out, seed in zip(outs, ("1", "2")):
        assert main(["ga", "--out", str(out), "--seed", seed] + TINY_GA) == 0
    a = (outs[0] / "ga_generations.csv").read_bytes()
    b = (outs[1] / "ga_generations.csv").read_bytes()
    assert a != b


def test_dqn_train_artifacts(tmp_path):
    out = tmp_path / "out"
    rc = main(["dqn-train", "--out", str(out)] + TINY_DQN)
    assert rc == 0
    rows = csv_rows(out / "dqn_episodes.csv")
    assert len(rows) == 6
    assert (out / "qnetwork.npz").exists()
    best = json.loads((out / "best_sequence.json").read_text())
    assert 1 <= len(best["sequence"]) <= 3
    assert set(read_manifest(out)["artifacts"]) == {"dqn_episodes", "best_sequence", "qnetwork"}


def test_validate_ga_worker_invariance(tmp_path):
    outs = [tmp_path / "w1", tmp_path / "w4"]
    for out, workers in zip(outs, ("1", "4")):
        rc = main(
            ["validate", "--out", str(out), "--workers", workers] + TINY_GA + VALIDATE_SETS
        )
        assert rc == 0
    for name in ("validation.csv", "controller.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    rows = csv_rows(outs[0] / "validation.csv")
    assert len(rows) == 2
    clean = rows[0]
    assert clean["p"] == "0.0"
    assert clean["std_max_probability"] == "0.0"
    assert clean["n_runs"] == "8"


def test_validate_builds_one_cache_for_the_ga_design_and_the_grid(tmp_path, monkeypatch):
    from qst_control import cli, ga

    builds = []

    def counting_build(action_set, spec):
        builds.append(spec)
        return build_cache(action_set, spec)

    monkeypatch.setattr(cli, "build_cache", counting_build)
    monkeypatch.setattr(ga, "build_cache", counting_build)
    assert main(["validate", "--out", str(tmp_path / "out")] + TINY_GA + VALIDATE_SETS) == 0
    assert len(builds) == 1


def test_validate_summary_reads_the_clean_run_on_a_grid_without_a_noiseless_cell(tmp_path, capsys):
    out = tmp_path / "out"
    # one noisy cell: the summary must not report its mean as the clean run's
    sets = TINY_GA + ["--set", "validate.runs=5", "--set", "validate.p_values=[0.5]"]
    sets += ["--set", "validate.delta_values=[0.5]"]
    assert main(["validate", "--out", str(out)] + sets) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    config = load_config(overrides=sets[1::2])
    cache = build_cache(make_action_set(config.action_set, 3, config.chain.field_strength), config.chain)
    sequence = json.loads((out / "controller.json").read_text())["sequence"]
    clean = evolve_sequence(sequence, cache).max_probability
    (noisy,) = csv_rows(out / "validation.csv")
    assert float(noisy["mean_max_probability"]) != clean
    assert summary == f"validate[ga]: clean max={clean!r}, 1 cells x 5 runs"


def test_validate_dqn_controller(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["validate", "--out", str(out), "--set", "validate.controller=dqn"]
        + TINY_DQN
        + VALIDATE_SETS
    )
    assert rc == 0
    assert (out / "qnetwork.npz").exists()
    assert len(csv_rows(out / "validation.csv")) == 2
    manifest = read_manifest(out)
    assert manifest["controller"] == "dqn"
    assert "design_max_probability" in manifest


def test_sweep_cli(tmp_path):
    out = tmp_path / "out"
    rc = main(["sweep", "--out", str(out)] + TINY_GA + SWEEP_SETS)
    assert rc == 0
    rows = csv_rows(out / "sweep.csv")
    assert [(r["h"], r["dt"]) for r in rows] == [("50.0", "0.5"), ("50.0", "0.75")]


def test_scaling_cli(tmp_path):
    out = tmp_path / "out"
    rc = main(["scaling", "--out", str(out)] + TINY_GA + SCALING_SETS)
    assert rc == 0
    rows = csv_rows(out / "scaling.csv")
    assert [r["n"] for r in rows] == ["3", "4"]
    assert all(r["n_seeds"] == "2" for r in rows)
    runs = json.loads((out / "scaling_runs.json").read_text())
    assert set(runs) == {"3", "4"}
    assert len(runs["4"]["per_seed"]) == 2
    assert len(runs["4"]["best_sequence"]) == 4


def test_histogram_complete(tmp_path):
    out = tmp_path / "out"
    rc = main(["histogram", "--out", str(out)] + TINY_GA + HISTOGRAM_COMPLETE)
    assert rc == 0
    rows = csv_rows(out / "action_histogram.csv")
    assert len(rows) == 4  # site-by-site set on n=3
    assert sum(int(r["count"]) for r in rows) == 6 * 3
    assert read_manifest(out)["complete"] is True


def test_histogram_csv_is_the_same_at_any_worker_count(tmp_path):
    # --workers counts threads only; the histogram runs its seeds one at a time
    settings = ["--set", "histogram.n_sequences=8", "--set", "histogram.max_runs=6"]
    outs = [tmp_path / "w1", tmp_path / "w3"]
    for out, workers in zip(outs, ("1", "3")):
        rc = main(["histogram", "--out", str(out), "--workers", workers] + TINY_GA + HISTOGRAM_COMPLETE + settings)
        assert rc == 0
    assert (outs[0] / "action_histogram.csv").read_bytes() == (outs[1] / "action_histogram.csv").read_bytes()
    assert read_manifest(outs[0])["n_runs_used"] == read_manifest(outs[1])["n_runs_used"]


def test_histogram_partial_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["histogram", "--out", str(out)] + TINY_GA + HISTOGRAM_PARTIAL)
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["status"] == "partial"
    assert record["collected"] == 0
    assert record["requested"] == 5
    # artifacts are still written so a partial harvest is inspectable
    assert (out / "action_histogram.csv").exists()
    assert read_manifest(out)["complete"] is False


def test_hpo_cli(tmp_path):
    out = tmp_path / "out"
    rc = main(["hpo", "--out", str(out)] + TINY_DQN + HPO_SETS)
    assert rc == 0
    rows = csv_rows(out / "hpo_trials.csv")
    assert [r["trial"] for r in rows] == ["0", "1"]
    best = json.loads((out / "hpo_best.json").read_text())
    assert 8 <= best["hidden1"] <= 12
    assert best["hidden2"] == round(best["hidden1"] / 3)


def test_describe_output_reparses(capsys):
    rc = main(["describe", "--set", "chain.n=8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n_steps: 40" in out
    reparsed = resolve(yaml.safe_load(out))
    assert reparsed["chain"]["n"] == 8


def test_describe_counts_the_actions_of_a_long_chain_without_building_them(capsys):
    # the (n + 1) x n mask matrix of this chain would take 74.5 GiB
    assert main(["describe", "--set", "chain.n=100000"]) == 0
    assert "n_actions: 100001   (site_by_site)" in capsys.readouterr().out


# sha256 of the `describe` output: the resolved config is part of the contract
EVERY_SECTION = [
    "--set", "mode=ga", "--set", "action_set=zhang16", "--set", "chain.n=6", "--set", "chain.dt=0.2",
    "--set", "ga.population_size=64", "--set", "ga.parents_mating=16", "--set", "ga.keep_elitism=8",
    "--set", "dqn.gamma=0.9", "--set", "dqn.hidden2=7", "--set", "dqn.reward.scales=[0,1,2]",
    "--set", "validate.p_values=[0.5]", "--set", "sweep.dt_values=[0.3]", "--set", "histogram.threshold=0.5",
    "--set", "scaling.lengths=[8,12]", "--set", "hpo.hidden1=[64,128]", "--set", "hpo.noise_p=0.5",
    "--set", "baseline.n_steps=10", "--seed", "3", "--out", "described", "--workers", "3",
]
DESCRIBED = {
    "n8": (["--set", "chain.n=8"], "cf8f6151716d490c73c50eac62dc897ba8e084041165463291e808c377379f70"),
    "zhang16": (
        ["--set", "chain.n=8", "--set", "action_set=zhang16", "--set", "dqn.hidden1=2417",
         "--set", "dqn.reward.zeta=0.1", "--set", "hpo.hidden1=[64,128]"],
        "1dbe2150d761d58b859086644528b41892b11afd3e47432ab92bfa02d1f95a28",
    ),
    "every-section": (EVERY_SECTION, "e368fa76a281c68d7ff027bc12fdce181f1341eca550404b6317e01b35a4d100"),
}


@pytest.mark.parametrize("name", list(DESCRIBED))
def test_describe_output_is_pinned(name, capsys):
    args, digest = DESCRIBED[name]
    assert main(["describe"] + args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_config_error_exits_2(tmp_path, capsys):
    rc = main(["ga", "--out", str(tmp_path), "--set", "ga.populaton_size=4"])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["path"] == "ga.populaton_size"


def test_mode_mismatch_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("mode: ga\nchain: {n: 3, dt: 0.75}\n")
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["path"] == "mode"


def test_runtime_error_exits_1(tmp_path, capsys):
    # a learning rate this large diverges within the first learning events
    args = ["dqn-train", "--out", str(tmp_path), "--set", "chain.n=4",
            "--set", "dqn.learning_rate=1000", "--set", "dqn.episodes=10"]
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(args)
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "runtime"
    assert record["message"].startswith("RuntimeError: non-finite TD loss")


def test_diverging_run_writes_one_json_document_to_stderr(tmp_path):
    # the overflow before the TD check raises must not reach stderr as warnings
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qst_control.cli", "dqn-train", "--out", str(tmp_path), "--set", "chain.n=4",
         "--set", "dqn.learning_rate=1000", "--set", "dqn.episodes=10"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    record = json.loads(proc.stderr)
    assert record["error"] == "runtime"
    assert record["message"].startswith("RuntimeError: non-finite TD loss")


def test_action_set_too_large_for_the_chain_exits_2():
    # the 16-action set needs n >= 6: config rejects the pair before any run
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qst_control.cli", "describe", "--set", "chain.n=4", "--set", "action_set=zhang16"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    record = json.loads(proc.stderr.strip())
    assert record["path"] == "action_set"
    assert "needs n >= 6" in record["message"]


def test_installed_entry_point(tmp_path):
    # Install this checkout into a throwaway environment and run the declared
    # console script from there, so the test checks the code under test and
    # not whatever `qst-control` happens to be on PATH. setuptools' own
    # `develop` works offline; the PEP 660 editable build needs `wheel` below
    # setuptools 70.1.
    pytest.importorskip("setuptools")
    checkout = tmp_path / "checkout"
    shutil.copytree(REPO_ROOT / "src", checkout / "src")
    shutil.copy2(REPO_ROOT / "pyproject.toml", checkout)
    venv = tmp_path / "venv"
    subprocess.run(
        [sys.executable, "-m", "venv", "--system-site-packages", "--without-pip", str(venv)],
        check=True, timeout=120,
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run(
        [str(venv / "bin" / "python"), "-c", "from setuptools import setup; setup()",
         "develop", "--no-deps"],
        cwd=checkout, env=env, check=True, timeout=120,
    )
    exe = shutil.which("qst-control", path=str(venv / "bin"))
    assert exe is not None, "console script not installed"
    proc = subprocess.run(
        [exe, "describe", "--set", "chain.n=8"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert yaml.safe_load(proc.stdout)["chain"]["n"] == 8


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of the import time of every command; only
    # free_peak needs it, and it imports it itself
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    code = "import sys, qst_control.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
