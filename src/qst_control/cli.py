"""Command-line entry point.

One subcommand per experiment kind.  Every run reads an optional YAML
config, applies ``--set`` overrides and the dedicated flags, executes,
and writes its artifacts (deterministic CSVs plus a JSON manifest with
a sha256 per artifact) under the output directory.

Exit codes: 0 success, 1 runtime failure, 2 configuration error,
3 partial result (a budget ran out before the requested quota).  Failures
emit a machine-readable JSON record on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .actions import build_cache, make_action_set
from .chain import averaged_fidelity, free_evolution_baseline, free_peak
from .config import MODES, ConfigError, ExperimentConfig, describe, load_config
from .dqn import train
from .ga import run_ga
from .harness import (
    FixedSequenceController,
    GreedyPolicyController,
    HpoTrial,
    SweepCell,
    ValidationCell,
    action_histogram,
    hyperparameter_search,
    scaling_study,
    sweep_h_dt,
    validate_controller,
)
from .reporting import environment_versions, machine_facts, record_columns, write_csv, write_json, write_manifest
from .rng import RandomStream

_WORKERS_HELP = "threads for scaling lengths, sweep cells and HPO trials; every other mode ignores it"

# substream tags for the controller-design runs inside `validate`
_TAG_DESIGN_GA = 100
_TAG_DESIGN_DQN = 200


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qst-control",
        description="Design and validate control sequences for state transfer on XX chains.",
    )
    sub = parser.add_subparsers(dest="mode", required=True, metavar="|".join(MODES))
    helps = {
        "ga": "run the genetic optimizer once and record its curves",
        "dqn-train": "train the Q-network once and record its curves",
        "validate": "noise-robustness grid for a designed controller",
        "sweep": "optimizer quality across (field strength, step duration)",
        "histogram": "action usage across many successful sequences",
        "scaling": "best transfer versus chain length",
        "baseline": "free (uncontrolled) evolution reference",
        "hpo": "random search over DQN hyperparameters",
        "describe": "print the fully resolved configuration",
    }
    for mode in MODES:
        p = sub.add_parser(mode, help=helps[mode])
        p.add_argument("--config", type=str, default=None, help="YAML config file")
        p.add_argument("--seed", type=int, default=None, help="root random seed")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
        p.add_argument(
            "--set",
            action="append",
            default=None,
            metavar="KEY=VALUE",
            help="override one config field, e.g. --set ga.population_size=512",
        )
    return parser


def _chain_objects(config: ExperimentConfig):
    spec = config.chain
    action_set = make_action_set(config.action_set, spec.n, spec.field_strength)
    return spec, action_set


def _run_ga(config: ExperimentConfig, out: Path):
    spec, action_set = _chain_objects(config)
    record = run_ga(config.ga, action_set, spec, seed=RandomStream(config.seed))
    curves = write_csv(
        out / "ga_generations.csv",
        {
            "generation": range(1, record.generations_run + 1),
            "best_fitness": record.best_fitness_per_generation,
            "mean_fitness": record.mean_fitness_per_generation,
        },
    )
    best = write_json(
        out / "best_sequence.json",
        {
            "sequence": record.best_chromosome.genes,
            "max_probability": record.best_chromosome.fitness,
            "averaged_fidelity": averaged_fidelity(record.best_chromosome.fitness),
            "halt_reason": record.halt_reason,
            "generations_run": record.generations_run,
            "n": spec.n,
            "dt": spec.dt,
            "action_set": config.action_set,
        },
    )
    print(
        f"ga: n={spec.n} best={record.best_chromosome.fitness!r} "
        f"({record.halt_reason.value} after {record.generations_run} generations)"
    )
    return {"ga_generations": curves, "best_sequence": best}, {}


def _run_dqn_train(config: ExperimentConfig, out: Path):
    spec, action_set = _chain_objects(config)
    record = train(config.dqn, action_set, spec, seed=RandomStream(config.seed))
    episodes = write_csv(
        out / "dqn_episodes.csv",
        {
            "episode": range(len(record.episode_max_probability)),
            "max_probability": record.episode_max_probability,
            "epsilon": record.episode_epsilon,
            "loss": record.episode_loss,
        },
    )
    record.network.save(out / "qnetwork.npz")
    best = write_json(
        out / "best_sequence.json",
        {
            "sequence": record.best_sequence,
            "max_probability": record.best_probability,
            "best_episode": record.best_episode,
            "learn_events": record.learn_events,
            "n": spec.n,
            "dt": spec.dt,
            "action_set": config.action_set,
        },
    )
    print(
        f"dqn-train: n={spec.n} best={record.best_probability!r} "
        f"(episode {record.best_episode}, {record.learn_events} learning events)"
    )
    return {"dqn_episodes": episodes, "best_sequence": best, "qnetwork": out / "qnetwork.npz"}, {}


def _run_validate(config: ExperimentConfig, out: Path):
    spec, action_set = _chain_objects(config)
    cache = build_cache(action_set, spec)
    stream = RandomStream(config.seed)
    artifacts = {}
    meta = {"controller": config.validate.controller}
    if config.validate.controller == "ga":
        design = run_ga(config.ga, action_set, spec, seed=stream.substream(_TAG_DESIGN_GA))
        controller = FixedSequenceController(design.best_chromosome.genes)
        artifacts["controller"] = write_json(
            out / "controller.json",
            {
                "kind": "fixed_sequence",
                "sequence": design.best_chromosome.genes,
                "design_max_probability": design.best_chromosome.fitness,
                "halt_reason": design.halt_reason,
            },
        )
        meta["design_max_probability"] = design.best_chromosome.fitness
    else:
        trained = train(config.dqn, action_set, spec, seed=stream.substream(_TAG_DESIGN_DQN))
        controller = GreedyPolicyController(trained.network)
        trained.network.save(out / "qnetwork.npz")
        artifacts["qnetwork"] = out / "qnetwork.npz"
        meta["design_max_probability"] = trained.best_probability
    report = validate_controller(
        controller,
        cache,
        stream,
        p_values=config.validate.p_values,
        delta_values=config.validate.delta_values,
        n_runs=config.validate.runs,
    )
    artifacts["validation"] = write_csv(out / "validation.csv", record_columns(ValidationCell, report.cells))
    print(
        f"validate[{config.validate.controller}]: clean max={report.clean_max_probability!r}, "
        f"{len(report.cells)} cells x {config.validate.runs} runs"
    )
    return artifacts, meta


def _run_sweep(config: ExperimentConfig, out: Path):
    result = sweep_h_dt(
        config.ga,
        config.action_set,
        config.chain,
        RandomStream(config.seed),
        config.sweep,
        workers=config.workers,
    )
    path = write_csv(out / "sweep.csv", record_columns(SweepCell, result.cells))
    best = max(result.cells, key=lambda c: c.max_probability)
    print(f"sweep: best cell h={best.h!r} dt={best.dt!r} max_probability={best.max_probability!r}")
    return {"sweep": path}, {}


def _run_histogram(config: ExperimentConfig, out: Path):
    hist = action_histogram(
        config.ga,
        config.action_set,
        config.chain,
        RandomStream(config.seed),
        config.histogram,
    )
    path = write_csv(
        out / "action_histogram.csv",
        {"action_id": range(hist.n_actions), "count": hist.counts, "frequency": hist.frequencies},
    )
    meta = {
        "n_sequences": hist.n_sequences,
        "n_runs_used": hist.n_runs_used,
        "threshold": hist.threshold,
        "complete": hist.complete,
    }
    print(
        f"histogram: {hist.n_sequences}/{config.histogram.n_sequences} sequences "
        f"from {hist.n_runs_used} runs"
    )
    if hist.complete:
        return {"action_histogram": path}, meta
    partial = {
        "status": "partial",
        "collected": hist.n_sequences,
        "requested": config.histogram.n_sequences,
        "max_runs": config.histogram.max_runs,
    }
    print(json.dumps(partial), file=sys.stderr)
    return {"action_histogram": path}, meta, 3


def _run_scaling(config: ExperimentConfig, out: Path):
    summary = scaling_study(
        config.ga,
        config.action_set,
        config.chain,
        RandomStream(config.seed),
        config.scaling,
        workers=config.workers,
    )
    path = write_csv(
        out / "scaling.csv",
        {
            "n": [r.n for r in summary.rows],
            "best_max_probability": [r.best for r in summary.rows],
            "mean_max_probability": [r.mean for r in summary.rows],
            "std_max_probability": [r.std for r in summary.rows],
            "n_seeds": [len(r.per_seed) for r in summary.rows],
            "best_fidelity": [r.best_fidelity for r in summary.rows],
        },
    )
    per_seed = write_json(
        out / "scaling_runs.json",
        {
            str(r.n): {
                "per_seed": r.per_seed,
                "halt_reasons": r.halt_reasons,
                "generations": r.generations,
                "best_sequence": r.best_sequence,
            }
            for r in summary.rows
        },
    )
    for r in summary.rows:
        print(f"scaling: n={r.n} best={r.best!r} mean={r.mean!r} std={r.std!r}")
    return {"scaling": path, "scaling_runs": per_seed}, {}


def _run_baseline(config: ExperimentConfig, out: Path):
    spec = config.chain
    traj = free_evolution_baseline(spec, config.baseline.n_steps)
    steps = range(traj.n_steps)
    path = write_csv(
        out / "baseline.csv",
        {"step": steps, "time": [(j + 1) * spec.dt for j in steps], "probability": traj.probabilities},
    )
    t_peak, p_peak = free_peak(spec)
    peak = write_json(
        out / "baseline_peak.json",
        {
            "t_peak": t_peak,
            "p_peak": p_peak,
            "grid_max_probability": traj.max_probability,
            "grid_argmax_time": traj.argmax_time,
            "n": spec.n,
        },
    )
    print(f"baseline: n={spec.n} grid max={traj.max_probability!r}, continuous peak={p_peak!r} at t={t_peak!r}")
    return {"baseline": path, "baseline_peak": peak}, {}


def _run_hpo(config: ExperimentConfig, out: Path):
    result = hyperparameter_search(
        config.dqn,
        config.action_set,
        config.chain,
        RandomStream(config.seed),
        config.hpo,
        workers=config.workers,
    )
    trials = write_csv(out / "hpo_trials.csv", record_columns(HpoTrial, result.trials))
    best = write_json(
        out / "hpo_best.json",
        {
            "trial": result.best.trial,
            "gamma": result.best.gamma,
            "learning_rate": result.best.learning_rate,
            "hidden1": result.best.hidden1,
            "hidden2": result.best_config.resolved_hidden2,
            "score": result.best.score,
        },
    )
    print(
        f"hpo: best trial {result.best.trial} score={result.best.score!r} "
        f"(gamma={result.best.gamma!r}, lr={result.best.learning_rate!r}, hidden1={result.best.hidden1})"
    )
    return {"hpo_trials": trials, "hpo_best": best}, {}


# each runner writes its files, prints its summary line and returns its
# artifacts and extra manifest fields, then an exit code if it is not 0
_RUNNERS = {
    "ga": _run_ga,
    "dqn-train": _run_dqn_train,
    "validate": _run_validate,
    "sweep": _run_sweep,
    "histogram": _run_histogram,
    "scaling": _run_scaling,
    "baseline": _run_baseline,
    "hpo": _run_hpo,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(
            args.config,
            overrides=args.set,
            mode=args.mode,
            seed=args.seed,
            output_dir=args.out,
            workers=args.workers,
        )
        if args.mode == "describe":
            print(describe(config), end="")
            return 0
        t0 = time.perf_counter()
        out = Path(config.output_dir)
        artifacts, meta, *code = _RUNNERS[args.mode](config, out)
        meta = {
            "mode": config.mode,
            "seed": config.seed,
            "config": config.resolved,
            "versions": environment_versions(),
            "machine": machine_facts(),
            "wall_time": time.perf_counter() - t0,
            **meta,
        }
        manifest = write_manifest(out, artifacts, meta)
        for name in sorted(artifacts):
            print(f"wrote {artifacts[name]}")
        print(f"wrote {manifest}")
        return code[0] if code else 0
    except ConfigError as exc:
        print(json.dumps({"error": "config", "path": exc.path, "message": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        print(json.dumps({"error": "runtime", "message": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
