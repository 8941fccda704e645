"""One round of one workload, in a fresh Python process.

A round builds the propagator cache, designs a controller, validates it
over the dephasing grid, then checks the outputs against the independent
reference.  The three phases are timed from outside the library; the
checks run after them and are not timed.  ``run.py`` starts this script
and reads the JSON object on the last line of its standard output.

    python3 bench/worker.py --workload ga-n16 --seed 0 --trace 0 \\
        --spawn-time <time.monotonic() of the parent just before it started us>
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RANDOM_REPLAYS_PER_CELL = 3  # plus the first and the last run of every cell


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawn-time", type=float, required=True)
    p.add_argument("--setup-only", action="store_true", help="stop once the design call could begin")
    p.add_argument("--smoke", action="store_true", help="tiny inputs, same code path")
    p.add_argument("--spans", help="write the traced round's spans to this JSON file")
    return p


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _design(wl, spec, action_set, seed):
    """Run the workload's design call; returns what the checks need."""
    from qst_control import dqn, ga, harness
    from qst_control.rng import RandomStream

    import workloads

    length = spec.n_steps
    if wl.method == "dqn":
        config = dataclasses.replace(dqn.DqnConfig(), episodes=wl.episodes)
        record = dqn.train(config, action_set, spec, seed=RandomStream(workloads.DQN_TRAIN_SEED))
        return {
            "controller": harness.GreedyPolicyController(record.network),
            "steps": wl.episodes * length,
            "record": record,
            "config": config,
        }
    config = dataclasses.replace(
        ga.GaConfig().with_population(wl.population),
        max_generations=wl.generations,
        saturation=wl.generations,
        target_probability=1.0,
    )
    if wl.method == "ga-multi":
        summary = harness.multi_seed_ga(
            [wl.n], config, "site_by_site", spec, RandomStream(seed), n_seeds=wl.ga_seeds, workers=wl.workers
        )
        row = summary.rows[0]
        sequence, best, generations = row.best_sequence, row.best, row.generations
    else:
        record = ga.run_ga(config, action_set, spec, seed=RandomStream(seed).substream(workloads.GA_DESIGN_TAG))
        sequence, best, generations = record.best_chromosome.genes, record.best_chromosome.fitness, [record.generations_run]
    offspring = config.population_size - config.keep_elitism
    return {
        "controller": harness.FixedSequenceController(sequence),
        "steps": (config.population_size + (wl.generations - 1) * offspring) * length * wl.ga_seeds,
        "sequence": sequence,
        "design_p": float(best),
        "generations": generations,
    }


def _reference_propagators(n, spec):
    """The reference's expm propagators, kept in the output directory.

    At n=64 the 65 exponentials take about a second, so every round after
    the first in a checkout loads the stored copy instead.
    """
    import numpy as np

    import reference

    path = OUT / f"reference-u-n{n}-h{spec.field_strength!r}-J{spec.coupling!r}-dt{spec.dt!r}.npy"
    if path.is_file():
        return np.load(path)
    fields = reference.site_by_site_fields(n, spec.field_strength)
    unitaries = reference.propagators(fields, spec.coupling, spec.dt)
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        np.save(fh, unitaries)
    os.replace(tmp, path)
    return unitaries


def _checks(wl, seed, spec, cache, design, report, tracer, phase_ids) -> dict:
    """Name -> failure reason or None.  Run after the timed phases."""
    import numpy as np

    import checks
    import reference

    ref_u = _reference_propagators(wl.n, spec)
    length = reference.n_steps(wl.n, spec.dt)
    clean_p = design["controller"].rollout(cache).max_probability
    cells = np.array([(c.p, c.delta, c.mean_max_probability, c.std_max_probability) for c in report.cells])
    per_run = report.per_run
    if wl.method == "dqn":
        net = design["record"].network
        policy = {"net": ([w.copy() for w in net.weights], [b.copy() for b in net.biases])}
        design["design_p"] = clean_p
    else:
        policy = {"actions": design["sequence"]}
    gen = np.random.default_rng(seed)
    samples = []
    for c in range(len(cells)):
        drawn = gen.choice(wl.runs, size=min(wl.runs, RANDOM_REPLAYS_PER_CELL), replace=False)
        samples += [(c, r) for r in sorted({0, wl.runs - 1, *drawn.tolist()})]
    probs = {"design": design["design_p"], "clean": clean_p, "per_run": per_run, "cell_means": cells[:, 2]}
    out = {
        "cache": checks.cache(cache.unitaries, ref_u),
        "design": checks.design(design["design_p"], clean_p, ref_u, length, **policy),
        "clean_cells": checks.clean_cells(cells, clean_p),
        "cell_stats": checks.cell_stats(cells, per_run),
        "replay": checks.replay(per_run, cells, samples, ref_u, length, seed, **policy),
    }
    if wl.method == "dqn":
        record, config = design["record"], design["config"]
        probs["episode_max"] = record.episode_max_probability
        out["learn_events"] = checks.learn_events(
            record.learn_events, wl.episodes * length, config.learning_period, config.minibatch
        )
    else:
        out["generations"] = checks.generations(design["generations"], wl.generations)
    out["probabilities"] = checks.probabilities(**probs)
    if tracer is not None:
        from tracer import blocking_self_s

        bad = []
        for name, sid in phase_ids.items():
            span = next(s for s in tracer.spans if s[0] == sid)
            gap = abs(blocking_self_s(tracer.spans, sid) - (span[3] - span[2]))
            if gap > 1e-6:
                bad.append(f"{name} off by {gap:.2e} s")
        out["span_accounting"] = "; ".join(bad) or None
    return out


def n_operations(wl, traced: bool) -> int:
    """Design runs + validation cells + checks, fixed per workload."""
    design_ops = 1 if wl.method == "dqn" else wl.ga_seeds
    return design_ops + 16 + 6 + 1 + int(traced)


def run_round(wl, seed: int, traced: bool, spawn_time: float, setup_only: bool = False,
              spans_path: str | None = None) -> dict:
    from qst_control import actions, harness
    from qst_control.chain import ChainSpec
    from qst_control.rng import RandomStream

    tracer = None
    if traced:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    phase_ids = {}

    @contextlib.contextmanager
    def phase(name):
        start = time.perf_counter()
        if tracer is None:
            yield
        else:
            with tracer.span(f"bench.{name}") as sid:
                phase_ids[name] = sid
                yield
        times[name] = time.perf_counter() - start

    times: dict[str, float] = {}
    out: dict = {"attempted": n_operations(wl, traced), "failed": 0, "failures": {}}
    try:
        with phase("setup"):
            spec = ChainSpec(n=wl.n)
            action_set = actions.site_by_site_set(wl.n, spec.field_strength)
            cache = actions.build_cache(action_set, spec)
        out["setup_s"] = time.monotonic() - spawn_time
        if setup_only:
            return out
        with phase("design"):
            design = _design(wl, spec, action_set, seed)
        with phase("validate"):
            report = harness.validate_controller(
                design["controller"], cache, RandomStream(seed), n_runs=wl.runs, workers=wl.workers
            )
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    except Exception:
        out["failed"] = out["attempted"]
        out["failures"]["round"] = traceback.format_exc()
        return out
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["times"] = times
    out["design_steps"] = design["steps"]
    out["rollout_steps"] = len(report.cells) * wl.runs * spec.n_steps
    results = _checks(wl, seed, spec, cache, design, report, tracer, phase_ids)
    out["failures"] = {k: v for k, v in results.items() if v is not None}
    out["failed"] = len(out["failures"])
    out["design_best_p"] = design["design_p"]
    out["grid_mean_p"] = float(sum(c.mean_max_probability for c in report.cells) / len(report.cells))
    if tracer is not None:
        import layers

        out["layers"] = layers.metrics(tracer)
        if spans_path:
            tracer.dump(spans_path)
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    wl = workloads.get(args.workload, smoke=args.smoke)
    out = run_round(wl, args.seed, bool(args.trace), args.spawn_time, args.setup_only, args.spans)
    if not args.setup_only:
        out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
