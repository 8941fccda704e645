"""Experiment orchestration: multi-seed studies, noise grids, searches.

Every study derives per-job random streams from one root stream through a
fixed tag scheme (one tag per study kind, then the job's own indices), so

* results are independent of worker count and completion order,
* adding a chain length or a grid cell never perturbs the others,
* reruns with the same seed reproduce byte-identical artifacts.

Parallelism uses threads: the hot loops are numpy matrix products that
release the GIL, and threads let every job share the propagator caches.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .actions import PropagatorCache, build_cache, make_action_set
from .chain import ChainSpec, Trajectory, averaged_fidelity, evolve_lockstep, evolve_sequence
from .dqn import DqnConfig, greedy_policy, greedy_rollout, train
from .ga import GaConfig, run_ga
from .noise import NoiseModel
from .qnet import QNetwork
from .rng import RandomStream

TAG_MULTI_SEED = 1
TAG_SWEEP = 2
TAG_VALIDATION = 3
TAG_HISTOGRAM = 4
TAG_SCALING = 5
TAG_HPO = 6

DEFAULT_NOISE_LEVELS = (0.0, 0.125, 0.25, 0.5)


def run_jobs(jobs: dict, workers: int = 1) -> dict:
    """Run keyed, independent thunks; results come back under their keys.

    The output mapping is assembled from the keys, never from completion
    order, so any ``workers`` value produces the same result.
    """
    if workers <= 1:
        return {key: job() for key, job in jobs.items()}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {key: pool.submit(job) for key, job in jobs.items()}
        return {key: fut.result() for key, fut in futures.items()}


# ------------------------------------------------------------- controllers


@dataclass
class FixedSequenceController:
    """Open-loop arm: replay one designed pulse program, come what may."""

    sequence: np.ndarray

    def actions(self) -> np.ndarray:
        """What :func:`evolve_lockstep` steps: the fixed schedule."""
        return self.sequence

    def rollout(self, cache: PropagatorCache) -> Trajectory:
        return evolve_sequence(self.sequence, cache)


@dataclass
class GreedyPolicyController:
    """Closed-loop arm: a trained network picks each step's action from
    the realized (possibly dephased) state."""

    network: QNetwork

    def actions(self):
        """What :func:`evolve_lockstep` steps: the greedy policy."""
        return greedy_policy(self.network)

    def rollout(self, cache: PropagatorCache) -> Trajectory:
        _, traj = greedy_rollout(self.network, cache.action_set, cache.spec, cache=cache)
        return traj


# ---------------------------------------------------------- multi-seed GA


@dataclass
class LengthSummary:
    """Seed statistics of the optimizer at one chain length."""

    n: int
    best: float
    mean: float
    std: float
    per_seed: np.ndarray
    halt_reasons: list[str]
    generations: list[int]
    best_sequence: np.ndarray = field(repr=False)

    @property
    def best_fidelity(self) -> float:
        return averaged_fidelity(self.best)


@dataclass
class MultiSeedSummary:
    rows: list[LengthSummary]

    def row(self, n: int) -> LengthSummary:
        for row in self.rows:
            if row.n == n:
                return row
        raise KeyError(f"no results for n={n}")


def _ga_seed_matrix(
    tag: int,
    lengths: Sequence[int],
    config: GaConfig,
    set_kind: str,
    base_spec: ChainSpec,
    stream: RandomStream,
    n_seeds: int,
    workers: int,
    noise: NoiseModel | None = None,
) -> MultiSeedSummary:
    jobs = {}
    for n in lengths:
        spec = dataclasses.replace(base_spec, n=n)
        action_set = make_action_set(set_kind, n, base_spec.field_strength)
        for s in range(n_seeds):
            jobs[(n, s)] = (
                lambda c=config, a=action_set, sp=spec, st=stream.substream(tag, n, s): run_ga(
                    c, a, sp, noise=noise, seed=st
                )
            )
    results = run_jobs(jobs, workers)
    rows = []
    for n in lengths:
        records = [results[(n, s)] for s in range(n_seeds)]
        per_seed = np.array([r.best_chromosome.fitness for r in records])
        best_idx = int(np.argmax(per_seed))
        rows.append(
            LengthSummary(
                n=n,
                best=float(per_seed.max()),
                mean=float(per_seed.mean()),
                std=float(per_seed.std()),
                per_seed=per_seed,
                halt_reasons=[r.halt_reason.value for r in records],
                generations=[r.generations_run for r in records],
                best_sequence=records[best_idx].best_chromosome.genes,
            )
        )
    return MultiSeedSummary(rows=rows)


def multi_seed_ga(
    lengths: Sequence[int],
    config: GaConfig,
    set_kind: str,
    base_spec: ChainSpec,
    stream: RandomStream,
    n_seeds: int | None = None,
    workers: int = 1,
) -> MultiSeedSummary:
    """Independent optimizer runs per chain length, summarized over seeds."""
    if n_seeds is None:
        n_seeds = config.n_seeds
    return _ga_seed_matrix(
        TAG_MULTI_SEED, lengths, config, set_kind, base_spec, stream, n_seeds, workers
    )


def scaling_study(
    lengths: Sequence[int],
    config: GaConfig,
    set_kind: str,
    base_spec: ChainSpec,
    stream: RandomStream,
    n_seeds: int = 3,
    workers: int = 1,
) -> MultiSeedSummary:
    """Best transfer versus chain length at fixed dt (few seeds per point)."""
    return _ga_seed_matrix(
        TAG_SCALING, lengths, config, set_kind, base_spec, stream, n_seeds, workers
    )


# ------------------------------------------------------------ (h, dt) sweep


@dataclass
class SweepCell:
    h: float
    dt: float
    max_probability: float
    halt_reason: str
    generations: int


@dataclass
class SweepResult:
    cells: list[SweepCell]

    def cell(self, h: float, dt: float) -> SweepCell:
        for c in self.cells:
            if c.h == h and c.dt == dt:
                return c
        raise KeyError(f"no sweep cell for h={h}, dt={dt}")


def sweep_h_dt(
    n: int,
    h_values: Sequence[float],
    dt_values: Sequence[float],
    config: GaConfig,
    stream: RandomStream,
    set_kind: str = "site_by_site",
    coupling: float = 1.0,
    workers: int = 1,
) -> SweepResult:
    """One optimizer run per (field strength, step duration) grid point.

    Note the sequence length follows dt, so cells are comparable in
    physical duration, not in gene count.
    """
    jobs = {}
    for i, h in enumerate(h_values):
        for j, dt in enumerate(dt_values):
            spec = ChainSpec(n=n, coupling=coupling, dt=dt, field_strength=h)
            action_set = make_action_set(set_kind, n, h)
            jobs[(i, j)] = (
                lambda c=config, a=action_set, sp=spec, st=stream.substream(TAG_SWEEP, i, j): run_ga(
                    c, a, sp, seed=st
                )
            )
    results = run_jobs(jobs, workers)
    cells = [
        SweepCell(
            h=float(h),
            dt=float(dt),
            max_probability=results[(i, j)].best_chromosome.fitness,
            halt_reason=results[(i, j)].halt_reason.value,
            generations=results[(i, j)].generations_run,
        )
        for i, h in enumerate(h_values)
        for j, dt in enumerate(dt_values)
    ]
    return SweepResult(cells=cells)


# ---------------------------------------------------------- noise validation


@dataclass
class ValidationCell:
    p: float
    delta: float
    mean_max_probability: float
    std_max_probability: float
    mean_fidelity: float
    n_runs: int


@dataclass
class ValidationReport:
    cells: list[ValidationCell]
    per_run: np.ndarray = field(repr=False)
    p_values: tuple
    delta_values: tuple

    def cell(self, p: float, delta: float) -> ValidationCell:
        for c in self.cells:
            if c.p == p and c.delta == delta:
                return c
        raise KeyError(f"no validation cell for p={p}, delta={delta}")


def validate_controller(
    controller,
    cache: PropagatorCache,
    stream: RandomStream,
    p_values: Sequence[float] = DEFAULT_NOISE_LEVELS,
    delta_values: Sequence[float] = DEFAULT_NOISE_LEVELS,
    n_runs: int = 100,
    workers: int = 1,
) -> ValidationReport:
    """Monte Carlo robustness grid for one controller.

    Cell statistics are over ``n_runs`` independent noise realizations;
    run r of cell c draws from substream (tag, c, r), so every cell and
    every run is reproducible in isolation.  The runs of a cell are
    stepped in lock-step, all R states at once.  Cells with p = 0 or
    delta = 0 are noiseless: every run is the clean rollout, computed
    once.  The reported std is the population spread (ddof 0) of the
    per-run trajectory maxima.  ``controller`` gives the clean run through
    ``rollout(cache)`` and what :func:`evolve_lockstep` steps through
    ``actions()``.
    """
    grid = [(float(p), float(d)) for p in p_values for d in delta_values]
    # all up front, so that an invalid noise level or controller fails once,
    # before any cell runs; the clean run also fixes the trajectory length
    models = [NoiseModel(p=p, delta=d) for p, d in grid]
    clean = controller.rollout(cache)
    n_steps = len(clean.probabilities)

    def run_cell(c: int, noise: NoiseModel) -> np.ndarray:
        if noise.p == 0.0 or noise.delta == 0.0:
            return np.full(n_runs, clean.max_probability)
        rngs = [stream.substream(TAG_VALIDATION, c, r) for r in range(n_runs)]
        run = evolve_lockstep(cache.unitaries, controller.actions(), n_steps, noise, rngs)
        return run.probabilities.max(axis=1)

    jobs = {c: (lambda c=c, noise=noise: run_cell(c, noise)) for c, noise in enumerate(models)}
    results = run_jobs(jobs, workers)
    per_run = np.stack([results[c] for c in range(len(grid))])
    cells = []
    for c, (p, d) in enumerate(grid):
        runs = per_run[c]
        if np.all(runs == runs[0]):
            # degenerate cell (p=0 or delta=0): every realization is the
            # noiseless trajectory, and summation roundoff must not smear
            # the exact value into a phantom spread
            mean, std = float(runs[0]), 0.0
            fid = averaged_fidelity(mean)
        else:
            mean, std = float(runs.mean()), float(runs.std())
            fid = float(np.mean([averaged_fidelity(v) for v in runs]))
        cells.append(
            ValidationCell(
                p=p,
                delta=d,
                mean_max_probability=mean,
                std_max_probability=std,
                mean_fidelity=fid,
                n_runs=n_runs,
            )
        )
    return ValidationReport(
        cells=cells,
        per_run=per_run,
        p_values=tuple(float(p) for p in p_values),
        delta_values=tuple(float(d) for d in delta_values),
    )


# ------------------------------------------------------------- histograms


@dataclass
class ActionHistogram:
    """Which actions successful sequences actually use.

    Counts aggregate over every position of every harvested sequence.
    ``complete`` is False when the run budget ran out before the quota.
    """

    counts: np.ndarray
    n_actions: int
    n_sequences: int
    n_runs_used: int
    threshold: float
    complete: bool

    @property
    def frequencies(self) -> np.ndarray:
        total = self.counts.sum()
        if total == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / total


def action_histogram(
    config: GaConfig,
    set_kind: str,
    spec: ChainSpec,
    stream: RandomStream,
    n_sequences: int = 1000,
    threshold: float = 0.99,
    max_runs: int = 200,
    workers: int = 1,
) -> ActionHistogram:
    """Harvest successful sequences from repeated optimizer runs.

    Each run contributes the distinct chromosomes of its final population
    whose fitness reaches the threshold (distinct across the whole
    harvest, so a sequence cloned by elitism or rediscovered by a later
    seed counts once).  Runs are consumed in seed order until the quota
    or the run budget is exhausted; the final run's contribution is
    truncated to the quota in population order.
    """
    action_set = make_action_set(set_kind, spec.n, spec.field_strength)
    counts = np.zeros(len(action_set), dtype=np.int64)
    seen: set[bytes] = set()
    runs_used = 0
    chunk = max(1, workers)
    next_seed = 0
    while len(seen) < n_sequences and next_seed < max_runs:
        seeds = range(next_seed, min(next_seed + chunk, max_runs))
        jobs = {
            s: (lambda st=stream.substream(TAG_HISTOGRAM, s): run_ga(config, action_set, spec, seed=st))
            for s in seeds
        }
        results = run_jobs(jobs, workers)
        for s in seeds:
            if len(seen) >= n_sequences:
                break
            record = results[s]
            runs_used += 1
            pop = record.final_population
            hits = np.nonzero(pop.fitness >= threshold)[0]
            for i in hits:
                key = pop.genes[i].tobytes()
                if key in seen:
                    continue
                seen.add(key)
                counts += np.bincount(pop.genes[i], minlength=len(action_set))
                if len(seen) >= n_sequences:
                    break
        next_seed += chunk
    return ActionHistogram(
        counts=counts,
        n_actions=len(action_set),
        n_sequences=len(seen),
        n_runs_used=runs_used,
        threshold=threshold,
        complete=len(seen) >= n_sequences,
    )


# ------------------------------------------------------ hyperparameter HPO


@dataclass(frozen=True)
class HpoRanges:
    """Random-search ranges: gamma uniform, learning rate log-uniform,
    first hidden width integer-uniform (inclusive)."""

    gamma: tuple[float, float] = (0.95, 1.0)
    learning_rate: tuple[float, float] = (1e-5, 1e-2)
    hidden1: tuple[int, int] = (512, 4096)


@dataclass
class HpoTrial:
    index: int
    gamma: float
    learning_rate: float
    hidden1: int
    score: float
    train_best: float


@dataclass
class HpoResult:
    trials: list[HpoTrial]
    best: HpoTrial
    best_config: DqnConfig


def hyperparameter_search(
    base_config: DqnConfig,
    set_kind: str,
    spec: ChainSpec,
    stream: RandomStream,
    n_trials: int = 32,
    ranges: HpoRanges = HpoRanges(),
    train_noise: tuple = (0.25, 0.25),
    val_runs: int = 100,
    workers: int = 1,
) -> HpoResult:
    """Uniform random search over (gamma, learning rate, hidden width).

    Every trial trains under the dephasing level given by ``train_noise``
    and is scored by the mean trajectory maximum of ``val_runs`` greedy
    rollouts under that same noise.  The second hidden width follows the
    first at the fixed 1:3 ratio.  Ties go to the lower trial index.
    """
    action_set = make_action_set(set_kind, spec.n, spec.field_strength)
    cache = build_cache(action_set, spec)
    noise = NoiseModel(p=train_noise[0], delta=train_noise[1])

    def run_trial(i: int) -> HpoTrial:
        sub = stream.substream(TAG_HPO, i)
        gen = sub.generator()
        gamma = float(gen.uniform(*ranges.gamma))
        lr = float(math.exp(gen.uniform(math.log(ranges.learning_rate[0]), math.log(ranges.learning_rate[1]))))
        hidden1 = int(gen.integers(ranges.hidden1[0], ranges.hidden1[1] + 1))
        config = dataclasses.replace(
            base_config,
            gamma=gamma,
            learning_rate=lr,
            hidden1=hidden1,
            hidden2=None,
            noise_p=noise.p,
            noise_delta=noise.delta,
        )
        record = train(config, action_set, spec, seed=sub.substream(1))
        rngs = [sub.substream(2, r) for r in range(val_runs)]
        run = evolve_lockstep(cache.unitaries, greedy_policy(record.network), spec.n_steps, noise, rngs)
        scores = run.probabilities.max(axis=1)
        return HpoTrial(
            index=i,
            gamma=gamma,
            learning_rate=lr,
            hidden1=hidden1,
            score=float(scores.mean()),
            train_best=record.best_probability,
        )

    jobs = {i: (lambda i=i: run_trial(i)) for i in range(n_trials)}
    results = run_jobs(jobs, workers)
    trials = [results[i] for i in range(n_trials)]
    best = max(trials, key=lambda t: (t.score, -t.index))
    best_config = dataclasses.replace(
        base_config,
        gamma=best.gamma,
        learning_rate=best.learning_rate,
        hidden1=best.hidden1,
        hidden2=None,
    )
    return HpoResult(trials=trials, best=best, best_config=best_config)
