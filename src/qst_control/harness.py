"""Experiment orchestration: multi-seed studies, noise grids, searches.

Every study derives per-job random streams from one root stream through a
fixed tag scheme (one tag per study kind, then the job's own indices), so

* results are independent of worker count and completion order,
* adding a chain length or a grid cell never perturbs the others,
* reruns with the same seed reproduce byte-identical artifacts.

``workers`` threads run independent jobs: chain lengths, sweep cells and
HPO trials; a lone job runs in the calling thread.  The package pins BLAS
to one thread per process (``qst_control``), and the step kernel shares a
large step with a helper thread only when called from the main thread, so
pool threads step serially and threads never nest.  The seeds of one
length run in lock-step in one thread (:func:`ga.run_ga_lockstep`): two GA
seeds at n=16 took 1.46 s on two threads and 1.13 s in lock-step (median
design times).  The histogram runs its seeds one at a time, so it never
runs a seed its quota did not need.  Validation stacks the runs of
several grid cells into one lock-step batch and ignores ``workers``: two
such batches on two threads lost to one call.  No stack depends on
``workers``.  One sort per block of steps groups a stack, keying a one-row
(batch, action) class as a block alone; as a product of two rows or more
gives a row the same bits at any row count, each batch of two rows or more
keeps its solo bits.  So a generation with a seed of under two offspring
steps its seeds one at a time, and at one run a cell each cell steps alone.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .actions import PropagatorCache, build_cache, make_action_set
from .bounds import COUNT, NONNEGATIVE, POSITIVE, POSITIVE_UNIT, UNIT, Checked, Range, bounded
from .chain import ChainSpec, Trajectory, averaged_fidelity, evolve_lockstep, evolve_sequence
from .dqn import DqnConfig, greedy_policy, greedy_rollout, train
from .ga import GaConfig, run_ga, run_ga_lockstep
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
# rows of whole validation cells per lock-step call.  All cells at once raise
# the peak memory (every row holds a block of noise variates), and a greedy
# policy's q_batch costs about 1.5x more per row past ~256 rows of the
# default 120-wide network, as its per-step arrays start to fault in pages
SCHEDULE_ROWS, POLICY_ROWS = 512, 256


def run_jobs(jobs: dict, workers: int = 1) -> dict:
    """Run keyed, independent thunks; results come back under their keys.

    The output mapping is assembled from the keys, never from completion
    order, so any ``workers`` value produces the same result.  A lone job
    runs in the calling thread, so its freed memory stays in that thread's
    malloc arena instead of a pool thread's.
    """
    if workers <= 1 or len(jobs) <= 1:
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


@dataclass(frozen=True)
class ScalingSettings(Checked):
    lengths: tuple[int, ...] = bounded((16, 32, 64, 128), Range(2))
    n_seeds: int = bounded(3, COUNT)


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
) -> MultiSeedSummary:
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be positive, got {n_seeds}")
    jobs = {}
    for n in lengths:
        spec = dataclasses.replace(base_spec, n=n)
        action_set = make_action_set(set_kind, n, base_spec.field_strength)
        seeds = [stream.substream(tag, n, s) for s in range(n_seeds)]
        jobs[n] = lambda a=action_set, sp=spec, seeds=seeds: run_ga_lockstep(config, a, sp, seeds=seeds)
    results = run_jobs(jobs, workers)
    rows = []
    for n in lengths:
        records = results[n]
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
    n_seeds: int,
    workers: int = 1,
) -> MultiSeedSummary:
    """Independent optimizer runs per chain length, summarized over seeds."""
    return _ga_seed_matrix(
        TAG_MULTI_SEED, lengths, config, set_kind, base_spec, stream, n_seeds, workers
    )


def scaling_study(
    config: GaConfig,
    set_kind: str,
    base_spec: ChainSpec,
    stream: RandomStream,
    settings: ScalingSettings = ScalingSettings(),
    workers: int = 1,
) -> MultiSeedSummary:
    """Best transfer versus chain length at fixed dt (few seeds per point)."""
    return _ga_seed_matrix(
        TAG_SCALING, settings.lengths, config, set_kind, base_spec, stream, settings.n_seeds, workers
    )


# ------------------------------------------------------------ (h, dt) sweep


@dataclass(frozen=True)
class SweepSettings(Checked):
    h_values: tuple[float, ...] = bounded((25.0, 50.0, 100.0, 200.0), NONNEGATIVE)
    dt_values: tuple[float, ...] = bounded((0.05, 0.1, 0.15, 0.2), POSITIVE)


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
    config: GaConfig,
    set_kind: str,
    base_spec: ChainSpec,
    stream: RandomStream,
    settings: SweepSettings = SweepSettings(),
    workers: int = 1,
) -> SweepResult:
    """One optimizer run per (field strength, step duration) grid point.

    Every cell is ``base_spec`` with that cell's dt and field strength.
    Note the sequence length follows dt, so cells are comparable in
    physical duration, not in gene count.
    """
    jobs = {}
    for i, h in enumerate(settings.h_values):
        for j, dt in enumerate(settings.dt_values):
            spec = dataclasses.replace(base_spec, dt=dt, field_strength=h)
            action_set = make_action_set(set_kind, spec.n, h)
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
        for i, h in enumerate(settings.h_values)
        for j, dt in enumerate(settings.dt_values)
    ]
    return SweepResult(cells=cells)


# ---------------------------------------------------------- noise validation


@dataclass(frozen=True)
class ValidateSettings(Checked):
    controller: str = bounded("ga", ("ga", "dqn"))
    p_values: tuple[float, ...] = bounded(DEFAULT_NOISE_LEVELS, UNIT)
    delta_values: tuple[float, ...] = bounded(DEFAULT_NOISE_LEVELS, NONNEGATIVE)
    runs: int = bounded(100, COUNT)


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
    clean_max_probability: float

    def cell(self, p: float, delta: float) -> ValidationCell:
        for c in self.cells:
            if c.p == p and c.delta == delta:
                return c
        raise KeyError(f"no validation cell for p={p}, delta={delta}")


def validate_controller(
    controller,
    cache: PropagatorCache,
    stream: RandomStream,
    p_values: Sequence[float] = ValidateSettings.p_values,
    delta_values: Sequence[float] = ValidateSettings.delta_values,
    n_runs: int = ValidateSettings.runs,
    workers: int = 1,
) -> ValidationReport:
    """Monte Carlo robustness grid for one controller.

    Cell statistics are over ``n_runs`` independent noise realizations;
    run r of cell c draws from substream (tag, c, r), so every cell and
    every run is reproducible in isolation.  The runs of up to
    ``SCHEDULE_ROWS`` (a policy: ``POLICY_ROWS``) rows of whole noisy
    cells are stepped in lock-step as one batch, each run under its cell's
    noise level and tagged by cell, so every run is bit for bit the one
    its cell gives stepped alone; at one run a cell, each cell steps alone.
    Cells with p = 0 or delta = 0 are noiseless: every run is the clean
    rollout, computed once, whose maximum the report keeps, noiseless cell
    or not.  The reported std is the population spread (ddof 0) of the
    per-run trajectory maxima.  ``controller`` gives the clean run through
    ``rollout(cache)`` and what :func:`evolve_lockstep` steps through
    ``actions()``.  ``workers`` is accepted and ignored: the batches run in
    the calling thread.
    """
    grid = [(float(p), float(d)) for p in p_values for d in delta_values]
    # all up front, so that a bad run count, noise level or controller fails
    # once, before any cell runs; the clean run also fixes the trajectory length
    if not isinstance(n_runs, (int, np.integer)) or n_runs < 1:
        raise ValueError(f"n_runs must be a positive integer, got {n_runs!r}")
    models = [NoiseModel(p=p, delta=d) for p, d in grid]
    clean = controller.rollout(cache)
    n_steps = len(clean.probabilities)
    per_run = np.full((len(grid), n_runs), clean.max_probability)
    noisy = [c for c, m in enumerate(models) if m.p > 0.0 and m.delta > 0.0]
    actions = controller.actions()
    rows = POLICY_ROWS if callable(actions) else SCHEDULE_ROWS
    per_call = max(1, rows // n_runs) if n_runs > 1 else 1  # a tag batch needs two rows
    for chunk in (noisy[i : i + per_call] for i in range(0, len(noisy), per_call)):
        keys = np.concatenate([stream.substream_keys(TAG_VALIDATION, c, count=n_runs) for c in chunk])
        noise = [models[c] for c in chunk for _ in range(n_runs)]
        tags = None if len(chunk) == 1 else np.repeat(np.arange(len(chunk)), n_runs)
        run = evolve_lockstep(cache.unitaries, actions, n_steps, noise, keys, tags=tags)
        per_run[chunk] = run.probabilities.max(axis=1).reshape(len(chunk), n_runs)
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
            fid = float(np.mean(averaged_fidelity(runs)))
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
        clean_max_probability=clean.max_probability,
    )


# ------------------------------------------------------------- histograms


@dataclass(frozen=True)
class HistogramSettings(Checked):
    n_sequences: int = bounded(1000, COUNT)
    threshold: float = bounded(0.99, UNIT)
    max_runs: int = bounded(200, COUNT)


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
    settings: HistogramSettings = HistogramSettings(),
) -> ActionHistogram:
    """Harvest successful sequences from repeated optimizer runs.

    Each run contributes the distinct chromosomes of its final population
    whose fitness reaches the threshold (distinct across the whole
    harvest, so a sequence cloned by elitism or rediscovered by a later
    seed counts once).  Runs go one seed at a time, in seed order, until
    the quota or the run budget is exhausted; the final run's contribution
    is truncated to the quota in population order.
    """
    action_set = make_action_set(set_kind, spec.n, spec.field_strength)
    cache = build_cache(action_set, spec)  # one for every run
    counts = np.zeros(len(action_set), dtype=np.int64)
    seen: set[bytes] = set()
    runs_used = 0
    while runs_used < settings.max_runs and len(seen) < settings.n_sequences:
        pop = run_ga(config, action_set, spec, stream.substream(TAG_HISTOGRAM, runs_used), cache).final_population
        runs_used += 1
        for i in np.nonzero(pop.fitness >= settings.threshold)[0]:
            key = pop.genes[i].tobytes()
            if key in seen:
                continue
            seen.add(key)
            counts += np.bincount(pop.genes[i], minlength=len(action_set))
            if len(seen) >= settings.n_sequences:
                break
    return ActionHistogram(
        counts=counts,
        n_actions=len(action_set),
        n_sequences=len(seen),
        n_runs_used=runs_used,
        threshold=settings.threshold,
        complete=len(seen) >= settings.n_sequences,
    )


# ------------------------------------------------------ hyperparameter HPO


@dataclass(frozen=True)
class HpoSettings(Checked):
    """Random-search settings.  The ranges are gamma uniform, learning rate
    log-uniform and first hidden width integer-uniform (inclusive); each
    carries the bound of the ``DqnConfig`` field it feeds, so every draw is
    one it accepts."""

    trials: int = bounded(32, COUNT)
    val_runs: int = bounded(100, COUNT)
    gamma: tuple[float, float] = bounded((0.95, 1.0), POSITIVE_UNIT)
    learning_rate: tuple[float, float] = bounded((1e-5, 1e-2), POSITIVE)
    hidden1: tuple[int, int] = bounded((512, 4096), COUNT)
    noise_p: float = bounded(0.25, UNIT)
    noise_delta: float = bounded(0.25, NONNEGATIVE)


@dataclass
class HpoTrial:
    trial: int
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
    settings: HpoSettings = HpoSettings(),
    workers: int = 1,
) -> HpoResult:
    """Uniform random search over (gamma, learning rate, hidden width).

    ``settings.trials`` trials each train under the dephasing level
    (``noise_p``, ``noise_delta``) and are scored by the mean trajectory
    maximum of ``val_runs`` greedy rollouts under that same noise.  The
    second hidden width follows the first at the fixed 1:3 ratio.  Ties go
    to the lower trial index.
    """
    action_set = make_action_set(set_kind, spec.n, spec.field_strength)
    cache = build_cache(action_set, spec)
    noise = NoiseModel(p=settings.noise_p, delta=settings.noise_delta)

    def run_trial(i: int) -> HpoTrial:
        sub = stream.substream(TAG_HPO, i)
        gen = sub.generator()
        gamma = float(gen.uniform(*settings.gamma))
        lr = float(math.exp(gen.uniform(*map(math.log, settings.learning_rate))))
        hidden1 = int(gen.integers(settings.hidden1[0], settings.hidden1[1] + 1))
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
        keys = sub.substream_keys(2, count=settings.val_runs)
        run = evolve_lockstep(cache.unitaries, greedy_policy(record.network), spec.n_steps, noise, keys)
        scores = run.probabilities.max(axis=1)
        return HpoTrial(
            trial=i,
            gamma=gamma,
            learning_rate=lr,
            hidden1=hidden1,
            score=float(scores.mean()),
            train_best=record.best_probability,
        )

    jobs = {i: (lambda i=i: run_trial(i)) for i in range(settings.trials)}
    results = run_jobs(jobs, workers)
    trials = [results[i] for i in range(settings.trials)]
    best = max(trials, key=lambda t: (t.score, -t.trial))
    best_config = dataclasses.replace(
        base_config,
        gamma=best.gamma,
        learning_rate=best.learning_rate,
        hidden1=best.hidden1,
        hidden2=None,
    )
    return HpoResult(trials=trials, best=best, best_config=best_config)
