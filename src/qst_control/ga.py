"""Genetic search over control-action sequences.

A chromosome is one full action sequence (one gene per step).  Fitness is
the trajectory maximum of the transmission probability, so a sequence is
rewarded for getting the excitation to the far end at any step within the
deadline, not just at the final one.

The default configuration is the large-population setup used for the
published-scale runs: 4096 individuals, a 409-parent pool with equally
sized elitism, uniform crossover applied to 80% of offspring, and a
pair-swap mutation hitting 99% of offspring.  Swap mutation permutes the
schedule without changing the multiset of actions, which preserves the
pulse budget a chromosome has discovered while exploring when the pulses
fire.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .actions import ActionSet, build_cache
from .chain import ChainSpec, evolve_lockstep, evolve_population, evolve_sequence
from .noise import NoiseModel
from .rng import RandomStream, as_stream

SATURATION_EPS = 1e-12


class HaltReason(str, Enum):
    TARGET_REACHED = "target_reached"
    SATURATION = "saturation"
    MAX_GENERATIONS = "max_generations"


@dataclass(frozen=True)
class GaConfig:
    """Hyperparameters of the genetic optimizer.

    ``mutated_genes`` controls how aggressive a mutation event is: a
    mutated offspring undergoes floor(mutated_genes / 2) position swaps.
    The default (None) resolves to the chain length at run time, which
    keeps the per-event disruption fixed as sequences get longer; setting
    it to the sequence length instead reshuffles mutants almost completely
    and stalls convergence on long chains.
    """

    population_size: int = 4096
    max_generations: int = 1000
    saturation: int = 30
    parents_mating: int = 409
    keep_elitism: int = 409
    crossover_probability: float = 0.8
    mutation_probability: float = 0.99
    mutated_genes: int | None = None
    target_probability: float = 0.99
    n_seeds: int = 30

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError(f"population_size must be at least 2, got {self.population_size}")
        if not 2 <= self.parents_mating <= self.population_size:
            raise ValueError(
                f"parents_mating must lie in [2, population_size], got {self.parents_mating}"
            )
        if not 0 <= self.keep_elitism <= self.population_size:
            raise ValueError(
                f"keep_elitism must lie in [0, population_size], got {self.keep_elitism}"
            )
        if self.max_generations < 1:
            raise ValueError(f"max_generations must be positive, got {self.max_generations}")
        if self.saturation < 1:
            raise ValueError(f"saturation must be positive, got {self.saturation}")
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise ValueError(f"crossover_probability must lie in [0, 1], got {self.crossover_probability}")
        if not 0.0 <= self.mutation_probability <= 1.0:
            raise ValueError(f"mutation_probability must lie in [0, 1], got {self.mutation_probability}")
        if self.mutated_genes is not None and self.mutated_genes < 0:
            raise ValueError(f"mutated_genes must be nonnegative, got {self.mutated_genes}")
        if not 0.0 <= self.target_probability <= 1.0:
            raise ValueError(f"target_probability must lie in [0, 1], got {self.target_probability}")
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be positive, got {self.n_seeds}")

    def with_population(self, population_size: int) -> "GaConfig":
        """Copy with the population resized and pool sizes rescaled in proportion."""
        ratio = population_size / self.population_size
        parents = max(2, round(self.parents_mating * ratio))
        elite = min(population_size, round(self.keep_elitism * ratio))
        return replace(
            self,
            population_size=population_size,
            parents_mating=min(parents, population_size),
            keep_elitism=elite,
        )


@dataclass
class Chromosome:
    """One action sequence plus its fitness, if already evaluated."""

    genes: np.ndarray
    fitness: float | None = None


@dataclass
class Population:
    """Dense population storage: one row per chromosome."""

    genes: np.ndarray
    fitness: np.ndarray | None = None

    def __len__(self) -> int:
        return self.genes.shape[0]

    def chromosome(self, i: int) -> Chromosome:
        fit = None if self.fitness is None else float(self.fitness[i])
        return Chromosome(genes=self.genes[i].copy(), fitness=fit)

    def best(self) -> Chromosome:
        if self.fitness is None:
            raise ValueError("population has not been evaluated yet")
        return self.chromosome(int(np.argmax(self.fitness)))


def init_population(
    config: GaConfig,
    action_set: ActionSet,
    n_steps: int,
    rng: "RandomStream | np.random.Generator",
) -> Population:
    """Uniform random population of action sequences."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be positive, got {n_steps}")
    gen = rng.generator() if isinstance(rng, RandomStream) else rng
    genes = gen.integers(0, len(action_set), size=(config.population_size, n_steps), dtype=np.int64)
    return Population(genes=genes)


def fitness(
    chromosome,
    cache,
    noise: NoiseModel | None = None,
    rng: "RandomStream | np.random.Generator | None" = None,
) -> float:
    """Trajectory maximum of the transmission probability for one sequence."""
    genes = chromosome.genes if isinstance(chromosome, Chromosome) else np.asarray(chromosome)
    return evolve_sequence(genes, cache, noise=noise, rng=rng).max_probability


def select_parents_sss(population: Population, k: int) -> np.ndarray:
    """Steady-state selection: indices of the k fittest individuals.

    Ties resolve to the lower population index, so selection is fully
    deterministic given the fitness array.
    """
    if population.fitness is None:
        raise ValueError("population has not been evaluated yet")
    if not 1 <= k <= len(population):
        raise ValueError(f"k must lie in [1, {len(population)}], got {k}")
    order = np.argsort(-population.fitness, kind="stable")
    return order[:k]


def uniform_crossover(parent_a, parent_b, probability: float, gen: np.random.Generator) -> np.ndarray:
    """Cross two sequences gene-by-gene, or pass the first parent through.

    One variate decides whether this offspring crosses at all (probability
    ``probability``); a crossing offspring then takes each gene from either
    parent with probability 1/2.
    """
    a = np.asarray(parent_a)
    b = np.asarray(parent_b)
    if a.shape != b.shape:
        raise ValueError(f"parents must have equal length, got {a.shape} and {b.shape}")
    if gen.random() >= probability:
        return a.copy()
    take_b = gen.random(a.shape[0]) < 0.5
    return np.where(take_b, b, a)


def swap_mutation(genes, probability: float, mutated_genes: int, gen: np.random.Generator) -> np.ndarray:
    """With the mutation probability, apply floor(mutated_genes / 2) swaps.

    Each swap exchanges two uniformly chosen distinct positions, so the
    multiset of actions is preserved exactly: mutation reschedules pulses,
    it never creates or destroys them.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {probability}")
    if mutated_genes < 0:
        raise ValueError(f"mutated_genes must be nonnegative, got {mutated_genes}")
    out = np.array(genes, copy=True)
    length = out.shape[0]
    n_swaps = mutated_genes // 2
    if gen.random() >= probability or length < 2 or n_swaps == 0:
        return out
    for _ in range(n_swaps):
        i = int(gen.integers(0, length))
        j = int(gen.integers(0, length - 1))
        if j >= i:
            j += 1
        out[i], out[j] = out[j], out[i]
    return out


@dataclass
class GaRunRecord:
    """Everything a single optimizer run produced."""

    best_chromosome: Chromosome
    best_fitness_per_generation: np.ndarray
    mean_fitness_per_generation: np.ndarray
    halt_reason: HaltReason
    generations_run: int
    wall_time: float
    final_population: Population = field(repr=False, default=None)


def _evaluate(genes, cache, noise, stream, generation):
    """Fitness of each row; noisy runs get one substream per individual."""
    if noise is None:
        return evolve_population(genes, cache)
    rngs = [stream.substream(generation, i) for i in range(genes.shape[0])]
    run = evolve_lockstep(cache.unitaries, genes, genes.shape[1], noise, rngs)
    return run.probabilities.max(axis=1)


def run_ga(
    config: GaConfig,
    action_set: ActionSet,
    spec: ChainSpec,
    noise: NoiseModel | None = None,
    seed: "int | RandomStream" = 0,
) -> GaRunRecord:
    """Run the genetic optimizer until target, saturation, or the cap.

    Generation 1 is the evaluation of the random initial population (so a
    target of 0 halts immediately, in generation 1).  Each later
    generation keeps the ``keep_elitism`` fittest individuals unchanged,
    with their cached fitness, and refills the rest with offspring of the
    ``parents_mating``-strong parent pool.  Because elites are never
    re-evaluated, the best-so-far curve is non-decreasing whenever
    elitism is on, even under noisy fitness.

    Halting checks run in priority order target > saturation > cap;
    saturation fires when the best fitness improved by at most 1e-12 over
    the last ``saturation`` generations.
    """
    if action_set.n != spec.n:
        raise ValueError(f"action set is for n={action_set.n} but the chain has n={spec.n}")
    t0 = time.perf_counter()
    stream = as_stream(seed)
    gen = stream.generator()
    cache = build_cache(action_set, spec)
    length = spec.n_steps
    mutated_genes = config.mutated_genes if config.mutated_genes is not None else spec.n

    genes = init_population(config, action_set, length, gen).genes
    fit = _evaluate(genes, cache, noise, stream, generation=1)
    generation = 1
    best_hist = [float(fit.max())]
    mean_hist = [float(fit.mean())]

    n_offspring = config.population_size - config.keep_elitism
    while True:
        if best_hist[-1] >= config.target_probability:
            halt = HaltReason.TARGET_REACHED
            break
        if (
            generation > config.saturation
            and best_hist[-1] - best_hist[-1 - config.saturation] <= SATURATION_EPS
        ):
            halt = HaltReason.SATURATION
            break
        if generation >= config.max_generations:
            halt = HaltReason.MAX_GENERATIONS
            break

        population = Population(genes=genes, fitness=fit)
        order = np.argsort(-fit, kind="stable")
        parent_idx = order[: config.parents_mating]
        elite_idx = order[: config.keep_elitism]
        pool = genes[parent_idx]

        children = np.empty((n_offspring, length), dtype=np.int64)
        k = len(parent_idx)
        for c in range(n_offspring):
            i = int(gen.integers(0, k))
            j = int(gen.integers(0, k - 1))
            if j >= i:
                j += 1
            child = uniform_crossover(pool[i], pool[j], config.crossover_probability, gen)
            children[c] = swap_mutation(child, config.mutation_probability, mutated_genes, gen)

        generation += 1
        child_fit = _evaluate(children, cache, noise, stream, generation)
        genes = np.concatenate([genes[elite_idx], children], axis=0)
        fit = np.concatenate([fit[elite_idx], child_fit])
        best_hist.append(float(fit.max()))
        mean_hist.append(float(fit.mean()))

    final = Population(genes=genes, fitness=fit)
    return GaRunRecord(
        best_chromosome=final.best(),
        best_fitness_per_generation=np.array(best_hist),
        mean_fitness_per_generation=np.array(mean_hist),
        halt_reason=halt,
        generations_run=generation,
        wall_time=time.perf_counter() - t0,
        final_population=final,
    )
