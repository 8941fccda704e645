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

Each seed's generator is the contract for its offspring.  Child by child,
it draws, in this order: the parent pair (an index into the pool, then an
index into the pool without the first parent), the crossover coin, L mask
variates if the child crosses, the mutation coin, then 2*floor(m / 2) swap
indices if it mutates (L genes, m = ``mutated_genes``).  These are exactly
the calls of :func:`uniform_crossover` and :func:`swap_mutation`, so a
generation is bit for bit those operators applied child by child, however
it is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .actions import ActionSet, build_cache
from .bounds import COUNT, UNIT, Checked, Range, bounded
from .chain import ChainSpec, evolve_population
from .rng import RandomStream, as_stream

SATURATION_EPS = 1e-12


class HaltReason(str, Enum):
    TARGET_REACHED = "target_reached"
    SATURATION = "saturation"
    MAX_GENERATIONS = "max_generations"


@dataclass(frozen=True)
class GaConfig(Checked):
    """Hyperparameters of the genetic optimizer.

    ``mutated_genes`` controls how aggressive a mutation event is: a
    mutated offspring undergoes floor(mutated_genes / 2) position swaps.
    The default (None) resolves to the chain length at run time, which
    keeps the per-event disruption fixed as sequences get longer; setting
    it to the sequence length instead reshuffles mutants almost completely
    and stalls convergence on long chains.
    """

    population_size: int = bounded(4096, Range(2))
    max_generations: int = bounded(1000, COUNT)
    saturation: int = bounded(30, COUNT)
    parents_mating: int = bounded(409, Range(2))
    keep_elitism: int = bounded(409, Range(0))
    crossover_probability: float = bounded(0.8, UNIT)
    mutation_probability: float = bounded(0.99, UNIT)
    mutated_genes: int | None = bounded(None, Range(0))
    target_probability: float = bounded(0.99, UNIT)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.parents_mating > self.population_size:
            raise ValueError(f"parents_mating must lie in [2, population_size], got {self.parents_mating}")
        if self.keep_elitism > self.population_size:
            raise ValueError(f"keep_elitism must lie in [0, population_size], got {self.keep_elitism}")

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


def init_population(
    config: GaConfig,
    action_set: ActionSet,
    n_steps: int,
    gen: np.random.Generator,
) -> Population:
    """Uniform random population of action sequences."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be positive, got {n_steps}")
    genes = gen.integers(0, len(action_set), size=(config.population_size, n_steps), dtype=np.int64)
    return Population(genes=genes)


def select_parents_sss(fitness: np.ndarray, k: int) -> np.ndarray:
    """Steady-state selection: indices of the k fittest individuals.

    Ties resolve to the lower population index, so selection is fully
    deterministic given the fitness array.
    """
    if not 1 <= k <= len(fitness):
        raise ValueError(f"k must lie in [1, {len(fitness)}], got {k}")
    order = np.argsort(-fitness, kind="stable")
    return order[:k]


def uniform_crossover(parent_a, parent_b, probability: float, gen: np.random.Generator) -> np.ndarray:
    """Cross two sequences gene-by-gene, or pass the first parent through.

    One variate decides whether this offspring crosses at all (probability
    ``probability``); a crossing offspring then takes each gene from either
    parent with probability 1/2.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {probability}")
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
    # one call draws the (i, j) pairs in the order one call per index would
    draws = gen.integers(0, [length, length - 1] * n_swaps).tolist()
    for i, j in zip(draws[::2], draws[1::2]):
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
    final_population: Population = field(repr=False, default=None)


def _evaluate(batches, cache):
    """Fitness of each seed's batch, stepped as one stack."""
    sizes = [len(b) for b in batches]
    tags = None if len(batches) == 1 else np.repeat(np.arange(len(batches)), sizes)
    fit = evolve_population(np.concatenate(batches), cache, tags)
    return np.split(fit, np.cumsum(sizes)[:-1])


def _halt_reason(config: GaConfig, best_hist: list, generation: int) -> HaltReason | None:
    if best_hist[-1] >= config.target_probability:
        return HaltReason.TARGET_REACHED
    if generation > config.saturation and best_hist[-1] - best_hist[-1 - config.saturation] <= SATURATION_EPS:
        return HaltReason.SATURATION
    return HaltReason.MAX_GENERATIONS if generation >= config.max_generations else None


def _offspring(config: GaConfig, genes, fit, mutated_genes: int, gen):
    """Elite indices and the offspring of the parent pool, drawn from ``gen``.

    The children and the generator's final state are those of the per-child
    loop (:func:`_children_loop`).  Children are made in runs of at most
    ``_BLOCK_WORDS`` raw words' worth, each by :func:`_children_from_words`
    where it can and by the loop where it cannot; either leaves the
    generator where the loop would, so the runs join exactly.  The swaps of
    the runs read from words are applied once, for all of them, at the end:
    a swap pass costs n_swaps vectorised steps however few rows it has.
    """
    ranked = select_parents_sss(fit, max(config.parents_mating, config.keep_elitism))
    pool = genes[ranked[: config.parents_mating]]
    children = np.empty((config.population_size - config.keep_elitism, genes.shape[1]), dtype=np.int64)
    n_swaps = mutated_genes // 2
    per_run = max(1, _BLOCK_WORDS // (genes.shape[1] + 3 + n_swaps))
    swaps = []
    for start in range(0, len(children), per_run):
        out = children[start : start + per_run]
        drawn = _children_from_words(config, pool, out, n_swaps, gen)
        if drawn is None:
            _children_loop(config, pool, out, mutated_genes, gen)
        else:
            rows, a, b = drawn
            swaps.append((rows + start, a, b))
    if swaps:
        _swap(children, *(np.concatenate(parts) for parts in zip(*swaps)))
    return ranked[: config.keep_elitism], children


def _swap(children, rows, a, b) -> None:
    """Swap genes ``a[r, k]`` and ``b[r, k]`` of child ``rows[r]``, swap k of every row before swap k + 1 of any."""
    flat = children.reshape(-1)
    base = rows * children.shape[1]
    for k in range(a.shape[1]):
        ia, ib = base + a[:, k], base + b[:, k]
        flat[ia], flat[ib] = flat[ib], flat[ia]


def _children_loop(config: GaConfig, pool, out, mutated_genes: int, gen) -> None:
    """Fill ``out`` with offspring one child at a time, through the operators themselves."""
    for c in range(len(out)):
        i = int(gen.integers(0, len(pool)))
        j = int(gen.integers(0, len(pool) - 1))
        if j >= i:
            j += 1
        child = uniform_crossover(pool[i], pool[j], config.crossover_probability, gen)
        out[c] = swap_mutation(child, config.mutation_probability, mutated_genes, gen)


# Raw words per block (125 KiB), which bounds the offspring's working
# memory at any population size.  Drawn whole, a pop-512 generation at n=64
# takes a 1.3 MB block and as much again in temporaries: 0.9 MiB more peak
# RSS than the per-child loop, against 0.2 MiB at this size.
_BLOCK_WORDS = 16000
_LOW = np.uint64(0xFFFFFFFF)
_HALF_SET = 1 << 63  # a mask variate u < 1/2 is a raw word w < 2**63


def _bounded(words, k: int):
    """numpy's ``integers(0, k)`` on the 32-bit draws ``words``, or None if it would redraw any."""
    m = words * np.uint64(k)
    if ((m & _LOW) < (2**32 - k) % k).any():
        return None
    return (m >> np.uint64(32)).astype(np.int64)


def _coins(words, probability: float) -> np.ndarray:
    """``random() < probability`` for each raw word w, as an exact integer test."""
    return (words >> np.uint64(11)) < math.ceil(probability * 2**53)


def _walk(words, crossover: float, mutation: float, n_children: int, length: int, n_swaps: int):
    """Each child's first word in the block, and the number of words the children use.

    Word 0 of a child is its parent pair and word 1 its crossover coin.
    """
    crosses, mutates = _coins(words, crossover).tobytes(), _coins(words, mutation).tobytes()
    starts = []
    at = 0
    for _ in range(n_children):
        starts.append(at)
        at += 2 + crosses[at + 1] * length
        at += 1 + mutates[at] * n_swaps
    return np.array(starts), at


def _children_from_words(config: GaConfig, pool, out, n_swaps: int, gen):
    """The children of :func:`_children_loop`, read from one block of raw words.

    Fills ``out`` with the crossed children and returns the swaps still to
    apply, as the mutants' rows and their (M, n_swaps) gene pairs a and b.
    Returns None, with ``gen`` untouched, where the loop must run instead.
    The block holds the very words the loop's calls would consume, because
    numpy's ``Generator`` on a Philox bit generator works as follows:

    * ``random()`` is ``(next_uint64 >> 11) * 2**-53``, so a coin
      ``random() < p`` is the integer test ``(w >> 11) < ceil(p * 2**53)``
      and a mask variate below 1/2 is ``w < 2**63``;
    * ``integers(0, k)`` (int64, k - 1 < 2**32) is Lemire's multiply-shift
      on one ``next_uint32`` (Lemire, ACM TOMACS 29, 2019): ``(x * k) >>
      32``, redrawn while the low 32 bits of ``x * k`` are below
      ``(2**32 - k) % k``; it draws nothing when k == 1;
    * Philox's ``next_uint32`` returns the low half of a fresh 64-bit word
      and keeps the high half for the next call (``has_uint32`` and
      ``uinteger`` in its state); ``random()`` and ``random_raw`` leave that
      half alone.

    So, entering with no half-word pending, a child's parent pair is the
    two halves of its first word, and each swap (i, j) the two halves of
    one word.  The loop runs instead when a half-word is pending, when any
    bounded draw in the block would be rejected, when a bound of 1 could
    occur (a pool of 2 or L == 2; with L == 1 nothing ever swaps, so the
    loop takes that case too).
    """
    bit_gen = gen.bit_generator
    n_pool, length = pool.shape
    n_children = len(out)
    if n_pool == 2 or length < 3:
        return None
    state = bit_gen.state
    if state["has_uint32"]:
        return None
    crossover = config.crossover_probability
    mutation = config.mutation_probability if n_swaps else 0.0  # no swaps: the coin is drawn, never acted on
    words = bit_gen.random_raw(n_children * (length + 3 + n_swaps))
    starts, used = _walk(words, crossover, mutation, n_children, length, n_swaps)
    crossing = _coins(words[starts + 1], crossover)
    coins = starts + 2 + crossing * length
    mutants = np.flatnonzero(_coins(words[coins], mutation))
    parent_words = words[starts]
    swap_words = sliding_window_view(words, n_swaps)[coins[mutants] + 1]
    # a non-crossing child's window holds other words: its mask is cleared
    take_b = sliding_window_view(words < _HALF_SET, length)[starts + 2]
    take_b &= crossing[:, None]

    i = _bounded(parent_words & _LOW, n_pool)
    j = _bounded(parent_words >> np.uint64(32), n_pool - 1)
    a = _bounded(swap_words & _LOW, length)
    b = _bounded(swap_words >> np.uint64(32), length - 1)
    if i is None or j is None or a is None or b is None:
        bit_gen.state = state
        return None
    j += j >= i
    b += b >= a

    np.take(pool, i, axis=0, out=out)
    np.copyto(out, pool[j], where=take_b)
    last = swap_words[-1, -1] if len(mutants) and mutants[-1] == n_children - 1 else parent_words[-1]
    _resume(bit_gen, state, used, int(last >> np.uint64(32)))
    return mutants, a, b


def _resume(bit_gen: np.random.Philox, state: dict, count: int, spent_half: int) -> None:
    """Leave ``bit_gen`` at ``state`` advanced by ``count`` raw words, as the loop would.

    Philox makes its words four at a time, one set per counter value, and
    ``advance`` moves the counter by whole sets; the draws around it finish
    the buffered set and fill the last one.  ``advance`` clears
    the half-word fields, and the loop leaves its last spent high half in
    ``uinteger``, so that is set last.
    """
    bit_gen.state = state
    head = min(count, 4 - state["buffer_pos"])
    bit_gen.random_raw(head, output=False)
    rest = count - head
    if rest:
        sets = (rest - 1) // 4
        bit_gen.advance(sets)
        bit_gen.random_raw(rest - 4 * sets, output=False)
    state = bit_gen.state
    state["uinteger"] = spent_half
    bit_gen.state = state


def run_ga(
    config: GaConfig,
    action_set: ActionSet,
    spec: ChainSpec,
    seed: "int | RandomStream" = 0,
) -> GaRunRecord:
    """Run the genetic optimizer until target, saturation, or the cap: :func:`run_ga_lockstep` of one seed."""
    (record,) = run_ga_lockstep(config, action_set, spec, [seed])
    return record


def run_ga_lockstep(
    config: GaConfig,
    action_set: ActionSet,
    spec: ChainSpec,
    seeds=(0,),
) -> list[GaRunRecord]:
    """One optimizer run per seed, all seeds stepped a generation at a time.

    Generation 1 is the evaluation of the random initial population (so a
    target of 0 halts immediately, in generation 1).  Each later
    generation keeps the ``keep_elitism`` fittest individuals unchanged,
    with their cached fitness, and refills the rest with offspring of the
    ``parents_mating``-strong parent pool.  Because elites are never
    re-evaluated, the best-so-far curve is non-decreasing whenever
    elitism is on.

    Halting checks run in priority order target > saturation > cap;
    saturation fires when the best fitness improved by at most 1e-12 over
    the last ``saturation`` generations.

    Each seed (int or RandomStream) keeps its own generator, operators and
    halting; the offspring of the seeds still running are evaluated as one
    stack tagged by seed (:func:`evolve_population`), so every record is bit
    for bit the seed's run alone.
    """
    if action_set.n != spec.n:
        raise ValueError(f"action set is for n={action_set.n} but the chain has n={spec.n}")
    gens = [as_stream(seed).generator() for seed in seeds]
    if not gens:
        raise ValueError("seeds must name at least one seed, got none")
    cache = build_cache(action_set, spec)
    mutated_genes = config.mutated_genes if config.mutated_genes is not None else spec.n

    genes = [init_population(config, action_set, spec.n_steps, gen).genes for gen in gens]
    fit = _evaluate(genes, cache)
    best_hist = [[float(f.max())] for f in fit]
    mean_hist = [[float(f.mean())] for f in fit]
    records: list = [None] * len(gens)
    live = list(range(len(gens)))
    generation = 1
    while True:
        for s in live:
            halt = _halt_reason(config, best_hist[s], generation)
            if halt is not None:
                best = int(np.argmax(fit[s]))
                records[s] = GaRunRecord(
                    best_chromosome=Chromosome(genes=genes[s][best].copy(), fitness=float(fit[s][best])),
                    best_fitness_per_generation=np.array(best_hist[s]),
                    mean_fitness_per_generation=np.array(mean_hist[s]),
                    halt_reason=halt,
                    generations_run=generation,
                    final_population=Population(genes=genes[s], fitness=fit[s]),
                )
        live = [s for s in live if records[s] is None]
        if not live:
            return records
        elites, children = zip(*(_offspring(config, genes[s], fit[s], mutated_genes, gens[s]) for s in live))
        generation += 1
        child_fit = _evaluate(children, cache)
        for s, elite, kids, kid_fit in zip(live, elites, children, child_fit):
            genes[s] = np.concatenate([genes[s][elite], kids], axis=0)
            fit[s] = np.concatenate([fit[s][elite], kid_fit])
            best_hist[s].append(float(fit[s].max()))
            mean_hist[s].append(float(fit[s].mean()))
