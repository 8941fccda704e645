import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerate_best
from qst_control import ChainSpec, NoiseModel, RandomStream, build_cache, site_by_site_set
from qst_control.ga import (
    GaConfig,
    HaltReason,
    _evaluate,
    init_population,
    run_ga,
    run_ga_lockstep,
    select_parents_sss,
    swap_mutation,
    uniform_crossover,
)

TINY = GaConfig(
    population_size=32,
    max_generations=20,
    saturation=10,
    parents_mating=8,
    keep_elitism=4,
    target_probability=1.0,
)


def test_config_defaults_match_reference_table():
    c = GaConfig()
    assert (c.population_size, c.max_generations, c.saturation) == (4096, 1000, 30)
    assert (c.parents_mating, c.keep_elitism) == (409, 409)
    assert (c.crossover_probability, c.mutation_probability) == (0.8, 0.99)
    assert c.mutated_genes is None
    assert c.target_probability == 0.99
    assert c.n_seeds == 30


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population_size=1)
    with pytest.raises(ValueError):
        GaConfig(population_size=8, parents_mating=9)
    with pytest.raises(ValueError):
        GaConfig(population_size=8, parents_mating=1)
    with pytest.raises(ValueError):
        GaConfig(population_size=8, parents_mating=4, keep_elitism=9)
    with pytest.raises(ValueError):
        GaConfig(crossover_probability=1.2)
    with pytest.raises(ValueError):
        GaConfig(mutation_probability=-0.1)
    with pytest.raises(ValueError):
        GaConfig(mutated_genes=-1)
    with pytest.raises(ValueError):
        GaConfig(saturation=0)
    with pytest.raises(ValueError):
        GaConfig(target_probability=1.5)


def test_with_population_rescales_pools():
    c = GaConfig().with_population(512)
    assert c.population_size == 512
    assert c.parents_mating == 51
    assert c.keep_elitism == 51
    tiny = GaConfig().with_population(16)
    assert tiny.parents_mating >= 2


def test_init_population_shape_and_range():
    action_set = site_by_site_set(4)
    pop = init_population(TINY, action_set, n_steps=20, rng=RandomStream(1))
    assert pop.genes.shape == (32, 20)
    assert pop.genes.dtype == np.int64
    assert pop.genes.min() >= 0
    assert pop.genes.max() < len(action_set)
    assert pop.fitness is None
    again = init_population(TINY, action_set, n_steps=20, rng=RandomStream(1))
    np.testing.assert_array_equal(pop.genes, again.genes)


def test_fitness_is_trajectory_max(cache4):
    genes = np.array([[1, 0, 0, 2, 0, 3, 0, 0, 4, 0]])
    from qst_control import evolve_sequence

    (fit,) = _evaluate([genes], cache4, None, [RandomStream(0)], generation=1)
    np.testing.assert_allclose(fit, [evolve_sequence(genes[0], cache4).max_probability], atol=1e-15)


def test_select_parents_sss_reference_example():
    fit = np.array([0.1, 0.9, 0.5, 0.9])
    np.testing.assert_array_equal(select_parents_sss(fit, 2), [1, 3])
    np.testing.assert_array_equal(select_parents_sss(fit, 3), [1, 3, 2])


def test_select_parents_sss_errors():
    fit = np.array([0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        select_parents_sss(fit, 0)
    with pytest.raises(ValueError):
        select_parents_sss(fit, 4)


def test_uniform_crossover_pass_through(gen):
    a = np.arange(10)
    b = np.arange(10) + 100
    child = uniform_crossover(a, b, probability=0.0, gen=gen)
    np.testing.assert_array_equal(child, a)
    assert child is not a  # always a fresh array
    child[0] = -1
    assert a[0] == 0


def test_uniform_crossover_mixes_both_parents(gen):
    a = np.zeros(200, dtype=np.int64)
    b = np.ones(200, dtype=np.int64)
    child = uniform_crossover(a, b, probability=1.0, gen=gen)
    assert set(np.unique(child)) == {0, 1}


def test_uniform_crossover_gene_mixing_rate():
    gen = RandomStream(42).generator()
    a = np.zeros(10000, dtype=np.int64)
    b = np.ones(10000, dtype=np.int64)
    child = uniform_crossover(a, b, probability=1.0, gen=gen)
    assert abs(child.mean() - 0.5) < 0.015


def test_uniform_crossover_length_mismatch(gen):
    with pytest.raises(ValueError):
        uniform_crossover(np.zeros(3), np.zeros(4), 0.5, gen)


@settings(max_examples=50, deadline=None)
@given(genes=st.lists(st.integers(0, 8), min_size=2, max_size=60), seed=st.integers(0, 2**32 - 1))
def test_swap_mutation_preserves_multiset(genes, seed):
    gen = RandomStream(seed).generator()
    genes = np.array(genes, dtype=np.int64)
    out = swap_mutation(genes, probability=1.0, mutated_genes=len(genes), gen=gen)
    np.testing.assert_array_equal(np.sort(out), np.sort(genes))


def test_swap_mutation_swap_count_semantics(gen):
    genes = np.arange(50)
    # fewer than two mutated genes means zero swaps
    np.testing.assert_array_equal(swap_mutation(genes, 1.0, 0, gen), genes)
    np.testing.assert_array_equal(swap_mutation(genes, 1.0, 1, gen), genes)
    # one swap moves exactly two positions of a distinct-valued sequence
    moved = swap_mutation(genes, 1.0, 2, gen)
    assert np.count_nonzero(moved != genes) == 2


def test_swap_mutation_skips_at_zero_probability(gen):
    genes = np.arange(10)
    out = swap_mutation(genes, probability=0.0, mutated_genes=10, gen=gen)
    np.testing.assert_array_equal(out, genes)
    assert out is not genes


def test_swap_mutation_does_not_modify_input(gen):
    genes = np.arange(10)
    swap_mutation(genes, probability=1.0, mutated_genes=10, gen=gen)
    np.testing.assert_array_equal(genes, np.arange(10))


def test_run_ga_finds_enumerated_optimum_on_tiny_instance():
    # 3-site chain, 3 steps, 4 actions: 64 possible sequences, so the
    # optimizer's answer can be checked against exhaustive enumeration
    spec = ChainSpec(n=3, dt=0.75)
    assert spec.n_steps == 3
    action_set = site_by_site_set(spec.n, spec.field_strength)
    cache = build_cache(action_set, spec)
    best_p, best_seq = enumerate_best(cache, 3)
    config = GaConfig(
        population_size=256,
        max_generations=60,
        saturation=60,
        parents_mating=32,
        keep_elitism=16,
        target_probability=1.0,
    )
    record = run_ga(config, action_set, spec, seed=0)
    assert record.best_chromosome.fitness == pytest.approx(best_p, abs=1e-12)


def test_run_ga_deterministic_per_seed(spec4):
    action_set = site_by_site_set(spec4.n, spec4.field_strength)
    r1 = run_ga(TINY, action_set, spec4, seed=123)
    r2 = run_ga(TINY, action_set, spec4, seed=123)
    np.testing.assert_array_equal(r1.best_chromosome.genes, r2.best_chromosome.genes)
    np.testing.assert_array_equal(r1.best_fitness_per_generation, r2.best_fitness_per_generation)
    np.testing.assert_array_equal(r1.mean_fitness_per_generation, r2.mean_fitness_per_generation)
    r3 = run_ga(TINY, action_set, spec4, seed=124)
    assert not np.array_equal(r1.best_fitness_per_generation, r3.best_fitness_per_generation)


def test_run_ga_best_curve_monotone_with_elitism(spec4):
    action_set = site_by_site_set(spec4.n, spec4.field_strength)
    record = run_ga(TINY, action_set, spec4, seed=7)
    diffs = np.diff(record.best_fitness_per_generation)
    assert np.all(diffs >= 0)


def test_run_ga_monotone_even_with_noisy_fitness(spec4):
    # elites keep their realized fitness rather than being redrawn, which
    # is what protects monotonicity under noise
    action_set = site_by_site_set(spec4.n, spec4.field_strength)
    noise = NoiseModel(p=0.5, delta=0.3)
    record = run_ga(TINY, action_set, spec4, noise=noise, seed=7)
    assert np.all(np.diff(record.best_fitness_per_generation) >= 0)
    again = run_ga(TINY, action_set, spec4, noise=noise, seed=7)
    np.testing.assert_array_equal(
        record.best_fitness_per_generation, again.best_fitness_per_generation
    )


def test_run_ga_zero_target_halts_in_first_generation(spec4):
    action_set = site_by_site_set(spec4.n, spec4.field_strength)
    import dataclasses

    config = dataclasses.replace(TINY, target_probability=0.0)
    record = run_ga(config, action_set, spec4, seed=1)
    assert record.halt_reason == HaltReason.TARGET_REACHED
    assert record.generations_run == 1
    assert len(record.best_fitness_per_generation) == 1


def test_run_ga_generation_cap(spec4):
    import dataclasses

    action_set = site_by_site_set(spec4.n, spec4.field_strength)
    config = dataclasses.replace(TINY, max_generations=3, saturation=10)
    record = run_ga(config, action_set, spec4, seed=1)
    assert record.halt_reason == HaltReason.MAX_GENERATIONS
    assert record.generations_run == 3


def test_run_ga_saturation_halt(spec4):
    # all-elite population can never improve, so saturation fires as soon
    # as the window is full
    action_set = site_by_site_set(spec4.n, spec4.field_strength)
    config = GaConfig(
        population_size=8,
        parents_mating=4,
        keep_elitism=8,
        saturation=2,
        max_generations=50,
        target_probability=1.0,
    )
    record = run_ga(config, action_set, spec4, seed=1)
    assert record.halt_reason == HaltReason.SATURATION
    assert record.generations_run == 3


def test_run_ga_rejects_mismatched_action_set(spec4):
    with pytest.raises(ValueError):
        run_ga(TINY, site_by_site_set(5), spec4, seed=0)


def test_run_ga_lockstep_rejects_an_empty_seed_list_before_any_work(spec4, monkeypatch):
    import qst_control.ga as ga

    def no_work(*args, **kwargs):
        raise AssertionError("the propagators were built before the seeds were checked")

    monkeypatch.setattr(ga, "build_cache", no_work)
    with pytest.raises(ValueError, match="seeds"):
        run_ga_lockstep(TINY, site_by_site_set(spec4.n, spec4.field_strength), spec4, seeds=[])


def test_run_ga_record_contents(spec4):
    action_set = site_by_site_set(spec4.n, spec4.field_strength)
    record = run_ga(TINY, action_set, spec4, seed=3)
    assert record.generations_run == len(record.best_fitness_per_generation)
    assert record.best_chromosome.genes.shape == (spec4.n_steps,)
    assert record.best_chromosome.fitness == record.best_fitness_per_generation[-1]
    assert record.wall_time > 0
    assert record.final_population.genes.shape == (TINY.population_size, spec4.n_steps)
    np.testing.assert_allclose(
        record.final_population.fitness.max(), record.best_chromosome.fitness, atol=1e-15
    )


def _fields(record):
    """Every field of a run record but its wall time, bytes for arrays."""
    pop = record.final_population
    return (
        record.best_chromosome.genes.tobytes(),
        record.best_chromosome.fitness,
        record.best_fitness_per_generation.tobytes(),
        record.mean_fitness_per_generation.tobytes(),
        record.halt_reason,
        record.generations_run,
        pop.genes.tobytes(),
        pop.fitness.tobytes(),
    )


SMALL = GaConfig(population_size=8, parents_mating=4, keep_elitism=7, saturation=6, max_generations=15)


@pytest.mark.parametrize(
    "config, noise, halts",
    [
        # seeds leave the stack one by one: five reach the target, one the cap
        (
            dataclasses.replace(TINY, target_probability=0.98, max_generations=40, saturation=40),
            None,
            [19, 18, 12, 5, 11, 40],
        ),
        (SMALL, None, None),  # one child per generation
        (dataclasses.replace(SMALL, keep_elitism=8), None, None),  # no children: saturation halts
        (TINY, NoiseModel(p=0.5, delta=0.3), None),
    ],
    ids=["staggered-halts", "one-child", "no-children", "noisy"],
)
def test_lockstep_seeds_match_their_runs_alone(spec4, config, noise, halts):
    action_set = site_by_site_set(spec4.n, spec4.field_strength)
    seeds = list(range(6))
    together = run_ga_lockstep(config, action_set, spec4, noise, seeds)
    assert [_fields(r) for r in together] == [
        _fields(run_ga(config, action_set, spec4, noise, seed)) for seed in seeds
    ]
    if halts is not None:
        assert [r.generations_run for r in together] == halts
