import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerate_best, offspring_oracle
from qst_control import ChainSpec, RandomStream, build_cache, ga, site_by_site_set
from qst_control.ga import (
    GaConfig,
    HaltReason,
    _evaluate,
    _offspring,
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
    pop = init_population(TINY, action_set, n_steps=20, gen=RandomStream(1).generator())
    assert pop.genes.shape == (32, 20)
    assert pop.genes.dtype == np.int64
    assert pop.genes.min() >= 0
    assert pop.genes.max() < len(action_set)
    assert pop.fitness is None
    again = init_population(TINY, action_set, n_steps=20, gen=RandomStream(1).generator())
    np.testing.assert_array_equal(pop.genes, again.genes)


def test_fitness_is_trajectory_max(cache4):
    genes = np.array([[1, 0, 0, 2, 0, 3, 0, 0, 4, 0]])
    from qst_control import evolve_sequence

    (fit,) = _evaluate([genes], cache4)
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


@pytest.mark.parametrize("probability", [float("nan"), 1.5, -0.1])
def test_uniform_crossover_rejects_a_probability_outside_the_unit_interval(gen, probability):
    with pytest.raises(ValueError, match="probability"):
        uniform_crossover(np.zeros(3), np.ones(3), probability, gen)


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
    "config, halts",
    [
        # seeds leave the stack one by one: five reach the target, one the cap
        (
            dataclasses.replace(TINY, target_probability=0.98, max_generations=40, saturation=40),
            [19, 18, 12, 5, 11, 40],
        ),
        (SMALL, None),  # one child per generation
        (dataclasses.replace(SMALL, keep_elitism=8), None),  # no children: saturation halts
    ],
    ids=["staggered-halts", "one-child", "no-children"],
)
def test_lockstep_seeds_match_their_runs_alone(spec4, config, halts):
    action_set = site_by_site_set(spec4.n, spec4.field_strength)
    seeds = list(range(6))
    together = run_ga_lockstep(config, action_set, spec4, seeds)
    assert [_fields(r) for r in together] == [_fields(run_ga(config, action_set, spec4, seed)) for seed in seeds]
    if halts is not None:
        assert [r.generations_run for r in together] == halts


def _state(gen):
    """A bit generator's full state, arrays as lists, comparable with ==."""
    return json.loads(json.dumps(gen.bit_generator.state, default=lambda a: a.tolist()))


def _with_buffer(gen, words, used):
    """Make ``words`` the next raw words of a Philox ``gen``, from slot ``used`` on."""
    state = gen.bit_generator.state
    state["buffer"] = np.array(words, dtype=np.uint64)
    state["buffer_pos"] = used
    gen.bit_generator.state = state


def _coin_edges(probability):
    """Raw words just below and at the edge of ``random() < probability``."""
    edge = math.ceil(probability * 2**53)
    return [max(edge - 1, 0) << 11, min(edge << 11, 2**64 - 1)]


PROBABILITIES = [0.0, 0.3, 0.8, 1.0]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_offspring_is_bitwise_the_per_child_loop(data):
    population = data.draw(st.integers(2, 64), label="population")
    config = GaConfig(
        population_size=population,
        parents_mating=data.draw(st.integers(2, population), label="parents"),
        keep_elitism=data.draw(st.integers(0, population), label="elites"),
        crossover_probability=data.draw(st.sampled_from(PROBABILITIES), label="crossover"),
        mutation_probability=data.draw(st.sampled_from(PROBABILITIES), label="mutation"),
    )
    length = data.draw(st.sampled_from([1, 2, 3, 5, 80]), label="L")
    mutated_genes = data.draw(st.sampled_from([0, 1, 2, 3, length]), label="mutated_genes")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    # the first raw words may sit on a coin's or the mask's edge, or be 0 (a redrawn bounded draw)
    edges = _coin_edges(config.crossover_probability) + _coin_edges(config.mutation_probability) + [0, 2**63]
    word = st.sampled_from(edges) | st.integers(0, 2**64 - 1)
    words = data.draw(st.lists(word, min_size=4, max_size=4), label="buffer")
    used = data.draw(st.integers(0, 4), label="buffer_pos")
    odd_half = data.draw(st.booleans(), label="odd_half")
    # small blocks split the children into runs, some of them by the loop
    block_words = data.draw(st.sampled_from([1, 40, 300, ga._BLOCK_WORDS]), label="block_words")

    rows = np.random.default_rng(seed)
    genes = rows.integers(0, 6, size=(population, length))
    fit = rows.integers(0, 4, size=population) / 4  # ties included
    gens = []
    for _ in range(2):
        g = RandomStream(seed).generator()
        _with_buffer(g, words, used)
        if odd_half:
            g.integers(0, 3)
        gens.append(g)
    with mock.patch.object(ga, "_BLOCK_WORDS", block_words):
        elites, children = _offspring(config, genes, fit, mutated_genes, gens[0])
    want_elites, want_children = offspring_oracle(config, genes, fit, mutated_genes, gens[1])
    np.testing.assert_array_equal(elites, want_elites)
    assert children.dtype == want_children.dtype and children.shape == want_children.shape
    np.testing.assert_array_equal(children, want_children)
    assert _state(gens[0]) == _state(gens[1])


@pytest.mark.parametrize("side", [0, 1], ids=["below", "at"])
@pytest.mark.parametrize("coin", ["crossover", "mutation"])
@pytest.mark.parametrize("probability", PROBABILITIES)
def test_offspring_reads_a_coin_on_its_edge_as_the_loop_does(probability, coin, side):
    # one child of a pool of 3 with 5 genes and one swap: its second raw word
    # is the crossover coin, the next two its first mask variates (on either
    # side of 1/2); with crossover off, the third word is the mutation coin
    edge = _coin_edges(probability)[side]
    parents, swap = 0xDEADBEEF12345678, 0x0000000300000001
    one_child = GaConfig(population_size=4, parents_mating=3, keep_elitism=3)
    if coin == "crossover":
        config = dataclasses.replace(one_child, crossover_probability=probability, mutation_probability=0.0)
        words = [parents, edge, 2**63 - 1, 2**63]
    else:
        config = dataclasses.replace(one_child, crossover_probability=0.0, mutation_probability=probability)
        words = [parents, 2**64 - 1, edge, swap]
    genes, fit = np.arange(20).reshape(4, 5), np.arange(4.0)
    gens = []
    for _ in range(2):
        g = RandomStream(9).generator()
        _with_buffer(g, words, 0)
        gens.append(g)
    _, children = _offspring(config, genes, fit, 2, gens[0])
    _, want = offspring_oracle(config, genes, fit, 2, gens[1])
    np.testing.assert_array_equal(children, want)
    assert _state(gens[0]) == _state(gens[1])


@pytest.mark.parametrize(
    "first_words, loop_calls",
    [
        ([0, 2**64 - 1, 0, 0], 1),  # low half 0: the first parent index is redrawn
        ([0xDEADBEEF12345678, 2**64 - 1, 0, 0xFFFF00000000], 1),  # low half 0: a swap index is redrawn
        ([0xDEADBEEF12345678, 2**64 - 1, 0, 0xFFFF00000001], 0),  # nothing redrawn
    ],
    ids=["parent", "swap", "none"],
)
def test_offspring_takes_the_loop_exactly_where_a_draw_is_rejected(monkeypatch, first_words, loop_calls):
    # a pool of 3 and 5 genes: numpy redraws a 32-bit draw of 0 for bounds 3 and 5
    config = GaConfig(
        population_size=8, parents_mating=3, keep_elitism=5, crossover_probability=0.0, mutation_probability=1.0
    )
    rows = np.random.default_rng(1)
    genes, fit = rows.integers(0, 6, size=(8, 5)), rows.random(8)
    calls = []
    children_loop = ga._children_loop

    def loop(*args):
        calls.append(args)
        return children_loop(*args)

    monkeypatch.setattr(ga, "_children_loop", loop)
    gens = []
    for _ in range(2):
        g = RandomStream(5).generator()
        _with_buffer(g, first_words, 0)
        gens.append(g)
    elites, children = _offspring(config, genes, fit, 2, gens[0])
    want_elites, want_children = offspring_oracle(config, genes, fit, 2, gens[1])
    assert len(calls) == loop_calls
    np.testing.assert_array_equal(elites, want_elites)
    np.testing.assert_array_equal(children, want_children)
    assert _state(gens[0]) == _state(gens[1])


NUMPY_CHANGED = (
    "numpy's Generator no longer draws as ga._children_from_words assumes, "
    "so the bulk offspring would no longer be the per-child loop's"
)


def test_numpy_draws_as_the_bulk_offspring_assumes():
    key = np.array([2024, 7], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    raw = np.random.Philox(key=key)  # the same words, read one at a time

    # random() is the top 53 bits of one raw word
    for _ in range(100):
        assert gen.random() == (int(raw.random_raw()) >> 11) * 2**-53, NUMPY_CHANGED

    # integers(0, k) is Lemire's multiply-shift on next_uint32, which hands
    # out the low, then the high half of a fresh word; at k = 2**31 + 1 about
    # half of the draws are redrawn
    k = 2**31 + 1
    halves = []
    redrawn = 0
    for _ in range(200):
        while True:
            if not halves:
                word = int(raw.random_raw())
                halves = [word & 0xFFFFFFFF, word >> 32]
            m = halves.pop(0) * k
            if m & 0xFFFFFFFF >= (2**32 - k) % k:
                break
            redrawn += 1
        assert gen.integers(0, k) == m >> 32, NUMPY_CHANGED
    assert 50 < redrawn < 350

    # the high half of the first word stays pending through random(),
    # random_raw and a bound of 1, until the next 32-bit draw spends it
    gen = np.random.Generator(np.random.Philox(key=key))
    gen.integers(0, 3)
    high = int(np.random.Philox(key=key).random_raw()) >> 32
    gen.random()
    gen.bit_generator.random_raw()
    gen.integers(0, 1)
    state = gen.bit_generator.state
    assert (state["has_uint32"], state["uinteger"]) == (1, high), NUMPY_CHANGED
    gen.integers(0, 3)
    assert gen.bit_generator.state["has_uint32"] == 0, NUMPY_CHANGED
