import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qst_control
from oracles import pauli_block_hamiltonian, propagator_oracle
from qst_control import (
    ChainSpec,
    NoiseModel,
    RandomStream,
    Trajectory,
    averaged_fidelity,
    build_cache,
    build_step_hamiltonian,
    evolve_population,
    evolve_sequence,
    free_evolution_baseline,
    free_peak,
    free_transfer_probability,
    site_by_site_set,
    step_propagator,
)
from qst_control.chain import evolve_lockstep


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks `from qst_control import *`
    missing = [name for name in qst_control.__all__ if not hasattr(qst_control, name)]
    assert missing == []


def incoming_states(cache, sequence, noise=None, rng=None):
    """The state entering each step of one run, read by a policy, and the run's probabilities."""
    seen = []

    def policy(states):
        seen.append(states[0].copy())  # a later step may overwrite the array
        return sequence[len(seen) - 1 : len(seen)]

    rngs = None if rng is None else [rng]
    run = evolve_lockstep(cache.unitaries, policy, len(sequence), noise, rngs)
    return np.array(seen), run.probabilities[0]


# ---------------------------------------------------------------- ChainSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(n=1)
    with pytest.raises(TypeError):
        ChainSpec(n=4.0)
    with pytest.raises(ValueError):
        ChainSpec(n=4, coupling=0.0)
    with pytest.raises(ValueError):
        ChainSpec(n=4, dt=-0.1)
    with pytest.raises(ValueError):
        ChainSpec(n=4, field_strength=-1.0)
    for field in ("coupling", "dt", "field_strength"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                ChainSpec(n=4, **{field: value})


def test_n_steps_reference_values():
    assert ChainSpec(n=8).n_steps == 40
    assert ChainSpec(n=32).n_steps == 160
    # 0.75 * 2 / 0.15 = 10.000000000000002 in floating point; the guard
    # keeps the exact-integer case from rounding up
    assert ChainSpec(n=2).n_steps == 10
    assert ChainSpec(n=64).n_steps == 320


@given(n=st.integers(2, 256))
def test_n_steps_is_five_n_at_default_dt(n):
    assert ChainSpec(n=n).n_steps == 5 * n


def test_n_steps_non_integer_ratio_rounds_up():
    assert ChainSpec(n=2, dt=0.4).n_steps == 4  # 1.5 / 0.4 = 3.75


# ------------------------------------------------------------- Hamiltonian


def test_hamiltonian_structure():
    spec = ChainSpec(n=5, coupling=1.3)
    fields = np.array([0.0, 7.0, 0.0, 2.0, 0.0])
    h = build_step_hamiltonian(spec, fields)
    assert h.dtype == np.float64
    np.testing.assert_array_equal(np.diag(h), 2.0 * fields)
    np.testing.assert_allclose(np.diag(h, 1), -2.6)
    np.testing.assert_array_equal(h, h.T)
    assert np.count_nonzero(h - np.diag(np.diag(h)) - np.diag(np.diag(h, 1), 1) - np.diag(np.diag(h, -1), -1)) == 0


def test_hamiltonian_matches_pauli_projection():
    # the full-space construction, projected onto the one-excitation
    # sector, must agree up to the dropped uniform shift sum(h) * I
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        fields = rng.choice([0.0, 100.0], size=n)
        block = pauli_block_hamiltonian(n, 1.0, fields)
        mine = build_step_hamiltonian(ChainSpec(n=n), fields)
        np.testing.assert_allclose(block + fields.sum() * np.eye(n), mine, atol=1e-12)


def test_hamiltonian_matches_pauli_projection_free_case_exactly():
    for n in (2, 3, 4):
        block = pauli_block_hamiltonian(n, 1.0, np.zeros(n))
        mine = build_step_hamiltonian(ChainSpec(n=n), np.zeros(n))
        np.testing.assert_array_equal(block, mine)


def test_hamiltonian_rejects_wrong_length():
    with pytest.raises(ValueError):
        build_step_hamiltonian(ChainSpec(n=4), np.zeros(5))


# -------------------------------------------------------------- propagator


def test_propagator_matches_taylor_oracle():
    rng = np.random.default_rng(11)
    spec_dt = 0.15
    for n in range(2, 9):
        for _ in range(20):
            fields = rng.choice([0.0, 100.0], size=n)
            h = build_step_hamiltonian(ChainSpec(n=n), fields)
            u = step_propagator(h, spec_dt)
            ref = propagator_oracle(h, spec_dt)
            assert np.max(np.abs(u - ref)) < 1e-10


def test_propagator_unitary():
    rng = np.random.default_rng(12)
    for n in (2, 5, 16):
        fields = rng.uniform(0.0, 100.0, size=n)
        u = step_propagator(build_step_hamiltonian(ChainSpec(n=n), fields), 0.15)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-10)


def test_propagator_rejects_non_hermitian():
    h = build_step_hamiltonian(ChainSpec(n=3), np.zeros(3))
    h[0, 1] += 1e-9
    with pytest.raises(ValueError, match="Hermitian"):
        step_propagator(h, 0.15)
    with pytest.raises(ValueError):
        step_propagator(np.zeros((2, 3)), 0.15)


def test_propagator_accepts_complex_hermitian():
    h = np.array([[1.0, 1j], [-1j, 0.5]])
    u = step_propagator(h, 0.3)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


# ------------------------------------------------------- scalar observables


def test_averaged_fidelity_reference_points():
    assert averaged_fidelity(1.0) == 1.0
    assert averaged_fidelity(0.0) == 0.5
    assert averaged_fidelity(0.99) == pytest.approx(0.996662479035540, abs=1e-12)


def test_averaged_fidelity_domain():
    with pytest.raises(ValueError):
        averaged_fidelity(-0.1)
    with pytest.raises(ValueError):
        averaged_fidelity(1.1)
    # a few ulp of roundoff must not blow up downstream reporting
    assert averaged_fidelity(1.0 + 1e-13) == 1.0
    assert averaged_fidelity(-1e-13) == 0.5


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_averaged_fidelity_rejects_non_finite(p):
    with pytest.raises(ValueError, match="must lie in"):
        averaged_fidelity(p)
    with pytest.raises(ValueError, match="must lie in"):
        averaged_fidelity(np.array([0.5, p]))


def test_averaged_fidelity_of_an_array_is_the_scalar_formula_bitwise():
    # roundoff just outside [0, 1], both ends, and values in between
    p = np.concatenate([[-1e-13, 0.0, 1.0, 1.0 + 1e-13], np.random.default_rng(3).random(997)])
    scalar = np.array([averaged_fidelity(v) for v in p])
    assert averaged_fidelity(p).tobytes() == scalar.tobytes()
    assert type(averaged_fidelity(np.float64(0.25))) is float


@given(p=st.floats(0.0, 1.0))
def test_averaged_fidelity_monotone_and_bounded(p):
    f = averaged_fidelity(p)
    assert 0.5 <= f <= 1.0
    assert averaged_fidelity(min(1.0, p + 0.01)) >= f


# -------------------------------------------------------------- Trajectory


def test_trajectory_max_and_argmax():
    t = Trajectory(probabilities=np.array([0.1, 0.7, 0.7, 0.2]), dt=0.15)
    assert t.max_probability == 0.7
    assert t.argmax_step == 1  # ties resolve to the earliest step
    assert t.argmax_time == pytest.approx(0.3)
    assert t.n_steps == 4


def test_trajectory_empty():
    t = Trajectory(probabilities=np.array([]), dt=0.15)
    assert t.max_probability == 0.0
    assert t.argmax_step == -1
    assert t.argmax_time == 0.0


# ---------------------------------------------------------------- evolution


def test_two_site_free_transfer_is_perfect():
    # the two-site chain Rabi-flops; |<2|psi(t)|1>| = |sin 2Jt| peaks at t = pi/4
    spec = ChainSpec(n=2, dt=math.pi / 4)
    traj = free_evolution_baseline(spec, n_steps=1)
    assert traj.max_probability == pytest.approx(1.0, abs=1e-9)
    assert free_transfer_probability(spec, math.pi / 4) == pytest.approx(1.0, abs=1e-12)


def test_three_site_free_transfer_is_perfect():
    # first arrival at t = pi / (2 sqrt(2) J)
    t_star = math.pi / (2 * math.sqrt(2))
    spec = ChainSpec(n=3, dt=t_star)
    traj = free_evolution_baseline(spec, n_steps=1)
    assert traj.max_probability == pytest.approx(1.0, abs=1e-9)
    assert free_transfer_probability(spec, t_star) == pytest.approx(1.0, abs=1e-12)


def test_free_peak_reference_values():
    t2, p2 = free_peak(ChainSpec(n=2))
    assert t2 == pytest.approx(math.pi / 4, abs=1e-8)
    assert p2 == pytest.approx(1.0, abs=1e-12)
    t3, p3 = free_peak(ChainSpec(n=3))
    assert t3 == pytest.approx(math.pi / (2 * math.sqrt(2)), abs=1e-8)
    assert p3 == pytest.approx(1.0, abs=1e-12)


def test_free_baseline_equals_zero_sequence(cache4, spec4):
    traj_a = free_evolution_baseline(spec4)
    traj_b = evolve_sequence(np.zeros(spec4.n_steps, dtype=int), cache4)
    np.testing.assert_allclose(traj_a.probabilities, traj_b.probabilities, atol=1e-12)


def test_evolve_sequence_norm_preserved(cache4):
    rng = np.random.default_rng(3)
    seq = rng.integers(0, len(cache4), size=30)
    # one step more than the sequence, so the last state entering a step is its final state
    states, probs = incoming_states(cache4, np.append(seq, 0))
    np.testing.assert_array_equal(probs[:-1], evolve_sequence(seq, cache4).probabilities)
    np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(states[1:, -1]) ** 2, probs[:-1], atol=1e-15)


def test_evolve_sequence_matches_on_the_fly_exponentials(cache4, spec4):
    # the cache path must agree with rebuilding each step's propagator
    # from scratch through the independent Taylor oracle
    rng = np.random.default_rng(4)
    seq = rng.integers(0, len(cache4), size=12)
    traj = evolve_sequence(seq, cache4)
    psi = np.zeros(spec4.n, dtype=complex)
    psi[0] = 1.0
    probs = []
    for a in seq:
        h = build_step_hamiltonian(spec4, cache4.action_set.masks[a])
        psi = propagator_oracle(h, spec4.dt) @ psi
        probs.append(abs(psi[-1]) ** 2)
    np.testing.assert_allclose(traj.probabilities, probs, atol=1e-10)


def test_evolve_sequence_rejects_unknown_action(cache4):
    with pytest.raises(ValueError, match="unknown action"):
        evolve_sequence([0, 99], cache4)
    with pytest.raises(ValueError):
        evolve_sequence([[0, 1]], cache4)


def test_evolve_sequence_noise_requires_rng(cache4):
    with pytest.raises(ValueError, match="rng"):
        evolve_sequence([0, 1], cache4, noise=NoiseModel(0.5, 0.25))


def test_evolve_sequence_rejects_a_generator_as_rng(cache4):
    # noise realizations are read from RandomStreams only; say so by type
    with pytest.raises(TypeError, match="Generator"):
        evolve_sequence([0, 1], cache4, noise=NoiseModel(0.5, 0.25), rng=np.random.default_rng(0))


def test_noisy_trajectory_deterministic_per_stream(cache4):
    seq = np.array([1, 0, 2, 0, 3, 0, 4, 0])
    noise = NoiseModel(p=0.5, delta=0.3)
    stream = RandomStream(77, 5)
    t1 = evolve_sequence(seq, cache4, noise=noise, rng=stream)
    t2 = evolve_sequence(seq, cache4, noise=noise, rng=stream)
    np.testing.assert_array_equal(t1.probabilities, t2.probabilities)
    t3 = evolve_sequence(seq, cache4, noise=noise, rng=RandomStream(77, 6))
    assert not np.array_equal(t1.probabilities, t3.probabilities)


def test_zero_probability_noise_matches_noiseless_exactly(cache4):
    seq = np.arange(8) % len(cache4)
    clean = evolve_sequence(seq, cache4)
    gated = evolve_sequence(seq, cache4, noise=NoiseModel(p=0.0, delta=0.9), rng=RandomStream(3))
    np.testing.assert_array_equal(clean.probabilities, gated.probabilities)


def test_zero_delta_noise_matches_noiseless_exactly(cache4):
    seq = np.arange(8) % len(cache4)
    clean = evolve_sequence(seq, cache4)
    gated = evolve_sequence(seq, cache4, noise=NoiseModel(p=1.0, delta=0.0), rng=RandomStream(3))
    np.testing.assert_array_equal(clean.probabilities, gated.probabilities)


def test_noise_gate_preserves_site_populations(cache4):
    # dephasing is diagonal: per-step populations can only change through
    # the unitary, so a gate right before readout must not move P
    seq = np.array([2, 1, 3, 0, 4, 2, 1, 0, 3, 4])
    noise = NoiseModel(p=1.0, delta=1.5)
    noisy, noisy_p = incoming_states(cache4, seq, noise, RandomStream(8))
    clean, clean_p = incoming_states(cache4, seq)
    np.testing.assert_array_equal(noisy_p, evolve_sequence(seq, cache4, noise=noise, rng=RandomStream(8)).probabilities)
    # row 1 is the state after step 0 and its gate
    np.testing.assert_allclose(np.abs(noisy[1]), np.abs(clean[1]), atol=1e-12)
    assert noisy_p[0] == pytest.approx(clean_p[0], abs=1e-12)
    # but later steps diverge because coherences were scrambled
    assert not np.allclose(noisy_p[1:], clean_p[1:])


# ------------------------------------------------------- batched evolution


def test_population_evolution_matches_sequential(cache4):
    rng = np.random.default_rng(9)
    genes = rng.integers(0, len(cache4), size=(17, 25))
    max_p = evolve_population(genes, cache4)
    curves = evolve_lockstep(cache4.unitaries, genes, genes.shape[1]).probabilities
    for i in range(len(genes)):
        traj = evolve_sequence(genes[i], cache4)
        np.testing.assert_allclose(curves[i], traj.probabilities, atol=1e-12)
        assert max_p[i] == pytest.approx(traj.max_probability, abs=1e-12)


def test_population_evolution_validates_gene_range(cache4):
    with pytest.raises(ValueError):
        evolve_population(np.array([[0, 5]]), cache4)
    with pytest.raises(ValueError):
        evolve_population(np.array([0, 1]), cache4)


def test_population_evolution_single_row(cache4):
    genes = np.array([[0, 1, 2, 3]])
    (mp,) = evolve_population(genes, cache4)
    assert 0.0 <= mp <= 1.0


@functools.lru_cache(maxsize=None)
def _site_cache(n):
    spec = ChainSpec(n=n)
    return build_cache(site_by_site_set(n, spec.field_strength), spec)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), rows=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_row_order_permutes_results_bitwise(n, rows, seed):
    # a row's bits depend on its own actions (and its own stream), never on
    # where the rows that share its step sit in the batch
    cache = _site_cache(n)
    gen = np.random.default_rng(seed)
    length = int(gen.integers(1, 3 * n))
    genes = gen.integers(0, len(cache), (rows, length))
    # steps where row 0 alone takes the last action: one-row groups
    lonely = gen.random(length) < 0.5
    genes[1:, lonely] %= len(cache) - 1
    genes[0, lonely] = len(cache) - 1
    # steps every row shares: one product for the whole batch
    shared = gen.random(length) < 0.2
    genes[:, shared] = genes[0, shared]
    perm = gen.permutation(rows)

    mine = evolve_population(genes[perm], cache)
    assert mine.tobytes() == evolve_population(genes, cache)[perm].tobytes()

    noise = NoiseModel(p=0.5, delta=0.7)
    streams = [RandomStream(seed).substream(r) for r in range(rows)]
    run = evolve_lockstep(cache.unitaries, genes, length, noise, streams)
    moved = evolve_lockstep(cache.unitaries, genes[perm], length, noise, [streams[i] for i in perm])
    assert moved.probabilities.tobytes() == run.probabilities[perm].tobytes()


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 8),
    sizes=st.lists(st.integers(0, 6), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, sizes=[0], seed=0)  # an empty stack
@example(n=4, sizes=[1, 2, 1], seed=1)
def test_tagged_rows_evolve_as_their_tag_alone(n, sizes, seed):
    # a stack of tagged batches gives every batch the bits it gets alone,
    # though a one-row product takes another BLAS path than a block
    cache = _site_cache(n)
    gen = np.random.default_rng(seed)
    length = int(gen.integers(1, 3 * n))
    batches = [gen.integers(0, len(cache), (k, length)) for k in sizes]
    for b in batches:
        # steps where the batch's first row alone takes the last action:
        # one-row classes inside larger batches, often at the same step
        # and action as the lone rows of other batches
        lonely = gen.random(length) < 0.5
        b[1:, lonely] %= len(cache) - 1
        b[:1, lonely] = len(cache) - 1
        # steps where every row of the batch takes one action
        shared = gen.random(length) < 0.3
        b[:, shared] = b[:1, shared]
    genes = np.concatenate(batches)
    tags = np.repeat(np.arange(len(sizes)), sizes)

    alone = np.concatenate([evolve_population(b, cache) for b in batches])
    assert evolve_population(genes, cache, tags).tobytes() == alone.tobytes()

    noise = NoiseModel(p=0.5, delta=0.7)
    keys = [RandomStream(seed, t).substream_keys(9, count=k) for t, k in enumerate(sizes)]
    run = evolve_lockstep(cache.unitaries, genes, length, noise, np.concatenate(keys), tags=tags)
    alone = [evolve_lockstep(cache.unitaries, b, length, noise, k).probabilities for b, k in zip(batches, keys)]
    assert run.probabilities.tobytes() == np.concatenate(alone).tobytes()

    # one (L,) schedule shared by every row: a one-row batch still takes the
    # one-row product it gets alone, not a share of the stack's product
    seq = gen.integers(0, len(cache), length)
    run = evolve_lockstep(cache.unitaries, seq, length, noise, np.concatenate(keys), tags=tags)
    alone = [evolve_lockstep(cache.unitaries, seq, length, noise, k).probabilities for k in keys]
    assert run.probabilities.tobytes() == np.concatenate(alone).tobytes()


def test_tags_must_give_one_nonnegative_int_per_row(cache4):
    genes = np.zeros((3, 4), dtype=np.int64)
    for bad in ([0, 1], [0, -1, 1], [[0, 0, 1]]):
        with pytest.raises(ValueError, match="tags"):
            evolve_population(genes, cache4, bad)
