"""The lock-step rollout kernel against the one-run-at-a-time oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fixed_choice, greedy_choice, per_cell_validation, rollout_oracle, validation_oracle
from qst_control import ChainSpec, NoiseModel, RandomStream, averaged_fidelity, build_cache, site_by_site_set
from qst_control import harness
from qst_control.chain import NOISE_BLOCK_STEPS, _NoiseWalk, evolve_lockstep, evolve_sequence
from qst_control.dqn import greedy_policy, greedy_rollout
from qst_control.harness import FixedSequenceController, GreedyPolicyController, validate_controller
from qst_control.noise import sample_noise_gate
from qst_control.qnet import QNetwork

# a degenerate row (p = 0) and column (delta = 0) around two noisy levels
P_VALUES = (0.0, 0.3, 1.0)
DELTA_VALUES = (0.0, 0.4, 1.1)


@pytest.fixture(scope="module")
def cache5():
    spec = ChainSpec(n=5)
    return build_cache(site_by_site_set(spec.n, spec.field_strength), spec)


@pytest.mark.parametrize("p", [0.3, 1.0])
@pytest.mark.parametrize("n", [2, 5])
def test_noise_walk_reproduces_sample_noise_gate_bitwise(p, n):
    # 3 block lengths of steps: at p = 1 every step reads n + 1 variates, so
    # every run refills across block boundaries several times
    runs, steps = 7, 3 * NOISE_BLOCK_STEPS + 5
    model = NoiseModel(p=p, delta=0.8)
    streams = [RandomStream(21, 4).substream(r) for r in range(runs)]
    walk = _NoiseWalk(model, n, streams)
    assert walk.buf.shape == (runs, NOISE_BLOCK_STEPS * (n + 1))
    gens = [s.generator() for s in streams]
    for _ in range(steps):
        # a gate times 1 + 0j is the gate itself, bit for bit
        states = np.ones((runs, n), dtype=complex)
        walk.apply(states)
        for r, gen in enumerate(gens):
            gate = sample_noise_gate(model, n, gen)
            expected = np.ones(n, dtype=complex) if gate is None else gate
            assert states[r].tobytes() == expected.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    stream_id=st.integers(2**63, 2**64 - 1),
    n=st.sampled_from([2, 4, 5, 6, 9]),  # n + 1 is not a multiple of 4
    p=st.sampled_from([0.02, 1.0]),
)
def test_noise_walk_keys_match_per_run_generators(seeds, stream_id, n, p):
    # keys at or above 2^63; enough steps that a run refills at least three
    # times even when it reads one variate a step
    steps = 3 * NOISE_BLOCK_STEPS * (n + 1) + 5
    model = NoiseModel(p=p, delta=0.8)
    streams = [RandomStream(seed, stream_id ^ r) for r, seed in enumerate(seeds)]
    walk = _NoiseWalk(model, n, np.array([s.key for s in streams]))
    gens = [s.generator() for s in streams]
    for _ in range(steps):
        states = np.ones((len(streams), n), dtype=complex)
        walk.apply(states)
        for r, gen in enumerate(gens):
            gate = sample_noise_gate(model, n, gen)
            expected = np.ones(n, dtype=complex) if gate is None else gate
            assert states[r].tobytes() == expected.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    levels=st.lists(
        st.tuples(st.sampled_from([0.0, 0.02, 0.3, 1.0]), st.floats(0.0, 3.0)), min_size=2, max_size=5
    ),
    n=st.sampled_from([2, 4, 5, 6, 9]),  # n + 1 is not a multiple of 4
    seed=st.integers(0, 2**64 - 1),
)
def test_noise_walk_with_a_model_per_run_is_bitwise_single_model_walks(levels, n, seed):
    # enough steps that every run refills at least three times
    steps = 3 * NOISE_BLOCK_STEPS * (n + 1) + 5
    models = [NoiseModel(p=p, delta=d) for p, d in levels]
    keys = RandomStream(seed).substream_keys(7, count=len(models))
    stacked = _NoiseWalk(models, n, keys)
    alone = [_NoiseWalk(m, n, keys[r : r + 1]) for r, m in enumerate(models)]
    for _ in range(steps):
        states = np.ones((len(models), n), dtype=complex)
        stacked.apply(states)
        for r, walk in enumerate(alone):
            row = np.ones((1, n), dtype=complex)
            walk.apply(row)
            assert states[r].tobytes() == row[0].tobytes()


def test_single_run_is_bitwise_the_scalar_loop(cache5):
    seq = np.random.default_rng(5).integers(0, len(cache5), cache5.spec.n_steps)
    _, clean = rollout_oracle(cache5.unitaries, len(seq), fixed_choice(seq))
    assert evolve_sequence(seq, cache5).probabilities.tobytes() == clean.tobytes()

    noise = NoiseModel(p=0.5, delta=0.7)
    gen = RandomStream(3).generator()
    _, noisy = rollout_oracle(cache5.unitaries, len(seq), fixed_choice(seq), noise, gen)
    traj = evolve_sequence(seq, cache5, noise=noise, rng=RandomStream(3))
    assert traj.probabilities.tobytes() == noisy.tobytes()

    net = QNetwork(10, 16, 6, len(cache5), rng=RandomStream(8))
    actions, probs = rollout_oracle(
        cache5.unitaries, len(seq), greedy_choice(net), noise, RandomStream(4).generator()
    )
    seq2, traj2 = greedy_rollout(
        net, cache5.action_set, cache5.spec, noise=noise, rng=RandomStream(4), cache=cache5
    )
    assert np.array_equal(seq2, actions)
    assert traj2.probabilities.tobytes() == probs.tobytes()


@pytest.mark.parametrize("kind", ["fixed", "greedy"])
def test_validate_controller_matches_the_oracle(cache5, kind):
    if kind == "fixed":
        seq = np.random.default_rng(6).integers(0, len(cache5), cache5.spec.n_steps)
        controller, choose = FixedSequenceController(seq), fixed_choice(seq)
    else:
        net = QNetwork(10, 16, 6, len(cache5), rng=RandomStream(9))
        controller, choose = GreedyPolicyController(net), greedy_choice(net)
    stream = RandomStream(12)
    report = validate_controller(controller, cache5, stream, P_VALUES, DELTA_VALUES, n_runs=9)
    oracle = validation_oracle(choose, cache5, stream, P_VALUES, DELTA_VALUES, 9)
    assert np.max(np.abs(report.per_run - oracle)) <= 1e-12
    clean = controller.rollout(cache5).max_probability
    for c in report.cells:
        if c.p == 0.0 or c.delta == 0.0:
            assert c.mean_max_probability == clean and c.std_max_probability == 0.0


@pytest.mark.parametrize("rows", [None, 6], ids=["one-call", "several-calls"])
@pytest.mark.parametrize("n_runs", [1, 2, 3])
@pytest.mark.parametrize("kind", ["fixed", "greedy"])
def test_stacked_validation_is_bitwise_the_per_cell_loop(cache5, monkeypatch, kind, n_runs, rows):
    # 4 noisy cells, a p = 1 cell among them; at 6 rows a call the cells
    # stack in twos or threes, so a call also holds more than one cell
    if rows is not None:
        monkeypatch.setattr(harness, "SCHEDULE_ROWS", rows)
        monkeypatch.setattr(harness, "POLICY_ROWS", rows)
    if kind == "fixed":
        seq = np.random.default_rng(13).integers(0, len(cache5), cache5.spec.n_steps)
        controller = FixedSequenceController(seq)
    else:
        controller = GreedyPolicyController(QNetwork(10, 16, 6, len(cache5), rng=RandomStream(1)))
    stream = RandomStream(14)
    expected = per_cell_validation(controller, cache5, stream, P_VALUES, DELTA_VALUES, n_runs)
    for workers in (1, 2):
        report = validate_controller(controller, cache5, stream, P_VALUES, DELTA_VALUES, n_runs, workers)
        assert report.per_run.tobytes() == expected.tobytes()
    if kind == "greedy" and n_runs > 1:
        # the runs of a cell part ways: one-row action classes occur (cell 4
        # is p = 0.3, delta = 0.4)
        keys = stream.substream_keys(harness.TAG_VALIDATION, 4, count=n_runs)
        run = evolve_lockstep(cache5.unitaries, controller.actions(), cache5.spec.n_steps, NoiseModel(0.3, 0.4), keys)
        assert np.any(run.actions.min(axis=0) != run.actions.max(axis=0))


def test_greedy_batch_takes_the_oracle_actions(cache5):
    net = QNetwork(10, 16, 6, len(cache5), rng=RandomStream(10))
    noise = NoiseModel(p=0.5, delta=0.9)
    # 69 runs scored by one network call per step
    streams = [RandomStream(2).substream(r) for r in range(69)]
    run = evolve_lockstep(cache5.unitaries, greedy_policy(net), cache5.spec.n_steps, noise, streams)
    for r, s in enumerate(streams):
        actions, probs = rollout_oracle(
            cache5.unitaries, cache5.spec.n_steps, greedy_choice(net), noise, s.generator()
        )
        assert np.array_equal(run.actions[r], actions)
        assert np.max(np.abs(run.probabilities[r] - probs)) <= 1e-12


def test_validate_controller_rejects_unknown_action_once_up_front(cache5, monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran before the sequence was checked")

    monkeypatch.setattr(harness, "evolve_lockstep", no_cells)
    seq = np.zeros(cache5.spec.n_steps, dtype=np.int64)
    seq[3] = len(cache5)
    with pytest.raises(ValueError, match="unknown action"):
        validate_controller(
            FixedSequenceController(seq), cache5, RandomStream(0), (0.5,), (0.25, 0.5), n_runs=4, workers=2
        )


@pytest.mark.parametrize("p, delta", [(0.0, -1.0), (1.5, 0.0)])
def test_validate_controller_rejects_an_invalid_noiseless_cell(cache5, p, delta):
    # p = 0 or delta = 0 cells take the clean value, but their levels are
    # still checked
    seq = np.zeros(cache5.spec.n_steps, dtype=np.int64)
    with pytest.raises(ValueError, match="must"):
        validate_controller(FixedSequenceController(seq), cache5, RandomStream(0), (p,), (delta,), n_runs=3)


def test_lockstep_validates_its_schedule(cache5):
    with pytest.raises(ValueError, match="unknown action"):
        evolve_lockstep(cache5.unitaries, np.array([[0, 1], [2, -1]]), 2)
    with pytest.raises(ValueError, match="shape"):
        evolve_lockstep(cache5.unitaries, np.zeros((2, 3), dtype=int), 2)
    with pytest.raises(ValueError, match="rng"):
        evolve_lockstep(cache5.unitaries, np.zeros(3, dtype=int), 3, NoiseModel(0.5, 0.5))
    with pytest.raises(ValueError, match="one per run"):
        keys = RandomStream(0).substream_keys(count=3)
        evolve_lockstep(cache5.unitaries, np.zeros(3, dtype=int), 3, [NoiseModel(0.5, 0.5)] * 2, keys)


@pytest.mark.parametrize("n_runs", [0, -3, 2.5])
def test_validate_controller_rejects_a_bad_run_count_up_front(cache5, monkeypatch, n_runs):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran before the run count was checked")

    monkeypatch.setattr(harness, "evolve_lockstep", no_cells)
    seq = np.zeros(cache5.spec.n_steps, dtype=np.int64)
    with pytest.raises(ValueError, match="n_runs"):
        validate_controller(FixedSequenceController(seq), cache5, RandomStream(0), (0.5,), (0.5,), n_runs=n_runs)


def test_noisy_validation_opens_no_generator_and_any_worker_count_agrees(cache5, monkeypatch):
    calls = []
    generator = RandomStream.generator

    def counted(self):
        calls.append(self)
        return generator(self)

    net = QNetwork(10, 16, 6, len(cache5), rng=RandomStream(11))
    controller = GreedyPolicyController(net)
    monkeypatch.setattr(RandomStream, "generator", counted)
    reports = [
        validate_controller(controller, cache5, RandomStream(4), P_VALUES, DELTA_VALUES, n_runs=23, workers=w)
        for w in (1, 2)
    ]
    assert calls == []
    assert reports[0].per_run.tobytes() == reports[1].per_run.tobytes()
    # each noisy cell's mean fidelity is the mean of the per-run fidelities
    for c, cell in enumerate(reports[0].cells):
        if cell.p > 0.0 and cell.delta > 0.0:
            scalar = float(np.mean([averaged_fidelity(v) for v in reports[0].per_run[c]]))
            assert np.float64(cell.mean_fidelity).tobytes() == np.float64(scalar).tobytes()
