"""The lock-step rollout kernel against the one-run-at-a-time oracle."""

import numpy as np
import pytest

from oracles import fixed_choice, greedy_choice, rollout_oracle, validation_oracle
from qst_control import ChainSpec, NoiseModel, RandomStream, build_cache, site_by_site_set
from qst_control import harness
from qst_control.chain import NOISE_BLOCK_STEPS, _NoiseWalk, evolve_lockstep, evolve_sequence
from qst_control.dqn import greedy_policy, greedy_rollout
from qst_control.ga import _evaluate
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


def test_noisy_ga_evaluation_matches_the_oracle(cache5):
    genes = np.random.default_rng(7).integers(0, len(cache5), (13, cache5.spec.n_steps))
    noise = NoiseModel(p=0.4, delta=0.6)
    stream = RandomStream(30)
    fit = _evaluate(genes, cache5, noise, stream, generation=3)
    for i, row in enumerate(genes):
        gen = stream.substream(3, i).generator()
        _, probs = rollout_oracle(cache5.unitaries, len(row), fixed_choice(row), noise, gen)
        assert abs(fit[i] - probs.max()) <= 1e-12


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
