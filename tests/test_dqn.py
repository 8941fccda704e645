import dataclasses

import numpy as np
import pytest
from oracles import replay_contents, state_equal, train_oracle

from qst_control import ChainSpec, RandomStream, build_cache, dqn, site_by_site_set
from qst_control.dqn import (
    Batch,
    DqnConfig,
    Experience,
    ReplayMemory,
    RewardTable,
    epsilon_greedy,
    greedy_rollout,
    td_update,
    train,
)
from qst_control.qnet import QNetwork

TINY = DqnConfig(
    gamma=0.9,
    learning_rate=1e-3,
    hidden1=24,
    hidden2=8,
    minibatch=8,
    replay_capacity=256,
    learning_period=5,
    target_sync_period=10,
    episodes=30,
)


# ------------------------------------------------------------------ reward


def test_reward_table_reference_points():
    r = RewardTable()
    assert r(0.0) == 0.0
    assert r(0.049) == 0.0
    assert r(0.05) == pytest.approx(0.5)
    assert r(0.3) == pytest.approx(3.0)
    assert r(0.899) == pytest.approx(8.99)
    assert r(0.9) == pytest.approx(2250.0)
    assert r(1.0) == pytest.approx(2500.0)


def test_reward_table_validation():
    with pytest.raises(ValueError):
        RewardTable(zeta=0.95, high=0.9)
    with pytest.raises(ValueError):
        RewardTable(zeta=-0.1)
    with pytest.raises(ValueError):
        RewardTable(scales=(0.0, 1.0))


def test_reward_table_custom_scales():
    r = RewardTable(zeta=0.1, high=0.8, scales=(1.0, 5.0, 100.0))
    assert r(0.05) == pytest.approx(0.05)
    assert r(0.5) == pytest.approx(2.5)
    assert r(0.85) == pytest.approx(85.0)


# ------------------------------------------------------------------ replay


def exp_with_reward(r, dim=4):
    return Experience(
        state=np.full(dim, r), action=0, reward=float(r), next_state=np.full(dim, r + 0.5), terminal=False
    )


def test_replay_grows_then_saturates():
    mem = ReplayMemory(capacity=5, state_dim=4)
    assert len(mem) == 0
    for r in range(3):
        mem.push(exp_with_reward(r))
    assert len(mem) == 3
    for r in range(3, 9):
        mem.push(exp_with_reward(r))
    assert len(mem) == 5


def test_replay_evicts_oldest_first():
    mem = ReplayMemory(capacity=5, state_dim=4)
    for r in range(8):
        mem.push(exp_with_reward(r))
    stored = [e.reward for e in replay_contents(mem)]
    assert stored == [3.0, 4.0, 5.0, 6.0, 7.0]
    # round-trips the full record, not just the reward
    assert replay_contents(mem)[0].next_state[0] == pytest.approx(3.5)


def test_replay_sample_without_replacement(gen):
    mem = ReplayMemory(capacity=16, state_dim=4)
    for r in range(10):
        mem.push(exp_with_reward(r))
    batch = mem.sample(10, gen)
    assert sorted(batch.rewards.tolist()) == [float(r) for r in range(10)]
    with pytest.raises(ValueError):
        mem.sample(11, gen)


def test_replay_sample_deterministic():
    mem = ReplayMemory(capacity=16, state_dim=4)
    for r in range(12):
        mem.push(exp_with_reward(r))
    b1 = mem.sample(6, RandomStream(3).generator())
    b2 = mem.sample(6, RandomStream(3).generator())
    np.testing.assert_array_equal(b1.rewards, b2.rewards)


def test_replay_validation():
    with pytest.raises(ValueError):
        ReplayMemory(capacity=0, state_dim=4)


# ------------------------------------------------------------------ config


def test_config_defaults_match_reference_table():
    c = DqnConfig()
    assert c.minibatch == 32
    assert c.replay_capacity == 40000
    assert c.learning_rate == 0.01
    assert c.learning_period == 5
    assert c.target_sync_period == 200
    assert (c.epsilon_start, c.epsilon_floor, c.epsilon_decay) == (1.0, 0.01, 1e-4)
    assert c.episodes == 50000
    assert c.fidelity_threshold == 0.0
    assert c.gamma == 0.95
    assert (c.hidden1, c.resolved_hidden2) == (120, 40)


def test_hidden2_resolution():
    assert DqnConfig(hidden1=2417).resolved_hidden2 == 806
    assert DqnConfig(hidden1=2417, hidden2=100).resolved_hidden2 == 100


def test_epsilon_schedule():
    c = DqnConfig()
    assert c.epsilon_after(0) == 1.0
    assert c.epsilon_after(5000) == pytest.approx(0.5)
    assert c.epsilon_after(9900) == pytest.approx(0.01)
    assert c.epsilon_after(50000) == 0.01


def test_config_validation():
    with pytest.raises(ValueError):
        DqnConfig(gamma=0.0)
    with pytest.raises(ValueError):
        DqnConfig(gamma=1.5)
    with pytest.raises(ValueError):
        DqnConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        DqnConfig(minibatch=64, replay_capacity=32)
    with pytest.raises(ValueError):
        DqnConfig(epsilon_floor=0.5, epsilon_start=0.1)
    with pytest.raises(ValueError):
        DqnConfig(fidelity_threshold=1.5)
    with pytest.raises(ValueError):
        DqnConfig(noise_p=2.0)
    with pytest.raises(ValueError):
        DqnConfig(hidden1=0)


def test_noise_model_resolution():
    assert DqnConfig().noise_model() is None
    model = DqnConfig(noise_p=0.25, noise_delta=0.25).noise_model()
    assert model.p == 0.25 and model.delta == 0.25


# ---------------------------------------------------------- action choice


class StubNet:
    def __init__(self, q):
        self.q = np.asarray(q, dtype=float)
        self.n_outputs = len(self.q)

    def q_values(self, state):
        return self.q


def test_epsilon_greedy_exploits_at_zero_epsilon(gen):
    net = StubNet([0.1, 3.0, 3.0, -1.0])
    for _ in range(20):
        assert epsilon_greedy(net, np.zeros(2), 0.0, gen) == 1  # tie -> lowest id


def test_epsilon_greedy_explores_at_unit_epsilon(gen):
    net = StubNet([0.0, 0.0, 100.0])
    picks = {epsilon_greedy(net, np.zeros(2), 1.0, gen) for _ in range(200)}
    assert picks == {0, 1, 2}


def test_epsilon_greedy_draw_discipline():
    # greedy steps burn exactly one variate, explore steps exactly two
    net = StubNet([1.0, 0.0])
    g1 = RandomStream(5).generator()
    epsilon_greedy(net, np.zeros(2), 0.0, g1)
    g2 = RandomStream(5).generator()
    g2.random()
    assert g1.random() == g2.random()


# --------------------------------------------------------------- td update


def batch_of(*exps):
    return Batch(
        states=np.stack([e.state for e in exps]),
        actions=np.array([e.action for e in exps], dtype=np.int64),
        rewards=np.array([e.reward for e in exps]),
        next_states=np.stack([e.next_state for e in exps]),
        terminals=np.array([e.terminal for e in exps], dtype=bool),
    )


def test_td_update_terminal_drops_bootstrap():
    net = QNetwork(4, 6, 3, 2, rng=RandomStream(1))
    target = net.clone()
    state = np.array([0.1, -0.2, 0.3, 0.4])
    q_before = net.q_values(state)[0]
    exp = Experience(state=state, action=0, reward=7.0, next_state=state * 2, terminal=True)
    loss = td_update(net, target, batch_of(exp), gamma=0.9, learning_rate=0.0)
    assert loss == pytest.approx((q_before - 7.0) ** 2, rel=1e-12)


def test_td_update_bootstraps_from_target_network():
    net = QNetwork(4, 6, 3, 2, rng=RandomStream(1))
    target = QNetwork(4, 6, 3, 2, rng=RandomStream(2))
    state = np.array([0.1, -0.2, 0.3, 0.4])
    nxt = np.array([0.5, 0.5, -0.5, 0.0])
    q_before = net.q_values(state)[1]
    boot = target.q_values(nxt).max()
    exp = Experience(state=state, action=1, reward=2.0, next_state=nxt, terminal=False)
    loss = td_update(net, target, batch_of(exp), gamma=0.9, learning_rate=0.0)
    assert loss == pytest.approx((q_before - (2.0 + 0.9 * boot)) ** 2, rel=1e-12)


def test_td_update_actually_descends():
    net = QNetwork(4, 12, 4, 3, rng=RandomStream(4))
    target = net.clone()
    gen = RandomStream(5).generator()
    exps = [
        Experience(gen.normal(size=4), int(gen.integers(0, 3)), float(gen.normal()), gen.normal(size=4), True)
        for _ in range(16)
    ]
    batch = batch_of(*exps)
    losses = [td_update(net, target, batch, gamma=0.9, learning_rate=0.01) for _ in range(50)]
    assert losses[-1] < losses[0]


def test_td_update_checks_gradients_before_updating():
    # huge hidden activations and a tiny output layer: the loss stays
    # finite, the output layer's weight gradient overflows
    net = QNetwork(4, 6, 3, 2, rng=RandomStream(6))
    net.weights[0][...] = np.abs(net.weights[0]) * 1e300
    net.biases[0][...] = 0.0
    net.weights[1][...] = np.abs(net.weights[1])
    net.weights[2][...] = 1e-300
    before = net.params.copy()
    exp = Experience(np.ones(4), 0, 1e10, np.ones(4), True)
    with pytest.raises(RuntimeError, match="non-finite gradients"), np.errstate(over="ignore", invalid="ignore"):
        td_update(net, net.clone(), batch_of(exp), gamma=0.9, learning_rate=1e-3)
    assert net.params.tobytes() == before.tobytes()


def test_td_update_aborts_on_divergence():
    net = QNetwork(4, 6, 3, 2, rng=RandomStream(6))
    target = net.clone()
    exp = Experience(np.ones(4), 0, 1e3, np.ones(4), True)
    with pytest.raises(RuntimeError, match="diverged"), np.errstate(over="ignore", invalid="ignore"):
        for _ in range(200):
            td_update(net, target, batch_of(exp), gamma=0.9, learning_rate=1e6)


# ------------------------------------------------------------------- train


def chain2():
    spec = ChainSpec(n=2)
    return spec, site_by_site_set(2, spec.field_strength)


def test_train_learning_event_cadence():
    spec, action_set = chain2()
    record = train(TINY, action_set, spec, seed=0)
    # 30 episodes x 10 steps = 300 global steps; events fire on multiples
    # of 5 once the memory holds 8, so step 5 is skipped and 10..300 fire
    assert record.learn_events == 59
    assert record.episode_epsilon[-1] == pytest.approx(TINY.epsilon_after(59))
    assert record.episode_max_probability.shape == (30,)
    assert np.all(record.episode_max_probability >= 0)
    assert record.best_probability == record.episode_max_probability.max()
    assert record.best_episode == int(np.argmax(record.episode_max_probability))


def test_train_deterministic_per_seed():
    spec, action_set = chain2()
    r1 = train(TINY, action_set, spec, seed=11)
    r2 = train(TINY, action_set, spec, seed=11)
    assert state_equal(r1.network, r2.network)
    np.testing.assert_array_equal(r1.episode_max_probability, r2.episode_max_probability)
    np.testing.assert_array_equal(r1.best_sequence, r2.best_sequence)
    r3 = train(TINY, action_set, spec, seed=12)
    assert not state_equal(r1.network, r3.network)


def test_train_target_sync_every_period():
    spec, action_set = chain2()
    synced = dataclasses.replace(TINY, target_sync_period=1)
    record = train(synced, action_set, spec, seed=2)
    # with sync after every learning event and no update since the last
    # event, the target must end byte-identical to the online network
    assert state_equal(record.target_network, record.network)

    never = dataclasses.replace(TINY, target_sync_period=10**9)
    record = train(never, action_set, spec, seed=2)
    assert not state_equal(record.target_network, record.network)
    # an unsynced target is still the initial network: rebuild it from the
    # same stream and compare bytes
    fresh = QNetwork(4, TINY.hidden1, TINY.hidden2, 3, rng=RandomStream(2))
    assert state_equal(record.target_network, fresh)


def test_train_early_termination_threshold():
    spec, action_set = chain2()
    # free evolution reaches p ~ 0.086 after one step, far above the
    # threshold, so every episode terminates immediately
    early = dataclasses.replace(TINY, fidelity_threshold=1e-6, episodes=5)
    record = train(early, action_set, spec, seed=3)
    assert len(record.best_sequence) == 1
    full = dataclasses.replace(TINY, episodes=5)
    record = train(full, action_set, spec, seed=3)
    assert len(record.best_sequence) == spec.n_steps


def test_train_with_noise_is_deterministic():
    spec, action_set = chain2()
    noisy = dataclasses.replace(TINY, episodes=10, noise_p=0.5, noise_delta=0.25)
    r1 = train(noisy, action_set, spec, seed=4)
    r2 = train(noisy, action_set, spec, seed=4)
    assert state_equal(r1.network, r2.network)
    np.testing.assert_array_equal(r1.episode_max_probability, r2.episode_max_probability)


def test_train_rejects_mismatched_action_set():
    spec, _ = chain2()
    with pytest.raises(ValueError):
        train(TINY, site_by_site_set(3), spec, seed=0)


# ------------------------------------------- train against the per-array oracle

ORACLE_CONFIGS = {
    "defaults": DqnConfig(episodes=60),
    "noise": DqnConfig(episodes=40, noise_p=0.5, noise_delta=0.25),
    "threshold": DqnConfig(episodes=60, fidelity_threshold=0.3),
    "sync": DqnConfig(episodes=40, target_sync_period=3, replay_capacity=40, minibatch=8),
    "hidden2": DqnConfig(episodes=40, hidden1=30, hidden2=17),
}


def chain4():
    spec = ChainSpec(n=4)
    return spec, site_by_site_set(4, spec.field_strength)


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_train_matches_the_per_array_oracle(name):
    config = ORACLE_CONFIGS[name]
    spec, action_set = chain4()
    record = train(config, action_set, spec, seed=RandomStream(0))
    oracle = train_oracle(config, action_set, spec, RandomStream(0))
    assert oracle.error is None
    assert state_equal(record.network, oracle.network)
    assert state_equal(record.target_network, oracle.target_network)
    for field in ("episode_max_probability", "episode_epsilon", "episode_loss", "best_sequence"):
        assert_same_bytes(getattr(record, field), getattr(oracle, field))
    assert record.best_episode == oracle.best_episode
    assert record.learn_events == oracle.learn_events
    if name == "threshold":
        assert len(record.best_sequence) < spec.n_steps  # some episode stopped early


def test_train_diverges_where_the_oracle_does(monkeypatch):
    config = DqnConfig(episodes=60, hidden1=12, learning_rate=10.0)
    spec, action_set = chain4()
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = train_oracle(config, action_set, spec, RandomStream(0))
    assert oracle.error is not None and oracle.learn_events > 100
    calls = []

    def counted(net, target_net, *args):
        calls.append((net, target_net))
        return td_update(net, target_net, *args)

    monkeypatch.setattr(dqn, "td_update", counted)
    with pytest.raises(RuntimeError) as info, np.errstate(over="ignore", invalid="ignore"):
        train(config, action_set, spec, seed=RandomStream(0))
    assert str(info.value) == oracle.error
    assert len(calls) == oracle.learn_events + 1
    # the failed update left both networks as they were
    net, target_net = calls[-1]
    assert state_equal(net, oracle.network)
    assert state_equal(target_net, oracle.target_network)


# ----------------------------------------------------------------- rollout


def test_greedy_rollout_replays_argmax_policy():
    spec, action_set = chain2()
    record = train(dataclasses.replace(TINY, episodes=10), action_set, spec, seed=5)
    cache = build_cache(action_set, spec)
    seq, traj = greedy_rollout(record.network, action_set, spec, cache=cache)
    assert seq.shape == (spec.n_steps,)
    assert traj.n_steps == spec.n_steps
    # replay manually
    psi = np.zeros(2, dtype=complex)
    psi[0] = 1.0
    for t in range(spec.n_steps):
        s = np.concatenate([psi.real, psi.imag])
        a = int(np.argmax(record.network.q_values(s)))
        assert a == seq[t]
        psi = cache.unitaries[a] @ psi
        assert traj.probabilities[t] == pytest.approx(abs(psi[-1]) ** 2, abs=1e-15)


def test_greedy_rollout_noise_requires_rng():
    spec, action_set = chain2()
    net = QNetwork(4, 8, 3, 3, rng=RandomStream(0))
    from qst_control import NoiseModel

    with pytest.raises(ValueError, match="rng"):
        greedy_rollout(net, action_set, spec, noise=NoiseModel(0.5, 0.25))


def test_greedy_rollout_noisy_deterministic_per_stream():
    spec, action_set = chain2()
    from qst_control import NoiseModel

    net = QNetwork(4, 8, 3, 3, rng=RandomStream(0))
    noise = NoiseModel(0.8, 0.5)
    s1, t1 = greedy_rollout(net, action_set, spec, noise=noise, rng=RandomStream(9))
    s2, t2 = greedy_rollout(net, action_set, spec, noise=noise, rng=RandomStream(9))
    np.testing.assert_array_equal(s1, s2)
    np.testing.assert_array_equal(t1.probabilities, t2.probabilities)
    # under noise the policy reacts to the realized state, so a different
    # realization may choose different actions
    s3, t3 = greedy_rollout(net, action_set, spec, noise=noise, rng=RandomStream(10))
    assert not np.array_equal(t1.probabilities, t3.probabilities)
