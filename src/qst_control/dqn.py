"""Deep Q-learning over the chain-control environment.

An episode walks the excitation through one full control sequence: the
agent sees the state vector as (Re psi, Im psi), picks one action per
step, and earns a transmission-graded reward after each step.  Episodes
have fixed horizon n_steps; the last step is terminal for bootstrapping,
and an optional fidelity threshold chi ends the episode early once the
transmission probability reaches it (chi = 0 disables early termination).

The learner is the classic off-policy setup: an online network trained on
minibatches sampled uniformly without replacement from a replay ring, TD
targets computed by a frozen target copy that re-syncs every fixed number
of learning events, and an epsilon-greedy behaviour policy whose epsilon
decays linearly per learning event to a floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .actions import ActionSet, PropagatorCache, build_cache
from .bounds import COUNT, NONNEGATIVE, POSITIVE, POSITIVE_UNIT, UNIT, Checked, bounded
from .chain import ChainSpec, Trajectory, evolve_lockstep
from .noise import NoiseModel, sample_noise_gate
from .qnet import QNetwork
from .rng import RandomStream, as_stream


@dataclass(frozen=True)
class RewardTable(Checked):
    """Piecewise-linear transmission reward, r = scale(p) * p.

    Below ``zeta`` the step earns nothing, in the middle band the scale is
    modest, and from ``high`` up it jumps sharply; the jump is what makes
    near-perfect transfers dominate the return.
    """

    zeta: float = bounded(0.05, UNIT)
    high: float = bounded(0.9, UNIT)
    scales: tuple[float, float, float] = (0.0, 10.0, 2500.0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.zeta > self.high:
            raise ValueError(f"need 0 <= zeta <= high <= 1, got zeta={self.zeta}, high={self.high}")
        if len(self.scales) != 3:
            raise ValueError(f"scales must have three entries, got {self.scales}")

    def __call__(self, p: float) -> float:
        if p < self.zeta:
            return self.scales[0] * p
        if p < self.high:
            return self.scales[1] * p
        return self.scales[2] * p


@dataclass
class Experience:
    """One environment transition."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


@dataclass
class Batch:
    """Column-wise minibatch view used by the TD update."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    terminals: np.ndarray


class ReplayMemory:
    """Fixed-capacity experience ring; full inserts evict the oldest entry."""

    def __init__(self, capacity: int, state_dim: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._states = np.empty((capacity, state_dim))
        self._actions = np.empty(capacity, dtype=np.int64)
        self._rewards = np.empty(capacity)
        self._next_states = np.empty((capacity, state_dim))
        self._terminals = np.empty(capacity, dtype=bool)
        self._size = 0
        self._pos = 0

    def __len__(self) -> int:
        return self._size

    def push(self, exp: Experience) -> None:
        i = self._pos
        self._states[i] = exp.state
        self._actions[i] = exp.action
        self._rewards[i] = exp.reward
        self._next_states[i] = exp.next_state
        self._terminals[i] = exp.terminal
        self._pos = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, k: int, gen: np.random.Generator) -> Batch:
        """Uniform minibatch without replacement."""
        if k > self._size:
            raise ValueError(f"cannot sample {k} items from a memory holding {self._size}")
        idx = gen.choice(self._size, size=k, replace=False)
        return Batch(
            states=self._states.take(idx, axis=0),
            actions=self._actions.take(idx),
            rewards=self._rewards.take(idx),
            next_states=self._next_states.take(idx, axis=0),
            terminals=self._terminals.take(idx),
        )


@dataclass(frozen=True)
class DqnConfig(Checked):
    """Hyperparameters of the Q-learning run.

    ``hidden2=None`` resolves to round(hidden1 / 3), the ratio shared by
    every tuned configuration.  ``fidelity_threshold`` is the early-stop
    chi; 0 disables it.  Training noise applies the dephasing channel
    inside the episodes themselves.
    """

    gamma: float = bounded(0.95, POSITIVE_UNIT)
    learning_rate: float = bounded(0.01, POSITIVE)
    hidden1: int = bounded(120, COUNT)
    hidden2: int | None = bounded(None, COUNT)
    minibatch: int = bounded(32, COUNT)
    replay_capacity: int = bounded(40000, COUNT)
    learning_period: int = bounded(5, COUNT)
    target_sync_period: int = bounded(200, COUNT)
    episodes: int = bounded(50000, COUNT)
    epsilon_start: float = bounded(1.0, UNIT)
    epsilon_floor: float = bounded(0.01, UNIT)
    epsilon_decay: float = bounded(1e-4, NONNEGATIVE)
    reward: RewardTable = field(default_factory=RewardTable)
    fidelity_threshold: float = bounded(0.0, UNIT)
    noise_p: float = bounded(0.0, UNIT)
    noise_delta: float = bounded(0.0, NONNEGATIVE)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.replay_capacity < self.minibatch:
            raise ValueError(
                f"replay_capacity must be at least the minibatch size, got {self.replay_capacity}"
            )
        if self.epsilon_floor > self.epsilon_start:
            raise ValueError(
                f"need 0 <= epsilon_floor <= epsilon_start <= 1, got "
                f"{self.epsilon_floor}, {self.epsilon_start}"
            )

    @property
    def resolved_hidden2(self) -> int:
        return self.hidden2 if self.hidden2 is not None else round(self.hidden1 / 3)

    def epsilon_after(self, learn_events: int) -> float:
        """Exploration rate once ``learn_events`` learning events have run."""
        return max(self.epsilon_floor, self.epsilon_start - self.epsilon_decay * learn_events)

    def noise_model(self) -> NoiseModel | None:
        if self.noise_p == 0.0 and self.noise_delta == 0.0:
            return None
        return NoiseModel(p=self.noise_p, delta=self.noise_delta)


def encode_state(psi: np.ndarray) -> np.ndarray:
    """Network input: real parts then imaginary parts of the amplitudes
    (along the last axis, so a batch of states encodes row by row)."""
    return np.concatenate([psi.real, psi.imag], axis=-1)


def epsilon_greedy(net: QNetwork, state: np.ndarray, epsilon: float, gen: np.random.Generator) -> int:
    """Explore uniformly with probability epsilon, otherwise exploit.

    Exploitation ties resolve to the lowest action id.  The exploration
    coin is drawn first, and the uniform action draw happens only on
    exploration, so the greedy branch costs no extra variates.
    """
    if gen.random() < epsilon:
        return int(gen.integers(0, net.n_outputs))
    return int(net.q_values(state).argmax())


def td_update(
    net: QNetwork,
    target_net: QNetwork,
    batch: Batch,
    gamma: float,
    learning_rate: float,
) -> float:
    """One SGD step on the TD loss; returns the pre-update loss.

    Targets are r + gamma * max_a' q_target(s')[a'], with the bootstrap
    dropped on terminal transitions.
    """
    q_next = target_net.q_batch(batch.next_states).max(axis=1)
    targets = batch.rewards + gamma * q_next * ~batch.terminals
    loss, grads = net.loss_and_gradients(batch.states, batch.actions, targets)
    if not math.isfinite(loss):
        raise RuntimeError(
            f"non-finite TD loss ({loss}); the network has diverged, lower the learning rate"
        )
    if not np.isfinite(grads.flat).all():
        raise RuntimeError("non-finite gradients; the network has diverged")
    net.apply_gradients(grads, learning_rate)
    return loss


@dataclass
class TrainRecord:
    """Outcome of one training run."""

    network: QNetwork
    target_network: QNetwork = field(repr=False)
    best_sequence: np.ndarray
    best_probability: float
    best_episode: int
    episode_max_probability: np.ndarray = field(repr=False)
    episode_epsilon: np.ndarray = field(repr=False)
    episode_loss: np.ndarray = field(repr=False)
    learn_events: int


# A diverging run overflows before td_update's finiteness check stops it;
# the check raises, so numpy's warnings would only add noise on stderr.
@np.errstate(over="ignore", invalid="ignore")
def train(
    config: DqnConfig,
    action_set: ActionSet,
    spec: ChainSpec,
    seed: "int | RandomStream" = 0,
) -> TrainRecord:
    """Full training loop.

    One generator drives everything (weight init, exploration, replay
    sampling, noise), so a run is a pure function of (config, action set,
    chain, seed).  Learning events fire every ``learning_period``
    environment steps, counted globally across episodes, once the memory
    holds a minibatch.  ``episode_loss`` records each episode's mean loss
    over the learning events that fired in it (NaN for episodes with
    none).
    """
    if action_set.n != spec.n:
        raise ValueError(f"action set is for n={action_set.n} but the chain has n={spec.n}")
    stream = as_stream(seed)
    gen = stream.generator()
    cache = build_cache(action_set, spec)
    n_actions = len(action_set)
    state_dim = 2 * spec.n
    length = spec.n_steps
    noise = config.noise_model()

    net = QNetwork(state_dim, config.hidden1, config.resolved_hidden2, n_actions, gen)
    target_net = net.clone()
    memory = ReplayMemory(config.replay_capacity, state_dim)

    epsilon = config.epsilon_after(0)
    global_step = 0
    learn_events = 0
    ep_max = np.empty(config.episodes)
    ep_eps = np.empty(config.episodes)
    ep_loss = np.full(config.episodes, np.nan)
    best_p = -1.0
    best_seq = None
    best_episode = -1

    for episode in range(config.episodes):
        psi = np.zeros(spec.n, dtype=complex)
        psi[0] = 1.0
        state = encode_state(psi)
        actions_taken = np.empty(length, dtype=np.int64)
        losses = []
        max_p = 0.0
        steps_done = 0
        for t in range(length):
            a = epsilon_greedy(net, state, epsilon, gen)
            psi = cache.unitaries[a] @ psi
            if noise is not None:
                gate = sample_noise_gate(noise, spec.n, gen)
                if gate is not None:
                    psi = gate * psi
            p = float(np.abs(psi[-1]) ** 2)
            terminal = t == length - 1 or (
                config.fidelity_threshold > 0.0 and p >= config.fidelity_threshold
            )
            next_state = encode_state(psi)
            memory.push(
                Experience(
                    state=state,
                    action=a,
                    reward=config.reward(p),
                    next_state=next_state,
                    terminal=terminal,
                )
            )
            state = next_state
            actions_taken[t] = a
            steps_done = t + 1
            max_p = max(max_p, p)

            global_step += 1
            if len(memory) >= config.minibatch and global_step % config.learning_period == 0:
                batch = memory.sample(config.minibatch, gen)
                losses.append(td_update(net, target_net, batch, config.gamma, config.learning_rate))
                learn_events += 1
                epsilon = config.epsilon_after(learn_events)
                if learn_events % config.target_sync_period == 0:
                    target_net.copy_from(net)
            if terminal:
                break

        ep_max[episode] = max_p
        ep_eps[episode] = epsilon
        if losses:
            ep_loss[episode] = float(np.mean(losses))
        if max_p > best_p:
            best_p = max_p
            best_seq = actions_taken[:steps_done].copy()
            best_episode = episode

    return TrainRecord(
        network=net,
        target_network=target_net,
        best_sequence=best_seq,
        best_probability=best_p,
        best_episode=best_episode,
        episode_max_probability=ep_max,
        episode_epsilon=ep_eps,
        episode_loss=ep_loss,
        learn_events=learn_events,
    )


def greedy_policy(net: QNetwork):
    """The learned policy as a batch map: (R, n) states to R greedy action ids,
    from one ``q_batch`` call; ties resolve to the lowest id."""

    def policy(states: np.ndarray) -> np.ndarray:
        return np.argmax(net.q_batch(encode_state(states)), axis=1)

    return policy


def greedy_rollout(
    net: QNetwork,
    action_set: ActionSet,
    spec: ChainSpec,
    noise: NoiseModel | None = None,
    rng: RandomStream | None = None,
    cache: PropagatorCache | None = None,
) -> tuple[np.ndarray, Trajectory]:
    """Run the learned policy for one full sequence (no exploration).

    Under noise the policy reacts to the realized, dephased state at each
    step, which is exactly what separates a feedback controller from a
    fixed pulse program.  Returns the action sequence and its trajectory.
    The single-run case of :func:`evolve_lockstep`.
    """
    if cache is None:
        cache = build_cache(action_set, spec)
    rngs = None if noise is None or rng is None else [rng]
    run = evolve_lockstep(cache.unitaries, greedy_policy(net), spec.n_steps, noise, rngs)
    return run.actions[0], run.trajectory(0, spec.dt)
