"""Independent reference implementations used to cross-check the package.

The propagator oracle is a Taylor series, the Hamiltonian oracle builds
the full 2^n-dimensional operator from Pauli matrices and projects it, the
optimum oracle is exhaustive enumeration (scored with the package's
``evolve_sequence``), and the rollout oracle is the plain one-run-at-a-time
step loop.  The rollout oracle draws its gates through the package's
``sample_noise_gate``, whose draw order ``tests/test_noise.py`` pins: it is
the order the lock-step kernel must reproduce.  The per-cell validation
oracle steps each grid cell on its own, whose bits the stacked validation
must keep.  The training oracle is the DQN loop on per-array networks
and a per-array replay ring, whose bits ``dqn.train`` must keep.
The offspring oracle is the GA's per-child operator loop, whose children
and generator state the bulk offspring path must keep.  ``state_equal``
and ``replay_contents`` read a Q-network's parameters and a replay
memory's ring.  Deliberately slow and simple.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def taylor_expm_scaled(a: np.ndarray, terms: int = 30) -> np.ndarray:
    """exp(a) via a 30-term Taylor series with scaling and squaring.

    The argument is halved until its 1-norm is at most 0.5, the series is
    summed, and the result squared back up.  At ||b|| <= 0.5 the 30-term
    truncation error is below 1e-40, so all visible error is roundoff.
    """
    a = np.asarray(a, dtype=complex)
    dim = a.shape[0]
    norm = np.linalg.norm(a, 1)
    s = 0
    while norm / (2.0**s) > 0.5:
        s += 1
    b = a / (2.0**s)
    out = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, terms):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def propagator_oracle(h_matrix: np.ndarray, tau: float) -> np.ndarray:
    """Reference step propagator exp(+i H tau)."""
    return taylor_expm_scaled(1j * tau * np.asarray(h_matrix, dtype=complex))


def pauli_block_hamiltonian(n: int, coupling: float, fields) -> np.ndarray:
    """One-excitation block of the full 2^n XX Hamiltonian.

    Builds H = -J sum_k (sx_k sx_{k+1} + sy_k sy_{k+1}) + sum_k h_k sz_k
    from explicit Pauli matrices (sz convention: the excited state has
    eigenvalue +1) and projects onto the span of the one-excitation basis
    states.  Site k is bit k of the computational-basis index.

    Note the projected block equals the package's chain Hamiltonian minus
    the uniform shift sum(h) * I that the package drops as a global phase.
    """
    fields = np.asarray(fields, dtype=float)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[-1, 0], [0, 1]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def site_op(op: np.ndarray, k: int) -> np.ndarray:
        out = np.array([[1.0 + 0j]])
        for j in range(n):
            out = np.kron(op if j == k else eye, out)
        return out

    dim = 2**n
    h_full = np.zeros((dim, dim), dtype=complex)
    for k in range(n - 1):
        h_full -= coupling * (site_op(sx, k) @ site_op(sx, k + 1) + site_op(sy, k) @ site_op(sy, k + 1))
    for k in range(n):
        h_full += fields[k] * site_op(sz, k)
    basis = [1 << k for k in range(n)]
    block = h_full[np.ix_(basis, basis)]
    assert np.max(np.abs(block.imag)) < 1e-13
    return block.real


def enumerate_best(cache, length: int):
    """Exhaustive search over every action sequence of the given length.

    Returns (best_max_probability, best_sequence); ties keep the first
    sequence in lexicographic order.
    """
    from qst_control.chain import evolve_sequence

    n_actions = cache.unitaries.shape[0]
    best_p = -1.0
    best_seq = None
    for seq in itertools.product(range(n_actions), repeat=length):
        traj = evolve_sequence(np.array(seq), cache)
        if traj.max_probability > best_p:
            best_p = traj.max_probability
            best_seq = seq
    return best_p, np.array(best_seq)


def rollout_oracle(unitaries, n_steps: int, choose, noise=None, gen=None):
    """One run, one step at a time: ``psi = U[a] @ psi``, then the step's
    gate from ``sample_noise_gate``, then record ``|psi[-1]|^2``.

    ``choose(t, psi)`` returns step t's action id.  Returns the action ids
    and the per-step probabilities.
    """
    from qst_control.noise import sample_noise_gate

    n = unitaries.shape[1]
    psi = np.zeros(n, dtype=complex)
    psi[0] = 1.0
    seq = np.empty(n_steps, dtype=np.int64)
    probs = np.empty(n_steps)
    for t in range(n_steps):
        a = choose(t, psi)
        psi = unitaries[a] @ psi
        if noise is not None:
            gate = sample_noise_gate(noise, n, gen)
            if gate is not None:
                psi = gate * psi
        seq[t] = a
        probs[t] = np.abs(psi[-1]) ** 2
    return seq, probs


def fixed_choice(sequence):
    """``choose`` for a fixed pulse program."""
    return lambda t, psi: int(sequence[t])


def greedy_choice(net):
    """``choose`` for the greedy policy: one ``q_values`` call per step."""
    return lambda t, psi: int(np.argmax(net.q_values(np.concatenate([psi.real, psi.imag]))))


def validation_oracle(choose, cache, stream, p_values, delta_values, n_runs: int) -> np.ndarray:
    """(cells, runs) trajectory maxima, run r of cell c on substream (3, c, r)."""
    from qst_control.harness import TAG_VALIDATION
    from qst_control.noise import NoiseModel

    grid = [(p, d) for p in p_values for d in delta_values]
    out = np.empty((len(grid), n_runs))
    for c, (p, d) in enumerate(grid):
        for r in range(n_runs):
            gen = stream.substream(TAG_VALIDATION, c, r).generator()
            _, probs = rollout_oracle(
                cache.unitaries, cache.spec.n_steps, choose, NoiseModel(p, d), gen
            )
            out[c, r] = probs.max()
    return out


def per_cell_validation(controller, cache, stream, p_values, delta_values, n_runs: int) -> np.ndarray:
    """(cells, runs) trajectory maxima, one ``evolve_lockstep`` call per noisy
    cell with that cell's model and keys; noiseless cells repeat the clean
    maximum."""
    from qst_control.chain import evolve_lockstep
    from qst_control.harness import TAG_VALIDATION
    from qst_control.noise import NoiseModel

    clean = controller.rollout(cache)
    grid = [(p, d) for p in p_values for d in delta_values]
    out = np.full((len(grid), n_runs), clean.max_probability)
    for c, (p, d) in enumerate(grid):
        if p > 0.0 and d > 0.0:
            keys = stream.substream_keys(TAG_VALIDATION, c, count=n_runs)
            run = evolve_lockstep(
                cache.unitaries, controller.actions(), len(clean.probabilities), NoiseModel(p, d), keys
            )
            out[c] = run.probabilities.max(axis=1)
    return out


def offspring_oracle(config, genes, fit, mutated_genes: int, gen):
    """Elite indices and children of one GA generation, one child at a time."""
    from qst_control.ga import select_parents_sss, swap_mutation, uniform_crossover

    ranked = select_parents_sss(fit, max(config.parents_mating, config.keep_elitism))
    pool = genes[ranked[: config.parents_mating]]
    children = []
    for _ in range(config.population_size - config.keep_elitism):
        i = int(gen.integers(0, len(pool)))
        j = int(gen.integers(0, len(pool) - 1))
        if j >= i:
            j += 1
        child = uniform_crossover(pool[i], pool[j], config.crossover_probability, gen)
        children.append(swap_mutation(child, config.mutation_probability, mutated_genes, gen))
    return ranked[: config.keep_elitism], np.array(children, dtype=np.int64).reshape(-1, genes.shape[1])


def state_equal(a, b) -> bool:
    """Exact (bit-for-bit) parameter equality of two Q-networks."""
    if a.sizes != b.sizes:
        return False
    pairs = list(zip(a.weights, b.weights)) + list(zip(a.biases, b.biases))
    return all(x.tobytes() == y.tobytes() for x, y in pairs)


def replay_contents(memory) -> list:
    """Transitions stored in a ``ReplayMemory``, oldest first."""
    from qst_control.dqn import Experience

    if len(memory) < memory.capacity:
        order = range(len(memory))
    else:
        order = [(memory._pos + i) % memory.capacity for i in range(memory.capacity)]
    return [
        Experience(
            state=memory._states[i].copy(),
            action=int(memory._actions[i]),
            reward=float(memory._rewards[i]),
            next_state=memory._next_states[i].copy(),
            terminal=bool(memory._terminals[i]),
        )
        for i in order
    ]


class _PerArrayNet:
    """The Q-network as separate per-layer weight and bias arrays: the
    per-array forward, backward and SGD update that ``QNetwork``'s flat
    storage must reproduce bit for bit."""

    def __init__(self, sizes, gen) -> None:
        self.sizes = tuple(sizes)
        self.weights, self.biases = [], []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            self.weights.append(gen.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(gen.uniform(-bound, bound, size=fan_out))

    def clone(self) -> "_PerArrayNet":
        other = object.__new__(_PerArrayNet)
        other.sizes = self.sizes
        other.weights = [w.copy() for w in self.weights]
        other.biases = [b.copy() for b in self.biases]
        return other

    def copy_from(self, other) -> None:
        for mine, theirs in zip(self.weights + self.biases, other.weights + other.biases):
            mine[...] = theirs

    def forward(self, x):
        acts = [x]
        h = x
        last = len(self.weights) - 1
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.T + b
            if li < last:
                np.maximum(h, 0.0, out=h)
                acts.append(h)
        return h, acts

    def loss_and_gradients(self, states, actions, targets):
        batch = states.shape[0]
        q, acts = self.forward(states)
        rows = np.arange(batch)
        err = q[rows, actions] - targets
        loss = float(np.mean(err**2))
        grad_q = np.zeros_like(q)
        grad_q[rows, actions] = 2.0 * err / batch
        weight_grads = [None] * len(self.weights)
        bias_grads = [None] * len(self.biases)
        g = grad_q
        for li in range(len(self.weights) - 1, -1, -1):
            weight_grads[li] = g.T @ acts[li]
            bias_grads[li] = g.sum(axis=0)
            if li > 0:
                g = (g @ self.weights[li]) * (acts[li] > 0.0)
        return loss, (weight_grads, bias_grads)

    def apply_gradients(self, grads, learning_rate) -> None:
        weight_grads, bias_grads = grads
        for w, gw in zip(self.weights, weight_grads):
            w -= learning_rate * gw
        for b, gb in zip(self.biases, bias_grads):
            b -= learning_rate * gb


class _PerArrayReplay:
    """The replay ring with separate state and next-state arrays."""

    def __init__(self, capacity: int, state_dim: int) -> None:
        self.capacity = capacity
        self.states = np.empty((capacity, state_dim))
        self.actions = np.empty(capacity, dtype=np.int64)
        self.rewards = np.empty(capacity)
        self.next_states = np.empty((capacity, state_dim))
        self.terminals = np.empty(capacity, dtype=bool)
        self.size = 0
        self.pos = 0

    def push(self, state, action, reward, next_state, terminal) -> None:
        i = self.pos
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.terminals[i] = terminal
        self.pos = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, k: int, gen):
        idx = gen.choice(self.size, size=k, replace=False)
        return (self.states[idx], self.actions[idx], self.rewards[idx],
                self.next_states[idx], self.terminals[idx])


def _td_update_oracle(net, target_net, batch, gamma, learning_rate) -> float:
    states, actions, rewards, next_states, terminals = batch
    q_next, _ = target_net.forward(next_states)
    targets = rewards + gamma * q_next.max(axis=1) * ~terminals
    loss, grads = net.loss_and_gradients(states, actions, targets)
    if not np.isfinite(loss):
        raise RuntimeError(
            f"non-finite TD loss ({loss}); the network has diverged, lower the learning rate"
        )
    for arrs in grads:
        for g in arrs:
            if not np.all(np.isfinite(g)):
                raise RuntimeError("non-finite gradients; the network has diverged")
    net.apply_gradients(grads, learning_rate)
    return loss


def train_oracle(config, action_set, spec, seed):
    """``dqn.train`` one step at a time on per-array networks.

    Every state is encoded twice (as the step's state, then as the next
    state), every gradient array is checked on its own and updated on its
    own.  Returns a namespace with the online and target ``weights`` and
    ``biases``, the per-episode arrays, the best sequence and episode, the
    number of completed learning events, and ``error``: the message of the
    ``RuntimeError`` a diverging update raised (None if none did), in which
    case the networks and ``learn_events`` are those at the raise.
    """
    from types import SimpleNamespace

    from qst_control.actions import build_cache
    from qst_control.noise import sample_noise_gate
    from qst_control.rng import as_stream

    gen = as_stream(seed).generator()
    cache = build_cache(action_set, spec)
    length = spec.n_steps
    noise = config.noise_model()
    net = _PerArrayNet((2 * spec.n, config.hidden1, config.resolved_hidden2, len(action_set)), gen)
    target_net = net.clone()
    memory = _PerArrayReplay(config.replay_capacity, 2 * spec.n)

    def encode(psi):
        return np.concatenate([psi.real, psi.imag])

    epsilon = config.epsilon_after(0)
    global_step = learn_events = 0
    ep_max = np.empty(config.episodes)
    ep_eps = np.empty(config.episodes)
    ep_loss = np.full(config.episodes, np.nan)
    best_p, best_seq, best_episode = -1.0, None, -1
    error = None
    try:
        for episode in range(config.episodes):
            psi = np.zeros(spec.n, dtype=complex)
            psi[0] = 1.0
            actions_taken = np.empty(length, dtype=np.int64)
            losses = []
            max_p = 0.0
            steps_done = 0
            for t in range(length):
                state = encode(psi)
                if gen.random() < epsilon:
                    a = int(gen.integers(0, len(action_set)))
                else:
                    q, _ = net.forward(state[None, :])
                    a = int(np.argmax(q[0]))
                psi = cache.unitaries[a] @ psi
                if noise is not None:
                    gate = sample_noise_gate(noise, spec.n, gen)
                    if gate is not None:
                        psi = gate * psi
                p = float(np.abs(psi[-1]) ** 2)
                terminal = t == length - 1 or (
                    config.fidelity_threshold > 0.0 and p >= config.fidelity_threshold
                )
                memory.push(state, a, config.reward(p), encode(psi), terminal)
                actions_taken[t] = a
                steps_done = t + 1
                max_p = max(max_p, p)
                global_step += 1
                if memory.size >= config.minibatch and global_step % config.learning_period == 0:
                    batch = memory.sample(config.minibatch, gen)
                    losses.append(_td_update_oracle(net, target_net, batch, config.gamma, config.learning_rate))
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
    except RuntimeError as exc:
        error = str(exc)
    return SimpleNamespace(
        network=net,
        target_network=target_net,
        best_sequence=best_seq,
        best_episode=best_episode,
        episode_max_probability=ep_max,
        episode_epsilon=ep_eps,
        episode_loss=ep_loss,
        learn_events=learn_events,
        error=error,
    )
