"""Independent reference implementations used to cross-check the package.

The propagator oracle is a Taylor series, the Hamiltonian oracle builds
the full 2^n-dimensional operator from Pauli matrices and projects it, the
optimum oracle is exhaustive enumeration (scored with the package's
``evolve_sequence``), and the rollout oracle is the plain one-run-at-a-time
step loop.  The rollout oracle draws its gates through the package's
``sample_noise_gate``, whose draw order ``tests/test_noise.py`` pins: it is
the order the lock-step kernel must reproduce.  The per-cell validation
oracle steps each grid cell on its own, whose bits the stacked validation
must keep.  ``state_equal`` and ``replay_contents`` read a Q-network's
parameters and a replay memory's ring.  Deliberately slow and simple.
"""

from __future__ import annotations

import itertools

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
