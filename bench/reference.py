"""Independent reference for the benchmark's correctness checks.

Nothing here imports ``qst_control``.  The model is rebuilt from its
documented definition:

* the one-excitation XX block has ``-2 J`` on the first off-diagonals and
  ``+2 h_k`` on the diagonal, and one step applies ``exp(+i H dt)``;
* the transmission probability is ``|psi[n-1]|^2`` and a trajectory's
  figure of merit is its maximum over the steps;
* a noisy run draws from a Philox generator keyed ``(seed, stream_id)``,
  where the id of substream ``(i1, i2, ...)`` is the parent id mixed with
  each index in turn by one splitmix64 round;
* each step draws one activation variate, then ``n`` phase variates on
  ``U[-1, 1]`` only when the activation variate is below ``p``;
* the greedy policy takes the first maximum of a two-ReLU-layer network fed
  ``(Re psi, Im psi)``.

Propagators come from ``scipy.linalg.expm`` (the library uses an
eigendecomposition), and the step loop keeps the state as a column
vector.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

MASK64 = (1 << 64) - 1
TAG_VALIDATION = 3


def hamiltonian(n: int, coupling: float, fields) -> np.ndarray:
    """One-excitation block for one step with per-site ``fields``."""
    h = np.zeros((n, n))
    for k in range(n - 1):
        h[k, k + 1] = h[k + 1, k] = -2.0 * coupling
    for k in range(n):
        h[k, k] = 2.0 * fields[k]
    return h


def site_by_site_fields(n: int, h: float) -> np.ndarray:
    """(n + 1, n) field table: row 0 is free, row k drives site k - 1."""
    table = np.zeros((n + 1, n))
    for k in range(1, n + 1):
        table[k, k - 1] = h
    return table


def propagators(fields: np.ndarray, coupling: float, dt: float) -> np.ndarray:
    """``expm(+i H dt)`` for every row of the field table."""
    n = fields.shape[1]
    return np.stack([expm(1j * dt * hamiltonian(n, coupling, f)) for f in fields])


def n_steps(n: int, dt: float) -> int:
    """Sequence length: the number of dt-steps in the deadline 0.75 n."""
    steps = int(0.75 * n / dt)
    while steps * dt < 0.75 * n - 1e-9:
        steps += 1
    return steps


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def substream_id(parent_id: int, *indices: int) -> int:
    acc = parent_id & MASK64
    for i in indices:
        acc = splitmix64(acc ^ (i & MASK64))
    return acc


def philox(seed: int, stream_id: int) -> np.random.Generator:
    key = np.array([seed & MASK64, stream_id & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def relu_q(weights, biases, x: np.ndarray) -> np.ndarray:
    """Q values of one state; ``weights[i]`` is (fan_out, fan_in)."""
    h = np.asarray(x, dtype=float)
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = np.dot(w, h) + b
        if i < len(weights) - 1:
            h = np.where(h > 0.0, h, 0.0)
    return h


def rollout(unitaries: np.ndarray, length: int, actions=None, net=None,
            noise=None, gen: np.random.Generator | None = None) -> np.ndarray:
    """Per-step transmission probabilities of one run.

    Exactly one of ``actions`` (a fixed sequence) and ``net`` (a
    ``(weights, biases)`` pair for the greedy policy) is given.  ``noise``
    is ``(p, delta)`` with ``gen`` the run's generator, or None.
    """
    n = unitaries.shape[1]
    psi = np.zeros((n, 1), dtype=complex)
    psi[0, 0] = 1.0
    probs = np.empty(length)
    for t in range(length):
        if actions is not None:
            a = int(actions[t])
        else:
            q = relu_q(net[0], net[1], np.concatenate([psi[:, 0].real, psi[:, 0].imag]))
            a = int(np.flatnonzero(q == q.max())[0])
        psi = np.dot(unitaries[a], psi)
        if noise is not None:
            p, delta = noise
            if gen.random() < p:
                psi = psi * np.exp(1j * delta * gen.uniform(-1.0, 1.0, n))[:, None]
        probs[t] = abs(psi[n - 1, 0]) ** 2
    return probs


def validation_run(unitaries, length, root_seed: int, cell: int, run: int,
                   p: float, delta: float, actions=None, net=None) -> float:
    """Trajectory maximum of run ``run`` of validation cell ``cell``."""
    gen = philox(root_seed, substream_id(0, TAG_VALIDATION, cell, run))
    probs = rollout(unitaries, length, actions=actions, net=net, noise=(p, delta), gen=gen)
    return float(probs.max())
