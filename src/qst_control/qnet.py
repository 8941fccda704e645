"""Minimal fully connected Q-network: float64, two ReLU layers, plain SGD.

There is deliberately no autograd framework underneath.  The network is
three weight matrices and bias vectors with hand-derived backprop, which
keeps the update rule auditable and lets tests compare analytic gradients
against finite differences.  All parameters live in one flat array, so
target-network synchronization is one byte-exact array copy, the SGD step
one in-place subtraction and a finiteness check one pass.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .rng import RandomStream


def _layers(flat: np.ndarray, sizes) -> tuple[tuple, tuple]:
    """Per-layer (weights, biases) views into a parameter-shaped flat array,
    laid out w0, b0, w1, b1, w2, b2, each weight matrix (fan_out, fan_in)."""
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at : at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return tuple(weights), tuple(biases)


def _flatten(weights, biases) -> np.ndarray:
    """The flat float64 array that :func:`_layers` splits back into these layers."""
    return np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair], dtype=float)


class Gradients:
    """Per-layer gradients as views into one flat array ``flat``, laid out
    like :attr:`QNetwork.params`; unpacks as (weight_grads, bias_grads)."""

    __slots__ = ("flat", "weights", "biases")

    def __init__(self, flat: np.ndarray, sizes) -> None:
        self.flat = flat
        self.weights, self.biases = _layers(flat, sizes)

    def __iter__(self):
        return iter((self.weights, self.biases))


class QNetwork:
    """State-action value network q(s)[a].

    Architecture: n_inputs -> hidden1 (ReLU) -> hidden2 (ReLU) ->
    n_outputs (linear).  Weights and biases initialize uniformly in
    [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer.  ``params`` holds every
    parameter; ``weights[i]`` and ``biases[i]`` are writable views into it.
    """

    def __init__(
        self,
        n_inputs: int,
        hidden1: int,
        hidden2: int,
        n_outputs: int,
        rng: "RandomStream | np.random.Generator",
    ) -> None:
        sizes = (n_inputs, hidden1, hidden2, n_outputs)
        if any(int(s) < 1 for s in sizes):
            raise ValueError(f"all layer sizes must be positive, got {sizes}")
        gen = rng.generator() if isinstance(rng, RandomStream) else rng
        self.sizes = tuple(int(s) for s in sizes)
        weights, biases = [], []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            weights.append(gen.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(gen.uniform(-bound, bound, size=fan_out))
        self._bind(_flatten(weights, biases))

    def _bind(self, params: np.ndarray) -> None:
        self.params = params
        self.weights, self.biases = _layers(params, self.sizes)

    @property
    def n_inputs(self) -> int:
        return self.sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.sizes[-1]

    def _forward(self, x: np.ndarray):
        """Batched forward pass; returns q values and both hidden activations."""
        (w0, w1, w2), (b0, b1, b2) = self.weights, self.biases
        h1 = x @ w0.T
        h1 += b0
        np.maximum(h1, 0.0, out=h1)
        h2 = h1 @ w1.T
        h2 += b1
        np.maximum(h2, 0.0, out=h2)
        q = h2 @ w2.T
        q += b2
        return q, h1, h2

    def q_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        if states.ndim != 2 or states.shape[1] != self.n_inputs:
            raise ValueError(f"states must have shape (B, {self.n_inputs}), got {states.shape}")
        return self._forward(states)[0]

    def q_values(self, state: np.ndarray) -> np.ndarray:
        return self.q_batch(np.asarray(state, dtype=float)[None, :])[0]

    def loss_and_gradients(self, states, actions, targets):
        """Mean squared TD error on the chosen actions, with its gradients.

        loss = mean_i (q(s_i)[a_i] - target_i)^2

        Returns (loss, Gradients): the gradients unpack as (weight_grads,
        bias_grads), ordered like ``weights`` and ``biases``, and are views
        into a flat array allocated by this call, so they outlive later calls.
        """
        states = np.asarray(states, dtype=float)
        actions = np.asarray(actions, dtype=np.int64)
        targets = np.asarray(targets, dtype=float)
        batch = states.shape[0]
        q, h1, h2 = self._forward(states)
        rows = np.arange(batch)
        err = q[rows, actions] - targets
        loss = float((err * err).sum()) / batch  # the bits of np.mean(err**2)

        g = np.zeros_like(q)
        g[rows, actions] = 2.0 * err / batch
        grads = Gradients(np.empty(self.params.size), self.sizes)
        weight_grads, bias_grads = grads.weights, grads.biases
        acts = (states, h1, h2)
        for li in (2, 1, 0):
            np.matmul(g.T, acts[li], out=weight_grads[li])
            g.sum(axis=0, out=bias_grads[li])
            if li > 0:
                # ReLU mask: acts[li] holds the post-activation values
                g = g @ self.weights[li]
                np.multiply(g, acts[li] > 0.0, out=g)
        return loss, grads

    def apply_gradients(self, grads: Gradients, learning_rate: float) -> None:
        """Plain SGD on what :meth:`loss_and_gradients` returned: ``params -= learning_rate * grads``."""
        self.params -= learning_rate * grads.flat

    # ------------------------------------------------------------- copies

    def clone(self) -> "QNetwork":
        other = object.__new__(QNetwork)
        other.sizes = self.sizes
        other._bind(self.params.copy())
        return other

    def copy_from(self, other: "QNetwork") -> None:
        if self.sizes != other.sizes:
            raise ValueError(f"size mismatch: {self.sizes} vs {other.sizes}")
        self.params[...] = other.params

    # -------------------------------------------------------- persistence

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"sizes": np.array(self.sizes)}
        for i, w in enumerate(self.weights):
            payload[f"w{i}"] = w
        for i, b in enumerate(self.biases):
            payload[f"b{i}"] = b
        np.savez(path, **payload)
