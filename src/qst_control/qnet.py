"""Minimal fully connected Q-network: float64, two ReLU layers, plain SGD.

There is deliberately no autograd framework underneath.  The network is a
list of weight matrices with hand-derived backprop, which keeps the update
rule auditable, lets tests compare analytic gradients against finite
differences, and makes target-network synchronization a byte-exact array
copy instead of a framework-specific state_dict dance.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .rng import RandomStream


class QNetwork:
    """State-action value network q(s)[a].

    Architecture: n_inputs -> hidden1 (ReLU) -> hidden2 (ReLU) ->
    n_outputs (linear).  Weights and biases initialize uniformly in
    [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer.
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
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            self.weights.append(gen.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(gen.uniform(-bound, bound, size=fan_out))

    @property
    def n_inputs(self) -> int:
        return self.sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.sizes[-1]

    def _forward(self, x: np.ndarray):
        """Batched forward pass; returns q values plus per-layer inputs."""
        acts = [x]
        h = x
        last = len(self.weights) - 1
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.T + b
            if li < last:
                np.maximum(h, 0.0, out=h)
                acts.append(h)
        return h, acts

    def q_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        if states.ndim != 2 or states.shape[1] != self.n_inputs:
            raise ValueError(f"states must have shape (B, {self.n_inputs}), got {states.shape}")
        q, _ = self._forward(states)
        return q

    def q_values(self, state: np.ndarray) -> np.ndarray:
        return self.q_batch(np.asarray(state, dtype=float)[None, :])[0]

    def loss_and_gradients(self, states, actions, targets):
        """Mean squared TD error on the chosen actions, with its gradients.

        loss = mean_i (q(s_i)[a_i] - target_i)^2

        Returns (loss, (weight_grads, bias_grads)) with gradient lists
        ordered like the parameter lists.
        """
        states = np.asarray(states, dtype=float)
        actions = np.asarray(actions, dtype=np.int64)
        targets = np.asarray(targets, dtype=float)
        batch = states.shape[0]
        q, acts = self._forward(states)
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
                # ReLU mask: acts[li] holds the post-activation values
                g = (g @ self.weights[li]) * (acts[li] > 0.0)
        return loss, (weight_grads, bias_grads)

    def apply_gradients(self, grads, learning_rate: float) -> None:
        weight_grads, bias_grads = grads
        for w, gw in zip(self.weights, weight_grads):
            w -= learning_rate * gw
        for b, gb in zip(self.biases, bias_grads):
            b -= learning_rate * gb

    # ------------------------------------------------------------- copies

    def clone(self) -> "QNetwork":
        other = object.__new__(QNetwork)
        other.sizes = self.sizes
        other.weights = [w.copy() for w in self.weights]
        other.biases = [b.copy() for b in self.biases]
        return other

    def copy_from(self, other: "QNetwork") -> None:
        if self.sizes != other.sizes:
            raise ValueError(f"size mismatch: {self.sizes} vs {other.sizes}")
        for mine, theirs in zip(self.weights, other.weights):
            mine[...] = theirs
        for mine, theirs in zip(self.biases, other.biases):
            mine[...] = theirs

    def assert_finite(self) -> None:
        for arr in self.weights + self.biases:
            if not np.all(np.isfinite(arr)):
                raise RuntimeError("network parameters contain non-finite values")

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

    @classmethod
    def load(cls, path) -> "QNetwork":
        """Read a network written by :meth:`save`.

        Raises ValueError when the sizes are missing or not the four widths
        that :meth:`__init__` builds, or a layer is missing, misshapen or not
        real floating point; RuntimeError when a parameter is not finite.
        """
        with np.load(path) as data:
            if "sizes" not in data.files:
                raise ValueError(f"{path}: missing sizes")
            sizes = tuple(int(s) for s in data["sizes"])
            if len(sizes) != 4:
                raise ValueError(f"{path}: sizes {sizes} must list 4 layer widths")
            missing = [f"{k}{i}" for i in range(3) for k in "wb" if f"{k}{i}" not in data.files]
            if missing:
                raise ValueError(f"{path}: missing {', '.join(missing)}")
            net = object.__new__(cls)
            net.sizes = sizes
            net.weights = [data[f"w{i}"] for i in range(3)]
            net.biases = [data[f"b{i}"] for i in range(3)]
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            expected = ((f"w{i}", net.weights[i], (fan_out, fan_in)), (f"b{i}", net.biases[i], (fan_out,)))
            for name, arr, shape in expected:
                if arr.dtype.kind != "f" or arr.shape != shape:
                    raise ValueError(f"{path}: {name} is {arr.dtype} {arr.shape}, sizes {sizes} need float {shape}")
        net.assert_finite()
        return net
