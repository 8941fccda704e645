"""Deterministic, splittable random streams.

Every stochastic component in the package (population init, mutation draws,
noise realizations, epsilon-greedy exploration, ...) pulls from a
:class:`RandomStream` rather than from global numpy state.  A stream is a
pure value: the same ``(seed, stream_id)`` pair always produces the same
draw sequence, and substreams derived from different index tuples are
statistically independent, so experiments can hand out generators to
parallel workers without any ordering coupling between them.

The implementation rides on numpy's counter-based Philox bit generator,
keyed directly by ``(seed, stream_id)``.  Substream ids are derived by
mixing the parent id with the index tuple through splitmix64, which is a
bijective avalanche mix, so nearby indices land on unrelated keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x):
    """One splitmix64 mixing round (finalizer only) of an int or, elementwise, a uint64 array."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RandomStream:
    """Value-semantics handle for a reproducible random sequence."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(self.seed).__name__}")
        if not isinstance(self.stream_id, (int, np.integer)):
            raise TypeError(f"stream_id must be an integer, got {type(self.stream_id).__name__}")
        # numpy scalars overflow in the splitmix arithmetic; normalize early
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "stream_id", int(self.stream_id))

    @property
    def key(self) -> np.ndarray:
        """The (2,) uint64 Philox key of this stream."""
        return np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=self.key))

    def substream(self, *indices: int) -> "RandomStream":
        """Child stream for an index tuple, e.g. ``stream.substream(cell, run)``.

        Derivation is deterministic and order-sensitive: ``substream(1, 2)``
        and ``substream(2, 1)`` are different streams, and both differ from
        the parent.
        """
        if not indices:
            raise ValueError("substream requires at least one index")
        acc = self.stream_id & _MASK64
        for idx in indices:
            if not isinstance(idx, (int, np.integer)):
                raise TypeError(f"substream indices must be integers, got {type(idx).__name__}")
            acc = _splitmix64((acc ^ (int(idx) & _MASK64)) & _MASK64)
        return RandomStream(self.seed, acc)

    def substream_keys(self, *prefix: int, count: int) -> np.ndarray:
        """Row r is ``substream(*prefix, r).key``, for r < count: one vectorised pass."""
        acc = self.substream(*prefix).stream_id if prefix else self.stream_id & _MASK64
        keys = np.full((count, 2), self.seed & _MASK64, dtype=np.uint64)
        keys[:, 1] = _splitmix64(np.uint64(acc) ^ np.arange(count, dtype=np.uint64))
        return keys


def as_stream(seed: "int | RandomStream") -> RandomStream:
    """Coerce an integer seed or an existing stream to a RandomStream."""
    if isinstance(seed, RandomStream):
        return seed
    return RandomStream(int(seed))
