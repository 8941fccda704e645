"""Control actions: which sites get a field during one step.

An action is a per-site field pattern held constant for one step.  Two
families are provided:

* ``site_by_site``: n+1 actions; action 0 applies no field, action k
  (1 <= k <= n) applies the field to site k alone.  This is the fine-grained
  set whose size grows with the chain.
* ``zhang16``: a fixed 16-action set for chains with n >= 6, acting only
  near the ends.  Action 0 is free evolution and action 15 drives all
  sites.  Actions 1-7 switch subsets of the first three sites: the binary
  digits of the id select sites 1-3, bit b (value 2^b) mapping to site
  b + 1.  Actions 8-14 mirror that on the last three sites: with
  m = id - 7, bit b of m maps to site n - b, so 8 drives {n}, 9 drives
  {n-1}, 10 drives {n, n-1}, ..., 14 drives {n, n-1, n-2}.

Site numbers in this module's docstrings are 1-based to match the usual
labelling of chain ends; masks are 0-based arrays.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .bounds import bound_of, check
from .chain import ChainSpec, build_step_hamiltonian, step_propagator

_CHAIN_BOUNDS = {f.name: bound_of(f) for f in dataclasses.fields(ChainSpec)}


def _check_chain(n: int, h: float) -> None:
    """Check a set's chain length and field against ``ChainSpec``'s bounds."""
    check(n, _CHAIN_BOUNDS["n"], "n")
    check(h, _CHAIN_BOUNDS["field_strength"], "h")


@dataclass(frozen=True)
class ActionSet:
    """Immutable family of actions for one chain size.

    ``masks`` is the read-only (A, n) matrix of per-site field values, one
    row per action id.
    """

    kind: str
    n: int
    h: float
    masks: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        masks = np.asarray(self.masks, dtype=float)
        masks.setflags(write=False)
        object.__setattr__(self, "masks", masks)

    def __len__(self) -> int:
        return len(self.masks)


def site_by_site_set(n: int, h: float = 100.0) -> ActionSet:
    """The n+1 single-site actions (0 = no field, k = field on site k)."""
    _check_chain(n, h)
    masks = np.zeros((n + 1, n))
    masks[np.arange(1, n + 1), np.arange(n)] = h
    return ActionSet(kind="site_by_site", n=n, h=h, masks=masks)


def zhang16_sites(action_id: int, n: int) -> tuple[int, ...]:
    """0-based driven sites of zhang16 action ``action_id`` on an n-chain."""
    if not 0 <= action_id <= 15:
        raise ValueError(f"zhang16 ids run 0..15, got {action_id}")
    if action_id == 0:
        return ()
    if action_id == 15:
        return tuple(range(n))
    if action_id <= 7:
        return tuple(b for b in range(3) if action_id >> b & 1)
    m = action_id - 7
    return tuple(sorted(n - 1 - b for b in range(3) if m >> b & 1))


def zhang16_set(n: int, h: float = 100.0) -> ActionSet:
    """The fixed 16-action end-control set (requires n >= 6).

    The lower bound keeps the head block (sites 1-3) and the tail block
    (sites n-2..n) disjoint so all 16 patterns are distinct.
    """
    _check_chain(n, h)
    if n < 6:
        raise ValueError(f"the 16-action set needs n >= 6 so the end blocks do not overlap, got n={n}")
    masks = np.zeros((16, n))
    for a in range(16):
        masks[a, list(zhang16_sites(a, n))] = h
    return ActionSet(kind="zhang16", n=n, h=h, masks=masks)


SET_BUILDERS = {"site_by_site": site_by_site_set, "zhang16": zhang16_set}


def make_action_set(kind: str, n: int, h: float = 100.0) -> ActionSet:
    """Build an action set by family name ('site_by_site' or 'zhang16')."""
    try:
        builder = SET_BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown action set kind {kind!r}; choose from {sorted(SET_BUILDERS)}") from None
    return builder(n, h)


@dataclass(frozen=True)
class PropagatorCache:
    """Precomputed step unitaries, one per action, for a fixed chain and dt.

    Everything downstream (GA fitness, DQN environment, validation
    rollouts) consumes propagators through this cache, so each unitary is
    computed exactly once per experiment and can be shared across threads;
    the arrays are frozen to keep that sharing safe.
    """

    action_set: ActionSet
    spec: ChainSpec
    unitaries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        u = np.ascontiguousarray(self.unitaries, dtype=complex)
        expected = (len(self.action_set), self.spec.n, self.spec.n)
        if u.shape != expected:
            raise ValueError(f"unitaries must have shape {expected}, got {u.shape}")
        u.setflags(write=False)
        object.__setattr__(self, "unitaries", u)

    def __len__(self) -> int:
        return len(self.action_set)

    @property
    def dt(self) -> float:
        return self.spec.dt


def build_cache(action_set: ActionSet, spec: ChainSpec) -> PropagatorCache:
    """Exponentiate every action's step Hamiltonian once."""
    if action_set.n != spec.n:
        raise ValueError(f"action set is for n={action_set.n} but the chain has n={spec.n}")
    unitaries = np.empty((len(action_set), spec.n, spec.n), dtype=complex)
    for a, mask in enumerate(action_set.masks):
        unitaries[a] = step_propagator(build_step_hamiltonian(spec, mask), spec.dt)
    return PropagatorCache(action_set=action_set, spec=spec, unitaries=unitaries)
