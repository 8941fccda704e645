"""The benchmark's workloads: what each one designs and validates.

Every workload runs the steps of ``qst-control validate``: build the
propagator cache, design a controller, then run it through the default
4 x 4 dephasing grid, (p, delta) in {0, 0.125, 0.25, 0.5}^2.  The runs per
cell differ from the command's 100 so that design and validation each take
about half of a round: a run's medians are only as steady as the time its
rounds spend in each phase.

Inputs derive from the ``--seed`` value ``s``:

* GA design streams: ``RandomStream(s)`` for ``multi_seed_ga`` (which
  derives one substream per seed), ``RandomStream(s).substream(100)`` for a
  single ``run_ga`` (the tag ``qst-control validate`` uses);
* validation streams: ``RandomStream(s)``, whose substream
  ``(3, cell, run)`` drives one run;
* DQN training: the fixed stream ``RandomStream(DQN_TRAIN_SEED)``.  With
  the ``DqnConfig`` defaults about a third of training seeds diverge
  (``td_update`` raises on a non-finite loss) within 3000 episodes, and at
  lower learning rates some seeds settle on a constant non-zero action, so
  a seed-dependent training stream would make both the failure count and
  the quality figures depend on the seed.  The seed still varies the
  validation noise.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

GA_POPULATION = 512
GA_DESIGN_TAG = 100
DQN_TRAIN_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "ga-multi" (multi_seed_ga), "ga" (run_ga) or "dqn" (dqn.train)
    n: int
    ga_seeds: int = 0
    generations: int = 0
    population: int = GA_POPULATION
    episodes: int = 0
    parallel: bool = False  # workers = min(2, nproc) instead of 1
    runs: int = 100

    @property
    def workers(self) -> int:
        return min(2, len(os.sched_getaffinity(0))) if self.parallel else 1

    def smoke(self) -> "Workload":
        """A tiny version with the same code path, for the benchmark's tests."""
        return dataclasses.replace(
            self,
            n=min(self.n, 6),
            generations=min(self.generations, 3),
            population=min(self.population, 24),
            episodes=min(self.episodes, 12),
            runs=4,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # GA operators are a large share at n=16; the only thread-pool user.
        Workload("ga-n16", "ga-multi", 16, ga_seeds=2, generations=16, parallel=True, runs=150),
        # evolve_population dominates at n=64, with about 8 rows per action group.
        Workload("ga-n64", "ga", 64, ga_seeds=1, generations=6, runs=50),
        # Q-network training and per-step greedy inference; no batched evolution.
        Workload("dqn-n4", "dqn", 4, episodes=1500, runs=200),
    )
}


def get(name: str, smoke: bool = False) -> Workload:
    wl = WORKLOADS[name]
    return wl.smoke() if smoke else wl
