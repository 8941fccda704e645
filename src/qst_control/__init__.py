"""Control-sequence design for single-excitation state transfer on XX chains.

The package is organised in three layers:

* exact dynamics of the controlled chain (``chain``, ``actions``, ``noise``),
* sequence optimizers (``ga`` for the genetic algorithm, ``dqn`` and ``qnet``
  for the deep Q-network),
* experiment orchestration (``harness``, ``config``, ``reporting``, ``cli``).
"""

from .chain import (
    ChainSpec,
    Trajectory,
    averaged_fidelity,
    build_step_hamiltonian,
    evolve_population,
    evolve_sequence,
    free_evolution_baseline,
    free_peak,
    free_transfer_probability,
    step_propagator,
)
from .actions import ActionSet, PropagatorCache, build_cache, site_by_site_set, zhang16_set
from .noise import NoiseModel, sample_noise_gate
from .rng import RandomStream

__all__ = [
    "ActionSet",
    "ChainSpec",
    "NoiseModel",
    "PropagatorCache",
    "RandomStream",
    "Trajectory",
    "averaged_fidelity",
    "build_cache",
    "build_step_hamiltonian",
    "evolve_population",
    "evolve_sequence",
    "free_evolution_baseline",
    "free_peak",
    "free_transfer_probability",
    "sample_noise_gate",
    "site_by_site_set",
    "step_propagator",
    "zhang16_set",
]

__version__ = "0.1.0"
