"""Control-sequence design for single-excitation state transfer on XX chains.

The package is organised in three layers:

* exact dynamics of the controlled chain (``chain``, ``actions``, ``noise``),
* sequence optimizers (``ga`` for the genetic algorithm, ``dqn`` and ``qnet``
  for the deep Q-network),
* experiment orchestration (``harness``, ``config``, ``reporting``, ``cli``).

Importing the package pins OpenBLAS (and OpenMP) to one thread per process
unless the variable is already set, so a value the user sets wins.  The
pin must come before numpy loads: OpenBLAS reads it once, when it starts.
It keeps every product's bits independent of the core count, and it leaves
the second core to the step kernel's helper thread (``chain``).
"""

import os
import sys

# OpenBLAS has already read its thread count if numpy loaded first unpinned
_UNPINNED = "numpy" in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
# whether every BLAS call runs on the thread that makes it
ONE_BLAS_THREAD = not _UNPINNED and os.environ["OPENBLAS_NUM_THREADS"] == "1"

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
