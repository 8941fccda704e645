"""Stochastic dephasing applied between control steps.

Each control step is followed, with probability ``p``, by one realization
of a random dephasing gate: independent phases ``exp(i delta xi_k)`` with
``xi_k ~ U[-1, 1]`` on every site.  The gate is diagonal in the site basis,
so it never moves population between sites; it scrambles the phase
coherences the transfer protocol relies on.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass

import numpy as np

from .bounds import NONNEGATIVE, UNIT, Checked, bounded


@dataclass(frozen=True)
class NoiseModel(Checked):
    """Per-step dephasing: activation probability ``p``, phase scale ``delta``."""

    p: float = bounded(MISSING, UNIT)
    delta: float = bounded(MISSING, NONNEGATIVE)


def sample_noise_gate(model: NoiseModel, n: int, gen: np.random.Generator) -> np.ndarray | None:
    """Draw one step's dephasing gate from ``gen``.

    Returns the length-n diagonal of the gate (unit-modulus phases) when
    the step is active, or None for an identity step.

    The activation variate is drawn unconditionally, even when p = 0 or
    p = 1, so trajectories driven by the same stream stay draw-aligned
    when only ``p`` changes; the n phase variates are drawn only on
    activation.
    """
    zeta = gen.random()
    if zeta >= model.p:
        return None
    xi = gen.uniform(-1.0, 1.0, n)
    return np.exp(1j * model.delta * xi)
