"""Correctness checks on one round's outputs.

Each check returns None when it passes and a one-line reason when it
fails.  Every expected value comes from :mod:`reference`, from the
round's own outputs (for internal consistency), or from a closed form.
"""

from __future__ import annotations

import numpy as np

import reference

TOL_UNITARY = 1e-10
TOL_DESIGN = 1e-10
TOL_REPLAY = 1e-9
TOL_STATS = 1e-12


def cache(unitaries: np.ndarray, expected: np.ndarray) -> str | None:
    """Cache unitaries match ``expm`` and are unitary."""
    unitaries = np.asarray(unitaries)
    if unitaries.shape != expected.shape:
        return f"cache shape {unitaries.shape}, expected {expected.shape}"
    diff = float(np.max(np.abs(unitaries - expected)))
    if not diff <= TOL_UNITARY:
        return f"cache differs from expm by {diff:.3e}"
    eye = np.eye(unitaries.shape[1])
    defect = max(float(np.max(np.abs(u @ u.conj().T - eye))) for u in unitaries)
    if not defect <= TOL_UNITARY:
        return f"cache unitarity defect {defect:.3e}"
    return None


def design(design_p: float, clean_p: float, ref_unitaries, length: int,
           actions=None, net=None) -> str | None:
    """The designed controller's clean transfer probability re-evolves.

    ``design_p`` is what the optimizer reported and ``clean_p`` the
    library's noise-free rollout of the controller; both must match the
    reference trajectory maximum.
    """
    if actions is not None and len(actions) != length:
        return f"designed sequence has {len(actions)} steps, expected {length}"
    ref = float(reference.rollout(ref_unitaries, length, actions=actions, net=net).max())
    for label, value in (("design", design_p), ("clean rollout", clean_p)):
        if not abs(value - ref) <= TOL_DESIGN:
            return f"{label} probability {value!r} differs from the reference {ref!r}"
    return None


def clean_cells(cells: np.ndarray, clean_p: float) -> str | None:
    """Cells with p = 0 or delta = 0 are noiseless: std 0, mean exactly clean.

    ``cells`` rows are (p, delta, mean, std).
    """
    for p, delta, mean, std in cells:
        if p == 0.0 or delta == 0.0:
            if std != 0.0 or mean != clean_p:
                return f"cell (p={p}, delta={delta}) has mean {mean!r}, std {std!r}; clean is {clean_p!r}"
    return None


def cell_stats(cells: np.ndarray, per_run: np.ndarray) -> str | None:
    """Each cell's mean and std summarize its own per-run values (ddof 0)."""
    if per_run.shape[0] != cells.shape[0]:
        return f"{per_run.shape[0]} per-run rows for {cells.shape[0]} cells"
    for (p, delta, mean, std), runs in zip(cells, per_run):
        if not (abs(mean - runs.mean()) <= TOL_STATS and abs(std - runs.std()) <= TOL_STATS):
            return f"cell (p={p}, delta={delta}) stats ({mean!r}, {std!r}) do not match its runs"
    return None


def replay(per_run: np.ndarray, cells: np.ndarray, samples, ref_unitaries, length: int,
           root_seed: int, actions=None, net=None) -> str | None:
    """Sampled noisy runs replay from the documented draw order."""
    for c, r in samples:
        p, delta = cells[c, 0], cells[c, 1]
        ref = reference.validation_run(ref_unitaries, length, root_seed, c, r, p, delta,
                                       actions=actions, net=net)
        if not abs(per_run[c, r] - ref) <= TOL_REPLAY:
            return f"cell {c} run {r}: {per_run[c, r]!r} vs reference {ref!r}"
    return None


def probabilities(**arrays) -> str | None:
    """Every reported probability is finite and lies in [0, 1]."""
    for label, values in arrays.items():
        values = np.asarray(values, dtype=float)
        if not (np.all(np.isfinite(values)) and np.all(values >= 0.0) and np.all(values <= 1.0)):
            return f"{label} has a value outside [0, 1]"
    return None


def learn_events(count: int, env_steps: int, period: int, minibatch: int) -> str | None:
    """Learning fires on every ``period``-th global step once the replay
    memory holds a minibatch, i.e. at steps g >= minibatch with g % period == 0."""
    expected = env_steps // period - (minibatch - 1) // period
    if count != expected:
        return f"{count} learning events, expected {expected}"
    return None


def generations(counts, budget: int) -> str | None:
    """Every GA run used its whole generation budget (so the step count holds)."""
    if any(int(g) != budget for g in counts):
        return f"GA generations {list(counts)}, expected {budget} each"
    return None
