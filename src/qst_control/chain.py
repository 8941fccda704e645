"""Exact single-excitation dynamics of a locally controlled XX qubit chain.

Model
-----
A homogeneous chain of ``n`` qubits with nearest-neighbour XX coupling ``J``
and piecewise-constant local magnetic fields.  The total magnetization is
conserved, so with the excitation prepared on the first site the dynamics
stays inside the n-dimensional one-excitation subspace.  In the site basis
``|k> = excitation on site k`` (``k = 0 .. n-1``) the Hamiltonian block is
the real symmetric matrix

    H[k, k+1] = H[k+1, k] = -2 J
    H[k, k]   = +2 h_k

where ``h_k`` is the field applied to site ``k`` during the current step.
The field-independent uniform shift that also appears in the full
Hamiltonian is dropped: it only contributes a global phase and cancels in
every probability.  Sign conventions for the diagonal likewise only relabel
phases; transfer probabilities are invariant.

Time runs in steps of fixed duration ``dt``.  Each step applies the exact
unitary ``U = exp(+i H dt)`` for that step's field pattern, computed by
eigendecomposition, so there is no Trotter error anywhere in the package.

The figure of merit is the transmission probability ``P = |<n-1|psi>|^2``
(excitation found on the last site) and the transfer-averaged fidelity
``f(P) = P/6 + sqrt(P)/3 + 1/2`` for phase-corrected state transfer.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass

import numpy as np

from .bounds import NONNEGATIVE, POSITIVE, Checked, Range, bounded
from .rng import RandomStream
# chain no longer calls sample_noise_gate (_NoiseWalk reproduces its draws);
# the name stays here because the benchmark's tracer (bench/tracer.py) and
# its tests look it up in every module that holds it
from .noise import NoiseModel, sample_noise_gate  # noqa: F401

HERMITICITY_ATOL = 1e-12
NOISE_BLOCK_STEPS = 16


@dataclass(frozen=True)
class ChainSpec(Checked):
    """Static description of one chain instance.

    Parameters
    ----------
    n:
        Number of qubits, at least 2.
    coupling:
        Exchange constant J > 0 of the XX interaction.  All times are
        expressed in units where J = 1 unless stated otherwise.
    dt:
        Duration of one control step.
    field_strength:
        Magnitude h of a switched-on local field.  Strong fields
        (h >> J) effectively freeze the sites they act on.
    """

    n: int = bounded(MISSING, Range(2))
    coupling: float = bounded(1.0, POSITIVE)
    dt: float = bounded(0.15, POSITIVE)
    field_strength: float = bounded(100.0, NONNEGATIVE)

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise TypeError(f"n must be an integer, got {type(self.n).__name__}")
        super().__post_init__()

    @property
    def n_steps(self) -> int:
        """Control steps per sequence, ceil(0.75 n / dt).

        The transfer deadline is fixed at t = 3n/4, comfortably below the
        free-propagation arrival time ~ n/4J yet short enough to make the
        task nontrivial; the sequence length is the number of dt-steps
        that fit.  The tiny subtraction guards the ceil against cases
        where 0.75 n / dt is an exact integer that floating point slightly
        overshoots (e.g. 6.0 / 0.15 = 40.000000000000014).
        """
        return math.ceil(0.75 * self.n / self.dt - 1e-9)

    @property
    def transfer_deadline(self) -> float:
        """Physical duration of a full control sequence."""
        return self.n_steps * self.dt


def build_step_hamiltonian(spec: ChainSpec, fields) -> np.ndarray:
    """One-excitation Hamiltonian block for a single control step.

    Parameters
    ----------
    spec:
        Chain under control.
    fields:
        Per-site field values, length n.  Entries are actual field
        magnitudes (typically 0 or ``spec.field_strength``), not flags.

    Returns
    -------
    (n, n) real symmetric float64 matrix.
    """
    fields = np.asarray(fields, dtype=float)
    if fields.shape != (spec.n,):
        raise ValueError(f"fields must have shape ({spec.n},), got {fields.shape}")
    h = np.zeros((spec.n, spec.n))
    off = -2.0 * spec.coupling
    idx = np.arange(spec.n - 1)
    h[idx, idx + 1] = off
    h[idx + 1, idx] = off
    h[np.arange(spec.n), np.arange(spec.n)] = 2.0 * fields
    return h


def step_propagator(h_matrix: np.ndarray, tau: float) -> np.ndarray:
    """Exact unitary exp(+i H tau) of a Hermitian matrix.

    Uses the eigendecomposition H = V diag(w) V^dagger, so the result is
    unitary to machine precision regardless of ||H tau||; with h = 100 and
    dt = 0.15 the matrix exponent has norm of order 30, where series or
    low-order splitting methods would need care.
    """
    h_matrix = np.asarray(h_matrix)
    if h_matrix.ndim != 2 or h_matrix.shape[0] != h_matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h_matrix.shape}")
    if not np.allclose(h_matrix, h_matrix.conj().T, rtol=0.0, atol=HERMITICITY_ATOL):
        raise ValueError("matrix is not Hermitian within 1e-12; refusing to exponentiate")
    w, v = np.linalg.eigh(h_matrix)
    u = (v * np.exp(1j * w * tau)) @ v.conj().T
    return u


def averaged_fidelity(p):
    """Transfer fidelity averaged over input states, f = p/6 + sqrt(p)/3 + 1/2.

    Assumes the arrival phase has been corrected (cos term at its maximum),
    so f(1) = 1 and f(0) = 1/2.  Values of p a few ulp outside [0, 1] from
    floating-point roundoff are clamped; others, NaN too, are rejected.
    An array ``p`` gives an array of fidelities.
    """
    q = np.asarray(p, dtype=float)
    if not np.all((q >= -1e-12) & (q <= 1.0 + 1e-12)):
        raise ValueError(f"transmission probability must lie in [0, 1], got {p}")
    q = np.clip(q, 0.0, 1.0)
    f = q / 6.0 + np.sqrt(q) / 3.0 + 0.5
    return float(f) if f.ndim == 0 else f


@dataclass(frozen=True)
class Trajectory:
    """Per-step record of one evolved control sequence.

    ``probabilities[j]`` is the transmission probability after step j
    (recorded after that step's noise gate, if any), so the array has one
    entry per control step.
    """

    probabilities: np.ndarray
    dt: float

    @property
    def n_steps(self) -> int:
        return len(self.probabilities)

    @property
    def max_probability(self) -> float:
        """Largest transmission probability along the trajectory (0.0 if empty)."""
        if len(self.probabilities) == 0:
            return 0.0
        return float(np.max(self.probabilities))

    @property
    def argmax_step(self) -> int:
        """Zero-based step index of the maximum, -1 for an empty trajectory.

        Ties resolve to the earliest step.
        """
        if len(self.probabilities) == 0:
            return -1
        return int(np.argmax(self.probabilities))

    @property
    def argmax_time(self) -> float:
        """Physical time of the maximum (step boundaries at (j+1) dt)."""
        if len(self.probabilities) == 0:
            return 0.0
        return (self.argmax_step + 1) * self.dt


class _NoiseWalk:
    """Per-run dephasing realizations, read from blocks of variates.

    Run r draws from the Philox stream of its key (one RandomStream per run
    or an (R, 2) uint64 key array) in the order ``sample_noise_gate`` uses:
    one activation variate every step and, when it is below run r's ``p``,
    n phase variates ``-1 + 2 u``, as ``gen.uniform(-1, 1)`` maps them.
    ``noise`` is one NoiseModel for every run or a sequence of one per run.
    So every realization is bit for bit the one ``sample_noise_gate`` draws
    from ``RandomStream(...).generator()`` under that run's model.

    Each run buffers ``NOISE_BLOCK_STEPS * (n + 1)`` variates.  When its
    unread tail is shorter than one step's worst case (n + 1), the tail
    moves to the front and the walk's one Philox, set to the run's key and
    block counter, refills behind it in whole 4-variate blocks (up to 3 read
    variates move too, so none is skipped).
    """

    def __init__(self, noise: NoiseModel | list[NoiseModel], n: int, keys) -> None:
        if not isinstance(keys, np.ndarray):
            for r in keys:
                if not isinstance(r, RandomStream):
                    raise TypeError(f"a rollout draws its noise from a RandomStream, got {type(r).__name__}")
            keys = np.array([r.key for r in keys], dtype=np.uint64).reshape(-1, 2)
        models = [noise] * len(keys) if isinstance(noise, NoiseModel) else list(noise)
        if len(models) != len(keys):
            raise ValueError(f"noise must be one NoiseModel or a list of {len(keys)}, one per run, got {len(models)}")
        self.p = np.array([m.p for m in models])
        self.phase = 1j * np.array([m.delta for m in models])
        self.n = n
        self.keys = keys.tolist()
        self.block = NOISE_BLOCK_STEPS * (n + 1)  # a multiple of 4: the first fill takes all
        self.buf = np.empty((len(keys), self.block))
        self.pos = np.full(len(keys), self.block)  # first unread slot per run
        self.drawn = [0] * len(keys)  # Philox blocks per run
        # any seed: every refill sets key and counter with an empty output
        # buffer; the state setter reads lists faster than arrays
        self.gen = np.random.Generator(np.random.Philox(0))
        self.state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
                      "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self.flat = self.buf.reshape(-1)
        self.starts = np.arange(len(keys)) * self.block
        self.span = np.arange(1, n + 1)  # a step's phase variates follow its activation variate

    def apply(self, states: np.ndarray) -> None:
        """Draw one step's gates and dephase the active rows of ``states`` in place."""
        due = np.nonzero(self.pos > self.block - (self.n + 1))[0]
        if due.size:
            inner = self.state["state"]
            for r, k in zip(due.tolist(), (self.pos[due] & ~3).tolist()):
                row = self.buf[r]
                row[: self.block - k] = row[k:]
                inner["key"], inner["counter"][0] = self.keys[r], self.drawn[r]
                self.gen.bit_generator.state = self.state
                self.gen.random(out=row[self.block - k :])
                self.drawn[r] += k // 4
            self.pos[due] &= 3
        at = self.starts + self.pos
        zeta = self.flat[at]
        self.pos += 1
        active = np.nonzero(zeta < self.p)[0]
        if active.size:
            xi = -1.0 + 2.0 * self.flat[at[active, None] + self.span]
            self.pos[active] += self.n
            states[active] = np.exp(self.phase[active, None] * xi) * states[active]


@dataclass(frozen=True)
class Rollouts:
    """Per-step record of R runs stepped in lock-step; row r is run r."""

    actions: np.ndarray
    probabilities: np.ndarray

    def trajectory(self, run: int, dt: float) -> Trajectory:
        return Trajectory(probabilities=self.probabilities[run], dt=dt)


def _apply_actions(states: np.ndarray, unitaries: np.ndarray, ut, col, tags=None) -> np.ndarray:
    """One step: U[a] on every row that takes action a.

    When every row takes the same action the step is ``states @ U[a].T`` on
    the transposed view, which for one row is bit for bit ``U[a] @ psi``.
    Otherwise a stable argsort lines up each action's rows as one block, in
    row order, and every block, one-row blocks included, is multiplied by
    the contiguous ``ut[a] = U[a].T``.  A row's bits then depend on its own
    state and action and on the size of its block, not on the other rows.

    ``tags`` stack batches that each keep the bits they get stepped alone.
    A product of two rows or more gives a row the same bits at any row count,
    on the view or the copy; a one-row product takes another BLAS path.  So
    the rows of every (tag, action) class of two or more share their action's
    block, and a one-row class is a block of its own, by ``ut[a]``, or by
    the view when the row is its tag's whole batch.  ``states`` may be
    overwritten; the stepped states are the return value.
    """
    if np.ndim(col):
        key, n_actions = col, len(unitaries)
        if tags is not None:
            cls = tags * n_actions + col
            key = np.where(np.bincount(cls)[cls] == 1, n_actions + np.arange(len(col)), col)
            whole = np.bincount(tags)[tags] == 1
        order = np.argsort(key, kind="stable")
        ranked = key[order]
        starts = np.flatnonzero(np.diff(ranked, prepend=-1)).tolist()
        if len(starts) != 1:
            grouped = states[order]
            # states is free now and takes the products in sorted order
            for lo, hi, a in zip(starts, starts[1:] + [len(col)], ranked[starts].tolist()):
                r = a - n_actions  # >= 0: the row of a one-row class
                u = ut[a] if r < 0 else unitaries[col[r]].T if whole[r] else ut[col[r]]
                np.matmul(grouped[lo:hi], u, out=states[lo:hi])
            grouped[order] = states
            return grouped
        col = col[0]
    return states @ unitaries[col].T


def evolve_lockstep(
    unitaries: np.ndarray,
    actions,
    n_steps: int,
    noise: NoiseModel | list[NoiseModel] | None = None,
    rngs=None,
    tags=None,
) -> Rollouts:
    """Step R runs of the chain together, one control step at a time.

    Parameters
    ----------
    unitaries:
        (n_actions, n, n) step propagators.
    actions:
        Either a fixed schedule, an (L,) array shared by every run or an
        (R, L) array with one row per run, or a policy: a callable mapping
        the current (R, n) states to R action ids.  Later steps may
        overwrite that array, so a policy that keeps it keeps a copy.
    n_steps:
        Control steps L.
    noise, rngs:
        Optional dephasing model, one for every run or a sequence of one
        per run, and one RandomStream per run, or their (R, 2) keys
        (:meth:`RandomStream.substream_keys`).  Run r's realization depends
        on ``rngs[r]`` and its own model alone; see :class:`_NoiseWalk`.
    tags:
        Optional (R,) nonnegative ints: stacked batches, each stepped bit
        for bit as alone.  Under a shared (L,) schedule only a one-row
        batch needs its own product; it gets one.

    The number of runs R is ``len(rngs)`` when given, else the number of
    schedule rows, else 1.  Each step applies one matrix product per
    distinct action (see :func:`_apply_actions`), and probabilities are
    recorded after that step's gate.
    """
    n_actions, n = unitaries.shape[0], unitaries.shape[1]
    policy = actions if callable(actions) else None
    if policy is None:
        actions = np.asarray(actions, dtype=np.int64)
        if actions.size and (actions.min() < 0 or actions.max() >= n_actions):
            bad = actions[(actions < 0) | (actions >= n_actions)][0]
            raise ValueError(f"unknown action index {bad}; action set has {n_actions} actions")
    if rngs is not None:
        n_runs = len(rngs)
    else:
        n_runs = actions.shape[0] if policy is None and actions.ndim == 2 else 1
    if policy is None and actions.shape not in ((n_steps,), (n_runs, n_steps)):
        raise ValueError(
            f"actions must have shape ({n_steps},) or ({n_runs}, {n_steps}), got {actions.shape}"
        )
    tags = None if tags is None else np.asarray(tags, dtype=np.int64)
    if tags is not None and (tags.shape != (n_runs,) or np.any(tags < 0)):
        raise ValueError(f"tags must be {n_runs} nonnegative integers, got {tags}")
    if tags is not None and policy is None and actions.ndim == 1:
        if np.any(np.bincount(tags) == 1):
            # one product on all rows would give a one-row batch multi-row bits
            actions = np.broadcast_to(actions, (n_runs, n_steps))
        else:
            tags = None
    walk = None
    if noise is not None:
        if rngs is None:
            raise ValueError("a noise model needs an rng to draw realizations from")
        walk = _NoiseWalk(noise, n, rngs)
    states = np.zeros((n_runs, n), dtype=complex)
    states[:, 0] = 1.0
    # rows can take different actions only under a 2-D schedule or a policy
    mixed = n_runs > 1 and (policy is not None or actions.ndim == 2)
    ut = unitaries.transpose(0, 2, 1).copy() if mixed else None
    if policy is None:
        taken = np.broadcast_to(actions, (n_runs, n_steps))
    else:
        taken = np.empty((n_runs, n_steps), dtype=np.int64)
    probs = np.empty((n_runs, n_steps))
    for t in range(n_steps):
        if policy is None:
            col = actions[..., t]
        else:
            col = taken[:, t] = policy(states)
        states = _apply_actions(states, unitaries, ut, col, tags)
        if walk is not None:
            walk.apply(states)
        probs[:, t] = np.abs(states[:, -1]) ** 2
    return Rollouts(actions=taken, probabilities=probs)


def evolve_sequence(
    sequence,
    cache,
    noise: NoiseModel | None = None,
    rng: RandomStream | None = None,
) -> Trajectory:
    """Evolve the excitation through one control sequence.

    The single-run case of :func:`evolve_lockstep`.

    Parameters
    ----------
    sequence:
        Iterable of action ids, one per step.
    cache:
        Propagator cache for the action set (any object exposing a
        ``unitaries`` array of shape (n_actions, n, n) and a ``dt``).
    noise:
        Optional dephasing model.  When given, every step draws one
        activation variate, and an active step multiplies the state by
        random diagonal phases; probabilities are recorded after the gate.
    rng:
        Randomness source, required when ``noise`` is given.  The stream is
        opened once at the start of the trajectory, so the whole
        realization is a pure function of it.
    """
    sequence = np.asarray(sequence, dtype=np.int64)
    if sequence.ndim != 1:
        raise ValueError(f"sequence must be one-dimensional, got shape {sequence.shape}")
    rngs = None if noise is None or rng is None else [rng]
    run = evolve_lockstep(cache.unitaries, sequence, len(sequence), noise, rngs)
    return run.trajectory(0, cache.dt)


def evolve_population(genes: np.ndarray, cache, tags=None) -> np.ndarray:
    """Noise-free trajectory maxima of a (B, L) batch of action sequences.

    The clean case of :func:`evolve_lockstep`, which updates the rows that
    take one action with a single matrix product; that is what makes
    population-scale fitness evaluation cheap.  ``cache`` is as in
    :func:`evolve_sequence`, and ``tags`` as in :func:`evolve_lockstep`.
    Returns a (B,) array, zeros when L = 0.
    """
    genes = np.asarray(genes, dtype=np.int64)
    if genes.ndim != 2:
        raise ValueError(f"genes must be a (B, L) matrix, got shape {genes.shape}")
    run = evolve_lockstep(cache.unitaries, genes, genes.shape[1], tags=tags)
    return run.probabilities.max(axis=1, initial=0.0)


def _free_propagator(spec: ChainSpec, tau: float) -> np.ndarray:
    fields = np.zeros(spec.n)
    return step_propagator(build_step_hamiltonian(spec, fields), tau)


def free_evolution_baseline(spec: ChainSpec, n_steps: int | None = None) -> Trajectory:
    """Trajectory of the uncontrolled chain, sampled on the step grid.

    Identical to evolving the all-zero action sequence without noise.
    """
    if n_steps is None:
        n_steps = spec.n_steps
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    u_free = _free_propagator(spec, spec.dt)[None, :, :]
    sequence = np.zeros(n_steps, dtype=np.int64)
    return evolve_lockstep(u_free, sequence, n_steps).trajectory(0, spec.dt)


def free_transfer_probability(spec: ChainSpec, t):
    """Exact transmission probability of the free chain at time(s) ``t``.

    Computed from one eigendecomposition of the free Hamiltonian, so ``t``
    may be a scalar or an array and need not align with the step grid.
    """
    t = np.asarray(t, dtype=float)
    h_free = build_step_hamiltonian(spec, np.zeros(spec.n))
    w, v = np.linalg.eigh(h_free)
    # amplitude <n-1| e^{iHt} |0> = sum_k V[n-1,k] e^{i w_k t} V[0,k]
    weights = v[-1, :] * v[0, :]
    amp = np.exp(1j * np.outer(t, w)) @ weights
    p = np.abs(amp) ** 2
    if t.ndim == 0:
        return float(p[0])
    return p.reshape(t.shape)


def free_peak(spec: ChainSpec, t_max: float | None = None) -> tuple[float, float]:
    """Time and height of the first-pass transmission maximum of the free chain.

    Scans ``[0, t_max]`` on a dense grid (default window is the transfer
    deadline 0.75 n) and polishes the best grid point with a bounded scalar
    minimizer.

    Returns
    -------
    (t_peak, p_peak)
    """
    if t_max is None:
        t_max = 0.75 * spec.n
    if not t_max > 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    # imported here: scipy.optimize costs most of the package's import time
    from scipy.optimize import minimize_scalar

    grid = np.linspace(0.0, t_max, 4001)
    p = free_transfer_probability(spec, grid)
    k = int(np.argmax(p))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    res = minimize_scalar(
        lambda t: -free_transfer_probability(spec, t),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    t_peak = float(res.x)
    p_peak = float(free_transfer_probability(spec, t_peak))
    # the polish must never fall below the plain grid estimate
    if p[k] > p_peak:
        t_peak, p_peak = float(grid[k]), float(p[k])
    return t_peak, p_peak
