import numpy as np
import pytest

from oracles import channel_mean
from qst_control import ChainSpec, NoiseModel, RandomStream, build_cache, sample_noise_gate, site_by_site_set
from qst_control.chain import evolve_lockstep

# Monte Carlo runs per channel-mean case
RUNS = 2000


def test_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(p=-0.1, delta=0.1)
    with pytest.raises(ValueError):
        NoiseModel(p=1.5, delta=0.1)
    with pytest.raises(ValueError):
        NoiseModel(p=0.5, delta=-0.1)
    for delta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(p=0.5, delta=delta)
    NoiseModel(p=0.0, delta=0.0)
    NoiseModel(p=1.0, delta=10.0)


def test_gate_inactive_at_zero_probability(gen):
    model = NoiseModel(p=0.0, delta=0.5)
    assert all(sample_noise_gate(model, 4, gen) is None for _ in range(200))


def test_gate_always_active_at_unit_probability(gen):
    model = NoiseModel(p=1.0, delta=0.5)
    for _ in range(50):
        gate = sample_noise_gate(model, 4, gen)
        assert gate is not None
        assert gate.shape == (4,)


def test_gate_phases_unit_modulus_and_bounded(gen):
    model = NoiseModel(p=1.0, delta=0.7)
    for _ in range(100):
        gate = sample_noise_gate(model, 6, gen)
        np.testing.assert_allclose(np.abs(gate), 1.0, atol=1e-12)
        assert np.all(np.abs(np.angle(gate)) <= 0.7 + 1e-12)


def test_zero_delta_gate_is_exact_identity(gen):
    model = NoiseModel(p=1.0, delta=0.0)
    gate = sample_noise_gate(model, 5, gen)
    np.testing.assert_array_equal(gate, np.ones(5, dtype=complex))


def test_activation_variate_drawn_even_when_inactive():
    # p = 0 must still consume exactly one uniform per step, so switching
    # p on/off never silently shifts which variates later steps see
    g1 = RandomStream(11).generator()
    for _ in range(10):
        assert sample_noise_gate(NoiseModel(0.0, 0.5), 3, g1) is None
    g2 = RandomStream(11).generator()
    g2.random(10)
    assert g1.random() == g2.random()


def test_activation_threshold_semantics():
    # the step fires exactly when the activation variate falls below p
    zeta = RandomStream(77).generator().random()
    assert 0.01 < zeta < 0.99
    below = sample_noise_gate(NoiseModel(p=zeta * 0.999, delta=0.3), 2, RandomStream(77).generator())
    above = sample_noise_gate(NoiseModel(p=zeta * 1.001, delta=0.3), 2, RandomStream(77).generator())
    assert below is None
    assert above is not None


def test_activation_rate_matches_probability():
    g = RandomStream(5150).generator()
    model = NoiseModel(p=0.25, delta=0.1)
    trials = 20000
    hits = sum(sample_noise_gate(model, 2, g) is not None for _ in range(trials))
    # binomial three-sigma band around the expectation
    sigma = np.sqrt(trials * 0.25 * 0.75)
    assert abs(hits - trials * 0.25) < 3 * sigma


def test_phase_angles_uniform_in_band():
    g = RandomStream(31).generator()
    model = NoiseModel(p=1.0, delta=1.0)
    angles = np.concatenate([np.angle(sample_noise_gate(model, 8, g)) for _ in range(2000)])
    assert abs(angles.mean()) < 0.02
    # variance of U[-1, 1] is 1/3
    assert abs(np.var(angles) - 1.0 / 3.0) < 0.01


def _within_standard_errors(runs: np.ndarray, exact: np.ndarray) -> None:
    # (R, L) per-step probabilities against the per-step channel mean: within
    # 5 standard errors, and within 1e-12 where the runs do not spread (the
    # first step's gate cannot move a population; roundoff alone spreads it)
    se = runs.std(axis=0, ddof=1) / np.sqrt(len(runs))
    assert np.count_nonzero(se > 1e-12) >= len(se) // 2
    assert np.all(np.abs(runs.mean(axis=0) - exact) <= 5.0 * se + 1e-12)


def _schedule(gen, n_actions: int, length: int) -> np.ndarray:
    # mostly free steps, so that the excitation travels and the runs spread
    return gen.integers(0, n_actions, length) * (gen.random(length) < 0.25)


# (n, p, delta): p = 1 with delta = pi dephases fully (sinc(pi) = 0)
CHANNEL_CASES = [(4, 0.5, 1.0), (4, 1.0, np.pi), (8, 0.25, 0.5), (8, 1.0, 2.0), (16, 0.5, 1.5), (16, 1.0, np.pi)]


@pytest.mark.parametrize("n, p, delta", CHANNEL_CASES)
def test_monte_carlo_mean_is_the_exact_channel_mean(n, p, delta):
    # the dephasing channel's ensemble mean is exact, and it checks the
    # physics of the noise walk, not only its draw order
    spec = ChainSpec(n=n)
    cache = build_cache(site_by_site_set(n, spec.field_strength), spec)
    seq = _schedule(RandomStream(n, 1).generator(), len(cache), spec.n_steps)
    keys = RandomStream(n, 2).substream_keys(count=RUNS)
    run = evolve_lockstep(cache.unitaries, seq, len(seq), NoiseModel(p, delta), keys)
    _within_standard_errors(run.probabilities, channel_mean(cache.unitaries, seq, p, delta))


def test_a_stacked_batch_keeps_each_cell_on_its_channel_mean():
    # one noise model and one schedule per cell, stepped as one tagged stack
    spec = ChainSpec(n=8)
    cache = build_cache(site_by_site_set(spec.n, spec.field_strength), spec)
    models = [NoiseModel(0.25, 0.5), NoiseModel(1.0, np.pi), NoiseModel(0.5, 1.0)]
    gen = RandomStream(8, 3).generator()
    seqs = [_schedule(gen, len(cache), spec.n_steps) for _ in models]
    keys = RandomStream(8, 4).substream_keys(count=RUNS * len(models))
    run = evolve_lockstep(
        cache.unitaries,
        np.repeat(seqs, RUNS, axis=0),
        spec.n_steps,
        [m for m in models for _ in range(RUNS)],
        keys,
        tags=np.repeat(np.arange(len(models)), RUNS),
    )
    for c, (m, seq) in enumerate(zip(models, seqs)):
        cell = run.probabilities[c * RUNS : (c + 1) * RUNS]
        _within_standard_errors(cell, channel_mean(cache.unitaries, seq, m.p, m.delta))
