import numpy as np
import pytest

from qst_control import NoiseModel, RandomStream, sample_noise_gate


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
