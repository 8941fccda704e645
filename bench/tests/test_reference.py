"""The independent reference agrees with the library it checks."""

import numpy as np
import pytest

import reference
from qst_control import ChainSpec, RandomStream, build_cache, evolve_sequence, site_by_site_set
from qst_control.dqn import greedy_rollout
from qst_control.noise import NoiseModel
from qst_control.qnet import QNetwork


def _cache(n):
    spec = ChainSpec(n=n)
    return spec, build_cache(site_by_site_set(n, spec.field_strength), spec)


def _ref_unitaries(spec):
    fields = reference.site_by_site_fields(spec.n, spec.field_strength)
    return reference.propagators(fields, spec.coupling, spec.dt)


@pytest.mark.parametrize("n", range(2, 9))
def test_propagators_match_build_cache(n):
    spec, cache = _cache(n)
    assert np.max(np.abs(_ref_unitaries(spec) - cache.unitaries)) <= 1e-10


@pytest.mark.parametrize("n", range(2, 9))
def test_step_count_matches_chain_spec(n):
    assert reference.n_steps(n, 0.15) == ChainSpec(n=n).n_steps


@pytest.mark.parametrize("n", range(2, 9))
def test_clean_rollout_matches_evolve_sequence(n):
    spec, cache = _cache(n)
    seq = np.random.default_rng(n).integers(0, n + 1, spec.n_steps)
    ref = reference.rollout(_ref_unitaries(spec), spec.n_steps, actions=seq)
    assert np.max(np.abs(ref - evolve_sequence(seq, cache).probabilities)) <= 1e-10


@pytest.mark.parametrize("n", range(2, 9))
def test_noisy_validation_run_matches_evolve_sequence(n):
    spec, cache = _cache(n)
    seq = np.random.default_rng(n).integers(0, n + 1, spec.n_steps)
    root = RandomStream(11)
    lib = evolve_sequence(seq, cache, noise=NoiseModel(0.5, 0.25), rng=root.substream(3, 2, 7))
    ref = reference.validation_run(_ref_unitaries(spec), spec.n_steps, 11, 2, 7, 0.5, 0.25, actions=seq)
    assert abs(ref - lib.max_probability) <= 1e-9


def test_substream_ids_follow_the_library():
    for idx in [(3, 0, 0), (3, 15, 99), (1, 16, 1)]:
        assert reference.substream_id(0, *idx) == RandomStream(5).substream(*idx).stream_id


def test_greedy_policy_matches_library_rollout():
    spec, cache = _cache(4)
    net = QNetwork(8, 16, 5, 5, RandomStream(2))
    root = RandomStream(4)
    _, lib = greedy_rollout(net, cache.action_set, spec, noise=NoiseModel(0.25, 0.5),
                            rng=root.substream(3, 5, 1), cache=cache)
    ref = reference.validation_run(_ref_unitaries(spec), spec.n_steps, 4, 5, 1, 0.25, 0.5,
                                   net=(net.weights, net.biases))
    assert abs(ref - lib.max_probability) <= 1e-9
    state = np.random.default_rng(0).normal(size=8)
    assert np.allclose(reference.relu_q(net.weights, net.biases, state), net.q_values(state), rtol=0, atol=1e-12)
