"""Each check passes on a real result and rejects a corrupted copy."""

import numpy as np
import pytest

import checks
import reference
from qst_control import ChainSpec, RandomStream, build_cache, evolve_sequence, site_by_site_set
from qst_control.harness import FixedSequenceController, validate_controller

SEED = 9


@pytest.fixture(scope="module")
def result():
    spec = ChainSpec(n=5)
    cache = build_cache(site_by_site_set(5, spec.field_strength), spec)
    seq = np.random.default_rng(1).integers(0, 6, spec.n_steps)
    report = validate_controller(FixedSequenceController(seq), cache, RandomStream(SEED), n_runs=6)
    cells = np.array([(c.p, c.delta, c.mean_max_probability, c.std_max_probability) for c in report.cells])
    ref_u = reference.propagators(reference.site_by_site_fields(5, spec.field_strength), spec.coupling, spec.dt)
    clean = evolve_sequence(seq, cache).max_probability
    return dict(spec=spec, cache=cache, seq=seq, per_run=report.per_run, cells=cells, ref_u=ref_u, clean=clean)


def test_cache_rejects_one_perturbed_entry(result):
    u = result["cache"].unitaries.copy()
    assert checks.cache(u, result["ref_u"]) is None
    u[2, 1, 1] += 1e-8
    assert checks.cache(u, result["ref_u"]) is not None


def test_design_rejects_one_flipped_gene(result):
    r = result
    length = r["spec"].n_steps
    assert checks.design(r["clean"], r["clean"], r["ref_u"], length, actions=r["seq"]) is None
    flipped = r["seq"].copy()
    flipped[length // 2] = (flipped[length // 2] + 1) % 6
    assert checks.design(r["clean"], r["clean"], r["ref_u"], length, actions=flipped) is not None
    assert checks.design(r["clean"], r["clean"], r["ref_u"], length, actions=r["seq"][:-1]) is not None


def test_clean_cells_rejects_a_smeared_clean_value(result):
    cells = result["cells"].copy()
    assert checks.clean_cells(cells, result["clean"]) is None
    cells[1, 2] = np.nextafter(cells[1, 2], 2.0)
    assert checks.clean_cells(cells, result["clean"]) is not None


def test_cell_stats_and_replay_reject_one_perturbed_run(result):
    r = result
    samples = [(c, k) for c in range(16) for k in (0, 5)]
    args = (r["ref_u"], r["spec"].n_steps, SEED)
    assert checks.cell_stats(r["cells"], r["per_run"]) is None
    assert checks.replay(r["per_run"], r["cells"], samples, *args, actions=r["seq"]) is None
    per_run = r["per_run"].copy()
    per_run[15, 5] -= 1e-6
    assert checks.cell_stats(r["cells"], per_run) is not None
    assert checks.replay(per_run, r["cells"], samples, *args, actions=r["seq"]) is not None


def test_probabilities_reject_values_outside_unit_interval():
    assert checks.probabilities(a=[0.0, 0.5, 1.0]) is None
    assert checks.probabilities(a=[0.5], b=[1.0 + 1e-12]) is not None
    assert checks.probabilities(a=[np.nan]) is not None


def test_learn_events_closed_form():
    # 3000 episodes x 20 steps, learning every 5th step from step 32 on
    assert checks.learn_events(11994, 60000, 5, 32) is None
    assert checks.learn_events(11995, 60000, 5, 32) is not None
    assert checks.learn_events(11993, 60000, 5, 32) is not None


def test_generations_must_match_budget():
    assert checks.generations([25, 25], 25) is None
    assert checks.generations([25, 24], 25) is not None


def test_design_rejects_one_perturbed_policy_weight():
    from qst_control.dqn import greedy_rollout
    from qst_control.qnet import QNetwork

    spec = ChainSpec(n=4)
    cache = build_cache(site_by_site_set(4, spec.field_strength), spec)
    net = QNetwork(8, 12, 4, 5, RandomStream(3))
    clean = greedy_rollout(net, cache.action_set, spec, cache=cache)[1].max_probability
    ref_u = reference.propagators(reference.site_by_site_fields(4, spec.field_strength), spec.coupling, spec.dt)
    weights = [w.copy() for w in net.weights]
    assert checks.design(clean, clean, ref_u, spec.n_steps, net=(weights, net.biases)) is None
    weights[-1][:, :] = 0.0
    weights[-1][3, 0] = 1.0  # the policy now prefers action 3 whenever hidden unit 0 fires
    assert checks.design(clean, clean, ref_u, spec.n_steps, net=(weights, net.biases)) is not None
