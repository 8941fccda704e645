import numpy as np
import pytest

from qst_control.actions import build_cache, make_action_set
from qst_control.chain import ChainSpec, averaged_fidelity, evolve_sequence
from qst_control.dqn import DqnConfig, greedy_rollout
from qst_control.ga import GaConfig
from qst_control.harness import (
    FixedSequenceController,
    GreedyPolicyController,
    HpoRanges,
    action_histogram,
    hyperparameter_search,
    multi_seed_ga,
    run_jobs,
    scaling_study,
    sweep_h_dt,
    validate_controller,
)
from qst_control.qnet import QNetwork
from qst_control.rng import RandomStream

# A chain short enough that every study in this module runs in milliseconds:
# n=3 at dt=0.75 gives 3-step sequences, n=4 gives 4-step ones.
SPEC3 = ChainSpec(n=3, coupling=1.0, dt=0.75, field_strength=50.0)
TINY_GA = GaConfig(
    population_size=16,
    max_generations=8,
    saturation=5,
    parents_mating=4,
    keep_elitism=2,
    target_probability=1.0,
    n_seeds=3,
)


# ---------------------------------------------------------------- run_jobs


def test_run_jobs_returns_results_under_their_keys():
    jobs = {("a", i): (lambda i=i: i * i) for i in range(5)}
    out = run_jobs(jobs)
    assert out == {("a", i): i * i for i in range(5)}


def test_run_jobs_worker_invariant():
    jobs = {i: (lambda i=i: [i, i + 1]) for i in range(7)}
    assert run_jobs(dict(jobs), workers=1) == run_jobs(dict(jobs), workers=4)


def test_run_jobs_propagates_exceptions():
    def boom():
        raise RuntimeError("job failed")

    with pytest.raises(RuntimeError, match="job failed"):
        run_jobs({0: (lambda: 1), 1: boom}, workers=3)


# ------------------------------------------------------------- controllers


def test_fixed_sequence_controller_replays_the_sequence(cache4):
    seq = np.array([1, 0, 3, 2, 4])
    controller = FixedSequenceController(sequence=seq)
    direct = evolve_sequence(seq, cache4)
    via = controller.rollout(cache4)
    assert np.array_equal(via.probabilities, direct.probabilities)


def test_greedy_policy_controller_matches_rollout(spec4, cache4):
    net = QNetwork(2 * spec4.n, 12, 6, len(cache4.action_set), rng=RandomStream(5))
    controller = GreedyPolicyController(network=net)
    _, direct = greedy_rollout(net, cache4.action_set, spec4, cache=cache4)
    via = controller.rollout(cache4)
    assert np.array_equal(via.probabilities, direct.probabilities)


# ------------------------------------------------------------ multi-seed GA


def test_multi_seed_ga_summary_statistics():
    summary = multi_seed_ga([3, 4], TINY_GA, "site_by_site", SPEC3, RandomStream(0))
    assert [row.n for row in summary.rows] == [3, 4]
    row = summary.row(4)
    assert row.per_seed.shape == (3,)
    assert row.best == row.per_seed.max()
    assert row.mean == pytest.approx(row.per_seed.mean())
    assert row.std == pytest.approx(row.per_seed.std())  # population spread, ddof 0
    assert all(r in {"target_reached", "saturation", "max_generations"} for r in row.halt_reasons)
    assert all(1 <= g <= 8 for g in row.generations)
    assert row.best_sequence.shape == (4,)
    assert row.best_fidelity == averaged_fidelity(row.best)
    with pytest.raises(KeyError):
        summary.row(5)


def test_multi_seed_ga_deterministic_and_worker_invariant():
    a = multi_seed_ga([3, 4], TINY_GA, "site_by_site", SPEC3, RandomStream(1))
    b = multi_seed_ga([3, 4], TINY_GA, "site_by_site", SPEC3, RandomStream(1))
    c = multi_seed_ga([3, 4], TINY_GA, "site_by_site", SPEC3, RandomStream(1), workers=3)
    for other in (b, c):
        for n in (3, 4):
            assert np.array_equal(a.row(n).per_seed, other.row(n).per_seed)
            assert np.array_equal(a.row(n).best_sequence, other.row(n).best_sequence)


def test_multi_seed_ga_lengths_are_independent():
    # substreams key on the chain length itself, so dropping a length from
    # the list must not perturb the remaining one
    both = multi_seed_ga([3, 4], TINY_GA, "site_by_site", SPEC3, RandomStream(2))
    alone = multi_seed_ga([4], TINY_GA, "site_by_site", SPEC3, RandomStream(2))
    assert np.array_equal(both.row(4).per_seed, alone.row(4).per_seed)


def test_multi_seed_ga_n_seeds_defaults_to_config():
    summary = multi_seed_ga([3], TINY_GA, "site_by_site", SPEC3, RandomStream(3))
    assert summary.row(3).per_seed.shape == (TINY_GA.n_seeds,)
    wider = multi_seed_ga([3], TINY_GA, "site_by_site", SPEC3, RandomStream(3), n_seeds=5)
    assert wider.row(3).per_seed.shape == (5,)


def test_scaling_study_uses_its_own_stream_tag():
    shared = RandomStream(4)
    ms = multi_seed_ga([4], TINY_GA, "site_by_site", SPEC3, shared, n_seeds=3)
    sc = scaling_study([4], TINY_GA, "site_by_site", SPEC3, shared, n_seeds=3)
    assert sc.row(4).per_seed.shape == (3,)
    # different tags mean different runs; identical outputs across every
    # field at once would need a full stream collision
    assert not (
        np.array_equal(ms.row(4).per_seed, sc.row(4).per_seed)
        and np.array_equal(ms.row(4).best_sequence, sc.row(4).best_sequence)
        and ms.row(4).generations == sc.row(4).generations
    )


# ------------------------------------------------------------------- sweep


def test_sweep_h_dt_grid():
    result = sweep_h_dt(
        3, [25.0, 50.0], [0.5, 0.75], TINY_GA, RandomStream(5), coupling=1.0
    )
    assert len(result.cells) == 4
    assert [(c.h, c.dt) for c in result.cells] == [
        (25.0, 0.5),
        (25.0, 0.75),
        (50.0, 0.5),
        (50.0, 0.75),
    ]
    cell = result.cell(50.0, 0.75)
    assert 0.0 <= cell.max_probability <= 1.0
    assert cell.generations >= 1
    with pytest.raises(KeyError):
        result.cell(75.0, 0.5)


def test_sweep_deterministic_and_worker_invariant():
    runs = [
        sweep_h_dt(3, [25.0, 50.0], [0.5, 0.75], TINY_GA, RandomStream(6), workers=w)
        for w in (1, 4, 1)
    ]
    probs = [[c.max_probability for c in r.cells] for r in runs]
    assert probs[0] == probs[1] == probs[2]


# -------------------------------------------------------------- validation


@pytest.fixture(scope="module")
def free_controller4():
    spec = ChainSpec(n=4, coupling=1.0, dt=0.75, field_strength=50.0)
    cache = build_cache(make_action_set("site_by_site", spec.n, spec.field_strength), spec)
    controller = FixedSequenceController(sequence=np.zeros(spec.n_steps, dtype=np.int64))
    return controller, cache


def test_validate_controller_grid(free_controller4):
    controller, cache = free_controller4
    clean_max = controller.rollout(cache).max_probability
    # 25 runs, deliberately not a power of two: the mean of identical values
    # must still come out exact in the degenerate cells
    report = validate_controller(
        controller, cache, RandomStream(7), p_values=(0.0, 0.5), delta_values=(0.0, 0.5), n_runs=25
    )
    assert report.per_run.shape == (4, 25)
    assert report.p_values == (0.0, 0.5)
    assert report.delta_values == (0.0, 0.5)

    # with the flip probability or the kick strength at zero every run is
    # the noiseless trajectory, exactly
    for p, d in [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0)]:
        cell = report.cell(p, d)
        assert cell.std_max_probability == 0.0
        assert cell.mean_max_probability == clean_max
        assert cell.n_runs == 25

    noisy = report.cell(0.5, 0.5)
    assert noisy.std_max_probability > 0.0
    assert 0.0 <= noisy.mean_max_probability <= 1.0
    with pytest.raises(KeyError):
        report.cell(0.25, 0.25)


def test_validate_controller_fidelity_column(free_controller4):
    controller, cache = free_controller4
    report = validate_controller(
        controller, cache, RandomStream(8), p_values=(0.5,), delta_values=(0.5,), n_runs=12
    )
    cell = report.cells[0]
    expected = np.mean([averaged_fidelity(v) for v in report.per_run[0]])
    assert cell.mean_fidelity == pytest.approx(expected, abs=1e-15)


def test_validate_controller_deterministic_and_worker_invariant(free_controller4):
    controller, cache = free_controller4
    reports = [
        validate_controller(
            controller,
            cache,
            RandomStream(9),
            p_values=(0.0, 0.5),
            delta_values=(0.0, 0.5),
            n_runs=8,
            workers=w,
        )
        for w in (1, 3)
    ]
    assert np.array_equal(reports[0].per_run, reports[1].per_run)


# --------------------------------------------------------------- histogram


def test_action_histogram_harvests_to_quota():
    hist = action_histogram(
        TINY_GA,
        "site_by_site",
        SPEC3,
        RandomStream(10),
        n_sequences=8,
        threshold=0.0,
        max_runs=6,
    )
    assert hist.complete
    assert hist.n_sequences == 8
    assert hist.n_actions == 4
    # every harvested sequence contributes one count per step
    assert hist.counts.sum() == 8 * SPEC3.n_steps
    assert hist.frequencies.sum() == pytest.approx(1.0)
    assert 1 <= hist.n_runs_used <= 6


def test_action_histogram_worker_invariant():
    kwargs = dict(n_sequences=8, threshold=0.0, max_runs=6)
    a = action_histogram(TINY_GA, "site_by_site", SPEC3, RandomStream(11), workers=1, **kwargs)
    b = action_histogram(TINY_GA, "site_by_site", SPEC3, RandomStream(11), workers=3, **kwargs)
    assert np.array_equal(a.counts, b.counts)
    assert a.n_runs_used == b.n_runs_used
    assert a.n_sequences == b.n_sequences
    assert a.complete == b.complete


def test_action_histogram_reports_incomplete_harvest():
    hist = action_histogram(
        TINY_GA,
        "site_by_site",
        SPEC3,
        RandomStream(12),
        n_sequences=5,
        threshold=1.000001,  # unreachable: fitness is a probability
        max_runs=2,
    )
    assert not hist.complete
    assert hist.n_sequences == 0
    assert hist.n_runs_used == 2
    assert hist.counts.sum() == 0
    assert np.all(hist.frequencies == 0.0)


# --------------------------------------------------------------------- hpo


@pytest.fixture(scope="module")
def hpo_setup():
    base = DqnConfig(
        gamma=0.9,
        learning_rate=1e-3,
        hidden1=16,
        hidden2=8,
        minibatch=4,
        replay_capacity=64,
        learning_period=2,
        target_sync_period=5,
        episodes=8,
    )
    ranges = HpoRanges(gamma=(0.9, 0.99), learning_rate=(1e-4, 1e-3), hidden1=(8, 16))
    return base, ranges


def test_hyperparameter_search_samples_within_ranges(hpo_setup):
    base, ranges = hpo_setup
    result = hyperparameter_search(
        base, "site_by_site", SPEC3, RandomStream(13), n_trials=3, ranges=ranges, val_runs=3
    )
    assert [t.index for t in result.trials] == [0, 1, 2]
    for t in result.trials:
        assert 0.9 <= t.gamma <= 0.99
        assert 1e-4 <= t.learning_rate <= 1e-3
        assert 8 <= t.hidden1 <= 16
        assert 0.0 <= t.score <= 1.0
    assert result.best.score == max(t.score for t in result.trials)
    assert result.best_config.gamma == result.best.gamma
    assert result.best_config.learning_rate == result.best.learning_rate
    assert result.best_config.hidden1 == result.best.hidden1
    assert result.best_config.hidden2 is None


def test_hyperparameter_search_deterministic_and_worker_invariant(hpo_setup):
    base, ranges = hpo_setup
    results = [
        hyperparameter_search(
            base,
            "site_by_site",
            SPEC3,
            RandomStream(14),
            n_trials=3,
            ranges=ranges,
            val_runs=2,
            workers=w,
        )
        for w in (1, 3)
    ]
    for a, b in zip(results[0].trials, results[1].trials):
        assert (a.gamma, a.learning_rate, a.hidden1) == (b.gamma, b.learning_rate, b.hidden1)
        assert a.score == b.score
        assert a.train_best == b.train_best
    assert results[0].best.index == results[1].best.index
