import dataclasses
import threading

import numpy as np
import pytest

from qst_control import ga, harness
from qst_control.actions import build_cache, make_action_set
from qst_control.chain import ChainSpec, averaged_fidelity, evolve_sequence
from qst_control.dqn import DqnConfig, greedy_rollout
from qst_control.ga import GaConfig, run_ga
from qst_control.harness import (
    TAG_MULTI_SEED,
    FixedSequenceController,
    GreedyPolicyController,
    HistogramSettings,
    HpoSettings,
    ScalingSettings,
    SweepSettings,
    action_histogram,
    hyperparameter_search,
    multi_seed_ga,
    run_jobs,
    scaling_study,
    sweep_h_dt,
    validate_controller,
)
from qst_control.noise import NoiseModel
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


def test_run_jobs_runs_a_lone_job_in_the_calling_thread():
    assert run_jobs({"k": threading.get_ident}, workers=2) == {"k": threading.get_ident()}


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
    summary = multi_seed_ga([3, 4], TINY_GA, "site_by_site", SPEC3, RandomStream(0), n_seeds=3)
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
    a = multi_seed_ga([3, 4], TINY_GA, "site_by_site", SPEC3, RandomStream(1), n_seeds=3)
    b = multi_seed_ga([3, 4], TINY_GA, "site_by_site", SPEC3, RandomStream(1), n_seeds=3)
    c = multi_seed_ga([3, 4], TINY_GA, "site_by_site", SPEC3, RandomStream(1), n_seeds=3, workers=3)
    for other in (b, c):
        for n in (3, 4):
            assert np.array_equal(a.row(n).per_seed, other.row(n).per_seed)
            assert np.array_equal(a.row(n).best_sequence, other.row(n).best_sequence)


def test_multi_seed_ga_lengths_are_independent():
    # substreams key on the chain length itself, so dropping a length from
    # the list must not perturb the remaining one
    both = multi_seed_ga([3, 4], TINY_GA, "site_by_site", SPEC3, RandomStream(2), n_seeds=3)
    alone = multi_seed_ga([4], TINY_GA, "site_by_site", SPEC3, RandomStream(2), n_seeds=3)
    assert np.array_equal(both.row(4).per_seed, alone.row(4).per_seed)


def test_scaling_study_uses_its_own_stream_tag():
    shared = RandomStream(4)
    ms = multi_seed_ga([4], TINY_GA, "site_by_site", SPEC3, shared, n_seeds=3)
    sc = scaling_study(TINY_GA, "site_by_site", SPEC3, shared, ScalingSettings(lengths=(4,), n_seeds=3))
    assert sc.row(4).per_seed.shape == (3,)
    # different tags mean different runs; identical outputs across every
    # field at once would need a full stream collision
    assert not (
        np.array_equal(ms.row(4).per_seed, sc.row(4).per_seed)
        and np.array_equal(ms.row(4).best_sequence, sc.row(4).best_sequence)
        and ms.row(4).generations == sc.row(4).generations
    )


@pytest.mark.parametrize("workers", [1, 3])
def test_multi_seed_ga_matches_per_seed_runs(workers):
    # a length's seeds run in lock-step, and each one's record is the one
    # run_ga gives that seed alone
    stream = RandomStream(6)
    summary = multi_seed_ga([3, 4], TINY_GA, "site_by_site", SPEC3, stream, n_seeds=4, workers=workers)
    for n in (3, 4):
        spec = dataclasses.replace(SPEC3, n=n)
        action_set = make_action_set("site_by_site", n, SPEC3.field_strength)
        alone = [
            run_ga(TINY_GA, action_set, spec, seed=stream.substream(TAG_MULTI_SEED, n, s)) for s in range(4)
        ]
        row = summary.row(n)
        assert row.per_seed.tobytes() == np.array([r.best_chromosome.fitness for r in alone]).tobytes()
        assert row.halt_reasons == [r.halt_reason.value for r in alone]
        assert row.generations == [r.generations_run for r in alone]
        best = alone[int(np.argmax(row.per_seed))].best_chromosome.genes
        assert row.best_sequence.tobytes() == best.tobytes()


SEED_STUDIES = {
    "multi_seed_ga": lambda n_seeds: multi_seed_ga(
        [3, 4], TINY_GA, "site_by_site", SPEC3, RandomStream(0), n_seeds=n_seeds
    ),
    "scaling_study": lambda n_seeds: scaling_study(
        TINY_GA, "site_by_site", SPEC3, RandomStream(0), ScalingSettings(lengths=(3, 4), n_seeds=n_seeds)
    ),
}


@pytest.mark.parametrize("study", SEED_STUDIES.values(), ids=SEED_STUDIES.keys())
@pytest.mark.parametrize("n_seeds", [0, -1])
def test_seed_studies_reject_a_seed_count_below_one_before_any_run(study, n_seeds, monkeypatch):
    def no_runs(*args, **kwargs):
        raise AssertionError("a GA run started before n_seeds was checked")

    monkeypatch.setattr(harness, "run_ga_lockstep", no_runs)
    with pytest.raises(ValueError, match="n_seeds"):
        study(n_seeds)


# ------------------------------------------------------------------- sweep


def test_sweep_h_dt_grid():
    result = sweep_h_dt(
        TINY_GA, "site_by_site", SPEC3, RandomStream(5), SweepSettings(h_values=(25.0, 50.0), dt_values=(0.5, 0.75))
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
        sweep_h_dt(
            TINY_GA,
            "site_by_site",
            SPEC3,
            RandomStream(6),
            SweepSettings(h_values=(25.0, 50.0), dt_values=(0.5, 0.75)),
            workers=w,
        )
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
        HistogramSettings(n_sequences=8, threshold=0.0, max_runs=6),
    )
    assert hist.complete
    assert hist.n_sequences == 8
    assert hist.n_actions == 4
    # every harvested sequence contributes one count per step
    assert hist.counts.sum() == 8 * SPEC3.n_steps
    assert hist.frequencies.sum() == pytest.approx(1.0)
    assert 1 <= hist.n_runs_used <= 6


def test_action_histogram_runs_one_seed_at_a_time(monkeypatch):
    # a quota the first run fills must not start a second run
    seeds = []

    def spy_run_ga(config, action_set, spec, seed, cache):
        seeds.append(seed)
        return run_ga(config, action_set, spec, seed=seed, cache=cache)

    monkeypatch.setattr(harness, "run_ga", spy_run_ga)
    settings = HistogramSettings(n_sequences=2, threshold=0.0, max_runs=6)
    hist = action_histogram(TINY_GA, "site_by_site", SPEC3, RandomStream(11), settings)
    assert hist.complete
    assert hist.n_runs_used == 1
    assert seeds == [RandomStream(11).substream(harness.TAG_HISTOGRAM, 0)]


def test_action_histogram_builds_one_cache_for_all_its_runs(monkeypatch):
    builds = []

    def counting_build(action_set, spec):
        builds.append(spec)
        return build_cache(action_set, spec)

    monkeypatch.setattr(harness, "build_cache", counting_build)
    monkeypatch.setattr(ga, "build_cache", counting_build)
    settings = HistogramSettings(n_sequences=50, threshold=1.0, max_runs=3)
    hist = action_histogram(TINY_GA, "site_by_site", SPEC3, RandomStream(12), settings)
    assert hist.n_runs_used == 3
    assert builds == [SPEC3]


def test_action_histogram_reports_incomplete_harvest():
    hist = action_histogram(
        TINY_GA,
        "site_by_site",
        SPEC3,
        RandomStream(12),
        HistogramSettings(
            n_sequences=5,
            threshold=1.0,  # unreached: these runs peak at 0.988
            max_runs=2,
        ),
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
    ranges = {"gamma": (0.9, 0.99), "learning_rate": (1e-4, 1e-3), "hidden1": (8, 16)}
    return base, ranges


def test_hyperparameter_search_samples_within_ranges(hpo_setup):
    base, ranges = hpo_setup
    result = hyperparameter_search(
        base, "site_by_site", SPEC3, RandomStream(13), HpoSettings(trials=3, val_runs=3, **ranges)
    )
    assert [t.trial for t in result.trials] == [0, 1, 2]
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
            HpoSettings(trials=3, val_runs=2, **ranges),
            workers=w,
        )
        for w in (1, 3)
    ]
    for a, b in zip(results[0].trials, results[1].trials):
        assert (a.gamma, a.learning_rate, a.hidden1) == (b.gamma, b.learning_rate, b.hidden1)
        assert a.score == b.score
        assert a.train_best == b.train_best
    assert results[0].best.trial == results[1].best.trial


@pytest.mark.parametrize("bad", [{"val_runs": 0}, {"trials": 0}, {"val_runs": -2}, {"trials": -1}])
def test_hyperparameter_search_rejects_empty_counts_before_training(hpo_setup, bad, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a trial trained before the counts were checked")

    monkeypatch.setattr(harness, "train", no_training)
    base, ranges = hpo_setup
    with pytest.raises(ValueError, match=next(iter(bad))):
        settings = HpoSettings(**{"trials": 2, "val_runs": 2, **ranges, **bad})
        hyperparameter_search(base, "site_by_site", SPEC3, RandomStream(15), settings)


def test_hyperparameter_search_trains_and_scores_under_its_noise(hpo_setup, monkeypatch):
    base, ranges = hpo_setup
    trained, scored = [], []

    def spy_train(config, *args, **kwargs):
        trained.append((config.noise_p, config.noise_delta))
        return real_train(config, *args, **kwargs)

    def spy_lockstep(unitaries, actions, n_steps, noise, *args, **kwargs):
        scored.append(noise)
        return real_lockstep(unitaries, actions, n_steps, noise, *args, **kwargs)

    real_train, real_lockstep = harness.train, harness.evolve_lockstep
    monkeypatch.setattr(harness, "train", spy_train)
    monkeypatch.setattr(harness, "evolve_lockstep", spy_lockstep)
    settings = HpoSettings(trials=2, val_runs=2, noise_p=0.5, noise_delta=0.75, **ranges)
    hyperparameter_search(base, "site_by_site", SPEC3, RandomStream(16), settings)
    assert trained == [(0.5, 0.75)] * 2
    assert scored == [NoiseModel(p=0.5, delta=0.75)] * 2
