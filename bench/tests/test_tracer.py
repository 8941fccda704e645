"""The tracer wraps every lookup place, nests across threads and restores."""

import threading
import time

import layers
from qst_control import chain, dqn, harness, noise
from tracer import Tracer, blocking_self_s, self_times, totals


def test_install_wraps_every_lookup_place_and_uninstall_restores():
    originals = (noise.sample_noise_gate, chain.sample_noise_gate, dqn.sample_noise_gate)
    assert originals[0] is originals[1] is originals[2]
    t = Tracer()
    layers.install(t)
    try:
        for holder in (noise, chain, dqn):
            assert holder.sample_noise_gate is not originals[0]
        from qst_control import ga
        assert ga.evolve_population is chain.evolve_population
        assert ga.evolve_population.__wrapped__ is not None
    finally:
        t.uninstall()
    for holder in (noise, chain, dqn):
        assert holder.sample_noise_gate is originals[0]


def test_jobs_on_pool_threads_nest_under_run_jobs():
    t = Tracer()
    run_jobs = t.wrap_run_jobs(harness.run_jobs)
    leaf = t.wrap(lambda: time.sleep(0.01) or threading.get_ident(), "leaf")
    with t.span("root") as root:
        threads = run_jobs({k: leaf for k in range(4)}, workers=2)
    by_name = {}
    for s in t.spans:
        by_name.setdefault(s[1], []).append(s)
    (rj,) = by_name["harness.run_jobs"]
    assert rj[4] == root
    assert len(by_name["harness.job"]) == 4 and all(j[4] == rj[0] for j in by_name["harness.job"])
    job_ids = {j[0] for j in by_name["harness.job"]}
    assert all(leaf_span[4] in job_ids for leaf_span in by_name["leaf"])
    assert len(set(threads.values())) == 2
    root_span = next(s for s in t.spans if s[0] == root)
    assert abs(blocking_self_s(t.spans, root) - (root_span[3] - root_span[2])) <= 1e-9


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "a", 0.0, 10.0, None, 0),
        (2, "b", 1.0, 4.0, 1, 0),
        (3, "c", 3.0, 5.0, 1, 1),  # overlaps b on another thread
        (4, "d", 8.0, 9.0, 1, 0),
    ]
    assert self_times(spans)[1] == 10.0 - 4.0 - 1.0
    assert totals(spans)["a"] == {"calls": 1, "s": 10.0, "self_s": 5.0}
