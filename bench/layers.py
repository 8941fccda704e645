"""Which ``qst_control`` functions the traced run wraps, and the per-layer
metrics derived from their spans and counters."""

from __future__ import annotations

import numpy as np

from tracer import Tracer, totals


def install(t: Tracer) -> None:
    """Wrap the public functions of every layer (modules must be imported)."""
    from qst_control import actions, chain, dqn, ga, harness, noise, qnet, rng

    def population(args, kwargs, result):
        genes = args[0] if args else kwargs["genes"]
        cache = args[1] if len(args) > 1 else kwargs["cache"]
        t.deferred["evolve_population"].append((np.asarray(genes), cache.unitaries.shape[1]))

    t.patch_function(actions, "build_cache", "actions.build_cache")
    t.patch_function(chain, "evolve_population", "chain.evolve_population", population)
    t.patch_function(chain, "evolve_sequence", "chain.evolve_sequence",
                     lambda a, k, r: t.add("chain.evolve_sequence.steps", r.n_steps))
    t.patch_function(noise, "sample_noise_gate", "noise.sample_noise_gate",
                     lambda a, k, r: r is not None and t.add("noise.active_gates"))
    t.patch_method(rng.RandomStream, "generator", "rng.generator")
    t.patch_function(ga, "uniform_crossover", "ga.uniform_crossover")
    t.patch_function(ga, "swap_mutation", "ga.swap_mutation")
    t.patch_function(ga, "run_ga", "ga.run_ga",
                     lambda a, k, r: t.add("ga.generations", r.generations_run))
    for method in ("q_values", "q_batch", "loss_and_gradients", "apply_gradients"):
        t.patch_method(qnet.QNetwork, method, f"qnet.{method}")
    t.patch_function(dqn, "train", "dqn.train", lambda a, k, r: (
        t.add("dqn.learn_events", r.learn_events),
        t.deferred["qnet_sizes"].append(r.network.sizes),
    ))
    t.patch_function(dqn, "epsilon_greedy", "dqn.epsilon_greedy")
    t.patch_function(dqn, "td_update", "dqn.td_update")
    t.patch_method(dqn.ReplayMemory, "push", "dqn.replay.push")
    t.patch_method(dqn.ReplayMemory, "sample", "dqn.replay.sample")
    t.patch_function(dqn, "greedy_rollout", "dqn.greedy_rollout",
                     lambda a, k, r: t.add("dqn.greedy_rollout.steps", len(r[0])))
    t.patch_function(harness, "run_jobs", "harness.run_jobs", wrapper=t.wrap_run_jobs)
    t.patch_function(harness, "validate_controller", "harness.validate_controller")
    t.patch_method(harness.FixedSequenceController, "rollout", "harness.rollout")
    t.patch_method(harness.GreedyPolicyController, "rollout", "harness.rollout")


def _population_counts(calls) -> tuple[int, int, float]:
    """(sequence-steps, action groups, unitary MiB fed to the group products).

    One group is one (step, distinct action) pair of one call; each group
    costs one product with an n x n complex128 unitary.
    """
    seq_steps = groups = 0
    mib = 0.0
    for genes, n in calls:
        if genes.size == 0:
            continue
        srt = np.sort(genes, axis=0)
        g = int(genes.shape[1] + np.count_nonzero(np.diff(srt, axis=0)))
        seq_steps += genes.size
        groups += g
        mib += g * n * n * 16 / 2**20
    return seq_steps, groups, mib


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metric values from one traced round (units in run.py)."""
    tot = totals(t.spans)
    c = t.counters

    def s(name):
        return tot.get(name, {}).get("s", 0.0)

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def self_s(name):
        return tot.get(name, {}).get("self_s", 0.0)

    seq_steps, groups, mib = _population_counts(t.deferred["evolve_population"])
    sizes = t.deferred["qnet_sizes"]
    flops = 2 * sum(a * b for a, b in zip(sizes[0][:-1], sizes[0][1:])) if sizes else 0
    return {
        "actions.build_cache.s": s("actions.build_cache"),
        "chain.evolve_population.s": s("chain.evolve_population"),
        "chain.evolve_population.calls": calls("chain.evolve_population"),
        "chain.evolve_population.seq_steps": seq_steps,
        "chain.evolve_population.us_per_seq_step": 1e6 * _ratio(s("chain.evolve_population"), seq_steps),
        "chain.evolve_population.rows_per_group": _ratio(seq_steps, groups),
        "chain.evolve_population.unitary_mib": mib,
        "chain.evolve_sequence.s": s("chain.evolve_sequence"),
        "chain.evolve_sequence.us_per_step": 1e6 * _ratio(s("chain.evolve_sequence"), c["chain.evolve_sequence.steps"]),
        "noise.sample_noise_gate.s": s("noise.sample_noise_gate"),
        "noise.sample_noise_gate.calls": calls("noise.sample_noise_gate"),
        "noise.active_gates": c["noise.active_gates"],
        "rng.generator.s": s("rng.generator"),
        "rng.generator.calls": calls("rng.generator"),
        "ga.run_ga.self_s": self_s("ga.run_ga"),
        "ga.uniform_crossover.s": s("ga.uniform_crossover"),
        "ga.swap_mutation.s": s("ga.swap_mutation"),
        "ga.operators.calls": calls("ga.uniform_crossover") + calls("ga.swap_mutation"),
        "ga.generations": c["ga.generations"],
        **{
            f"qnet.{m}.{k}": (s if k == "s" else calls)(f"qnet.{m}")
            for m in ("q_values", "q_batch", "loss_and_gradients", "apply_gradients")
            for k in ("s", "calls")
        },
        "qnet.flops_per_forward": flops,
        "dqn.train.self_s": self_s("dqn.train"),
        "dqn.epsilon_greedy.s": s("dqn.epsilon_greedy"),
        "dqn.td_update.self_s": self_s("dqn.td_update"),
        "dqn.replay.push_s": s("dqn.replay.push"),
        "dqn.replay.sample_s": s("dqn.replay.sample"),
        "dqn.learn_events": c["dqn.learn_events"],
        "dqn.greedy_rollout.s": s("dqn.greedy_rollout"),
        "dqn.greedy_rollout.us_per_step": 1e6 * _ratio(s("dqn.greedy_rollout"), c["dqn.greedy_rollout.steps"]),
        "harness.run_jobs.s": s("harness.run_jobs"),
        "harness.run_jobs.parallel_efficiency": _ratio(s("harness.job"), c["harness.run_jobs.capacity_s"]),
        "harness.validate_controller.s": s("harness.validate_controller"),
        "harness.rollouts": calls("harness.rollout"),
    }
