"""The qst-control benchmark: design a controller, then validate it.

    python3 bench/run.py --workload ga-n16 --seed 0 --seconds 30 --trace 0

Each round runs ``worker.py`` in a fresh Python process: build the
propagator cache, design a controller, run it through the 4 x 4 dephasing
grid, check the outputs against the independent reference.  Rounds repeat
while the next one still fits in ``--seconds``; at least one always runs.
With ``--trace 0`` the rounds are untraced, two set-up-only processes add
samples of the set-up time, and the end-to-end metrics are medians over
rounds.  With ``--trace 1`` untraced and traced rounds alternate, the
per-layer metrics are medians over traced rounds, and
``trace.overhead_share`` compares the two kinds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record of the run goes
to ``bench/out/``.  Thread environment variables are passed on as found.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
TIME_LIMIT_S = 170.0
SETUP_PROBES = 2

sys.path.insert(0, str(BENCH))
import worker  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": ("s", "lower"),
    "design_steps_per_s": ("steps/s", "higher"),
    "rollout_steps_per_s": ("steps/s", "higher"),
    "design_best_p": ("probability", "higher"),
    "grid_mean_p": ("probability", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}

PER_LAYER = {
    "actions.build_cache.s": ("s", "lower"),
    "chain.evolve_population.s": ("s", "lower"),
    "chain.evolve_population.calls": ("count", "lower"),
    "chain.evolve_population.seq_steps": ("count", "higher"),
    "chain.evolve_population.us_per_seq_step": ("us", "lower"),
    "chain.evolve_population.rows_per_group": ("rows", "higher"),
    "chain.evolve_population.unitary_mib": ("MiB", "lower"),
    "chain.evolve_sequence.s": ("s", "lower"),
    "chain.evolve_sequence.us_per_step": ("us", "lower"),
    "noise.sample_noise_gate.s": ("s", "lower"),
    "noise.sample_noise_gate.calls": ("count", "lower"),
    "noise.active_gates": ("count", "lower"),
    "rng.generator.s": ("s", "lower"),
    "rng.generator.calls": ("count", "lower"),
    "ga.run_ga.self_s": ("s", "lower"),
    "ga.uniform_crossover.s": ("s", "lower"),
    "ga.swap_mutation.s": ("s", "lower"),
    "ga.operators.calls": ("count", "lower"),
    "ga.generations": ("count", "higher"),
    "qnet.q_values.s": ("s", "lower"),
    "qnet.q_values.calls": ("count", "lower"),
    "qnet.q_batch.s": ("s", "lower"),
    "qnet.q_batch.calls": ("count", "lower"),
    "qnet.loss_and_gradients.s": ("s", "lower"),
    "qnet.loss_and_gradients.calls": ("count", "lower"),
    "qnet.apply_gradients.s": ("s", "lower"),
    "qnet.apply_gradients.calls": ("count", "lower"),
    "qnet.flops_per_forward": ("flop", "lower"),
    "dqn.train.self_s": ("s", "lower"),
    "dqn.epsilon_greedy.s": ("s", "lower"),
    "dqn.td_update.self_s": ("s", "lower"),
    "dqn.replay.push_s": ("s", "lower"),
    "dqn.replay.sample_s": ("s", "lower"),
    "dqn.learn_events": ("count", "higher"),
    "dqn.greedy_rollout.s": ("s", "lower"),
    "dqn.greedy_rollout.us_per_step": ("us", "lower"),
    "harness.run_jobs.s": ("s", "lower"),
    "harness.run_jobs.parallel_efficiency": ("ratio", "higher"),
    "harness.validate_controller.s": ("s", "lower"),
    "harness.rollouts": ("count", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return p


class Run:
    def __init__(self, args) -> None:
        self.args = args
        self.start = time.monotonic()
        self.rounds: list[dict] = []
        self.setups: list[float] = []

    def spawn(self, kind: str, index: int) -> dict:
        """Start one worker process ("setup", "plain" or "traced") and wait for it."""
        a = self.args
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", a.workload, "--seed", str(a.seed),
               "--trace", "1" if kind == "traced" else "0"]
        if kind == "setup":
            cmd.append("--setup-only")
        if kind == "traced":
            cmd += ["--spans", str(OUT / f"{a.workload}-seed{a.seed}-round{index}.spans.json")]
        if a.smoke:
            cmd.append("--smoke")
        budget = TIME_LIMIT_S - (time.monotonic() - self.start)
        began = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawn-time", repr(began)], stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"kind": kind, "error": "worker timed out"}
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"kind": kind, "error": f"worker exited with {proc.returncode}"}
        result = json.loads(lines[-1])
        result["kind"] = kind
        result["wall_s"] = time.monotonic() - began
        return result

    def measure(self) -> None:
        a = self.args
        window = time.monotonic()
        if not a.trace:
            for i in range(SETUP_PROBES):
                probe = self.spawn("setup", i)
                if "setup_s" in probe:
                    self.setups.append(probe["setup_s"])
        kinds = ("plain", "traced") if a.trace else ("plain",)
        while True:
            kind = kinds[len(self.rounds) % len(kinds)]
            self.rounds.append(self.spawn(kind, len(self.rounds)))
            if "error" in self.rounds[-1]:
                break
            if len(self.rounds) < len(kinds):
                continue
            next_kind = kinds[len(self.rounds) % len(kinds)]
            typical = statistics.median(r["wall_s"] for r in self.rounds if r["kind"] == next_kind)
            if time.monotonic() - window + typical > a.seconds:
                break

    def result(self) -> dict:
        rounds = [r for r in self.rounds if "times" in r]
        wl = workloads.get(self.args.workload, self.args.smoke)
        for r in self.rounds:
            if "error" in r:
                r["attempted"] = r["failed"] = worker.n_operations(wl, r["kind"] == "traced")
        attempted = sum(r["attempted"] for r in self.rounds)
        failed = sum(r["failed"] for r in self.rounds)
        metrics = {}
        if not self.args.trace:
            plain = [r for r in rounds if r["kind"] == "plain"]
            values = {
                "setup_s": self.setups + [r["setup_s"] for r in plain],
                "design_steps_per_s": [r["design_steps"] / r["times"]["design"] for r in plain],
                "rollout_steps_per_s": [r["rollout_steps"] / r["times"]["validate"] for r in plain],
                "design_best_p": [r["design_best_p"] for r in plain],
                "grid_mean_p": [r["grid_mean_p"] for r in plain],
                "peak_rss_mib": [r["peak_rss_mib"] for r in plain],
            }
            table = END_TO_END
        else:
            traced = [r for r in rounds if r["kind"] == "traced"]
            values = {name: [r["layers"][name] for r in traced] for name in PER_LAYER if name != "trace.overhead_share"}
            plain_s = [sum(r["times"].values()) for r in rounds if r["kind"] == "plain"]
            traced_s = [sum(r["times"].values()) for r in traced]
            if plain_s and traced_s:
                values["trace.overhead_share"] = [statistics.median(traced_s) / statistics.median(plain_s) - 1.0]
            table = PER_LAYER
        for name, (unit, _better) in table.items():
            if values.get(name):
                metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
        correct = failed == 0 and len(metrics) == len(table)
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "qst_control" / "__init__.py").is_file():
        print(f"run.py: no qst_control sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = Run(args)
    run.measure()
    summary = run.result()
    record = {"args": vars(args), "setup_probes": run.setups, "rounds": run.rounds, "result": summary}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for r in run.rounds:
        if "error" in r:
            print(f"round ({r['kind']}): {r['error']}")
        elif r.get("failures"):
            print(f"round ({r['kind']}) failed checks: {r['failures']}")
    env = next((r["env"] for r in run.rounds if "env" in r), {})
    print("env: " + json.dumps(env))
    print(f"rounds: {len(run.rounds)}, set-up samples: {len(run.setups) + len(run.rounds) * (1 - args.trace)}")
    for name, m in summary["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
