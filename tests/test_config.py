import dataclasses
import re
import textwrap
import typing
from pathlib import Path

import pytest
import yaml

from qst_control import config as config_module
from qst_control.chain import ChainSpec
from qst_control.config import (
    BaselineSettings,
    ConfigError,
    HistogramSettings,
    HpoSettings,
    ScalingSettings,
    SweepSettings,
    ValidateSettings,
    apply_overrides,
    describe,
    load_config,
    resolve,
)
from qst_control.dqn import DqnConfig
from qst_control.ga import GaConfig


def minimal(**extra):
    data = {"chain": {"n": 8}}
    data.update(extra)
    return data


def test_defaults_fill_in():
    resolved = resolve(minimal())
    assert resolved["seed"] == 0
    assert resolved["workers"] == 1
    assert resolved["action_set"] == "site_by_site"
    assert resolved["chain"] == {"n": 8, "coupling": 1.0, "dt": 0.15, "field_strength": 100.0}
    assert resolved["ga"]["population_size"] == 4096
    assert resolved["ga"]["mutated_genes"] is None
    assert resolved["dqn"]["reward"] == {"zeta": 0.05, "high": 0.9, "scales": [0.0, 10.0, 2500.0]}
    assert resolved["validate"]["p_values"] == [0.0, 0.125, 0.25, 0.5]
    assert resolved["hpo"]["hidden1"] == [512, 4096]
    assert "mode" not in resolved


def test_chain_section_required():
    with pytest.raises(ConfigError, match="chain.n"):
        resolve({})


def test_unknown_keys_are_named_precisely():
    with pytest.raises(ConfigError, match=r"^sweeps: unknown key"):
        resolve(minimal(sweeps={}))
    with pytest.raises(ConfigError, match=r"^ga\.populaton_size: unknown key"):
        resolve(minimal(ga={"populaton_size": 512}))
    with pytest.raises(ConfigError, match=r"^ga\.n_seeds: unknown key"):
        resolve(minimal(ga={"n_seeds": 30}))
    with pytest.raises(ConfigError, match=r"^dqn\.reward\.zta: unknown key"):
        resolve(minimal(dqn={"reward": {"zta": 0.1}}))
    # reward is only a subsection of dqn, never a top-level section
    with pytest.raises(ConfigError, match=r"^reward: unknown key"):
        resolve(minimal(reward={"zeta": 0.1}))


def test_type_errors_are_named():
    with pytest.raises(ConfigError, match=r"^chain\.n: expected an integer"):
        resolve({"chain": {"n": 8.5}})
    with pytest.raises(ConfigError, match=r"^seed: expected an integer"):
        resolve(minimal(seed=True))
    with pytest.raises(ConfigError, match=r"^ga\.crossover_probability: must be at most 1"):
        resolve(minimal(ga={"crossover_probability": 1.5}))
    with pytest.raises(ConfigError, match=r"^sweep\.h_values"):
        resolve(minimal(sweep={"h_values": []}))
    with pytest.raises(ConfigError, match=r"^hpo\.gamma"):
        resolve(minimal(hpo={"gamma": [1.0, 0.95]}))
    with pytest.raises(ConfigError, match=r"^validate\.controller: must be one of"):
        resolve(minimal(validate={"controller": "tabular"}))


def test_cross_field_errors_carry_section():
    with pytest.raises(ConfigError, match=r"^ga: parents_mating"):
        load_config(overrides=["chain.n=8", "ga.population_size=8"])


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```yaml\n(.*?)```", readme, re.DOTALL)
    cfg = tmp_path / "example.yaml"
    cfg.write_text(example)
    config = load_config(cfg, mode="validate")
    assert config.mode == "validate"
    assert config.workers == 4
    assert config.ga.population_size == 512
    assert config.dqn.reward.zeta == 0.1


def test_overrides_change_exactly_one_field():
    base = resolve(minimal())
    tweaked = resolve(apply_overrides(minimal(), ["ga.population_size=512"]))
    assert tweaked["ga"]["population_size"] == 512
    tweaked["ga"]["population_size"] = base["ga"]["population_size"]
    assert tweaked == base


def test_override_value_parsing():
    data = apply_overrides(
        {}, ["sweep.h_values=[50, 100]", "ga.mutated_genes=null", "chain.dt=0.3", "seed=9"]
    )
    assert data["sweep"]["h_values"] == [50, 100]
    assert data["ga"]["mutated_genes"] is None
    assert data["chain"]["dt"] == 0.3
    assert data["seed"] == 9


def test_override_errors():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["chain.n"])
    with pytest.raises(ConfigError, match="cannot descend"):
        apply_overrides({"chain": 5}, ["chain.n=8"])


def test_flag_precedence_over_file_and_set(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("chain: {n: 8}\nseed: 5\n")
    config = load_config(cfg, overrides=["seed=6"], seed=7)
    assert config.seed == 7
    config = load_config(cfg, overrides=["seed=6"])
    assert config.seed == 6
    config = load_config(cfg)
    assert config.seed == 5


def test_mode_consistency(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("mode: ga\nchain: {n: 8}\n")
    assert load_config(cfg, mode="ga").mode == "ga"
    with pytest.raises(ConfigError, match="subcommand"):
        load_config(cfg, mode="sweep")
    # describe accepts any configured mode
    assert load_config(cfg, mode="describe").mode == "ga"


def test_typed_build(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        textwrap.dedent(
            """
            chain: {n: 8, dt: 0.15}
            action_set: zhang16
            dqn:
              hidden1: 2417
              reward: {zeta: 0.1}
            hpo:
              hidden1: [64, 128]
            """
        )
    )
    config = load_config(cfg)
    assert config.action_set == "zhang16"
    assert config.chain.n == 8
    assert config.dqn.hidden1 == 2417
    assert config.dqn.resolved_hidden2 == 806
    assert config.dqn.reward.zeta == 0.1
    assert config.hpo.hidden1 == (64, 128)
    assert config.validate.p_values == (0.0, 0.125, 0.25, 0.5)


def test_empty_and_missing_file(tmp_path):
    empty = tmp_path / "e.yaml"
    empty.write_text("")
    with pytest.raises(ConfigError, match="chain.n"):
        load_config(empty)
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "nope.yaml")
    bad = tmp_path / "b.yaml"
    bad.write_text("chain: [1, 2\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(bad)


def test_describe_round_trips():
    config = load_config(
        overrides=["chain.n=6", "ga.population_size=64", "ga.parents_mating=16", "ga.keep_elitism=8"],
        mode="ga",
    )
    text = describe(config)
    reparsed = resolve(yaml.safe_load(text))
    assert reparsed == config.resolved
    assert "# " in text  # derived quantities are present as comments
    assert "n_steps: 30" in text


# One bad value per checker kind: (overrides, ConfigError.path, message prefix).
# Sections whose dataclass rejects a combination report the section itself.
ERROR_PATHS = [
    (["chain.n=8.5"], "chain.n", "chain.n: expected an integer"),
    (["seed=true"], "seed", "seed: expected an integer"),
    (["output_dir=5"], "output_dir", "output_dir: expected a string"),
    (["ga.mutated_genes=-1"], "ga.mutated_genes", "ga.mutated_genes: must be at least 0"),
    (["ga=5"], "ga", "ga: expected a mapping"),
    (
        ["validate.delta_values=[0.1, -1]"],
        "validate.delta_values[1]",
        "validate.delta_values[1]: must be at least 0.0",
    ),
    (["scaling.lengths=[1]"], "scaling.lengths[0]", "scaling.lengths[0]: must be at least 2"),
    (["hpo.hidden1=[1.5, 2]"], "hpo.hidden1[0]", "hpo.hidden1[0]: expected an integer"),
    (["dqn.reward.scales=[1, 2]"], "dqn.reward.scales", "dqn.reward.scales: expected three"),
    (
        ["dqn.minibatch=64", "dqn.replay_capacity=32"],
        "dqn",
        "dqn: replay_capacity must be at least the minibatch size",
    ),
    (["dqn.reward.zeta=0.95"], "dqn", "dqn: need 0 <= zeta <= high <= 1"),
    # impossible noise levels and step lengths fail here, not mid-run
    (["validate.p_values=[1.5]"], "validate.p_values[0]", "validate.p_values[0]: must be at most 1.0"),
    (["sweep.dt_values=[0.15, -0.1]"], "sweep.dt_values[1]", "sweep.dt_values[1]: must be positive"),
    # NaN passes every bound, and seeds wrap at 64 bits
    (
        ["validate.delta_values=[0.5, .nan]"],
        "validate.delta_values[1]",
        "validate.delta_values[1]: must be finite, got nan",
    ),
    (["chain.n=8", "chain.dt=.inf"], "chain.dt", "chain.dt: must be finite, got inf"),
    (["seed=18446744073709551616"], "seed", "seed: must be at most 18446744073709551615"),
    # bounds declared only on a dataclass field, or on none, and a float past the largest double
    (["hpo.gamma=[0.9, 1.5]"], "hpo.gamma[1]", "hpo.gamma[1]: must be at most 1.0, got 1.5"),
    (["chain.n=8", "chain.dt=-0.1"], "chain.dt", "chain.dt: must be positive, got -0.1"),
    (["dqn.gamma=2"], "dqn.gamma", "dqn.gamma: must be at most 1.0, got 2.0"),
    (["chain.n=8", "chain.coupling=1" + "0" * 400], "chain.coupling", "chain.coupling: must be finite"),
    # an action set the chain is too short for
    (["chain.n=4", "action_set=zhang16"], "action_set", "action_set: the 16-action set needs n >= 6"),
    # several faults: each section is checked, defaulted and built before the next is read
    (["chain.dt=0.15", "ga.typo=1"], "chain.n", "chain.n: required (chain length)"),
    (["chain.n=8", "ga.population_size=8", "sweeps.x=1"], "ga", "ga: parents_mating"),
]


@pytest.mark.parametrize("overrides, path, prefix", ERROR_PATHS)
def test_config_error_paths(overrides, path, prefix):
    if not overrides[0].startswith("chain."):
        overrides = ["chain.n=8"] + overrides
    with pytest.raises(ConfigError) as info:
        load_config(overrides=overrides)
    assert info.value.path == path
    assert str(info.value).startswith(prefix)


def test_every_numeric_key_is_bounded():
    # a new int or float field cannot skip validation; the reward scales are free
    from qst_control.bounds import bound_of

    def leaves(hint):
        args = typing.get_args(hint)
        return set().union(*map(leaves, args)) if args else {hint}

    unbounded = []

    def walk(path, schema):
        for key, (hint, _, bound) in schema.items():
            sub = f"{path}.{key}" if path else key
            if dataclasses.is_dataclass(hint):
                walk(sub, config_module._schema(hint))
            elif leaves(hint) & {int, float} and bound is None:
                unbounded.append(sub)

    walk("", config_module._schema(config_module.ExperimentConfig))
    assert unbounded == ["dqn.reward.scales"]
    # every value an HPO range can draw is one DqnConfig accepts
    dqn_bounds = {f.name: bound_of(f) for f in dataclasses.fields(DqnConfig)}
    hpo_bounds = {f.name: bound_of(f) for f in dataclasses.fields(HpoSettings)}
    assert all(hpo_bounds[name] == dqn_bounds[name] for name in ("gamma", "learning_rate", "hidden1"))


def test_defaults_are_the_dataclass_defaults():
    # a CLI run and a library run of the default setup build equal objects
    config = load_config(overrides=["chain.n=8"])
    assert config.chain == ChainSpec(n=8)
    assert config.ga == GaConfig()
    assert config.dqn == DqnConfig()
    assert config.hpo == HpoSettings()
    assert config.validate == ValidateSettings()
    assert config.sweep == SweepSettings()
    assert config.histogram == HistogramSettings()
    assert config.scaling == ScalingSettings()
    assert config.baseline == BaselineSettings()


def test_describe_round_trips_every_section(tmp_path):
    overrides = [
        "mode=ga",
        "seed=3",
        "action_set=zhang16",
        "chain.n=6",
        "chain.dt=0.2",
        "ga.population_size=64",
        "ga.parents_mating=16",
        "ga.keep_elitism=8",
        "dqn.gamma=0.9",
        "dqn.hidden2=7",
        "dqn.reward.scales=[0, 1, 2]",
        "validate.p_values=[0.5]",
        "sweep.dt_values=[0.3]",
        "histogram.threshold=0.5",
        "scaling.lengths=[8, 12]",
        "hpo.hidden1=[64, 128]",
        "hpo.noise_p=0.5",
        "baseline.n_steps=10",
    ]
    config = load_config(overrides=overrides)
    described = tmp_path / "described.yaml"
    described.write_text(describe(config))
    assert load_config(described) == config
