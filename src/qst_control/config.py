"""Experiment configuration: YAML schema, validation, and resolution.

Configs are plain YAML mappings.  Validation is strict: unknown sections
or keys are errors that name the exact field path (so a typo like
``ga.populaton_size`` cannot silently fall back to a default), values are
type- and range-checked, and every missing field resolves to an explicit
default.  The resolved form can be printed (``describe``) and re-parsed
into an identical configuration.

Each section is read off the dataclass it builds, the type of the
same-named :class:`ExperimentConfig` field: its field names, annotations
and defaults are the section's keys, value shapes and defaults, a field
without a default is required, and a dataclass-typed field (such as
``DqnConfig.reward``) is a subsection.  The study sections' classes live
in :mod:`qst_control.harness`, whose studies take them whole.  A key's
bound is the one declared on its field (:mod:`qst_control.bounds`), which
the checked dataclasses also enforce when built, so a value out of range
is reported under its dotted path.  The top level is read the same way
off :class:`ExperimentConfig` itself: its plain fields are the top-level
keys, its dataclass-typed fields the sections.

One walk over the mapping checks each key where it reads it, fills in
the defaults and builds each section's dataclass as soon as the section
ends, so the first fault in file order is the one reported.  A
dataclass that rejects a combination of values is reported under its
top-level section (``dqn``, for a bad ``dqn.reward``).  Once the walk is
done, an action set that does not fit the chain is reported under
``action_set``.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .actions import SET_BUILDERS, set_size
from .bounds import COUNT, Checked, Range, bound_of, bounded, check
from .chain import ChainSpec
from .dqn import DqnConfig
from .ga import GaConfig
from .harness import HistogramSettings, HpoSettings, ScalingSettings, SweepSettings, ValidateSettings

MODES = ("ga", "dqn-train", "validate", "sweep", "histogram", "scaling", "baseline", "hpo", "describe")


class ConfigError(ValueError):
    """Invalid configuration; ``path`` names the offending field."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


# ------------------------------------------------------------- typed form


@dataclass
class BaselineSettings(Checked):
    n_steps: int | None = bounded(None, Range(0))


@dataclass(kw_only=True)
class ExperimentConfig:
    """Fully resolved, typed experiment description; each field is a top-level key."""

    mode: str = bounded(None, MODES)  # None: the resolved form leaves it out
    seed: int = bounded(0, Range(0, 2**64 - 1))  # one 64-bit word of the Philox key
    output_dir: str = "artifacts"
    workers: int = bounded(1, COUNT)
    action_set: str = bounded("site_by_site", tuple(SET_BUILDERS))
    chain: ChainSpec
    ga: GaConfig
    dqn: DqnConfig
    validate: ValidateSettings
    sweep: SweepSettings
    histogram: HistogramSettings
    scaling: ScalingSettings
    hpo: HpoSettings
    baseline: BaselineSettings
    resolved: dict = field(init=False, repr=False)  # the resolved form, as describe prints it


# ------------------------------------------------------------------ schema


def _schema(cls) -> dict:
    """Config key -> (annotation, default, bound) for the mapping ``cls`` builds."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default, bound_of(f)) for f in dataclasses.fields(cls) if f.init}


# what a missing required key stands for, in its error message
_REQUIRED = {"chain.n": "chain length"}

_LIST_OF = {int: "integers", float: "numbers"}
_FIXED = {2: "a [low, high] pair", 3: "three reward scales"}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check(hint, v, path: str):
    """Check ``v`` against the annotation ``hint``; tuples come back as lists."""
    args = typing.get_args(hint)
    if type(None) in args:
        return None if v is None else _check(args[0], v, path)
    if typing.get_origin(hint) is tuple:
        if args[-1] is Ellipsis:
            if not isinstance(v, (list, tuple)) or len(v) == 0:
                raise ConfigError(path, f"expected a non-empty list of {_LIST_OF[args[0]]}, got {v!r}")
            return [_check(args[0], x, f"{path}[{i}]") for i, x in enumerate(v)]
        if not isinstance(v, (list, tuple)) or len(v) != len(args):
            raise ConfigError(path, f"expected {_FIXED[len(args)]}, got {v!r}")
        out = [_check(a, x, f"{path}[{i}]") for i, (a, x) in enumerate(zip(args, v))]
        if len(out) == 2 and out[0] > out[1]:
            raise ConfigError(path, f"low bound exceeds high bound: {v!r}")
        return out
    if hint is str and not isinstance(v, str):
        raise ConfigError(path, f"expected a string, got {v!r}")
    if hint is int and not _is_int(v):
        raise ConfigError(path, f"expected an integer, got {v!r}")
    if hint is float:
        if not (_is_int(v) or isinstance(v, float)):
            raise ConfigError(path, f"expected a number, got {v!r}")
        try:
            v = float(v)
        except OverflowError:  # an integer past the largest float
            v = math.inf if v > 0 else -math.inf
    return v


def _section(cls, path: str, data) -> tuple:
    """Check, default and build the section ``cls`` reads: ``(cls object, resolved mapping)``.

    Given keys are checked first, in their order, then the left-out keys
    default, so the first fault in file order is the one reported.
    """
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(path, f"expected a mapping, got {data!r}")
    schema = _schema(cls)
    kwargs, out = {}, {}
    for key in [*data, *(k for k in schema if k not in data)]:
        sub = f"{path}.{key}" if path else str(key)
        if key not in schema:
            raise ConfigError(sub, "unknown key")
        hint, default, bound = schema[key]
        if dataclasses.is_dataclass(hint):
            kwargs[key], out[key] = _section(hint, sub, data.get(key))
            continue
        if key in data:
            value = _check(hint, data[key], sub)
            check(value, bound, sub, ConfigError)
        elif default is dataclasses.MISSING:
            raise ConfigError(sub, f"required ({_REQUIRED[sub]})")
        else:
            value = default
        # the typed form holds tuples; the resolved one lists, the form YAML reads back
        kwargs[key] = tuple(value) if isinstance(value, list) else value
        out[key] = list(value) if isinstance(value, tuple) else value
    try:
        return cls(**kwargs), out
    except ValueError as exc:  # a combination the dataclass rejects, named by its top-level section
        raise ConfigError(path.partition(".")[0], str(exc)) from None


def _walk(data) -> ExperimentConfig:
    if data is not None and not isinstance(data, dict):
        raise ConfigError("", f"config must be a mapping, got {type(data).__name__}")
    config, resolved = _section(ExperimentConfig, "", data)
    try:
        set_size(config.action_set, config.chain.n, config.chain.field_strength)
    except ValueError as exc:
        raise ConfigError("action_set", str(exc)) from None
    if config.mode is None:
        del resolved["mode"]
    config.resolved = resolved
    return config


def resolve(data: dict | None) -> dict:
    """Validate a raw mapping and fill in every default."""
    return _walk(data).resolved


# -------------------------------------------------------------- overrides


def apply_overrides(data: dict, overrides) -> dict:
    """Apply ``--set section.key=value`` pairs onto the raw mapping.

    Values parse as YAML scalars, so ``--set sweep.h_values=[50,100]``
    and ``--set ga.mutated_genes=null`` work as expected.
    """
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError("", f"override must look like key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("", f"override has an empty key: {item!r}")
        try:
            value = yaml.safe_load(raw) if raw != "" else None
        except yaml.YAMLError as exc:
            raise ConfigError(key, f"unparseable override value {raw!r}: {exc}") from None
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = node[part] = {}
            elif not isinstance(nxt, dict):
                raise ConfigError(key, f"cannot descend into non-mapping {part!r}")
            node = nxt
        node[parts[-1]] = value
    return data


def load_config(
    path=None,
    overrides=None,
    mode: str | None = None,
    seed: int | None = None,
    output_dir: str | None = None,
    workers: int | None = None,
) -> ExperimentConfig:
    """Read, override, validate, and type a configuration.

    ``mode`` is the invoked subcommand; a ``mode`` key in the file must
    agree with it.  ``seed``, ``output_dir``, and ``workers`` are the
    dedicated CLI flags and take precedence over both the file and
    ``--set`` overrides.
    """
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError("", f"invalid YAML in {path}: {exc}") from None
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError("", f"config file must hold a mapping, got {type(data).__name__}")
    else:
        data = {}
    data = apply_overrides(data, overrides)
    if seed is not None:
        data["seed"] = seed
    if output_dir is not None:
        data["output_dir"] = str(output_dir)
    if workers is not None:
        data["workers"] = workers
    config = _walk(data)
    if mode is not None and mode != "describe":
        if config.mode is not None and config.mode != mode:
            raise ConfigError(
                "mode", f"config requests {config.mode!r} but the {mode!r} subcommand was invoked"
            )
        config.mode = config.resolved["mode"] = mode
    return config


# --------------------------------------------------------------- describe


def describe(config: ExperimentConfig) -> str:
    """Resolved config as YAML, with derived quantities as comments.

    The output re-parses to the same configuration (comments are ignored),
    so a described config can be saved and rerun verbatim.
    """
    chain = config.chain
    n_actions = set_size(config.action_set, chain.n, chain.field_strength)
    table = config.dqn.reward
    mutated = config.ga.resolved_mutated_genes(chain.n)
    source = "explicit" if config.ga.mutated_genes is not None else "chain length"
    lines = [
        "# resolved experiment configuration; derived quantities:",
        f"#   n_steps: {chain.n_steps}   (sequence length, deadline {chain.transfer_deadline!r})",
        f"#   n_actions: {n_actions}   ({config.action_set})",
        f"#   ga swaps per mutation event: {mutated // 2}   (mutated_genes {mutated}, {source})",
        f"#   dqn hidden layers: {config.dqn.hidden1} -> {config.dqn.resolved_hidden2}",
        (
            f"#   reward: 0 below p={table.zeta!r}; {table.scales[1]!r}*p to p={table.high!r}; "
            f"{table.scales[2]!r}*p above"
        ),
        (
            f"#   epsilon: {config.dqn.epsilon_start!r} -> {config.dqn.epsilon_floor!r}, "
            f"minus {config.dqn.epsilon_decay!r} per learning event"
        ),
    ]
    body = yaml.safe_dump(config.resolved, sort_keys=True, default_flow_style=None)
    return "\n".join(lines) + "\n" + body
