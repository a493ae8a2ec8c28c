"""Declarative experiment configuration (JSON/YAML round-trip).

Training runs are described by a tree of frozen/plain dataclasses
(:class:`~repro.core.agent.AutoCktConfig` at the root, nesting
:class:`~repro.rl.ppo.PPOConfig`, :class:`~repro.core.env.SizingEnvConfig`
and :class:`~repro.core.reward.RewardSpec`, with optional
:mod:`~repro.rl.schedules` objects inside the PPO config).  This module
converts that tree to and from plain dicts/JSON so experiments can be
versioned as files and re-run from the CLI:

    repro train opamp --config runs/opamp.json

Config files may be JSON or YAML — :func:`load_config` parses either
through the scenario zoo's structured-file loader
(:func:`repro.zoo.schema.load_structured_file`), so experiment configs
and zoo declarations share one file dialect and one parse-error surface.

Schedules are polymorphic, so they serialise with a ``"type"`` tag; every
other node is a plain field dict.  Unknown keys and values of the wrong
type are rejected, naming the key — a config file that silently ignores
a typo'd hyperparameter, or hands training the string ``"1e-3"`` (what
YAML makes of a bare exponent), is worse than one that errors.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import types
import typing
from typing import Any

from repro.core.agent import AutoCktConfig
from repro.core.env import SizingEnvConfig
from repro.core.reward import RewardSpec
from repro.errors import ReproError
from repro.rl.ppo import PPOConfig
from repro.rl.schedules import (
    ConstantSchedule,
    CosineSchedule,
    ExponentialSchedule,
    LinearSchedule,
    PiecewiseSchedule,
    Schedule,
)


class ConfigError(ReproError):
    """A config file/dict could not be parsed into a valid configuration."""


_SCHEDULE_TYPES: dict[str, type[Schedule]] = {
    "constant": ConstantSchedule,
    "linear": LinearSchedule,
    "exponential": ExponentialSchedule,
    "cosine": CosineSchedule,
    "piecewise": PiecewiseSchedule,
}


def schedule_to_dict(schedule: Schedule | None) -> dict[str, Any] | None:
    """Serialise a schedule with a ``"type"`` tag (None passes through)."""
    if schedule is None:
        return None
    for tag, cls in _SCHEDULE_TYPES.items():
        if type(schedule) is cls:
            data = dataclasses.asdict(schedule)
            if tag == "piecewise":
                data["points"] = [list(p) for p in schedule.points]
            data["type"] = tag
            return data
    raise ConfigError(f"unserialisable schedule type {type(schedule).__name__}")


def schedule_from_dict(data: dict[str, Any] | None) -> Schedule | None:
    """Inverse of :func:`schedule_to_dict`."""
    if data is None:
        return None
    if "type" not in data:
        raise ConfigError("schedule dict needs a 'type' tag")
    payload = dict(data)
    tag = payload.pop("type")
    cls = _SCHEDULE_TYPES.get(tag)
    if cls is None:
        raise ConfigError(f"unknown schedule type {tag!r}; "
                          f"choose from {sorted(_SCHEDULE_TYPES)}")
    if tag == "piecewise":
        payload["points"] = tuple(tuple(p) for p in payload.get("points", ()))
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ConfigError(f"bad {tag} schedule fields: {exc}") from None


def _plain_to_dict(obj: Any) -> dict[str, Any]:
    """Field dict of a flat dataclass, with tuples rendered as lists."""
    out = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        out[field.name] = list(value) if isinstance(value, tuple) else value
    return out


def _matches(value: Any, hint: Any) -> bool:
    """Whether a config value fits a field's type hint (bools are not
    numbers, ints are floats, a list of ints is a ``tuple[int, ...]``)."""
    if hint is bool:
        return isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is type(None):
        return value is None
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_matches(value, arg) for arg in typing.get_args(hint))
    if origin is tuple:
        item = typing.get_args(hint)[0]
        return (isinstance(value, (list, tuple))
                and all(_matches(v, item) for v in value))
    return isinstance(value, hint)


def _type_error(cls, key: str, value: Any, hint: Any) -> ConfigError:
    """The wrong-type error, with the YAML bare-exponent hint when the
    value is a string like ``"1e-3"``."""
    expected = hint.__name__ if type(hint) is type else str(hint)
    message = (f"{cls.__name__}.{key}: expected {expected}, got "
               f"{type(value).__name__} {value!r}")
    exponent = isinstance(value, str) and re.fullmatch(
        r"\s*([+-]?\d+)[eE]([+-]?\d+)\s*", value)
    if exponent:
        message += (" (YAML reads a bare exponent as a string: write "
                    f"{exponent[1]}.0e{exponent[2]})")
    return ConfigError(message)


def _build(cls, data: dict[str, Any], *, tuples: tuple[str, ...] = ()):
    """Instantiate a flat dataclass from a dict, rejecting unknown keys
    and values that do not fit the field types."""
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(
            f"unknown {cls.__name__} fields: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        if not _matches(value, hints[key]):
            raise _type_error(cls, key, value, hints[key])
    payload = dict(data)
    for key in tuples:
        if key in payload and isinstance(payload[key], list):
            payload[key] = tuple(payload[key])
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ConfigError(f"bad {cls.__name__} fields: {exc}") from None


def reward_to_dict(reward: RewardSpec) -> dict[str, Any]:
    """Field dict of a reward configuration."""
    return _plain_to_dict(reward)


def reward_from_dict(data: dict[str, Any]) -> RewardSpec:
    """Inverse of :func:`reward_to_dict`."""
    return _build(RewardSpec, data)


def ppo_to_dict(config: PPOConfig) -> dict[str, Any]:
    """Field dict of a PPO configuration (schedules tagged by type)."""
    out = _plain_to_dict(config)
    out["lr_schedule"] = schedule_to_dict(config.lr_schedule)
    out["ent_schedule"] = schedule_to_dict(config.ent_schedule)
    return out


def ppo_from_dict(data: dict[str, Any]) -> PPOConfig:
    """Inverse of :func:`ppo_to_dict`."""
    payload = dict(data)
    payload["lr_schedule"] = schedule_from_dict(payload.get("lr_schedule"))
    payload["ent_schedule"] = schedule_from_dict(payload.get("ent_schedule"))
    return _build(PPOConfig, payload, tuples=("hidden",))


def env_to_dict(config: SizingEnvConfig) -> dict[str, Any]:
    """Field dict of an environment configuration (reward nested)."""
    out = _plain_to_dict(config)
    out["reward"] = reward_to_dict(config.reward)
    return out


def env_from_dict(data: dict[str, Any]) -> SizingEnvConfig:
    """Inverse of :func:`env_to_dict`."""
    payload = dict(data)
    if isinstance(payload.get("reward"), dict):
        payload["reward"] = reward_from_dict(payload["reward"])
    return _build(SizingEnvConfig, payload)


def autockt_to_dict(config: AutoCktConfig) -> dict[str, Any]:
    """Serialise a full training configuration."""
    out = _plain_to_dict(config)
    out["ppo"] = ppo_to_dict(config.ppo)
    out["env"] = env_to_dict(config.env)
    return out


def autockt_from_dict(data: dict[str, Any]) -> AutoCktConfig:
    """Inverse of :func:`autockt_to_dict` (missing sections use defaults)."""
    payload = dict(data)
    if isinstance(payload.get("ppo"), dict):
        payload["ppo"] = ppo_from_dict(payload["ppo"])
    if isinstance(payload.get("env"), dict):
        payload["env"] = env_from_dict(payload["env"])
    return _build(AutoCktConfig, payload)


def save_config(config: AutoCktConfig, path: str | pathlib.Path) -> None:
    """Write a training configuration as pretty-printed JSON."""
    text = json.dumps(autockt_to_dict(config), indent=2, sort_keys=True)
    pathlib.Path(path).write_text(text + "\n")


def load_config(path: str | pathlib.Path) -> AutoCktConfig:
    """Read a training configuration from a JSON or YAML file."""
    from repro.errors import TopologyError
    from repro.zoo.schema import load_structured_file

    path = pathlib.Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = load_structured_file(path)
    except TopologyError as exc:
        raise ConfigError(str(exc)) from None
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    return autockt_from_dict(data)
