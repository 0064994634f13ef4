"""Line-oriented benchmark config files.

Grammar::

    # comment
    [environment]
    name=wheel
    delta=0.95
    [agent "LinFullPost"]
    a0=6
    [agent "Uniform"]
    [run]
    trials=10
    horizon=2000
    seed=0
    out=results
    workers=1

One ``[environment]`` block, any number of ``[agent "<preset>"]`` blocks
(each preset at most once), and at most one ``[run]`` block.  The keys of a
block are the fields of the environment's config dataclass
(``envs.ENVIRONMENTS``), the preset's defaults, or ``RunSettings``'s fields;
violations raise ``ConfigError`` carrying the offending line number.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .envs import ENVIRONMENTS
from .presets import PRESETS

_AGENT_HEADER = re.compile(r'^\[agent\s+"([^"]+)"\]$')


class ConfigError(ValueError):
    """Config problem; carries the 1-based line number when one applies."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class AgentSpec:
    preset: str
    overrides: dict
    line: int


@dataclass
class RunSettings:
    trials: int = 10
    horizon: Optional[int] = None
    seed: int = 0
    out: str = "results"
    workers: int = 1


@dataclass
class BenchmarkConfig:
    environment: dict
    agents: list[AgentSpec]
    run: RunSettings = field(default_factory=RunSettings)


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError


def _column(raw: str):
    try:
        return int(raw)
    except ValueError:
        return raw


def _columns(raw: str) -> tuple:
    return tuple(_column(c.strip()) for c in raw.split(",") if c.strip() != "")


# key type -> the parser of its text; a parser raises ValueError on bad text
_PARSERS = {bool: _bool, int: int, float: float, str: str,
            "column": _column, "columns": _columns}


def key_schema(cls) -> dict[str, tuple]:
    """Each field of dataclass ``cls`` as a config key: name -> (type, required).

    As for preset keys, a key's type is the type of its default; where the
    default is None or absent it is the annotation without Optional.  A tuple
    is a comma-separated list of columns, and ``Union[str, int]`` one column,
    a header name or an index.  A key is required iff it has no default; a
    type no parser reads raises TypeError.
    """
    hints = get_type_hints(cls)
    schema = {}
    for f in fields(cls):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        required = default is MISSING
        typ = hints[f.name] if default is None or required else type(default)
        if get_origin(typ) is Union:
            typ = Union[tuple(a for a in get_args(typ) if a is not type(None))]
        typ = {tuple: "columns", Union[str, int]: "column"}.get(typ, typ)
        if typ not in _PARSERS:
            raise TypeError(f"{cls.__name__}.{f.name}: no config type for {typ!r}")
        schema[f.name] = (typ, required)
    return schema


# constant_feature, the one key no dataclass declares, appends a constant 1.0
# to every context (envs.ConstantFeatureEnv)
_ENV_KEYS = {name: {**key_schema(cls), "constant_feature": (bool, False)}
             for name, cls in ENVIRONMENTS.items()}
_RUN_KEYS = key_schema(RunSettings)


def _convert(raw: str, typ, key: str, line: int):
    try:
        return _PARSERS[typ](raw)
    except ValueError:
        want = typ if isinstance(typ, str) else typ.__name__
        raise ConfigError(f"value {raw!r} for key {key!r} is not a valid {want}", line) from None


def _split_kv(text: str, line: int) -> tuple[str, str]:
    if "=" not in text:
        raise ConfigError(f"expected key=value, got {text!r}", line)
    key, _, value = text.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError("empty key", line)
    return key, value.strip()


def parse_config(text: str) -> BenchmarkConfig:
    """Parse and validate a config document; raises ConfigError on problems."""
    env_raw: Optional[dict] = None
    env_line = 0
    agents: list[AgentSpec] = []
    run_raw: Optional[dict] = None
    section: Optional[str] = None  # "environment" | "agent" | "run"
    current: Optional[dict] = None

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if line == "[environment]":
                if env_raw is not None:
                    raise ConfigError("duplicate [environment] section", line_no)
                env_raw, env_line, section = {}, line_no, "environment"
                current = env_raw
                continue
            if line == "[run]":
                if run_raw is not None:
                    raise ConfigError("duplicate [run] section", line_no)
                run_raw, section = {}, "run"
                current = run_raw
                continue
            m = _AGENT_HEADER.match(line)
            if m:
                preset = m.group(1)
                if preset not in PRESETS:
                    raise ConfigError(f"unknown agent preset {preset!r}", line_no)
                if any(a.preset == preset for a in agents):
                    raise ConfigError(f"duplicate agent block for {preset!r}", line_no)
                spec = AgentSpec(preset=preset, overrides={}, line=line_no)
                agents.append(spec)
                section, current = "agent", spec.overrides
                continue
            raise ConfigError(f"unrecognized section header {line!r}", line_no)

        if current is None:
            raise ConfigError("key=value before any section header", line_no)
        key, value = _split_kv(line, line_no)
        if key in current:
            raise ConfigError(f"duplicate key {key!r}", line_no)

        if section == "environment":
            if key == "name":
                if value not in ENVIRONMENTS:
                    raise ConfigError(
                        f"unknown environment {value!r}; expected one of {tuple(ENVIRONMENTS)}",
                        line_no,
                    )
                current[key] = value
            else:
                current[key] = (value, line_no)  # typed once the name is known
        elif section == "agent":
            schema = PRESETS[agents[-1].preset].params
            if key not in schema:
                reason = f"preset {agents[-1].preset!r} does not accept key {key!r}"
                if key == "intercept":
                    reason += "; set constant_feature = true in [environment] for an intercept"
                raise ConfigError(reason, line_no)
            current[key] = _convert(value, schema[key], key, line_no)
        else:  # run
            if key not in _RUN_KEYS:
                raise ConfigError(f"unknown [run] key {key!r}", line_no)
            current[key] = (_convert(value, _RUN_KEYS[key][0], key, line_no), line_no)

    if env_raw is None:
        raise ConfigError("missing [environment] section")
    if "name" not in env_raw:
        raise ConfigError("environment block must set name=", env_line)

    name = env_raw["name"]
    schema = _ENV_KEYS[name]
    environment = {"name": name}
    for key, entry in env_raw.items():
        if key == "name":
            continue
        value, line_no = entry
        if key not in schema:
            raise ConfigError(
                f"environment {name!r} does not accept key {key!r}", line_no
            )
        environment[key] = _convert(value, schema[key][0], key, line_no)
    for key, (_, required) in schema.items():
        if required and key not in environment:
            raise ConfigError(
                f"environment {name!r} requires key {key!r}", env_line
            )

    run = RunSettings()
    for key, (value, line_no) in (run_raw or {}).items():
        if key in ("trials", "horizon", "workers") and value < 1:
            raise ConfigError(f"{key} must be positive", line_no)
        if key == "seed" and value < 0:
            raise ConfigError("seed must be >= 0", line_no)
        if key == "out" and not value:
            raise ConfigError("out must not be empty", line_no)
        setattr(run, key, value)

    return BenchmarkConfig(environment=environment, agents=agents, run=run)


def load_config(path: str) -> BenchmarkConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
