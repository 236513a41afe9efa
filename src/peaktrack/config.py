"""Config files: INI-style `key = value` lines under three sections.

Sections are [pipeline], [scene] and [corruption], and each section's keys
are exactly the `_fields` of its NamedTuple (`PipelineConfig`, `SceneConfig`,
`CorruptionConfig`), parsed to the field's annotated type.  Unknown sections
or keys are hard errors, so a typo can never silently fall back to a
default, and so are float values that are not finite.  Omitted keys take
the field's default (`_field_defaults`); a field without one (the scene
geometry) is a required key.  `scene()` and `corruption()` import their
classes from `simulator` when called, so reading [pipeline] alone never
loads it.
"""

from __future__ import annotations

import configparser
import math
import typing
from pathlib import Path
from typing import TYPE_CHECKING

from .geometry import PipelineConfig

if TYPE_CHECKING:
    from .simulator import CorruptionConfig, SceneConfig


class ConfigError(ValueError):
    """A config file failed validation."""


_SECTIONS = ("pipeline", "scene", "corruption")


class ConfigFile:
    """Parsed config; section accessors build the validated config classes."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        parser = configparser.ConfigParser(
            interpolation=None, inline_comment_prefixes=("#", ";")
        )
        parser.optionxform = str  # keys are case-sensitive
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}")
        unknown = set(parser.sections()) - set(_SECTIONS)
        if unknown:
            raise ConfigError(f"{path}: unknown section(s) {sorted(unknown)}")
        if parser.defaults():
            raise ConfigError(f"{path}: keys are not allowed outside a section")
        self._parser = parser

    def has_section(self, name: str) -> bool:
        return self._parser.has_section(name)

    def _build(self, section: str, cls: type):
        """`cls` from the section's keys; an absent section gives defaults."""
        types = typing.get_type_hints(cls)
        values = {}
        for key, raw in self._parser.items(section) if self.has_section(section) else ():
            if key not in cls._fields:
                raise ConfigError(f"{self.path}: unknown key {key!r} in [{section}]")
            try:
                values[key] = types[key](raw)
                if types[key] is float and not math.isfinite(values[key]):
                    raise ValueError(raw)
            except ValueError:
                raise ConfigError(
                    f"{self.path}: key {key!r} in [{section}] has invalid value {raw!r}"
                )
        missing = sorted(set(cls._fields) - cls._field_defaults.keys() - values.keys())
        if missing:
            raise ConfigError(f"{self.path}: [{section}] missing required keys {missing}")
        try:
            return cls(**values)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: [{section}] {exc}")

    def pipeline(self) -> PipelineConfig:
        return self._build("pipeline", PipelineConfig)

    def scene(self) -> SceneConfig:
        from .simulator import SceneConfig

        if not self.has_section("scene"):
            raise ConfigError(f"{self.path}: missing required section [scene]")
        return self._build("scene", SceneConfig)

    def corruption(self) -> CorruptionConfig:
        from .simulator import CorruptionConfig

        return self._build("corruption", CorruptionConfig)
