"""Checks shared by every reader of a config document.

A scenario document, a study's parameters, an arrival section and a
service section are all read through these checks, so a bad value is a
ConfigError whose message starts with the key path of that value, and each
rule is written once.  `from_config` builds an object from a config section
through a table of the classes that may build it; each class names its keys
in its `fields` attribute, and its constructor starts every ValueError with
the name of the bad field.  Standard library only.
"""

from __future__ import annotations

import json
import numbers
import sys

__all__ = ["ConfigError", "check_keys", "expect_mapping", "from_config",
           "number", "on_mesh", "parse_json"]


class ConfigError(ValueError):
    """A config document is malformed; the message starts with the key
    path of the bad value."""


def expect_mapping(value, path):
    """`value` if it is a JSON object; a ConfigError at `path` otherwise."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    return value


def check_keys(d, path, required, optional=()):
    """A ConfigError at `path` if the object `d` has a key outside
    `required` and `optional`, or at `path.key` if it lacks a `required`
    key."""
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for key in required:
        if key not in d:
            raise ConfigError(f"{path}.{key}: missing")


def number(value, path, lo=None, hi=None, above=None, integer=False):
    """`value` if it is a finite real number (an integer when `integer`),
    not a bool, within [lo, hi] and above `above`; a ConfigError at `path`
    otherwise."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integer else numbers.Real):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{path}: expected {kind}, got {value!r}")
    # also refuses an integer too large to convert to a float
    if not (integer or abs(value) <= sys.float_info.max):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{path}: must be >= {lo!r}, got {value!r}")
    if hi is not None and value > hi:
        raise ConfigError(f"{path}: must be <= {hi!r}, got {value!r}")
    if above is not None and not value > above:
        raise ConfigError(f"{path}: must be > {above!r}, got {value!r}")
    return value


def on_mesh(value, delta, path, least=1) -> int:
    """Number of steps of size `delta` in `value`; a ConfigError at `path`
    unless that is a whole number, within 1e-9, of at least `least` steps."""
    steps = round(value / delta)
    if steps < least or abs(steps * delta - value) > 1e-9:
        raise ConfigError(f"{path}: {value!r} is not a whole number of "
                          f"steps of delta {delta!r}")
    return steps


def parse_json(text: str):
    """The value of a JSON document; a ConfigError if it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc


def from_config(cfg, path, tag, table, optional=()):
    """The object that `table[cfg[tag]]` builds from the `fields` of the
    config section `cfg`, each of them required unless `optional`; a
    ConfigError whose message starts with the key path of the bad value,
    below `path`."""
    expect_mapping(cfg, path)
    name = cfg.get(tag)
    cls = table.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ConfigError(f"{path}.{tag}: expected one of {sorted(table)}, "
                          f"got {name!r}")
    keys = (tag,) + cls.fields
    check_keys(cfg, path, [k for k in keys if k not in optional], keys)
    try:
        return cls(**{k: cfg[k] for k in cls.fields if k in cfg})
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc
