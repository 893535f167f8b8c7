"""Checks for the JSON values of configs and family documents.

Every reader of an outside document checks its values here, so each rule is
written once. `where` is the value's place in the document (e.g.
"model.sigma"); a failed check raises ConfigError naming it.
"""

from __future__ import annotations

import math

import numpy as np


# Size cap of what one input makes the program allocate: a lemma-battery
# case's draws and a family's member matrices each hold at most this many
# float64 values (1 GiB).
MAX_ENTRIES = 2**27
# The largest dimension n whose n x n float64 matrix fits in MAX_ENTRIES.
MAX_N = math.isqrt(MAX_ENTRIES)


class ConfigError(ValueError):
    """An input document holds an invalid value; the message names where."""


def obj(value, where, required=(), optional=()) -> dict:
    """A JSON object with every `required` key and no key outside `required` and `optional`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r:.60}")
    unknown = sorted(set(value) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")
    return value


def integer(value, where, lo, hi=None) -> int:
    """A JSON integer in [lo, hi] (unbounded above when hi is None); true and 1.5 are not."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < lo or (hi is not None and value > hi)):
        span = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ConfigError(f"{where}: must be an integer {span}, got {value!r:.60}")
    return int(value)


def number(value, where, positive=False) -> float:
    """A finite JSON number as a float; true, NaN and Infinity are not numbers."""
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x) and (x > 0 or not positive):
            return x
    kind = "positive number" if positive else "number"
    raise ConfigError(f"{where}: must be a finite {kind}, got {value!r:.60}")


def string(value, where, choices=None) -> str:
    """A JSON string; with `choices`, one of them."""
    if choices is None:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: must be a string, got {value!r:.60}")
    elif not isinstance(value, str) or value not in choices:
        raise ConfigError(f"unknown {where} {value!r:.60}; expected one of {list(choices)}")
    return value


def boolean(value, where) -> bool:
    """JSON true or false."""
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: must be true or false, got {value!r:.60}")
    return value


def list_of(value, where, item, *args) -> list:
    """A JSON list whose entries pass item(entry, f"{where}[i]", *args); the results."""
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r:.60}")
    return [item(entry, f"{where}[{i}]", *args) for i, entry in enumerate(value)]


def array(value, where, shape=None) -> np.ndarray:
    """A JSON list of finite numbers, nested in any way with the size of `shape`, as
    a float array of that shape. One numpy conversion reads the whole list and its
    dtype decides, so strings, null and ragged nesting need no per-entry check."""
    try:
        a = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # ragged nesting
        a = None
    if a is None or a.dtype.kind not in "fiu" or not np.all(np.isfinite(a)):
        raise ConfigError(f"{where}: expected a list of finite numbers")
    if shape is not None and a.size != math.prod(shape):
        raise ConfigError(f"{where}: expected {math.prod(shape)} entries (shape {shape}), "
                          f"got {a.size}")
    return a.astype(float, copy=False).reshape(a.shape if shape is None else shape)
