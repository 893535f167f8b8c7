"""The reader of JSON documents and the checks of every input value.

Every outside document is read by `load_json`. Its values, and the
arguments of the library's constructors, lemma functions and engine entry
points, are checked by the helpers here, so each rule is written once.
`where` is the value's place in the document (e.g. "model.sigma") or the
parameter's name (e.g. "gram"); a failed check raises ConfigError naming it.
"""

from __future__ import annotations

import itertools
import json
import math
import mmap
import re

import numpy as np


# Size cap of what one input makes the program allocate: a lemma-battery
# case's draws and a family's member matrices each hold at most this many
# float64 values (1 GiB).
MAX_ENTRIES = 2**27
# The largest dimension n whose n x n float64 matrix fits in MAX_ENTRIES.
MAX_N = math.isqrt(MAX_ENTRIES)
MAX_SEED = 2**64 - 1  # master seeds are the 64-bit keys of the Philox noise streams


class ConfigError(ValueError):
    """An input holds an invalid value; the message names where."""


# load_json decodes a flat array of numbers whose text has at least this many
# bytes once per distinct text: a version-1 KRR grid repeats its Gram matrix
# in every member. Shorter arrays cost less to decode than to look up.
SHARED_ARRAY_CHARS = 1024
_NUMBER_CHARS = rb"[-+.0-9eE \t\n\r,]"  # of JSON numbers, commas and JSON whitespace
# The "[" of a candidate: SHARED_ARRAY_CHARS - 2 _NUMBER_CHARS follow it.
_LONG_ARRAY_START = re.compile(rb"\[(?=%s{%d})" % (_NUMBER_CHARS, SHARED_ARRAY_CHARS - 2))
_FLAT_ARRAY = re.compile(rb"\[%s*\]" % _NUMBER_CHARS)
# The one key of the object that stands for a shared array in the packed text.
_PLACEHOLDER = "\x00"


def load_json(path):
    """The JSON document in the UTF-8 file `path`, equal to `json.load`'s of
    the file opened in text mode, with the same types: plain dicts and lists.

    The file is mapped read-only and scanned in place; the map is closed
    before this returns. A file that cannot be mapped (empty, /dev/null, a
    FIFO or a pipe) is read instead. A file that another process truncates
    while it is mapped ends the process with SIGBUS. Each distinct long flat
    array of numbers (SHARED_ARRAY_CHARS) is decoded once, and every place
    that repeats it holds that one list; every dict and every other list is
    its own object. Text that is not UTF-8, invalid JSON and nesting deeper
    than the decoder's recursion limit raise ConfigError naming the path:
    with the byte position `bytes.decode` reports, and for invalid JSON with
    the line and column `json` reports.
    """
    try:
        with open(path, "rb") as fh:
            try:
                view = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):  # empty (ValueError), or not a regular file
                return _loads(fh.read())
            with view:
                return _loads(view)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply to decode") from exc


def _loads(data):
    """json.loads of the UTF-8 bytes `data` (bytes, or a read-only map of a
    file) as text mode reads them (CR LF and a lone CR are LF), decoding each
    distinct long flat numeric array once and returning one list for all its
    places.

    Each such array is replaced by the object {"\\u0000": its number} and the
    packed text is decoded with a hook that puts the array's list back. A
    candidate "[" is an array when one anchored match reads numbers up to its
    "]"; a nested one stops at its inner "[". A candidate that starts with
    the array replaced last among those sharing its first SHARED_ARRAY_CHARS
    bytes is that array (a flat array holds one "]", its last byte), so a
    repeated array, also one that alternates with others, is recognized in
    place: past its first bytes it is neither matched, copied nor hashed
    again. When the text outside the arrays already spells that key, nothing
    was replaced, or a decode fails, the text is decoded as it is, so values
    and errors are json's. Strings need no skipping: an array replaced
    inside one ends the string at the placeholder's quote, and the backslash
    after it fails the decode.

    A map is scanned where it lies: the bytes copied out of it are the text
    outside those arrays and one copy of each array, and only those are
    decoded to text; a plain decode reads the map directly. Text with a CR
    is copied once to replace it. No byte of a UTF-8 multi-byte character is
    ASCII, so cutting the bytes at "[" and "]" never splits one. A
    UnicodeDecodeError is the one decoding all of `data` raises, so its
    position is the byte's in the file.
    """
    # find, not `in`, which a map answers byte by byte
    text = (bytes(data).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            if data.find(b"\r") >= 0 else data)
    arrays = {}  # distinct array bytes -> its number
    parts = []  # the packed text up to `done`
    pos = done = 0
    seen = {}  # first SHARED_ARRAY_CHARS bytes -> the array replaced last that starts so
    while match := _LONG_ARRAY_START.search(text, pos):
        start = match.start()
        array = seen.get(text[start:start + SHARED_ARRAY_CHARS])
        # find, not startswith, which a map lacks
        if array is None or text.find(array, start, start + len(array)) != start:
            flat = _FLAT_ARRAY.match(text, start)
            if flat is None:  # nested, or an entry that is not a number
                pos = start + 1
                continue
            array = flat[0]
            seen[array[:SHARED_ARRAY_CHARS]] = array
        parts += text[done:start], b'{"\\u0000":%d}' % arrays.setdefault(array, len(arrays))
        pos = done = start + len(array)
    try:
        if arrays:
            packed = (b"".join(parts) + text[done:]).decode("utf-8")
            # arrays hold no backslash, so any key spelled outside them adds to the count
            if packed.count("\\u0000") == len(parts) // 2:
                try:
                    values = [json.loads(array.decode("utf-8")) for array in arrays]
                    return json.loads(packed, object_hook=lambda obj: (
                        values[obj[_PLACEHOLDER]] if _PLACEHOLDER in obj else obj))
                except ValueError:
                    pass
        text = str(text, "utf-8")
    except UnicodeDecodeError:
        str(data, "utf-8")  # raises the error at its position in `data`
        raise
    data = flat = None  # json.loads gets the only copy of the document
    return json.loads(text)


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


def seed(value, where) -> int:
    """A master seed: a JSON integer in [0, MAX_SEED]."""
    return integer(value, where, 0, MAX_SEED)


# The least positive float: number(value, where, POSITIVE) admits exactly the
# positive numbers.
POSITIVE = math.ulp(0.0)


def number(value, where, lo=-math.inf) -> float:
    """A finite JSON number >= lo as a float; true, NaN and Infinity are not numbers."""
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x) and x >= lo:
            return x
    kind = ("positive number" if lo == POSITIVE else "number" if lo == -math.inf
            else f"number >= {lo}")
    raise ConfigError(f"{where}: must be a finite {kind}, got {value!r:.60}")


def string(value, where, choices=None) -> str:
    """A JSON string; with `choices`, one of them."""
    if choices is None:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: must be a string, got {value!r:.60}")
    elif not isinstance(value, str) or value not in choices:
        raise ConfigError(f"unknown {where} {value!r:.60}; expected one of {list(choices)}")
    return value


def list_of(value, where, item, *args) -> list:
    """A JSON list whose entries pass item(entry, f"{where}[i]", *args); the results."""
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r:.60}")
    return [item(entry, f"{where}[{i}]", *args) for i, entry in enumerate(value)]


def array(value, where, shape=None, infinite=False) -> np.ndarray:
    """A list (or an array) of finite numbers, nested in any way with the size of
    `shape`, as a float array of that shape; a number alone is not a list.
    `infinite` also takes -inf and inf (a value that overflowed), never NaN."""
    message = "expected a list of " + ("numbers, none NaN" if infinite else "finite numbers")
    a = _finite(value, where, message, infinite)
    if a.ndim == 0:
        raise ConfigError(f"{where}: {message}")
    if shape is not None and a.size != math.prod(shape):
        raise ConfigError(f"{where}: expected {math.prod(shape)} entries (shape {shape}), "
                          f"got {a.size}")
    return a.reshape(a.shape if shape is None else shape)


def finite_matrix(value, where, square=True) -> np.ndarray:
    """`value` as a 2-d float array of finite numbers, square unless `square` is false."""
    a = _finite(value, where, "entries must be finite")
    if a.ndim != 2 or (square and a.shape[0] != a.shape[1]):
        kind = "square" if square else "2-d"
        raise ConfigError(f"{where}: expected a {kind} matrix, got shape {a.shape}")
    return a


def _finite(value, where, message, infinite=False) -> np.ndarray:
    """`value` as a float array when every entry is a finite number (or, with
    `infinite`, any number but NaN), else ConfigError(f"{where}: {message}"):
    the one element rule of numeric inputs.

    An object array is read as its list. One numpy conversion reads the rest
    and its dtype decides, so strings, null and ragged nesting need no
    per-entry check; true and false, which numpy reads as 1 and 0 among
    numbers, are looked for among the entries equal to 1 or 0 only, and
    only outside arrays, whose dtype keeps them apart."""
    if isinstance(value, np.ndarray) and value.dtype == object:
        value = value.tolist()
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        a = None
    if (a is None or a.dtype.kind not in "fiu"
            or not np.all(~np.isnan(a) if infinite else np.isfinite(a))
            or a.ndim and not isinstance(value, np.ndarray) and _holds_boolean(value, a)):
        raise ConfigError(f"{where}: {message}")
    return a.astype(float, copy=False)


def _holds_boolean(value, a) -> bool:
    """Whether the nested list `value` (as numpy reads it, `a`, of at least one
    dimension) holds true or false: flattened, each entry equal to 0 or 1 is
    one lookup in C, and no other is."""
    for _ in range(a.ndim - 1):
        value = list(itertools.chain.from_iterable(value))
    zero_one = np.flatnonzero((a == 0) | (a == 1)).tolist()
    return not {bool, np.bool_}.isdisjoint(map(type, map(value.__getitem__, zero_one)))
