import contextlib
import functools
import io
import json
import math
import mmap
import os
import tempfile
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sure_lab import _validate as validate
from sure_lab import GaussianSequenceModel, concentration, criteria, smoothers
from sure_lab.cli import ConfigError
from sure_lab.smoothers import SmootherFamily


def test_config_error_is_the_cli_name_and_a_value_error():
    assert validate.ConfigError is ConfigError and issubclass(ConfigError, ValueError)


def test_obj():
    assert validate.obj({"a": 1}, "x", ("a",), ("b",)) == {"a": 1}
    with pytest.raises(ConfigError, match=r"x: unknown keys \['c'\]"):
        validate.obj({"a": 1, "c": 2}, "x", ("a",), ("b",))
    with pytest.raises(ConfigError, match=r"x: missing required keys \['a'\]"):
        validate.obj({}, "x", ("a",))
    with pytest.raises(ConfigError, match="x: expected an object"):
        validate.obj([], "x")


@pytest.mark.parametrize("value", [True, False, 1.5, 1.0, "1", None, [1]])
def test_integer_rejects_non_integers(value):
    with pytest.raises(ConfigError, match="where: must be an integer"):
        validate.integer(value, "where", 0)


def test_integer_range():
    assert validate.integer(3, "w", 0, 3) == 3
    assert validate.integer(np.int64(2), "w", 1) == 2
    with pytest.raises(ConfigError, match=r"in \[0, 3\], got 4"):
        validate.integer(4, "w", 0, 3)
    with pytest.raises(ConfigError, match=">= 1"):
        validate.integer(0, "w", 1)


@pytest.mark.parametrize("value", [True, None, "1", float("nan"), float("inf"), 10**400, []])
def test_number_rejects_non_finite_and_non_numbers(value):
    with pytest.raises(ConfigError, match="where: must be a finite number"):
        validate.number(value, "where")


def test_number():
    assert validate.number(2, "w") == 2.0 and isinstance(validate.number(2, "w"), float)
    assert validate.number(-1e308, "w") == -1e308
    with pytest.raises(ConfigError, match="positive"):
        validate.number(0.0, "w", validate.POSITIVE)


def test_string_and_list_of():
    assert validate.string("a", "w") == "a"
    with pytest.raises(ConfigError, match="w: must be a string"):
        validate.string(5, "w")
    with pytest.raises(ConfigError, match=r"unknown w \['a'\]"):
        validate.string(["a"], "w", ("a", "b"))
    assert validate.list_of([1, 2], "w", validate.integer, 1) == [1, 2]
    with pytest.raises(ConfigError, match=r"w\[1\]: must be an integer >= 1"):
        validate.list_of([1, 0], "w", validate.integer, 1)
    with pytest.raises(ConfigError, match="w: expected a list"):
        validate.list_of({}, "w", validate.integer, 0)


def test_array_shapes():
    flat = validate.array([1, 2.5, 3, 4], "w", (2, 2))
    assert flat.dtype == float and flat.tolist() == [[1.0, 2.5], [3.0, 4.0]]
    assert validate.array([[1.0, 2.0], [3.0, 4.0]], "w", (4,)).shape == (4,)
    assert validate.array([[0.0], [1.0]], "w").shape == (2, 1)
    with pytest.raises(ConfigError, match=r"w: expected 4 entries \(shape \(2, 2\)\), got 3"):
        validate.array([1.0, 2.0, 3.0], "w", (2, 2))


@pytest.mark.parametrize("value", [
    pytest.param([1.0, "2"], id="string-entry"),
    pytest.param([1.0, None], id="null-entry"),
    pytest.param([True, False], id="bools"),
    pytest.param([True, 1.0], id="true-among-floats"),
    pytest.param([0.5, False], id="false-among-floats"),
    pytest.param([1, True], id="true-among-ints"),
    pytest.param([[0.5], [True]], id="nested-true"),
    pytest.param([np.True_, 2.0], id="numpy-bool"),
    pytest.param([[0, 1, 0], [1, 1, 0], [0, 1, True]], id="true-last-of-a-0-1-matrix"),
    pytest.param([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, np.True_]]],
                 id="numpy-true-last-of-a-3-deep-0-1-array"),
    pytest.param([[1.0], [1.0, 2.0]], id="ragged"),
    pytest.param([1.0, float("nan")], id="nan"),
    pytest.param([1.0, 10**400], id="huge-int"),
    pytest.param([{}], id="object-entry"),
    pytest.param(5.0, id="scalar"),
    pytest.param("1.0", id="string"),
])
def test_array_rejects(value):
    with pytest.raises(ConfigError, match="w: expected a list of finite numbers"):
        validate.array(value, "w")


def test_array_keeps_zeros_and_ones():
    eye = np.eye(3)
    assert validate.array(eye.reshape(-1).tolist(), "w", (3, 3)).tobytes() == eye.tobytes()
    assert validate.array([[0, 1], [1, 0]], "w").tolist() == [[0.0, 1.0], [1.0, 0.0]]
    cube = np.arange(24).reshape(2, 3, 4) % 2
    assert validate.array(cube.tolist(), "w").tobytes() == cube.astype(float).tobytes()


def test_seed():
    for value in (0, 7, 2**64 - 1):
        assert validate.seed(value, "s") == value
    for value in (-1, 2**64, True, 1.0):
        with pytest.raises(ConfigError, match=rf"s: must be an integer in \[0, {2**64 - 1}\]"):
            validate.seed(value, "s")


# -- load_json: json.load's values, types and errors ------------------------

def _same(a, b):
    """a and b are equal with equal types throughout, -0.0 and NaN included."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a)
                                                       == math.copysign(1, b))
    return a == b


def _containers(value):
    """Every list and dict in a decoded document."""
    if isinstance(value, (list, dict)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from _containers(child)


def _text_mode(data):
    """The text `open(path, encoding="utf-8").read()` gives for a file holding `data`."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


@contextlib.contextmanager
def _mapped(data):
    """A read-only map of a temporary file holding the nonempty bytes `data`."""
    with tempfile.TemporaryFile() as fh:
        fh.write(data)
        fh.flush()
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
            yield view


def _check_loads(text):
    """validate._loads of the UTF-8 bytes of `text`, and of a read-only map of
    a file holding them, gives json.loads's value of the text that text mode
    reads from them, or raises json's error with json's message. Two
    containers are one object only when they are equal flat lists of
    numbers; every dict and every other list is its own object."""
    data = text.encode("utf-8")
    try:
        expected = json.loads(_text_mode(data))
    except ValueError as exc:
        expected = exc
    with _mapped(data) as view:
        for source in (data, view):
            _check_loads_of(source, expected)


def _check_loads_of(source, expected):
    if isinstance(expected, ValueError):
        with pytest.raises(type(expected)) as info:
            validate._loads(source)
        assert str(info.value) == str(expected)
        return
    got = validate._loads(source)
    assert _same(got, expected)
    seen = set()
    for x in _containers(got):
        if id(x) in seen:
            assert isinstance(x, list) and all(type(v) in (int, float) for v in x)
        seen.add(id(x))


_NUMBERS = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e400", "-1e400", "-0", "-0.0", "0E0", "1E+2", "2.5e-3", "-0.0e-5"]))
# JSON separators, and entries that are not JSON numbers: NaN and Infinity are
# not JSON, nor is a non-breaking space JSON whitespace
_SEPARATORS = st.sampled_from([",", ", ", ",\n    ", " ,\t", "\r\n,"])
_INTRUDERS = st.sampled_from(["NaN", "Infinity", "-Infinity", "true", "null", '"1"', "{}",
                              "1\u00a0", "[1]", "1,", ""])


@st.composite
def _array_texts(draw):
    """A flat array of numbers, most of them at least SHARED_ARRAY_CHARS long,
    some with an entry that is not a JSON number."""
    numbers = draw(st.lists(_NUMBERS, min_size=1, max_size=20))
    sep = draw(_SEPARATORS)
    if draw(st.integers(0, 3)) != 3:
        numbers *= validate.SHARED_ARRAY_CHARS // len(sep.join(numbers)) + 1
    if draw(st.integers(0, 4)) == 4:
        numbers.insert(draw(st.integers(0, len(numbers))), draw(_INTRUDERS))
    return "[" + sep.join(numbers) + "]"


@st.composite
def _documents(draw):
    """JSON text that repeats some long arrays, also as the content of strings;
    some of it invalid, some spelling the placeholder key \\u0000."""
    arrays = draw(st.lists(_array_texts(), min_size=1, max_size=3))
    strings = st.one_of(st.text(st.characters(exclude_characters="\\x00"), max_size=8),
                        st.sampled_from(arrays),
                        st.sampled_from(['"', "\\", "][", "\\u0000"])).map(json.dumps)
    values = st.one_of(st.sampled_from(arrays), _NUMBERS, strings)
    items = [(draw(strings), array) for array in arrays * 2]
    items += draw(st.lists(st.tuples(strings, values), max_size=4))
    if draw(st.integers(0, 5)) == 5:
        items.append((json.dumps("\x00"), draw(values)))
    items = draw(st.permutations(items))
    text = "{" + ", ".join(f"{key}: {value}" for key, value in items) + "}"
    if draw(st.booleans()):
        text = "[" + ",\n".join([text, *draw(st.lists(values, max_size=4))]) + "]"
    if draw(st.integers(0, 4)) == 4:  # truncated, or a stray character
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.sampled_from(["", "x", "]", '"', "\\"])) + text[cut:]
    return text


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_documents())
def test_loads_matches_json(text):
    _check_loads(text)


_LONG = ", ".join(["0.5"] * 400)


@pytest.mark.parametrize("entry", ["{}", '"a"', "NaN", "\u00a0", "[1]", "true"])
def test_loads_matches_json_past_the_first_kilobyte(entry):
    """An entry that is not a number, far enough in that the array looks long
    and numeric until there."""
    array = f"[{_LONG}, {entry}, 1]"
    _check_loads(f'{{"a": {array}, "b": [{array}, {array}]}}')


def test_loads_decodes_a_repeated_array_once(monkeypatch):
    gram = json.dumps([i / 7 for i in range(100)])
    text = '{"a": %s, "b": [%s, %s], "c": "[1]"}' % (gram, gram, gram)
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, **kw: decoded.append(s) or loads(s, **kw))
    doc = validate._loads(text.encode("utf-8"))
    assert _same(doc, loads(text))
    assert doc["a"] is doc["b"][0] is doc["b"][1]
    assert decoded[0] == gram and len(decoded) == 2  # the array, then the packed text
    assert decoded[1].count('{"\\u0000":0}') == 3


def test_loads_matches_each_distinct_array_once(monkeypatch):
    """Arrays that alternate are recognized in place, as a run of one is."""
    grams = [json.dumps([i / k for i in range(200)]) for k in (7, 11)]
    text = "[%s]" % ", ".join(grams[i % 2] for i in range(6))
    matched = []
    flat = validate._FLAT_ARRAY
    monkeypatch.setattr(validate, "_FLAT_ARRAY", types.SimpleNamespace(
        match=lambda *args: matched.append(args[1]) or flat.match(*args)))
    doc = validate._loads(text.encode("utf-8"))
    assert _same(doc, json.loads(text)) and len(matched) == 2
    assert doc[0] is doc[2] is doc[4] and doc[1] is doc[3] is doc[5] and doc[0] is not doc[1]


@pytest.mark.parametrize("text, line, column, msg", [
    ('{\n  "a": [1, 2,]\n}', 2, 14, "Expecting value"),
    ('{"a": %s,\n "b": %s,\n "c": tru}' % ((json.dumps([0.5] * 300),) * 2), 3, 7,
     "Expecting value"),
    ('{"a": %s} x' % json.dumps([0.5] * 300), 1, 1509, "Extra data"),
    ('{"\\u0000": 1, "a": %s' % json.dumps([0.5] * 300), 1, 1520,
     "Expecting ',' delimiter"),
])
def test_load_json_invalid_json_message(tmp_path, text, line, column, msg):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(validate.ConfigError) as info:
        validate.load_json(path)
    assert str(info.value) == f"{path}: invalid JSON at line {line}, column {column}: {msg}"
    with pytest.raises(json.JSONDecodeError) as plain:
        json.loads(text)
    assert (plain.value.lineno, plain.value.colno, plain.value.msg) == (line, column, msg)


def test_load_json_reads_utf8_and_names_undecodable_files(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes('{"label": "z\u00e9ro"}'.encode("utf-8"))
    assert validate.load_json(path) == {"label": "z\u00e9ro"}
    path.write_bytes(b'{"label": "z\xe9ro"}')  # Latin-1
    with pytest.raises(validate.ConfigError) as info:
        validate.load_json(path)
    assert str(info.value).startswith(f"{path}: not UTF-8 text: 'utf-8' codec can't decode")


def test_load_json_rejects_nesting_too_deep_to_decode(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(validate.ConfigError, match="nested too deeply to decode"):
        validate.load_json(path)


# -- load_json reads bytes: each case against json.load of the file in text mode

_GRAM = json.dumps([i / 7 for i in range(200)])  # a long flat array


def _text_mode_load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_load_json_reads_line_endings_as_text_mode(tmp_path, newline):
    path = tmp_path / "doc.json"
    gram = json.dumps(json.loads(_GRAM), indent=2).replace("\n", newline)
    lines = ["{", f'  "a": {gram},', f'  "b": [{gram},{newline}{gram}],', '  "c": "x"', "}"]
    path.write_bytes(newline.join(lines).encode("utf-8"))
    doc = validate.load_json(path)
    assert _same(doc, _text_mode_load(path)) and doc["a"] is doc["b"][0] is doc["b"][1]
    for bad in ('  "c": tru', '  "c": "x",', '  "c" "x"'):
        path.write_bytes(newline.join(lines[:3] + [bad, "}"]).encode("utf-8"))
        with pytest.raises(json.JSONDecodeError) as plain:
            _text_mode_load(path)
        with pytest.raises(validate.ConfigError) as info:
            validate.load_json(path)
        assert plain.value.lineno > 1
        assert str(info.value) == (f"{path}: invalid JSON at line {plain.value.lineno}, "
                                   f"column {plain.value.colno}: {plain.value.msg}")


def test_load_json_rejects_a_utf8_bom(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xef\xbb\xbf" + ('{"a": %s, "b": %s}' % (_GRAM, _GRAM)).encode("utf-8"))
    with pytest.raises(json.JSONDecodeError, match="Unexpected UTF-8 BOM"):
        _text_mode_load(path)
    with pytest.raises(validate.ConfigError) as info:
        validate.load_json(path)
    assert str(info.value) == (f"{path}: invalid JSON at line 1, column 1: "
                               "Unexpected UTF-8 BOM (decode using utf-8-sig)")


def test_load_json_keeps_non_ascii_text_next_to_a_repeated_array(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"label": "zéro", "a": json.loads(_GRAM), "€": "\U0001f600",
           "b": [json.loads(_GRAM), "ü"]}
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    got = validate.load_json(path)
    assert _same(got, _text_mode_load(path)) and _same(got, doc)
    assert got["a"] is got["b"][0]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_load_json_names_the_byte_a_repeated_array_precedes(tmp_path, newline):
    """A Latin-1 byte after a long repeated array: the position is the one
    decoding the whole file reports, CR bytes and arrays counted."""
    path = tmp_path / "doc.json"
    data = newline.join(['{"a": %s,' % _GRAM, '"b": %s,' % _GRAM, '"c": "z\xe9ro"}'])
    path.write_bytes(data.encode("latin-1"))
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_bytes().decode("utf-8")
    with pytest.raises(UnicodeDecodeError):
        _text_mode_load(path)
    with pytest.raises(validate.ConfigError) as info:
        validate.load_json(path)
    assert whole.value.start == data.index("\xe9")
    assert str(info.value) == f"{path}: not UTF-8 text: {whole.value}"


def test_load_json_peak_memory_stays_near_the_file_size(tmp_path):
    """A KRR grid of 24 members on one Gram (n = 64): the reader holds the file's
    bytes and one copy of the Gram, not the file again as text."""
    gram = np.random.default_rng(3).standard_normal((64, 64)).reshape(-1).tolist()
    members = [{"label": f"k{i}", "kind": "krr", "parameters": {"gram": gram, "lambda": 0.1 * i}}
               for i in range(24)]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"family": {"smoothers": members}}), encoding="utf-8")
    tracemalloc.start()
    try:
        validate.load_json(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size


def test_load_json_peak_memory_is_a_fraction_of_a_repeated_gram_file(tmp_path):
    """A version-1 KRR grid of 24 members on one Gram (n = 100), over 4 MB: the
    reader scans a map of the file, so it holds no copy of the file, only the
    text outside the Gram, one copy of the Gram and their decoded values."""
    gram = np.random.default_rng(5).standard_normal((100, 100)).reshape(-1).tolist()
    members = [{"label": f"k{i}", "kind": "krr", "parameters": {"gram": gram, "lambda": 0.1 * i}}
               for i in range(24)]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"family": {"smoothers": members}}), encoding="utf-8")
    assert path.stat().st_size >= 4_000_000
    tracemalloc.start()
    try:
        doc = validate.load_json(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc["family"]["smoothers"][23]["parameters"]["gram"] == gram
    assert peak < path.stat().st_size / 4


def test_load_json_closes_its_map(tmp_path, monkeypatch):
    maps = []
    make = mmap.mmap

    def mapping(*args, **kwargs):
        maps.append(make(*args, **kwargs))
        return maps[-1]

    monkeypatch.setattr(mmap, "mmap", mapping)
    path = tmp_path / "doc.json"
    for text in ('{"a": %s, "b": [%s]}' % (_GRAM, _GRAM), '{"a": [1, 2}'):
        path.write_text(text, encoding="utf-8")
        with contextlib.suppress(validate.ConfigError):
            validate.load_json(path)
    assert len(maps) == 2 and all(view.closed for view in maps)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_load_json_reads_a_fifo_like_a_file(tmp_path):
    """A FIFO cannot be mapped; its text is read, and decoded as a file's."""
    path = tmp_path / "doc.json"
    path.write_text('{"a": %s, "b": [%s, "z\u00e9ro"]}' % (_GRAM, _GRAM), encoding="utf-8")
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    try:
        got = validate.load_json(fifo)
    finally:
        writer.join(timeout=10)
    assert _same(got, _text_mode_load(path)) and got["a"] is got["b"][0]


def test_load_json_drops_the_bytes_before_a_plain_decode(tmp_path):
    """A k-NN family of 20 members on 200 nested [x] points: no long flat array,
    so the document is decoded as it is, with the bytes no longer held."""
    rng = np.random.default_rng(4)
    members = [{"label": f"knn{k}", "kind": "knn",
                "parameters": {"points": rng.standard_normal((200, 1)).tolist(), "k": k}}
               for k in range(1, 21)]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"family": {"smoothers": members}}), encoding="utf-8")
    tracemalloc.start()
    try:
        validate.load_json(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.8 * path.stat().st_size


# -- the library's entry points check their inputs with these helpers ----------

# parameter name -> (a call of its consumer on a matrix, whether it must be square)
_MATRIX_CONSUMERS = {
    "h": (smoothers.operator_norm, True),
    "matrix": (lambda a: smoothers.from_matrix("m", a), True),
    "gram": (lambda a: smoothers.krr_from_gram("m", a, 1.0), True),
    "design": (lambda a: smoothers.projection_from_design("m", a, [0]), False),
    "points": (lambda a: smoothers.knn_from_points("m", a, 1), False),
    "a": (concentration.quadratic_form_params, True),
}
_BAD_MATRICES = {"ndim-3": np.ones((2, 2, 2)), "not-square": np.ones((2, 3)),
                 "inf": [[1.0, 0.0], [0.0, np.inf]], "nan": [[1.0, 0.0], [0.0, np.nan]]}


@pytest.mark.parametrize("param,bad", [
    pytest.param(param, bad, id=f"{param}-{bad}")
    for param, (_, square) in _MATRIX_CONSUMERS.items() for bad in _BAD_MATRICES
    if square or bad != "not-square"])
def test_matrix_consumers_name_the_parameter(param, bad):
    with pytest.raises(ValueError, match=rf"^{param}: "):
        _MATRIX_CONSUMERS[param][0](_BAD_MATRICES[bad])


@pytest.mark.parametrize("call,param", [
    pytest.param(lambda: smoothers.krr_from_gram("m", np.eye(2), math.nan), "lambda",
                 id="krr-nan-lambda"),
    pytest.param(lambda: criteria.edf_bound(math.nan, 10, 1.0), "r_star_value",
                 id="edf_bound-nan-r_star"),
    pytest.param(lambda: criteria.edf_bound(1.0, 10, math.nan), "h_op", id="edf_bound-nan-h_op"),
    pytest.param(lambda: concentration.SubExpParams(math.nan, 0.0), "tau_sq",
                 id="SubExpParams-nan-tau_sq"),
    pytest.param(lambda: concentration.SubExpParams(1.0, math.nan), "b", id="SubExpParams-nan-b"),
    pytest.param(lambda: concentration.verify_mgf_bound(
        None, concentration.SubExpParams(1.0, 0.0), [0.1], 10**4, slack=math.nan,
        exact_eigs=[1.0]), "slack", id="verify_mgf_bound-nan-slack"),
    pytest.param(lambda: concentration.max_moment_bound(10, 2, math.nan), "tau",
                 id="max_moment_bound-nan-tau"),
    pytest.param(lambda: smoothers.knn_from_points("m", np.arange(3.0), 2.7), "k",
                 id="knn-fractional-k"),
    pytest.param(lambda: smoothers.projection_from_design("m", np.eye(2), [0.5]), r"subset\[0\]",
                 id="projection-fractional-subset"),
])
def test_library_bounds_reject_nan_and_fractions(call, param):
    with pytest.raises(ValueError, match=rf"^{param}: "):
        call()


def _matrix(entry):
    return [[1.0, 0.0], [0.0, entry]]


_MEMBER = smoothers.from_matrix("m", np.eye(2))
_MODEL = GaussianSequenceModel(theta0=[0.0, 1.0], sigma=1.0)
# (function, parameter, a call of the function whose one entry of that parameter,
# or the parameter itself when it is a number, is the argument)
_ENTRY_CONSUMERS = [
    ("array", "w", lambda e: validate.array([1.0, e], "w")),
    ("finite_matrix", "w", lambda e: validate.finite_matrix(_matrix(e), "w")),
    ("operator_norm", "h", lambda e: smoothers.operator_norm(_matrix(e))),
    ("from_matrix", "matrix", lambda e: smoothers.from_matrix("m", _matrix(e))),
    ("projection_from_design", "design",
     lambda e: smoothers.projection_from_design("m", _matrix(e), [0])),
    ("krr_from_gram", "gram", lambda e: smoothers.krr_from_gram("m", _matrix(e), 1.0)),
    ("knn_from_points", "points", lambda e: smoothers.knn_from_points("m", [0.0, 1.0, e], 2)),
    ("quadratic_form_params", "a",
     lambda e: concentration.quadratic_form_params(_matrix(e))),
    ("quadratic_form_sampler", "a",
     lambda e: concentration.quadratic_form_sampler(_matrix(e))),
    ("GaussianSequenceModel", "theta0", lambda e: GaussianSequenceModel([0.0, e], 1.0)),
    ("sure", "y", lambda e: criteria.sure(_MEMBER, [1.0, e], 1.0)),
    ("sure", "sigma", lambda e: criteria.sure(_MEMBER, [1.0, 2.0], e)),
    ("sure_select", "y",
     lambda e: criteria.sure_select(SmootherFamily.of([_MEMBER]), [1.0, e], 1.0)),
    ("sure_select", "sigma",
     lambda e: criteria.sure_select(SmootherFamily.of([_MEMBER]), [1.0, 2.0], e)),
    ("centered_variables", "z", lambda e: criteria.centered_variables(_MEMBER, _MODEL, [1.0, e])),
    ("sure_identity_residual", "z",
     lambda e: criteria.sure_identity_residual(_MEMBER, _MODEL, [1.0, e])),
    ("exact_quadratic_mgf", "eigs", lambda e: concentration.exact_quadratic_mgf([1.0, e], 0.1)),
    ("exact_quadratic_mgf", "lam", lambda e: concentration.exact_quadratic_mgf([1.0, 1.0], e)),
    ("verify_max_moment", "n_samples", lambda e: concentration.verify_max_moment(10, 2, 1.0, e)),
    ("verify_mgf_bound", "lambda_grid",
     lambda e: concentration.verify_mgf_bound(None, concentration.SubExpParams(1.0, 0.0),
                                              [0.1, e], 10**4, exact_eigs=[0.1])),
    ("shell_indices", "risks", lambda e: criteria.shell_indices([1.0, e], 1.0, 1.0)),
]


@pytest.mark.parametrize("param,call", [
    pytest.param(param, functools.partial(call, entry), id=f"{name}-{param}-{kind}")
    for name, param, call in _ENTRY_CONSUMERS
    for kind, entry in (("string", "1"), ("boolean", True), ("nan", math.nan))])
def test_numeric_inputs_take_only_finite_numbers(param, call):
    """One element rule: a string, a boolean or a NaN among the numbers (or as the
    number) is a ConfigError naming the parameter, not a value read as a float."""
    with pytest.raises(ConfigError, match=rf"^{param}: "):
        call()
