import numpy as np
import pytest

from sure_lab import _validate as validate
from sure_lab.cli import ConfigError


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
        validate.number(0.0, "w", positive=True)


def test_string_boolean_and_list_of():
    assert validate.string("a", "w") == "a"
    with pytest.raises(ConfigError, match="w: must be a string"):
        validate.string(5, "w")
    with pytest.raises(ConfigError, match=r"unknown w \['a'\]"):
        validate.string(["a"], "w", ("a", "b"))
    assert validate.boolean(False, "w") is False
    with pytest.raises(ConfigError, match="true or false"):
        validate.boolean(0, "w")
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
