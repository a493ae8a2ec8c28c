"""Environment-knob parsing: bad values fall back loudly, once."""

import warnings

import pytest

from repro import knobs
from repro.knobs import at_least, env_knob, one_of

NAME = "KNOB_UNDER_TEST"


@pytest.fixture(autouse=True)
def fresh_registry(monkeypatch):
    monkeypatch.setattr(knobs, "_WARNED", set())


def test_unset_and_empty_are_silent_defaults(monkeypatch):
    monkeypatch.delenv(NAME, raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert env_knob(NAME, at_least(int, 1), 7) == 7
        monkeypatch.setenv(NAME, "  ")
        assert env_knob(NAME, at_least(int, 1), 7) == 7


def test_valid_values_parse(monkeypatch):
    monkeypatch.setenv(NAME, " 3 ")
    assert env_knob(NAME, at_least(int, 1), 7) == 3
    monkeypatch.setenv(NAME, "0.5")
    assert env_knob(NAME, at_least(float, 0), 1.0) == 0.5
    monkeypatch.setenv(NAME, "Dense")
    assert env_knob(NAME, one_of("auto", "dense"), "auto") == "dense"


@pytest.mark.parametrize("parse, raw, expected", [
    (at_least(int, 1), "two", "an integer >= 1"),
    (at_least(int, 1), "0", "an integer >= 1"),
    (at_least(float, 0), "-1.5", "a number >= 0"),
    (one_of("auto", "dense"), "sparce", "one of auto|dense"),
])
def test_rejection_names_variable_value_and_fallback(monkeypatch, parse,
                                                     raw, expected):
    monkeypatch.setenv(NAME, raw)
    with pytest.warns(RuntimeWarning) as record:
        assert env_knob(NAME, parse, "fallback") == "fallback"
    (message,) = [str(w.message) for w in record]
    assert f"{NAME}={raw!r}" in message
    assert expected in message
    assert "using 'fallback'" in message


def test_one_warning_per_variable_and_value(monkeypatch):
    monkeypatch.setenv(NAME, "two")
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        for _ in range(3):
            env_knob(NAME, at_least(int, 1), 1)
        monkeypatch.setenv(NAME, "three")
        env_knob(NAME, at_least(int, 1), 1)
    assert [str(w.message).split(" (")[0] for w in record] == [
        f"ignoring {NAME}='two'", f"ignoring {NAME}='three'"]
