"""Environment-knob parsing: bad values fall back loudly, once."""

import pathlib
import warnings

import pytest

from repro import knobs
from repro.knobs import env_knob, one_of

NAME = "KNOB_UNDER_TEST"
ROOT = pathlib.Path(__file__).resolve().parent.parent
ENGINES = one_of("auto", "dense")


@pytest.fixture(autouse=True)
def fresh_registry(monkeypatch):
    monkeypatch.setattr(knobs, "_WARNED", set())


def test_unset_and_empty_are_silent_defaults(monkeypatch):
    monkeypatch.delenv(NAME, raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert env_knob(NAME, ENGINES, "auto") == "auto"
        monkeypatch.setenv(NAME, "  ")
        assert env_knob(NAME, ENGINES, "auto") == "auto"


def test_valid_values_parse(monkeypatch):
    monkeypatch.setenv(NAME, " dense ")
    assert env_knob(NAME, ENGINES, "auto") == "dense"
    monkeypatch.setenv(NAME, "Dense")
    assert env_knob(NAME, ENGINES, "auto") == "dense"


@pytest.mark.parametrize("parse, raw, expected", [
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
            env_knob(NAME, ENGINES, "auto")
        monkeypatch.setenv(NAME, "three")
        env_knob(NAME, ENGINES, "auto")
    assert [str(w.message).split(" (")[0] for w in record] == [
        f"ignoring {NAME}='two'", f"ignoring {NAME}='three'"]


def test_benchmark_run_metadata_resolves(monkeypatch):
    """The benchmark harness imports the program's run-metadata helpers
    (including the leftover stubs of removed subsystems); this fails in
    the fast tier when one of them goes missing."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.harness import run_metadata

    meta = run_metadata("deploy_opamp", 1, {}, "1")
    assert meta["repro_config"] == {
        "engine": "auto", "sparse_threshold": 128,
        "iterative_threshold": 4096, "store": "off", "shards": 1,
        "async": False}
