"""Shared pytest hooks: one summary line per acceptance criterion, and
the hypothesis profile of every property test."""

from __future__ import annotations

import sys

import pytest
from hypothesis import settings

from gammadesign import Design

# Derandomized so that tier-1 runs the same examples every time; no
# deadline, because a shared host can stall any single example.
settings.register_profile("gammadesign", max_examples=200, deadline=None, derandomize=True)
settings.load_profile("gammadesign")

_CRITERIA: dict[str, tuple[int, str]] = {}
_OUTCOMES: dict[str, str] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(number, description): top-level acceptance criterion",
    )


def pytest_collection_modifyitems(items):
    for item in items:
        marker = item.get_closest_marker("acceptance")
        if marker is not None:
            _CRITERIA[item.nodeid] = (marker.args[0], marker.args[1])


def pytest_runtest_logreport(report):
    if report.nodeid in _CRITERIA and report.when == "call":
        _OUTCOMES[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid, (number, description) in sorted(_CRITERIA.items(), key=lambda kv: kv[1]):
        outcome = _OUTCOMES.get(nodeid, "skipped")
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status}  {description}")


@pytest.fixture
def built_designs(monkeypatch):
    """The points and weights, as tuples, of every Design built while the test runs. Every construction, from
    caller input or from the library's own arrays, goes through ``Design._set``; copies and pickles do not."""
    built = []
    set_arrays = Design._set

    def counting(self, X, w, *args):
        built.append((tuple(map(tuple, X.tolist())), tuple(w.tolist())))
        set_arrays(self, X, w, *args)

    monkeypatch.setattr(Design, "_set", counting)
    return built


@pytest.fixture
def counted_calls(monkeypatch):
    """``counted_calls(module, name)`` wraps the function ``name`` of ``module``
    wherever the package binds it, and returns the list that collects the
    arguments of its calls while the test runs."""

    def count(module, name):
        original, calls = getattr(module, name), []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for loaded in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "gammadesign"]:
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    monkeypatch.setattr(loaded, attr, counting)
        return calls

    return count
