"""Fixtures for the search's worker process.

A run_search call that splits its rounds into two streams runs stream 1 in
a worker process, forked on first need and reused by later calls. A forked
worker keeps the module as it stood when it forked, monkeypatches included,
so every test stops the worker it started, and a test that spies on a run's
rounds from this process asks for one_stream or in_process. After the stop,
no test may leave a child process running: multiprocessing lists none.
"""

import multiprocessing

import pytest

import tspheat.search as search_mod


@pytest.fixture(autouse=True)
def _stop_search_worker():
    yield
    search_mod._stop_worker()
    assert multiprocessing.active_children() == []


@pytest.fixture
def one_stream(monkeypatch):
    """Runs of every size keep one stream, as runs of at most
    ONE_STREAM_MAX_CITIES cities do."""
    monkeypatch.setattr(search_mod, "ONE_STREAM_MAX_CITIES", 10**9)


@pytest.fixture
def in_process(monkeypatch):
    """No worker takes a job, as where fork does not exist: split runs run
    stream 1 in this process after stream 0."""
    monkeypatch.setattr(search_mod, "_submit", lambda job: None)
