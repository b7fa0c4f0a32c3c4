"""Fixtures shared by the test modules."""

import pytest

from semicycles import harness


@pytest.fixture()
def no_pool(monkeypatch):
    """Make building a process pool fail the test: a refusal must come
    before any worker process exists."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", refuse)
