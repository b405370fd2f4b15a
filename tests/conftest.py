"""Shared fixtures."""

import pytest

from nullprior import experiments
from nullprior.diagnostics import CloudConstants


@pytest.fixture
def run_iterates(monkeypatch):
    """The iterates of every penalized solve `experiments` runs, as its observer saw them.

    A run stores no iterates; this records each one its `CloudConstants`
    observer is handed, in order, before measuring it.
    """
    iterates = []

    class Recording(CloudConstants):
        def observe(self, x, *shared):
            iterates.append(x.copy())
            super().observe(x, *shared)

    monkeypatch.setattr(experiments, "CloudConstants", Recording)
    return iterates
