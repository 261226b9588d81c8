"""Test-suite settings: property tests draw the same examples on every run.
The `closure_results` fixture records what the library's `closure` returns."""

import sys

from hypothesis import settings
import pytest

from modp_hecke import root_datum

settings.register_profile("tier1", derandomize=True, max_examples=40, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def closure_results(monkeypatch):
    """A list that gains every set `closure` returns during the test: `closure`
    is patched in every library module that binds it."""
    real, results = root_datum.closure, []

    def recorded(*args, **kwargs):
        results.append(out := real(*args, **kwargs))
        return out

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "modp_hecke" and getattr(module, "closure", None) is real:
            monkeypatch.setattr(module, "closure", recorded)
    return results
