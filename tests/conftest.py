"""Fixtures shared by the test modules."""

import pytest

import mrrlink.montecarlo as montecarlo


@pytest.fixture
def block_rows(monkeypatch):
    """Rows of uniforms asked of the Philox block generators, in call order."""
    rows = []
    original = montecarlo._block_generator

    class Counting:
        def __init__(self, gen):
            self.gen = gen

        def random(self, shape):
            rows.append(shape[0])
            return self.gen.random(shape)

        def __getattr__(self, name):   # the Gamma-Gamma substream's standard_gamma
            return getattr(self.gen, name)

    monkeypatch.setattr(montecarlo, "_block_generator", lambda *args: Counting(original(*args)))
    return rows
