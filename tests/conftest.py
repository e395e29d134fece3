"""Fixtures shared by the test modules."""

import pytest

import mrrlink.montecarlo as montecarlo


@pytest.fixture
def block_rows(monkeypatch):
    """Rows of standard normals asked of the Philox block generators, in
    call order: one entry per block of a channel pass or a tilt draw."""
    rows = []
    original = montecarlo._block_generator

    class Counting:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, size=None, *, out=None):
            rows.append(len(out) if out is not None else size[0])
            return self.gen.standard_normal(size, out=out)

        def __getattr__(self, name):   # the Gamma-Gamma substream's standard_gamma
            return getattr(self.gen, name)

    monkeypatch.setattr(montecarlo, "_block_generator", lambda *args: Counting(original(*args)))
    return rows
