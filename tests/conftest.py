"""Fixtures shared by the test modules."""

import pytest

import mrrlink.montecarlo as montecarlo


def watch_normal_fills(monkeypatch, on_fill):
    """Call `on_fill(generator, z)` with each array z of standard normals a
    Philox block generator (`montecarlo._block_generator`) fills, just after
    the fill; a generator serves one block, sub-block by sub-block."""
    original = montecarlo._block_generator

    class Watched:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, size=None, *, out=None):
            z = self.gen.standard_normal(size, out=out)
            on_fill(self, z)
            return z

        def __getattr__(self, name):   # the Gamma-Gamma substream's standard_gamma
            return getattr(self.gen, name)

    monkeypatch.setattr(montecarlo, "_block_generator", lambda *args: Watched(original(*args)))


@pytest.fixture
def block_rows(monkeypatch):
    """Rows of standard normals asked of the Philox block generators, in
    call order: one entry per block of a channel pass or a tilt draw, the
    sum of the rows its generator filled across the block's sub-blocks."""
    rows, entry = [], {}

    def count(gen, z):
        if gen not in entry:
            entry[gen] = len(rows)
            rows.append(0)
        rows[entry[gen]] += len(z)

    watch_normal_fills(monkeypatch, count)
    return rows
