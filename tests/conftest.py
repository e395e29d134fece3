"""Fixtures shared by the test modules."""

import threading

import pytest

import mrrlink.montecarlo as montecarlo


def watch_normal_fills(monkeypatch, on_fill):
    """Call `on_fill(generator, z)` with each array z of standard normals a
    Philox block generator (`montecarlo._block_generator`) fills, just after
    the fill; a generator serves one block, sub-block by sub-block, and its
    `block` is that block's index.  Block tasks run on several threads, so
    the calls of different blocks may interleave."""
    original = montecarlo._block_generator

    class Watched:
        def __init__(self, seed, block, *substream):
            self.gen = original(seed, block, *substream)
            self.block = block

        def standard_normal(self, size=None, *, out=None):
            z = self.gen.standard_normal(size, out=out)
            on_fill(self, z)
            return z

        def __getattr__(self, name):   # the Gamma-Gamma substream's standard_gamma
            return getattr(self.gen, name)

    monkeypatch.setattr(montecarlo, "_block_generator", Watched)


def by_block(records: list) -> list:
    """The values of (block, value) records in block order, each block's in
    the order they were recorded."""
    return [value for _, value in sorted(records, key=lambda r: r[0])]


@pytest.fixture
def block_rows(monkeypatch):
    """Rows of standard normals asked of the Philox block generators: one
    entry per block of a channel pass or a tilt draw, in block order (a
    second pass's blocks follow the first's of the same index), the sum of
    the rows its generator filled across the block's sub-blocks."""
    rows, filled, lock = [], {}, threading.Lock()

    def count(gen, z):
        with lock:
            filled[gen] = filled.get(gen, 0) + len(z)
            rows[:] = [filled[g] for g in sorted(filled, key=lambda g: g.block)]

    watch_normal_fills(monkeypatch, count)
    return rows
