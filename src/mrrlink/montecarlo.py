"""End-to-end Monte-Carlo simulation of the double-pass channel.

Every random draw is keyed by (seed, block-index) through a
counter-based Philox generator, with a fixed internal block size, so
the sample stream -- and everything accumulated from it -- is
bit-identical for any chunking of blocks.  A run of n samples draws n
rows, a prefix of any longer run.  Per sample the engine draws six
standard normals (`Generator.standard_normal`, numpy's ziggurat)
straight from the block's Philox stream: three mirror tilts (slots 0-2),
two tracking angles (3-4) and the log-normal fading (5).  The two
passes' log-normal fading normals are independent, so their sum is drawn
as one normal of doubled variance, which is exact in distribution.
Gamma-Gamma fading draws its four gamma variates per sample (alpha,
alpha, beta, beta) with `Generator.standard_gamma` from a separate
Philox substream of the same (seed, block) key, whose counter starts
2**192 steps in (`_FADING_SUBSTREAM`), so it never overlaps the normals.
The six-normal layout does not depend on the fading model, so the same
seed produces the same geometry draws under either.  The reflection
coefficient's tilts (`tilt_normals`, behind `mrr.sample_hmrr`) are three
normals per sample from the same (seed, block) key.

A draw depends on the seed and the sample count, never on who asks for
it, so callers share one where their grid points would repeat it: a
transmit-power curve forms each point's gamma = upsilon_1 h^2 from one h
array, and a jitter grid scales one set of tilt normals
(`hmrr_from_normals`).  Links that share (seed, n_samples) share one
pass of the stream (`draw_channel(plan, *more)`; a sweep's grid points in
`experiments._draw_group`): per block the six normals are drawn once,
and the fading formed once per distinct (model, parameters); each link's
h is then formed as in a pass of its own.
`draw_channel` keeps h only; `sample_channel`, the one block loop, also
yields gamma unless asked not to.

A block's rows are drawn and formed in sub-blocks of `SUB_BLOCK` rows,
so a pass's temporaries are a sub-block in size whatever the block size:
each sub-block continues the block's normal generator and, for Gamma-Gamma
fading, its fading substream generator, and the samples are those of one
fill of the whole block, since both fill sequentially and every operation
on a row is elementwise.  A block's arithmetic makes one pass per
operation: products and sums across a row's few columns are taken column
by column (f[:, 0] * f[:, 1] * f[:, 2]) rather than as small-axis
reductions, and ufunc chains run in place on one working array.  Each
sample sees the same operations in the same order as the row-wise form;
the pinned digests in the tests hold the byte contract above.

The outage and BER estimators need sums over the samples, not the
samples: `SnrSums` adds a link's SNR samples a block at a time (the count
below gamma_th, and the sums of Q(sqrt(gamma)) and of its square), and
its `outage()`/`ber()` finish the estimate.  `draw_channel(..., sums=)`
feeds each block of a plan's h to its sums and keeps no h for it: every
sums forms its SNR and Q values in the pass's one spare block, so a pass
whose links need only outage and BER holds `THREADS` blocks per link and
one more; `mc_outage`/`mc_ber` feed an array's `BLOCK` slices to the same
sums.

The blocks of a pass, of a tilt draw and of a jitter evaluation are
independent by construction, so each runs as one block task on a thread
pool that the run makes and shuts down (`_in_order`): up to `THREADS`
tasks at once, their results taken in block order, and task i + THREADS
started only once block i has been consumed, so that it reuses slot i mod
THREADS.  numpy releases the GIL in the Philox fills and the ufuncs, so
the blocks overlap.  The tasks allocate no arrays: the calling thread
allocates each block's destination (a slice of a kept row, a fresh array,
or a recycled per-slot block) and one sub-block scratch set per slot, and
the kernels write into them (`out=`/`work=`).  Everything that adds
across blocks (`SnrSums`) adds on the calling thread in block order, so
every sum and every output byte is the same for any `THREADS`.  With one
thread or one block the tasks run inline.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .channel import (
    LinkConfig,
    Regime,
    TurbulenceStats,
    beer_lambert,
    geometric_loss_gs,
    pointing_loss_approx,
    turbulence_stats,
    upsilon_1,
)
from .specfun import q_function

__all__ = [
    "FadingModel",
    "SimPlan",
    "MCEstimate",
    "sample_channel",
    "draw_channel",
    "tilt_normals",
    "hmrr_from_normals",
    "snr_from_channel",
    "SnrSums",
    "empirical_pdf",
    "mean_sd_in_place",
    "sorted_pdf",
    "sorted_cdf",
    "mc_outage",
    "mc_ber",
    "BLOCK",
    "POINTING_DISPLACEMENT_FACTOR",
]

BLOCK = 1 << 16  # samples per deterministic substream (fixed; not a tuning knob)
SUB_BLOCK = BLOCK // 16   # rows drawn and formed at once within a block (fixed; not a knob)
# Block tasks run at once: the CPUs this process may run on, at most 4
# (fixed; not a knob).  The bytes do not depend on it.
THREADS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1, 4)

# Radial displacement per unit tracking angle, in units of Z.  The
# plain geometric mapping d = Z sin(theta) yields pointing exponent
# w^2/(4 Z^2 sigma^2), while the closed-form statistics are built on
# K = w^2/(Z^2 sigma^2); a per-axis displacement SD of Z sigma / 2
# realizes exactly that K, so the engine uses it and simulation and
# analysis describe the same channel.
POINTING_DISPLACEMENT_FACTOR = 0.5

_CHANNEL_NORMALS = 6   # per row: tilts 0-2, tracking 3-4, log-normal fading 5
# Top counter word of the Gamma-Gamma fading substream within a block's key.
_FADING_SUBSTREAM = 1


class FadingModel(Enum):
    LOG_NORMAL = "lognormal"
    GAMMA_GAMMA = "gammagamma"


@dataclass(frozen=True)
class SimPlan:
    """One reproducible simulation run: the statistics depend on (cfg,
    n_samples, seed, fading) alone."""

    cfg: LinkConfig
    n_samples: int = 1_000_000
    seed: int = 0
    fading: FadingModel | None = None
    stats: TurbulenceStats | None = None

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    def resolved(self) -> "SimPlan":
        """Fill in turbulence statistics and the fading model from the config."""
        stats = self.stats if self.stats is not None else turbulence_stats(self.cfg)
        fading = self.fading
        if fading is None:
            fading = (FadingModel.LOG_NORMAL if stats.regime is Regime.WEAK_TO_MODERATE
                      else FadingModel.GAMMA_GAMMA)
        return SimPlan(self.cfg, self.n_samples, self.seed, fading, stats)


class MCEstimate(NamedTuple):
    value: float
    ci_low: float
    ci_high: float
    n: int


def _block_generator(seed: int, index: int, substream: int = 0) -> np.random.Generator:
    """The Philox generator keyed by (seed, block index).  `substream` is
    the top word of the 256-bit counter, so substreams of one block start
    2**192 counter steps apart and never overlap."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, substream]))


def block_normals(seed: int, index: int, out: np.ndarray) -> np.ndarray:
    """Fill `out`, a C-contiguous (rows, cols) array with rows <= BLOCK,
    with the first rows of `cols` standard normals in the Philox stream
    keyed by (seed, block index), whatever the block scheduling."""
    return _block_generator(seed, index).standard_normal(out=out)


def _slots(n: int) -> int:
    """How many block tasks of an n-row run are in flight at once: each has
    a slot of scratch of its own, slot i mod `_slots(n)`."""
    return max(1, min(THREADS, -(-n // BLOCK)))


def _in_order(tasks: Iterator[Callable], slots: int) -> Iterator:
    """The result of each task, in order, with up to `slots` running at once
    on a thread pool of the run's own, the only place the package starts
    threads.  The next task is taken from `tasks` (on the calling thread,
    which allocates what it writes) only once the result `slots` places
    before it has been consumed, so tasks i and i + slots can share slot
    i mod slots.  With one slot the tasks run inline.  A task's exception
    is raised here in its turn; the pool is shut down once the tasks still
    running have ended, so that none writes after the run is over."""
    if slots == 1:
        for task in tasks:
            yield task()
        return
    from concurrent.futures.thread import ThreadPoolExecutor
    pool = ThreadPoolExecutor(slots, thread_name_prefix="mrrlink-block")
    pending: deque = deque()
    try:
        for task in tasks:
            pending.append(pool.submit(task))
            if len(pending) == slots:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _mirror_factor(theta, scale: float = 1.0, out=None):
    """Power fraction a mirror tilted by scale * theta reflects: 1 - tan|tilt|
    clamped at 0, with the tilt capped at pi/2, past which tan turns
    negative.  The loss is symmetric: reflectance cannot grow with a
    misalignment of either sign.  Computed in place on one working array,
    `out` if given, so `theta` is never written; a float or 0-d theta gives
    a float."""
    x = np.multiply(theta, scale, out=np.empty(np.shape(theta)) if out is None else out)
    np.abs(x, out=x)
    np.minimum(x, math.pi / 2, out=x)
    np.tan(x, out=x)
    np.subtract(1.0, x, out=x)
    np.maximum(x, 0.0, out=x)
    return x if x.ndim else float(x)


def _mirror_product(z: np.ndarray, scale: float, out=None, work=None) -> np.ndarray:
    """Reflection coefficient per row of the (n, 3) tilt normals z at jitter
    SD `scale`: the three mirror factors multiplied column by column, in the
    order of a row-wise product.  `out` and `work`, (n,) arrays if given,
    take the product and each further factor."""
    out = _mirror_factor(z[:, 0], scale, out)
    out *= _mirror_factor(z[:, 1], scale, work)
    out *= _mirror_factor(z[:, 2], scale, work)
    return out


def tilt_normals(n: int, seed: int = 0) -> np.ndarray:
    """The (n, 3) standard normals behind `mrr.sample_hmrr` at one seed: one
    row of three mirror tilts per sample, in units of the jitter SD.  A
    jitter grid draws them once and evaluates every jitter from them
    (`hmrr_from_normals`); a shorter draw is a prefix of a longer one.
    Each block is filled by a block task, straight into the output."""
    if n < 1:
        raise ValueError("need n >= 1")
    z = np.empty((n, 3))
    tasks = (functools.partial(block_normals, seed, block, z[pos:pos + BLOCK])
             for block, pos in enumerate(range(0, n, BLOCK)))
    for _ in _in_order(tasks, _slots(n)):
        pass
    return z


def hmrr_from_normals(sigma_theta_o: float, z: np.ndarray) -> np.ndarray:
    """Reflection coefficients for jitter SD sigma_theta_o (radians) from
    `tilt_normals` rows z: the product of the three mirror factors at tilts
    sigma_theta_o * z.  Each `BLOCK` of rows is a block task, which works
    SUB_BLOCK rows at a time into the output with one sub-block of its
    slot's scratch."""
    n = len(z)
    out = np.empty(n)
    slots = _slots(n)
    work = np.empty((slots, min(n, SUB_BLOCK)))

    def block(start: int, slot: int) -> None:
        end = min(start + BLOCK, n)
        for pos in range(start, end, SUB_BLOCK):
            rows = slice(pos, min(pos + SUB_BLOCK, end))
            _mirror_product(z[rows], sigma_theta_o, out=out[rows],
                            work=work[slot, :rows.stop - pos])

    tasks = (functools.partial(block, pos, b % slots)
             for b, pos in enumerate(range(0, n, BLOCK)))
    for _ in _in_order(tasks, slots):
        pass
    return out


def _fading_key(plan: SimPlan) -> tuple:
    """What a plan's fading draw depends on besides (seed, block): its model
    and that model's parameters.  `_fading_pair` reads the plan through
    this key alone, so plans with equal keys share one draw."""
    stats = plan.stats
    if plan.fading is FadingModel.LOG_NORMAL:
        return plan.fading, stats.sigma_L2
    return plan.fading, stats.alpha, stats.beta


def _fading_pair(plan: SimPlan, z: np.ndarray, block: int, stream=None, out=None,
                 work=None) -> np.ndarray:
    """Product of the two per-pass fading coefficients (unit mean each) for
    the rows of `z`, log-normal fading normals of block `block`: the two
    passes' log-amplitudes sum to a normal of variance 8 sigma_L^2, drawn as
    2 sqrt(2 sigma_L^2) z.  Gamma-Gamma draws from the block's fading
    substream instead, row by row, so a shorter block is a prefix of the
    full one: `stream` goes on with that substream's generator where the
    previous sub-block stopped, and without it the substream starts.  The
    product goes to `out`, and Gamma-Gamma's (len(z), 4) variates to
    `work`, where given."""
    model, *params = _fading_key(plan)
    if out is None:
        out = np.empty(len(z))
    if model is FadingModel.LOG_NORMAL:
        (s_l2,) = params
        if s_l2 == 0.0:
            out.fill(1.0)
            return out
        np.multiply(z, 2.0 * math.sqrt(2.0 * s_l2), out=out)
        out -= 4.0 * s_l2
        return np.exp(out, out=out)
    if stream is None:
        stream = _block_generator(plan.seed, block, _FADING_SUBSTREAM)
    alpha, beta = params
    shapes = np.array([alpha, alpha, beta, beta])
    g = stream.standard_gamma(shapes, (len(z), 4), out=work)
    g /= shapes
    np.multiply(g[:, 0], g[:, 1], out=out)
    out *= g[:, 2]
    out *= g[:, 3]
    return out


def sample_channel(plan: SimPlan, *more: SimPlan, with_snr: bool = True,
                   out=None) -> Iterator[tuple]:
    """One pass over the sample stream: yield, block by block, the h samples
    of `plan` and of each further plan, followed with `with_snr` by each
    plan's gamma = upsilon_1 h^2.  Alone, `plan` yields (h, gamma) blocks.

    The plans must share seed and sample count.  Per sub-block the six
    normals are drawn once, and the fading formed once per distinct (model,
    parameters); each plan's h is then formed from
    them with its own link, in the operation order of a single-plan pass,
    so a plan's samples do not depend on the plans drawn beside it.

    `out`, if given, holds one entry per plan, where its h blocks go: None
    for a fresh array per block (as without `out`, and as every gamma
    block), a length-n row, whose slice each block is, or a
    (`_slots(n)`, min(n, BLOCK)) array, whose row block mod slots each
    block is: such a block is overwritten once `_slots(n)` more blocks
    have been taken.
    """
    plans = [p.resolved() for p in (plan, *more)]
    seed, n = plans[0].seed, plans[0].n_samples
    if any((p.seed, p.n_samples) != (seed, n) for p in plans):
        raise ValueError("plans drawn in one pass must share seed and n_samples")
    if out is not None and len(out) != len(plans):
        raise ValueError(f"need one entry per plan, got {len(out)} for {len(plans)}")
    keys = list(dict.fromkeys(_fading_key(p) for p in plans))
    links = [(p, keys.index(_fading_key(p)), beer_lambert(p.cfg), geometric_loss_gs(p.cfg),
              POINTING_DISPLACEMENT_FACTOR * p.cfg.Z) for p in plans]
    u1 = [upsilon_1(p.cfg) for p in plans]
    slots = _slots(n)
    # one scratch set per slot, allocated here: the block tasks allocate nothing
    sub = min(n, SUB_BLOCK)
    normals = np.empty((slots, sub, _CHANNEL_NORMALS))   # refilled sub-block by sub-block
    pair = np.empty((slots, 2, sub))        # displacements, then pointing and mirror factors
    fading = np.empty((slots, len(keys), sub))
    gammas = (np.empty((slots, sub, 4))
              if any(key[0] is FadingModel.GAMMA_GAMMA for key in keys) else None)

    def form(b: int, slot: int, hs: list, gs: list) -> tuple:
        """Block b's h into hs and gamma into gs, with slot's scratch."""
        z_gen = _block_generator(seed, b)
        # a Gamma-Gamma key's substream runs on through the block's sub-blocks
        streams = [_block_generator(seed, b, _FADING_SUBSTREAM)
                   if key[0] is FadingModel.GAMMA_GAMMA else None for key in keys]
        rows = len(hs[0])
        for pos in range(0, rows, SUB_BLOCK):
            m = min(SUB_BLOCK, rows - pos)
            z = z_gen.standard_normal(out=normals[slot, :m])
            dx, dy = pair[slot, :, :m]
            formed = [None] * len(keys)
            for (p, k, hl, h_pg, scale), h in zip(links, hs):
                cfg = p.cfg
                for d, col in ((dx, 3), (dy, 4)):
                    np.multiply(z[:, col], cfg.sigma_theta_e, out=d)
                    np.sin(d, out=d)
                    d *= scale
                if formed[k] is None:
                    formed[k] = _fading_pair(
                        p, z[:, 5], b, streams[k], out=fading[slot, k, :m],
                        work=None if gammas is None else gammas[slot, :m])
                # (hl^2 h_pg) * fading * h_pu * h_mrr, left to right
                hv = np.multiply(formed[k], hl * hl * h_pg, out=h[pos:pos + m])
                hv *= pointing_loss_approx(cfg, dx, dy, out=dx, work=dy)
                hv *= _mirror_product(z, cfg.sigma_theta_o, out=dx, work=dy)
        return (*hs, *(snr_from_channel(c, h, out=g) for c, h, g in zip(u1, hs, gs)))

    def block_of(dest, b: int, pos: int, rows: int) -> np.ndarray:
        if dest is None:
            return np.empty(rows)
        return dest[pos:pos + rows] if dest.ndim == 1 else dest[b % slots, :rows]

    dests = out or [None] * len(plans)

    def tasks():   # run on the calling thread, which allocates each block's arrays
        for b, pos in enumerate(range(0, n, BLOCK)):
            rows = min(BLOCK, n - pos)
            hs = [block_of(dest, b, pos, rows) for dest in dests]
            gs = [np.empty(rows) for _ in plans] if with_snr else []
            yield functools.partial(form, b, b % slots, hs, gs)

    yield from _in_order(tasks(), slots)


def snr_from_channel(u1: float, h: np.ndarray, out=None) -> np.ndarray:
    """SNR samples gamma = upsilon_1 h^2 of channel samples h at SNR scale
    u1, formed as (u1 h) h, into `out` if given: every SNR sample, in a
    `sample_channel` block or at a sweep point, is formed here, so the two
    agree bit for bit.  `out` must not be h itself."""
    g = np.multiply(u1, h, out=out)
    g *= h
    return g


def draw_channel(plan: SimPlan, *more: SimPlan, sums=None) -> np.ndarray:
    """The full h sample array of `plan`, or with further plans one row per
    plan, filled block by block from one pass of `sample_channel`; the plans
    share seed and sample count.  A plan's SNR samples are
    `snr_from_channel(upsilon_1(cfg), h)`, bit for bit those of
    `sample_channel`.

    `sums`, if given, holds one entry per plan: None keeps the plan's row,
    and a list of `SnrSums` takes each block of its h instead
    (`SnrSums.add_channel`), so the plan holds no row: its blocks recycle
    one array per slot (`_slots`), and every sums forms its SNR and Q
    values in the pass's one spare block.  The result is then one row per
    kept plan, even for one plan."""
    plans = (plan, *more)
    feeds = [None] * len(plans) if sums is None else list(sums)
    n = plan.n_samples
    out = np.empty((feeds.count(None), n))
    kept = iter(out)
    slots = _slots(n)
    dest = [next(kept) if feed is None else np.empty((slots, min(n, BLOCK))) for feed in feeds]
    spare = np.empty(min(n, BLOCK)) if any(feeds) else None
    for blocks in sample_channel(*plans, with_snr=False, out=dest):
        for feed, hb in zip(feeds, blocks):
            for acc in feed or ():
                acc.add_channel(hb, out=spare[:len(hb)])
    return out if more or sums is not None else out[0]


def empirical_pdf(samples, bins=80) -> tuple[np.ndarray, np.ndarray]:
    """Histogram density of the samples, which integrates to one over the
    bins, and the bin edges; `bins` as in numpy.histogram."""
    counts, edges = np.histogram(np.asarray(samples, dtype=float), bins=bins)
    return counts / counts.sum() / np.diff(edges), edges


def mean_sd_in_place(samples: np.ndarray) -> tuple[float, float]:
    """(samples.mean(), samples.std()) bit for bit, in numpy's operation
    order, with the deviations formed in `samples` itself, which this
    overwrites: no array the size of the samples is allocated."""
    n = len(samples)
    mean = np.add.reduce(samples) / n
    np.subtract(samples, mean, out=samples)
    np.square(samples, out=samples)
    return float(mean), float(np.sqrt(np.add.reduce(samples) / n))


def sorted_cdf(sorted_samples, x) -> np.ndarray:
    """Right-continuous empirical CDF at x of samples sorted ascending:
    the fraction <= x."""
    return np.searchsorted(sorted_samples, x, side="right") / len(sorted_samples)


def sorted_pdf(sorted_samples, edges) -> np.ndarray:
    """`empirical_pdf(samples, bins=edges)[0]` of samples already sorted
    ascending, bit for bit: the counts of numpy.histogram's sorting path,
    each bin closed on the left and the last also on the right."""
    counts = np.diff(np.concatenate((np.searchsorted(sorted_samples, edges[:-1], side="left"),
                                     np.searchsorted(sorted_samples, edges[-1:], side="right"))))
    return counts / counts.sum() / np.diff(edges)


def _wilson_interval(successes: int, n: int) -> tuple[float, float]:
    # 95% Wilson score interval for a binomial proportion
    z = 1.959963984540054
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


class SnrSums:
    """The Monte-Carlo outage and BER of one link, summed from its SNR
    samples a block at a time, so that no sample array is held: with
    `gamma_th`, the count of samples below it; with `ber`, the sums of
    Q(sqrt(gamma)) and of its square, each block's Q summed on its own and
    the block sums added in order.  `add_channel` adds the SNR
    gamma = (u1 h) h of a block of channel samples at the link's SNR scale
    `u1`.  Fed `BLOCK`-sized blocks in order, as `sample_channel` yields
    them, the estimates are bit for bit `mc_outage` and `mc_ber` of the
    whole array, which feed its BLOCK slices to one of these."""

    def __init__(self, u1: float, gamma_th: float | None, ber: bool):
        if gamma_th is not None and not gamma_th >= 0:
            raise ValueError(f"gamma_th={gamma_th!r} must be non-negative")
        self.u1, self.gamma_th, self.with_ber = u1, gamma_th, ber
        self.n = self.below = 0
        self.q_sum = self.q_sq_sum = 0.0

    @classmethod
    def of(cls, gamma, gamma_th: float | None = None, ber: bool = False) -> "SnrSums":
        """The sums of an SNR sample array, added a BLOCK slice at a time."""
        gamma = np.asarray(gamma, dtype=float)
        sums = cls(1.0, gamma_th, ber)
        for i in range(0, len(gamma), BLOCK):
            sums.add(gamma[i:i + BLOCK])
        return sums

    def add_channel(self, h: np.ndarray, out=None) -> None:
        """Add the SNR of a block of channel samples h.  `out`, an array of
        h's length other than h itself, takes the SNR and then its Q values,
        so that nothing is allocated."""
        gamma = snr_from_channel(self.u1, h, out=out)
        self.add(gamma, out=gamma)

    def add(self, gamma: np.ndarray, out=None) -> None:
        """Add a block of SNR samples.  Its Q values go to `out` if given (it
        may be gamma itself), else to one fresh array."""
        self.n += len(gamma)
        if self.gamma_th is not None:
            self.below += int(np.count_nonzero(gamma < self.gamma_th))
        if self.with_ber:
            q = np.sqrt(gamma, out=out)
            q_function(q, out=q)
            self.q_sum += q.sum()
            self.q_sq_sum += np.multiply(q, q, out=q).sum()

    def outage(self) -> MCEstimate:
        """Fraction of the samples below gamma_th, with 95% Wilson interval."""
        if self.gamma_th is None:
            raise ValueError("these sums count no outage: no gamma_th was given")
        lo, hi = _wilson_interval(self.below, self.n)
        return MCEstimate(self.below / self.n, lo, hi, self.n)

    def ber(self) -> MCEstimate:
        """Sample mean of Q(sqrt(SNR)) -- the OOK bit error rate -- with a
        95% normal interval."""
        if not self.with_ber:
            raise ValueError("these sums hold no BER: they were made with ber=False")
        mean = self.q_sum / self.n
        var = max(self.q_sq_sum / self.n - mean * mean, 0.0)
        half = 1.959963984540054 * math.sqrt(var / self.n)
        return MCEstimate(mean, max(0.0, mean - half), min(0.5, mean + half), self.n)


def mc_outage(gamma, gamma_th: float) -> MCEstimate:
    """Fraction of SNR samples below gamma_th, with 95% interval."""
    return SnrSums.of(gamma, gamma_th=gamma_th).outage()


def mc_ber(gamma) -> MCEstimate:
    """Sample mean of Q(sqrt(SNR)) -- the OOK bit error rate -- with a
    95% normal interval, summed block by block (`SnrSums`) without a second
    array the size of the samples."""
    return SnrSums.of(gamma, ber=True).ber()
