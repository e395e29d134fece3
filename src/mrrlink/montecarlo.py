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
coefficient's tilts (`mrr.tilt_normals`) are three normals per sample
from the same (seed, block) key.

A draw depends on the seed and the sample count, never on who asks for
it, so callers share one where their grid points would repeat it: a
transmit-power curve forms each point's gamma = upsilon_1 h^2 from one h
array, and a jitter grid scales one set of tilt normals
(`mrr.hmrr_from_normals`).  Links that share (seed, n_samples) share one
pass of the stream (`draw_channel(plan, *more)`; a sweep's grid points in
`experiments._draw_group`): per block the six normals are drawn once,
and the fading formed once per distinct (model, parameters); each link's
h is then formed as in a pass of its own.
`draw_channel` keeps h only; `sample_channel`, the one block loop, also
yields gamma unless asked not to.

A block's arithmetic makes one pass per operation: products and sums
across a row's few columns are taken column by column (f[:, 0] * f[:, 1]
* f[:, 2]) rather than as small-axis reductions, and ufunc chains run in
place on one working array.  Each sample sees the same operations in the
same order as the row-wise form; the pinned digests in the tests hold
the byte contract above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

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
    "empirical_pdf",
    "empirical_cdf",
    "sorted_pdf",
    "sorted_cdf",
    "mc_outage",
    "mc_ber",
    "BLOCK",
    "POINTING_DISPLACEMENT_FACTOR",
]

BLOCK = 1 << 16  # samples per deterministic substream (fixed; not a tuning knob)

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


def _mirror_factor(theta, scale: float = 1.0):
    """Power fraction a mirror tilted by scale * theta reflects: 1 - tan|tilt|
    clamped at 0, with the tilt capped at pi/2, past which tan turns
    negative.  Computed in place on one working array, so `theta` is never
    written; a float or 0-d theta gives a float."""
    x = np.multiply(theta, scale, out=np.empty(np.shape(theta)))
    np.abs(x, out=x)
    np.minimum(x, math.pi / 2, out=x)
    np.tan(x, out=x)
    np.subtract(1.0, x, out=x)
    np.maximum(x, 0.0, out=x)
    return x if x.ndim else float(x)


def _mirror_product(z: np.ndarray, scale: float) -> np.ndarray:
    """Reflection coefficient per row of the (n, 3) tilt normals z at jitter
    SD `scale`: the three mirror factors multiplied column by column, in the
    order of a row-wise product."""
    f = _mirror_factor(z, scale)
    out = f[:, 0] * f[:, 1]
    out *= f[:, 2]
    return out


def _fading_key(plan: SimPlan) -> tuple:
    """What a plan's fading draw depends on besides (seed, block): its model
    and that model's parameters.  `_fading_pair` reads the plan through
    this key alone, so plans with equal keys share one draw."""
    stats = plan.stats
    if plan.fading is FadingModel.LOG_NORMAL:
        return plan.fading, stats.sigma_L2
    return plan.fading, stats.alpha, stats.beta


def _fading_pair(plan: SimPlan, z: np.ndarray, block: int) -> np.ndarray:
    """Product of the two per-pass fading coefficients (unit mean each) for
    the rows of `z`, the log-normal fading normals of block `block`: the two
    passes' log-amplitudes sum to a normal of variance 8 sigma_L^2, drawn as
    2 sqrt(2 sigma_L^2) z.  Gamma-Gamma draws from the block's fading
    substream instead, row by row, so a shorter block is a prefix of the
    full one."""
    model, *params = _fading_key(plan)
    if model is FadingModel.LOG_NORMAL:
        (s_l2,) = params
        if s_l2 == 0.0:
            return np.ones(len(z))
        out = z * (2.0 * math.sqrt(2.0 * s_l2))
        out -= 4.0 * s_l2
        return np.exp(out, out=out)
    alpha, beta = params
    shapes = np.array([alpha, alpha, beta, beta])
    g = _block_generator(plan.seed, block, _FADING_SUBSTREAM).standard_gamma(shapes, (len(z), 4))
    g /= shapes
    out = g[:, 0] * g[:, 1]
    out *= g[:, 2]
    out *= g[:, 3]
    return out


def sample_channel(plan: SimPlan, *more: SimPlan, with_snr: bool = True) -> Iterator[tuple]:
    """One pass over the sample stream: yield, block by block, the h samples
    of `plan` and of each further plan, followed with `with_snr` by each
    plan's gamma = upsilon_1 h^2.  Alone, `plan` yields (h, gamma) blocks.

    The plans must share seed and sample count.  Per block the six normals
    are drawn once, and the fading formed once per distinct (model,
    parameters); each plan's h is then formed from
    them with its own link, in the operation order of a single-plan pass,
    so a plan's samples do not depend on the plans drawn beside it.
    """
    plans = [p.resolved() for p in (plan, *more)]
    seed, n = plans[0].seed, plans[0].n_samples
    if any((p.seed, p.n_samples) != (seed, n) for p in plans):
        raise ValueError("plans drawn in one pass must share seed and n_samples")
    links = [(p, _fading_key(p), beer_lambert(p.cfg), geometric_loss_gs(p.cfg),
              POINTING_DISPLACEMENT_FACTOR * p.cfg.Z) for p in plans]
    u1 = [upsilon_1(p.cfg) for p in plans]
    buf = np.empty((min(n, BLOCK), _CHANNEL_NORMALS))   # refilled block by block
    for b, pos in enumerate(range(0, n, BLOCK)):
        z = block_normals(seed, b, buf[:n - pos])
        tilt, track = z[:, 0:3], z[:, 3:5]
        fading: dict = {}
        hs = []
        for p, key, hl, h_pg, scale in links:
            cfg = p.cfg
            d = np.multiply(track, cfg.sigma_theta_e)
            np.sin(d, out=d)
            d *= scale
            if key not in fading:
                fading[key] = _fading_pair(p, z[:, 5], b)
            # (hl^2 h_pg) * fading * h_pu * h_mrr, left to right
            h = fading[key] * (hl * hl * h_pg)
            h *= pointing_loss_approx(cfg, d[:, 0], d[:, 1])
            h *= _mirror_product(tilt, cfg.sigma_theta_o)
            hs.append(h)
        if with_snr:
            for c, h in zip(u1, hs[:len(plans)]):
                g = c * h
                g *= h
                hs.append(g)
        yield tuple(hs)


def draw_channel(plan: SimPlan, *more: SimPlan) -> np.ndarray:
    """The full h sample array of `plan`, or with further plans one row per
    plan, filled block by block from one pass of `sample_channel`; the plans
    share seed and sample count.  A plan's SNR samples are
    upsilon_1(cfg) * h * h, bit for bit those of `sample_channel`."""
    n = plan.n_samples
    out = np.empty((1 + len(more), n))
    for pos, blocks in zip(range(0, n, BLOCK), sample_channel(plan, *more, with_snr=False)):
        for h, hb in zip(out, blocks):
            h[pos:pos + len(hb)] = hb
    return out if more else out[0]


def empirical_pdf(samples, bins=80) -> tuple[np.ndarray, np.ndarray]:
    """Histogram density of the samples, which integrates to one over the
    bins, and the bin edges; `bins` as in numpy.histogram."""
    counts, edges = np.histogram(np.asarray(samples, dtype=float), bins=bins)
    return counts / counts.sum() / np.diff(edges), edges


def empirical_cdf(samples, x) -> np.ndarray:
    """Right-continuous ECDF of the samples at x: the fraction <= x."""
    return sorted_cdf(np.sort(np.asarray(samples, dtype=float)), x)


def sorted_cdf(sorted_samples, x) -> np.ndarray:
    """`empirical_cdf` of samples already sorted ascending."""
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


def mc_outage(gamma, gamma_th: float) -> MCEstimate:
    """Fraction of SNR samples below gamma_th, with 95% interval."""
    if gamma_th < 0:
        raise ValueError("gamma_th must be non-negative")
    n = len(gamma)
    below = int(np.count_nonzero(np.asarray(gamma) < gamma_th))
    lo, hi = _wilson_interval(below, n)
    return MCEstimate(below / n, lo, hi, n)


def mc_ber(gamma) -> MCEstimate:
    """Sample mean of Q(sqrt(SNR)) -- the OOK bit error rate -- with a
    95% normal interval.  Q is summed over BLOCK-sized slices, reduced in
    block order: the arithmetic of accumulating block by block from the
    sampler, without a second array the size of the samples."""
    gamma = np.asarray(gamma, dtype=float)
    n = len(gamma)
    total = total_sq = 0.0
    for i in range(0, n, BLOCK):
        q = q_function(np.sqrt(gamma[i:i + BLOCK]))
        total += q.sum()
        total_sq += (q * q).sum()
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    half = 1.959963984540054 * math.sqrt(var / n)
    return MCEstimate(mean, max(0.0, mean - half), min(0.5, mean + half), n)
