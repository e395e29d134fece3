"""Closed-form channel statistics under moderate-to-strong turbulence.

Both fading passes are Gamma-Gamma; with the power-law pointing factor
their product has a Meijer-G density, and convolving it with the
sectorized reflection density gives the channel statistics as sums of
Meijer-G differences over sectors.  The bit error rate closes the loop
with one more Mellin convolution against the Q-function kernel.

Each difference's G has a numerator b = 0 and a denominator a = 1, so it
is the integral of the G without that pair over the sector's ln-scale
interval, one interval term of `specfun.meijer_g_sum`.  Three such
reduced specs serve every form, the single-term simplified ones as point
terms: G^{5,0}_{1,5} (density), G^{5,1}_{2,6} (CDF) and G^{9,2}_{3,10}
(bit error rate).  The densities and CDFs take arrays.  The SNR
statistics and outage follow from the channel statistics through
`channel.SquareLawModel`.  `metric_batch` evaluates the outage or BER of
many models that share the turbulence and the sectors, as a heatmap's
cells do, through one such call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .channel import (
    LinkConfig,
    Regime,
    SquareLawModel,
    TurbulenceStats,
    beamwidth,
    h_constant,
    pointing_exponent,
    upsilon_1,
)
from .errors import (
    MODEL_FAILURES,
    NonConvergentError,
    NonPositiveBreakpointError,
    RegimeMismatchError,
)
from .mrr import SectorModel
from .specfun import MeijerGSpec, at_positive, meijer_g_sum, q_function

__all__ = [
    "StrongModelConstants",
    "strong_constants",
    "pdf_h_strong",
    "cdf_h_strong",
    "pdf_h_strong_simple",
    "cdf_h_strong_simple",
    "ber_strong",
    "metric_batch",
]


@dataclass(frozen=True)
class StrongModelConstants(SquareLawModel):
    """Constant bundle of the strong-turbulence channel statistics.

    Bn_prime/Bn_dprime are the per-sector argument scales built from the
    upper/lower sector breakpoints; B_s collects the overall density
    prefactor.
    """

    alpha: float
    beta: float
    K: float
    h_c: float
    upsilon_1: float
    w_z: float
    A_r: float
    sectors: SectorModel
    B_s: float
    Bn_prime: np.ndarray
    Bn_dprime: np.ndarray

    def __post_init__(self):
        if np.any(self.Bn_dprime <= self.Bn_prime):
            raise ValueError("need Bn'' > Bn' > 0 for every sector")
        if self.B_s <= 0:
            raise ValueError("B_s must be positive")

    def pdf_h(self, h):
        return pdf_h_strong(h, self)

    def cdf_h(self, h):
        return cdf_h_strong(h, self)

    def ber(self) -> float:
        return ber_strong(self)


def strong_constants(cfg: LinkConfig, stats: TurbulenceStats,
                     sectors: SectorModel) -> StrongModelConstants:
    if stats.regime is not Regime.MODERATE_TO_STRONG:
        raise RegimeMismatchError("strong-regime constants need strong-regime statistics")
    if sectors.V[0] <= 0.0:
        raise NonPositiveBreakpointError(
            f"first sector breakpoint {sectors.V[0]:g} <= 0 (mean reflectance "
            "<= 0.5); the Meijer-G argument scales diverge there"
        )
    w_z = beamwidth(cfg)
    h_c = h_constant(cfg)
    K = pointing_exponent(cfg)
    a, b = stats.alpha, stats.beta
    scale = math.pi * w_z ** 2 * a ** 2 * b ** 2 / (2.0 * cfg.A_r * h_c)
    B_s = K * scale / math.exp(2.0 * (sp.gammaln(a) + sp.gammaln(b)))
    Bn_prime = scale / sectors.V[1:]
    Bn_dprime = scale / sectors.V[:-1]
    return StrongModelConstants(a, b, K, h_c, upsilon_1(cfg), w_z, cfg.A_r,
                                sectors, B_s, Bn_prime, Bn_dprime)


def _b_shapes(k: StrongModelConstants) -> tuple:
    """Meijer-G b-parameters shared by every density and CDF form."""
    return (k.alpha - 1.0, k.beta - 1.0, k.K - 1.0, k.alpha - 1.0, k.beta - 1.0)


def _pdf_spec(k: StrongModelConstants) -> MeijerGSpec:
    """G^{5,0}_{1,5} of every channel density."""
    return MeijerGSpec(5, 0, (k.K,), _b_shapes(k))


def _cdf_spec(k: StrongModelConstants) -> MeijerGSpec:
    """G^{5,1}_{2,6} of every channel CDF."""
    return MeijerGSpec(5, 1, (0.0, k.K), (*_b_shapes(k), -1.0))


def _sector_terms(k: StrongModelConstants, p: float) -> tuple:
    """Weights B_n Delta_n and scale intervals [B_n', B_n''] of a sector
    sum at argument power p, Delta_n = p ln(B_n'' / B_n')."""
    return (k.sectors.B * (p * np.log(k.Bn_dprime / k.Bn_prime)), k.Bn_prime, k.Bn_dprime)


def pdf_h_strong(h, k: StrongModelConstants):
    """Channel density: B_s sum_n B_n [G^{6,0}_{2,6}(B_n' h) - G^{6,0}_{2,6}(B_n'' h)]."""
    return at_positive(h, lambda x: k.B_s * meijer_g_sum(_pdf_spec(k), *_sector_terms(k, 1), 1, x))


def cdf_h_strong(h, k: StrongModelConstants):
    """Channel CDF: B_s h sum_n B_n [G^{6,1}_{3,7}(B_n' h) - G^{6,1}_{3,7}(B_n'' h)]."""
    return at_positive(h, lambda x: np.clip(
        k.B_s * x * meijer_g_sum(_cdf_spec(k), *_sector_terms(k, 1), 1, x), 0.0, 1.0))


def _simple_scale(k: StrongModelConstants, h_c_reinstated: bool) -> tuple[float, float]:
    """Argument scale and prefactor of the single-term simplified forms."""
    area = k.A_r * (k.h_c if h_c_reinstated else 1.0)
    c = math.pi * k.w_z ** 2 * k.alpha ** 2 * k.beta ** 2 / (2.0 * area)
    return c, c * k.K / math.exp(2.0 * (sp.gammaln(k.alpha) + sp.gammaln(k.beta)))


def pdf_h_strong_simple(h, k: StrongModelConstants, h_c_reinstated: bool = True):
    """Small-jitter channel density (reflection coefficient -> 1).

    Single G^{5,0}_{1,5} term.  The printed simplified forms drop the
    deterministic loss h_c from the argument scale; h_c_reinstated=True
    (default) puts it back, which is the variant that actually limits
    the sectorized density.  Pass False for the bare printed form.
    """
    c, pref = _simple_scale(k, h_c_reinstated)
    return at_positive(h, lambda x: pref * meijer_g_sum(_pdf_spec(k), (1.0,), (c,), (c,), 1, x))


def cdf_h_strong_simple(h, k: StrongModelConstants, h_c_reinstated: bool = True):
    """Small-jitter channel CDF, single G^{5,1}_{2,6} term."""
    c, pref = _simple_scale(k, h_c_reinstated)
    return at_positive(h, lambda x: np.clip(
        pref * x * meijer_g_sum(_cdf_spec(k), (1.0,), (c,), (c,), 1, x), 0.0, 1.0))


def ber_strong(k: StrongModelConstants, with_method: bool = False):
    """OOK bit error rate over the Gamma-Gamma channel.

    Closed form from the Mellin convolution of the sector-sum density
    with the Q-function kernel: a G^{10,2}_{4,11} difference per sector
    with argument (B_n)^2/(128 upsilon_1), each one interval term of
    G^{9,2}_{3,10}, validated against direct quadrature of the error
    integral (see tests).  Falls back to quadrature when the contour
    integral fails, tagging the result.
    """
    a, b, K = k.alpha, k.beta, k.K
    spec = MeijerGSpec(9, 2, (0.5, 0.0, (K + 1.0) / 2.0),
                       ((a - 1) / 2, (a - 1) / 2, a / 2, a / 2,
                        (b - 1) / 2, (b - 1) / 2, b / 2, b / 2, (K - 1) / 2, -0.5))
    try:
        value = _ber_pref(k) * meijer_g_sum(spec, *_sector_terms(k, 2), 2,
                                            1.0 / (128.0 * k.upsilon_1))
        method = "closed-form"
        if not (math.isfinite(value) and value >= 0.0):
            raise NonConvergentError("closed form lost significance")
    except NonConvergentError:
        value = _ber_strong_quadrature(k)
        method = "quadrature-fallback"
    value = min(max(value, 0.0), 0.5)
    return (value, method) if with_method else value


def _ber_pref(k: StrongModelConstants) -> float:
    """Prefactor of the bit error rate's G^{9,2}_{3,10} sector sum."""
    return (k.B_s * 2.0 ** (2.0 * k.alpha + 2.0 * k.beta - 10.5)
            / (math.pi ** 2.5 * math.sqrt(k.upsilon_1)))


def metric_batch(ks, metric: str, gamma_th: float) -> tuple[np.ndarray, dict]:
    """Outage at gamma_th (metric "outage") or bit error rate ("ber") of
    every model in ks, from one `meijer_g_sum` call.

    The models must share alpha, beta and the sector model, as the cells
    of a jitter x beamwidth map do.  Their sector scales B_n' = scale/V_n
    differ only through `scale`, so each model is one entry at argument
    x scale (CDF, x = sqrt(gamma_th/upsilon_1)) or scale^2/(128 upsilon_1)
    (BER) over the shared intervals [1/V_n, 1/V_{n-1}], and its pointing
    exponent enters only as the entry's pair: Gamma(K-1-t)/Gamma(K-t) for
    the CDF, Gamma((K-1)/2-t)/Gamma((K+1)/2-t) for the BER, each the linear
    factor 1/(b-t) of its numerator b.  A value agrees with the model's own
    `outage`/`ber` within the quadrature tolerance.

    Returns the values and {index: reason} of the entries that failed,
    which are nan.  A BER entry whose closed form fails takes `ber_strong`'s
    quadrature fallback, and fails only if that does.
    """
    if metric not in ("outage", "ber"):
        raise ValueError("metric must be 'outage' or 'ber'")
    k0 = ks[0]
    if any((k.alpha, k.beta) != (k0.alpha, k0.beta)
           or not (np.array_equal(k.sectors.V, k0.sectors.V)
                   and np.array_equal(k.sectors.B, k0.sectors.B)) for k in ks):
        raise ValueError("a batch needs models that share alpha, beta and the sector model")
    a, b, V = k0.alpha, k0.beta, k0.sectors.V
    K = np.array([k.K for k in ks])
    scale = np.array([_simple_scale(k, True)[0] for k in ks])
    ups = np.array([k.upsilon_1 for k in ks])
    p = 1 if metric == "outage" else 2
    terms = (k0.sectors.B * (p * np.log(V[1:] / V[:-1])), 1.0 / V[1:], 1.0 / V[:-1])
    if metric == "outage":
        if gamma_th < 0:
            raise ValueError("gamma_th must be non-negative")
        values = np.zeros(len(ks))
        if gamma_th == 0:
            return values, {}
        x = np.sqrt(gamma_th / ups)
        pos = np.flatnonzero(x > 0)   # the CDF is 0 at and below h = 0
        g, fails = meijer_g_sum(MeijerGSpec(4, 1, (0.0,), (a - 1, b - 1, a - 1, b - 1, -1.0)),
                                *terms, p, x[pos] * scale[pos], pair=(K[pos] - 1.0, K[pos]))
        B_s = np.array([ks[i].B_s for i in pos])
        values[pos] = np.clip(B_s * x[pos] * g, 0.0, 1.0)
        return values, {int(pos[i]): reason for i, reason in fails.items()}
    spec = MeijerGSpec(8, 2, (0.5, 0.0), ((a - 1) / 2, (a - 1) / 2, a / 2, a / 2,
                                          (b - 1) / 2, (b - 1) / 2, b / 2, b / 2, -0.5))
    # an entry that does not converge is nan, and takes the fallback
    g, _ = meijer_g_sum(spec, *terms, p, scale ** 2 / (128.0 * ups),
                        pair=((K - 1.0) / 2.0, (K + 1.0) / 2.0))
    values = np.array([_ber_pref(k) for k in ks]) * g
    errors = {}
    for i in np.flatnonzero(~(np.isfinite(values) & (values >= 0.0))):
        try:
            values[i] = _ber_strong_quadrature(ks[i])
        except MODEL_FAILURES as exc:
            values[i] = math.nan
            errors[int(i)] = str(exc)
    return np.clip(values, 0.0, 0.5), errors


# Log-grid nodes of the BER quadrature fallback.
_BER_QUAD_POINTS = 320


def _ber_strong_quadrature(k: StrongModelConstants) -> float:
    """Quadrature of Q(sqrt(upsilon_1) h) against the channel density on a
    log grid over its support; the grid is independent of transmit power,
    so sweeps reuse it."""
    h_hi = k.sectors.V[-1] * 2.0 * k.A_r * k.h_c / (math.pi * k.w_z ** 2) * 20.0
    h = np.exp(np.linspace(math.log(h_hi * 1e-7), math.log(h_hi), _BER_QUAD_POINTS))
    f = pdf_h_strong(h, k)
    return float(np.trapezoid(q_function(np.sqrt(k.upsilon_1) * h) * f, h))
