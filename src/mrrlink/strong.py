"""Closed-form channel statistics under moderate-to-strong turbulence.

Both fading passes are Gamma-Gamma; with the power-law pointing factor
their product has a Meijer-G density, and convolving it with the
sectorized reflection density gives the channel statistics as sums of
Meijer-G differences over sectors.  The bit error rate closes the loop
with one more Mellin convolution against the Q-function kernel.

Each difference's G has a numerator b = 0 and a denominator a = 1, so it
is the integral of the G without that pair over the sector's ln-scale
interval, one interval term of `specfun.meijer_g_sum`.  The pointing
exponent K enters only through Gamma(K - 1 - t)/Gamma(K - t) = 1/(K - 1 -
t) ((K -+ 1)/2 for the bit error rate), the call's pole.  So three specs
of alpha and beta serve every form, over the sector intervals [1/V_n,
1/V_{n-1}] at argument h scale (bit error rate scale^2/(128 upsilon_1)),
the simplified ones as a unit point term: G^{4,0}_{0,4} (density),
G^{4,1}_{1,5} (CDF) and G^{8,2}_{2,9} (bit error rate).  The densities
and CDFs take arrays; the SNR statistics and outage follow through
`channel.SquareLawModel`.  `metric_batch` evaluates many models that
share the turbulence and the sectors, a heatmap's cells, in one call
with one pole per model; `ber_strong` is its one-model case.
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
from .specfun import MeijerGSpec, _check_converged, at_positive, meijer_g_sum, q_function

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

    scale is the argument scale of the sector sums: sector n's G is taken
    at h scale / V_n and h scale / V_{n-1}.  B_s collects the overall
    density prefactor.
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
    scale: float

    def __post_init__(self):
        if self.scale <= 0 or self.scale == math.inf:   # nan fails in the kernel
            raise ValueError("need a positive, finite argument scale")
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
    return StrongModelConstants(a, b, K, h_c, upsilon_1(cfg), w_z, cfg.A_r,
                                sectors, B_s, scale)


def _pdf_spec(k: StrongModelConstants) -> MeijerGSpec:
    """G^{4,0}_{0,4} of every channel density."""
    return MeijerGSpec(4, 0, (), (k.alpha - 1.0, k.beta - 1.0) * 2)


def _cdf_spec(k: StrongModelConstants) -> MeijerGSpec:
    """G^{4,1}_{1,5} of every channel CDF."""
    return MeijerGSpec(4, 1, (0.0,), (*(k.alpha - 1.0, k.beta - 1.0) * 2, -1.0))


def _ber_spec(k: StrongModelConstants) -> MeijerGSpec:
    """G^{8,2}_{2,9} of every bit error rate."""
    a, b = k.alpha, k.beta
    return MeijerGSpec(8, 2, (0.5, 0.0), ((a - 1) / 2, (a - 1) / 2, a / 2, a / 2,
                                          (b - 1) / 2, (b - 1) / 2, b / 2, b / 2, -0.5))


def _terms(sectors: SectorModel, p: float) -> tuple:
    """Weights B_n Delta_n and scale-free intervals [1/V_n, 1/V_{n-1}] of a
    sector sum at argument power p, Delta_n = p ln(V_n / V_{n-1})."""
    V = sectors.V
    return sectors.B * (p * np.log(V[1:] / V[:-1])), 1.0 / V[1:], 1.0 / V[:-1]


# One unit point term: the single-term simplified forms.
_POINT = ((1.0,), (1.0,), (1.0,))


def _converged(spec: MeijerGSpec, k: StrongModelConstants, terms: tuple, s):
    """`meijer_g_sum` at argument power 1 with k's pointing pole K - 1, or
    NonConvergentError."""
    values, fails = meijer_g_sum(spec, *terms, 1, s, pole=k.K - 1.0)
    _check_converged(fails)
    return values


def pdf_h_strong(h, k: StrongModelConstants):
    """Channel density: B_s sum_n B_n [G^{6,0}_{2,6}(B_n' h) - G^{6,0}_{2,6}(B_n'' h)],
    B_n' = scale/V_n, B_n'' = scale/V_{n-1}."""
    return at_positive(h, lambda x: k.B_s * _converged(_pdf_spec(k), k, _terms(k.sectors, 1),
                                                       x * k.scale))


def cdf_h_strong(h, k: StrongModelConstants):
    """Channel CDF: B_s h sum_n B_n [G^{6,1}_{3,7}(B_n' h) - G^{6,1}_{3,7}(B_n'' h)]."""
    return at_positive(h, lambda x: np.clip(
        k.B_s * x * _converged(_cdf_spec(k), k, _terms(k.sectors, 1), x * k.scale), 0.0, 1.0))


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
    return at_positive(h, lambda x: pref * _converged(_pdf_spec(k), k, _POINT, x * c))


def cdf_h_strong_simple(h, k: StrongModelConstants, h_c_reinstated: bool = True):
    """Small-jitter channel CDF, single G^{5,1}_{2,6} term."""
    c, pref = _simple_scale(k, h_c_reinstated)
    return at_positive(h, lambda x: np.clip(
        pref * x * _converged(_cdf_spec(k), k, _POINT, x * c), 0.0, 1.0))


def ber_strong(k: StrongModelConstants, with_method: bool = False):
    """OOK bit error rate over the Gamma-Gamma channel, `metric_batch`'s
    for the one model k.

    Closed form from the Mellin convolution of the sector-sum density
    with the Q-function kernel: a G^{10,2}_{4,11} difference per sector
    with argument (B_n)^2/(128 upsilon_1), each one interval term of
    G^{8,2}_{2,9} with the pole (K - 1)/2, validated against direct
    quadrature of the error integral (see tests).  Falls back to
    quadrature when the contour integral fails, tagging the result, and
    raises NonConvergentError if that fails too.
    """
    values, errors, fallback = _ber_batch([k])
    if errors:
        raise NonConvergentError(errors[0])
    method = "quadrature-fallback" if fallback.size else "closed-form"
    return (float(values[0]), method) if with_method else float(values[0])


def _ber_pref(k: StrongModelConstants) -> float:
    """Prefactor of the bit error rate's G^{9,2}_{3,10} sector sum."""
    return (k.B_s * 2.0 ** (2.0 * k.alpha + 2.0 * k.beta - 10.5)
            / (math.pi ** 2.5 * math.sqrt(k.upsilon_1)))


def metric_batch(ks, metric: str, gamma_th: float) -> tuple[np.ndarray, dict]:
    """Outage at gamma_th (metric "outage") or bit error rate ("ber") of
    every model in ks, from one `meijer_g_sum` call.

    The models must share alpha, beta and the sector model, as the cells
    of a jitter x beamwidth map do.  Their sector scales scale/V_n differ
    only through `scale`, so each model is one entry at argument x scale
    (CDF, x = sqrt(gamma_th/upsilon_1)) or scale^2/(128 upsilon_1) (BER)
    over the shared intervals [1/V_n, 1/V_{n-1}], and its pointing
    exponent enters only as the entry's pole: K - 1 for the CDF, (K - 1)/2
    for the BER.  The standalone forms are the same calls for one model.

    Returns the values and {index: reason} of the entries that failed,
    which are nan.  A BER entry whose closed form fails takes the
    quadrature fallback, and fails only if that does.
    """
    if metric not in ("outage", "ber"):
        raise ValueError("metric must be 'outage' or 'ber'")
    k0 = ks[0]
    if any((k.alpha, k.beta) != (k0.alpha, k0.beta)
           or not (np.array_equal(k.sectors.V, k0.sectors.V)
                   and np.array_equal(k.sectors.B, k0.sectors.B)) for k in ks):
        raise ValueError("a batch needs models that share alpha, beta and the sector model")
    if metric == "ber":
        values, errors, _ = _ber_batch(ks)
        return values, errors
    if gamma_th < 0:
        raise ValueError("gamma_th must be non-negative")
    values = np.zeros(len(ks))
    if gamma_th == 0:
        return values, {}
    x = np.sqrt(gamma_th / np.array([k.upsilon_1 for k in ks]))
    pos = np.flatnonzero(x > 0)   # the CDF is 0 at and below h = 0
    scale = np.array([ks[i].scale for i in pos])
    g, fails = meijer_g_sum(_cdf_spec(k0), *_terms(k0.sectors, 1), 1, x[pos] * scale,
                            pole=np.array([ks[i].K for i in pos]) - 1.0)
    B_s = np.array([ks[i].B_s for i in pos])
    values[pos] = np.clip(B_s * x[pos] * g, 0.0, 1.0)
    return values, {int(pos[i]): reason for i, reason in fails.items()}


def _ber_batch(ks) -> tuple[np.ndarray, dict, np.ndarray]:
    """`metric_batch`'s bit error rates of ks, its failures, and the indices
    that took the quadrature fallback."""
    k0 = ks[0]
    scale = np.array([k.scale for k in ks])
    ups = np.array([k.upsilon_1 for k in ks])
    # an entry that does not converge is nan, and takes the fallback
    g, _ = meijer_g_sum(_ber_spec(k0), *_terms(k0.sectors, 2), 2, scale ** 2 / (128.0 * ups),
                        pole=(np.array([k.K for k in ks]) - 1.0) / 2.0)
    values = np.array([_ber_pref(k) for k in ks]) * g
    fallback = np.flatnonzero(~(np.isfinite(values) & (values >= 0.0)))
    errors = {}
    for i in fallback:
        try:
            values[i] = _ber_strong_quadrature(ks[i])
        except MODEL_FAILURES as exc:
            values[i] = math.nan
            errors[int(i)] = str(exc)
    return np.clip(values, 0.0, 0.5), errors, fallback


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
