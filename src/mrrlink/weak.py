"""Closed-form channel statistics under weak-to-moderate turbulence.

The composed random part of the channel (two log-normal fading passes
times the moment-matched log-normal reflection coefficient) is itself
log-normal, and the pointing factor follows a power law; the resulting
channel density, CDF and OOK bit error rate reduce to Q-function/erfc
expressions collected here.  Where the BER's erfc series leaves the
floating range, the BER is instead the average over the log-normal part
of the pointing-averaged error probability, a Gauss-Hermite sum of
incomplete gammas.  The SNR statistics and outage follow from the
channel statistics through `channel.SquareLawModel`.
"""

from __future__ import annotations

import functools
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
from .errors import DegenerateDistributionError, NumericalOverflowError, RegimeMismatchError
from .specfun import at_positive, log_erfc, log_q, q_function

__all__ = [
    "WeakModelConstants",
    "weak_constants",
    "pdf_h_weak",
    "cdf_h_weak",
    "ber_weak",
]

# Largest exponent allowed inside the BER series before the closed form
# falls back to the Gauss-Hermite sum.
_MAX_LOG = 700.0

# Nodes of the fallback's Gauss-Hermite rule: 192 agree with 30-digit
# quadrature within 1e-13 relative over the recipes' range.
_HERMITE_NODES = 192

# Series truncation of the model's BER: converged over the recipes' power
# range, unlike the stated (20, 4), which drops the SNR integral above 4.
_CONVERGED_M = 60
_CONVERGED_GAMMA_MAX = 40.0


@dataclass(frozen=True)
class WeakModelConstants(SquareLawModel):
    """Derived constant bundle of the weak-turbulence channel density.

    C1 is the total log-domain variance, C2 the negated log-domain mean
    of the composed fading, C3 the reciprocal of the peak deterministic
    gain, K the pointing power-law exponent, and C4/C5 the resulting
    density prefactor and log-offset.  C4 is kept as log_C4, since it
    overflows for large K.  The sign of the K C2 cross term
    in C4 is fixed by normalization: with exp(-K C2) instead, the
    density integrates to e^{-2 K C2}, not 1 (checked in tests).
    """

    C1: float
    C2: float
    C3: float
    log_C4: float
    C5: float
    K: float
    h_c: float
    upsilon_1: float

    def __post_init__(self):
        if self.C1 <= 0 or self.C3 <= 0 or self.K <= 0:
            raise ValueError("C1, C3, K must be positive")
        if not (0 < self.h_c <= 1):
            raise ValueError("h_c must lie in (0, 1]")

    def pdf_h(self, h):
        return pdf_h_weak(h, self)

    def cdf_h(self, h):
        return cdf_h_weak(h, self)

    def ber(self) -> float:
        """OOK bit error rate from the converged erfc series."""
        return ber_weak(self, M=_CONVERGED_M, gamma_max=_CONVERGED_GAMMA_MAX)


def weak_constants(cfg: LinkConfig, moments: tuple[float, float],
                   stats: TurbulenceStats) -> WeakModelConstants:
    """Assemble the constant bundle from config, reflection moments and
    turbulence statistics."""
    if stats.regime is not Regime.WEAK_TO_MODERATE:
        raise RegimeMismatchError("weak-regime constants need weak-regime statistics")
    mu, sd = moments
    if mu <= 0:
        raise ValueError("reflection mean must be positive")
    s_l2 = stats.sigma_L2
    if sd == 0.0 and s_l2 == 0.0:
        raise DegenerateDistributionError(
            "no spread in fading or reflection; the channel density is a point mass"
        )
    w_z = beamwidth(cfg)
    h_c = h_constant(cfg)
    K = pointing_exponent(cfg)
    C1 = math.log1p(sd ** 2 / mu ** 2) + 8.0 * s_l2
    C2 = math.log(math.sqrt(mu ** 2 + sd ** 2) / mu ** 2) + 4.0 * s_l2
    C3 = math.pi * w_z ** 2 / (2.0 * cfg.A_r * h_c)
    log_C4 = math.log(K) + K * math.log(C3) + (C1 * K ** 2 + 2.0 * K * C2) / 2.0
    C5 = math.log(C3) + C1 * K + C2
    return WeakModelConstants(C1, C2, C3, log_C4, C5, K, h_c, upsilon_1(cfg))


def pdf_h_weak(h, k: WeakModelConstants):
    """Channel density C4 h^{K-1} Q((ln h + C5)/sqrt(C1)), h > 0."""

    def density(x):
        lh = np.log(x)
        # log-space: the power-law factor overflows long before the Q tail kicks in
        return np.exp(k.log_C4 + (k.K - 1.0) * lh + log_q((lh + k.C5) / math.sqrt(k.C1)))

    return at_positive(h, density)


def cdf_h_weak(h, k: WeakModelConstants):
    """Channel CDF, the two-term Q expression integrating the density.

    The SNR CDF is this at sqrt(gamma/upsilon_1); the source text's
    printed SNR form carries a sign typo on the ln(upsilon_1) term of the
    second Q argument, which the substitution fixes.
    """

    def cdf(x):
        # (C4/K) e^{-K C5} e^{K^2 C1/2} is exactly 1 by the definitions of C4
        # and C5, so the second Q term stands alone; formed from log_C4 and
        # C5, that prefactor would carry their rounding (large at large K)
        lh = np.log(x)
        sq = math.sqrt(k.C1)
        t1 = np.exp(k.log_C4 - math.log(k.K) + k.K * lh + log_q((lh + k.C5) / sq))
        return np.minimum(t1 + q_function((k.K * k.C1 - lh - k.C5) / sq), 1.0)

    return at_positive(h, cdf)


@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Standard-normal abscissae z_i and log weights of the Gauss-Hermite
    rule, E[f(Z)] ~ sum exp(lw_i) f(z_i); built on first use."""
    x, w = sp.roots_hermite(_HERMITE_NODES)
    z, lw = math.sqrt(2.0) * x, np.log(w) - 0.5 * math.log(math.pi)
    z.flags.writeable = lw.flags.writeable = False
    return z, lw


def _log_pointing_terms(lb, K: float):
    """The two log terms of g(b) = E_U[Q(b U^{1/K})] at ln b = lb.

    g(b) = Q(b) + 2^{K/2-1} b^{-K} gamma((K+1)/2, b^2/2) / sqrt(pi), with
    gamma the lower incomplete gamma; the second term is assembled from
    gammaln and log(gammainc), since b^{-K} overflows for large K.
    """
    a = (K + 1.0) / 2.0
    with np.errstate(divide="ignore"):   # gammainc underflows to 0 as b -> 0
        log_gammainc = np.log(sp.gammainc(a, 0.5 * np.exp(2.0 * lb)))
    lt = ((K / 2.0 - 1.0) * math.log(2.0) - 0.5 * math.log(math.pi) + sp.gammaln(a)
          - K * lb + log_gammainc)
    return log_q(np.exp(lb)), lt


def _ber_weak_gauss_hermite(k: WeakModelConstants) -> float:
    """OOK bit error rate E_Y[g(b)] as a Gauss-Hermite sum.

    The channel h = h_max U^{1/K} e^Y, with U uniform on (0, 1), Y normal
    with variance C1 and h_max e^{E[Y]} = e^{-C2}/C3, has the density
    `pdf_h_weak`.  Averaging Q(sqrt(upsilon_1) h) over U leaves g(b) at
    b = sqrt(upsilon_1) h_max e^Y, where
    ln b = ln sqrt(upsilon_1) - C2 - ln C3 + sqrt(C1) Z, Z standard normal.
    The nodes are centred on the mode c of phi(z) g(b(z)): d ln g / d ln b
    = -K w, with w the second term's share of g, so for large K the mode
    lies far from 0.
    """
    s = math.sqrt(k.C1)
    lb0 = 0.5 * math.log(k.upsilon_1) - k.C2 - math.log(k.C3)
    # the mode solves z + K s w(z) = 0, rising through 0 on [-K s, 0]
    grid = np.linspace(-k.K * s, 0.0, 65)
    lq, lt = _log_pointing_terms(lb0 + s * grid, k.K)
    w = np.exp(lt - np.logaddexp(lq, lt))
    c = float(np.interp(0.0, grid + k.K * s * w, grid))
    z, lw = _hermite_rule()
    lq, lt = _log_pointing_terms(lb0 + s * (z + c), k.K)
    # shifting the nodes by c reweights them by phi(z + c) / phi(z)
    terms = lw - c * z - 0.5 * c * c + np.logaddexp(lq, lt)
    peak = terms.max()
    return math.exp(peak) * float(np.exp(terms - peak).sum())


@functools.cache
def _series_prefixes(M: int) -> tuple:
    """The model-free part of the BER series' m-th coefficient in log space,
    -ln m! - ln(pi)/2 - ln(2m + 1) - (m - 1/2) ln 2, for m = 0..M."""
    return tuple(-sp.gammaln(m + 1) - 0.5 * math.log(math.pi) - math.log(2 * m + 1)
                 - (m - 0.5) * math.log(2.0) for m in range(M + 1))


def ber_weak(k: WeakModelConstants, M: int = 20, gamma_max: float = 4.0,
             with_method: bool = False):
    """OOK bit error rate from the erfc-series closed form.

    The series keeps the SNR integral below gamma_max and expands the
    Q-function kernel to order M; the stated defaults (20, 4) follow the
    source method and lose the gamma > gamma_max contribution, which
    dominates at high SNR -- raise gamma_max (with M ~ 1.5 gamma_max)
    for a converged value.  Every term is assembled in log space with
    sign-aware summation; if a term still leaves the floating range, or
    the sum cancels to roundoff, the function falls back to the
    Gauss-Hermite sum of `_ber_weak_gauss_hermite` and tags the result
    "gauss-hermite-fallback".
    """
    a = 1.0 / (2.0 * math.sqrt(2.0 * k.C1))
    b = k.K / 2.0
    L3 = math.log(gamma_max) - math.log(k.upsilon_1) + 2.0 * k.C5
    log_u = math.log(k.upsilon_1) - 2.0 * k.C5
    log_L1 = k.log_C4 - math.log(4.0) - (k.K / 2.0) * math.log(k.upsilon_1)
    log_L2 = math.log(0.5) + k.K * log_u / 2.0
    log_erfc_aL3 = log_erfc(a * L3)

    def log_bracket(bm: float) -> float:
        # e^{bm^2/(4a^2)} erfc(bm/(2a) - a L3) + e^{bm L3} erfc(a L3);
        # the exponent bm^2/(4a^2) (= 2 C1 bm^2) is pinned by consistency
        # with the CDF's e^{K^2 C1/2} term and by quadrature.
        x1 = bm / (2.0 * a) - a * L3
        lt1 = bm * bm / (4.0 * a * a) + log_erfc(x1)
        lt2 = bm * L3 + log_erfc_aL3
        m = max(lt1, lt2)
        return m + math.log(math.exp(lt1 - m) + math.exp(lt2 - m))

    try:
        logs = [-math.log(b) + log_bracket(b)]
        signs = [1.0]
        for m_, prefix in enumerate(_series_prefixes(M)):
            bm = b + m_ + 0.5
            log_l1m = prefix + (2 * m_ + 1) * log_u / 2.0
            term = log_l1m - math.log(bm) + log_bracket(bm)
            if term + log_L1 + log_L2 > _MAX_LOG:
                raise NumericalOverflowError(
                    f"series term m={m_} exceeds range; reduce M or gamma_max"
                )
            logs.append(term)
            signs.append(-1.0 if m_ % 2 == 0 else 1.0)
        peak = max(logs)
        acc = sum(s * math.exp(lg - peak) for lg, s in zip(logs, signs))
        value = math.exp(log_L1 + log_L2 + peak) * acc
        method = "series"
        # catastrophic cancellation leaves acc at roundoff scale
        if not (value > 0.0 and math.isfinite(value)) or acc < 1e-9:
            raise NumericalOverflowError("series lost all significance")
    except NumericalOverflowError:
        value = _ber_weak_gauss_hermite(k)
        method = "gauss-hermite-fallback"
    value = min(value, 0.5)
    return (value, method) if with_method else value
