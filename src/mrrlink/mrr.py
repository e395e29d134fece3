"""Retroreflector scattering model.

The reflector is three mutually perpendicular triangular mirrors; a
mirror whose plane is tilted by theta away from the incoming beam
returns the fraction 1 - tan|theta| of the power it collects, and the
three tilt angles are independent zero-mean normals with the UAV
orientation-jitter SD.  The module provides exact sampling of the
product coefficient, its measured-moment table, the moment-matched
log-normal density used by the weak-turbulence statistics, and the
piecewise-constant (sectorized) density used by the strong-turbulence
statistics.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamplesError, NonPositiveBreakpointError
from .montecarlo import BLOCK, _mirror_factor, _mirror_product, block_normals
from .specfun import at_positive

__all__ = [
    "SectorModel",
    "hmrr_component",
    "sample_hmrr",
    "tilt_normals",
    "hmrr_from_normals",
    "mrr_moments",
    "model_moments",
    "lognormal_hmrr_pdf",
    "fit_sector_model",
    "sector_table",
    "TABLE_SECTORS",
]

# Reference tabulation of the product coefficient's mean/SD versus
# jitter SD in degrees (5e7-sample simulation runs).
_MOM_SIGMA_DEG = np.arange(1.0, 12.0)
_MOM_MU = np.array([0.96, 0.93, 0.89, 0.86, 0.83, 0.80, 0.76, 0.73, 0.70, 0.66, 0.62])
_MOM_SD = np.array([0.0178, 0.035, 0.052, 0.066, 0.083, 0.094, 0.11, 0.12, 0.13, 0.145, 0.158])

_MIN_FIT_SAMPLES = 10_000   # fewest samples `fit_sector_model` accepts
_MIN_MOMENT_SAMPLES = 2     # fewest with a nonzero SD, which `lognormal_hmrr_pdf` divides by

# Sector densities B_n for N=8, tabulated at odd jitter SDs (degrees).
_SEC_SIGMA_DEG = np.array([1.0, 3.0, 5.0, 7.0, 9.0, 11.0])
_SEC_B = np.array(
    [
        [2.63, 0.85, 0.47, 0.29, 0.19, 0.10],
        [5.74, 1.99, 1.24, 0.91, 0.72, 0.58],
        [10.37, 3.73, 2.42, 1.87, 1.58, 1.42],
        [15.20, 5.49, 3.56, 2.75, 2.30, 2.07],
        [17.80, 6.19, 3.90, 2.94, 2.40, 2.06],
        [14.70, 4.99, 3.03, 2.20, 1.73, 1.42],
        [7.05, 2.45, 1.44, 1.00, 0.76, 0.60],
        [1.26, 0.40, 0.23, 0.15, 0.11, 0.08],
    ]
)


@dataclass(frozen=True)
class SectorModel:
    """Piecewise-constant density of the reflection coefficient.

    V holds the N+1 breakpoints (V[-1] == 1); B the N densities.  The
    densities integrate to one over [V[0], 1] by construction.
    """

    V: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        V, B = np.asarray(self.V, float), np.asarray(self.B, float)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "B", B)
        if len(V) != len(B) + 1:
            raise ValueError("need one more breakpoint than sectors")
        if not (np.all(np.isfinite(V)) and np.all(np.isfinite(B))):
            raise ValueError("breakpoints and densities must be finite")
        if np.any(np.diff(V) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if abs(V[-1] - 1.0) > 1e-9:
            raise ValueError("last breakpoint must be 1")
        if np.any(B < 0):
            raise ValueError("sector densities must be non-negative")
        mass = float(np.sum(B * np.diff(V)))
        if abs(mass - 1.0) > 0.02:
            raise ValueError(f"sector densities integrate to {mass:.4f}, not 1")

    def pdf(self, h):
        h = np.asarray(h, dtype=float)
        idx = np.searchsorted(self.V, h, side="right") - 1
        ok = (idx >= 0) & (idx < len(self.B)) & (h <= 1.0)
        out = np.where(ok, self.B[np.clip(idx, 0, len(self.B) - 1)], 0.0)
        return float(out) if out.ndim == 0 else out


def hmrr_component(theta):
    """Directly-reflected power fraction of one mirror tilted by theta.

    1 - tan|theta|, clamped at zero.  Without the absolute value the
    factor would exceed one for negative tilts; reflectance cannot grow
    with misalignment of either sign, so the loss is symmetric.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(np.abs(theta) >= math.pi / 2):
        raise ValueError("|theta| must be below pi/2")
    return _mirror_factor(theta)


def tilt_normals(n: int, seed: int = 0) -> np.ndarray:
    """The (n, 3) standard normals behind `sample_hmrr` at one seed: one
    row of three mirror tilts per sample, in units of the jitter SD.  A
    jitter grid draws them once and evaluates every jitter from them
    (`hmrr_from_normals`); a shorter draw is a prefix of a longer one."""
    if n < 1:
        raise ValueError("need n >= 1")
    z = np.empty((n, 3))
    for block, pos in enumerate(range(0, n, BLOCK)):
        block_normals(seed, block, z[pos:pos + BLOCK])
    return z


def hmrr_from_normals(sigma_theta_o: float, z: np.ndarray) -> np.ndarray:
    """Reflection coefficients for jitter SD sigma_theta_o (radians) from
    `tilt_normals` rows z: the product of the three mirror factors at tilts
    sigma_theta_o * z, evaluated BLOCK rows at a time so that the
    temporaries stay one block in size."""
    out = np.empty(len(z))
    for pos in range(0, len(z), BLOCK):
        out[pos:pos + BLOCK] = _mirror_product(z[pos:pos + BLOCK], sigma_theta_o)
    return out


def sample_hmrr(sigma_theta_o: float, n: int, seed: int = 0) -> np.ndarray:
    """Draw n reflection coefficients for jitter SD sigma_theta_o (radians).

    Product of three independent mirror factors: `hmrr_from_normals` of
    `tilt_normals(n, seed)`, so it holds the (n, 3) normals, 24 bytes per
    sample, while it runs.  A shorter draw is a prefix of a longer one at
    one seed, and zero jitter gives exactly 1.
    """
    return hmrr_from_normals(sigma_theta_o, tilt_normals(n, seed))


def mrr_moments(sigma_theta_o: float):
    """Tabulated (mu, sd) of the reflection coefficient, interpolated.

    sigma_theta_o is in radians; the table is indexed in degrees over
    [min, max] of its rows.  Zero jitter returns (1, 0) by convention;
    out-of-range values clamp with a warning, and NaN raises.
    """
    if sigma_theta_o == 0.0:
        return 1.0, 0.0
    deg = math.degrees(sigma_theta_o)
    if math.isnan(deg):
        raise ValueError("sigma_theta_o is NaN")
    lo, hi = _MOM_SIGMA_DEG[0], _MOM_SIGMA_DEG[-1]
    if not lo <= deg <= hi:
        warnings.warn(
            f"sigma_theta_o={deg:.2f} deg outside the table range "
            f"[{lo:g}, {hi:g}] deg; clamping", stacklevel=2,
        )
    return (float(np.interp(deg, _MOM_SIGMA_DEG, _MOM_MU)),   # clamps at the end rows
            float(np.interp(deg, _MOM_SIGMA_DEG, _MOM_SD)))


def model_moments(sigma_theta_o: float) -> tuple[float, float]:
    """Exact (mu, sd) of the sampled product model by quadrature.

    Useful as a self-consistent alternative to the tabulated moments: the
    published table differs from its own printed generative model by up
    to 0.036 in the mean at large jitter.
    """
    from scipy.integrate import quad

    if sigma_theta_o == 0.0:
        return 1.0, 0.0
    s = sigma_theta_o

    def half_normal_moment(power: int) -> float:
        # E[max(0, 1 - tan theta)^power] over theta ~ |N(0, s^2)|
        def f(t):
            dens = math.sqrt(2.0 / math.pi) / s * math.exp(-t * t / (2 * s * s))
            return max(0.0, 1.0 - math.tan(t)) ** power * dens

        hi = min(math.pi / 4, 12.0 * s)   # component hits zero at pi/4
        val, _ = quad(f, 0.0, hi, epsabs=1e-14, epsrel=1e-12, limit=300)
        return val

    m1 = half_normal_moment(1)
    m2 = half_normal_moment(2)
    mu = m1 ** 3
    var = m2 ** 3 - mu ** 2
    return mu, math.sqrt(max(var, 0.0))


def lognormal_hmrr_pdf(h, mu: float, sd: float):
    """Moment-matched log-normal density; its first two moments equal
    (mu, sd^2) exactly."""
    if mu <= 0 or sd <= 0:
        raise ValueError(f"mu and sd must be positive, got mu={mu!r}, sd={sd!r}")
    loc = math.log(mu ** 2 / math.sqrt(mu ** 2 + sd ** 2))
    scale = math.sqrt(math.log1p(sd ** 2 / mu ** 2))
    return at_positive(h, lambda x: np.exp(-((np.log(x) - loc) ** 2) / (2 * scale ** 2))
                       / (x * scale * math.sqrt(2 * math.pi)))


def _uniform_sectors(mu: float, n_sectors: int) -> np.ndarray:
    """Equal-width breakpoints spanning [2 mu - 1, 1].

    The printed recursion for the breakpoints overshoots 1; equal widths
    (2 - 2 mu)/N reproduce the intended equal-width sector picture and
    end exactly at 1.
    """
    lo = 2.0 * mu - 1.0
    if lo < 0.0:
        raise NonPositiveBreakpointError(
            f"mean reflectance {mu:.3f} < 0.5 puts the first breakpoint at "
            f"{lo:.3f} < 0, outside the coefficient's support"
        )
    return lo + (1.0 - lo) / n_sectors * np.arange(n_sectors + 1)


def fit_sector_model(samples, n_sectors: int = 8) -> SectorModel:
    """Fit the piecewise-constant density from reflection-coefficient samples.

    Breakpoints are uniform over [2 mu - 1, 1] with mu the sample mean;
    densities are sector fractions over sector width, renormalized to
    integrate to one over the window.
    """
    samples = np.asarray(samples, dtype=float)
    if n_sectors < 2:
        raise ValueError("need at least two sectors")
    if samples.size < _MIN_FIT_SAMPLES:
        raise InsufficientSamplesError(
            f"{samples.size} samples; need at least {_MIN_FIT_SAMPLES} for a stable fit"
        )
    V = _uniform_sectors(float(samples.mean()), n_sectors)
    counts, _ = np.histogram(samples, bins=V)
    total = counts.sum()
    if total == 0:
        raise InsufficientSamplesError("no samples fall inside the sector window")
    width = np.diff(V)
    B = counts / total / width
    return SectorModel(V, B)


@functools.lru_cache(maxsize=64)
def sector_table(sigma_theta_o: float) -> SectorModel:
    """Tabulated 8-sector model, interpolated in jitter SD (radians).

    Other sector counts are fitted from samples (`fit_sector_model`);
    densities are renormalized so the model integrates to one (the
    printed columns integrate to about 0.75).  One model is built per
    jitter and shared, by a heatmap's cells and an optimizer's objective
    evaluations among others, so its arrays are read-only.
    """
    deg = math.degrees(sigma_theta_o)
    if not _SEC_SIGMA_DEG[0] <= deg <= _SEC_SIGMA_DEG[-1]:
        raise ValueError(
            f"sigma_theta_o={deg:.2f} deg outside the sector table range "
            f"[{_SEC_SIGMA_DEG[0]:g}, {_SEC_SIGMA_DEG[-1]:g}] deg"
        )
    B = np.array([np.interp(deg, _SEC_SIGMA_DEG, row) for row in _SEC_B])
    mu, _ = mrr_moments(sigma_theta_o)
    V = _uniform_sectors(mu, 8)
    B = B / np.sum(B * np.diff(V))
    V.flags.writeable = B.flags.writeable = False
    return SectorModel(V, B)


TABLE_SECTORS = {float(s): np.array(_SEC_B[:, i]) for i, s in enumerate(_SEC_SIGMA_DEG)}
