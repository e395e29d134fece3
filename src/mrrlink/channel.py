"""Physical-layer building blocks of the double-pass retroreflector link.

Geometry, turbulence statistics, deterministic losses, the SNR map and
the SNR statistics every fading model derives through it.
All quantities are SI: meters, radians, watts, linear SNR.  Angles that
tables index in degrees are converted at the table boundary, not here.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.integrate import quad

from .errors import DegenerateGeometryError
from .specfun import at_positive

__all__ = [
    "LinkConfig",
    "Regime",
    "TurbulenceStats",
    "cn2_profile",
    "rytov_variance",
    "gg_params",
    "turbulence_stats",
    "beer_lambert",
    "beamwidth",
    "pointing_loss_approx",
    "pointing_exponent",
    "geometric_loss_gs",
    "h_constant",
    "upsilon_1",
    "SquareLawModel",
]

class Regime(Enum):
    WEAK_TO_MODERATE = "weak"
    MODERATE_TO_STRONG = "strong"


@dataclass(frozen=True)
class LinkConfig:
    """Full physical description of one ground-station <-> UAV link.

    Defaults follow the reference parameterization reproduced by the
    figure recipes where it is fixed; the values it leaves open (node
    heights, wind speed, noise variance) are documented choices, see
    README.
    """

    Z: float = 1000.0              # link length, m
    Z_hg: float = 2.0              # ground-station height, m
    Z_hu: float = 102.0            # UAV height, m
    wavelength: float = 1550e-9    # m
    theta_div: float = 0.4e-3      # full divergence angle, rad
    r_g: float = 0.08              # ground aperture radius, m
    A_r: float = 1e-4              # retroreflector effective area, m^2
    sigma_theta_e: float = 100e-6  # tracking-error SD, rad
    sigma_theta_o: float = math.radians(5.0)  # UAV orientation-jitter SD, rad
    zeta: float | None = None      # scattering coefficient, 1/m (exclusive with h_l)
    h_l: float | None = 0.7        # direct per-pass loss (exclusive with zeta)
    cn2_0: float = 5e-15           # ground refractive-index structure const, m^-2/3
    wind_v: float = 27.0           # strong-wind speed, m/s
    P_t: float = 0.1               # transmit optical power, W
    R_pd: float = 0.8              # photodetector responsivity, A/W
    sigma_n2: float = 1e-13        # receiver noise variance, A^2
    gamma_th: float = 10 ** 0.5    # SNR threshold, linear (5 dB)

    def __post_init__(self):
        if self.Z <= 0 or self.theta_div <= 0 or self.A_r <= 0 or self.r_g <= 0:
            raise ValueError("Z, theta_div, A_r and r_g must be positive")
        if not (self.Z_hu > self.Z_hg >= 0):
            raise ValueError("need Z_hu > Z_hg >= 0")
        if self.sigma_theta_e < 0 or self.sigma_theta_o < 0:
            raise ValueError("angle SDs must be non-negative")
        if (self.zeta is None) == (self.h_l is None):
            raise ValueError("give exactly one of zeta or h_l")
        if self.h_l is not None and not (0 < self.h_l <= 1):
            raise ValueError("per-pass loss h_l must lie in (0, 1]")
        if self.zeta is not None and not (self.zeta >= 0 and math.exp(-self.Z * self.zeta) > 0):
            raise ValueError(f"zeta={self.zeta:g} must be >= 0 and leave a per-pass loss "
                             "exp(-Z zeta) above 0")
        try:   # the profile's wind term, which grows with height, at the top
            wind_term = _wind_weight(self.wind_v) * (1e-5 * self.Z_hu) ** 10
        except OverflowError:
            wind_term = math.inf
        if not math.isfinite(wind_term):
            raise ValueError(f"the Cn2 profile overflows at wind_v={self.wind_v:g}, "
                             f"Z_hu={self.Z_hu:g}")
        if self.P_t <= 0 or self.R_pd <= 0 or self.sigma_n2 <= 0 or self.gamma_th < 0:
            raise ValueError("P_t, R_pd, sigma_n2 must be positive; gamma_th >= 0")
        w_z = self.theta_div * self.Z
        # Plane-wave reading of the aperture integral needs A_r << beam area.
        if self.A_r > 0.01 * math.pi * w_z ** 2 / 2:
            warnings.warn(
                f"A_r={self.A_r:g} m^2 is not small against the beam area "
                f"(w_z={w_z:g} m); the plane-wave pointing loss is inaccurate",
                stacklevel=2,
            )

    def with_(self, **kwargs) -> "LinkConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class TurbulenceStats:
    sigma_R2: float                # Rytov variance
    sigma_L2: float                # log-normal parameter, sigma_R2 / 4
    alpha: float                   # large-scale eddy count
    beta: float                    # small-scale eddy count
    regime: Regime

    def __post_init__(self):
        if self.sigma_R2 < 0:
            raise ValueError("sigma_R2 must be non-negative")


def _wind_weight(wind_v: float) -> float:
    """Weight of the wind-driven term of `cn2_profile`."""
    return 0.00594 * (wind_v / 27.0) ** 2


def cn2_profile(Z_h, cn2_0: float, wind_v: float):
    """Altitude profile of the refractive-index structure parameter.

    Three-term Hufnagel-Valley-style sum: a high-altitude wind-driven
    term, a fixed stratospheric term and the ground term decaying on a
    100 m scale.
    """
    Z_h = np.asarray(Z_h, dtype=float)
    out = (
        _wind_weight(wind_v) * (1e-5 * Z_h) ** 10 * np.exp(-Z_h / 1000.0)
        + 2.7e-16 * np.exp(-Z_h / 1500.0)
        + cn2_0 * np.exp(-Z_h / 100.0)
    )
    return float(out) if out.ndim == 0 else out


# distinct (Z_hg, Z_hu, cn2_0, wind_v) path integrals kept per process
_PATH_INTEGRAL_CACHE = 256


@functools.lru_cache(maxsize=_PATH_INTEGRAL_CACHE)
def _path_integral(Z_hg: float, Z_hu: float, cn2_0: float, wind_v: float) -> float:
    """Integral of Cn^2 times the (5/6)-power kernel between the node heights."""
    Z_hd = Z_hu - Z_hg

    def integrand(z_h):
        x = z_h - Z_hg
        return cn2_profile(z_h, cn2_0, wind_v) * (1.0 - x / Z_hd) ** (5.0 / 6.0) * x ** (5.0 / 6.0)

    val, err = quad(integrand, Z_hg, Z_hu, epsabs=0.0, epsrel=1e-9, limit=400)
    return val


def rytov_variance(cfg: LinkConfig) -> float:
    """Rytov variance of one slant pass between the node heights.

    Evaluates the path integral of Cn^2 weighted by the (5/6)-power
    propagation kernel.  The prefactor 9 belongs to the model family
    implemented here; the common textbook plane-wave convention uses
    2.25 instead, so values differ by a constant across conventions.
    The path integral reads only (Z_hg, Z_hu, cn2_0, wind_v) and is
    memoized on them per process, so sweeps over Z, the wavelength, the
    divergence, the jitter or the power integrate once per profile.
    """
    Z_hd = cfg.Z_hu - cfg.Z_hg
    if Z_hd <= 0:
        raise DegenerateGeometryError("Z_hu must exceed Z_hg")
    val = _path_integral(cfg.Z_hg, cfg.Z_hu, cfg.cn2_0, cfg.wind_v)
    pref = 9.0 * (2.0 * math.pi / cfg.wavelength) ** (7.0 / 6.0) * (cfg.Z / Z_hd) ** (11.0 / 6.0)
    return pref * val


def gg_params(sigma_R2: float) -> tuple[float, float]:
    """Gamma-Gamma shape parameters (alpha, beta) for plane-wave scintillation.

    Standard Andrews & Phillips expressions; both diverge as the Rytov
    variance vanishes and decrease toward saturation as it grows.
    """
    if sigma_R2 <= 0:
        raise ValueError("gg_params requires sigma_R2 > 0")
    s = float(sigma_R2)
    alpha = 1.0 / math.expm1(0.49 * s / (1.0 + 1.11 * s ** 1.2) ** (7.0 / 6.0))
    beta = 1.0 / math.expm1(0.51 * s / (1.0 + 0.69 * s ** 1.2) ** (5.0 / 6.0))
    return alpha, beta


def turbulence_stats(cfg: LinkConfig, regime: Regime | str | None = None) -> TurbulenceStats:
    """Compute per-pass turbulence statistics and classify the regime:
    weak iff the Rytov variance is below 1, unless `regime` is given."""
    s_r2 = rytov_variance(cfg)
    s_l2 = s_r2 / 4.0
    alpha, beta = gg_params(s_r2) if s_r2 > 0 else (math.inf, math.inf)
    if regime is not None:
        reg = Regime(regime) if not isinstance(regime, Regime) else regime
    else:
        reg = Regime.WEAK_TO_MODERATE if s_r2 < 1.0 else Regime.MODERATE_TO_STRONG
    return TurbulenceStats(s_r2, s_l2, alpha, beta, reg)


def beer_lambert(cfg: LinkConfig) -> float:
    """Per-pass atmospheric attenuation; both directions are identical."""
    if cfg.h_l is not None:
        return cfg.h_l
    return math.exp(-cfg.Z * cfg.zeta)


def beamwidth(cfg: LinkConfig) -> float:
    """Beam radius at the far end, w_z = theta_div * Z."""
    return cfg.theta_div * cfg.Z


def pointing_loss_approx(cfg: LinkConfig, d_px, d_py):
    """Collected-power fraction at the retroreflector, plane-wave reading.

    (2 A_r / (pi w_z^2)) exp(-2 d_p^2 / w_z^2) for displacement
    (d_px, d_py) of the beam center from the aperture center, computed in
    place on one working array; the displacements are never written.
    """
    w_z = beamwidth(cfg)
    out = np.square(d_px, out=np.empty(np.shape(d_px)), dtype=float)
    out += np.square(d_py, dtype=float)
    out *= -2.0
    out /= w_z ** 2
    np.exp(out, out=out)
    out *= 2.0 * cfg.A_r / (math.pi * w_z ** 2)
    return float(out) if out.ndim == 0 else out


def pointing_exponent(cfg: LinkConfig) -> float:
    """Power-law exponent K = w_z^2 / (Z^2 sigma_theta_e^2) of the pointing
    factor, whose CDF is (h / a0)^K; it needs tracking jitter."""
    if cfg.sigma_theta_e == 0:
        raise ValueError("the closed forms need tracking jitter sigma_theta_e > 0")
    return beamwidth(cfg) ** 2 / (cfg.Z ** 2 * cfg.sigma_theta_e ** 2)


def geometric_loss_gs(cfg: LinkConfig) -> float:
    """Collected-power fraction at the ground aperture on the return pass."""
    return 2.0 * cfg.r_g ** 2 / (cfg.Z ** 2 * cfg.theta_div ** 2)


def h_constant(cfg: LinkConfig) -> float:
    """Deterministic part of the channel: both passes' attenuation and the
    ground-station geometric loss."""
    hl = beer_lambert(cfg)
    return hl * hl * geometric_loss_gs(cfg)


def upsilon_1(cfg: LinkConfig) -> float:
    """SNR scale factor: instantaneous SNR = upsilon_1 * h^2."""
    return 2.0 * cfg.R_pd ** 2 * cfg.P_t ** 2 / cfg.sigma_n2


class SquareLawModel:
    """SNR statistics of a channel model under gamma = upsilon_1 h^2.

    A model supplies `pdf_h`, `cdf_h` and `upsilon_1`; the SNR density,
    the SNR CDF and the outage probability are those statistics carried
    through the square-law map, the same in every fading regime.
    """

    def pdf_snr(self, gamma):
        """SNR density f_h(sqrt(gamma/upsilon_1)) / (2 sqrt(upsilon_1 gamma))."""
        return at_positive(gamma, lambda g: self.pdf_h(np.sqrt(g / self.upsilon_1))
                           / (2.0 * np.sqrt(self.upsilon_1 * g)))

    def cdf_snr(self, gamma):
        """SNR CDF, equal to cdf_h(sqrt(gamma/upsilon_1))."""
        return self.cdf_h(np.sqrt(np.maximum(gamma, 0.0) / self.upsilon_1))

    def outage(self, gamma_th: float) -> float:
        """Probability that the instantaneous SNR falls below gamma_th."""
        return float(self.outage_at(gamma_th, self.upsilon_1))

    def outage_at(self, gamma_th: float, upsilon_1):
        """Outage at gamma_th for each SNR scale in `upsilon_1`:
        cdf_h(sqrt(gamma_th / upsilon_1)).  P_t moves a link only through
        upsilon_1, so one model's fading statistics serve a whole
        transmit-power curve in one `cdf_h` call."""
        if gamma_th < 0:
            raise ValueError("gamma_th must be non-negative")
        if gamma_th == 0:
            return np.zeros(np.shape(upsilon_1))
        return self.cdf_h(np.sqrt(gamma_th / np.asarray(upsilon_1, dtype=float)))
