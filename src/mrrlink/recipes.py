"""Named experiment recipes reproducing the study's figures at desk scale.

Where a figure caption leaves a parameter open, the recipe fixes it to a
documented default (see README, "Recipe defaults"); those choices are
ours, not the study's.
"""

from __future__ import annotations

import math
import numpy as np

from .channel import LinkConfig
from .experiments import ExperimentSpec, output_row
from .montecarlo import empirical_pdf
from .mrr import _MIN_MOMENT_SAMPLES, hmrr_from_normals, lognormal_hmrr_pdf, tilt_normals

__all__ = ["RECIPES", "build_recipe", "recipe_names"]

_DEG = math.pi / 180.0

# Shared defaults: weak-range and strong-range ground turbulence levels.
_CN2_WEAK = 5e-15
_CN2_STRONG = 5e-14


def _pt_grid(n: int = 16) -> tuple:
    return tuple(10 ** (p / 10.0) / 1000.0 for p in np.linspace(0.0, 30.0, n))


def fig7(base: LinkConfig) -> list[ExperimentSpec]:
    """Weak-regime model validity: channel/SNR pdf+cdf vs simulation."""
    specs = []
    for deg in (2.0, 8.0):
        cfg = base.with_(Z=1000.0, sigma_theta_e=100e-6, cn2_0=_CN2_WEAK,
                         sigma_theta_o=deg * _DEG)
        specs.append(ExperimentSpec(
            base=cfg, sweep_axis="Pt", grid=(cfg.P_t,),
            metrics=("pdf_h", "cdf_h", "pdf_snr", "cdf_snr"),
            engines=("analytic", "montecarlo"), regime="weak",
            label=f"sigma_o={deg:g}deg"))
    return specs


def fig8(base: LinkConfig) -> list[ExperimentSpec]:
    """Strong-regime model validity: channel pdf vs simulation."""
    specs = []
    for deg in (2.0, 8.0):
        cfg = base.with_(Z=1000.0, sigma_theta_e=90e-6, cn2_0=_CN2_STRONG,
                         sigma_theta_o=deg * _DEG)
        specs.append(ExperimentSpec(
            base=cfg, sweep_axis="Pt", grid=(cfg.P_t,),
            metrics=("pdf_h", "cdf_h"), engines=("analytic", "montecarlo"),
            regime="strong", label=f"sigma_o={deg:g}deg"))
    return specs


def fig9(base: LinkConfig) -> list[ExperimentSpec]:
    """Outage vs transmit power for three turbulence strengths."""
    specs = []
    for cn2 in (1e-14, 5e-14, 1e-13):
        cfg = base.with_(Z=1000.0, sigma_theta_o=6.0 * _DEG, sigma_theta_e=100e-6,
                         cn2_0=cn2)
        specs.append(ExperimentSpec(
            base=cfg, sweep_axis="Pt", grid=_pt_grid(), metrics=("outage",),
            engines=("analytic",), regime="strong", label=f"Cn2={cn2:g}"))
    return specs


def fig10(base: LinkConfig) -> list[ExperimentSpec]:
    """Outage vs transmit power for four retroreflector areas."""
    specs = []
    for ar_cm2 in (0.5, 1.0, 2.0, 4.0):
        cfg = base.with_(Z=1000.0, theta_div=0.4e-3, sigma_theta_o=6.0 * _DEG,
                         sigma_theta_e=100e-6, cn2_0=_CN2_STRONG, A_r=ar_cm2 * 1e-4)
        specs.append(ExperimentSpec(
            base=cfg, sweep_axis="Pt", grid=_pt_grid(), metrics=("outage",),
            engines=("analytic",), regime="strong", label=f"A_r={ar_cm2:g}cm2"))
    return specs


def fig11(base: LinkConfig) -> list[ExperimentSpec]:
    """BER vs transmit power for tracking-jitter / orientation-jitter pairs."""
    specs = []
    for se_urad, so_deg in ((100.0, 2.0), (100.0, 6.0), (200.0, 2.0)):
        cfg = base.with_(Z=1000.0, theta_div=0.3e-3, cn2_0=_CN2_WEAK,
                         sigma_theta_e=se_urad * 1e-6, sigma_theta_o=so_deg * _DEG)
        specs.append(ExperimentSpec(
            base=cfg, sweep_axis="Pt", grid=_pt_grid(), metrics=("ber",),
            engines=("analytic",), regime="weak",
            label=f"sigma_e={se_urad:g}urad,sigma_o={so_deg:g}deg"))
    return specs


def fig12(base: LinkConfig) -> list[ExperimentSpec]:
    """BER vs transmit power for four link lengths."""
    specs = []
    for z in (800.0, 1000.0, 1200.0, 1400.0):
        cfg = base.with_(Z=z, Z_hu=z / 10.0 + 2.0, theta_div=0.4e-3, A_r=1e-4,
                         cn2_0=_CN2_WEAK, sigma_theta_e=100e-6, sigma_theta_o=5.0 * _DEG)
        specs.append(ExperimentSpec(
            base=cfg, sweep_axis="Pt", grid=_pt_grid(), metrics=("ber",),
            engines=("analytic",), regime="weak", label=f"Z={z:g}m"))
    return specs


def fig14(base: LinkConfig) -> list[ExperimentSpec]:
    """Outage vs divergence angle for four link lengths."""
    grid = tuple(np.linspace(0.1e-3, 2e-3, 39))
    specs = []
    for z in (800.0, 1000.0, 1200.0, 1400.0):
        cfg = base.with_(Z=z, Z_hu=z / 10.0 + 2.0, P_t=0.1, sigma_theta_o=5.0 * _DEG,
                         sigma_theta_e=100e-6, cn2_0=_CN2_WEAK)
        specs.append(ExperimentSpec(
            base=cfg, sweep_axis="theta_div", grid=grid, metrics=("outage",),
            engines=("analytic",), regime="weak", label=f"Z={z:g}m"))
    return specs


def fig15(base: LinkConfig) -> list[ExperimentSpec]:
    """Outage vs tracking jitter, one sweep of beamwidth per jitter value."""
    wz_grid = tuple(np.linspace(0.1, 2.0, 24))
    specs = []
    for se in np.linspace(50e-6, 400e-6, 8):
        cfg = base.with_(Z=1000.0, P_t=10 ** 2.5 / 1000.0, sigma_theta_o=5.0 * _DEG,
                         sigma_theta_e=float(se), cn2_0=_CN2_WEAK)
        specs.append(ExperimentSpec(
            base=cfg, sweep_axis="w_z", grid=wz_grid, metrics=("outage",),
            engines=("analytic",), regime="weak", label=f"sigma_e={se*1e6:.0f}urad"))
    return specs


def build_fig13_rows(seed: int = 0, n_samples: int = 1_000_000) -> list[dict]:
    """Reflection-coefficient density vs its log-normal stand-in.

    Not a link sweep: histogram of the sampled coefficient against the
    moment-matched log-normal, at three jitter levels.  Emitted in the
    standard row schema (engine montecarlo = histogram, analytic =
    log-normal density).  The three jitters share one set of tilt normals.
    """
    if n_samples < _MIN_MOMENT_SAMPLES:
        raise ValueError(f"n_samples must be at least {_MIN_MOMENT_SAMPLES} for the "
                         f"log-normal fit, got {n_samples}")
    z = tilt_normals(n_samples, seed)
    rows = []
    for deg in (1.0, 5.0, 10.0):
        s = hmrr_from_normals(deg * _DEG, z)
        dens, edges = empirical_pdf(s, bins=60)
        centers = 0.5 * (edges[:-1] + edges[1:])
        mu, sd = float(s.mean()), float(s.std())
        ana = lognormal_hmrr_pdf(centers, mu, sd)
        label = f"sigma_o={deg:g}deg"
        for engine, vals in (("montecarlo", dens), ("analytic", ana)):
            rows += [output_row("sigma_theta_o", deg * _DEG, label, "pdf_h", engine,
                                float(x), float(v)) for x, v in zip(centers, vals)]
    return rows


RECIPES = {
    "fig7": fig7, "fig8": fig8, "fig9": fig9, "fig10": fig10,
    "fig11": fig11, "fig12": fig12, "fig14": fig14, "fig15": fig15,
}

# recipes that emit rows directly rather than building link sweeps
SPECIAL_RECIPES = ("fig13",)


def recipe_names() -> list[str]:
    return sorted([*RECIPES, *SPECIAL_RECIPES])


def build_recipe(name: str, base: LinkConfig | None = None) -> list[ExperimentSpec]:
    """The curves of a link recipe, at seed 0 and 1e6 samples per point."""
    if name not in RECIPES:
        raise KeyError(f"unknown recipe {name!r}; available: {', '.join(recipe_names())}")
    return RECIPES[name](base if base is not None else LinkConfig())
