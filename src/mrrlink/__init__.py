"""Channel modeling toolkit for retroreflector-based UAV-to-ground
free-space optical links.

The double-pass channel (interrogator beam up, modulated retroreflection
back) is the product of deterministic losses, two independent fading
passes, a pointing factor driven by the ground tracker's angular jitter,
and the retroreflector's orientation-dependent reflection coefficient.
The package provides closed-form channel statistics in both fading
regimes, with the SNR statistics derived once through the square-law
map, a reproducible Monte-Carlo engine that serves as their oracle, and
a sweep/optimization layer reproducing the reference figures.
"""

__version__ = "0.1.0"

from .channel import (
    LinkConfig,
    Regime,
    SquareLawModel,
    TurbulenceStats,
    beamwidth,
    beer_lambert,
    cn2_profile,
    geometric_loss_gs,
    gg_params,
    h_constant,
    pointing_exponent,
    pointing_loss_approx,
    rytov_variance,
    turbulence_stats,
    upsilon_1,
)
from .experiments import (
    ExperimentSpec,
    OptResult,
    heatmap,
    optimize_divergence,
    run_experiment,
    run_experiments,
)
from .montecarlo import (
    FadingModel,
    MCEstimate,
    SimPlan,
    draw_channel,
    empirical_pdf,
    mc_ber,
    mc_outage,
    sample_channel,
)
from .mrr import (
    SectorModel,
    fit_sector_model,
    lognormal_hmrr_pdf,
    mrr_moments,
    sample_hmrr,
    sector_table,
)
from .specfun import MeijerGSpec, meijer_g, q_function
from .strong import (
    StrongModelConstants,
    ber_strong,
    cdf_h_strong,
    cdf_h_strong_simple,
    pdf_h_strong,
    pdf_h_strong_simple,
    strong_constants,
)
from .weak import (
    WeakModelConstants,
    ber_weak,
    cdf_h_weak,
    pdf_h_weak,
    weak_constants,
)
