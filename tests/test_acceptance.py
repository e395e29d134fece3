"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line with the measured
numbers.  Criteria 1, 2 and the stated-truncation part of criterion 5
compare against published tables/claims that are internally inconsistent
with the published generative model; those tests implement the stated
check faithfully and report the measured outcome (see the per-test
docstrings and the decisions log outside the package).

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest
from scipy import special as sp

from mrrlink.channel import LinkConfig, turbulence_stats, upsilon_1
from mrrlink.experiments import heatmap, optimize_divergence
from mrrlink.montecarlo import SimPlan, draw_channel, mc_ber
from mrrlink.mrr import (
    _MOM_MU,
    _MOM_SD,
    _MOM_SIGMA_DEG,
    TABLE_SECTORS,
    fit_sector_model,
    lognormal_hmrr_pdf,
    model_moments,
    mrr_moments,
    sample_hmrr,
    sector_table,
)
from mrrlink.specfun import MeijerGSpec, meijer_g, q_function
from mrrlink.strong import (
    ber_strong,
    cdf_h_strong,
    pdf_h_strong,
    pdf_h_strong_simple,
    strong_constants,
)
from mrrlink.weak import ber_weak, cdf_h_weak, weak_constants

DEG = math.pi / 180.0
DESK_SAMPLES = 1_000_000
TABLE_SAMPLES = 5_000_000


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def dbm(p):
    return 10.0 ** (p / 10.0) / 1000.0


# ----------------------------------------------------------------------
# shared Monte-Carlo products
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig7_cfg():
    def make(deg):
        return LinkConfig(Z=1000.0, theta_div=0.4e-3, sigma_theta_e=100e-6,
                          sigma_theta_o=deg * DEG, cn2_0=5e-15)
    return make


@pytest.fixture(scope="module")
def fig8_cfg():
    def make(deg):
        return LinkConfig(Z=1000.0, theta_div=0.4e-3, sigma_theta_e=90e-6,
                          sigma_theta_o=deg * DEG, cn2_0=5e-14)
    return make


def _l1_distance(samples, cdf_fn, bins=80):
    """L1 distance between the histogram density and the bin-averaged
    analytic density (from CDF differences), plus any unbinned tail."""
    edges = np.linspace(0.0, float(samples.max()) * 1.001, bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    widths = np.diff(edges)
    emp = counts / len(samples) / widths
    F = np.asarray(cdf_fn(edges))
    F[0] = 0.0
    ana = np.diff(F) / widths
    return float(np.sum(np.abs(emp - ana) * widths) + max(0.0, 1.0 - F[-1]))


def _ks_distance(samples, cdf_fn, stride=200):
    xs = np.sort(samples)
    probe = xs[::stride]
    ecdf = np.searchsorted(xs, probe, side="right") / len(xs)
    return float(np.abs(np.asarray(cdf_fn(probe)) - ecdf).max())


# ----------------------------------------------------------------------
# criterion 1 — reflection-moment table reproduction
# ----------------------------------------------------------------------

def test_c01_reflection_moment_table():
    """Sample the printed generative model (three independent normal
    tilts, factors 1 - tan|theta|) at 5e6 per row and compare against the
    published moment table at +/-0.01 (mean) and +/-0.005 (SD).

    Measured outcome: the SD column reproduces, but the printed means
    exceed the model's from 2 deg upward (gap up to 0.036).  No
    symmetric tilt distribution matches both printed columns at once, so
    the gap is an inconsistency between the published table and its own
    stated procedure, not a sampler artifact.  The check is implemented
    as stated and reports the measured gaps.
    """
    t0 = time.time()
    rows = []
    ok = True
    for i, deg in enumerate(_MOM_SIGMA_DEG):
        s = sample_hmrr(deg * DEG, TABLE_SAMPLES, seed=1000 + i)
        mu, sd = float(s.mean()), float(s.std())
        dmu = mu - _MOM_MU[i]
        dsd = sd - _MOM_SD[i]
        row_ok = abs(dmu) <= 0.01 and abs(dsd) <= 0.005
        ok &= row_ok
        rows.append(f"{deg:.0f}deg dmu={dmu:+.4f} dsd={dsd:+.4f} {'ok' if row_ok else 'X'}")
    elapsed = time.time() - t0
    ok &= elapsed <= 60.0
    report("1", ok, f"runtime {elapsed:.0f}s; " + "; ".join(rows))
    assert ok, "published moment table is not reproduced by its stated model"


# ----------------------------------------------------------------------
# criterion 2 — sector-coefficient table shape
# ----------------------------------------------------------------------

def test_c02_sector_table_shape():
    """Fit the 8-sector density from 5e6 samples per jitter level and
    compare renormalized per-sector mass against the published columns,
    entry by entry at 10%.

    Measured outcome: 1 and 5 deg agree within 10%; the 11 deg column
    disagrees at the edge sectors (same table/model inconsistency as
    criterion 1, growing with jitter).
    """
    ok = True
    details = []
    for deg in (1.0, 5.0, 11.0):
        s = sample_hmrr(deg * DEG, TABLE_SAMPLES, seed=int(2000 + deg))
        model = fit_sector_model(s, 8)
        fitted_mass = model.B * np.diff(model.V)
        printed = TABLE_SECTORS[deg]
        printed_mass = printed / printed.sum()
        ratio = fitted_mass / printed_mass
        worst = float(np.max(np.abs(ratio - 1.0)))
        col_ok = worst <= 0.10
        ok &= col_ok
        details.append(f"{deg:.0f}deg worst-entry {worst * 100:.1f}% {'ok' if col_ok else 'X'}")
    report("2", ok, "; ".join(details))
    assert ok, "published sector table shape not reproduced at all jitter levels"


# ----------------------------------------------------------------------
# criterion 3 — weak-regime model validity
# ----------------------------------------------------------------------

def test_c03_weak_model_validity(fig7_cfg):
    """Channel-density L1 <= 0.05 and SNR-CDF KS <= 0.02 against 1e6
    simulated samples, at 2 and 8 deg orientation jitter.

    The analytic constants use the model's exact reflection moments
    (quadrature) so the comparison isolates the closed-form distribution
    from the published table's transcription gap.
    """
    ok = True
    details = []
    for deg in (2.0, 8.0):
        cfg = fig7_cfg(deg)
        stats = turbulence_stats(cfg)
        k = weak_constants(cfg, model_moments(cfg.sigma_theta_o), stats)
        h = draw_channel(SimPlan(cfg, n_samples=DESK_SAMPLES, seed=int(30 + deg)))
        g = upsilon_1(cfg) * h * h
        l1 = _l1_distance(h, lambda x: cdf_h_weak(x, k))
        ks = _ks_distance(g, k.cdf_snr)
        case_ok = l1 <= 0.05 and ks <= 0.02
        ok &= case_ok
        details.append(f"{deg:.0f}deg L1={l1:.4f} KS={ks:.4f} {'ok' if case_ok else 'X'}")
    report("3", ok, "; ".join(details))
    assert ok


# ----------------------------------------------------------------------
# criterion 4 — strong-regime model validity
# ----------------------------------------------------------------------

def test_c04a_strong_model_validity(fig8_cfg):
    """Sector-sum density vs Gamma-Gamma simulation, L1 <= 0.07 at 2 and
    8 deg orientation jitter (sectors fitted from the sampled reflection
    coefficient, self-consistent windows)."""
    ok = True
    details = []
    for deg in (2.0, 8.0):
        cfg = fig8_cfg(deg)
        stats = turbulence_stats(cfg, regime="strong")
        hm = sample_hmrr(cfg.sigma_theta_o, 2_000_000, seed=int(40 + deg))
        sectors = fit_sector_model(hm, 8)
        k = strong_constants(cfg, stats, sectors)
        h = draw_channel(SimPlan(cfg, n_samples=DESK_SAMPLES, seed=int(50 + deg),
                                 stats=stats))
        l1 = _l1_distance(h, lambda x: cdf_h_strong(x, k))
        case_ok = l1 <= 0.07
        ok &= case_ok
        details.append(f"{deg:.0f}deg L1={l1:.4f} {'ok' if case_ok else 'X'}")
    report("4a", ok, "; ".join(details))
    assert ok


def _central_band(k):
    # invert the analytic CDF at 1% and 99% by bisection
    top = k.sectors.V[-1] * 2.0 * k.A_r * k.h_c / (math.pi * k.w_z ** 2)

    def invert(p):
        lo, hi = top * 1e-6, top * 10
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            if cdf_h_strong(mid, k) < p:
                lo = mid
            else:
                hi = mid
        return mid

    return invert(0.01), invert(0.99)


def test_c04b_simplified_form_regime_boundary(fig8_cfg):
    """Small-jitter single-term density vs the sector sum: within 5%
    pointwise over the central 98% mass at 1 deg, and demonstrably worse
    (>10% somewhere) at 8 deg.

    Measured outcome: the 8-deg contrast holds overwhelmingly (>100%
    deviation), but at 1 deg the pointwise deviation is 1.3-5% over the
    central ~90% of the mass and touches ~10% at the 1%/99% band edges
    under both sector constructions (tabulated and fitted), so the
    stated 5%-everywhere tolerance is not met.  Implemented as stated;
    the printed profile documents where the 5% claim breaks.
    """
    ok = True
    details = []
    for deg, tol, expect_within in ((1.0, 0.05, True), (8.0, 0.10, False)):
        cfg = fig8_cfg(deg)
        stats = turbulence_stats(cfg, regime="strong")
        hm = sample_hmrr(cfg.sigma_theta_o, 2_000_000, seed=int(60 + deg))
        k = strong_constants(cfg, stats, fit_sector_model(hm, 8))
        lo, hi = _central_band(k)
        grid = np.geomspace(lo, hi, 25)
        full = pdf_h_strong(grid, k)
        simple = pdf_h_strong_simple(grid, k, h_c_reinstated=True)
        rel = np.abs(simple / full - 1.0)
        worst = float(np.max(rel))
        case_ok = (worst <= tol) if expect_within else (worst > tol)
        ok &= case_ok
        which = "within" if expect_within else "exceeds"
        profile = " ".join(f"{r * 100:.0f}" for r in rel[::6])
        details.append(f"{deg:.0f}deg max-dev {worst * 100:.1f}% [{profile}]% "
                       f"({which} {tol * 100:.0f}%) {'ok' if case_ok else 'X'}")
    report("4b", ok, "; ".join(details))
    assert ok


# ----------------------------------------------------------------------
# criterion 5 — BER consistency
# ----------------------------------------------------------------------

def _weak_ber_quadrature(k):
    from mrrlink.weak import _ber_weak_quadrature
    return _ber_weak_quadrature(k)


def test_c05a_weak_ber_stated_truncation():
    """Closed-form OOK error rate at the stated truncation (M=20,
    gamma_max=4) against quadrature of the error integral, 5% relative,
    tracking-jitter 100 urad / beam 0.3 m over 0..30 dBm.

    Measured outcome: the stated truncation discards the SNR > 4 part of
    the integral, which dominates once the knee SNR passes ~4 (transmit
    power above ~12 dBm here); the deviation grows to ~87% at 30 dBm.
    The identical series evaluated at (M=60, gamma_max=40) matches
    quadrature to 0.5% everywhere, so the gap is the stated truncation
    itself, not the implementation.
    """
    ok = True
    rows = []
    for p in range(0, 31, 3):
        cfg = LinkConfig(Z=1000.0, theta_div=0.3e-3, sigma_theta_e=100e-6,
                         sigma_theta_o=2 * DEG, cn2_0=5e-15, P_t=dbm(p))
        k = weak_constants(cfg, mrr_moments(cfg.sigma_theta_o), turbulence_stats(cfg))
        stated = ber_weak(k, M=20, gamma_max=4.0)
        oracle = _weak_ber_quadrature(k)
        converged = ber_weak(k, M=60, gamma_max=40.0)
        point_ok = abs(stated / oracle - 1.0) <= 0.05
        ok &= point_ok
        rows.append(f"{p}dBm {stated / oracle:.3f}/{converged / oracle:.3f}")
    report("5a", ok, "stated/converged vs quadrature ratio: " + " ".join(rows))
    assert ok, "stated truncation (M=20, gamma_max=4) is not within 5% of quadrature"


def test_c05b_strong_ber_closed_form():
    """Strong-regime closed form vs quadrature of the error integral,
    10% relative over 10..30 dBm."""
    cfg0 = LinkConfig(Z=1000.0, theta_div=0.4e-3, sigma_theta_e=100e-6,
                      sigma_theta_o=6 * DEG, cn2_0=5e-14)
    stats = turbulence_stats(cfg0, regime="strong")
    sectors = sector_table(cfg0.sigma_theta_o)
    # power-independent density grid for the oracle
    k0 = strong_constants(cfg0, stats, sectors)
    top = k0.sectors.V[-1] * 2.0 * k0.A_r * k0.h_c / (math.pi * k0.w_z ** 2)
    hgrid = np.geomspace(top * 3e-6, top * 30, 400)
    fgrid = pdf_h_strong(hgrid, k0)
    ok = True
    worst = 0.0
    for p in range(0, 31, 3):
        k = strong_constants(cfg0.with_(P_t=dbm(p)), stats, sectors)
        got = ber_strong(k)
        want = float(np.trapezoid(q_function(np.sqrt(k.upsilon_1) * hgrid) * fgrid, hgrid))
        rel = abs(got / want - 1.0)
        worst = max(worst, rel)
        ok &= rel <= 0.10
    report("5b", ok, f"closed form vs quadrature worst rel dev {worst * 100:.2f}% over 0..30 dBm")
    assert ok


def test_c05c_ber_vs_simulation():
    """Both closed forms against the simulated error rate, judged inside
    the Monte-Carlo 95% interval wherever the error rate resolves at
    desk scale (>= 1e-7 with margin at 1e6 samples).

    The weak form is evaluated at its converged truncation; the stated
    (M=20, gamma_max=4) variant fails this check wherever criterion 5a
    flags it, which criterion 5a already documents.
    """
    ok = True
    details = []
    # weak: fig-11 style
    for p in (0.0, 6.0, 12.0, 18.0, 24.0):
        cfg = LinkConfig(Z=1000.0, theta_div=0.3e-3, sigma_theta_e=100e-6,
                         sigma_theta_o=2 * DEG, cn2_0=5e-15, P_t=dbm(p))
        k = weak_constants(cfg, model_moments(cfg.sigma_theta_o), turbulence_stats(cfg))
        h = draw_channel(SimPlan(cfg, n_samples=DESK_SAMPLES, seed=int(70 + p)))
        g = upsilon_1(cfg) * h * h
        est = mc_ber(g)
        if est.value < 1e-7:
            details.append(f"weak@{p:.0f}dBm below floor")
            continue
        val = ber_weak(k, M=60, gamma_max=40.0)
        case_ok = est.ci_low * 0.9 <= val <= est.ci_high * 1.1
        ok &= case_ok
        details.append(f"weak@{p:.0f}dBm {val:.2e} in [{est.ci_low:.2e},{est.ci_high:.2e}] "
                       f"{'ok' if case_ok else 'X'}")
    # strong: fig-9 style
    for p in (6.0, 12.0, 18.0, 24.0, 30.0):
        cfg = LinkConfig(Z=1000.0, theta_div=0.4e-3, sigma_theta_e=100e-6,
                         sigma_theta_o=6 * DEG, cn2_0=5e-14, P_t=dbm(p))
        stats = turbulence_stats(cfg, regime="strong")
        hm = sample_hmrr(cfg.sigma_theta_o, 2_000_000, seed=int(80 + p))
        k = strong_constants(cfg, stats, fit_sector_model(hm, 8))
        h = draw_channel(SimPlan(cfg, n_samples=DESK_SAMPLES, seed=int(90 + p), stats=stats))
        g = upsilon_1(cfg) * h * h
        est = mc_ber(g)
        if est.value < 1e-7:
            details.append(f"strong@{p:.0f}dBm below floor")
            continue
        val = ber_strong(k)
        case_ok = est.ci_low * 0.9 <= val <= est.ci_high * 1.1
        ok &= case_ok
        details.append(f"strong@{p:.0f}dBm {val:.2e} in [{est.ci_low:.2e},{est.ci_high:.2e}] "
                       f"{'ok' if case_ok else 'X'}")
    report("5c", ok, "; ".join(details))
    assert ok


# ----------------------------------------------------------------------
# criterion 6 — 3 dB instability cost at target error rate
# ----------------------------------------------------------------------

def test_c06_three_db_claim():
    """Extra transmit power to hold 1e-6 error rate when orientation
    jitter grows from 2 to 6 deg, at 100 urad tracking jitter: 3 +/- 1 dB.

    Measured outcome: ~0.9 dB, robust across every faithful variant
    (converged or stated-truncation series, tabulated or model moments,
    weak or strong machinery, several turbulence levels: 0.78-1.2 dB).
    The published 3 dB figure is reproduced (2.8 dB) only if the moment
    table's SD row is misread as variance when building the log-domain
    constants, which the table's own column label and the sampler rule out.
    The check
    is implemented as stated and reports the measured shift.
    """
    def power_at_target(sigma_deg, M, gmax, target=1e-6):
        def ber_at(p_dbm):
            cfg = LinkConfig(Z=1000.0, theta_div=0.3e-3, sigma_theta_e=100e-6,
                             sigma_theta_o=sigma_deg * DEG, cn2_0=5e-15, P_t=dbm(p_dbm))
            k = weak_constants(cfg, mrr_moments(cfg.sigma_theta_o), turbulence_stats(cfg))
            return ber_weak(k, M=M, gamma_max=gmax)

        lo, hi = 0.0, 30.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if ber_at(mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    p2 = power_at_target(2.0, 60, 40.0)
    p6 = power_at_target(6.0, 60, 40.0)
    shift = p6 - p2
    shift_stated = (power_at_target(6.0, 20, 4.0) - power_at_target(2.0, 20, 4.0))
    ok = abs(shift - 3.0) <= 1.0
    report("6", ok, f"1e-6 crossing: {p2:.2f} dBm at 2deg, {p6:.2f} dBm at 6deg, "
                    f"shift {shift:.2f} dB converged / {shift_stated:.2f} dB at stated "
                    f"truncation (target 3 +/- 1)")
    assert ok


# ----------------------------------------------------------------------
# criterion 7 — outage ordering in turbulence and aperture
# ----------------------------------------------------------------------

def test_c07a_outage_ordering_in_turbulence():
    """Outage strictly increases with the ground turbulence level at
    every power point of the 0..30 dBm sweep.

    Measured outcome: the ordering holds wherever the curves are out of
    saturation (outage < ~0.8, i.e. the bottom five decades of the
    sweep) but inverts at low power: the mild-turbulence channel
    (Cn2=1e-14 gives near-deterministic fading, alpha~11, beta~10) has a
    steeper outage transition, so below the threshold-crossing power its
    outage saturates toward 1 faster than the heavy-tailed strong
    curves, which still occasionally ride above threshold.  The
    inversion is intrinsic to the model family; the strictly-at-every-
    point check is implemented as stated and reports where it crosses.
    """
    powers = np.linspace(0, 30, 16)
    curves = []
    for cn2 in (1e-14, 5e-14, 1e-13):
        cfg0 = LinkConfig(Z=1000.0, theta_div=0.4e-3, sigma_theta_e=100e-6,
                          sigma_theta_o=6 * DEG, cn2_0=cn2)
        stats = turbulence_stats(cfg0, regime="strong")
        sectors = sector_table(cfg0.sigma_theta_o)
        curves.append([strong_constants(cfg0.with_(P_t=dbm(p)), stats, sectors)
                       .outage(cfg0.gamma_th) for p in powers])
    ordered = [all(curves[i][j] < curves[i + 1][j] for i in range(2)) for j in range(len(powers))]
    first_ok = next((powers[j] for j in range(len(powers)) if all(ordered[j:])), None)
    tail = f"everywhere from {first_ok:.0f} dBm up" if first_ok is not None else "nowhere"
    ok = all(ordered)
    report("7a", ok, f"turbulence ordering holds at {sum(ordered)}/16 points ({tail}; "
                     "the saturated low-power region inverts)")
    assert ok, "strict turbulence ordering fails in the saturated low-power region"


def test_c07b_outage_ordering_in_aperture():
    """Outage strictly decreases with retroreflector area at every power
    point (pure link-budget shift, same fading on all curves)."""
    powers = np.linspace(0, 30, 16)
    curves = []
    for ar in (0.5e-4, 1e-4, 2e-4, 4e-4):
        cfg0 = LinkConfig(Z=1000.0, theta_div=0.4e-3, sigma_theta_e=100e-6,
                          sigma_theta_o=6 * DEG, cn2_0=5e-14, A_r=ar)
        stats = turbulence_stats(cfg0, regime="strong")
        sectors = sector_table(cfg0.sigma_theta_o)
        curves.append([strong_constants(cfg0.with_(P_t=dbm(p)), stats, sectors)
                       .outage(cfg0.gamma_th) for p in powers])
    ok = all(a > b for row_a, row_b in zip(curves, curves[1:])
             for a, b in zip(row_a, row_b))
    report("7b", ok, "aperture ordering strict at all 16 power points: "
                     f"{'yes' if ok else 'no'}")
    assert ok


# ----------------------------------------------------------------------
# criterion 8 — divergence optimizer and jitter/beamwidth map
# ----------------------------------------------------------------------

def test_c08_optimizer_claims():
    """Interior optimal divergence for each link length; the per-jitter
    optimal beamwidth from the map never decreases with jitter."""
    ok = True
    thetas = {}
    for z in (800.0, 1000.0, 1200.0, 1400.0):
        cfg = LinkConfig(Z=z, Z_hu=z / 10 + 2, theta_div=0.4e-3, P_t=0.1,
                         sigma_theta_o=5 * DEG, sigma_theta_e=100e-6, cn2_0=5e-15)
        res = optimize_divergence(cfg, objective="outage", regime="weak")
        ok &= res.interior
        thetas[z] = res.theta_opt
    distinct = len({round(v, 5) for v in thetas.values()}) > 1
    ok &= distinct

    cfg = LinkConfig(Z=1000.0, theta_div=0.4e-3, P_t=dbm(25.0),
                     sigma_theta_o=5 * DEG, sigma_theta_e=100e-6, cn2_0=5e-15)
    se_grid = np.linspace(50e-6, 400e-6, 6)
    wz_grid = np.linspace(0.1, 2.0, 24)
    mat, _ = heatmap(cfg, se_grid, wz_grid, metric="outage", regime="weak")
    ridge = wz_grid[np.argmin(mat, axis=1)]
    ridge_ok = all(b >= a - 1e-12 for a, b in zip(ridge, ridge[1:]))
    ok &= ridge_ok
    report("8", ok,
           "optima " + " ".join(f"Z={z:.0f}:{t * 1e3:.3f}mrad" for z, t in thetas.items())
           + f"; ridge {np.array2string(ridge, precision=2)} {'ok' if ridge_ok else 'X'}")
    assert ok


# ----------------------------------------------------------------------
# criterion 9 — special-function suite
# ----------------------------------------------------------------------

def test_c09_special_function_suite():
    """Meijer-G identities at 1e-8 relative over their grids; the
    moment-matched log-normal density exact to quadrature tolerance."""
    from scipy.integrate import quad

    worst = 0.0
    spec_exp = MeijerGSpec(1, 0, (), (0.0,))
    for z in np.geomspace(1e-3, 50, 20):
        worst = max(worst, abs(meijer_g(spec_exp, float(z)) / math.exp(-z) - 1.0))
    for nu in (0.0, 0.5, 1.0, 2.3):
        spec_k = MeijerGSpec(2, 0, (), (nu / 2, -nu / 2))
        for x in np.geomspace(0.1, 14, 10):
            want = 2 * sp.kv(nu, float(x))
            worst = max(worst, abs(meijer_g(spec_k, float(x * x / 4)) / want - 1.0))
    spec_q = MeijerGSpec(2, 0, (1.0,), (0.0, 0.5))
    for x in np.geomspace(0.05, 10, 10):
        want = 2 * math.sqrt(math.pi) * float(q_function(x))
        worst = max(worst, abs(meijer_g(spec_q, float(x * x / 2)) / want - 1.0))
    identities_ok = worst <= 1e-8

    mu, sd = 0.83, 0.083
    pts = [mu - 6 * sd, mu, mu + 6 * sd]
    total, _ = quad(lambda h: lognormal_hmrr_pdf(h, mu, sd), 1e-9, 10, points=pts, limit=300)
    mean, _ = quad(lambda h: h * lognormal_hmrr_pdf(h, mu, sd), 1e-9, 10, points=pts, limit=300)
    var, _ = quad(lambda h: (h - mu) ** 2 * lognormal_hmrr_pdf(h, mu, sd), 1e-9, 10,
                  points=pts, limit=300)
    moments_ok = (abs(total - 1) <= 1e-6 and abs(mean - mu) <= 1e-6
                  and abs(var - sd ** 2) <= 1e-6)
    ok = identities_ok and moments_ok
    report("9", ok, f"identity worst rel {worst:.2e} (target 1e-8); "
                    f"log-normal moments exact to 1e-6: {'ok' if moments_ok else 'X'}")
    assert ok


# ----------------------------------------------------------------------
# criterion 10 — determinism across worker counts
# ----------------------------------------------------------------------

def test_c10_determinism(tmp_path):
    """Re-running one experiment with 1, 4 and 8 workers yields
    byte-identical CSV and sidecar files."""
    from mrrlink.cli import main

    spec = tmp_path / "det.cfg"
    spec.write_text("Z = 1000 m\ntheta_div = 0.4 mrad\nsigma_theta_e = 100 urad\n"
                    "sigma_theta_o = 5 deg\nCn2 = 5e-15\nsweep = Pt\ngrid = 5, 15, 25 dBm\n"
                    "metrics = outage, ber\nengines = analytic, montecarlo\nregime = weak\n"
                    "samples = 120000\nseed = 99\n")
    blobs = {}
    for workers in (1, 4, 8):
        path = tmp_path / f"det{workers}.csv"
        main(["run", str(spec), "--workers", str(workers), "--out", str(path)])
        blobs[workers] = (path.read_bytes(), (tmp_path / f"det{workers}.csv.json").read_bytes())
    csv_ok = blobs[1][0] == blobs[4][0] == blobs[8][0]
    # sidecars differ only in nothing: they carry no worker count
    side_ok = blobs[1][1] == blobs[4][1] == blobs[8][1]
    ok = csv_ok and side_ok
    report("10", ok, f"CSV identical: {csv_ok}; sidecar identical: {side_ok}")
    assert ok
