"""Config-driven experiment runs: sweeps, the divergence optimizer and
the tracking-jitter/beamwidth outage map.

`_constants_for` is the one place that decides the fading regime: it
returns the weak or strong model constants, and every analytic metric is
then a call through that model's `pdf_h`/`cdf_h`/`pdf_snr`/`cdf_snr`/
`outage`/`ber`.  The Monte-Carlo side draws its fading from the same
turbulence statistics.

Rows are emitted in grid order and all randomness is seed-keyed, so
output files are byte-identical from run to run.  Each grid point's
link, turbulence statistics and model constants are built once
(`_point_model`); the statistics feed both engines.  Every set of
analytic outages or BERs (a sweep curve, a heatmap, an optimizer step) is
one `_metric_values` call, which batches the strong models in
`strong.metric_batch`.  Every Monte-Carlo channel of a sweep is drawn in
`_draw_group`: the curves that share (seed, n_samples) are one
`draw_channel` pass, made just before the first of them is evaluated, and
each curve's h is dropped after its rows.  P_t reaches the model only
through upsilon_1 (gamma = upsilon_1 h^2), so the grid points of a
transmit-power curve share one h; every other axis moves h, so each of
its grid points has a row of its own in the pass.  A curve that asks for
outage and BER alone keeps no h: each of its grid points sums its SNR
block by block as the pass goes (`montecarlo.SnrSums`).  A grid point
records each model failure (`MODEL_FAILURES`) and the sweep goes on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channel import LinkConfig, Regime, beamwidth, h_constant, turbulence_stats, upsilon_1
from .errors import MODEL_FAILURES, NonConvergentError
from .montecarlo import (
    SimPlan,
    SnrSums,
    draw_channel,
    snr_from_channel,
    sorted_cdf,
    sorted_pdf,
)
from .mrr import mrr_moments, sector_table
from .strong import StrongModelConstants, metric_batch, strong_constants
from .weak import weak_constants

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    "run_experiments",
    "OptResult",
    "optimize_divergence",
    "heatmap",
    "golden_section",
    "SWEEP_AXES",
    "METRICS",
    "ENGINES",
]

# Sweep axis -> LinkConfig field; "w_z" sets theta_div = w_z / Z instead.
_AXIS_FIELDS = {"Pt": "P_t", "theta_div": "theta_div", "sigma_theta_e": "sigma_theta_e",
                "sigma_theta_o": "sigma_theta_o", "Z": "Z", "A_r": "A_r", "Cn2": "cn2_0"}
SWEEP_AXES = (*_AXIS_FIELDS, "w_z")
METRICS = ("pdf_h", "cdf_h", "pdf_snr", "cdf_snr", "outage", "ber")
ENGINES = ("analytic", "montecarlo")
_SCALAR_METRICS = ("outage", "ber")

# Flag thresholds for analytic-vs-MC agreement (scalar metrics are only
# judged above their resolvable floors at desk-scale sample counts).
_OUTAGE_FLOOR = 1e-4
_BER_FLOOR = 1e-7
_REL_TOL = 0.10
_KS_TOL = 0.02


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible sweep: a base link, an axis with its grid, and
    which metrics/engines to evaluate."""

    base: LinkConfig
    sweep_axis: str
    grid: tuple
    metrics: tuple = ("outage",)
    engines: tuple = ("analytic", "montecarlo")
    seed: int = 0
    n_samples: int = 1_000_000
    regime: str | None = None           # "weak" | "strong" | None = auto
    bins: int = 80
    label: str = ""

    def __post_init__(self):
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"sweep axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")
        if len(self.grid) == 0:
            raise ValueError("grid must be non-empty")
        if list(self.grid) != sorted(self.grid):
            raise ValueError("grid must be sorted ascending")
        if not self.metrics or any(m not in METRICS for m in self.metrics):
            raise ValueError(f"metrics must be a non-empty subset of {METRICS}")
        if not self.engines or any(e not in ENGINES for e in self.engines):
            raise ValueError(f"engines must be a non-empty subset of {ENGINES}")
        if self.regime not in (None, "weak", "strong"):
            raise ValueError(f"regime must be 'weak', 'strong' or unset, got {self.regime!r}")
        if self.n_samples < 1 or self.bins < 1:
            raise ValueError("n_samples and bins must be >= 1")


@dataclass
class ExperimentResult:
    rows: list = field(default_factory=list)  # dicts from output_row, one per CSV row
    flags: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def apply_axis(cfg: LinkConfig, axis: str, value: float) -> LinkConfig:
    """`cfg` with sweep axis `axis` at `value`; `w_z` sets theta_div = w_z / Z."""
    if axis == "w_z":
        return cfg.with_(theta_div=value / cfg.Z)
    if axis not in _AXIS_FIELDS:
        raise ValueError(f"unknown sweep axis {axis!r}")
    return cfg.with_(**{_AXIS_FIELDS[axis]: value})


def link_field(target: str) -> str:
    """The LinkConfig field a link target sets: `w_z` sets theta_div (see
    `apply_axis`), every other target is the field of that name."""
    return "theta_div" if target == "w_z" else target


def _constants_for(cfg: LinkConfig, regime: str | None, stats=None):
    """Model constants of the fading regime, and the statistics that chose it:
    `stats` when given (those of cfg and regime), else computed here."""
    if stats is None:
        stats = turbulence_stats(cfg, regime=regime)
    if stats.regime is Regime.WEAK_TO_MODERATE:
        moments = mrr_moments(cfg.sigma_theta_o)
        return weak_constants(cfg, moments, stats), stats
    sectors = sector_table(cfg.sigma_theta_o)
    return strong_constants(cfg, stats, sectors), stats


def _point_model(spec: ExperimentSpec, value: float) -> tuple:
    """(link, statistics, model constants, failure messages) of one grid
    value, each of the first three None where it failed or is not needed
    (the constants without the analytic engine).  One evaluation of the
    statistics feeds both engines; their failure is recorded once, under
    the analytic engine if the sweep has it."""
    where = f"{spec.sweep_axis}={value:g}"
    try:
        cfg = apply_axis(spec.base, spec.sweep_axis, value)
    except MODEL_FAILURES as exc:   # the grid value makes the link invalid
        return None, None, None, [f"{where}: link failed: {exc}"]
    analytic = "analytic" in spec.engines
    stats = None
    try:
        stats = turbulence_stats(cfg, regime=spec.regime)
        k = _constants_for(cfg, spec.regime, stats)[0] if analytic else None
    except MODEL_FAILURES as exc:
        what = "analytic constants" if analytic else "montecarlo channel"
        return cfg, stats, None, [f"{where}: {what} failed: {exc}"]
    return cfg, stats, k, []


def _curve_plan(spec: ExperimentSpec, points: list) -> list:
    """Each grid point's Monte-Carlo draw, from its link and statistics
    (`_point_model`), so the simulated fading follows the analytic regime;
    None where they failed or without the Monte-Carlo engine.  A P_t
    curve's points share the first plan, since P_t does not move h."""
    mc = "montecarlo" in spec.engines
    plans = [SimPlan(cfg, n_samples=spec.n_samples, seed=spec.seed, stats=stats)
             if mc and stats is not None else None for cfg, stats, _, _ in points]
    first = next((p for p in plans if p), None)
    return [first if p else None for p in plans] if spec.sweep_axis == "Pt" else plans


def _draw_group(specs, points, plans, i: int) -> dict:
    """{j: [channel of each grid point]} for curve i and each later curve
    that shares its (seed, n_samples), from one `draw_channel` pass over
    their distinct plans (`plans[j]` is curve j's `_curve_plan`, `points[j]`
    its `_point_model`s).  A grid point's channel is its h; for a curve that
    asks for outage and BER alone, its `SnrSums` instead, fed at the point's
    own upsilon_1 as the pass goes, so that no h is kept.  A point without a
    plan gets None.  If the pass fails, each channel is its exception."""
    keys = [{(p.seed, p.n_samples) for p in curve if p} for curve in plans]
    idx = [j for j in range(i, len(plans)) if keys[j] == keys[i]]
    distinct = list({id(p): p for j in idx for p in plans[j] if p}.values())
    feeds: dict = {}   # id(plan) -> the SnrSums its blocks feed
    channels = {}
    for j in idx:
        metrics = specs[j].metrics
        if set(metrics) <= set(_SCALAR_METRICS):
            channels[j] = [SnrSums(upsilon_1(cfg), cfg.gamma_th if "outage" in metrics else None,
                                   "ber" in metrics) if p else None
                           for (cfg, *_), p in zip(points[j], plans[j])]
            for p, sums in zip(plans[j], channels[j]):
                if p:
                    feeds.setdefault(id(p), []).append(sums)
    try:
        kept = iter(draw_channel(*distinct, sums=[feeds.get(id(p)) for p in distinct]))
        h = {id(p): next(kept) for p in distinct if id(p) not in feeds}
    except MODEL_FAILURES as exc:
        return {j: [exc if p else None for p in plans[j]] for j in idx}
    for j in idx:
        if j not in channels:
            channels[j] = [h[id(p)] if p else None for p in plans[j]]
    return channels


def _grid_point_rows(spec: ExperimentSpec, value: float, h, point: tuple, scalars: dict):
    """All output rows for one grid value, with its flags and errors.  Pure
    function of its inputs: `point` is the value's model (`_point_model`),
    `scalars` its analytic outage/BER from the curve's `_metric_values`
    calls (metric -> value, or the exception of its failure), and `h` the
    value's channel from its curve's pass (`_draw_group`): its h, or the
    `SnrSums` of a curve that asks for outage and BER alone, the exception
    of that failed pass, or None without one."""
    where = f"{spec.sweep_axis}={value:g}"
    rows: list[dict] = []
    flags: list[str] = []
    cfg, _, k, errors = point
    errors = list(errors)
    if cfg is None:
        return rows, flags, errors
    scalar_metrics = [m for m in spec.metrics if m in _SCALAR_METRICS]
    dist_metrics = [m for m in spec.metrics if m not in _SCALAR_METRICS]

    def finite(engine, metric, values):
        """values, or None with the failure recorded if any is not finite."""
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            errors.append(f"{where}: {engine} {metric} failed: {bad} of {np.size(values)} "
                          "values are not finite")
            return None
        return values

    drawn = sums = None   # the kept h samples; the outage/BER estimators' (`SnrSums`)
    if isinstance(h, Exception):
        errors.append(f"{where}: montecarlo channel failed: {h}")
    elif isinstance(h, SnrSums):
        sums = h
    elif h is not None:   # one draw feeds every MC metric
        drawn = h
        if scalar_metrics:
            sums = SnrSums.of(snr_from_channel(upsilon_1(cfg), h), cfg.gamma_th,
                              "ber" in scalar_metrics)

    def add(*columns, **named):
        rows.append(output_row(spec.sweep_axis, value, spec.label, *columns, **named))

    for metric in scalar_metrics:
        a_val = scalars.get(metric)   # None without a model
        if isinstance(a_val, Exception):
            errors.append(f"{where}: analytic {metric} failed: {a_val}")
            a_val = None
        mc_est = None
        if sums is not None:
            mc_est = sums.outage() if metric == "outage" else sums.ber()
        if mc_est is not None and finite("montecarlo", metric, mc_est.value) is None:
            mc_est = None
        flag = ""
        if a_val is not None and mc_est is not None:
            floor = _OUTAGE_FLOOR if metric == "outage" else _BER_FLOOR
            if mc_est.value >= floor:
                lo = min(mc_est.ci_low, mc_est.value * (1 - _REL_TOL))
                hi = max(mc_est.ci_high, mc_est.value * (1 + _REL_TOL))
                if not (lo <= a_val <= hi):
                    flag = "tolerance"
                    flags.append(f"{where} {metric}: "
                                 f"analytic {a_val:.3e} outside [{lo:.3e}, {hi:.3e}]")
        if a_val is not None:
            add(metric, "analytic", math.nan, a_val, flag=flag)
        if mc_est is not None:
            add(metric, "montecarlo", math.nan, mc_est.value, mc_est.ci_low, mc_est.ci_high)

    # h sorted once, for its pdf and its cdf; the sorted SNR is formed from
    # it, bit for bit the SNR sorted, since (u1 h) h is monotone in h >= 0
    ordered = {}
    for metric in dist_metrics:
        samples = None
        if drawn is not None:
            if not ordered:
                ordered["h"] = np.sort(drawn)
            key = metric.split("_")[1]
            if key not in ordered:
                ordered[key] = snr_from_channel(upsilon_1(cfg), ordered["h"])
            samples = ordered[key]
            edges = np.linspace(0.0, float(samples[-1]) * 1.001, spec.bins + 1)
        elif k is not None:
            # support guess: 20 times the peak gain of the deterministic channel
            top = 20.0 * 2.0 * cfg.A_r * h_constant(cfg) / (math.pi * beamwidth(cfg) ** 2)
            if metric.endswith("_snr"):
                top = k.upsilon_1 * top ** 2
            edges = np.linspace(0.0, top, spec.bins + 1)
        else:
            continue
        centers = 0.5 * (edges[:-1] + edges[1:])
        ana_vals = None
        if k is not None:
            try:
                ana_vals = finite("analytic", metric, getattr(k, metric)(centers))
            except MODEL_FAILURES as exc:
                errors.append(f"{where}: analytic {metric} failed: {exc}")
        if ana_vals is not None:
            for x, v in zip(centers, ana_vals):
                add(metric, "analytic", float(x), float(v))
        mc_vals = None
        if samples is not None:
            if metric.startswith("pdf"):
                mc_vals = sorted_pdf(samples, edges)
            else:
                mc_vals = sorted_cdf(samples, centers)
            mc_vals = finite("montecarlo", metric, mc_vals)
            for x, v in zip(centers, mc_vals if mc_vals is not None else ()):
                add(metric, "montecarlo", float(x), float(v))
        if ana_vals is not None and mc_vals is not None and metric.startswith("cdf"):
            # bin centers already carry both curves; compare there
            ks = float(np.abs(ana_vals - mc_vals).max())
            if ks > _KS_TOL:
                flags.append(f"{where} {metric}: KS={ks:.3f} > {_KS_TOL}")
                rows[-1]["flag"] = "tolerance"
    return rows, flags, errors


def run_experiments(specs) -> list[ExperimentResult]:
    """Evaluate the sweeps in order, one result each.  Every grid point's
    model is built first (`_point_model`).  A curve's Monte-Carlo channels,
    n_samples floats per grid point (one per P_t curve) or the outage and
    BER sums of a curve that asks for nothing else, are drawn just before
    it is evaluated, with those of the later curves that share its
    (seed, n_samples) (`_draw_group`), and dropped after its rows."""
    points = [[_point_model(spec, v) for v in spec.grid] for spec in specs]
    plans = [_curve_plan(spec, curve) for spec, curve in zip(specs, points)]
    channels: dict = {}
    results = []
    for i, spec in enumerate(specs):
        if i not in channels and any(plans[i]):
            channels.update(_draw_group(specs, points, plans, i))
        results.append(_run_curve(spec, points[i], channels.pop(i, [None] * len(points[i]))))
    return results


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Evaluate one sweep: its rows in grid order, flags and errors."""
    return run_experiments([spec])[0]


def _run_curve(spec: ExperimentSpec, points: list, hs: list) -> ExperimentResult:
    """One sweep's grid points, in grid order, given their models and their
    channel draws.  Each analytic outage/BER of the curve is one
    `_metric_values` call over the points that have a model."""
    models = {i: k for i, (_, _, k, _) in enumerate(points) if k is not None}
    scalars = [{} for _ in points]
    for metric in spec.metrics:
        if metric in _SCALAR_METRICS and models:
            values, failures = _metric_values(list(models.values()), metric, spec.base.gamma_th)
            for j, i in enumerate(models):
                scalars[i][metric] = failures.get(j, float(values[j]))
    result = ExperimentResult()
    for args in zip(spec.grid, hs, points, scalars):
        rows, flags, errors = _grid_point_rows(spec, *args)
        result.rows.extend(rows)
        result.flags.extend(flags)
        result.errors.extend(errors)
    return result


_CSV_COLUMNS = ("sweep_axis", "sweep_value", "label", "metric", "engine",
                "x", "value", "ci_low", "ci_high", "flag")


def output_row(sweep_axis, sweep_value, label, metric, engine, x, value,
               ci_low=math.nan, ci_high=math.nan, flag="") -> dict:
    """One CSV row, keyed by `_CSV_COLUMNS`; every sweep and recipe row is built here."""
    return dict(zip(_CSV_COLUMNS, (sweep_axis, sweep_value, label, metric, engine,
                                   x, value, ci_low, ci_high, flag)))


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return f"{v:.12g}"
    return str(v)


def spec_meta(spec: ExperimentSpec) -> dict:
    """The resolved setup of one sweep, as its sidecar records it: every
    field, with `base` as `base_config`."""
    meta = {k: v for k, v in vars(spec).items() if k != "base"}
    return {**meta, "base_config": dict(vars(spec.base))}


def write_outputs(rows: list, path: str, meta: dict) -> None:
    """Deterministic CSV of `rows`, and a JSON sidecar of `meta` plus the version:
    for a sweep `{recipe (null for run), curves: [spec_meta], flags, errors}`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in _CSV_COLUMNS) + "\n")
    with open(path + ".json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"version": __version__, **meta}, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")


def golden_section(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Minimize a unimodal f on [a, b] to within tol; returns (x, f(x))."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - (b - a) * inv_phi
    d = a + (b - a) * inv_phi
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * inv_phi
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * inv_phi
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _metric_values(models, metric: str, gamma_th: float) -> tuple[np.ndarray, dict]:
    """Analytic outage at gamma_th (metric "outage") or BER ("ber") of every
    model, and {index: exception} of those that failed, nan in the values.

    The strong models are one `metric_batch` call; the weak ones are
    evaluated one at a time, and so is every strong one if that call
    raises.  A value that is not finite is a failure.
    """
    values = np.full(len(models), math.nan)
    failures: dict = {}
    strong = [i for i, k in enumerate(models) if isinstance(k, StrongModelConstants)]
    alone = [i for i, k in enumerate(models) if not isinstance(k, StrongModelConstants)]
    if strong:
        try:
            values[strong], errors = metric_batch([models[i] for i in strong], metric, gamma_th)
            failures.update({strong[n]: NonConvergentError(r) for n, r in errors.items()})
        except MODEL_FAILURES:   # each on its own
            alone = range(len(models))
    for i in alone:
        try:
            values[i] = models[i].outage(gamma_th) if metric == "outage" else models[i].ber()
        except MODEL_FAILURES as exc:
            failures[i] = exc
    for i in np.flatnonzero(~np.isfinite(values)):
        failures.setdefault(int(i), FloatingPointError(f"the {metric} is {values[i]}"))
    return values, failures


def _design_metric(cfg: LinkConfig, metric: str, regime: str | None) -> float:
    """Analytic outage or BER of one configuration; its failure raises."""
    k, _ = _constants_for(cfg, regime)
    values, failures = _metric_values([k], metric, cfg.gamma_th)
    if failures:
        raise failures[0]
    return float(values[0])


@dataclass(frozen=True)
class OptResult:
    theta_opt: float
    value: float
    interior: bool
    message: str = ""


def optimize_divergence(cfg: LinkConfig, objective: str = "outage",
                        bracket: tuple[float, float] = (0.1e-3, 2e-3),
                        tol: float = 1e-6, regime: str | None = None) -> OptResult:
    """Find the divergence angle minimizing analytic outage or BER.

    Golden-section search on the closed-form objective; if the minimum
    sits at a bracket edge the objective is monotone there and the edge
    is reported rather than claimed optimal.
    """
    if objective not in ("outage", "ber"):
        raise ValueError("objective must be 'outage' or 'ber'")
    lo, hi = bracket
    if not (0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")

    def f(theta):
        c = cfg.with_(theta_div=theta)
        val = _design_metric(c, objective, regime)
        # log objective: outage/BER span many decades
        return math.log(max(val, 1e-300))

    x, fx = golden_section(f, lo, hi, tol)
    interior = (x - lo > 2 * tol) and (hi - x > 2 * tol)
    if not interior:
        edge = lo if x - lo <= 2 * tol else hi
        fe = f(edge)
        return OptResult(edge, math.exp(fe), False,
                         f"objective is monotone on the bracket; best edge {edge:g} rad")
    return OptResult(x, math.exp(fx), True)


def heatmap(cfg: LinkConfig, sigma_e_grid, wz_grid, metric: str = "outage",
            regime: str | None = None) -> tuple[np.ndarray, list[str]]:
    """Matrix of the analytic metric over (tracking jitter) x (beamwidth),
    and the failures of its cells.

    Rows follow sigma_e_grid, columns wz_grid.  Each cell builds its own
    model constants, and the cells' metric is one `_metric_values` call.
    The strong cells share alpha, beta and the sectors, so they are one
    `strong.metric_batch` group, each within the quadrature tolerance of its
    standalone evaluation (at most 1.1e-12 relative for the outage and
    2.8e-12 for the BER on the default map at Cn2 = 1e-13).  A cell whose
    evaluation fails numerically is nan, and its failure is one message in
    the returned list, in cell order.
    """
    if metric not in ("outage", "ber"):
        raise ValueError("heatmap metric must be 'outage' or 'ber'")
    if not all(se > 0 for se in sigma_e_grid):
        raise ValueError("the closed forms need tracking jitter sigma_theta_e > 0")
    out = np.full((len(sigma_e_grid), len(wz_grid)), math.nan)
    failures, models = {}, {}
    for i, se in enumerate(sigma_e_grid):
        for j, wz in enumerate(wz_grid):
            try:
                c = apply_axis(cfg, "w_z", float(wz)).with_(sigma_theta_e=float(se))
                models[i, j], _ = _constants_for(c, regime)
            except MODEL_FAILURES as exc:
                failures[i, j] = exc
    values, errors = _metric_values(list(models.values()), metric, cfg.gamma_th)
    for n, cell in enumerate(models):
        out[cell] = values[n]
        if n in errors:
            failures[cell] = errors[n]
    return out, [f"sigma_e={sigma_e_grid[i] * 1e6:g}urad w_z={wz_grid[j]:g}m: "
                 f"analytic {metric} failed: {failures[i, j]}" for i, j in sorted(failures)]
