"""Config-driven experiment runs: sweeps, the divergence optimizer and
the tracking-jitter/beamwidth outage map.

`_constants_for` is the one place that decides the fading regime: it
returns the weak or strong model constants, and every analytic metric is
then a call through that model's `pdf_h`/`cdf_h`/`pdf_snr`/`cdf_snr`/
`outage`/`ber`.  The Monte-Carlo side draws its fading from the same
turbulence statistics.

Grid points may be computed by one worker pool per `run_experiments` call;
rows are always emitted in grid order and all randomness is seed-keyed, so
output files are byte-identical for any worker count.  P_t reaches the
model only through upsilon_1 (gamma = upsilon_1 h^2), so a transmit-power
curve shares what its grid points would repeat:
- its Monte-Carlo channel, one h array drawn at the first grid value and
  sent to the pool with each task.  `run_experiments` draws the curves of
  a recipe that share (seed, n_samples) in one `draw_channel` call, before
  the first of them is evaluated, and drops each curve's h after its rows;
- its analytic outage, one `SquareLawModel.outage_at` call over every grid
  point from the constants of the first (`_curve_outage`); the points
  build their own constants only for the other metrics, or when that call
  fails.
Every other axis moves h and the constants, so each of its grid points
draws and builds its own.  A grid point records each model failure
(`MODEL_FAILURES`) and the sweep goes on.
"""

from __future__ import annotations

import contextlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channel import LinkConfig, Regime, beamwidth, h_constant, turbulence_stats, upsilon_1
from .errors import MODEL_FAILURES
from .montecarlo import (
    SimPlan,
    draw_channel,
    mc_ber,
    mc_outage,
    sorted_cdf,
    sorted_pdf,
)
from .mrr import mrr_moments, sector_table
from .strong import metric_batch, strong_constants
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


def _curve_plan(spec: ExperimentSpec) -> SimPlan | None:
    """The Monte-Carlo draw every grid point of a P_t curve shares, at the
    first grid value; None when the curve has no Monte-Carlo engine, sweeps
    an axis that moves h, or its first link or its statistics fail (each point
    then draws)."""
    if spec.sweep_axis != "Pt" or "montecarlo" not in spec.engines:
        return None
    try:
        cfg = apply_axis(spec.base, "Pt", spec.grid[0])
        stats = turbulence_stats(cfg, regime=spec.regime)
    except MODEL_FAILURES:
        return None
    return SimPlan(cfg, n_samples=spec.n_samples, seed=spec.seed, stats=stats)


def _draw_group(plans, i: int) -> dict:
    """{j: h} for curve i and each later curve that shares its (seed,
    n_samples), the rows of one `draw_channel` pass; i is the first of them.
    If the pass fails, each of them maps to the exception instead, which
    every grid point of those curves records as its channel failure."""
    key = (plans[i].seed, plans[i].n_samples)
    idx = [j for j in range(i, len(plans))
           if plans[j] is not None and (plans[j].seed, plans[j].n_samples) == key]
    try:
        return dict(zip(idx, np.atleast_2d(draw_channel(*(plans[j] for j in idx)))))
    except MODEL_FAILURES as exc:
        return dict.fromkeys(idx, exc)


def _curve_outage(spec: ExperimentSpec) -> list:
    """The analytic outage of every grid point of a P_t curve, from one call.

    P_t reaches the model only through upsilon_1, so the constants built at
    the first grid value serve every point (`SquareLawModel.outage_at`),
    with values equal to the per-point ones bit for bit.  A None entry
    leaves the point to compute (and record) its own outage: every entry
    when the curve has no analytic outage or the call raises.
    """
    none = [None] * len(spec.grid)
    if spec.sweep_axis != "Pt" or "analytic" not in spec.engines or "outage" not in spec.metrics:
        return none
    try:
        cfgs = [apply_axis(spec.base, "Pt", v) for v in spec.grid]
        k, _ = _constants_for(cfgs[0], spec.regime)
        return [float(v) for v in k.outage_at(cfgs[0].gamma_th, [upsilon_1(c) for c in cfgs])]
    except MODEL_FAILURES:   # each point retries on its own
        return none


def _grid_point_rows(spec: ExperimentSpec, value: float, h=None,
                     outage: float | None = None):
    """All output rows for one grid value.  Pure function of its inputs;
    `h` is the curve's shared channel draw (`_draw_group`), or the
    exception of its failed draw, and `outage` its analytic outage from the
    curve's one call (`_curve_outage`), if any."""
    where = f"{spec.sweep_axis}={value:g}"
    rows: list[dict] = []
    flags: list[str] = []
    errors: list[str] = []
    try:
        cfg = apply_axis(spec.base, spec.sweep_axis, value)
    except MODEL_FAILURES as exc:   # the grid value makes the link invalid
        return rows, flags, [f"{where}: link failed: {exc}"]
    scalar_metrics = [m for m in spec.metrics if m in ("outage", "ber")]
    dist_metrics = [m for m in spec.metrics if m not in ("outage", "ber")]

    # the curve's outage call built the same constants; build them only
    # for what it did not compute
    needs_constants = "analytic" in spec.engines and (
        outage is None or set(spec.metrics) != {"outage"})
    draw_failure, h = (h, None) if isinstance(h, Exception) else (None, h)
    needs_draw = "montecarlo" in spec.engines and h is None and draw_failure is None
    k = stats = None
    if needs_constants or needs_draw:
        # one evaluation of the statistics feeds both engines; their failure
        # is recorded once, under the first engine that needs them
        try:
            stats = turbulence_stats(cfg, regime=spec.regime)
            if needs_constants:
                k, _ = _constants_for(cfg, spec.regime, stats)
        except MODEL_FAILURES as exc:
            what = "analytic constants" if needs_constants else "montecarlo channel"
            errors.append(f"{where}: {what} failed: {exc}")

    def finite(engine, metric, values):
        """values, or None with the failure recorded if any is not finite."""
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            errors.append(f"{where}: {engine} {metric} failed: {bad} of {np.size(values)} "
                          "values are not finite")
            return None
        return values

    def analytic(metric, *args):
        """The model's value of one metric, or None with the failure recorded."""
        if metric == "outage" and outage is not None:
            return finite("analytic", metric, outage)
        if k is None:
            return None
        try:
            return finite("analytic", metric, getattr(k, metric)(*args))
        except MODEL_FAILURES as exc:
            errors.append(f"{where}: analytic {metric} failed: {exc}")
            return None

    mc = None
    if draw_failure is not None:
        errors.append(f"{where}: montecarlo channel failed: {draw_failure}")
    elif "montecarlo" in spec.engines and (h is not None or stats is not None):
        # one draw feeds every MC metric; the simulated fading follows the
        # regime of the analytic side
        try:
            if h is None:
                h = draw_channel(SimPlan(cfg, n_samples=spec.n_samples, seed=spec.seed,
                                         stats=stats))
            # gamma = (upsilon_1 h) h, sample_channel's operation order, so it is bit-identical
            snr = upsilon_1(cfg) * h
            snr *= h
            mc = {"h": h, "snr": snr}
        except MODEL_FAILURES as exc:
            errors.append(f"{where}: montecarlo channel failed: {exc}")

    def add(*columns, **named):
        rows.append(output_row(spec.sweep_axis, value, spec.label, *columns, **named))

    for metric in scalar_metrics:
        if metric == "outage":
            a_val = analytic("outage", cfg.gamma_th)
            mc_est = mc_outage(mc["snr"], cfg.gamma_th) if mc is not None else None
        else:
            a_val = analytic("ber")
            mc_est = mc_ber(mc["snr"]) if mc is not None else None
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

    ordered = {}   # each sample array sorted once, for its pdf and its cdf
    for metric in dist_metrics:
        samples = None
        if mc is not None:
            key = metric.split("_")[1]
            if key not in ordered:
                ordered[key] = np.sort(mc[key])
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
        ana_vals = analytic(metric, centers)
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


def run_experiments(specs, workers: int = 1) -> list[ExperimentResult]:
    """Evaluate the sweeps in order, one result each, on one pool of `workers`
    processes if `workers` > 1.  A P_t curve's Monte-Carlo channel is drawn
    just before the curve is evaluated, with those of the later curves that
    share its (seed, n_samples) (`_draw_group`), and dropped after its rows."""
    plans = [_curve_plan(spec) for spec in specs]
    channels: dict = {}
    results = []
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        for i, spec in enumerate(specs):
            if plans[i] is not None and i not in channels:
                channels.update(_draw_group(plans, i))
            results.append(_run_curve(spec, channels.pop(i, None), pool.map if pool else map))
    return results


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Evaluate one sweep: its rows in grid order, flags and errors."""
    return run_experiments([spec], workers)[0]


def _run_curve(spec: ExperimentSpec, h: np.ndarray | None, map_fn) -> ExperimentResult:
    """One sweep's grid points, in grid order through `map_fn`, given its channel draw."""
    n = len(spec.grid)
    result = ExperimentResult()
    for rows, flags, errors in map_fn(_grid_point_rows, [spec] * n, spec.grid, [h] * n,
                                      _curve_outage(spec)):   # grid order preserved
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


def _model_metric(k, metric: str, gamma_th: float) -> float:
    """Outage at gamma_th or BER of one model; FloatingPointError if it is
    not finite."""
    value = k.outage(gamma_th) if metric == "outage" else k.ber()
    if not math.isfinite(value):
        raise FloatingPointError(f"the {metric} is {value}")
    return value


def _design_metric(cfg: LinkConfig, metric: str, regime: str | None) -> float:
    """Analytic outage or BER of one configuration."""
    k, _ = _constants_for(cfg, regime)
    return _model_metric(k, metric, cfg.gamma_th)


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
    model constants.  A weak cell is its standalone closed form; the strong
    cells share alpha, beta and the sectors, and are evaluated in one
    `strong.metric_batch` call, each within the quadrature tolerance of its
    standalone evaluation (at most 1.1e-12 relative for the outage and
    2.8e-12 for the BER on the default map at Cn2 = 1e-13).  If that call
    raises, each strong cell is evaluated on its own.  A cell whose
    evaluation fails numerically is nan, and its failure is one message in
    the returned list, in cell order.
    """
    if metric not in ("outage", "ber"):
        raise ValueError("heatmap metric must be 'outage' or 'ber'")
    if not all(se > 0 for se in sigma_e_grid):
        raise ValueError("the closed forms need tracking jitter sigma_theta_e > 0")
    out = np.full((len(sigma_e_grid), len(wz_grid)), math.nan)
    failures = {}
    strong = {}   # cell -> constants
    for i, se in enumerate(sigma_e_grid):
        for j, wz in enumerate(wz_grid):
            try:
                c = apply_axis(cfg, "w_z", float(wz)).with_(sigma_theta_e=float(se))
                k, stats = _constants_for(c, regime)
                if stats.regime is Regime.MODERATE_TO_STRONG:
                    strong[i, j] = k
                else:
                    out[i, j] = _model_metric(k, metric, c.gamma_th)
            except MODEL_FAILURES as exc:
                failures[i, j] = exc
    if strong:
        try:
            values, errors = metric_batch(list(strong.values()), metric, cfg.gamma_th)
        except MODEL_FAILURES:   # each cell on its own
            values, errors = np.full(len(strong), math.nan), {}
            for n, k in enumerate(strong.values()):
                try:
                    values[n] = _model_metric(k, metric, cfg.gamma_th)
                except MODEL_FAILURES as exc:
                    errors[n] = exc
        for n, cell in enumerate(strong):
            out[cell] = values[n]
            if n in errors or not math.isfinite(values[n]):
                failures[cell] = errors.get(n, f"the {metric} is {values[n]}")
    return out, [f"sigma_e={sigma_e_grid[i] * 1e6:g}urad w_z={wz_grid[j]:g}m: "
                 f"analytic {metric} failed: {failures[i, j]}" for i, j in sorted(failures)]
