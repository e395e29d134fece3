"""Special-function kernels used by the analytical channel models.

Everything here is a pure function of its arguments.  The elementary
kernels (Q-function, log Q, log erfc) wrap the well-tested scipy
implementations; the Meijer G-function is evaluated by
direct numerical Mellin-Barnes integration because the orders needed by
the channel statistics (up to G^{9,2}_{3,10} with repeated parameters) are
outside what series-based evaluators handle reliably.

One integrator, `_mb_sum`, evaluates a weighted sum of one G, each term
at a scaled argument or averaged over an interval of scales, for a set of
arguments on one contour, with one evaluation of the gamma ratio per node
set.  The ratio is a factor list (`_plan`): repeated parameters merge
into one loggamma times their multiplicity, and a numerator/denominator
pair one apart is a linear factor, Gamma(x + 1)/Gamma(x) = x.  Each
contour panel takes one nested Gauss-Kronrod 24/49 rule: the Kronrod sum
is the value and its distance from the embedded Gauss sum the error
estimate.  `meijer_g_sum` calls it once per unit-width ln bucket of its
arguments, such as the strong-regime sector sums; `meijer_g` calls it
with one unit point term, on a contour at the saddle of its own argument.
An entry may carry a pole of its own, a factor 1/(pole_i - t) of the
integrand (`meijer_g_sum(..., pole=...)`, the pointing exponent of every
strong-regime statistic): the shared integrand is formed once per node
set and each row scales it by that factor, normalised to 1 at tau = 0.
The contour abscissa comes from bisection on the analytic slope of the
integrand's logarithm, built from the same factor list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sp

from .errors import InvalidOrderError, NonConvergentError

__all__ = [
    "q_function",
    "log_q",
    "log_erfc",
    "at_positive",
    "MeijerGSpec",
    "meijer_g",
    "meijer_g_sum",
]

# Target relative accuracy of the Mellin-Barnes quadrature: a row whose
# Gauss-Kronrod 49-node and embedded Gauss 24-node panel sums differ by
# more than ten times this is integrated again on halved panels.
_EPS_REL = 1e-11


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x) = erfc(x/sqrt(2))/2."""
    return 0.5 * sp.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def log_q(x):
    """log Q(x), stable for large positive x where Q underflows."""
    return sp.log_ndtr(-np.asarray(x, dtype=float))


def log_erfc(x: float) -> float:
    """log erfc(x) for any real x, overflow-free."""
    if x >= 0.0:
        return math.log(sp.erfcx(x)) - x * x
    return math.log(2.0 - sp.erfcx(-x) * math.exp(-x * x))


def at_positive(x, fn):
    """fn (vectorized) at the positive entries of x and 0 where x <= 0 or
    is NaN, the support rule of every channel density; a scalar in gives
    a float out."""
    xs = np.asarray(x, dtype=float)
    out = np.zeros(xs.shape)
    pos = xs > 0
    out[pos] = fn(xs[pos])
    return float(out) if xs.ndim == 0 else out


@dataclass(frozen=True)
class MeijerGSpec:
    """Order and parameter vectors of one Meijer G-function G^{m,n}_{p,q}.

    a_params has length p (first n entries are the "numerator" a's),
    b_params has length q (first m entries are the "numerator" b's).
    """

    m: int
    n: int
    a_params: tuple
    b_params: tuple

    def __post_init__(self):
        object.__setattr__(self, "a_params", tuple(float(v) for v in self.a_params))
        object.__setattr__(self, "b_params", tuple(float(v) for v in self.b_params))
        p, q = len(self.a_params), len(self.b_params)
        if not (0 <= self.n <= p and 0 <= self.m <= q):
            raise InvalidOrderError(
                f"need 0 <= n <= p and 0 <= m <= q, got m={self.m}, n={self.n}, p={p}, q={q}"
            )
        if self.m + self.n == 0:
            raise InvalidOrderError("m + n must be positive")
        # A pole of Gamma(b_j - t) colliding with a pole of Gamma(1 - a_i + t)
        # makes the defining contour impossible: a_i - b_j a positive integer.
        for ai in self.a_params[: self.n]:
            for bj in self.b_params[: self.m]:
                d = ai - bj
                if d >= 0.5 and abs(d - round(d)) < 1e-9:
                    raise InvalidOrderError(
                        f"a={ai} and b={bj} differ by a positive integer; "
                        "the contour poles coincide"
                    )

    @property
    def p(self) -> int:
        return len(self.a_params)

    @property
    def q(self) -> int:
        return len(self.b_params)

    @property
    def delta(self) -> float:
        """Exponential decay rate of the contour integrand (must be > 0)."""
        return self.m + self.n - 0.5 * (self.p + self.q)


@lru_cache(maxsize=1024)
def _plan(spec: MeijerGSpec) -> tuple:
    """The gamma ratio of spec as a factor list: (loggamma terms, log-linear
    terms), each a tuple of (offset, sign, power) standing for power *
    log Gamma(offset + sign t) or power * log(offset + sign t).

    Repeated parameters merge into one term with their multiplicity, and a
    numerator/denominator pair whose offsets differ by one is the linear
    factor Gamma(x + 1)/Gamma(x) = x.
    """
    m, n, a, b = spec.m, spec.n, spec.a_params, spec.b_params
    power = {}
    for off, sgn, k in ([(bj, -1.0, 1) for bj in b[:m]] + [(1.0 - ai, 1.0, 1) for ai in a[:n]]
                        + [(1.0 - bj, 1.0, -1) for bj in b[m:]] + [(ai, -1.0, -1) for ai in a[n:]]):
        power[off, sgn] = power.get((off, sgn), 0) + k
    linear = []
    for off, sgn in sorted(power):
        k, up = power[off, sgn], power.get((off + 1.0, sgn), 0)
        if k * up < 0:   # Gamma(x)^-j Gamma(x + 1)^j = x^j
            j = min(abs(k), abs(up)) * (1 if up > 0 else -1)
            linear.append((off, sgn, j))
            power[off, sgn] += j
            power[off + 1.0, sgn] -= j
    return tuple((off, sgn, k) for (off, sgn), k in power.items() if k), tuple(linear)


def _chi_log(t, spec: MeijerGSpec):
    """log of the Mellin-Barnes gamma ratio at complex contour point(s) t,
    summed over spec's factor list (`_plan`)."""
    shape = np.shape(t)
    t = np.array(t, dtype=complex, ndmin=1)   # an array, for the in-place terms
    gammas, linear = _plan(spec)
    val = np.zeros_like(t)
    for terms, fn in ((gammas, sp.loggamma), (linear, np.log)):
        for off, sgn, k in terms:
            arg = off + t if sgn > 0 else off - t
            term = fn(arg, out=arg)
            if k != 1:
                term *= k
            val += term
    return val.reshape(shape)


def _contour_abscissa(spec: MeijerGSpec, lnz: float) -> float:
    """Pick the real abscissa of the vertical contour.

    The contour must leave the poles of Gamma(b_j - t) on its right and
    those of Gamma(1 - a_i + t) on its left.  Within the admissible range
    we place it at the minimum of |integrand| (the real saddle), which
    keeps the oscillatory cancellation bounded even when the result is
    exponentially small.  The saddle is found by bisection on the sign of
    the analytic slope d/dc [Re log chi(c) + c ln z], a sum of digammas
    and reciprocals over the factor list; a slope of one sign throughout
    leaves c at that end of the range.
    The abscissa is kept clear of every integer offset of the parameters.
    """
    m, n, a, b = spec.m, spec.n, spec.a_params, spec.b_params
    hi = min(b[:m]) if m else np.inf
    lo = max(ai - 1.0 for ai in a[:n]) if n else -np.inf
    # d/dc of the factor list's real part: power sgn psi(off + sgn c) per
    # loggamma term, power sgn / (off + sgn c) per linear term.
    gammas, linear = _plan(spec)
    off, sgn, power = np.array(gammas).reshape(-1, 3).T
    coef = power * sgn

    def slope(c):
        value = float(np.dot(coef, sp.digamma(off + sgn * c))) + lnz
        for lin_off, lin_sgn, lin_k in linear:
            value += lin_k * lin_sgn / (lin_off + lin_sgn * c)
        return value

    if np.isfinite(lo) and np.isfinite(hi):
        if hi - lo <= 1e-12:
            raise InvalidOrderError("no admissible contour between pole families")
        band = hi - lo
        left, right = lo + 0.05 * band, hi - 0.05 * band
    else:
        # One side unbounded: step away from the bounded edge until the
        # slope turns, which brackets the saddle.
        if np.isfinite(hi):
            edge, away = hi - 1e-3, -1.0
        else:
            edge, away = lo + 1e-3, 1.0
        w = 1.0
        while away * slope(edge + away * w) < 0.0 and w < 1e8:
            w *= 2
        left, right = sorted((edge, edge + away * w))
    while right - left > 1e-8 * max(1.0, abs(left), abs(right)):
        mid = 0.5 * (left + right)
        if slope(mid) > 0.0:
            right = mid
        else:
            left = mid
    c = 0.5 * (left + right)
    # Keep clear of any exact pole of the numerator/denominator gammas.
    for v in (*b, *a):
        for k in range(-3, 4):
            if abs(c - (v + k)) < 1e-9:
                c += 1.37e-7
    return c


def _require_decay(spec: MeijerGSpec) -> None:
    """Reject orders whose contour integrand does not decay."""
    if spec.delta <= 0:
        raise NonConvergentError(
            f"contour integrand does not decay (delta={spec.delta}); "
            "evaluate the reciprocal-argument form instead"
        )


def meijer_g(spec: MeijerGSpec, z: float) -> float:
    """Evaluate G^{m,n}_{p,q}(z | a; b) for real z > 0.

    The kernel of `meijer_g_sum` with one unit term, on a vertical contour
    anchored at the saddle of z itself; repeated parameters are harmless
    there because the contour never approaches the poles.
    """
    if z <= 0.0 or not np.isfinite(z):
        raise ValueError("meijer_g requires finite z > 0")
    _require_decay(spec)
    lnz = math.log(z)
    value, fails = _mb_sum(spec, np.ones(1), np.zeros(1), np.zeros(1), lnz, lnz, np.array([lnz]))
    _check_converged(fails)
    return float(value[0])


def _panels(T: float, width: float) -> np.ndarray:
    """Geometric panel boundaries [0, w, 2w, 4w, ...] capped at T."""
    edges = [0.0]
    step = max(width, 1e-3)
    while edges[-1] < T:
        edges.append(min(edges[-1] + step, T))
        step *= 2.0
    return np.asarray(edges)


def _contour_extent(spec: MeijerGSpec, c: float, lnz_max: float):
    """Decay rate, upper limit T and panel edges of the contour at abscissa c
    for arguments up to |ln z| = lnz_max."""
    rate = max(spec.delta * np.pi, 0.05)
    # Upper limit: exponential decay at `rate` per unit tau, plus the
    # Gaussian saddle width ~ sqrt(|c|) when the saddle sits far out.
    T = max(30.0, np.log(1e19) / rate, 14.0 * np.sqrt(abs(c) + 4.0))
    # Panel width tracks both the oscillation period and the peak width.
    width = min(2.0 * np.pi / (lnz_max + 1.0), np.sqrt(abs(c) + 1.0), 1.0)
    return rate, T, _panels(T, width)


# Gauss-Kronrod 24/49 rule on [-1, 1] (Laurie, Math. Comp. 66, 1997): its
# 25 non-negative nodes in increasing order, the Gauss-Legendre 24 nodes at
# the odd positions, with their Kronrod weights and the Gauss weights of the
# odd positions.  Constants, because Laurie's algorithm and its eigen-
# decomposition cost milliseconds in every fresh process; the tests
# recompute them.
_GK_X = (
    0.0, 0.06405689286260563, 0.1278512402862167,
    0.1911188674736163, 0.2536004303696779, 0.3150426796961634,
    0.37519115479795084, 0.4337935076260451, 0.49061236546344644,
    0.5454214713888396, 0.5979905139060784, 0.6480936519369755,
    0.6955320723967788, 0.7401241915785544, 0.7816772264764643,
    0.820001985973903, 0.8549538039040514, 0.8864155270044011,
    0.9142406907949115, 0.9382745520027328, 0.9584416844052094,
    0.9747285559713095, 0.987040496015809, 0.9951872199970213,
    0.999201056021875,
)
_GK_WK = (
    0.06410046376926672, 0.06396962624137635, 0.06357487871297242,
    0.06291711226969811, 0.062004001419781275, 0.06083803487312786,
    0.059416543245952094, 0.057748675375690034, 0.05585171510306332,
    0.05372794550175132, 0.05137195138345764, 0.048801386753259055,
    0.04604589177656383, 0.04310592819369527, 0.039967623893622184,
    0.03665810024221296, 0.033227378319829574, 0.029671306090659117,
    0.025951194661374105, 0.02210408490006189, 0.01823117855038727,
    0.014327444630883845, 0.010259786409280762, 0.006025671015720144,
    0.002152308550946222,
)
_GK_WG = (
    0.12793819534675216, 0.1258374563468283, 0.12167047292780339,
    0.1155056680537256, 0.10744427011596563, 0.09761865210411388,
    0.08619016153195327, 0.0733464814110803, 0.05929858491543678,
    0.04427743881741981, 0.028531388628933663, 0.0123412297999872,
)


def _mirrored(half) -> np.ndarray:
    """Values at the 49 nodes from those at the 25 non-negative ones."""
    return np.concatenate([half[:0:-1], half])


def _gk_rule() -> tuple:
    """The 49 nodes, their Kronrod weights, and per node (K49 weight - G24
    weight) / K49 weight, which turns the Kronrod-weighted integrand into
    the error estimate K49 - G24."""
    gauss = np.zeros(25)
    gauss[1::2] = _GK_WG
    weights = _mirrored(np.array(_GK_WK))
    return (np.concatenate([-np.array(_GK_X[:0:-1]), _GK_X]), weights,
            1.0 - _mirrored(gauss) / weights)


_GK_NODES, _GK_WEIGHTS, _GK_ERR = _gk_rule()


def _nodes(edges: np.ndarray):
    """Gauss-Kronrod abscissae tau on every panel, and the panel
    half-widths (one column) that scale their weights."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    taus = (mid[:, None] + half[:, None] * _GK_NODES).ravel()
    return taus, half[:, None]


def _halved(edges: np.ndarray) -> np.ndarray:
    """Panel edges with every panel split in two."""
    out = np.empty(2 * len(edges) - 1)
    out[::2] = edges
    out[1::2] = 0.5 * (edges[:-1] + edges[1:])
    return out


def _failed_rows(total, err, tail_bound: float) -> dict:
    """{row: reason} of every integral (normalised value total, quadrature
    error err) that is not finite or not within tolerance, the non-finite
    ones first."""
    fails = {int(r): "Mellin-Barnes integral returned non-finite value"
             for r in np.flatnonzero(~np.isfinite(total))}
    bound = err + tail_bound
    for r in np.flatnonzero(bound > 1e-7 * np.abs(total)):
        fails.setdefault(int(r), f"Mellin-Barnes integral error {bound[r]:.2e} "
                                 f"exceeds tolerance for value {total[r]:.2e}")
    return fails


def _check_converged(fails: dict) -> None:
    """Raise NonConvergentError with the first reason of `_failed_rows`, if any."""
    if fails:
        raise NonConvergentError(next(iter(fails.values())))


# Rows of one ln s bucket integrated together; bounds the rows x nodes
# work arrays whatever the grid size.
_CHUNK = 16


def meijer_g_sum(spec: MeijerGSpec, weights, lo, hi, p: float, s, pole=None):
    """sum_n weights_n <G(x^p s)>_n for every entry of s > 0, where <.>_n
    averages over ln x uniform on [ln lo_n, ln hi_n]; a point term
    (lo_n == hi_n) is weights_n G(lo_n^p s).  Returns (values, failures):
    an entry that does not converge is nan, with its reason under its flat
    index in the failures dict, which `_check_converged` raises.  An
    entry whose s is nan fails the same way.

    Since (x^p s)^t = s^t e^{pt ln x}, the sum is one Mellin-Barnes
    integral of chi(t) s^t D(t), D(t) = sum_n weights_n e^{pt ln lo_n}
    phi(t Delta_n), Delta_n = p ln(hi_n/lo_n), phi(x) = expm1(x)/x.  If G+
    is G with a numerator b = 0 and a denominator a = 1 added (a factor
    Gamma(-t)/Gamma(1-t) = -1/t), then G+(lo^p s) - G+(hi^p s) =
    Delta <G(x^p s)>: the difference's two ends cancel inside phi at every
    node, not between rounded totals.  Arguments are grouped into
    unit-width ln s buckets; each bucket places its contour at the saddle
    of the bucket's fixed centre and evaluates chi and D once per node set,
    in the integrator that `meijer_g` also uses.

    pole, a scalar or an array shaped like s, multiplies entry i's
    integrand by 1/(pole_i - t): the G of spec with one more numerator
    b = pole_i and denominator a = pole_i + 1, since Gamma(b - t)/
    Gamma(b + 1 - t) = 1/(b - t).  The bucket's contour is that of its
    smallest pole.  Without a pole, or with a scalar one, a value depends
    only on its own s, so an array call equals elementwise scalar calls.
    """
    s_arr = np.asarray(s, dtype=float)
    flat = s_arr.ravel()
    if np.any(flat <= 0.0) or np.any(np.isinf(flat)):
        raise ValueError("meijer_g_sum requires finite s > 0")
    _require_decay(spec)
    w = np.asarray(weights, dtype=float)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if np.ndim(pole):
        pole = np.broadcast_to(np.asarray(pole, dtype=float), s_arr.shape).ravel()
    lsc = p * np.log(lo)
    width = p * np.log(hi / lo)
    lns = np.log(flat)
    bucket = np.floor(lns)
    bucket[np.isnan(bucket)] = 0.0   # a nan s integrates to nan, a failed entry
    out = np.empty_like(flat)
    failures = {}
    for j in sorted(set(bucket.tolist())):   # no np.unique: it loads numpy's sort kernels
        rows = np.flatnonzero(bucket == j)
        out[rows], fails = _mb_sum(spec, w, lsc, width, float(j), float(j) + 1.0, lns[rows],
                                   pole[rows] if np.ndim(pole) else pole)
        failures.update({int(rows[r]): reason for r, reason in fails.items()})
    return (float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)), failures


def _pole_factor(pole, c: float, t):
    """(pole - c)/(pole - t): the pole's factor 1/(pole - t), 1 at t = c."""
    return (pole - c) / (pole - t)


def _mb_sum(spec: MeijerGSpec, w, lsc, width, lo: float, hi: float, lns, pole=None):
    """sum_n w_n <G(exp(ln s + x))> over x uniform on [lsc_n, lsc_n + width_n]
    at every ln s of lns, on one contour placed at the saddle of the middle
    of the range [lo, hi] of ln s, and the `_failed_rows` of the rows whose
    integral did not converge (nan there).

    pole (None, a scalar, or an array over lns) adds the factor 1/(pole - t)
    of `meijer_g_sum`.  The contour is that of spec with the smallest pole
    as one more numerator, which leaves every pole on its right.  The
    shared integrand exp(chi(t) - chi(c)) D(t) is formed once per node set
    and row i's is it times (pole_i - c)/(pole_i - t), 1 at tau = 0, so row
    i is normalised by chi(c) - log(pole_i - c); a scalar pole scales the
    shared node values once.
    """
    lnz_lo, lnz_hi = lo + lsc.min(), hi + (lsc + width).max()
    full = spec
    if pole is not None:
        b = float(np.min(pole))
        full = MeijerGSpec(spec.m + 1, spec.n, spec.a_params + (b + 1.0,),
                           spec.b_params[:spec.m] + (b,) + spec.b_params[spec.m:])
    c = _contour_abscissa(full, 0.5 * (lnz_lo + lnz_hi))
    chi_c = float(np.real(_chi_log(complex(c, 0.0), spec)))
    norm = chi_c if pole is None else chi_c - np.log(pole - c)   # one per row of an array pole
    # Normalise by a bound on the largest term's integrand at tau = 0.
    d_max = float(np.max(np.log(np.abs(w)) + c * lsc + np.maximum(c * width, 0.0)))
    rate, T, edges = _contour_extent(full, c, max(abs(lnz_lo), abs(lnz_hi)))
    per_row = np.ndim(pole) > 0

    def integrate(panel_edges, rows) -> tuple:
        """Kronrod value K49 and error estimate |K49 - G24| of each row."""
        taus, half = _nodes(panel_edges)
        t = c + 1j * taus
        x = t[:, None] * width   # phi(x) = expm1(x)/x, 1 at x = 0
        with np.errstate(invalid="ignore"):   # inf/inf: _failed_rows reports it
            phi = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0)
        d = (np.exp(t[:, None] * lsc - d_max) * phi * w).sum(axis=1)
        # the integrand at each node times its weight, in place
        vals = _chi_log(t, spec)
        vals -= chi_c
        vals = np.exp(vals, out=vals)
        vals *= d
        panels = vals.reshape(len(half), -1)
        panels *= _GK_WEIGHTS
        panels *= half
        if pole is not None and not per_row:
            vals *= _pole_factor(pole, c, t)
        total, diff = np.empty(len(rows)), np.empty(len(rows))
        for i in range(0, len(rows), _CHUNK):
            chunk = rows[i:i + _CHUNK]
            row_vals = vals
            if per_row:
                row_vals = vals * _pole_factor(pole[chunk, None], c, t)
            # Re[row_vals exp(i tau ln s)], summed row by row
            phase = lns[chunk, None] * taus[None, :]
            re = np.cos(phase)
            re *= row_vals.real
            im = np.sin(phase, out=phase)
            im *= row_vals.imag
            re -= im
            total[i:i + _CHUNK] = re.sum(axis=1)
            panels = re.reshape(len(chunk), len(half), -1)
            panels *= _GK_ERR
            diff[i:i + _CHUNK] = re.sum(axis=1)
        return total, np.abs(diff)

    total, err = integrate(edges, np.arange(len(lns)))
    refine = np.flatnonzero(err > np.maximum(_EPS_REL * 10 * np.abs(total), 1e-13))
    if refine.size:   # the same rule on halved panels
        fine, _ = integrate(_halved(edges), refine)
        err[refine] = np.abs(fine - total[refine])
        total[refine] = fine
    fails = _failed_rows(total, err, np.exp(-rate * T) / rate)
    good = np.ones(len(lns), dtype=bool)
    good[list(fails)] = False
    out = np.full(len(lns), np.nan)
    out[good] = np.exp((norm + c * lns)[good] + d_max) * total[good] / np.pi
    return out, fails


@lru_cache(maxsize=4096)
def _meijer_cached(m, n, a, b, z):
    return meijer_g(MeijerGSpec(m, n, a, b), z)


def meijer_g_cached(m: int, n: int, a, b, z: float) -> float:
    """Memoized meijer_g.  No channel model calls it; it stays for the
    benchmark, whose tracer counts its calls and whose probes clear its
    cache."""
    return _meijer_cached(int(m), int(n), tuple(a), tuple(b), float(z))

