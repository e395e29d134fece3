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
set.  `meijer_g_sum` calls it once per unit-width ln bucket of its
arguments, such as the strong-regime sector sums; `meijer_g` calls it
with one unit point term, on a contour at the saddle of its own argument.
The contour abscissa comes from bisection on the analytic (digamma) slope
of the integrand's logarithm.
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

# Target relative accuracy of the Mellin-Barnes quadrature: when the 24-
# and 48-node panel sums differ by more than ten times this, it refines
# to 96 nodes.
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


def _chi_log(t, spec: MeijerGSpec):
    """log of the Mellin-Barnes gamma ratio at complex contour point(s) t."""
    t = np.asarray(t, dtype=complex)
    val = np.zeros_like(t)
    a, b, m, n = spec.a_params, spec.b_params, spec.m, spec.n
    for bj in b[:m]:
        val = val + sp.loggamma(bj - t)
    for ai in a[:n]:
        val = val + sp.loggamma(1.0 - ai + t)
    for bj in b[m:]:
        val = val - sp.loggamma(1.0 - bj + t)
    for ai in a[n:]:
        val = val - sp.loggamma(ai - t)
    return val


def _contour_abscissa(spec: MeijerGSpec, lnz: float) -> float:
    """Pick the real abscissa of the vertical contour.

    The contour must leave the poles of Gamma(b_j - t) on its right and
    those of Gamma(1 - a_i + t) on its left.  Within the admissible range
    we place it at the minimum of |integrand| (the real saddle), which
    keeps the oscillatory cancellation bounded even when the result is
    exponentially small.  The saddle is found by bisection on the sign of
    the analytic slope d/dc [Re log chi(c) + c ln z], a sum of digammas;
    a slope of one sign throughout leaves c at that end of the range.
    """
    m, n, a, b = spec.m, spec.n, spec.a_params, spec.b_params
    hi = min(b[:m]) if m else np.inf
    lo = max(ai - 1.0 for ai in a[:n]) if n else -np.inf
    # Gamma arguments off + sgn c, numerator gammas first, and d/dc of
    # their log-gammas' signed sum: coef psi(off + sgn c).
    off = np.array(b[:m] + tuple(1.0 - ai for ai in a[:n])
                   + tuple(1.0 - bj for bj in b[m:]) + a[n:])
    sgn = np.repeat([-1.0, 1.0, 1.0, -1.0], [m, n, spec.q - m, spec.p - n])
    coef = np.repeat([-1.0, 1.0, -1.0, 1.0], [m, n, spec.q - m, spec.p - n])

    def slope(c):
        return float(np.dot(coef, sp.digamma(off + sgn * c))) + lnz

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
    for v in b + a:
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
    return float(_mb_sum(spec, np.ones(1), np.zeros(1), np.zeros(1), lnz, lnz,
                         np.array([lnz]))[0])


@lru_cache(maxsize=8)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


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


def _nodes(edges: np.ndarray, n_nodes: int):
    """Gauss-Legendre abscissae tau on every panel, with the node weights
    (one row) and panel half-widths (one column) that scale them."""
    x, w = _gl_nodes(n_nodes)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    taus = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    return taus, w[None, :], half[:, None]


def _check_converged(total, err, tail_bound: float) -> None:
    """Raise NonConvergentError unless every integral (normalised value
    total, quadrature error err) is finite and within tolerance."""
    total, err = np.atleast_1d(total), np.atleast_1d(err)
    if not np.all(np.isfinite(total)):
        raise NonConvergentError("Mellin-Barnes integral returned non-finite value")
    bad = np.flatnonzero(err + tail_bound > 1e-7 * np.abs(total))
    if bad.size:
        raise NonConvergentError(
            f"Mellin-Barnes integral error {err[bad[0]] + tail_bound:.2e} "
            f"exceeds tolerance for value {total[bad[0]]:.2e}"
        )


# Rows of one ln s bucket integrated together; bounds the rows x nodes
# work arrays whatever the grid size.
_CHUNK = 128


def meijer_g_sum(spec: MeijerGSpec, weights, lo, hi, p: float, s):
    """sum_n weights_n <G(x^p s)>_n for every entry of s > 0, where <.>_n
    averages over ln x uniform on [ln lo_n, ln hi_n]; a point term
    (lo_n == hi_n) is weights_n G(lo_n^p s).

    Since (x^p s)^t = s^t e^{pt ln x}, the sum is one Mellin-Barnes
    integral of chi(t) s^t D(t), D(t) = sum_n weights_n e^{pt ln lo_n}
    phi(t Delta_n), Delta_n = p ln(hi_n/lo_n), phi(x) = expm1(x)/x.  If G+
    is G with a numerator b = 0 and a denominator a = 1 added (a factor
    Gamma(-t)/Gamma(1-t) = -1/t), then G+(lo^p s) - G+(hi^p s) =
    Delta <G(x^p s)>: the difference's two ends cancel inside phi at every
    node, not between rounded totals.  Arguments are grouped into
    unit-width ln s buckets; each bucket places its contour at the saddle
    of the bucket's fixed centre (a value depends only on its own s, so an
    array call equals elementwise scalar calls) and evaluates chi and D
    once per node set, in the integrator that `meijer_g` also uses.
    """
    s_arr = np.asarray(s, dtype=float)
    flat = s_arr.ravel()
    if not np.all(np.isfinite(flat) & (flat > 0.0)):
        raise ValueError("meijer_g_sum requires finite s > 0")
    _require_decay(spec)
    w = np.asarray(weights, dtype=float)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    lsc = p * np.log(lo)
    width = p * np.log(hi / lo)
    lns = np.log(flat)
    bucket = np.floor(lns)
    out = np.empty_like(flat)
    for j in np.unique(bucket):
        rows = np.flatnonzero(bucket == j)
        out[rows] = _mb_sum(spec, w, lsc, width, float(j), float(j) + 1.0, lns[rows])
    return float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)


def _mb_sum(spec: MeijerGSpec, w, lsc, width, lo: float, hi: float, lns) -> np.ndarray:
    """sum_n w_n <G(exp(ln s + x))> over x uniform on [lsc_n, lsc_n + width_n]
    at every ln s of lns, on one contour placed at the saddle of the middle
    of the range [lo, hi] of ln s."""
    lnz_lo, lnz_hi = lo + lsc.min(), hi + (lsc + width).max()
    c = _contour_abscissa(spec, 0.5 * (lnz_lo + lnz_hi))
    chi_c = float(np.real(_chi_log(complex(c, 0.0), spec)))
    # Normalise by a bound on the largest term's integrand at tau = 0.
    d_max = float(np.max(np.log(np.abs(w)) + c * lsc + np.maximum(c * width, 0.0)))
    rate, T, edges = _contour_extent(spec, c, max(abs(lnz_lo), abs(lnz_hi)))

    def integrate(n_nodes: int, ls) -> np.ndarray:
        taus, gl, half = _nodes(edges, n_nodes)
        t = c + 1j * taus
        x = t[:, None] * width   # phi(x) = expm1(x)/x, 1 at x = 0
        with np.errstate(invalid="ignore"):   # inf/inf: _check_converged raises for it
            phi = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0)
        d = (np.exp(t[:, None] * lsc - d_max) * phi * w).sum(axis=1)
        vals = np.exp(_chi_log(t, spec) - chi_c) * d
        vals = (vals.reshape(len(half), -1) * gl * half).ravel()
        total = np.empty(len(ls))
        for i in range(0, len(ls), _CHUNK):
            # Re[vals exp(i tau ln s)], summed row by row
            phase = ls[i:i + _CHUNK, None] * taus[None, :]
            total[i:i + _CHUNK] = (np.cos(phase) * vals.real
                                   - np.sin(phase) * vals.imag).sum(axis=1)
        return total

    i1 = integrate(24, lns)
    total = integrate(48, lns)
    err = np.abs(total - i1)
    refine = np.flatnonzero(err > np.maximum(_EPS_REL * 10 * np.abs(total), 1e-13))
    if refine.size:
        i3 = integrate(96, lns[refine])
        err[refine] = np.abs(i3 - total[refine])
        total[refine] = i3
    _check_converged(total, err, np.exp(-rate * T) / rate)
    return np.exp(chi_c + c * lns + d_max) * total / np.pi


@lru_cache(maxsize=4096)
def _meijer_cached(m, n, a, b, z):
    return meijer_g(MeijerGSpec(m, n, a, b), z)


def meijer_g_cached(m: int, n: int, a, b, z: float) -> float:
    """Memoized meijer_g.  No channel model calls it; it stays for the
    benchmark, whose tracer counts its calls and whose probes clear its
    cache."""
    return _meijer_cached(int(m), int(n), tuple(a), tuple(b), float(z))

