"""Special-function kernels used by the analytical channel models.

Everything here is a pure function of its arguments.  The elementary
kernels (Q-function, log Q, log erfc, modified Bessel K) wrap the
well-tested scipy implementations; the Meijer G-function is evaluated by
direct numerical Mellin-Barnes integration because the orders needed by
the channel statistics (up to G^{10,2}_{4,11} with repeated parameters) are
outside what series-based evaluators handle reliably.

`meijer_g` evaluates one G at one argument.  `meijer_g_sum` evaluates a
weighted sum of one G at scaled arguments, such as the strong-regime
sector sums, as a single integral for a whole array of arguments:
arguments in the same unit-width ln bucket share one contour and one
evaluation of the gamma ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sp
from scipy.optimize import minimize_scalar

from .errors import InvalidOrderError, MismatchedLengthsError, NonConvergentError

__all__ = [
    "q_function",
    "log_q",
    "log_erfc",
    "bessel_k",
    "MeijerGSpec",
    "meijer_g",
    "meijer_g_sum",
    "interp_table",
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


def bessel_k(nu: float, x):
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    Even in nu; positive and decreasing in x.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("bessel_k requires x > 0")
    out = sp.kv(nu, x)
    return float(out) if out.ndim == 0 else out


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
    exponentially small.
    """
    hi = min(spec.b_params[: spec.m]) if spec.m else np.inf
    lo = max(ai - 1.0 for ai in spec.a_params[: spec.n]) if spec.n else -np.inf

    def g(c):
        return float(np.real(_chi_log(complex(c, 0.0), spec)) + c * lnz)

    if np.isfinite(lo) and np.isfinite(hi):
        if hi - lo <= 1e-12:
            raise InvalidOrderError("no admissible contour between pole families")
        band = hi - lo
        res = minimize_scalar(
            g, bounds=(lo + 0.05 * band, hi - 0.05 * band), method="bounded",
            options={"xatol": 1e-8},
        )
        c = float(res.x)
    else:
        # One side unbounded: expand away from the bounded edge until the
        # saddle is bracketed, then minimize.
        if np.isfinite(hi):
            edge, sgn = hi - 1e-3, -1.0
        else:
            edge, sgn = lo + 1e-3, 1.0
        w = 1.0
        while g(edge + sgn * 2 * w) < g(edge + sgn * w) and w < 1e8:
            w *= 2
        lo_b, hi_b = sorted((edge, edge + sgn * 2 * w))
        res = minimize_scalar(g, bounds=(lo_b, hi_b), method="bounded",
                              options={"xatol": 1e-8})
        c = float(res.x)
    # Keep clear of any exact pole of the numerator/denominator gammas.
    for v in spec.b_params + spec.a_params:
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

    Integrates along a saddle-anchored vertical contour; repeated
    parameters are harmless there because the contour never approaches
    the poles.
    """
    if z <= 0.0 or not np.isfinite(z):
        raise ValueError("meijer_g requires finite z > 0")
    _require_decay(spec)
    return _mellin_barnes(spec, float(z))


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
    bad = np.flatnonzero(err + tail_bound > np.maximum(1e-7 * np.abs(total), 1e-13))
    if bad.size:
        raise NonConvergentError(
            f"Mellin-Barnes integral error {err[bad[0]] + tail_bound:.2e} "
            f"exceeds tolerance for value {total[bad[0]]:.2e}"
        )


def _mellin_barnes(spec: MeijerGSpec, z: float) -> float:
    lnz = np.log(z)
    c = _contour_abscissa(spec, lnz)
    log_peak = float(np.real(_chi_log(complex(c, 0.0), spec)) + c * lnz)
    rate, T, edges = _contour_extent(spec, c, abs(lnz))

    def integrate(n_nodes: int) -> float:
        taus, w, half = _nodes(edges, n_nodes)
        t = c + 1j * taus
        vals = np.exp(_chi_log(t, spec) + t * lnz - log_peak).real
        return float(np.sum(vals.reshape(len(half), -1) * w * half))

    i1 = integrate(24)
    i2 = integrate(48)
    err = abs(i2 - i1)
    total = i2
    if err > max(_EPS_REL * 10 * abs(total), 1e-13):
        i3 = integrate(96)
        err = abs(i3 - i2)
        total = i3
    _check_converged(total, err, np.exp(-rate * T) / rate)
    return float(np.exp(log_peak) * total / np.pi)


# Rows of one ln s bucket integrated together; bounds the rows x nodes
# work arrays whatever the grid size.
_CHUNK = 128


def meijer_g_sum(spec: MeijerGSpec, weights, scales, p: float, s):
    """sum_n weights_n G(scales_n^p s) for every entry of s > 0.

    Since (scales_n^p s)^t = s^t scales_n^{pt}, the whole sum is one
    Mellin-Barnes integral of chi(t) s^t D(t) with D(t) = sum_n weights_n
    scales_n^{pt}, so differences of terms cancel inside the integrand
    instead of between separately rounded integrals.  Arguments are
    grouped into unit-width ln s buckets; each bucket places its contour
    at the saddle of the bucket's fixed centre (a value depends only on
    its own s, so an array call equals elementwise scalar calls) and
    evaluates chi and D once per node set.  Every value passes the same
    refinement and tolerance checks as `meijer_g`.
    """
    s_arr = np.asarray(s, dtype=float)
    flat = s_arr.ravel()
    if not np.all(np.isfinite(flat) & (flat > 0.0)):
        raise ValueError("meijer_g_sum requires finite s > 0")
    _require_decay(spec)
    w = np.asarray(weights, dtype=float)
    lsc = p * np.log(np.asarray(scales, dtype=float))
    lns = np.log(flat)
    bucket = np.floor(lns)
    out = np.empty_like(flat)
    for j in np.unique(bucket):
        rows = np.flatnonzero(bucket == j)
        out[rows] = _bucket_sum(spec, w, lsc, float(j), lns[rows])
    return float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)


def _bucket_sum(spec: MeijerGSpec, w, lsc, j: float, lns) -> np.ndarray:
    """meijer_g_sum at every ln s in [j, j + 1), on one shared contour."""
    lnz_lo, lnz_hi = j + lsc.min(), j + 1.0 + lsc.max()
    c = _contour_abscissa(spec, 0.5 * (lnz_lo + lnz_hi))
    chi_c = float(np.real(_chi_log(complex(c, 0.0), spec)))
    # Normalise by the largest term's integrand at tau = 0.
    d_max = float(np.max(np.log(np.abs(w)) + c * lsc))
    rate, T, edges = _contour_extent(spec, c, max(abs(lnz_lo), abs(lnz_hi)))

    def integrate(n_nodes: int, ls) -> np.ndarray:
        taus, gl, half = _nodes(edges, n_nodes)
        t = c + 1j * taus
        d = (np.exp(t[:, None] * lsc[None, :] - d_max) * w).sum(axis=1)
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


def interp_table(xs, ys, x):
    """Piecewise-linear interpolation, clamped at the table endpoints."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise MismatchedLengthsError(
            f"xs and ys must be 1-D and equal length, got {xs.shape} vs {ys.shape}"
        )
    if xs.size < 2:
        raise MismatchedLengthsError("need at least two table nodes")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be strictly increasing")
    out = np.interp(x, xs, ys)
    return float(out) if np.ndim(x) == 0 else out
