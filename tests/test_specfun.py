"""Special-function kernel tests.

Expected values are frozen from independent oracles: mpmath at 30
digits for erfc/K_nu/Q, and closed forms where they exist.  K_nu itself
comes from scipy.special.kv where a test needs it at many points.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from mrrlink.errors import InvalidOrderError
from mrrlink.specfun import (
    MeijerGSpec,
    log_erfc,
    meijer_g,
    meijer_g_sum,
    q_function,
)

# mpmath 30-dps oracle values
Q_AT_1 = 0.15865525393145705
ERFC_AT_1 = 0.15729920705028513
LOG_ERFC_AT_30 = -903.97411711064386
K1_AT_2 = 0.13986588181652243
K_HALF_AT_1 = 0.46106850444789456


def mpmath_meijer(spec: MeijerGSpec, z: float) -> float:
    """The same G-function from mpmath at 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.meijerg([spec.a_params[:spec.n], spec.a_params[spec.n:]],
                                    [spec.b_params[:spec.m], spec.b_params[spec.m:]], z))


class TestQFunction:
    def test_symmetry_at_zero(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_tail_underflows_gracefully(self):
        assert q_function(40.0) < 1e-300

    def test_oracle_value(self):
        assert q_function(1.0) == pytest.approx(Q_AT_1, rel=1e-13)

    @given(st.floats(-8, 8))
    @settings(max_examples=200, deadline=None)
    def test_complement(self, x):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-12)


class TestErf:
    """log_erfc, the erfc kernel of the weak BER series (two branches at 0)."""

    def test_erf_odd_at_zero(self):
        # erf(0) = 0 from either side: both branches give log erfc = 0
        assert log_erfc(0.0) == 0.0
        assert log_erfc(-1e-300) == pytest.approx(0.0, abs=1e-15)

    def test_erfc_at_zero(self):
        assert math.exp(log_erfc(0.0)) == 1.0

    def test_erfc_oracle(self):
        assert math.exp(log_erfc(1.0)) == pytest.approx(ERFC_AT_1, rel=1e-13)
        # erfc(30) underflows; its logarithm does not
        assert log_erfc(30.0) == pytest.approx(LOG_ERFC_AT_30, rel=1e-13)

    @given(st.floats(-6, 6))
    @settings(max_examples=100, deadline=None)
    def test_sum_identity(self, x):
        # erf odd <=> erfc(x) + erfc(-x) = 2
        assert math.exp(log_erfc(x)) + math.exp(log_erfc(-x)) == pytest.approx(2.0, abs=1e-12)


def bessel_g(nu, x):
    """2 K_nu(x) from the Meijer-G evaluator: G^{2,0}_{0,2}(x^2/4 | nu/2, -nu/2)."""
    return meijer_g(MeijerGSpec(2, 0, (), (nu / 2, -nu / 2)), x * x / 4)


class TestBesselK:
    """The Bessel-K case of the Meijer-G evaluator."""

    def test_half_order_closed_form(self):
        assert bessel_g(0.5, 1.0) == pytest.approx(2 * math.sqrt(math.pi / 2) / math.e, rel=1e-10)
        assert bessel_g(0.5, 1.0) == pytest.approx(2 * K_HALF_AT_1, rel=1e-10)

    def test_oracle_value(self):
        assert bessel_g(1.0, 2.0) == pytest.approx(2 * K1_AT_2, rel=1e-10)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.3])
    @pytest.mark.parametrize("x", [0.1, 1.0, 7.0, 20.0])
    def test_even_in_order(self, nu, x):
        assert bessel_g(-nu, x) == pytest.approx(2 * sp.kv(nu, x), rel=1e-8)

    def test_decreasing_in_x(self):
        vals = [bessel_g(1.3, x) for x in np.linspace(0.2, 10, 40)]
        assert np.all(np.diff(vals) < 0)

    def test_domain_error(self):
        spec = MeijerGSpec(2, 0, (), (0.5, -0.5))
        with pytest.raises(ValueError):
            meijer_g_sum(spec, (1.0,), (1.0,), (1.0,), 1, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            meijer_g_sum(spec, (1.0,), (1.0,), (1.0,), 1, -2.0)

    def test_nan_argument_is_a_failed_entry(self):
        # a link whose statistics are nan reaches the kernel as a nan s
        spec = MeijerGSpec(2, 0, (), (0.5, -0.5))
        values, fails = meijer_g_sum(spec, (1.0,), (1.0,), (1.0,), 1, np.array([1.0, np.nan]))
        assert values[0] == meijer_g_sum(spec, (1.0,), (1.0,), (1.0,), 1, 1.0)[0]
        assert np.isnan(values[1])
        assert fails == {1: "Mellin-Barnes integral returned non-finite value"}


def _series_bessel_k(nu, x, terms=60):
    """Independent oracle: K_nu from the ascending I_nu series, nu non-integer."""
    from scipy.special import gamma as G

    def besseli(v, z):
        return sum((z / 2) ** (2 * k + v) / (math.factorial(k) * G(v + k + 1))
                   for k in range(terms))

    return math.pi / 2 * (besseli(-nu, x) - besseli(nu, x)) / math.sin(math.pi * nu)


def test_bessel_series_oracle():
    for nu in (0.3, 0.5, 1.4):
        for x in (0.5, 2.0, 5.0):
            assert bessel_g(nu, x) == pytest.approx(2 * _series_bessel_k(nu, x), rel=1e-8)


class TestMeijerG:
    @pytest.mark.parametrize("lo,hi,p,s", [
        (1.0, 3.0, 1, 0.5),
        (1.0, 1.0 + 1e-6, 1, 2.0),
        (0.5, 2.0, 2, 1.5),
        (2.0, 2.0 + 1e-9, 2, 0.3),
    ])
    def test_interval_term_is_pole_cancelled_difference(self, lo, hi, p, s):
        # G^{1,0}_{0,1}(z|0) = e^{-z}; with b = 0 and a = 1 added it is
        # E1(z), so Delta <e^{-x^p s}> = E1(lo^p s) - E1(hi^p s)
        spec = MeijerGSpec(1, 0, (), (0.0,))
        got, fails = meijer_g_sum(spec, (p * math.log(hi / lo),), (lo,), (hi,), p, s)
        assert fails == {}
        with mpmath.workdps(40):
            want = float(mpmath.e1(mpmath.mpf(lo) ** p * s) - mpmath.e1(mpmath.mpf(hi) ** p * s))
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_exponential_identity(self):
        spec = MeijerGSpec(1, 0, (), (0.0,))
        assert meijer_g(spec, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-10, abs=0)
        for z in np.geomspace(1e-3, 400, 14):
            assert meijer_g(spec, float(z)) == pytest.approx(math.exp(-z), rel=1e-8, abs=0)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.3])
    def test_bessel_identity(self, nu):
        spec = MeijerGSpec(2, 0, (), (nu / 2, -nu / 2))
        for x in np.geomspace(0.1, 20, 9):
            want = 2.0 * sp.kv(nu, float(x))
            assert meijer_g(spec, float(x * x / 4)) == pytest.approx(want, rel=1e-8, abs=0)

    def test_bessel_identity_example(self):
        spec = MeijerGSpec(2, 0, (), (0.5, -0.5))
        assert meijer_g(spec, 1.0) == pytest.approx(2 * K1_AT_2, rel=1e-10, abs=0)

    def test_q_identity(self):
        spec = MeijerGSpec(2, 0, (1.0,), (0.0, 0.5))
        assert meijer_g(spec, 0.5) == pytest.approx(2 * math.sqrt(math.pi) * Q_AT_1,
                                                    rel=1e-10, abs=0)
        for x in np.geomspace(0.05, 20, 11):  # z = x^2/2 up to 200
            want = 2 * math.sqrt(math.pi) * float(q_function(x))
            assert meijer_g(spec, float(x * x / 2)) == pytest.approx(want, rel=1e-8, abs=0)

    def test_repeated_parameters_against_mpmath(self):
        # strong-turbulence channel kernel: alpha-1 and beta-1 each appear twice
        alpha, beta, K = 4.1, 2.0, 16.0
        spec = MeijerGSpec(6, 0, (K, 1.0),
                           (0.0, alpha - 1, beta - 1, K - 1, alpha - 1, beta - 1))
        for z in (0.5, 5.0, 80.0):
            assert meijer_g(spec, z) == pytest.approx(mpmath_meijer(spec, z), rel=1e-10, abs=0)

    def test_cdf_kernel_integral_relation(self):
        # h G^{6,1}_{3,7}(h) must equal the integral of G^{6,0}_{2,6} up to h
        from scipy.integrate import quad

        alpha, beta, K = 4.557, 2.536, 19.75
        pdf = MeijerGSpec(6, 0, (K, 1.0),
                          (0.0, alpha - 1, beta - 1, K - 1, alpha - 1, beta - 1))
        cdf = MeijerGSpec(6, 1, (0.0, K, 1.0),
                          (0.0, alpha - 1, beta - 1, K - 1, alpha - 1, beta - 1, -1.0))
        for h in (0.3, 2.0, 30.0):
            want, _ = quad(lambda x: meijer_g(pdf, x), 0, h, limit=300)
            got = h * meijer_g(cdf, h)
            assert got == pytest.approx(want, rel=1e-7, abs=0)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrderError):
            MeijerGSpec(2, 0, (), (0.0,))          # m > q
        with pytest.raises(InvalidOrderError):
            MeijerGSpec(0, 2, (0.0,), (1.0,))      # n > p
        with pytest.raises(InvalidOrderError):
            MeijerGSpec(1, 1, (2.0,), (0.0,))      # a - b = 2: coincident poles

    def test_domain(self):
        spec = MeijerGSpec(1, 0, (), (0.0,))
        with pytest.raises(ValueError):
            meijer_g(spec, 0.0)
        with pytest.raises(ValueError):
            meijer_g(spec, -1.0)


def test_non_decaying_contour_rejected():
    from mrrlink.errors import NonConvergentError

    # m + n <= (p + q)/2: the vertical-contour integrand does not decay
    spec = MeijerGSpec(0, 1, (0.5,), (0.0,))
    with pytest.raises(NonConvergentError):
        meijer_g(spec, 2.0)


def test_rounding_level_total_refused():
    from mrrlink.errors import NonConvergentError
    from mrrlink.specfun import _check_converged

    # e^{-400} on the bucket-centre contour: the normalised total (-1.1e-13)
    # is below its own error estimate's tolerance, not a value
    value, fails = meijer_g_sum(MeijerGSpec(1, 0, (), (0.0,)), (1,), (1,), (1,), 1, 400.0)
    assert math.isnan(value) and list(fails) == [0]
    with pytest.raises(NonConvergentError, match="exceeds tolerance"):
        _check_converged(fails)


# -- the Mellin-Barnes kernel: Gauss-Kronrod table, factor list, batches

def _laurie_kronrod(n: int):
    """Gauss-Kronrod 2n+1 nodes and weights for Legendre weight on [-1, 1]
    from Laurie's algorithm (Math. Comp. 66, 1997; as in Gautschi's OPQ
    `r_kronrod`) and the eigen-decomposition of the Jacobi-Kronrod matrix."""
    size = 2 * n + 1
    a, b = np.zeros(size), np.zeros(size)
    k = np.arange(1, (3 * n + 1) // 2 + 1)
    b[0] = 2.0
    b[k] = k * k / (4.0 * k * k - 1.0)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        l = m - k
        s[k + 1] = np.cumsum((a[k + n + 1] - a[l]) * t[k + 1] + b[k + n + 1] * s[k]
                             - b[l] * s[k + 1])
        s, t = t, s
    j = np.arange(n // 2, -1, -1)
    s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        l = m - k
        j = n - 1 - l
        s[j + 1] = np.cumsum(-(a[k + n + 1] - a[l]) * t[j + 1] - b[k + n + 1] * s[j + 1]
                             + b[l] * s[j + 2])
        j, k = j[-1], (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    off = np.sqrt(b[1:])
    x, vec = np.linalg.eigh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    return x, b[0] * vec[0] ** 2


class TestGaussKronrodTable:
    """The kernel's 49-node rule, held as constants in `specfun`."""

    @pytest.fixture(scope="class")
    def rule(self):
        from mrrlink import specfun

        x, wk = specfun._GK_NODES, specfun._GK_WEIGHTS
        wg = wk * (1.0 - specfun._GK_ERR)   # 0 at the Kronrod-only nodes
        return x, wk, wg

    def test_gauss_nodes_are_embedded(self, rule):
        x, _, wg = rule
        assert len(x) == 49 and np.all(np.diff(x) > 0)
        assert np.all(wg[0::2] == 0.0)
        gx, gw = np.polynomial.legendre.leggauss(24)
        np.testing.assert_allclose(x[1::2], gx, rtol=0, atol=1e-15)
        np.testing.assert_allclose(wg[1::2], gw, rtol=0, atol=3e-15)

    def test_weights_sum_to_two(self, rule):
        _, wk, wg = rule
        assert math.fsum(wk) == pytest.approx(2.0, abs=1e-14)
        assert math.fsum(wg) == pytest.approx(2.0, abs=1e-14)

    def test_kronrod_degree_is_73(self, rule):
        x, wk, _ = rule
        for k in range(74):
            want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(math.fsum(wk * x ** k) - want) <= 1e-14, k
        # x^74 is the first power it misses (by ~1e-25 in exact arithmetic)
        exact74 = mpmath.fsum(mpmath.mpf(w) * mpmath.mpf(v) ** 74 for w, v in zip(wk, x))
        assert abs(exact74 - mpmath.mpf(2) / 75) > 1e-20

    def test_matches_laurie_algorithm(self, rule):
        x, wk, _ = rule
        lx, lw = _laurie_kronrod(24)
        np.testing.assert_allclose(x, lx, rtol=0, atol=1e-14)
        np.testing.assert_allclose(wk, lw, rtol=0, atol=1e-14)


def _strong_parameters():
    """(alpha, beta, K) of the strong recipes fig8-fig10, the heatmap cell
    with K = 0.0625 < 1, and K = alpha + 1, where the BER spec's (K-1)/2
    equals its alpha/2."""
    from mrrlink.channel import LinkConfig
    from mrrlink.experiments import _constants_for, apply_axis
    from mrrlink.recipes import build_recipe

    out = set()
    for name in ("fig8", "fig9", "fig10"):
        for spec in build_recipe(name):
            k, _ = _constants_for(apply_axis(spec.base, spec.sweep_axis, spec.grid[0]),
                                  spec.regime)
            out.add((k.alpha, k.beta, k.K))
    cell = apply_axis(LinkConfig(cn2_0=1e-13), "w_z", 0.1).with_(sigma_theta_e=400e-6)
    k, _ = _constants_for(cell, None)
    out.add((k.alpha, k.beta, k.K))
    a, b, _ = min(out)
    out.add((a, b, a + 1.0))
    return sorted(out)


def _strong_specs(alpha, beta, K):
    """The pdf, CDF and BER specs of `strong` with their pointing pair: one
    more numerator K - 1 (BER (K - 1)/2) and denominator K (BER (K + 1)/2)."""
    a, b = alpha, beta
    return {"pdf": MeijerGSpec(5, 0, (K,), (a - 1, b - 1, K - 1, a - 1, b - 1)),
            "cdf": MeijerGSpec(5, 1, (0.0, K), (a - 1, b - 1, K - 1, a - 1, b - 1, -1.0)),
            "ber": MeijerGSpec(9, 2, (0.5, 0.0, (K + 1.0) / 2.0),
                               ((a - 1) / 2, (a - 1) / 2, a / 2, a / 2, (b - 1) / 2,
                                (b - 1) / 2, b / 2, b / 2, (K - 1) / 2, -0.5))}


def _reduced_specs(alpha, beta):
    """The three specs `strong` evaluates, the pointing pair a pole."""
    from types import SimpleNamespace

    from mrrlink import strong

    k = SimpleNamespace(alpha=alpha, beta=beta)
    return {"pdf": strong._pdf_spec(k), "cdf": strong._cdf_spec(k), "ber": strong._ber_spec(k)}


def _mp_chi_log(t, spec):
    """The gamma ratio's logarithm, one mpmath loggamma per parameter."""
    m, n, a, b = spec.m, spec.n, spec.a_params, spec.b_params
    return (mpmath.fsum(mpmath.loggamma(bj - t) for bj in b[:m])
            + mpmath.fsum(mpmath.loggamma(1 - ai + t) for ai in a[:n])
            - mpmath.fsum(mpmath.loggamma(1 - bj + t) for bj in b[m:])
            - mpmath.fsum(mpmath.loggamma(ai - t) for ai in a[n:]))


class TestFactorList:
    """The gamma ratio as merged loggamma powers and linear factors."""

    @pytest.mark.parametrize("form,gammas,linear", [("pdf", 2, 1), ("cdf", 2, 2),
                                                    ("ber", 5, 2)])
    def test_loggammas_per_node(self, form, gammas, linear):
        from mrrlink import specfun

        # a recipe's (alpha, beta, K); 6, 8 and 12 loggammas as one per
        # parameter.  The reduced spec costs the same loggammas, and its
        # pointing pair's linear factor is the pole instead.
        a, b, K = 4.407870409488623, 2.5830328302950276, 16.0
        g, lin = specfun._plan(_strong_specs(a, b, K)[form])
        assert (len(g), len(lin)) == (gammas, linear)
        pair = ((K - 1.0) / (2.0 if form == "ber" else 1.0), -1.0, -1)   # 1/(pole - t)
        assert pair in lin
        g_reduced, lin_reduced = specfun._plan(_reduced_specs(a, b)[form])
        assert sorted(g_reduced) == sorted(g)
        assert sorted(lin_reduced) == sorted(set(lin) - {pair})

    @pytest.mark.parametrize("params", _strong_parameters(), ids=lambda p: f"K={p[2]:.4g}")
    def test_against_mpmath_loggamma_sums(self, params):
        from mrrlink import specfun

        taus = np.linspace(0.0, 80.0, 17)
        specs = [*_strong_specs(*params).items(), *_reduced_specs(*params[:2]).items()]
        for form, spec in specs:
            c = specfun._contour_abscissa(spec, 0.0)
            got = specfun._chi_log(c + 1j * taus, spec)
            with mpmath.workdps(40):
                for tau, chi in zip(taus, got):
                    t = mpmath.mpc(c, tau)
                    # relative error of exp(chi), without forming exp(chi)
                    rel = abs(mpmath.expm1(mpmath.mpc(chi) - _mp_chi_log(t, spec)))
                    assert rel <= 1e-12, (form, spec.m, tau, float(rel))


class TestBatchEqualsPoints:
    """An array call within one ln bucket equals its elementwise scalar
    calls bit for bit, over more entries than one work chunk."""

    @pytest.fixture(scope="class")
    def case(self):
        a, b, K = 4.407870409488623, 2.5830328302950276, 16.000000000000004
        spec = MeijerGSpec(4, 1, (0.0,), (a - 1, b - 1, a - 1, b - 1, -1.0))
        V = np.linspace(0.3, 1.0, 9)
        terms = (np.linspace(1.0, 2.0, 8) * np.log(V[1:] / V[:-1]), 1.0 / V[1:], 1.0 / V[:-1])
        s = np.exp(np.linspace(2.02, 2.98, 21))   # one unit ln bucket
        return spec, terms, s, K

    def test_without_pair(self, case):
        from mrrlink import specfun

        spec, terms, s, K = case
        assert len(s) > specfun._CHUNK
        full = MeijerGSpec(5, 1, (0.0, K), (*spec.b_params[:4], K - 1.0, -1.0))
        whole, fails = meijer_g_sum(full, *terms, 1, s)
        assert fails == {}
        assert np.array_equal(whole, [meijer_g_sum(full, *terms, 1, float(v))[0] for v in s])

    def test_with_pole(self, case):
        # one pole per entry against the scalar pole of scalar calls
        spec, terms, s, K = case
        whole, fails = meijer_g_sum(spec, *terms, 1, s, pole=np.full(len(s), K - 1.0))
        assert fails == {}
        points = [meijer_g_sum(spec, *terms, 1, float(v), pole=K - 1.0) for v in s]
        assert all(f == {} for _, f in points)
        assert np.array_equal(whole, [v for v, _ in points])
        # the pole is the linear factor 1/(K - 1 - t) of the full spec's ratio
        full = MeijerGSpec(5, 1, (0.0, K), (*spec.b_params[:4], K - 1.0, -1.0))
        np.testing.assert_allclose(whole, meijer_g_sum(full, *terms, 1, s)[0], rtol=1e-11)


class TestPole:
    """A pole call equals the G with the pointing pair in its spec, per point."""

    @pytest.mark.parametrize("params", _strong_parameters(), ids=lambda p: f"K={p[2]:.4g}")
    def test_cdf_pole_equals_full_spec(self, params):
        # K = 0.0625 (heatmap cell (7, 0)) puts the pole K - 1 left of 0
        a, b, K = params
        s = np.geomspace(0.05, 400.0, 9) * max(K, 1.0)
        got, fails = meijer_g_sum(_reduced_specs(a, b)["cdf"], (1.0,), (1.0,), (1.0,), 1, s,
                                  pole=np.full(len(s), K - 1.0))
        assert fails == {}
        want = [meijer_g(_strong_specs(a, b, K)["cdf"], float(v)) for v in s]
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)

    def test_rows_with_different_poles(self):
        # one bucket of rows at K = 0.0625, 1.39 and 16: the contour is that
        # of the smallest pole, and each row matches its own full spec
        a, b = 3.9926786222805255, 1.7143271703021024
        Ks = np.array([0.0625, 1.3924, 16.0, 0.0625, 16.0])
        s = np.exp(np.linspace(0.1, 0.9, len(Ks)))
        got, fails = meijer_g_sum(_reduced_specs(a, b)["cdf"], (1.0,), (1.0,), (1.0,), 1, s,
                                  pole=Ks - 1.0)
        assert fails == {}
        want = [meijer_g(_strong_specs(a, b, K)["cdf"], float(v)) for K, v in zip(Ks, s)]
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)
