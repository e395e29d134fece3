"""Numerical-integration oracles the tests compare the package against.

Each one integrates a model's defining expression with
`scipy.integrate.quad`, independently of the closed forms and samplers
it checks.  No command of the package calls them, so they live beside
the tests.
"""

import math

from scipy.integrate import quad

from mrrlink.specfun import q_function
from mrrlink.weak import WeakModelConstants, pdf_h_weak


def model_moments(sigma_theta_o: float) -> tuple[float, float]:
    """Exact (mu, sd) of the sampled reflection-coefficient product model
    by quadrature.

    A self-consistent alternative to the tabulated moments
    (`mrr.mrr_moments`): the published table differs from its own printed
    generative model by up to 0.036 in the mean at large jitter.
    """
    if sigma_theta_o == 0.0:
        return 1.0, 0.0
    s = sigma_theta_o

    def half_normal_moment(power: int) -> float:
        # E[max(0, 1 - tan theta)^power] over theta ~ |N(0, s^2)|
        def f(t):
            dens = math.sqrt(2.0 / math.pi) / s * math.exp(-t * t / (2 * s * s))
            return max(0.0, 1.0 - math.tan(t)) ** power * dens

        hi = min(math.pi / 4, 12.0 * s)   # component hits zero at pi/4
        val, _ = quad(f, 0.0, hi, epsabs=1e-14, epsrel=1e-12, limit=300)
        return val

    m1 = half_normal_moment(1)
    m2 = half_normal_moment(2)
    mu = m1 ** 3
    var = m2 ** 3 - mu ** 2
    return mu, math.sqrt(max(var, 0.0))


def ber_weak_quadrature(k: WeakModelConstants) -> float:
    """OOK bit error rate of the weak-turbulence model: the direct integral
    of Q(sqrt(gamma)) against the SNR density."""
    ln_knee = math.log(k.upsilon_1) - 2.0 * k.C5

    def f(y):
        # f_gamma(gamma) gamma = f_h(h) h / 2 under gamma = upsilon_1 h^2
        g = math.exp(y)
        h = math.sqrt(g / k.upsilon_1)
        return float(q_function(math.sqrt(g)) * pdf_h_weak(h, k) * h / 2.0)

    total = 0.0
    cuts = [-80.0, -20.0, 0.0, math.log(40.0), max(math.log(60.0), ln_knee + 10.0)]
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b > a:
            val, _ = quad(f, a, b, epsabs=1e-300, epsrel=1e-10, limit=500)
            total += val
    return total
