"""Kernel probes, run in their own fresh interpreter by `run.py --trace 1`.

* one Meijer-G evaluation of each order in use, at fixed (alpha, beta, K, z)
  points from the recipes' ranges, timed without the cache and checked
  against `mpmath.meijerg` outside the timed region;
* an 80-point strong pdf at the fig8 configuration, cold cache, checked
  against the committed reference values;
* Monte-Carlo throughput for each fading model (Gamma-Gamma forced through
  `SimPlan(fading=...)`) and `sample_hmrr` throughput.

Prints one JSON object of metrics.
"""

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

from mrrlink import specfun, strong  # noqa: E402
from mrrlink.channel import LinkConfig  # noqa: E402
from mrrlink.experiments import _constants_for  # noqa: E402
from mrrlink.montecarlo import FadingModel, SimPlan, sample_channel  # noqa: E402
from mrrlink.mrr import sample_hmrr  # noqa: E402
from mrrlink.recipes import build_recipe  # noqa: E402
from mrrlink.specfun import MeijerGSpec  # noqa: E402

import workloads  # noqa: E402

# Gamma-Gamma shapes at Cn2=5e-14 (fig8, fig10) and 1e-13 (fig9, strong
# optimizer); K of the fig8 curves and of the strong BER optimum.
_A8, _B8, _K8 = 4.4078704094886234, 2.5830328302950276, 19.753086419753085
_A13, _B13, _K13 = 3.9926786222805255, 1.7143271703021024, 1.3924

MEIJER_PROBES = {
    "G60_26": (MeijerGSpec(6, 0, (_K8, 1.0),
                           (0.0, _A8 - 1, _B8 - 1, _K8 - 1, _A8 - 1, _B8 - 1)),
               (300.0, 3000.0, 15000.0)),
    "G61_37": (MeijerGSpec(6, 1, (0.0, _K8, 1.0),
                           (0.0, _A8 - 1, _B8 - 1, _K8 - 1, _A8 - 1, _B8 - 1, -1.0)),
               (300.0, 3000.0, 15000.0)),
    "G102_411": (MeijerGSpec(10, 2, (0.5, 0.0, (_K13 + 1) / 2, 1.0),
                             (0.0, (_A13 - 1) / 2, (_A13 - 1) / 2, _A13 / 2, _A13 / 2,
                              (_B13 - 1) / 2, (_B13 - 1) / 2, _B13 / 2, _B13 / 2,
                              (_K13 - 1) / 2, -0.5)),
                 (5e-5, 3e-2, 1e3)),
}
REPEATS = 5


def _mpmath_meijer(spec: MeijerGSpec, z: float) -> float:
    with mpmath.workdps(30):
        return float(mpmath.meijerg([spec.a_params[:spec.n], spec.a_params[spec.n:]],
                                    [spec.b_params[:spec.m], spec.b_params[spec.m:]], z))


def meijer_probes(m: dict) -> None:
    for name, (spec, zs) in MEIJER_PROBES.items():
        per_point, errs = [], []
        for z in zs:
            times = []
            for _ in range(REPEATS):
                t = time.perf_counter()
                v = specfun.meijer_g(spec, z)
                times.append(time.perf_counter() - t)
            per_point.append(statistics.median(times))
            errs.append(workloads.rel_err(v, _mpmath_meijer(spec, z)))
        m[f"specfun.{name}.us"] = statistics.fmean(per_point) * 1e6
        m[f"specfun.{name}.rel_err_mpmath"] = max(errs)


def pdf_grid80_case():
    """fig8's 2 deg curve and a fixed 80-point grid over its support."""
    spec = build_recipe("fig8")[0]
    k, _ = _constants_for(spec.base, spec.regime)
    top = 20.0 * 2.0 * k.A_r * k.h_c / (math.pi * k.w_z ** 2)
    edges = np.linspace(0.0, top, 81)
    return k, 0.5 * (edges[:-1] + edges[1:])


def pdf_grid80(m: dict) -> None:
    k, h = pdf_grid80_case()
    specfun._meijer_cached.cache_clear()
    t = time.perf_counter()
    values = strong.pdf_h_strong(h, k)
    m["strong.pdf_grid80.cold_s"] = time.perf_counter() - t
    ref = json.loads((workloads.REFERENCE_DIR / "pdf_grid80.json").read_text())
    m["strong.pdf_grid80.rel_err_ref"] = max(
        workloads.rel_err(v, r) for v, r in zip(values, ref["pdf"]))


def mc_throughput(m: dict, n: int) -> None:
    cfg = LinkConfig(Z=1000.0, theta_div=0.4e-3, sigma_theta_e=100e-6,
                     sigma_theta_o=math.radians(6.0), cn2_0=1e-13)
    for label, fading in (("gg", FadingModel.GAMMA_GAMMA), ("ln", FadingModel.LOG_NORMAL)):
        plan = SimPlan(cfg, n_samples=n, seed=0, fading=fading)
        t = time.perf_counter()
        total = sum(float(h.sum()) for h, _ in sample_channel(plan))
        m[f"montecarlo.{label}_1e6.s"] = (time.perf_counter() - t) * (1e6 / n)
        if not math.isfinite(total):
            raise ArithmeticError(f"non-finite {fading.value} MC samples")
    t = time.perf_counter()
    s = sample_hmrr(math.radians(6.0), n, seed=0)
    m["mrr.sample_hmrr_1e6.s"] = (time.perf_counter() - t) * (1e6 / n)
    if not np.all(np.isfinite(s)):
        raise ArithmeticError("non-finite sample_hmrr output")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--tiny", action="store_true", help="1e4 MC samples instead of 1e6")
    args = p.parse_args()
    m: dict = {}
    meijer_probes(m)
    pdf_grid80(m)
    mc_throughput(m, 10_000 if args.tiny else 1_000_000)
    print(json.dumps(m))
    return 0


if __name__ == "__main__":
    sys.exit(main())
