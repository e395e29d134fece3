"""The benchmark's tracer (perfbench/tracer.py) wraps mrrlink functions by
name at every import site, and its kernel probes (perfbench/probes.py) call
mrrlink functions directly.  Renaming or removing one of them breaks
`perfbench/run.py --trace 1`; these guards fail first."""

import importlib.util
import sys
from pathlib import Path

import pytest

import mrrlink.experiments as experiments
import mrrlink.montecarlo as montecarlo
from mrrlink.channel import LinkConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_passes_per_point():
    original = montecarlo.draw_channel
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        assert montecarlo.draw_channel is not original
        # the orientation jitter moves h, so each grid point has its own h,
        # drawn in one pass with the log-normal fading shared
        spec = experiments.ExperimentSpec(
            LinkConfig(), "sigma_theta_o", (0.035, 0.087), metrics=("outage", "ber", "cdf_h"),
            engines=("montecarlo",), n_samples=5_000, bins=10)
        experiments.run_experiment(spec)
    finally:
        tracer.uninstall()
    assert montecarlo.draw_channel is original
    metrics = tracer.layer_metrics()
    assert metrics["montecarlo.passes_per_point"] == 0.5
    assert metrics["montecarlo.samples"] == 5_000


def test_tracer_counts_one_pass_per_pt_curve():
    # a transmit-power curve draws h once, outside its grid points
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        spec = experiments.ExperimentSpec(
            LinkConfig(), "Pt", (0.01, 0.1), metrics=("outage", "ber", "cdf_h"),
            engines=("montecarlo",), n_samples=5_000, bins=10)
        experiments.run_experiment(spec)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["montecarlo.passes_per_point"] == 0.5
    assert metrics["montecarlo.samples"] == 5_000


def test_tracer_counts_gamma_gamma_samples():
    # the tracer wraps montecarlo._fading_pair and reads args[0].fading
    # and len(args[1]); a change of that call shape fails here first
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        spec = experiments.ExperimentSpec(
            LinkConfig(cn2_0=1e-13), "Pt", (0.01, 0.1, 1.0), metrics=("outage",),
            engines=("montecarlo",), regime="strong", n_samples=montecarlo.BLOCK + 5_000)
        experiments.run_experiment(spec)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["montecarlo.samples"] == montecarlo.BLOCK + 5_000   # one draw per P_t curve
    assert metrics["montecarlo.samples_per_s.gammagamma"] > 0.0
    assert metrics["montecarlo.samples_per_s.lognormal"] == 0.0


def test_tracer_times_a_shared_pass():
    # two P_t curves that share (seed, n_samples) draw in one draw_channel
    # call; the tracer times that call, so their fading has a rate
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        specs = [experiments.ExperimentSpec(
            LinkConfig(sigma_theta_o=jitter), "Pt", (0.01, 0.1), metrics=("outage",),
            engines=("montecarlo",), n_samples=5_000, seed=3) for jitter in (0.035, 0.14)]
        experiments.run_experiments(specs)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["montecarlo.passes_per_point"] == 0.25   # one pass, four points
    assert metrics["montecarlo.samples"] == 5_000           # one fading draw for both
    assert metrics["montecarlo.self_s"] > 0.0
    assert metrics["montecarlo.samples_per_s.lognormal"] > 0.0


def test_probes_reach_their_kernels():
    probes = load("probes")
    k, h = probes.pdf_grid80_case()
    assert len(h) == 80 and k.pdf_h(h[40]) > 0.0
    probes.specfun._meijer_cached.cache_clear()
    spec, zs = probes.MEIJER_PROBES["G60_26"]
    assert probes.specfun.meijer_g(spec, zs[0]) > 0.0
    plan = probes.SimPlan(LinkConfig(cn2_0=1e-13), n_samples=1_000, seed=0,
                          fading=probes.FadingModel.GAMMA_GAMMA)
    h_block, gamma_block = next(probes.sample_channel(plan))
    assert len(h_block) == len(gamma_block) == 1_000


def test_exported_names_resolve():
    """Each name in a module's `__all__` exists (the tracer reads
    `strong.__all__`/`weak.__all__` by getattr), and each name the package
    re-exports is listed in the `__all__` of the module defining it."""
    import importlib
    import inspect
    import pkgutil

    import mrrlink

    for info in pkgutil.iter_modules(mrrlink.__path__):
        module = importlib.import_module(f"mrrlink.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"mrrlink.{info.name}.__all__ lists missing names {missing}"
    for name, value in vars(mrrlink).items():
        if name.startswith("_") or inspect.ismodule(value):
            continue
        home = importlib.import_module(value.__module__)
        assert name in home.__all__, f"mrrlink.{name} is not in {value.__module__}.__all__"


WORKLOADS = load("workloads")


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_benchmark_outputs_pass_its_check(workload, tmp_path, capsys):
    """The benchmark's correctness gate at its tiny sizes: every step of a
    workload, run through the CLI at seed 0, has no failed point and its
    analytic values lie within REL_TOL of the committed reference."""
    from mrrlink.cli import main

    reference = WORKLOADS.load_reference(workload)
    for step in WORKLOADS.steps(workload, tiny=True):
        # exit status 2 means tolerance flags, which the check counts
        assert main(WORKLOADS.step_argv(step, 0, tmp_path)) in (0, 2), step.name
        result = WORKLOADS.check(step, tmp_path, reference[step.name])
        assert result["failed"] == 0, (step.name, result)
        assert result["analytic_max_rel_err"] <= WORKLOADS.REL_TOL, (step.name, result)


def test_pdf_grid80_probe_matches_its_reference():
    metrics = {}
    load("probes").pdf_grid80(metrics)
    assert metrics["strong.pdf_grid80.rel_err_ref"] <= 1e-9
