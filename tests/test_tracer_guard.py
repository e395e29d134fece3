"""The benchmark's tracer (perfbench/tracer.py) wraps mrrlink functions by
name at every import site.  Renaming or removing a wrapped function breaks
`perfbench/run.py --trace 1`; this guard fails first."""

import importlib.util
from pathlib import Path

import mrrlink.experiments as experiments
import mrrlink.montecarlo as montecarlo
from mrrlink.channel import LinkConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_one_pass_per_point():
    original = montecarlo.draw_channel
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert montecarlo.draw_channel is not original
        spec = experiments.ExperimentSpec(
            LinkConfig(), "Pt", (0.01, 0.1), metrics=("outage", "ber", "cdf_h"),
            engines=("montecarlo",), n_samples=5_000, bins=10)
        experiments.run_experiment(spec)
    finally:
        tracer.uninstall()
    assert montecarlo.draw_channel is original
    metrics = tracer.layer_metrics()
    assert metrics["montecarlo.passes_per_point"] == 1.0
    assert metrics["montecarlo.samples"] == 2 * 5_000
