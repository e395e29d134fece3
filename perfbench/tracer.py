"""Span tracing of mrrlink from outside the package.

`Tracer.install()` replaces the public functions of each `mrrlink` module
at every import site (every module attribute bound to the same function
object), so calls made through `from .x import f` bindings are seen too.
Each call records a span (name, start, end, parent, extra) in memory;
`layer_metrics()` turns the spans into per-layer counts and self times,
where a span's self time is its duration minus that of its child spans.

Two functions are counted but not timed: `montecarlo.sample_channel` is a
generator, so its calls count MC passes, and `montecarlo._fading_pair`
counts drawn samples per fading model.  MC time is taken from the spans
of the functions that consume the generator.  A rate whose workload does
no such work (say, Gamma-Gamma samples/s where only log-normal fading is
drawn) reads 0.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

MC_CONSUMERS = ("draw_channel", "mc_outage", "mc_ber")
FADINGS = ("lognormal", "gammagamma")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, extra]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, extra=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = extra
        self.stack.pop()

    def timed(self, name, fn, extra=None):
        """Wrap fn in a span; extra(args, kwargs) sets the span's extra."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx, extra(args, kwargs) if extra else None)

        return wrapper

    def _mc_consumer(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = {f: self.counts[f"samples.{f}"] for f in FADINGS}
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx, {f: self.counts[f"samples.{f}"] - before[f] for f in FADINGS})

        return wrapper

    def _counted(self, key, fn, amount=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key(args) if callable(key) else key] += (
                amount(args) if amount else 1)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------

    def _wrappers(self) -> dict:
        """Map each original function to its tracing wrapper."""
        from mrrlink import channel, experiments, montecarlo, mrr, recipes, specfun, strong, weak

        def points(args, kwargs):
            return int(np.size(args[0]))

        def one(args, kwargs):
            return 1

        def has_mc(args, kwargs):
            return int("montecarlo" in args[0].engines)

        def hmrr_n(args, kwargs):
            return args[1] if len(args) > 1 else kwargs["n"]

        def written(args, kwargs):
            path = args[1] if len(args) > 1 else kwargs["path"]
            return sum(os.path.getsize(p) for p in (path, f"{path}.json") if os.path.exists(p))

        w = {
            specfun.meijer_g: self.timed("specfun.meijer_g", specfun.meijer_g),
            specfun.meijer_g_cached: self.timed("specfun.meijer_g_cached",
                                                specfun.meijer_g_cached),
            channel.turbulence_stats: self.timed("channel.turbulence_stats",
                                                 channel.turbulence_stats),
            montecarlo.sample_channel: self._counted("passes", montecarlo.sample_channel),
            montecarlo._fading_pair: self._counted(
                lambda a: f"samples.{a[0].fading.value}", montecarlo._fading_pair,
                lambda a: len(a[1])),
            mrr.sample_hmrr: self.timed("mrr.sample_hmrr", mrr.sample_hmrr, hmrr_n),
            experiments.write_outputs: self.timed("experiments.write_outputs",
                                                  experiments.write_outputs, written),
            experiments._grid_point_rows: self.timed("experiments.grid_point",
                                                     experiments._grid_point_rows, has_mc),
        }
        for name in MC_CONSUMERS:
            fn = getattr(montecarlo, name)
            w[fn] = self._mc_consumer(f"montecarlo.{name}", fn)
        for mod, names in (
            (experiments, ("run_experiment", "optimize_divergence", "heatmap",
                           "_constants_for")),
            (recipes, ("build_recipe", "build_fig13_rows")),
            (mrr, ("mrr_moments", "sector_table", "fit_sector_model")),
        ):
            for name in names:
                fn = getattr(mod, name)
                w[fn] = self.timed(f"{mod.__name__.split('.')[-1]}.{name.lstrip('_')}", fn)
        for mod in (strong, weak):
            layer = mod.__name__.split(".")[-1]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not callable(fn) or isinstance(fn, type):
                    continue
                if name.startswith(("pdf_", "cdf_")):
                    extra = points
                elif name.startswith(("outage_", "ber_")):
                    extra = one
                else:
                    extra = None
                w[fn] = self.timed(f"{layer}.{name}", fn, extra)
        return w

    def install(self) -> None:
        """Patch module attributes and module-level dispatch tables
        (such as `experiments._PDF_FNS`) that hold a traced function."""
        wrappers = self._wrappers()

        def lookup(value):
            try:
                return wrappers.get(value)
            except TypeError:            # unhashable attribute
                return None

        for modname, mod in list(sys.modules.items()):
            if not (modname == "mrrlink" or modname.startswith("mrrlink.")):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        if lookup(item) is not None:
                            self._patched.append((value, key, item))
                            value[key] = lookup(item)
                elif lookup(value) is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, lookup(value))

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._patched.clear()

    # -- output ------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "extra": extra}) + "\n")

    def layer_metrics(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_by_layer: dict[str, float] = defaultdict(float)
        self_by_name: dict[str, float] = defaultdict(float)
        dur_by_name: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent, _) in enumerate(spans):
            s = (end - start) - child[i]
            self_by_layer[name.split(".")[0]] += s
            self_by_name[name] += s
            dur_by_name[name] += end - start
            calls[name] += 1

        def layer(i):
            return spans[i][0].split(".")[0] if i >= 0 else ""

        def under(i, name):
            while i >= 0:
                if spans[i][0] == name:
                    return True
                i = spans[i][3]
            return False

        strong_points = weak_calls = mc_points = objective_evals = 0
        written = 0
        hmrr_n = 0
        mc_time = dict.fromkeys(FADINGS, 0.0)
        for i, (name, start, end, parent, extra) in enumerate(spans):
            lay = name.split(".")[0]
            if lay == "strong" and extra is not None and layer(parent) != "strong":
                strong_points += extra
            elif lay == "weak" and layer(parent) != "weak":
                weak_calls += 1
            elif name == "experiments.grid_point":
                mc_points += extra
            elif name == "experiments.constants_for" and under(parent,
                                                               "experiments.optimize_divergence"):
                objective_evals += 1
            elif name == "experiments.write_outputs":
                written += extra
            elif name == "mrr.sample_hmrr":
                hmrr_n += extra
            elif lay == "montecarlo" and extra:
                for f in FADINGS:
                    if extra[f]:
                        mc_time[f] += end - start

        evals = calls["specfun.meijer_g"]
        requests = calls["specfun.meijer_g_cached"]
        samples = {f: self.counts[f"samples.{f}"] for f in FADINGS}
        m = {
            "specfun.meijer_g.evals": evals,
            "specfun.meijer_g.requests": requests,
            "specfun.meijer_g.hit_ratio": (1.0 - evals / requests) if requests else 0.0,
            "specfun.meijer_g.self_s": self_by_layer["specfun"],
            "specfun.meijer_g.us_per_eval": (dur_by_name["specfun.meijer_g"] / evals * 1e6
                                             if evals else 0.0),
            "strong.self_s": self_by_layer["strong"],
            "strong.points": strong_points,
            "weak.self_s": self_by_layer["weak"],
            "weak.calls": weak_calls,
            "channel.turbulence_stats.calls": calls["channel.turbulence_stats"],
            "channel.turbulence_stats.self_s": self_by_layer["channel"],
            "montecarlo.samples": sum(samples.values()),
            "montecarlo.passes_per_point": (self.counts["passes"] / mc_points
                                            if mc_points else 0.0),
            "montecarlo.self_s": self_by_layer["montecarlo"],
            "mrr.sample_hmrr.samples_per_s": (hmrr_n / dur_by_name["mrr.sample_hmrr"]
                                              if hmrr_n else 0.0),
            "mrr.sample_hmrr.self_s": self_by_name["mrr.sample_hmrr"],
            "experiments.self_s": self_by_layer["experiments"],
            "experiments.optimize.objective_evals": objective_evals,
            "experiments.write_outputs.bytes": written,
            "experiments.write_outputs.s": dur_by_name["experiments.write_outputs"],
            "cli.self_s": self_by_layer["cli"],
        }
        for f in FADINGS:
            m[f"montecarlo.samples_per_s.{f}"] = (samples[f] / mc_time[f]
                                                  if mc_time[f] > 0 else 0.0)
        return m
