"""Command-line interface.

Subcommands: run a config-file sweep (a one-curve recipe) or a named figure recipe,
optimize the divergence angle, compute the jitter/beamwidth outage map,
and regenerate the reflection-coefficient tables from simulation.
Exit status is 0 only when no analytic-vs-simulation tolerance flag was
raised during the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .channel import LinkConfig
from .config import LINK_KEYS, RawConfig, config_entries, parse_config, require_experiment_keys
from .errors import MODEL_FAILURES, ConfigError
from .experiments import (
    ExperimentSpec,
    heatmap,
    link_field,
    optimize_divergence,
    run_experiments,
    spec_meta,
    write_outputs,
)
from .montecarlo import hmrr_from_normals, mean_sd_in_place, tilt_normals
from .mrr import (
    _MIN_FIT_SAMPLES,
    _MIN_MOMENT_SAMPLES,
    _MOM_SIGMA_DEG,
    TABLE_SECTORS,
    fit_sector_model,
)
from .recipes import build_fig13_rows, build_recipe, recipe_names


def _count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _add_common(p: argparse.ArgumentParser, samples: bool, link: bool) -> None:
    """--seed, --out, --workers; --samples and --set where the command uses them."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path")
    p.add_argument("--workers", type=_count, default=1,
                   help="accepted by every command and has no effect; every command "
                        "computes in one process")
    if samples:
        p.add_argument("--samples", type=_count, default=None,
                       help="Monte-Carlo samples per grid point (default 1e6; mc-tables 5e6)")
    if link:
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a link parameter, e.g. --set 'Pt=20 dBm'")


def cmd_sweep(args) -> int:
    """Sweep `args.specs`, one curve for `run`, into one CSV and sidecar."""
    rows, flags, errors = [], [], []
    for spec, res in zip(args.specs, run_experiments(args.specs)):
        tag = f"[{spec.label}] " if spec.label else ""
        rows.extend(res.rows)
        flags.extend(tag + f for f in res.flags)
        errors.extend(tag + e for e in res.errors)
    return _finish(args, rows, {"recipe": args.name, "flags": flags, "errors": errors,
                                "curves": [spec_meta(s) for s in args.specs]})


def cmd_recipe(args) -> int:
    if args.list:
        print("\n".join(recipe_names()))
        return 0
    if args.name != "fig13":
        return cmd_sweep(args)
    n = args.samples or 1_000_000
    return _finish(args, build_fig13_rows(seed=args.seed, n_samples=n),
                   {"recipe": "fig13", "seed": args.seed, "n_samples": n})


def cmd_optimize(args) -> int:
    try:
        res = optimize_divergence(args.link, objective=args.objective,
                                  bracket=(args.bracket[0] * 1e-3, args.bracket[1] * 1e-3),
                                  regime=args.regime)
    except MODEL_FAILURES as e:   # the model failed on this link
        print(f"error: optimize {args.objective} failed: {e}", file=sys.stderr)
        return 1
    out = {
        "theta_opt_mrad": res.theta_opt * 1e3,
        "objective": args.objective,
        "value": res.value,
        "interior": res.interior,
        "message": res.message,
    }
    print(json.dumps(out, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(out, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def cmd_heatmap(args) -> int:
    se_grid = np.linspace(args.sigma_e[0] * 1e-6, args.sigma_e[1] * 1e-6, args.sigma_e_points)
    wz_grid = np.linspace(args.w_z[0], args.w_z[1], args.w_z_points)
    mat, errors = heatmap(args.link, se_grid, wz_grid, metric=args.metric, regime=args.regime)
    path = args.out or "heatmap.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sigma_theta_e_urad\\w_z_m," + ",".join(f"{w:.12g}" for w in wz_grid) + "\n")
        for se, row in zip(se_grid, mat):
            fh.write(f"{se*1e6:.12g}," + ",".join(f"{v:.12g}" for v in row) + "\n")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"wrote {path} ({mat.shape[0]}x{mat.shape[1]})")
    return 0


def cmd_mc_tables(args) -> int:
    n = args.samples
    mom_path = (args.out or "mrr_tables") + "_moments.csv"
    sec_path = (args.out or "mrr_tables") + "_sectors.csv"
    with (open(mom_path, "w", encoding="utf-8", newline="\n") as mom,
          open(sec_path, "w", encoding="utf-8", newline="\n") as sec):
        mom.write("sigma_deg,mu,sd\n")
        sec.write("sigma_deg," + ",".join(f"B{i}" for i in range(1, 9)) + "\n")
        z = tilt_normals(n, args.seed)   # one set of tilts for every jitter
        for d in _MOM_SIGMA_DEG:
            s = hmrr_from_normals(math.radians(d), z)
            model = fit_sector_model(s, 8) if d in TABLE_SECTORS else None
            mu, sd = mean_sd_in_place(s)   # overwrites s, so after the sector fit
            del s
            mom.write(f"{d:g},{mu:.6g},{sd:.6g}\n")
            if model is not None:
                sec.write(f"{d:g}," + ",".join(f"{b:.6g}" for b in model.B) + "\n")
    print(f"wrote {mom_path} and {sec_path} ({n} samples per row)")
    return 0


def _finish(args, rows: list, meta: dict) -> int:
    """Write rows and sidecar to --out, report; exit status 2 on a tolerance flag."""
    if args.out:
        write_outputs(rows, args.out, meta)
    print(f"rows: {len(rows)}")
    for e in meta.get("errors", []):
        print(f"error: {e}", file=sys.stderr)
    for f in meta.get("flags", []):
        print(f"flag: {f}", file=sys.stderr)
    if args.out:
        print(f"wrote {args.out}")
    return 2 if meta.get("flags") else 0


def _usage_problem(args) -> str | None:
    """What makes an otherwise parsed command line unusable, if anything.

    On the way it builds `args.link` (the default or config-file link with
    every --set applied) and, for `run` and `recipe`, the `args.specs` to
    sweep.  A fault on a config file's line raises `ConfigError`, which
    `main` reports as a usage error; a link that the file's values make
    invalid is a usage problem.
    """
    if args.command == "recipe":
        if args.list:
            return None
        if args.name not in recipe_names():
            return f"give a recipe name, one of: {', '.join(recipe_names())}"
        if args.name == "fig13":
            if args.set:
                return "fig13 reads no link parameter; drop --set"
            if args.samples is not None and args.samples < _MIN_MOMENT_SAMPLES:
                return f"--samples needs at least {_MIN_MOMENT_SAMPLES} for fig13's log-normal fit"
            return None
    if args.command == "optimize" and not 0 < args.bracket[0] < args.bracket[1] < math.inf:
        return "--bracket needs 0 < LO_MRAD < HI_MRAD < inf, got {:g} {:g}".format(*args.bracket)
    if args.command == "heatmap":
        for flag, span in (("--sigma-e", args.sigma_e), ("--w-z", args.w_z)):
            if not all(0 < v < math.inf for v in span):
                return (f"{flag} needs positive LO and HI, both finite, "
                        f"got {span[0]:g} {span[1]:g}")
    if args.command == "mc-tables":
        return (f"--samples needs at least {_MIN_FIT_SAMPLES} for the sector fit"
                if args.samples < _MIN_FIT_SAMPLES else None)
    base = None
    if args.command == "run":
        try:
            with open(args.spec_file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            return f"cannot read {args.spec_file}: {e.strerror}"
        args.config = parse_config(text)
        require_experiment_keys(args.config)
        out = args.config.experiment.pop("out", None)   # the default of --out
        args.out = args.out or out
        try:
            base = args.config.build_link_config()
        except ValueError as e:
            return f"{args.spec_file}: {e}"

    values, fields = {}, []
    for pair in args.set:
        try:
            raw = parse_config(pair)
        except ConfigError as e:
            return f"--set {pair!r}: {e.reason}"
        if raw.experiment or not raw.link:
            return f"--set {pair!r}: only link parameters can be set"
        values.update(raw.link)
        fields.append((pair, {link_field(t) for t in raw.link}))
    try:
        args.link = RawConfig(link=values).build_link_config(base)
        if args.command == "recipe":
            args.specs = build_recipe(args.name, args.link)
    except ValueError as e:
        return ", ".join(f"--set {pair!r}" for pair in args.set) + f": {e}"
    if args.command == "run":
        args.specs = [ExperimentSpec(base=args.link, **args.config.experiment)]
    if args.command in ("run", "recipe"):   # --seed and --samples win where given
        given = {"seed": args.seed, "n_samples": args.samples}
        given = {k: v for k, v in given.items() if v is not None}
        args.specs = [dataclasses.replace(s, **given) for s in args.specs]

    owner = _owned_fields(args)
    if args.command == "run":
        for line_no, key, _ in config_entries(text):
            f = link_field(LINK_KEYS[key][0]) if key in LINK_KEYS else None
            if f in owner:
                raise ConfigError(f"{key!r} has no effect: {owner[f]}", line_no)
    for pair, set_fields in fields:
        for f in sorted(set_fields & owner.keys()):
            return f"--set {pair!r} has no effect: {owner[f]}"
    if args.command == "optimize" and args.link.sigma_theta_e == 0:
        return "the closed forms need tracking jitter; --set sigma_theta_e above 0"
    return None


def _owned_fields(args) -> dict[str, str]:
    """Link fields the command sets itself, each with the reason."""
    if args.command == "optimize":
        return {"theta_div": "optimize searches theta_div over --bracket"}
    if args.command == "heatmap":
        return {"sigma_theta_e": "heatmap takes the tracking jitter from --sigma-e",
                "theta_div": "heatmap takes the beam width from --w-z"}
    owned = {link_field(LINK_KEYS[s.sweep_axis][0]) for s in args.specs}
    owned |= {f.name for f in dataclasses.fields(LinkConfig) for s in args.specs
              if getattr(s.base, f.name) != getattr(args.link, f.name)}
    who = f"recipe {args.name}" if args.command == "recipe" else "the config's sweep"
    return {f: f"{who} sets {f}" for f in owned}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mrrlink",
        description="Retroreflector UAV-to-ground optical link: closed-form "
                    "channel statistics, Monte-Carlo simulation and sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a sweep described by a config file")
    p.add_argument("spec_file")
    _add_common(p, samples=True, link=True)
    p.set_defaults(fn=cmd_sweep, name=None, seed=None)   # unset --seed defers to the config

    p = sub.add_parser("recipe", help="run a named figure recipe")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--list", action="store_true", help="list recipe names")
    _add_common(p, samples=True, link=True)
    p.set_defaults(fn=cmd_recipe)

    p = sub.add_parser("optimize", help="optimal divergence angle")
    p.add_argument("--objective", choices=("outage", "ber"), default="outage")
    p.add_argument("--bracket", type=float, nargs=2, default=(0.1, 2.0),
                   metavar=("LO_MRAD", "HI_MRAD"))
    p.add_argument("--regime", choices=("weak", "strong"), default=None)
    _add_common(p, samples=False, link=True)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("heatmap", help="outage over tracking jitter x beamwidth")
    p.add_argument("--metric", choices=("outage", "ber"), default="outage")
    p.add_argument("--sigma-e", type=float, nargs=2, default=(50.0, 400.0),
                   metavar=("LO_URAD", "HI_URAD"), dest="sigma_e")
    p.add_argument("--sigma-e-points", type=_count, default=8, dest="sigma_e_points")
    p.add_argument("--w-z", type=float, nargs=2, default=(0.1, 2.0),
                   metavar=("LO_M", "HI_M"), dest="w_z")
    p.add_argument("--w-z-points", type=_count, default=20, dest="w_z_points")
    p.add_argument("--regime", choices=("weak", "strong"), default=None)
    _add_common(p, samples=False, link=True)
    p.set_defaults(fn=cmd_heatmap)

    p = sub.add_parser("mc-tables", help="regenerate reflection-moment/sector tables")
    _add_common(p, samples=True, link=False)
    p.set_defaults(fn=cmd_mc_tables, samples=5_000_000)

    args = parser.parse_args(argv)
    try:
        problem = _usage_problem(args)
    except ConfigError as e:   # only `run` reads a config file
        problem = f"{args.spec_file}: {e}"
    if problem:
        sub.choices[args.command].error(problem)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
