"""Workload definitions and output checks for the mrrlink benchmark.

A workload is a fixed list of CLI steps, each one `mrrlink.cli.main(argv)`
call writing into a scratch directory.  The benchmark seed is passed to
every step as `--seed`; nothing else about the inputs depends on it.

Why these three workloads:

* ``strong-grid`` -- Gamma-Gamma pdf/cdf/outage at many abscissae that
  share one Meijer-G parameter set (fig8, fig9, fig10).  Meijer-G is
  ~90% of its time; a batched or vectorised contour shows here.
* ``design-maps`` -- the optimizer, the outage map and the weak-regime
  recipes.  The Meijer-G parameter set changes on nearly every call and
  each set sees few abscissae, and the Rytov quadrature in
  ``turbulence_stats`` runs once per configuration.  A batched
  evaluator that pays a per-set cost up front must not lose here.
* ``mc-oracle`` -- the Monte-Carlo oracle (fig7, fig13, mc-tables and a
  Gamma-Gamma sweep from ``mc_oracle.cfg``).  MC passes dominate and
  closed forms are a few percent: the bypass for Meijer-G work and the
  target for single-pass MC and a faster Gamma-Gamma sampler.

Known defects these workloads exercise.  They are counted (as
``check.tolerance_flags``), never worked around:

* fig8 raises two KS flags.  ``experiments._grid_point_rows`` builds its
  ``SimPlan`` without ``spec.regime``, so at Cn2=5e-14 (Rytov variance
  0.989) the MC draws log-normal fading while the analytic side is
  Gamma-Gamma.
* fig7 raises flags on its 8 deg curve.
* ``cli.cmd_run`` reads ``args.seed if args.seed else <config seed>``, so
  ``--seed 0`` cannot override a seed set in the config.  For that
  reason ``mc_oracle.cfg`` sets no seed.

Output checks, per step:

* operations are the step itself plus its grid points (one sweep value
  of one curve, one heatmap cell, one optimizer run, one mc-tables row);
* a point fails when it is missing, has a non-finite value, or one of its
  analytic values differs from the committed reference by more than
  ``REL_TOL``; each sidecar ``errors`` entry counts as one more failure;
* analytic values placed at MC-derived abscissae (the fig7/fig8
  distribution curves and the fig13 log-normal) depend on the seed and
  are not compared with the reference; the MC-vs-analytic flags cover
  them, and the ``strong.pdf_grid80`` probe checks the strong pdf on a
  fixed grid.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
MC_ORACLE_CONFIG = HERE / "mc_oracle.cfg"

WORKLOADS = ("strong-grid", "design-maps", "mc-oracle")

# Largest accepted relative deviation of an analytic output from the
# committed reference.  CSV values carry 12 significant digits.
REL_TOL = 1e-9
# Below this magnitude a probability is compared absolutely.
ABS_FLOOR = 1e-300

_STRONG = "Cn2=1e-13"


@dataclass(frozen=True)
class Step:
    name: str
    kind: str        # recipe | run | optimize | heatmap | mc-tables
    argv: tuple      # CLI arguments without --seed/--out/--workers
    samples: int | None = None


def steps(workload: str, tiny: bool = False) -> list[Step]:
    """The CLI steps of one workload.  `tiny` divides MC sample counts by 100 (at least 1e4)."""

    def mc(n: int) -> int:
        return max(n // 100, 10_000) if tiny else n

    if workload == "strong-grid":
        return [
            Step("fig8", "recipe", ("recipe", "fig8"), mc(100_000)),
            Step("fig9", "recipe", ("recipe", "fig9")),
            Step("fig10", "recipe", ("recipe", "fig10")),
        ]
    if workload == "design-maps":
        out = []
        for regime, extra in (("weak", ()), ("strong", ("--set", _STRONG))):
            out += [
                Step(f"optimize-outage-{regime}", "optimize",
                     ("optimize", "--objective", "outage", *extra)),
                Step(f"optimize-ber-{regime}", "optimize",
                     ("optimize", "--objective", "ber", *extra)),
                Step(f"heatmap-{regime}", "heatmap", ("heatmap", *extra)),
            ]
        out += [Step(n, "recipe", ("recipe", n)) for n in ("fig11", "fig12", "fig14", "fig15")]
        return out
    if workload == "mc-oracle":
        return [
            Step("fig7", "recipe", ("recipe", "fig7"), mc(400_000)),
            Step("fig13", "recipe", ("recipe", "fig13"), mc(400_000)),
            Step("mc-tables", "mc-tables", ("mc-tables",), mc(200_000)),
            Step("run", "run", ("run", str(MC_ORACLE_CONFIG)),
                 mc(200_000) if tiny else None),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def step_argv(step: Step, seed: int, outdir: Path) -> list[str]:
    argv = [*step.argv, "--seed", str(seed), "--workers", "1",
            "--out", str(outdir / step.name)]
    if step.samples is not None:
        argv += ["--samples", str(step.samples)]
    return argv


def output_files(step: Step, outdir: Path) -> list[Path]:
    base = outdir / step.name
    if step.kind in ("recipe", "run"):
        return [base, Path(f"{base}.json")]
    if step.kind == "mc-tables":
        return [Path(f"{base}_moments.csv"), Path(f"{base}_sectors.csv")]
    return [base]


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _sweep_rows(path: Path):
    """Rows of a sweep CSV as dicts.

    `write_outputs` does not quote fields, and some recipe labels hold a
    comma (fig11: "sigma_e=100urad,sigma_o=2deg"), so the label is
    whatever lies between the two leading and the seven trailing fields.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        head, tail = header[:2], header[3:]
        for line in fh:
            f = line.rstrip("\n").split(",")
            row = dict(zip(head, f[:2]))
            row.update(zip(tail, f[len(f) - len(tail):]))
            row[header[2]] = ",".join(f[2:len(f) - len(tail)])
            yield row


def extract(step: Step, outdir: Path) -> dict:
    """Points, analytic values, non-finite points, flags and errors of one step.

    Analytic values are keyed so that the keys do not depend on the seed.
    """
    points: set[str] = set()
    bad: set[str] = set()
    values: dict[str, float] = {}
    flags: list = []
    errors: list = []
    files = output_files(step, outdir)
    if step.kind in ("recipe", "run"):
        for row in _sweep_rows(files[0]):
            point = f"{row['label']}|{row['sweep_value']}"
            points.add(point)
            if not _finite(row["value"]):
                bad.add(point)
            elif row["engine"] == "analytic" and row["metric"] in ("outage", "ber"):
                values[f"{point}|{row['metric']}"] = float(row["value"])
        meta = json.loads(files[1].read_text(encoding="utf-8"))
        flags = list(meta.get("flags", []))
        errors = list(meta.get("errors", []))
    elif step.kind == "heatmap":
        with open(files[0], newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)[1:]
            for row in reader:
                for wz, cell in zip(header, row[1:]):
                    point = f"{row[0]}|{wz}"
                    points.add(point)
                    if _finite(cell):
                        values[point] = float(cell)
                    else:
                        bad.add(point)
    elif step.kind == "optimize":
        out = json.loads(files[0].read_text(encoding="utf-8"))
        points.add("opt")
        for key in ("theta_opt_mrad", "value"):
            v = out[key]
            if isinstance(v, (int, float)) and math.isfinite(v):
                values[f"opt|{key}"] = float(v)
            else:
                bad.add("opt")
    elif step.kind == "mc-tables":
        for table, path in zip(("moments", "sectors"), files):
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                next(reader)
                for row in reader:
                    point = f"{table}|{row[0]}"
                    points.add(point)
                    if not all(_finite(c) for c in row[1:]):
                        bad.add(point)
    else:
        raise ValueError(step.kind)
    return {"points": sorted(points), "bad": sorted(bad), "values": values,
            "flags": flags, "errors": errors}


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), ABS_FLOOR)


def digest(step: Step, outdir: Path) -> str:
    """One hash over every byte the step wrote, for the bit-identity check."""
    h = hashlib.sha256()
    for path in output_files(step, outdir):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check(step: Step, outdir: Path, reference: dict) -> dict:
    """Compare one step's outputs with its reference entry."""
    got = extract(step, outdir)
    ref_points = reference["points"]
    failed_points = set(got["bad"]) | (set(ref_points) - set(got["points"]))
    max_err = 0.0
    for key, ref in reference["values"].items():
        point = key.rsplit("|", 1)[0] if step.kind in ("recipe", "run", "optimize") else key
        if key not in got["values"]:
            failed_points.add(point)
            continue
        err = rel_err(got["values"][key], ref)
        max_err = max(max_err, err)
        if err > REL_TOL:
            failed_points.add(point)
    n_points = len(ref_points)
    return {
        "attempted": 1 + n_points,
        "failed": min(n_points, len(failed_points) + len(got["errors"])),
        "tolerance_flags": len(got["flags"]),
        "analytic_max_rel_err": max_err,
        "analytic_compared": len(reference["values"]),
        "digest": digest(step, outdir),
    }


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))
