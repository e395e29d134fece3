"""Property tests at the CLI boundary: any link value a user can type ends in
a usage error, a model failure named in the errors, or finite output, and
any `run` grid range ends in a sweep or a usage error naming its line.

Commands x link keys x values from {0, -1, 1e-300 ... 1e300}, with tiny
sample counts and 2x2 heatmaps.  Every run must exit 0, 1 or 2 without a
traceback, and every non-finite CSV value must belong to a point or cell
that an error names.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from mrrlink.cli import main
from mrrlink.config import LINK_KEYS
from mrrlink.recipes import RECIPES

_MAP = ("heatmap", "--sigma-e-points", "2", "--w-z-points", "2")
COMMANDS = {
    **{name: ("recipe", name) for name in RECIPES},
    "optimize-outage": ("optimize",),
    "optimize-ber": ("optimize", "--objective", "ber"),
    "heatmap-outage": _MAP,
    "heatmap-ber": (*_MAP, "--metric", "ber"),
    "heatmap-strong": (*_MAP, "--regime", "strong"),
}
# Monte-Carlo recipes run at a desk-check sample count
_SAMPLES = {"fig7": ("--samples", "2000"), "fig8": ("--samples", "2000")}

VALUES = st.one_of(st.sampled_from(["0", "-1"]),
                   st.integers(-300, 300).map(lambda e: f"1e{e}"))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:   # argparse's usage error
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _unnamed_sweep_values(path):
    """Rows of a sweep CSV whose value is not finite and whose point no
    sidecar error names."""
    with open(path + ".json", encoding="utf-8") as fh:
        errors = json.load(fh)["errors"]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    rows = []
    for line in lines:   # a label may hold a comma: the other columns fix it
        fields = line.split(",")
        axis, point, label, value = fields[0], fields[1], ",".join(fields[2:-7]), fields[-4]
        rows.append((f"[{label}] {axis}={float(point):g}:", value))
    return [(where, value) for where, value in rows if not math.isfinite(float(value or "nan"))
            and not any(e.startswith(where) for e in errors)]


def _unnamed_cells(path, stderr):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        wz = next(reader)[1:]
        cells = [(se, w, v) for se, *vals in reader for w, v in zip(wz, vals)]
    return [(se, w) for se, w, v in cells if not math.isfinite(float(v))
            and f"error: sigma_e={float(se):g}urad w_z={float(w):g}m:" not in stderr]


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
@seed(20261019)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(COMMANDS)), key=st.sampled_from(sorted(LINK_KEYS)),
       value=VALUES)
def test_any_link_value_ends_cleanly(command, key, value):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = [*COMMANDS[command], *_SAMPLES.get(command, ()),
                "--set", f"{key}={value}", "--out", out]
        status, stdout, stderr = _run(argv)
        assert status in (0, 1, 2), (argv, status, stderr)
        assert "Traceback" not in stderr
        if status != 0 and not os.path.exists(out):
            return
        if command.startswith("heatmap"):
            assert _unnamed_cells(out, stderr) == [], argv
        elif command.startswith("optimize"):
            result = json.loads(stdout)
            assert math.isfinite(result["value"]) and math.isfinite(result["theta_opt_mrad"]), argv
        else:
            assert _unnamed_sweep_values(out) == [], argv


GRID_ENDS = st.sampled_from(["0", "1", "-1", "1e300", "-1e300", "1e308", "-1e308"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
@seed(20261020)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(start=GRID_ENDS, stop=GRID_ENDS, count=st.sampled_from(["0", "1", "2.5", "4"]),
       spacing=st.sampled_from(["", "lin", "log"]), unit=st.sampled_from(["", "W", "dBm"]))
def test_any_run_grid_range_ends_cleanly(start, stop, count, spacing, unit):
    # counts stay small: each example sweeps at most 4 analytic outages
    grid = f"{start}:{stop}:{count} {spacing} {unit}".strip()
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "sweep.cfg"), os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(f"sweep = Pt\nmetrics = outage\nengines = analytic\ngrid = {grid}\n")
        status, _, stderr = _run(["run", cfg, "--out", out])
        assert "Traceback" not in stderr
        if status == 2:   # a usage error naming the grid's line, nothing written
            assert f"error: {cfg}: line 4: " in stderr, (grid, stderr)
            assert not os.path.exists(out), grid
            return
        assert status == 0, (grid, status, stderr)
        if os.path.exists(out):
            assert _unnamed_sweep_values(out) == [], grid
