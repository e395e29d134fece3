"""Regenerate the committed reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Runs every workload step once at seed 0 and stores, per step, its grid
points and its seed-independent analytic values; also stores the
80-point strong pdf of the `strong.pdf_grid80` probe.  Regenerate only
when a change is meant to alter analytic outputs, and say so.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mrrlink.cli  # noqa: E402

import probes  # noqa: E402
import workloads  # noqa: E402
from mrrlink import strong  # noqa: E402


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        ref = {}
        with tempfile.TemporaryDirectory() as tmp:
            for step in workloads.steps(workload):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = mrrlink.cli.main(workloads.step_argv(step, 0, Path(tmp)))
                if code not in (0, 2):
                    raise SystemExit(f"{workload}/{step.name} exited {code}")
                got = workloads.extract(step, Path(tmp))
                if got["bad"] or got["errors"]:
                    raise SystemExit(f"{workload}/{step.name} has failures: {got}")
                ref[step.name] = {"points": got["points"], "values": got["values"]}
        path = workloads.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    k, h = probes.pdf_grid80_case()
    pdf = [float(v) for v in strong.pdf_h_strong(h, k)]
    path = workloads.REFERENCE_DIR / "pdf_grid80.json"
    path.write_text(json.dumps({"h": [float(x) for x in h], "pdf": pdf}, indent=1) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
