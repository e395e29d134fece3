"""One repetition of one benchmark workload, in a fresh interpreter.

Run by `run.py`; prints one JSON line.  Set-up ends when `mrrlink.cli` is
imported; the caller takes the start from its own CLOCK_MONOTONIC reading
before it started this process.  Only the standard library is imported
before that point, so set-up is interpreter start plus the package import.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mrrlink.cli  # noqa: E402

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402


def run_steps(steps, seed, outdir, tracer):
    """Run the CLI steps; returns (work seconds, CPU seconds, per-step status)."""
    status = {}
    sink = io.StringIO()
    cpu = time.process_time()
    start = time.perf_counter()
    for step in steps:
        argv = workloads.step_argv(step, seed, outdir)
        idx = tracer.open(f"cli.{step.name}") if tracer else None
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status[step.name] = mrrlink.cli.main(argv)
        except SystemExit as exc:          # argparse rejected the arguments
            status[step.name] = f"SystemExit({exc.code})"
        except Exception:                  # recorded as a failed step
            status[step.name] = traceback.format_exc()
        finally:
            if tracer:
                tracer.close(idx)
    return time.perf_counter() - start, time.process_time() - cpu, status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scratch", required=True, help="directory for step outputs")
    p.add_argument("--trace-spans", default=None, metavar="PATH",
                   help="trace the run and write its spans to PATH")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(mrrlink.cli.__file__).resolve().parents:
        raise SystemExit(f"imported mrrlink from {mrrlink.cli.__file__}, not {src}")

    steps = workloads.steps(args.workload, tiny=args.tiny)
    reference = workloads.load_reference(args.workload)
    tracer = None
    if args.trace_spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    outdir = Path(tempfile.mkdtemp(dir=args.scratch))
    try:
        wall, cpu, status = run_steps(steps, args.seed, outdir, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
        report = {"ready": READY, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
                  "steps": {}}
        for step in steps:
            code = status[step.name]
            if not isinstance(code, int) or code not in (0, 2):
                # 2 means "tolerance flags raised", which the check counts
                report["steps"][step.name] = {"attempted": 1, "failed": 1,
                                              "error": str(code)}
                continue
            try:
                report["steps"][step.name] = workloads.check(step, outdir,
                                                             reference[step.name])
            except (OSError, ValueError, KeyError) as exc:
                report["steps"][step.name] = {"attempted": 1, "failed": 1,
                                              "error": f"unreadable output: {exc!r}"}
        if tracer:
            report["layers"] = tracer.layer_metrics()
            tracer.write_spans(args.trace_spans)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
