"""Benchmark of mrrlink: CLI workloads, output checks and per-layer trace.

    python3 perfbench/run.py --workload strong-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; mrrlink is imported from its
`src/`.  Each repetition runs the workload's CLI steps (see
`workloads.py`) in a fresh interpreter, one closed-loop client with
`--workers 1`, so program caches start cold as they do for every CLI
invocation.  A repetition is started while at least half of it, judged by
the median repetition so far, fits in `--seconds`; at least one always
runs.

`--trace 0` reports the end-to-end metrics: the work time of the run's
slowest repetition (`wall_s`, set-up excluded), the median set-up time
(`setup_s`, interpreter start until `import mrrlink.cli` returns) and the
median peak resident memory (`peak_rss_mb`).

Why the slowest repetition: on the shared host the CPU mostly runs at
the speed of a busy machine, with stretches of tens of seconds to minutes
in which it is up to 1.5x faster.  A run's median follows those fast
stretches whenever they cover half of the run; the slowest repetition
follows the common busy speed and moves only when nearly the whole run
is fast.  Over ten 40 s runs per workload on 2 vCPUs of a shared Xeon
host, the slowest repetition spread by 6-10% (IQR over median) where the
median repetition spread by 8-20%.

`--trace 1` alternates untraced and traced repetitions and then runs the
kernel probes (`probes.py`) in their own interpreter.  It reports the
per-layer metrics of the traced repetitions (see `tracer.py`), the probe
metrics, the output checks, and `trace.overhead_s`: traced minus
untraced median `wall_s`.

Every repetition's outputs are checked (see `workloads.py`); each step's
output bytes must also be identical in every repetition of a run.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Machine details, every
repetition and the trace spans go to `.perfbench_out/` in the checkout.

Figures come from a 2-core shared host; one repetition varies by about
+-20%, so every timing is taken over several repetitions.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

NOTE = "2 cores, shared host; one repetition varies +-20%"
CHILD_TIMEOUT_S = 170
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")

CHECKS = ("check.tolerance_flags", "check.analytic_max_rel_err", "check.failed_ratio")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loadavg_start": os.getloadavg(),
        "note": NOTE,
    }


def repetition(args, traced: bool, spans: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scratch", str(OUT)]
    if traced:
        cmd += ["--trace-spans", str(spans)]
    if args.tiny:
        cmd.append("--tiny")
    start = monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    end = monotonic()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep.pop("ready") - start
    rep["traced"] = traced
    rep["elapsed_s"] = end - start
    return rep


def probes(args) -> dict:
    cmd = [sys.executable, str(HERE / "probes.py")] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probes exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = (f"median {statistics.median(values):.4f}, "
            f"slowest {max(values):.4f} (n={n})")
    if n >= 11:
        pct = 100 * (n - 10) // n
        cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
        text += f", p{pct} {cut:.4f}"
    else:
        text += f", max {max(values):.4f} (n<11: no percentile has ten samples beyond it)"
    return text


def check_reps(reps: list) -> dict:
    """Sum the per-step checks and require identical output bytes across reps."""
    attempted = failed = 0
    flags, max_err = [], 0.0
    first = {}
    for rep in reps:
        rep_flags = 0
        for name, st in rep["steps"].items():
            attempted += st["attempted"]
            fail = st["failed"]
            if "digest" in st:
                first.setdefault(name, st["digest"])
                if st["digest"] != first[name]:
                    st["error"] = "outputs differ from the run's first repetition"
                    fail = st["attempted"]
                max_err = max(max_err, st["analytic_max_rel_err"])
                rep_flags += st["tolerance_flags"]
            failed += fail
            if fail:
                print(f"failed: {name}: {st.get('error', f'{fail} operations')}",
                      file=sys.stderr)
        flags.append(rep_flags)
    return {"attempted": attempted, "failed": failed,
            "check.tolerance_flags": statistics.median(flags),
            "check.analytic_max_rel_err": max_err,
            "check.failed_ratio": failed / attempted}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="MC sample counts / 100, for the smoke test")
    args = p.parse_args()

    if not (ROOT / "src" / "mrrlink" / "cli.py").is_file():
        print(f"no mrrlink source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    info = machine()
    print("machine: " + json.dumps(info, sort_keys=True), flush=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"

    reps = []
    start = monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = repetition(args, traced, spans)
        reps.append(rep)
        print(f"rep {len(reps)}{' traced' if traced else ''}: wall_s {rep['wall_s']:.4f} "
              f"cpu_s {rep['cpu_s']:.4f} setup_s {rep['setup_s']:.4f} "
              f"peak_rss_mb {rep['peak_rss_mb']:.1f}", flush=True)
        if args.trace and len(reps) < 2:
            continue
        est = statistics.median(r["elapsed_s"] for r in reps)
        if monotonic() - start + est / 2 > args.seconds:
            break

    checks = check_reps(reps)
    plain = [r for r in reps if not r["traced"]]
    walls = [r["wall_s"] for r in plain]
    print(f"wall_s: {tail(walls)}")
    print(f"setup_s: {tail([r['setup_s'] for r in reps])}")
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values.update(probes(args))
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(walls))
        values.update({name: checks[name] for name in CHECKS})
    else:
        values = {"wall_s": max(walls),
                  "setup_s": statistics.median(r["setup_s"] for r in reps),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    units = declared_units()
    for name in CHECKS:
        print(f"{name}: {checks[name]} {units[name]}")
    out = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    info["loadavg_end"] = os.getloadavg()
    result = {"correct": checks["failed"] == 0, "attempted": checks["attempted"],
              "failed": checks["failed"], "metrics": out}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"machine": info, "repetitions": reps, "result": result},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"loadavg: start {info['loadavg_start']} end {info['loadavg_end']}; {NOTE}")
    print(json.dumps(result))
    return 0


def declared_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
