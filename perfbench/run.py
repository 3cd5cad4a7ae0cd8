"""Benchmark of the `contact-hj` CLI: one closed-loop client, oracle-checked.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; `contact_hj` is imported from its
`src/`.  A single client submits a fixed panel of seeded jobs to
`contact_hj.cli.main` one after another, in passes over the panel, for
--seconds; it grades every output row against perfbench/oracles.py and
prints, as the last line of standard output, {"correct", "attempted",
"failed", "metrics"}.  The program runs with one OpenBLAS thread and one
CLI worker thread, and a host-speed probe (hostspeed.py) runs beside it;
times are scaled to a host of nominal speed.  --trace 0 gives the
end-to-end metrics with no hooks installed; --trace 1 spends half the
time in untraced passes, then makes one pass with tracing.py's hooks and
gives the per-layer metrics plus the tracing overhead.  Lines before the
last one start with '#' and carry the stamp, every failing item and the
full report; the same record is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

# One OpenBLAS thread (set before numpy loads) and one CLI worker thread.
# With more, where the scheduler put the threads set the run time: idle
# OpenBLAS workers spin on the second vCPU, and two CLI workers hand the
# GIL back and forth.  A job's wall time then moved by 20 % with no change
# in host speed; with one thread of each it tracks the host-speed probe
# (r = 0.99) and can be scaled by it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["CONTACT_HJ_THREADS"] = "1"

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 4
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "items/s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def _import_cli():
    sys.path.insert(0, str(SRC))
    from contact_hj import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: contact_hj imported from {cli.__file__}, not {SRC}")
    return cli


def run_job(cli, job, work: Path):
    """Submit one job; returns (exit code, CSV text or None, (start, end), CPU s)."""
    cfg = work / "job.json"
    out = work / "job.csv"
    cfg.write_text(json.dumps(job.config))
    if out.exists():
        out.unlink()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        rc = cli.main([job.command, "--config", str(cfg), "--out", str(out), "--quiet"])
    except Exception:  # the client keeps going; the job's items count as failed
        traceback.print_exc(file=sys.stderr)
        rc = "exception"
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    text = out.read_text() if rc == 0 and out.exists() else None
    return rc, text, (t0, t1), cpu


def measure(cli, jobs: list, seconds: float, work: Path) -> dict:
    """Closed loop over the panel: job k+1 is submitted when job k has
    finished.  Passes over the whole panel repeat while another pass of
    the mean length still ends within `seconds`; at least one is made."""
    results, passes, cpu_s = [], [], 0.0
    start = time.perf_counter()
    while True:
        spans = []
        for job in jobs:
            rc, text, span, cpu = run_job(cli, job, work)
            results.extend(workloads.check(job, rc, text))
            spans.append(span)
            cpu_s += cpu
        passes.append(spans)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    # err_max over the first pass: deterministic for a seed.  An item
    # without a numeric error (its job failed) counts as a total miss.
    first = results[:len(results) // len(passes)]
    errs = [r.err if math.isfinite(r.err) else 1.0 for r in first
            if math.isfinite(r.err) or not r.passed]
    return {"passes": passes, "job_s": sum(b - a for p in passes for a, b in p),
            "cpu_s": cpu_s, "results": results, "attempted": len(results),
            "passed_per_pass": sum(r.passed for r in results) / len(passes),
            "err_max": max(errs) if errs else 0.0}


def rate(run: dict, speed: hostspeed.HostSpeed) -> None:
    """Adds pass times and items_per_s to a finished run.

    Each job's wall time is scaled to a host of nominal speed (see
    hostspeed.py); items_per_s is the passed items over the summed scaled
    wall time of all passes.  The unscaled figures are kept beside them."""
    walls = [[b - a for a, b in p] for p in run["passes"]]
    scaled = [[(b - a) * speed.scale(a, b) for a, b in p] for p in run["passes"]]
    for key, w in (("raw", walls), ("scaled", scaled)):
        pass_s = sum(map(sum, w)) / len(w)
        run[f"pass_s_{key}"] = pass_s
        run[f"items_per_s_{key}"] = run["passed_per_pass"] / pass_s
    run["job_walls_s"] = walls
    run["job_scales"] = [[s / w for s, w in zip(sp, wp)] for sp, wp in zip(scaled, walls)]


def measure_setup(workload: str, seed: int, work: Path) -> list:
    """(start, end) of fresh interpreters that import the CLI, make the
    workload's configs and run its warm-up job."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--work", str(work)]
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        spans.append((t0, time.perf_counter()))
    return spans


def setup_probe(workload: str, seed: int, work: Path) -> None:
    cli = _import_cli()
    workloads.panel(workload, seed)
    rc, _, _, _ = run_job(cli, workloads.warmup_job(workload), work)
    if rc != 0:
        raise SystemExit(f"perfbench: warm-up job exited {rc}")


def _blas() -> dict:
    """Name of numpy's BLAS and the thread count of every loaded OpenBLAS."""
    import numpy as np
    info = {"name": None, "threads": {}}
    try:
        info["name"] = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                info["threads"][Path(path).name] = int(fn())
                break
    return info


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def stamp(cli, seed: int) -> dict:
    import numpy
    import scipy
    thread_count = getattr(cli, "_thread_count", None)
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cli_threads": thread_count(0) if thread_count else "missing: cli._thread_count",
        },
    }


def _fmt(v) -> str:
    return "n/a" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.work)
        return 0
    if not (SRC / "contact_hj" / "cli.py").is_file():
        print(f"perfbench: no contact_hj sources under {SRC}", file=sys.stderr)
        return 2
    bad = oracles.self_check()
    if bad:
        print("perfbench: oracle self-check failed: " + "; ".join(bad), file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    speed = hostspeed.HostSpeed(work)
    try:
        speed.start()
        setup_spans = measure_setup(args.workload, args.seed, work)
        cli = _import_cli()
        run_job(cli, workloads.warmup_job(args.workload), work)
        record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                  "stamp": stamp(cli, args.seed)}
        jobs = workloads.panel(args.workload, args.seed)
        if args.trace == 0:
            runs = [measure(cli, jobs, args.seconds, work)]
        else:
            # the per-layer counts cover exactly one pass over the panel, and
            # the overhead compares it with the untraced passes over the same jobs
            plain = measure(cli, jobs, args.seconds / 2.0, work)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(cli, jobs, 0.0, work)  # exactly one pass
            finally:
                tracer.uninstall()
            runs = [plain, traced]
        speed.stop()
        for x in runs:
            rate(x, speed)
        setup_times = [b - a for a, b in setup_spans]
        setup_scaled = [(b - a) * speed.scale(a, b) for a, b in setup_spans]
        if args.trace == 0:
            run = runs[0]
            metrics = {
                "setup_s": statistics.median(setup_scaled),
                "items_per_s": run["items_per_s_scaled"],
                # CPU seconds of the process per --seconds of job wall time
                "cpu_s": run["cpu_s"] * args.seconds / run["job_s"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
            report = dict(metrics)
        else:
            report = tracer.metrics(
                overhead_ratio=traced["pass_s_scaled"] / plain["pass_s_scaled"])
            metrics = {k: report[k] for k in tracing.PER_LAYER}
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        results = [r for x in runs for r in x["results"]]
        failed = [r for r in results if not r.passed]
        err_max = runs[0]["err_max"]
        record.update(setup_times_s=setup_times, setup_scaled_s=setup_scaled,
                      probe_kernel_s=statistics.median(speed.cpu),
                      job_walls_s=[x["job_walls_s"] for x in runs],
                      job_scales=[x["job_scales"] for x in runs],
                      items_per_s_raw=[x["items_per_s_raw"] for x in runs],
                      items_per_s_scaled=[x["items_per_s_scaled"] for x in runs],
                      attempted=len(results), failed=len(failed),
                      fail_frac=len(failed) / len(results), err_max=err_max, metrics=report,
                      failures=[{"inputs": r.inputs, "reason": r.reason} for r in failed])
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str) + "\n")
    finally:
        speed.stop()
        shutil.rmtree(work, ignore_errors=True)

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# stamp " + json.dumps(record["stamp"], default=str))
    print(f"# setup runs {', '.join(f'{t:.3f}' for t in setup_times)} s wall, "
          f"{', '.join(f'{t:.3f}' for t in setup_scaled)} s at nominal host speed")
    for label, x in zip(("untraced", "traced") if args.trace else ("",), runs):
        print(f"# {label + ' ' if label else ''}passes {len(x['passes'])} of {len(jobs)} jobs "
              f"in {x['job_s']:.2f} s, items {x['attempted']}, "
              f"{x['items_per_s_raw']:.6g} items/s wall, "
              f"{x['items_per_s_scaled']:.6g} items/s at nominal host speed")
    print(f"# fail_frac {record['fail_frac']:.6g} ratio ({len(failed)} of {len(results)} items)")
    print(f"# err_max {err_max:.6g} abs (first pass)")
    for r in failed:
        print(f"# FAILED {json.dumps(r.inputs)}: {r.reason}")
    for name, m in report.items():
        extra = f"  MISSING ({m['missing']})" if "missing" in m else ""
        print(f"# {name} {_fmt(m['value'])} {m['unit']}{extra}")
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
