#!/usr/bin/env python3
"""modalflow benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload train-b32 --seed 1 --seconds 20 --trace 0

`--workload all` runs every workload in turn, each in a child process of its
own, so that each `peak_rss_mb` is that workload's. With `--trace 0`
the run reports the end-to-end metrics; with `--trace 1` it runs the same
workload with alternate rounds traced and reports the per-layer metrics. Every
metric is printed by name with its unit; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; a metric
that has no samples (say every fit failed) is left out. The result
file (metrics, wall-clock values, machine header, samples, span table) and,
for traced runs, the spans themselves go to `--out` (default `perfbench/out`).

The library is imported from `src/` under the working directory; the run
fails with exit code 2 when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """Pin BLAS to one thread; must run before numpy is imported.

    The library's matmuls are tiny ([B, S, 32] x [32, 32]), so a second BLAS
    thread buys nothing but spin-waiting, and on a shared 2-core host it adds
    contention noise. One thread is at most nproc on any machine.
    """
    threads = 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def git_commit(root):
    """HEAD of a git checkout at `root`, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_header(root, seed, threads):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '').strip()})"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "seed": seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="train-b32, train-b128, eval-both-modes or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="minimum length of the run's rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default="perfbench/out", help="directory for result and span files")
    return p.parse_args(argv)


def format_table(metrics):
    width = max(len(k) for k in metrics)
    return "\n".join(f"  {k:<{width}}  {v['value']:.6g} {v['unit']}" for k, v in metrics.items())


def span_table(rows):
    lines = [f"  {'span':<32} {'per (unit, or call)':<20} {'calls/unit':>10} {'ms':>10} {'self ms':>10} {'fail':>5}"]
    for (name, scope), r in sorted(rows.items(), key=lambda kv: (kv[0][1], -kv[1]["self_ms"])):
        lines.append(f"  {name:<32} {scope if scope != '-' else 'call':<20} {r['calls_per_basis']:>10.3f} "
                     f"{r['ms']:>10.3f} {r['self_ms']:>10.3f} {r['failures']:>5}")
    return "\n".join(lines)


def run_one(workloads, name, args, out_dir, header):
    started = time.time()
    work = out_dir / f"work-{os.getpid()}-{name}"
    run = workloads.run_workload(name, args.seed, args.seconds, work, traced=bool(args.trace))
    result = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "started_at": started, "wall_s": time.time() - started, "header": header,
        "attempted": run.attempted, "failed": run.failed,
        "failed_ratio": run.failed / run.attempted, "problems": run.problems,
    }
    if args.trace:
        values, rows = run.per_layer()
        units = workloads.PER_LAYER_UNITS
        result["spans"] = [{"span": span, "unit": scope, **r} for (span, scope), r in rows.items()]
        spans_path = out_dir / f"{name}-seed{args.seed}.spans.jsonl"
        run.tracer.write_jsonl(spans_path)
        result["spans_file"] = str(spans_path)
    else:
        values, raw, samples = run.end_to_end()
        units = workloads.END_TO_END_UNITS
        result["samples"] = samples
        result["raw_metrics"] = {k: {"value": raw[k], "unit": units[k]} for k in units if k in raw}
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    result["missing_metrics"] = [k for k in units if k not in values]
    (out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"[{name}] seed {args.seed}, trace {args.trace}: attempted {run.attempted}, failed {run.failed} "
          f"(failed_ratio {result['failed_ratio']:.4g}), wall {result['wall_s']:.1f} s")
    for problem in run.problems:
        print(f"  problem: {problem}")
    if result["missing_metrics"]:
        print(f"  no samples for: {', '.join(result['missing_metrics'])}")
    if args.trace:
        print(span_table(rows))
    else:
        print(f"  samples: {json.dumps(result['samples'])}")
        print("  wall clock, before scaling to the reference speed:")
        print(format_table(result["raw_metrics"]))
        print(f"  at {workloads.REF_NOMINAL_MS} ms per reference tick:")
    print(format_table(result["metrics"]))
    return result


def run_children(names, args):
    """Run each workload in a child process; returns (exit code, results)."""
    results = []
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.Popen(cmd)
        try:
            code = proc.wait()
        finally:
            if proc.poll() is None:  # this process is being stopped: stop the child too
                proc.terminate()
                proc.wait()
        if code != 0:
            return code, results
        path = Path(args.out) / f"{name}-seed{args.seed}-trace{args.trace}.json"
        results.append(json.loads(path.read_text()))
    return 0, results


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still unwinds, so its work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    threads = pin_blas_threads()
    root = Path.cwd()
    if not (root / "src" / "modalflow" / "__init__.py").is_file():
        print(f"error: no src/modalflow under {root}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads  # imports numpy and modalflow, after the thread pin

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            print(f"error: unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)} or all",
                  file=sys.stderr)
            return 2
    if len(names) > 1:
        code, results = run_children(names, args)
        if code != 0:
            return code
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    else:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        header = machine_header(root, args.seed, threads)
        print("machine: " + json.dumps(header))
        results = [run_one(workloads, names[0], args, out_dir, header)]
        metrics = results[0]["metrics"]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
