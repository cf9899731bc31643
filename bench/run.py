"""The repository benchmark: end-to-end and per-layer timing of the CLI
verification commands, with their accuracy figures and output checks.

    python3 bench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Run from the repository root.  Every measurement runs in a fresh worker
process (``bench/worker.py``) with one thread everywhere
(HITCHIN_LIMITS_THREADS, OPENBLAS_NUM_THREADS, OMP_NUM_THREADS all 1) and a
fixed string hash seed:

* ``--trace 0`` times set-up (fresh process to ready, median of several
  processes) and the workload's iterations untraced, and reports the
  end-to-end metrics.  ``wall_s`` is the time of one iteration at a fixed
  host speed: each command's time is scaled by the host-speed probe sampled
  while it ran (``probe.py``), and the median over the run's iterations of
  each command's scaled time is summed over the workload's commands.  On a
  shared 2-vCPU host whose speed drifts by up to 2x in phases of seconds to
  minutes, the raw times of two runs differed by as much as that; the raw
  times stay in the run record;
* ``--trace 1`` runs the workload untraced in one process and traced in
  another, and reports the per-layer metrics plus the tracing overhead.

Prints a human-readable summary, writes the full run record (versions,
per-command checks and CSV sha256 fingerprints) to ``.bench_out/``, and
prints the result as one JSON object on the last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROCESSES = 7
DEADLINE_S = 170.0      # every worker is stopped by then

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "max_gap": "ratio",
    "arc_err": "1",
}
PER_LAYER = {
    "wang.solve_s": "s", "wang.solves": "count",
    "wang.newton_steps": "count", "wang.unknowns": "count",
    "wang.sample_s": "s", "wang.samples": "count",
    "frame.transport_s": "s", "frame.transport_self_s": "s",
    "frame.qr_folds": "count", "frame.qr_fold_s": "s",
    "frame.arc_s": "s", "frame.arc_self_s": "s",
    "trigroup.build_s": "s", "trigroup.triangles": "count",
    "trigroup.cycle_s": "s", "trigroup.spectrum_s": "s",
    "surface.enumerate_s": "s", "surface.connections": "count",
    "surface.clipped": "count", "surface.useful_ratio": "ratio",
    "tropical.path_s": "s", "tropical.paths": "count",
    "cli.self_s": "s", "trace_overhead_s": "s",
}
# Accuracy figures a workload does not compute are reported at their
# tolerance, so every workload prints every end-to-end metric with a
# nonzero value; the record lists them under "not_measured".
TOLERANCE = {"max_gap": workloads.GAP_TOL, "arc_err": workloads.ARC_REL_TOL}

ENV = {"HITCHIN_LIMITS_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class WorkerError(RuntimeError):
    pass


def _worker(args, tmp, deadline):
    """Run a worker to completion (killing it at ``deadline``, a
    ``perf_counter`` value) and return its report."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args,
           "--spawned", repr(time.time())]
    if tmp is not None:
        cmd += ["--tmp", str(tmp)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, **ENV), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def _wall(report):
    """One iteration at the fixed host speed: the sum over commands of the
    median of their scaled times."""
    return sum(statistics.median(c["scaled_s"]) for c in report["commands"])


def end_to_end(workload, report, setups):
    """End-to-end metrics from an untraced report and set-up samples.  The
    accuracy figures are the largest over the workload's commands at the
    largest s."""
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": _wall(report),
               "peak_rss_mb": report["peak_rss_mb"]}
    for name, tol in TOLERANCE.items():
        metrics[name] = max((c[name] for c in report["commands"] if name in c),
                            default=tol)
    return metrics


def per_layer(plain, traced):
    """Per-layer metrics: means over the traced iterations, plus the
    tracing overhead, the traced ``wall_s`` minus the untraced one."""
    its = traced["iterations"]
    metrics = {key: statistics.mean(it["layers"][key] for it in its)
               for key in its[0]["layers"]}
    metrics["trace_overhead_s"] = _wall(traced) - _wall(plain)
    return metrics


def result(metrics, units, reports):
    """The result object printed on the last line."""
    failed = sum(r["failed"] for r in reports)
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in reports),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()}}


def measure(workload, seed, seconds, trace, tmp):
    """Run the worker processes of one benchmark run; returns (result,
    extra record fields, worker reports)."""
    deadline = perf_counter() + DEADLINE_S
    job = ["--workload", workload, "--seed", str(seed), "--trace"]
    if not trace:
        setups = [_worker(["--setup-only"], None, deadline)["ready_s"]
                  for _ in range(SETUP_PROCESSES - 1)]
        report = _worker(job + ["0", "--seconds", str(seconds)], tmp, deadline)
        setups.append(report["ready_s"])
        metrics = end_to_end(workload, report, setups)
        extra = {"setup_samples_s": setups,
                 "not_measured": [n for n in TOLERANCE if not any(
                     n in c for c in report["commands"])]}
        reports, units = [report], END_TO_END
    else:
        half = str(seconds / 2.0)
        plain = _worker(job + ["0", "--seconds", half], tmp, deadline)
        traced = _worker(job + ["1", "--seconds", half], tmp, deadline)
        metrics = per_layer(plain, traced)
        extra = {"untraced_wall_s": _wall(plain),
                 "traced_wall_s": _wall(traced)}
        reports, units = [plain, traced], PER_LAYER
    return result(metrics, units, reports), extra, reports


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "env": ENV}


def summary_lines(workload, reports):
    for rep in reports:
        walls = [round(it["wall_s"], 3) for it in rep["iterations"]]
        yield f"{workload}: iterations {walls} s as measured"
        for c in rep["commands"]:
            scaled = [round(x, 3) for x in c["scaled_s"]]
            line = (f"  {' '.join(c['argv'])}: {'ok' if c['ok'] else 'FAIL'}"
                    f" scaled {scaled} s")
            if c.get("problem"):
                line += f" ({c['problem']})"
            if "max_gap" in c:
                line += f" max_gap {c['max_gap']:.6g} (tol {workloads.GAP_TOL})"
            if "arc_err" in c:
                line += (f" arc_err {c['arc_err']:.6g} tol "
                         f"{c['tolerance']:.6g}")
                if c["out_of_tolerance"]:
                    line += " OUT OF TOLERANCE"
                if not c["monotone"]:
                    line += " (not decreasing in s)"
            yield line + f" sha256 {str(c['sha256'])[:16]}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hitchin_limits" / "cli.py").is_file():
        sys.stderr.write(f"error: no package source under {ROOT / 'src'}\n")
        return 2

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    try:
        res, extra, reports = measure(args.workload, args.seed, args.seconds,
                                      args.trace, tmp)
    except WorkerError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "why": workloads.WHY[args.workload],
              "environment": environment(), **extra,
              "reports": reports, "result": res}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for line in summary_lines(args.workload, reports):
        print(line)
    for k, m in res["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
