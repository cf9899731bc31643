"""Benchmark worker: one fresh process per measurement.

Imports the package from ``src/`` and finishes its lazy set-up, which ends
set-up time (counted from ``--spawned``, the parent's clock when it started
this process), then runs one workload's CLI commands in-process through
``hitchin_limits.cli.main`` for ``--seconds`` seconds, sampling the host's
speed during each command (``probe.py``), and prints its report as JSON on
the last stdout line.

    python3 bench/worker.py --workload sweep --seed 0 --seconds 20 \\
        --trace 0 --tmp .bench_out/tmp --spawned "$(date +%s.%N)"
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import probe        # noqa: E402
import tracing      # noqa: E402
import workloads    # noqa: E402


def setup():
    """What a fresh process pays before its first command: the imports and
    the lazily cached Titeica frame."""
    from hitchin_limits import cli, frame
    frame.titeica_frame()
    return cli


def _run_command(cli, argv, out, host):
    """One CLI command; returns (exit code, seconds, seconds at the fixed
    host speed, the probe's medians, CSV text or None, diag)."""
    if out.exists():
        out.unlink()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with host.sampling():
            t0 = perf_counter()
            try:
                code = cli.main(argv + ["--out", str(out)])
            except Exception as err:      # a crash is a failed operation
                code = f"{type(err).__name__}: {err}"
            dt = perf_counter() - t0
    text = out.read_text() if out.exists() else None
    return (code, dt, dt * host.scale(), host.medians(), text,
            sink.getvalue().strip())


def run(workload, argvs, seconds, trace, tmp):
    """Run the commands as iterations (at least one) until another would
    end past ``seconds``.

    Returns the report: per-iteration wall times (and per-layer metrics when
    traced), per-command checks and fingerprints, and operation counts.
    """
    cli = setup()
    host = probe.HostProbe()
    tmp = Path(tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    outs = [tmp / f"cmd{i}.csv" for i in range(len(argvs))]
    tracer = tracing.Tracer() if trace else None
    iterations, runs = [], [[] for _ in argvs]
    with tracing.patched(tracer) if trace else contextlib.nullcontext():
        start = perf_counter()
        while True:
            gc.collect()
            if tracer:
                tracer.reset()
            t0 = perf_counter()
            for i, argv in enumerate(argvs):
                runs[i].append(_run_command(cli, argv, outs[i], host))
            wall = perf_counter() - t0
            it = {"wall_s": wall}
            if tracer:
                it["layers"] = tracing.layer_metrics(tracer, wall)
            iterations.append(it)
            typical = statistics.median(x["wall_s"] for x in iterations)
            if perf_counter() - start + typical > seconds:
                break

    commands, failed = [], 0
    for argv, results in zip(argvs, runs):
        code, *_, text, diag = results[0]
        hashes = [workloads.fingerprint(t) if t is not None else None
                  for *_, t, _ in results]
        if code != 0:
            check = {"ok": False, "problem": f"exit {code}: {diag}"}
        elif text is None:
            check = {"ok": False, "problem": "no CSV written"}
        else:
            check = workloads.check(workload, argv, text)
        if check["ok"] and (len(set(hashes)) != 1
                            or any(r[0] != 0 for r in results)):
            check.update(ok=False, problem="iterations differ")
        failed += 0 if check["ok"] else len(results)
        commands.append({"argv": argv, "sha256": hashes[0], "diag": diag,
                         "seconds": [r[1] for r in results],
                         "scaled_s": [r[2] for r in results],
                         "probe_s": [r[3] for r in results], **check})
    return {
        "workload": workload,
        "iterations": iterations,
        "commands": commands,
        "attempted": sum(len(r) for r in runs),
        "failed": failed,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        - host.footprint / 1024.0) / 1024.0,
        "probe_footprint_mb": host.footprint / 2.0 ** 20,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", default=None)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args(argv)
    setup()
    ready = time.time() - args.spawned
    if args.setup_only:
        print(json.dumps({"ready_s": ready}))
        return 0
    report = run(args.workload, workloads.commands(args.workload, args.seed),
                 args.seconds, args.trace, args.tmp)
    report["ready_s"] = ready
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
