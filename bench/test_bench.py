"""Self-tests of the benchmark: wrapper and probe hygiene, the metric record
against BENCHMARK.json, and repeatable per-layer counts.

Uses reduced commands (small s lists, an 8-layer orbifold) so the tests stay
fast; the layers they exercise are the same as the full workloads'.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import thread_time

import pytest

import probe
import run
import tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

SMALL = {
    "sweep": [["verify", "sweep", "--k", "1", "--s", "1e2,1e3",
               "--path", "radial:0.6,0.9,0.27"]],
    "arc": [["verify", "arc", "--k", "1", "--s", "1e2",
             "--theta0", "0.04", "--theta1", "0.3"]],
    "orbifold": [["trigroup", "spectrum", "--pqr", "3,3,4", "--maxlen", "1.2",
                  "--thetas", "4", "--layers", "8"]],
}
COUNTS = ("wang.newton_steps", "wang.samples", "frame.qr_folds",
          "trigroup.triangles", "surface.connections", "surface.clipped")


def _run(workload, trace, tmp_path):
    return worker.run(workload, SMALL[workload], 0.0, trace, tmp_path)


def test_seed_zero_runs_the_documented_commands():
    sweep = [" ".join(a) for a in workloads.commands("sweep", 0)]
    assert sweep == [
        "verify sweep --k 1 --s 1e2,1e3,1e4 --path radial:0.3,0.9,0.27",
        "verify sweep --k 2 --s 1e2,1e3,1e4 "
        "--path chord:0.5480,0.0661,0.3211,0.4490"]
    arc = [" ".join(a) for a in workloads.commands("arc", 0)]
    assert arc == [f"verify arc --k {k} --s 1e2,1e3,1e4 "
                   "--theta0 0.04 --theta1 0.75" for k in (1, 2)]
    for name in workloads.WORKLOADS:
        assert workloads.commands(name, 7) == workloads.commands(name, 7)
    assert workloads.commands("sweep", 7) != workloads.commands("sweep", 0)


def test_wrappers_restore_every_patched_attribute():
    found = tracing.targets()
    spans = {name for _, _, _, name, _ in found}
    assert spans == {name for _, _, name, _ in tracing.LAYERS}
    # names imported into other modules are patched there as well
    assert any(owner.__name__ == "hitchin_limits.trigroup"
               and attr == "enumerate_saddle_connections"
               for owner, attr, *_ in found)
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer()):
            for owner, attr, original, *_ in found:
                assert owner.__dict__[attr] is not original
            raise RuntimeError("leave the block early")
    for owner, attr, original, *_ in found:
        assert owner.__dict__[attr] is original


def test_probe_restores_the_alarm_and_samples_at_least_once():
    host = probe.HostProbe()
    before = signal.getsignal(signal.SIGALRM)
    with host.sampling():
        deadline = thread_time() + 3 * probe.PERIOD_S
        while thread_time() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(host.samples) >= 2
    assert all(c > 0 and m > 0 for c, m in host.samples)
    with host.sampling():       # too short for the timer: sampled once
        pass
    assert len(host.samples) == 1
    assert host.footprint > probe.TABLE_WORDS * 8


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_record_carries_every_named_metric_with_unit(workload, tmp_path):
    plain = _run(workload, 0, tmp_path)
    traced = _run(workload, 1, tmp_path)
    assert plain["failed"] == 0 and traced["failed"] == 0
    e2e = run.result(run.end_to_end(workload, plain, [0.5]),
                     run.END_TO_END, [plain])
    layers = run.result(run.per_layer(plain, traced), run.PER_LAYER,
                        [plain, traced])
    for res, key in ((e2e, "end_to_end"), (layers, "per_layer")):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: m["unit"] for k, m in res["metrics"].items()}
        assert got == want
        for m in res["metrics"].values():
            assert isinstance(m["value"], (int, float))
    for m in e2e["metrics"].values():
        assert m["value"] > 0


def test_layer_counts_repeat_across_traced_runs(tmp_path):
    largest = dict.fromkeys(COUNTS, 0)
    for workload in workloads.WORKLOADS:
        first = _run(workload, 1, tmp_path)["iterations"][0]["layers"]
        second = _run(workload, 1, tmp_path)["iterations"][0]["layers"]
        assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
        largest = {k: max(v, first[k]) for k, v in largest.items()}
    assert all(largest.values()), largest   # every count is exercised


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "arc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
