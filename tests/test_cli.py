import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hitchin_limits import cli, frame, polygon, wang
from hitchin_limits import surface as sf
from hitchin_limits.errors import NewtonDiverged

import oracles


def run(argv):
    return cli.main(argv)


def test_surface_build_and_validate(tmp_path):
    out = tmp_path / "disk.json"
    assert run(["surface", "build", "--disk", "1", "1.0",
                "--out", str(out)]) == 0
    assert run(["surface", "validate", "--in", str(out)]) == 0


def test_surface_validate_catches_bad_file(tmp_path):
    out = tmp_path / "disk.json"
    run(["surface", "build", "--disk", "1", "1.0", "--out", str(out)])
    data = json.loads(out.read_text())
    data["vertexOrders"] = {"0": 2}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["surface", "validate", "--in", str(bad)]) == 1


def test_tropical_spectrum_one_segment(tmp_path):
    p = sf.synthesize_path([1.0], turns=[], orders=[], start_angle=0.4)
    pf = tmp_path / "path.json"
    oracles.save_path(p, str(pf))
    out = tmp_path / "spec.csv"
    assert run(["tropical", "spectrum", "--path", str(pf),
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "segment,nu1,nu2,nu3,run_x1,run_x2,run_x3"
    assert len(lines) == 2


def test_tropical_spectrum_rows_are_the_path_sums_of_each_prefix(tmp_path):
    # the fourth of seed 1's random geodesic paths: a running float sum of
    # its sorted triples ends off the exactly rounded path sum
    rng = np.random.default_rng(1)
    for _ in range(4):
        p = cli.building.random_geodesic_path(rng)
    periods = [seg.period for seg in p.segments]
    running = np.zeros(3)
    for period in periods:
        running = running + cli.tropical.segment_exponents(
            period).weyl.as_tuple()
    total = cli.tropical.path_singular_exponents(periods)
    assert tuple(running) != total.as_tuple()
    pf, out = tmp_path / "path.json", tmp_path / "spec.csv"
    oracles.save_path(p, str(pf))
    assert run(["tropical", "spectrum", "--path", str(pf),
                "--out", str(out)]) == 0
    rows = [[float(v) for v in line.split(",")]
            for line in out.read_text().splitlines()[1:]]
    assert len(rows) == len(periods)
    for i, row in enumerate(rows):
        want = cli.tropical.path_singular_exponents(periods[:i + 1])
        assert tuple(row[4:]) == want.as_tuple()
    assert tuple(rows[-1][4:]) == total.as_tuple()


def test_polygon_unipotent_prints(capsys):
    assert run(["polygon", "unipotent", "--n", "4",
                "--theta-in", "0.3", "--theta-out", "4.0"]) == 0
    text = capsys.readouterr().out
    assert "paired entry" in text


def test_polygon_unipotent_on_a_stokes_ray_takes_the_ccw_sector(capsys):
    # an endpoint on a Stokes ray prints the arc from just ccw of the ray
    outs = []
    for theta in (math.pi / 6, math.pi / 6 + 1e-4):
        assert run(["polygon", "unipotent", "--n", "4",
                    f"--theta-in={theta!r}", "--theta-out", "4.0"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_polygon_scheme_trace(capsys):
    assert run(["polygon", "scheme", "--flips", "6"]) == 0
    text = capsys.readouterr().out
    assert "r-1 r0 r1" in text
    assert "r2 r3 r4" in text


def test_wang_solve_csv(tmp_path):
    out = tmp_path / "grid.csv"
    assert run(["wang", "solve", "--k", "0", "--s", "10", "--radius", "1.0",
                "--nr", "30", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,phi,F,residual"
    assert len(lines) == 1 + 30


def test_verify_sweep_k0_exact(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["verify", "sweep", "--k", "0", "--s", "1e2,1e3",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    for row in rows:
        gaps = row[-3:]
        assert max(gaps) < 1e-8


@pytest.mark.parametrize("k", [1, 2])
def test_verify_arc_in_tolerance_and_decreasing(tmp_path, k):
    # the documented arc command; acceptance 3's entry tolerance at s=1e4
    out = tmp_path / "arc.csv"
    assert run(["verify", "arc", "--k", str(k), "--s", "1e2,1e3,1e4",
                "--theta0", "0.04", "--theta1", "0.75",
                "--out", str(out)]) == 0
    errs = [float(ln.split(",")[1])
            for ln in out.read_text().strip().splitlines()[1:]]
    scalef = (k + 3) / 3.0
    U = polygon.arc_unipotent(polygon.regular_lifts(k + 3),
                              scalef * 0.04, scalef * 0.75)
    S, S_inv = frame.titeica_frame()
    pred = S @ np.linalg.inv(U) @ S_inv
    assert errs[-1] <= 0.1 * max(1.0, float(np.max(np.abs(pred))))
    assert errs[0] > errs[1] > errs[2]


def test_building_localmodel_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run(["building", "localmodel", "--k", "1", "--samples", "50",
                    "--seed", "7", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "sector,re_z,im_z,x1,x2,x3"


def test_building_localmodel_negative_order_exits_1(tmp_path, capsys):
    # refused before sampling, so also when there is nothing to sample
    assert run(["building", "localmodel", "--k", "-1", "--samples", "0",
                "--out", str(tmp_path / "pts.csv")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: zero order must be >= 0\n"
    assert not (tmp_path / "pts.csv").exists()


def test_building_convexity(capsys):
    assert run(["building", "convexity", "--paths", "25", "--corners", "25",
                "--seed", "3"]) == 0
    text = capsys.readouterr().out
    assert "25/25" in text


def test_trigroup_spectrum_csv(tmp_path):
    out = tmp_path / "spec.csv"
    assert run(["trigroup", "spectrum", "--pqr", "3,3,4", "--maxlen", "1.01",
                "--thetas", "4", "--layers", "9", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,class,x1,x2,x3"
    assert len(lines) == 1 + 4 * 2


def test_trigroup_spectrum_reports_the_enumeration(tmp_path, capsys):
    assert run(["trigroup", "spectrum", "--pqr", "3,3,4", "--maxlen", "1.8",
                "--layers", "9", "--out", str(tmp_path / "spec.csv")]) == 0
    assert "saddle connections up to 1.8: 257 (clipped: 457)\n" in \
        capsys.readouterr().err


def test_enumeration_explosion_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sf, "_MAX_DEVELOPED", 3)
    assert run(["trigroup", "spectrum", "--pqr", "3,3,4", "--maxlen", "1.8",
                "--layers", "9", "--out", str(tmp_path / "spec.csv")]) == 2
    assert capsys.readouterr().err.endswith(
        "error: NotConverged: saddle connection search exploded\n")


def test_trigroup_boundary(capsys):
    assert run(["trigroup", "boundary", "--pqr", "3,3,4", "--thetas", "6"]) == 0
    assert "min pairwise" in capsys.readouterr().out


@pytest.mark.parametrize("pqr", ["5,5,5", "6,6,6", "3,3,10"])
def test_trigroup_commands_trace_both_cycles_on_any_group(tmp_path, capsys,
                                                          pqr):
    # the cycles live on the lattice, so no group runs out of patch
    out = tmp_path / "spec.csv"
    assert run(["trigroup", "spectrum", "--pqr", pqr, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 12 * 2
    assert run(["trigroup", "boundary", "--pqr", pqr]) == 0
    assert capsys.readouterr().out.startswith("min pairwise")


@pytest.mark.parametrize("chord, image", [
    ("chord:-0.5,0.0,-0.1,-0.3", "chord:0.250000,-0.433013,0.309808,0.063397"),
    ("chord:-0.494996,0.070560,0.355457,-0.351640",
     "chord:0.186391,-0.463959,0.126801,0.483655"),
], ids=["starts-on-axis", "crosses-axis"])
def test_chord_across_negative_w_axis_matches_rotated_image(tmp_path, chord,
                                                            image):
    # w -> e^(2 pi i/3) w is a symmetry of z^2 dz^3, so a chord across the
    # negative real w-axis must give the gaps of its image, which stays off
    # that axis
    gaps = []
    for spec in (chord, image):
        out = tmp_path / "sweep.csv"
        assert run(["verify", "sweep", "--k", "2", "--s", "1e2,1e3",
                    "--path", spec, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        gaps.append([float(x) for row in rows for x in row.split(",")[7:]])
    assert gaps[0] == pytest.approx(gaps[1], abs=1e-6)


def test_invalid_s_list():
    assert run(["verify", "sweep", "--k", "0", "--s", "1e3,1e2"]) == 1


@pytest.mark.parametrize("path", ["chord:1,2", "chord:0.5,0.1,0.3,0.4,0.9",
                                  "radial:0.3,0.9", "radial:0.5,0.5,0.1",
                                  "foo"])
def test_malformed_sweep_path_exits_1_before_solving(path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before parsing the path spec")
    monkeypatch.setattr(cli.wang, "solve_disk", no_solve)
    assert run(["verify", "sweep", "--k", "1", "--s", "1e2",
                "--path", path]) == 1


def test_empty_s_list_exits_1():
    assert run(["verify", "sweep", "--k", "0", "--s", ","]) == 1


@pytest.mark.parametrize("argv, content", [
    (["surface", "validate", "--in"], {"triangles": []}),
    (["tropical", "spectrum", "--path"], {"segments": [{"start": 0}]}),
], ids=["surface", "path"])
def test_malformed_json_exits_1(tmp_path, capsys, argv, content):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    assert run(argv + [str(bad)]) == 1
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["wang", "solve", "--k", "1", "--s", "100", "--nr", "1"],
    ["wang", "solve", "--k", "1", "--s", "100", "--ratio", "1.0"],
    ["wang", "solve", "--k", "1", "--s", "100", "--ratio", "0.9"],
], ids=["nr1", "ratio1", "ratio0.9"])
def test_malformed_wang_grid_exits_1(capsys, argv):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, content", [
    (["surface", "validate", "--in"], {"triangles": [[[0, 0]]], "gluings": []}),
    (["surface", "validate", "--in"], [1, 2]),
    (["surface", "validate", "--in"],
     {"triangles": [[[0, 0], [1, 0], [0, 1]]],
      "gluings": [{"edgeA": [0, 0], "edgeB": [5, 1], "rot": 0,
                   "trans": [0, 0]}]}),
    (["tropical", "spectrum", "--path"], [1]),
    (["tropical", "spectrum", "--path"],
     {"segments": [{"start": 0, "end": 0, "period": [1]}]}),
    (["tropical", "spectrum", "--path"], {"segments": []}),
    # a 0.26 rad side angle: a path that is not geodesic
    (["tropical", "spectrum", "--path"],
     {"segments": [{"start": -1, "end": -1, "period": [1.0, 0.0]},
                   {"start": -1, "end": -1,
                    "period": [math.cos(0.26), math.sin(0.26)]}],
      "junctions": [{"order": 0, "thetaIn": math.pi,
                     "thetaOut": math.pi + 0.26}]}),
], ids=["short-triangle", "top-level-list", "gluing-out-of-range",
        "path-list", "short-period", "no-segments", "not-geodesic"])
def test_misshapen_json_exits_1(tmp_path, capsys, argv, content):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    assert run(argv + [str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_empty_surface_fails_validation(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"triangles": [], "gluings": []}))
    assert run(["surface", "validate", "--in", str(empty)]) == 1
    assert capsys.readouterr().out.startswith("EmptySurface")


def no_solve(*args, **kwargs):
    raise AssertionError("solved before checking the arguments")


@pytest.mark.parametrize("argv", [
    ["polygon", "scheme", "--flips", "abc"],
    ["verify", "sweep"],
    ["surface"],
    ["tropical", "spectrum", "--path", "path.json", "--surface", "s.json"],
    ["surface", "build", "--orbifold", "3,3,4", "--out", "x.json"],
], ids=["not-an-int", "missing-k", "missing-action", "surface-flag",
        "build-orbifold"])
def test_usage_error_exits_1_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main reuses one parser per process: an arc at --radius 0.4, a usage
    # error after --radius 0.45 was read, then the same arc on the default
    # radius must print what a fresh interpreter prints
    assert cli.build_parser() is cli.build_parser()
    arc = ["verify", "arc", "--k", "1", "--s", "1e2"]
    moved, out = tmp_path / "moved.csv", tmp_path / "arc.csv"
    assert run(arc + ["--radius", "0.4", "--out", str(moved)]) == 0
    with pytest.raises(SystemExit) as exc:
        run(arc + ["--radius", "0.45", "--theta1", "nan"])
    assert exc.value.code == 1
    assert run(arc + ["--out", str(out)]) == 0
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    fresh = subprocess.run([sys.executable, "-m", "hitchin_limits.cli", *arc],
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=path))
    assert fresh.returncode == 0, fresh.stderr
    assert out.read_text() == fresh.stdout
    assert moved.read_text() != fresh.stdout


@pytest.mark.parametrize("argv", [
    ["polygon", "scheme", "--flips", "-1"],
    ["building", "convexity", "--paths", "-1"],
    ["building", "convexity", "--corners", "-1"],
    ["building", "localmodel", "--k", "1", "--samples", "-1"],
    ["trigroup", "spectrum", "--thetas", "0"],
    ["trigroup", "boundary", "--thetas", "1"],
    ["trigroup", "spectrum", "--layers", "-1"],
], ids=["flips-1", "paths-1", "corners-1", "samples-1",
        "spectrum-thetas0", "boundary-thetas1", "spectrum-layers-1"])
def test_count_out_of_range_exits_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["trigroup", "spectrum", "--maxlen", "nan"],
    ["trigroup", "spectrum", "--maxlen", "inf"],
    ["verify", "arc", "--k", "1", "--theta1", "inf"],
    ["verify", "sweep", "--k", "1", "--radius", "nan"],
    ["wang", "solve", "--k", "1", "--s", "inf"],
    ["wang", "solve", "--k", "1", "--s", "nan"],
    ["polygon", "unipotent", "--n", "4", "--theta-in=-inf",
     "--theta-out", "1"],
], ids=["maxlen-nan", "maxlen-inf", "theta1-inf", "sweep-radius-nan",
        "s-inf", "s-nan", "theta-in-inf"])
def test_non_finite_number_exits_1(monkeypatch, capsys, argv):
    # nan maxlen used to enumerate 147 connections and inf the whole patch;
    # inf theta1 raised OverflowError, and inf s or nan radius NewtonDiverged
    monkeypatch.setattr(cli.wang, "solve_disk", no_solve)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "expected a finite number" in err


@pytest.mark.parametrize("argv", [
    ["verify", "sweep", "--k", "1", "--s", "1e2,nan"],
    ["verify", "sweep", "--k", "1", "--s", "inf"],
    ["verify", "arc", "--k", "1", "--s", "1e2,1e3,inf"],
    ["verify", "sweep", "--k", "1", "--path", "radial:0.3,nan,0.27"],
    ["verify", "sweep", "--k", "2", "--path", "chord:0.2,0.1,inf,0.4"],
    ["surface", "build", "--disk", "1", "nan", "--out", "disk.json"],
], ids=["s-list-nan", "s-list-inf", "arc-s-list-inf", "radial-nan",
        "chord-inf", "disk-radius-nan"])
def test_non_finite_token_exits_1_before_solving(monkeypatch, capsys, argv):
    monkeypatch.setattr(cli.wang, "solve_disk", no_solve)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expected a finite number")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "sweep", "--k", "0", "--path", "radial:0,0.5,0.1"],
    ["verify", "sweep", "--k", "1", "--path", "radial:0.5,1.8,0.1"],
    ["verify", "sweep", "--k", "1", "--path", "radial:-0.5,0.8,0.1"],
    ["verify", "sweep", "--k", "2", "--path", "chord:0.2,0.1,1.5,0.4"],
    ["verify", "sweep", "--k", "1", "--radius", "0.5"],
    ["verify", "arc", "--k", "1", "--radius", "3"],
    ["verify", "arc", "--k", "1", "--radius", "0"],
    ["verify", "arc", "--k", "1", "--radius", "0.5", "--radius-disk", "0.4"],
], ids=["sweep-at-zero", "sweep-past-rim", "sweep-through-zero",
        "chord-past-rim", "sweep-small-disk", "arc-past-rim", "arc-at-zero",
        "arc-small-disk"])
def test_path_outside_solved_disk_exits_1_before_solving(monkeypatch, capsys,
                                                         argv):
    monkeypatch.setattr(cli.wang, "solve_disk", no_solve)
    assert run(argv + ["--s", "1e2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("k,flag,theta", [
    (1, "--theta0", math.pi / 8),
    (1, "--theta1", 7 * math.pi / 8),
    (0, "--theta0", -math.pi / 6),
    (3, "--theta1", math.pi / 4),
], ids=["k1-theta0", "k1-theta1", "k0-negative", "k3-theta1"])
def test_arc_endpoint_on_a_stokes_ray_exits_1_before_solving(
        monkeypatch, capsys, k, flag, theta):
    # natural angles pi/6, 7 pi/6, -pi/6 and pi/2: the osculation estimate
    # holds strictly inside Stokes sectors only
    monkeypatch.setattr(cli.wang, "solve_disk", no_solve)
    assert run(["verify", "arc", "--k", str(k), "--s", "1e2",
                f"{flag}={theta!r}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: arc endpoint") and "Stokes ray" in err
    assert err.count("\n") == 1


def test_unstable_transport_exits_2_naming_the_step(monkeypatch, capsys):
    monkeypatch.setattr(cli.wang.WangSolution, "phi_at",
                        lambda self, z: np.full(np.shape(z), math.nan))
    assert run(["verify", "sweep", "--k", "0", "--s", "1e2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: StepUnstable: transport step 1 of ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("profile", [lambda self, r: (math.nan, math.nan)],
                         ids=["nan-field"])
def test_unstable_arc_exits_2_naming_the_step(monkeypatch, capsys, profile):
    # a NaN field profile: the first arc step already fails
    monkeypatch.setattr(cli.wang.WangSolution, "radial_profile", profile)
    assert run(["verify", "arc", "--k", "1", "--s", "1e2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: StepUnstable: arc step ")
    assert err.count("\n") == 1


def test_underflowing_arc_exits_2_naming_the_arc(tmp_path, capsys):
    # at k = 1, s = 1e8 the profile at radius 0.9 (natural radius 302)
    # underflows to (0, 0), where the arc read as the identity and printed
    # 0.41997 with exit 0; at 3e7 F is still 3.8e-243
    out = tmp_path / "arc.csv"
    assert run(["verify", "arc", "--k", "1", "--s", "1e7,1e8", "--radius",
                "0.9", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: StepUnstable: arc at radius "
                                       "0.9, s=1e+08: F = 0 and dF/dr = 0, F "
                                       "below the smallest normal float "
                                       "2.22507e-308\n")
    assert out.read_text().splitlines()[1].startswith("10000000,")
    assert _arc_errors(tmp_path, ["--k", "1", "--s", "3e7", "--radius",
                                  "0.9"])[0] > 0


def test_subnormal_arc_profile_is_refused_before_any_step(monkeypatch,
                                                         capsys):
    # at k = 1, radius 0.9, F(0.9) is 3.5e-317 at s = 6.7e7, below the
    # smallest normal float: the arc used to die at step 4240 of 8824.  The
    # message prints F and dF/dr, since F can be subnormal and not 0
    monkeypatch.setattr(cli.frame, "_remainder_transport", None)
    assert run(["verify", "arc", "--k", "1", "--s", "6.7e7", "--radius",
                "0.9"]) == 2
    assert capsys.readouterr().err == ("error: StepUnstable: arc at radius "
                                       "0.9, s=6.7e+07: F = 3.48e-317 and "
                                       "dF/dr = -3.88e-314, F below the "
                                       "smallest normal float 2.22507e-308\n")


def test_arc_on_the_rim_runs_on_dF(tmp_path):
    # F = 0 on the rim of the solved disk, which is no underflow: the arc is
    # driven by dF/dr there
    assert _arc_errors(tmp_path, ["--k", "1", "--s", "1e2,1e4", "--radius",
                                  "1.0"]) == pytest.approx([0.1407, 0.00615],
                                                           rel=1e-3)


@pytest.mark.parametrize("argv", [["sweep"], ["arc"]])
def test_over_budget_path_exits_1_with_one_line(monkeypatch, capsys, argv):
    # the default radial takes 804 steps and the default arc 214 here
    monkeypatch.setattr(frame, "_MAX_STEPS", 100)
    assert run(["verify", *argv, "--k", "1", "--s", "1e4"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: (path takes \d+ transport|arc takes \d+) "
                        r"steps at s=10000, over the budget of 100\n", err)


@pytest.mark.parametrize("argv", [["trigroup", "spectrum"]],
                         ids=["spectrum"])
def test_over_budget_orbifold_exits_1_with_one_line(monkeypatch, capsys,
                                                    tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.trigroup, "_MAX_TRIANGLES", 100)
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: (3,3,4) orbifold at 9 layers takes "
                                 "more than the budget of 100 triangles\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, monotone", [
    (["--k", "0", "--s", "1e2,1e4,1e8"], True),
    (["--k", "0", "--s", "1e2,1e10", "--path", "radial:0.5,0.55,0.27"],
     False),
])
def test_sweep_monotone_flag_forgives_rounding_level_gaps(tmp_path, capsys,
                                                         monkeypatch, argv,
                                                         monotone):
    # k = 0 gaps are rounding-level (at most 1e-15) at every s, so they pass
    # in any order; the second sweep's exponents at s = 1e10 are shifted by
    # 1e-9, a gap of 1.2e-8 after 1e-16, which is a rise above the floor
    if not monotone:
        exponents = frame.transport_weyl_exponents
        monkeypatch.setattr(frame, "transport_weyl_exponents",
                            lambda sol, path: exponents(sol, path)
                            + (1e-9 if sol.q.s > 1e9 else 0.0))
    assert run(["verify", "sweep", *argv,
                "--out", str(tmp_path / "sweep.csv")]) == 0
    err = capsys.readouterr().err
    line = re.fullmatch(r"max relative gap at s=\S+: \d\.\d{3}e-\d\d "
                        r"\(monotone: (\w+)\)\n", err)
    assert line and line[1] == str(monotone)


def _arc_errors(tmp_path, argv):
    out = tmp_path / "arc.csv"
    assert run(["verify", "arc", *argv, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    return [float(ln.split(",")[1]) for ln in lines[1:]]


README_WINDOW = ["--theta0", "0.04", "--theta1", "0.75"]


def test_arc_far_field_with_exit_0(tmp_path):
    # with phi - flat as the solve's unknown, F keeps its relative precision:
    # the phi form printed 282.3 (README window) and 213.3 (default window)
    # at k = 1, s = 1e5 with exit 0, and exited 2 at 3e5; k = 2 stays
    # within 1% of the phi form's 0.069347 and 0.034363
    k1 = _arc_errors(tmp_path, ["--k", "1", "--s", "1e5,3e5", *README_WINDOW])
    assert max(k1) < 0.05
    assert _arc_errors(tmp_path, ["--k", "1", "--s", "1e5"])[0] < 0.1
    k2 = _arc_errors(tmp_path, ["--k", "2", "--s", "3e4,1e5", *README_WINDOW])
    assert k2 == pytest.approx([0.069347, 0.034363], rel=0.01)
    assert _arc_errors(tmp_path, ["--k", "2", "--s", "1e6",
                                  *README_WINDOW])[0] < 0.05


@pytest.mark.parametrize("window, bounds", [
    (README_WINDOW, [0.05, 0.05, 0.05]),
    ([], [0.1, 0.1, 0.05]),
], ids=["readme-window", "default-window"])
def test_k1_arc_runs_to_1e6_with_exit_0(tmp_path, window, bounds):
    # started at the flat metric, the solve leaves F(0.5) positive at 1e6
    # (the constant start left -7.7e-28 there, and the arc exited 2 with
    # StepUnstable on both windows); the default window's 0.087 and 0.063 at
    # 1e5 and 3e5 are the grid's relative error near a Stokes ray
    errs = _arc_errors(tmp_path, ["--k", "1", "--s", "1e5,3e5,1e6", *window])
    assert len(errs) == 3
    assert all(e < b for e, b in zip(errs, bounds)), errs


def _sweep_gaps(tmp_path, argv):
    out = tmp_path / "sweep.csv"
    assert run(["verify", "sweep", *argv, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    return [max(map(float, ln.split(",")[-3:])) for ln in lines[1:]]


@pytest.mark.parametrize("k, bound", [(1, 1e-9), (3, 0.05)])
def test_verify_sweep_gap_at_1e4(tmp_path, k, bound):
    # the unimodular natural frame leaves no offset on the default radial:
    # k = 1 is at rounding level, k = 3 within acceptance 2's 5%
    gaps = _sweep_gaps(tmp_path, ["--k", str(k), "--s", "1e4"])
    assert gaps[-1] <= bound


def test_verify_sweep_far_field_folds_without_overflow(tmp_path):
    # at s = 1e8 the default radial spans log-d differences past e^709;
    # the fold must not exponentiate the lower triangle
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gaps = _sweep_gaps(tmp_path, ["--k", "0", "--s", "1e8"])
    assert gaps[-1] <= 1e-9


@pytest.mark.parametrize("argv", [
    ["--k", "1", "--s", "1e6,1e7,1e8"],
    ["--k", "2", "--s", "1e6", "--path", "chord:0.5480,0.0661,0.3211,0.4490"],
], ids=["k1-radial", "k2-chord"])
def test_verify_sweep_past_1e6(tmp_path, argv):
    # the bracket is checked on the converged solve alone; checked on every
    # Newton iterate it raised GridTooCoarse at s = 1e6
    assert max(_sweep_gaps(tmp_path, argv)) <= 5e-11


def test_solve_stalled_at_its_rounding_floor_exits_2(capsys):
    # a grid too coarse for s is a numerical failure naming the floor
    assert run(["wang", "solve", "--k", "1", "--s", "1e7", "--nr", "2",
                "--ratio", "1.001", "--out", "-"]) == 2
    assert capsys.readouterr().err == ("error: GridTooCoarse: Newton residual "
                                       "1.33e-12 is under its rounding floor "
                                       "1.04e-11\n")

def _raise_linalg(*args, **kwargs):
    raise np.linalg.LinAlgError("injected failure")


def test_transport_linalg_error_exits_2_naming_the_layer(monkeypatch,
                                                         capsys):
    # the read-out's SVD: a k = 0 transport takes no step, so no QR fold
    monkeypatch.setattr(np.linalg, "svd", _raise_linalg)
    assert run(["verify", "sweep", "--k", "0", "--s", "1e2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: StepUnstable: transport: injected failure\n"


def test_other_linalg_error_exits_2_with_one_line(monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "inv", _raise_linalg)
    assert run(["verify", "arc", "--k", "1", "--s", "1e2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: LinAlgError: injected failure\n"


@pytest.mark.parametrize("argv", [
    ["verify", "sweep", "--k", "1", "--s", "1e20"],
    ["verify", "sweep", "--k", "1", "--s", "1e48"],
    ["verify", "arc", "--k", "1", "--s", "1e20"],
    ["wang", "solve", "--k", "0", "--s", "1e300"],
    ["wang", "solve", "--k", "1", "--s", "1e3", "--radius", "1e-300"],
    ["wang", "solve", "--k", "1", "--s", "1e3", "--radius", "1e300"],
], ids=["sweep-s1e20", "sweep-s1e48", "arc-s1e20", "solve-s1e300",
        "solve-radius1e-300", "solve-radius1e300"])
def test_out_of_range_s_or_radius_exits_1_with_one_line(monkeypatch, capsys,
                                                        argv):
    # s = 1e20 used to size a 194-million-ring grid, s = 1e48 divided by
    # zero, s = 1e300 overflowed s ** 2, and the radii printed warnings
    nodes = cli.wang._radial_nodes

    def small_nodes(R, nr, ratio):
        assert nr <= 1000, "allocated a refused grid"
        return nodes(R, nr, ratio)
    monkeypatch.setattr(cli.wang, "_radial_nodes", small_nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["surface", "validate", "--in"],
    ["tropical", "spectrum", "--path"],
    ["verify", "sweep", "--k", "0", "--s", "1e2", "--out"],
], ids=["in", "path", "out"])
def test_directory_for_a_file_exits_1_with_one_line(tmp_path, capsys, argv):
    assert run(argv + [str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["3,3", "a,b,c", "3,3,4,5"])
@pytest.mark.parametrize("argv", [
    ["trigroup", "spectrum", "--pqr"],
    ["trigroup", "boundary", "--pqr"],
], ids=["spectrum", "boundary"])
def test_malformed_pqr_exits_1_with_one_line(capsys, argv, text):
    with pytest.raises(SystemExit) as exc:
        run(argv + [text])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: argument {argv[-1]}: expected three integers "
                   f"p,q,r, got '{text}'\n")


@pytest.mark.parametrize("argv", [
    ["trigroup", "spectrum", "--pqr", "2,3,7"],
    ["trigroup", "boundary", "--pqr", "3,2,7"],
], ids=["spectrum", "boundary"])
def test_order_2_group_exits_1_with_one_line(capsys, argv):
    # bad input, not a numerical failure: the orbifold of a group with an
    # order-2 vertex carries no nonzero cubic differential
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: a (p,q,r) group with an order-2 "
                                 "vertex carries no nonzero cubic "
                                 "differential\n")


def test_underflowing_natural_coordinate_exits_1_with_one_line(capsys):
    # at k = 1000 the natural coordinate of every sample underflows to 0
    assert run(["building", "localmodel", "--k", "1000", "--samples",
                "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: segment period must be nonzero\n"


def test_readme_commands_run(tmp_path, monkeypatch):
    # every command of the README's CLI block, in order, in one directory
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI")[1].split("```sh\n")[1].split("```")[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("hitchin-limits ")]
    assert len(commands) >= 13
    monkeypatch.chdir(tmp_path)
    oracles.save_path(sf.synthesize_path([1.0, 0.7], turns=[3.6], orders=[1],
                                         start_angle=0.4), "path.json")
    for argv in commands:
        assert run(argv) == 0, argv


@pytest.mark.parametrize("argv", [
    ["verify", "sweep", "--k", "-3"],
    ["verify", "arc", "--k", "-1"],
    ["wang", "solve", "--k", "-1", "--s", "1e3"],
], ids=["sweep", "arc", "solve"])
def test_negative_zero_order_exits_1_with_one_line(capsys, argv):
    # the sweep used to divide by zero in its chord map, the arc to name the
    # polygon's vertex count
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: zero order must be >= 0\n"


@pytest.mark.parametrize("argv", [
    ["verify", "sweep", "--k", "1", "--s", "1e2,1e3,1e4"],
    ["verify", "arc", "--k", "1", "--s", "1e2,1e3,1e4"],
], ids=["sweep", "arc"])
def test_failing_s_keeps_the_rows_that_finished(tmp_path, monkeypatch, capsys,
                                               argv):
    full, part = tmp_path / "full.csv", tmp_path / "part.csv"
    assert run(argv + ["--out", str(full)]) == 0
    solve = wang.solve_disk

    def fail_second(k, s, R, grid=None):
        if s == 1e3:
            raise NewtonDiverged("injected failure")
        return solve(k, s, R, grid)
    monkeypatch.setattr(cli.wang, "solve_disk", fail_second)
    capsys.readouterr()
    assert run(argv + ["--out", str(part)]) == 2
    assert capsys.readouterr().err == \
        "error: NewtonDiverged: injected failure\n"
    assert part.read_text().splitlines() == \
        full.read_text().splitlines()[:2]


# sha256 of each command's CSV: the bench's seed-0 sweep and arc commands, a
# chord across the negative w-axis, sweeps, solves, local models and a
# spectrum over k, three triangle-group spectra, and arcs across several
# Stokes rays at k = 0 and 3.  Any change of a bit in these outputs fails
# here
PINNED_CSV = {
    "verify sweep --k 1 --s 1e2,1e3,1e4 --path radial:0.3,0.9,0.27":
        "0e16f13ec61c4cda3803bea768a7ef5005598413c51cede426bb4d2751b14b04",
    "verify sweep --k 2 --s 1e2,1e3,1e4 "
    "--path chord:0.5480,0.0661,0.3211,0.4490":
        "9abba206acad4bec7e2ba5e197ec80f3a147449dbc910b5f2e27336af0278861",
    "verify arc --k 1 --s 1e2,1e3,1e4 --theta0 0.04 --theta1 0.75":
        "317dbc78919fb37d254e37b0f5b34ba220bd5c005b0a169c893c1f784fdd2ef1",
    "verify arc --k 2 --s 1e2,1e3,1e4 --theta0 0.04 --theta1 0.75":
        "1269a4871f3933e68465c3e9b6fb7a537521c0aef035cfbe0107073443fa64cf",
    "verify sweep --k 2 --s 1e2,1e3 "
    "--path chord:-0.494996,0.070560,0.355457,-0.351640":
        "d69eb42d11008b8d0708bf28110ac8d43123b66c20078825dba68a25060b9c10",
    "verify sweep --k 0 --s 1e2,1e8":
        "24486603d74f2945f61a872e2c4e717140b744dee0d8f396e85f91b9150aa175",
    "verify sweep --k 3":
        "0986842202acedfc8e9e99ed159a38713a89a0d371405974549d9b9cd86f3e0e",
    "wang solve --k 0 --s 1e3":
        "2fe59fc0e73fb26ecdde3ac64550047937faa37353265247be991d1dc875e991",
    "wang solve --k 1 --s 1e3":
        "a73ce173a19b89a7afabf5761d298b887328cd37703a0f6868d21f003c8241e4",
    "wang solve --k 2 --s 1e3":
        "f919ec68a1f44a750d291cbd6d539b34c50ae981f8208271a10b5c9be44924c9",
    "building localmodel --k 0":
        "03c377071953d61ca6cbbde357f5b2a06679cf797ce6c6e290113c9a636b503a",
    "building localmodel --k 2":
        "e5b9d03b91daae1259db251cfc81df1c07321afd2be302dcd26426478aef2dc3",
    "building localmodel --k 3":
        "8900ce7ab9b09be3e300dd932c732fb61893d767cc0095ce9878b9849a6a4209",
    "trigroup spectrum --pqr 3,3,4 --maxlen 1.8":
        "571036f681e200e7dc9ec051cf81e3bd4a7e87a0933ca930a2b056ef4f383462",
    "trigroup spectrum --pqr 4,4,4 --maxlen 1.8":
        "571036f681e200e7dc9ec051cf81e3bd4a7e87a0933ca930a2b056ef4f383462",
    "trigroup spectrum --pqr 3,4,5 --maxlen 1.8":
        "571036f681e200e7dc9ec051cf81e3bd4a7e87a0933ca930a2b056ef4f383462",
    "verify arc --k 3 --s 1e2,1e3 --theta0 -0.5 --theta1 2.5":
        "1e558e5d805bd5a79ae673a08806b9a002025197be51f8d391858a1d2ffd2b96",
    "verify arc --k 0 --s 1e2 --theta0 0.1 --theta1 3.0":
        "d1374e2190ca04516d89e4b732e93be8601ee1a03295ea534d8bdee38eada234",
}


def test_pinned_outputs_are_byte_identical(tmp_path):
    out = tmp_path / "out.csv"
    got = {}
    for command in PINNED_CSV:
        assert run(command.split() + ["--out", str(out)]) == 0, command
        got[command] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == PINNED_CSV


# sha256 of each command's stdout: the polygon, convexity and boundary
# commands that read the arc unipotents and the leading-term factors
PINNED_STDOUT = {
    "polygon unipotent --n 4 --theta-in 0.3 --theta-out 4.0":
        "ef60747b5e3385e1f2e47e0de82f413605eea4bb8c5aae1ab6c498e1cac293be",
    "polygon unipotent --n 5 --theta-in -1.2 --theta-out 9.0":
        "21bc6b88743fc6d34f009b3445f833a4fd63596e45ea7c9ce357e6cf6d8ef99a",
    "polygon unipotent --n 7 --theta-in 0.3 --theta-out 4.0":
        "a5f229eaa11cd9b50c69fa28d993f7950db273ac34656d49d5a1e9f7dfda2be9",
    "polygon scheme --flips 6":
        "2da8be239d821228779f7c1f7568d23cccd65ac07c2e9c86976200019f4ae159",
    "building convexity --paths 100 --corners 100 --seed 0":
        "58c658bc4a099c6ad259bc18d154fff7789fc985a66445eef14f3fdaa80de925",
    "trigroup boundary --pqr 3,3,4 --thetas 12":
        "24af80d89d7d3d30926d70dff307d2173382d2d8a3afaff95b9ce84fa790eaaa",
    "trigroup boundary --pqr 4,4,4 --thetas 12":
        "24af80d89d7d3d30926d70dff307d2173382d2d8a3afaff95b9ce84fa790eaaa",
}


def test_pinned_stdout_is_byte_identical(capsys):
    got = {}
    for command in PINNED_STDOUT:
        capsys.readouterr()
        assert run(command.split()) == 0, command
        out = capsys.readouterr().out
        got[command] = hashlib.sha256(out.encode()).hexdigest()
    assert got == PINNED_STDOUT
