"""Command-line front end.

Subcommands: surface build|validate, tropical spectrum, polygon
unipotent|scheme, wang solve, verify sweep|arc, building
localmodel|convexity, trigroup spectrum|boundary.

All CSV output carries a header row and locale-independent %.17g numbers, so
identical configurations (and seeds) produce byte-identical files.  Exit
codes: 0 success, 1 bad input (usage errors and every ValueError included),
2 numerical failure (a HitchinLimitsError, named by its type).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import sys

import numpy as np

from . import building, frame, polygon, trigroup, tropical, wang
from . import surface as surf_mod
from .errors import HitchinLimitsError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

# sweep gaps up to this size are rounding-level: a gap below the one before
# it, or at most this, keeps the sweep monotone
_GAP_FLOOR = 1e-14


def _fmt(x) -> str:
    return "%.17g" % (float(x) + 0.0)   # + 0.0 turns -0 into 0


def _write_csv(path, header, rows):
    text = "".join(",".join(v if isinstance(v, str) else _fmt(v) for v in row)
                   + "\n" for row in [header, *rows])
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _diag(msg):
    sys.stderr.write(msg.rstrip() + "\n")


def _parse_s_list(text):
    vals = [_real(tok) for tok in text.split(",") if tok]
    if not vals:
        raise ValueError("s-list is empty")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError("s-list must be strictly increasing")
    return vals


def _rows_per_s(s_list, row, out, header):
    """The CSV rows row(s) for each s in turn, written to out under header;
    the rows that finished are written also when a later s fails."""
    rows = []
    try:
        for s in s_list:
            rows.append(row(s))
    finally:
        if rows:
            _write_csv(out, header, rows)
    return rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_surface_build(args):
    k, radius = int(args.disk[0]), _real(args.disk[1])
    surf = surf_mod.build_polynomial_disk(k, radius)
    violations = surf_mod.validate(surf)
    if violations:
        for v in violations:
            _diag(f"violation: {v.kind} {v.detail}")
        return EXIT_VALIDATION
    surf_mod.save_surface(surf, args.out)
    _diag(f"wrote {args.out}: {len(surf.triangles)} triangles, "
          f"{surf.n_classes()} vertex classes")
    return EXIT_OK


def cmd_surface_validate(args):
    surf = surf_mod.load_surface(getattr(args, "in"))
    violations = surf_mod.validate(surf)
    for v in violations:
        print(f"{v.kind}: {v.detail}")
    if violations:
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def cmd_tropical_spectrum(args):
    path = surf_mod.load_path(args.path)
    # the run sums are the holonomy limit only along a geodesic path
    violations = surf_mod.validate_path(path)
    if violations:
        kind, i, detail = violations[0]
        raise ValueError(f"path is not geodesic: {kind} at the junction "
                         f"after segment {i} ({detail})")
    periods = [seg.period for seg in path.segments]
    rows = []
    for i, period in enumerate(periods):
        run = tropical.path_singular_exponents(periods[:i + 1])
        rows.append((i, *tropical.segment_exponents(period).nu,
                     *run.as_tuple()))
    _write_csv(args.out, ["segment", "nu1", "nu2", "nu3",
                          "run_x1", "run_x2", "run_x3"], rows)
    return EXIT_OK


def cmd_polygon_unipotent(args):
    lifts = polygon.regular_lifts(args.n)
    U = polygon.arc_unipotent(lifts, args.theta_in, args.theta_out)
    print("U(theta_in, theta_out)^-1 =")
    for row in U:
        print("  [" + ", ".join(_fmt(v) for v in row) + "]")
    if surf_mod.geodesic_turn(args.n - 3, args.theta_out - args.theta_in):
        out = polygon.check_entry_nonzero(lifts, args.theta_in, args.theta_out)
        print(f"paired entry {out['entry']}: {_fmt(out['value'])} (positive)")
    else:
        print("turn outside the geodesic range; no entry check")
    return EXIT_OK


def cmd_polygon_scheme(args):
    for (lo, hi), basis, tags in polygon.scheme_trace(args.flips):
        labels = " ".join(f"{kind}{idx}" for kind, idx in basis)
        print(f"({_fmt(lo)}, {_fmt(hi)})  basis: {labels:24s} "
              f"eigen: {''.join(tags)}")
    return EXIT_OK


def cmd_wang_solve(args):
    grid = wang.GridSpec(nr=args.nr, ratio=args.ratio)
    sol = wang.solve_disk(args.k, args.s, args.radius, grid)
    _write_csv(args.out, ["r", "phi", "F", "residual"],
               zip(sol.rs, sol.phi, sol.F, sol.residual_nodes))
    _diag(f"residual norm {sol.residual_history[-1]:.3e} after "
          f"{len(sol.residual_history) - 1} Newton steps")
    return EXIT_OK


_PATH_ARITY = {"radial": 3, "chord": 4}


def _sweep_path(spec, q, radius):
    """Chart polyline and natural-chart period of the cubic differential q
    for a sweep path spec 'radial:r0,r1,theta' or 'chord:w0re,w0im,w1re,w1im'
    (natural-coordinate chord mapped to the chart), inside the punctured
    solved disk 0 < |z| <= radius.

    A chord is mapped on the branch continued along it from the principal
    one at its start, so a chord across the negative real w-axis stays one
    continuous chart curve, and its period is read on that branch.
    """
    kind, _, rest = spec.partition(":")
    if kind not in _PATH_ARITY:
        raise ValueError(f"unknown path spec {spec!r}")
    vals = [_real(t) for t in rest.split(",")] if rest else []
    if len(vals) != _PATH_ARITY[kind]:
        raise ValueError(f"path spec {spec!r}: {kind} takes "
                         f"{_PATH_ARITY[kind]} values, got {len(vals)}")
    if kind == "radial":
        r0, r1, theta = vals
        pts = [r0 * cmath.exp(1j * theta), r1 * cmath.exp(1j * theta)]
        branch = cmath.phase(pts[-1])
    else:
        w0, w1 = complex(vals[0], vals[1]), complex(vals[2], vals[3])
        pts = []
        arg, branch = cmath.phase(w0), 0.0
        for t in np.linspace(0.0, 1.0, 48):
            w = w0 + (w1 - w0) * t
            # the lifts of arg w and of arg z nearest the previous point's
            sheet = round((arg - cmath.phase(w)) / (2 * math.pi))
            arg = cmath.phase(w) + 2 * math.pi * sheet
            pts.append(q.chart_point(w, sheet))
            _, branch = q.on_branch(pts[-1], branch)
    if pts[0] == pts[-1]:
        raise ValueError(f"path spec {spec!r} has zero length")
    if (kind == "radial" and r0 * r1 < 0) or \
            any(abs(z) == 0 or abs(z) > radius for z in pts):
        raise ValueError(f"path spec {spec!r} leaves the punctured disk "
                         f"0 < |z| <= {radius:g}")
    a = complex(pts[0])
    period = (q.natural(*q.on_branch(complex(pts[-1]), branch))
              - q.natural(*q.on_branch(a, cmath.phase(a))))
    return pts, period


def cmd_verify_sweep(args):
    q = wang.CubicDifferential(args.k)
    s_list = _parse_s_list(args.s)
    pts, period = _sweep_path(args.path, q, args.radius)
    target = np.array(tropical.segment_exponents(period).weyl.as_tuple())
    scale = float(np.max(np.abs(target)))

    def row(s):
        sol = wang.solve_disk(q.k, s, args.radius)
        numeric = frame.transport_weyl_exponents(sol, pts)
        return (s, *numeric, *target, *(np.abs(numeric - target) / scale))
    rows = _rows_per_s(s_list, row, args.out,
                       ["s", "num_x1", "num_x2", "num_x3", "trop_x1",
                        "trop_x2", "trop_x3", "gap_x1", "gap_x2", "gap_x3"])
    gaps = [max(r[-3:]) for r in rows]
    monotone = all(b < a or b <= _GAP_FLOOR for a, b in zip(gaps, gaps[1:]))
    _diag(f"max relative gap at s={s_list[-1]:g}: {gaps[-1]:.3e}"
          f" (monotone: {monotone})")
    return EXIT_OK


def cmd_verify_arc(args):
    q = wang.CubicDifferential(args.k)
    s_list = _parse_s_list(args.s)
    if not 0 < args.radius <= args.radius_disk:
        raise ValueError(f"arc radius {args.radius:g} is outside the solved "
                         f"disk (0, {args.radius_disk:g}]")
    nat0, nat1 = q.natural_angle(args.theta0), q.natural_angle(args.theta1)
    for theta, nat in ((args.theta0, nat0), (args.theta1, nat1)):
        # the osculation estimate holds strictly inside Stokes sectors only
        if polygon.on_stokes_ray(nat):
            raise ValueError(f"arc endpoint {theta:g} lies on a Stokes ray "
                             f"(natural angle {nat:g})")
    U = polygon.arc_unipotent(polygon.regular_lifts(q.k + 3), nat0, nat1)
    S, S_inv = frame.titeica_frame()
    pred = S @ np.linalg.inv(U) @ S_inv

    def row(s):
        sol = wang.solve_disk(q.k, s, args.radius_disk)
        G = frame.arc_unipotent_numeric(sol, args.theta0, args.theta1,
                                        radius=args.radius)
        return s, float(np.max(np.abs(G - pred)))
    rows = _rows_per_s(s_list, row, args.out, ["s", "entrywise_error"])
    _diag(f"entrywise error at s={s_list[-1]:g}: {rows[-1][1]:.4e}")
    return EXIT_OK


def cmd_building_localmodel(args):
    wang.CubicDifferential(args.k)   # refuses a negative zero order
    rng = np.random.default_rng(args.seed)
    rows = []
    for _ in range(args.samples):
        psi = rng.uniform(0.0, 2 * math.pi)
        r = rng.uniform(0.05, 1.0)
        z = r * cmath.exp(1j * psi)
        u = building.local_model_eval(args.k, z)
        rows.append((building.sector_index(args.k, z), z.real, z.imag,
                     u.x1, u.x2, u.x3))
    _write_csv(args.out, ["sector", "re_z", "im_z", "x1", "x2", "x3"], rows)
    return EXIT_OK


def cmd_building_convexity(args):
    rng = np.random.default_rng(args.seed)
    fails = sum(not building.weak_convexity_check(
        building.random_geodesic_path(rng)) for _ in range(args.paths))
    corner_fails = sum(building.weak_convexity_check(
        building.random_corner_path(rng)) for _ in range(args.corners))
    print(f"geodesic additivity: {args.paths - fails}/{args.paths}")
    print(f"corner deficits:     {args.corners - corner_fails}/{args.corners}")
    return EXIT_OK if fails == 0 and corner_fails == 0 else EXIT_NUMERICAL


def _cycles_and_thetas(args):
    """The two straight cycles of args.pqr and args.thetas angles 2 pi i/n."""
    return ([trigroup.straight_positive_cycle(*args.pqr),
             trigroup.straight_median_cycle(*args.pqr)],
            [2 * math.pi * i / args.thetas for i in range(args.thetas)])


def cmd_trigroup_spectrum(args):
    orb = trigroup.build_orbifold(*args.pqr, layers=args.layers)
    classes, thetas = _cycles_and_thetas(args)
    conns = surf_mod.enumerate_saddle_connections(orb.surface, args.maxlen)
    _diag(f"saddle connections up to {args.maxlen}: {len(conns)} "
          f"(clipped: {conns.clipped})")
    rows = []
    for th in thetas:
        spec = trigroup.spectrum(trigroup.rotated_paths(classes, th))
        for ci, wv in enumerate(spec.values):
            rows.append((th, ci, wv.x1, wv.x2, wv.x3))
    _write_csv(args.out, ["theta", "class", "x1", "x2", "x3"], rows)
    return EXIT_OK


def cmd_trigroup_boundary(args):
    classes, thetas = _cycles_and_thetas(args)
    dist = trigroup.boundary_injectivity_probe(classes, thetas)
    print(f"min pairwise projectivized distance: {_fmt(dist)}")
    return EXIT_OK if dist > 0 else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors print one line and exit with the validation code."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"error: {message}\n")


def _count(least):
    """argparse type: an integer of at least ``least``."""
    def count(text):
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or n < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {text!r}")
        return n
    return count


def _real(text):
    """argparse type, and the parser of s-list and path spec tokens: a
    finite number."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return x


def _pqr(text):
    """argparse type: the three integers p,q,r of a triangle group."""
    try:
        p, q, r = (int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected three integers p,q,r, got {text!r}") from None
    return p, q, r


@functools.cache
def build_parser():
    """The argparse tree, built once per process: parse_args reads it and
    returns a fresh namespace, so no value or default leaks between calls."""
    ap = _Parser(prog="hitchin-limits")
    sub = ap.add_subparsers(dest="group", required=True)

    g = sub.add_parser("surface").add_subparsers(dest="action", required=True)
    b = g.add_parser("build")
    b.add_argument("--disk", nargs=2, metavar=("K", "RADIUS"), required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_surface_build)
    v = g.add_parser("validate")
    v.add_argument("--in", required=True)
    v.set_defaults(func=cmd_surface_validate)

    g = sub.add_parser("tropical").add_subparsers(dest="action", required=True)
    t = g.add_parser("spectrum")
    t.add_argument("--path", required=True)
    t.add_argument("--out", default="-")
    t.set_defaults(func=cmd_tropical_spectrum)

    g = sub.add_parser("polygon").add_subparsers(dest="action", required=True)
    u = g.add_parser("unipotent")
    u.add_argument("--n", type=_count(3), required=True)
    u.add_argument("--theta-in", dest="theta_in", type=_real, required=True)
    u.add_argument("--theta-out", dest="theta_out", type=_real, required=True)
    u.set_defaults(func=cmd_polygon_unipotent)
    sch = g.add_parser("scheme")
    sch.add_argument("--flips", type=_count(0), default=6)
    sch.set_defaults(func=cmd_polygon_scheme)

    g = sub.add_parser("wang").add_subparsers(dest="action", required=True)
    w = g.add_parser("solve")
    w.add_argument("--k", type=int, required=True)
    w.add_argument("--s", type=_real, required=True)
    w.add_argument("--radius", type=_real, default=1.0)
    w.add_argument("--nr", type=int, default=wang.GridSpec.nr)
    w.add_argument("--ratio", type=_real, default=wang.GridSpec.ratio)
    w.add_argument("--out", default="-")
    w.set_defaults(func=cmd_wang_solve)

    g = sub.add_parser("verify").add_subparsers(dest="action", required=True)
    sw = g.add_parser("sweep")
    sw.add_argument("--k", type=int, required=True)
    sw.add_argument("--s", default="1e2,1e3,1e4")
    sw.add_argument("--path", default="radial:0.3,0.9,0.27")
    sw.add_argument("--radius", type=_real, default=1.0)
    sw.add_argument("--out", default="-")
    sw.set_defaults(func=cmd_verify_sweep)
    arc = g.add_parser("arc")
    arc.add_argument("--k", type=int, required=True)
    arc.add_argument("--s", default="1e2,1e3,1e4")
    arc.add_argument("--theta0", type=_real, default=0.3)
    arc.add_argument("--theta1", type=_real, default=0.8)
    arc.add_argument("--radius", type=_real, default=0.5)
    arc.add_argument("--radius-disk", dest="radius_disk", type=_real, default=1.0)
    arc.add_argument("--out", default="-")
    arc.set_defaults(func=cmd_verify_arc)

    g = sub.add_parser("building").add_subparsers(dest="action", required=True)
    lm = g.add_parser("localmodel")
    lm.add_argument("--k", type=int, required=True)
    lm.add_argument("--samples", type=_count(0), default=100)
    lm.add_argument("--seed", type=int, default=0)
    lm.add_argument("--out", default="-")
    lm.set_defaults(func=cmd_building_localmodel)
    cv = g.add_parser("convexity")
    cv.add_argument("--paths", type=_count(0), default=100)
    cv.add_argument("--corners", type=_count(0), default=100)
    cv.add_argument("--seed", type=int, default=0)
    cv.set_defaults(func=cmd_building_convexity)

    g = sub.add_parser("trigroup").add_subparsers(dest="action", required=True)
    ts = g.add_parser("spectrum")
    ts.add_argument("--pqr", type=_pqr, default="3,3,4")
    ts.add_argument("--maxlen", type=_real, default=1.01)
    ts.add_argument("--thetas", type=_count(1), default=12)
    ts.add_argument("--layers", type=_count(0), default=9)
    ts.add_argument("--out", default="-")
    ts.set_defaults(func=cmd_trigroup_spectrum)
    tb = g.add_parser("boundary")
    tb.add_argument("--pqr", type=_pqr, default="3,3,4")
    tb.add_argument("--thetas", type=_count(2), default=12)
    tb.set_defaults(func=cmd_trigroup_boundary)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as err:
        # a ValueError subclass, but a numerical failure
        _diag(f"error: LinAlgError: {err}")
        return EXIT_NUMERICAL
    except (ValueError, OSError, argparse.ArgumentTypeError) as err:
        _diag(f"error: {err}")
        return EXIT_VALIDATION
    except HitchinLimitsError as err:
        _diag(f"error: {type(err).__name__}: {err}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
