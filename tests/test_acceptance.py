"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them on success).
PDE solves are cached per (k, s, grid) across criteria.
"""

import cmath
import math

import numpy as np

from hitchin_limits import (building, cli, frame, polygon, trigroup,
                            tropical, wang)
from hitchin_limits import surface as sf

import oracles

PI = math.pi
CBRT4 = 2.0 ** (2.0 / 3.0)
KAPPA = math.sqrt(3.0) * CBRT4

_SOLVES = {}


def solve_cached(k, s, grid_key="default"):
    key = (k, s, grid_key)
    if key not in _SOLVES:
        if grid_key == "default":
            _SOLVES[key] = wang.solve_disk(k, s, 1.0, wang.GridSpec(nr=200))
        elif grid_key == "decay":
            _SOLVES[key] = wang.solve_disk(k, s, 1.0,
                                           wang.decay_fit_grid(s))
        else:
            raise KeyError(grid_key)
    return _SOLVES[key]


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status}: {detail}")
    assert ok, detail


# -- 1: Titeica exactness ----------------------------------------------------

def test_acceptance_1_titeica_exactness():
    worst = 0.0
    cases = [(1.0, 0.35), (0.8, 1.1), (0.5, 2.0), (1.0, 1.9)]
    for L, theta in cases:
        s = 1e3 / L ** 3
        sol = wang.solve_disk(0, s, 1.2 * L, wang.GridSpec(nr=40))
        z0 = 0.05 * cmath.exp(1j * theta)
        z1 = z0 + L * cmath.exp(1j * theta)
        got = s ** (1 / 3) * frame.transport_weyl_exponents(sol, [z0, z1])
        # the closed form in the same frame: S^(-1) of the inverse Titeica
        # transport S e^(d(x)) S^(-1) over x is diag(e^(-d(x)))
        want = np.sort(-frame.titeica_exponents(s ** (1 / 3) * (z1 - z0)))[::-1]
        worst = max(worst, float(np.max(np.abs(got - want))))
    report(1, worst <= 1e-8,
           f"k=0 transport vs closed form, max log-sv error {worst:.2e} "
           f"(tolerance 1e-8) over s*L^3 up to 1e3")


# -- 2: tropical convergence -------------------------------------------------

def _chord_points(k, n=64):
    """Natural-coordinate chord inside the model disk, avoiding the zero."""
    rho = 3.0 / (k + 3)
    w0 = 0.92 * rho * cmath.exp(1j * 0.12)
    w1 = 0.92 * rho * cmath.exp(1j * 0.95)
    p = 3.0 / (k + 3)
    pts = []
    for t in np.linspace(0.0, 1.0, n):
        w = w0 + (w1 - w0) * t
        pts.append((w * (k + 3) / 3.0) ** p)
    return pts, w1 - w0


def test_acceptance_2_tropical_convergence():
    s_list = [1e2, 1e3, 1e4]
    ok = True
    details = []
    for k in (1, 2):
        radial_theta = 0.27 * 3 / (k + 3)
        z0 = 0.25 * cmath.exp(1j * radial_theta)
        z1 = 0.95 * cmath.exp(1j * radial_theta)
        q = wang.CubicDifferential(k)
        wa = q.natural(*q.on_branch(z0, radial_theta))
        wb = q.natural(*q.on_branch(z1, radial_theta))
        chord_pts, chord_period = _chord_points(k)
        for name, pts, period in (
                ("radial", [z0, z1], wb - wa),
                ("chord", chord_pts, chord_period)):
            target = np.array(tropical.segment_exponents(period).weyl.as_tuple())
            scale = float(np.max(np.abs(target)))
            gaps = []
            for s in s_list:
                sol = solve_cached(k, s)
                numeric = frame.transport_weyl_exponents(sol, pts)
                gaps.append(float(np.max(np.abs(numeric - target))) / scale)
            # each gap falls, unless it is at the rounding level
            monotone = all(b < a or b <= cli._GAP_FLOOR
                           for a, b in zip(gaps, gaps[1:]))
            final_ok = gaps[2] <= 0.05
            ok = ok and monotone and final_ok
            details.append(f"k={k} {name}: gaps "
                           + "/".join(f"{g:.3f}" for g in gaps))
    report(2, ok, "; ".join(details) + " (monotone, <=5% at s=1e4)")


# -- 3: arc unipotents -------------------------------------------------------

def test_acceptance_3_arc_unipotents():
    # windows in natural angles, endpoints near walls (the osculation
    # constants degrade toward Stokes directions, cf. the loose-tolerance
    # caveat for Stokes-adjacent sweeps); off-pattern entries are measured in
    # the unipotent gauge S^-1 G S, where the flip products carry their zeros
    windows = [(0.05, 1.00), (0.05, 2.05), (0.05, 3.10)]  # 1, 2, 3 Stokes rays
    ok = True
    details = []
    S, S_inv = frame.titeica_frame()
    for k in (0, 1):
        lifts = polygon.regular_lifts(k + 3)
        zf = 3.0 / (k + 3)
        for rays, (nat0, nat1) in enumerate(windows, start=1):
            Uinv = np.linalg.inv(polygon.arc_unipotent(lifts, nat0, nat1))
            pred = S @ Uinv @ S_inv
            off_mask = np.abs(Uinv) < 1e-9
            errs = {}
            offs = {}
            for s in (1e2, 1e4):
                sol = solve_cached(k, s, "decay")
                G = frame.arc_unipotent_numeric(sol, zf * nat0, zf * nat1,
                                                radius=0.5)
                errs[s] = float(np.max(np.abs(G - pred)))
                Uhat = S_inv @ G @ S
                offs[s] = float(np.max(np.abs(Uhat[off_mask]))) \
                    if off_mask.any() else 0.0
            tol = 0.1 * max(1.0, float(np.max(np.abs(pred))))
            converged = errs[1e4] <= tol
            decayed = offs[1e4] < offs[1e2] / 10 or \
                max(offs[1e2], offs[1e4]) < 5e-3
            ok = ok and converged and decayed
            details.append(f"k={k} rays={rays}: err {errs[1e4]:.4f} "
                           f"off {offs[1e2]:.1e}->{offs[1e4]:.1e}")
    report(3, ok, "; ".join(details) +
           " (entry tol 10%, off-pattern decay >=10x or converged)")


# -- 4: Wang bounds ----------------------------------------------------------

def test_acceptance_4_wang_bounds():
    bound_ok = True
    for (k, s, gk) in list(_SOLVES) or []:
        bound_ok = bound_ok and wang.pointwise_lower_bound_check(_SOLVES[(k, s, gk)])
    details = []
    trend_ok = True
    for k in (1, 2):
        fits = []
        for s in (1e2, 1e3, 1e4):
            sol = solve_cached(k, s, "decay")
            bound_ok = bound_ok and wang.pointwise_lower_bound_check(sol)
            fits.append(wang.error_field(sol) / s ** (1 / 3))
        inside = all(1.5 < f < KAPPA for f in fits)
        increasing = fits[0] < fits[1] < fits[2]
        trend_ok = trend_ok and inside and increasing
        details.append(f"k={k} fits " + "/".join(f"{f:.4f}" for f in fits))
    report(4, bound_ok and trend_ok,
           f"lower bound at all nodes of every solve; {'; '.join(details)} "
           f"in (1.5, {KAPPA:.4f}) increasing")


# -- 5: polygon combinatorics ------------------------------------------------

def test_acceptance_5_polygon_combinatorics():
    unipotency_ok = True
    incidence_ok = True
    positive_ok = True
    rng = np.random.default_rng(42)
    for n in range(3, 13):
        lifts = polygon.regular_lifts(n)
        for sigma in range(2 * n + 6):
            M = oracles.flip_matrix(lifts, sigma)
            N = M - np.eye(3)
            if np.max(np.abs(N @ N @ N)) > 1e-9:
                unipotency_ok = False
        for i in range(n):
            for j in range(n):
                det_r = np.linalg.det(np.column_stack(
                    [lifts.vector("r", i), lifts.vector("r", i + 1),
                     lifts.vector("r", j)]))
                if (abs(det_r) < 1e-10) != (j % n in (i % n, (i + 1) % n)):
                    incidence_ok = False
                det_q = np.linalg.det(np.column_stack(
                    [lifts.vector("r", i), lifts.vector("r", i + 1),
                     lifts.vector("q", j)]))
                if (abs(det_q) < 1e-10) != (j % n in ((i - 1) % n, (i + 1) % n)):
                    incidence_ok = False
        cone = 2 * PI * n / 3
        count = 0
        while count < 60:
            theta_in = rng.uniform(0, 2 * PI)
            subtend = rng.uniform(PI, cone - PI)
            if polygon.classify_angle_is_special(theta_in) or \
                    polygon.classify_angle_is_special(theta_in + subtend):
                continue
            count += 1
            out = polygon.check_entry_nonzero(lifts, theta_in, theta_in + subtend)
            if out["value"] <= 0:
                positive_ok = False
    report(5, unipotency_ok and incidence_ok and positive_ok,
           "n=3..12: (M-I)^3 <= 1e-9; incidence dichotomy exhaustive; "
           "600 admissible turns all positive")


# -- 6: building local model -------------------------------------------------

def test_acceptance_6_building_local_model():
    ok = True
    details = []
    rng = np.random.default_rng(7)
    for k in (0, 1, 2, 3):
        n = 2 * (k + 3)
        sectors_ok = all(
            abs(building.sector_image_angle(k, m) - PI / 3) < 1e-10
            for m in range(n))
        width = PI / (k + 3)
        pairs = []
        for _ in range(120):
            m = int(rng.integers(0, n))
            a = (m + rng.uniform(0.03, 0.97)) * width
            b = (m + rng.uniform(0.03, 0.97)) * width
            pairs.append((rng.uniform(0.1, 1.0) * cmath.exp(1j * a),
                          rng.uniform(0.1, 1.0) * cmath.exp(1j * b)))
        iso_dev = building.flat_isometry_check(k, pairs)
        disjoint_ok = True
        for _ in range(1000):
            wi = int(rng.integers(0, n))
            gap = int(rng.integers(2, n - 1))
            wj = (wi + gap) % n
            if min((wj - wi) % n, (wi - wj) % n) < 2:
                continue
            p = rng.uniform(0.05, 1.0) * cmath.exp(1j * (wi * width + 1e-12))
            q = rng.uniform(0.05, 1.0) * cmath.exp(1j * (wj * width + 1e-12))
            if building.ambient_separation(k, p, q) <= 1e-9:
                disjoint_ok = False
        # loop identity: the branch labels close up around the zero, so u
        # is continuous across the seam arg z = 0
        loop_ok = all(np.max(np.abs(
            building.local_model_eval(k, r * cmath.exp(1e-9j)).as_array()
            - building.local_model_eval(k, r * cmath.exp(-1e-9j)).as_array()))
            < 1e-8 for r in (0.05, 0.5, 1.0))
        ok = ok and sectors_ok and iso_dev <= 1e-10 and disjoint_ok and loop_ok
        details.append(f"k={k}: {n} sectors, iso dev {iso_dev:.1e}")
    report(6, ok, "; ".join(details) +
           " (pi/3 sectors, isometry <=1e-10, disjointness, loop identity)")


# -- 7: weak convexity -------------------------------------------------------

def test_acceptance_7_weak_convexity():
    rng = np.random.default_rng(11)
    geod_ok = 0
    for _ in range(100):
        path = building.random_geodesic_path(rng)
        if building.weak_convexity_check(path):
            geod_ok += 1
    corner_ok = 0
    for _ in range(100):
        path = building.random_corner_path(rng)
        total = tropical.path_singular_exponents(
            seg.period for seg in path.segments)
        deficit = total.x1 - polygon.tropical_norm_exponent(path)
        if not building.weak_convexity_check(path) and deficit > 1e-9:
            corner_ok += 1
    report(7, geod_ok == 100 and corner_ok == 100,
           f"additivity on {geod_ok}/100 random geodesics; "
           f"strict top deficit on {corner_ok}/100 sharp corners")


# -- 8: triangle groups ------------------------------------------------------

def test_acceptance_8_triangle_groups():
    orb = trigroup.build_orbifold(3, 3, 4, layers=9)
    surf = orb.surface
    valences = {}
    orders = {}
    for t in range(3):
        classes = oracles.interior_classes_of_type(orb, t)
        valences[t] = len(surf.fans[classes[0]])
        orders[t] = surf.vertex_orders[classes[0]]
    struct_ok = (sf.validate(surf) == []
                 and sorted(valences.values()) == [6, 6, 8]
                 and sorted(orders.values()) == [0, 0, 1])
    fam = [trigroup.straight_positive_cycle(3, 3, 4),
           trigroup.straight_median_cycle(3, 3, 4)]
    grid = [2 * PI * i / 12 for i in range(12)]
    probe = trigroup.boundary_injectivity_probe(fam, grid)
    probe_ok = probe > 1e-6
    a = trigroup.spectrum(fam).projectivized.tobytes()
    b = trigroup.spectrum(trigroup.rotated_paths(fam, 2 * PI)) \
        .projectivized.tobytes()
    bit_ok = a == b
    report(8, struct_ok and probe_ok and bit_ok,
           f"(3,3,4) valences {sorted(valences.values())}, orders "
           f"{sorted(orders.values())}; probe min {probe:.4f} > 0; "
           f"theta=2pi spectra bit-identical: {bit_ok}")
