import cmath
import dataclasses
import math

import numpy as np
import pytest

from hitchin_limits import polygon as pg
from hitchin_limits import trigroup, tropical
from hitchin_limits.frame import BETA, titeica_frame
from hitchin_limits.surface import (GeodesicPath, Junction, SaddleConnection,
                                    synthesize_path, validate_path)

import oracles

PI = math.pi


def test_lift_values_n3():
    lifts = pg.regular_lifts(3)
    assert lifts.vector("r", 0) == pytest.approx([1.0, 0.0, 1.0])
    assert lifts.vector("q", 0) == pytest.approx([-0.5, -math.sqrt(3) / 2, 1.0])


def test_lift_values_n4():
    lifts = pg.regular_lifts(4)
    assert lifts.vector("q", 0) == pytest.approx([-1.0, -1.0, 0.0])


@pytest.mark.parametrize("n", range(3, 13))
def test_incidence_q_on_lines(n):
    lifts = pg.regular_lifts(n)
    for j in range(n):
        d1 = np.linalg.det(np.column_stack([
            lifts.vector("r", j - 1), lifts.vector("r", j), lifts.vector("q", j)]))
        d2 = np.linalg.det(np.column_stack([
            lifts.vector("r", j + 1), lifts.vector("r", j + 2), lifts.vector("q", j)]))
        assert abs(d1) < 1e-10
        assert abs(d2) < 1e-10


@pytest.mark.parametrize("n", range(3, 13))
def test_incidence_dichotomy(n):
    lifts = pg.regular_lifts(n)
    for i in range(n):
        for j in range(n):
            det_r = np.linalg.det(np.column_stack([
                lifts.vector("r", i), lifts.vector("r", i + 1),
                lifts.vector("r", j)]))
            on_line = j % n in (i % n, (i + 1) % n)
            assert (abs(det_r) < 1e-10) == on_line
            det_q = np.linalg.det(np.column_stack([
                lifts.vector("r", i), lifts.vector("r", i + 1),
                lifts.vector("q", j)]))
            on_line_q = j % n in ((i - 1) % n, (i + 1) % n)
            assert (abs(det_q) < 1e-10) == on_line_q


@pytest.mark.parametrize("n", range(3, 13))
def test_flips_unipotent(n):
    lifts = pg.regular_lifts(n)
    for sigma in range(-3, 2 * n + 3):
        M = oracles.flip_matrix(lifts, sigma)
        N = M - np.eye(3)
        assert np.max(np.abs(N @ N @ N)) < 1e-9
        # exactly one off-diagonal entry (possibly zero for n = 3)
        off = np.abs(N - np.diag(np.diag(N)))
        assert np.sum(off > 1e-9) <= 1


def test_determinant_positivity():
    # D_v = det(r_j, r_j+1, r_k) > 0 off the edge; frame determinant D > 0
    for n in range(3, 13):
        lifts = pg.regular_lifts(n)
        for j in range(n):
            for k in range(n):
                if k in (j % n, (j + 1) % n):
                    continue
                d = np.linalg.det(np.column_stack([
                    lifts.vector("r", j), lifts.vector("r", j + 1),
                    lifts.vector("r", k)]))
                assert d > 1e-12
        for sigma in range(2 * n):
            assert np.linalg.det(pg.basis_matrix(lifts, sigma)) > 1e-12


def test_scheme_trace_matches_table():
    rows = pg.scheme_trace(6)
    expected = [
        (("r", -1), ("r", 0), ("r", 1)),
        (("q", 0), ("r", 0), ("r", 1)),
        (("r", 2), ("r", 0), ("r", 1)),
        (("r", 2), ("q", 1), ("r", 1)),
        (("r", 2), ("r", 3), ("r", 1)),
        (("r", 2), ("r", 3), ("q", 2)),
        (("r", 2), ("r", 3), ("r", 4)),
    ]
    assert [basis for _, basis, _ in rows] == expected
    assert rows[0][2] == ("s", "l", "m")
    # the start half-sector (0, pi/6), then (2f - 1) pi/6 onward after flip f
    assert [lo for (lo, _), _, _ in rows] == pytest.approx(
        [0.0] + [(2 * f - 1) * PI / 6 for f in range(1, 7)])
    # six flips advance all indices by 3
    assert rows[6][1] == tuple((kind, idx + 3) for kind, idx in rows[0][1])


def test_flip_replaces_smallest_slot():
    # the replaced slot carries the smallest eigenvalue at the crossing; the
    # tags at the crossing are those of the wall interval containing the
    # Stokes ray, i.e. the post-flip half-sector
    rows = pg.scheme_trace(24)
    for (_, basis, _), (_, nxt, tags) in zip(rows, rows[1:]):
        changed = [i for i in range(3) if basis[i] != nxt[i]]
        assert len(changed) == 1
        assert tags[changed[0]] == "s"


def test_tags_match_cosine_ranks():
    rng = np.random.default_rng(2)
    for theta in rng.uniform(-2 * PI, 4 * PI, size=40):
        tau = pg.wall_interval_of(theta)
        vals = [math.cos(theta - b) for b in BETA]
        order = np.argsort(vals)  # ascending: s, m, l
        tags = [None] * 3
        tags[order[0]], tags[order[1]], tags[order[2]] = "s", "m", "l"
        assert tuple(tags) == pg.eigen_tags(tau)


def test_eigen_tags_table():
    # the six wall-to-wall intervals, tau = 0 at (0, pi/3); period 6
    table = [("s", "l", "m"), ("s", "m", "l"), ("m", "s", "l"),
             ("l", "s", "m"), ("l", "m", "s"), ("m", "l", "s")]
    for tau in range(-6, 12):
        assert pg.eigen_tags(tau) == table[tau % 6]


def test_arc_unipotent_zero_crossings_identity():
    lifts = pg.regular_lifts(5)
    U = pg.arc_unipotent(lifts, 0.05, 0.45)
    assert np.allclose(U, np.eye(3), atol=1e-12)


def test_arc_unipotent_single_crossing():
    lifts = pg.regular_lifts(4)
    U = pg.arc_unipotent(lifts, 0.3, 0.8)  # crosses pi/6
    N = np.abs(U - np.eye(3))
    assert np.sum(N > 1e-12) == 1  # single nonzero off-diagonal entry


def test_arc_unipotent_matches_direct_solve():
    # the one solve against the product of one flip per crossed Stokes ray,
    # on arcs of either orientation winding up to six times around the zero
    rng = np.random.default_rng(20)
    lifts = {n: pg.regular_lifts(n) for n in range(3, 9)}
    for _ in range(2000):
        n = int(rng.integers(3, 9))
        th0, th1 = rng.uniform(-20.0, 20.0, size=2)
        U = pg.arc_unipotent(lifts[n], th0, th1)
        want = oracles.flip_product(lifts[n], th0, th1)
        assert np.max(np.abs(U - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(np.abs(U) > pg._PATTERN_TOL,
                              np.abs(want) > pg._PATTERN_TOL)


def _stokes_ray(m):
    return PI / 6 + m * PI / 3


def test_arc_unipotent_takes_a_stokes_endpoint_ccw():
    # an endpoint on a Stokes ray gives the arc from just ccw of the ray
    lifts = pg.regular_lifts(4)
    for m in range(-3, 4):
        ray = _stokes_ray(m)
        want = pg.arc_unipotent(lifts, ray + 1e-4, 2.0)
        for d in (-1e-11, 0.0, 1e-11):
            assert np.array_equal(pg.arc_unipotent(lifts, ray + d, 2.0), want)
        assert not np.allclose(pg.arc_unipotent(lifts, ray - 1e-4, 2.0), want)


def test_sector_of_puts_a_stokes_ray_in_the_sector_ccw_of_it():
    # sector m + 1 begins at the ray pi/6 + m pi/3; the ray and angles within
    # 1e-11 of it on either side belong to that sector, not to sector m
    for m in range(-3, 4):
        ray = _stokes_ray(m)
        for d in (-1e-11, 0.0, 1e-11):
            assert pg.on_stokes_ray(ray + d)
            assert pg.sector_of(ray + d) == m + 1
        assert pg.sector_of(ray - 1e-4) == m
        assert pg.sector_of(ray + 1e-4) == m + 1
        assert not pg.on_stokes_ray(ray - 1e-4)
    assert not pg.on_stokes_ray(0.3)


def test_check_entry_requires_geodesic_turn():
    lifts = pg.regular_lifts(4)
    with pytest.raises(ValueError, match="outside the geodesic range"):
        pg.check_entry_nonzero(lifts, 0.1, 0.1 + 0.5)


def test_check_entry_minimal_turn_n3_diagonal():
    lifts = pg.regular_lifts(3)
    out = pg.check_entry_nonzero(lifts, 0.05, 0.05 + PI)
    row, col = out["entry"]
    assert row == col
    assert out["value"] > 0


def test_check_entry_four_ray_turn_pairs_q_slot():
    # after four flips the outgoing top slot carries the exterior vertex
    # q_(j-2); the paired entry is positive (needs n >= 4 for the turn to fit)
    lifts = pg.regular_lifts(4)
    theta_in = 0.6          # circumscribed sector, first half
    theta_out = theta_in + 4.5  # crosses 4 Stokes rays
    out = pg.check_entry_nonzero(lifts, theta_in, theta_out)
    assert out["value"] > 0
    kind, idx = pg.basis_labels(pg.sector_of(theta_out))[out["entry"][0]]
    assert kind == "q" and idx % 4 == 2  # q_(j-2) with j = 0


def test_check_entry_positive_sweep():
    rng = np.random.default_rng(5)
    for n in range(3, 13):
        lifts = pg.regular_lifts(n)
        cone = 2 * PI * n / 3
        for _ in range(60):
            theta_in = rng.uniform(0, 2 * PI)
            if pg.classify_angle_is_special(theta_in):
                continue
            subtend = rng.uniform(PI, cone - PI)
            theta_out = theta_in + subtend
            if pg.classify_angle_is_special(theta_out):
                continue
            out = pg.check_entry_nonzero(lifts, theta_in, theta_out)
            assert out["value"] > 0


def test_stokes_line_insensitivity():
    # moving the incoming endpoint across one Stokes ray keeps the paired
    # entry value unchanged
    # one Stokes crossing within the same wall interval, both endpoints
    lifts = pg.regular_lifts(5)
    a = pg.check_entry_nonzero(lifts, 0.4, 4.6)
    b = pg.check_entry_nonzero(lifts, 0.65, 4.6)   # crosses pi/6 only
    c = pg.check_entry_nonzero(lifts, 0.4, 4.8)    # out crosses 3*pi/2 only
    assert a["value"] == pytest.approx(b["value"], rel=1e-9)
    assert a["value"] == pytest.approx(c["value"], rel=1e-9)


# -- leading term ------------------------------------------------------------

def test_leading_term_single_segment_closed_form():
    period = 0.7 * cmath.exp(0.4j)
    path = synthesize_path([abs(period)], turns=[], orders=[],
                           start_angle=cmath.phase(period))
    s = 50.0
    lt = pg.leading_term(path, s=s)
    S, S_inv = titeica_frame()
    exps = np.array([-tropical.CBRT4 * s ** (1 / 3) * abs(period)
                     * math.cos(cmath.phase(period) - b) for b in BETA])
    direct = (S * np.exp(exps - exps.max())) @ S_inv
    direct_scale = np.max(np.abs(direct))
    expected_log = exps.max() + math.log(direct_scale)
    assert lt.log_scale == pytest.approx(expected_log, rel=1e-9)
    assert np.allclose(lt.matrix, direct / direct_scale, atol=1e-9)


def test_leading_term_slope_is_norm_exponent():
    path = synthesize_path([1.0, 1.4], turns=[PI + 0.4], orders=[1],
                           start_angle=0.25)
    target = tropical.path_singular_exponents(
        seg.period for seg in path.segments).x1
    slopes = []
    for s in (1e4, 1e6, 1e8):
        lt = pg.leading_term(path, s=s)
        slopes.append(lt.norm_exponent())
    # the gap carries the O(1) entry constants over s^(1/3)
    assert slopes[2] == pytest.approx(target, rel=2e-3)
    assert abs(slopes[2] - target) < abs(slopes[1] - target) < abs(slopes[0] - target)


def test_leading_term_closed_cycle_slope():
    # unit 2-cycle with junction charts wrapping around the zero: exercises
    # the closed-path seam permutations
    path = synthesize_path([1.0, 1.0], turns=[PI, 5 * PI / 3],
                           orders=[1, 1], closed=True, start_angle=0.0)
    target = tropical.path_singular_exponents(
        seg.period for seg in path.segments).x1
    gaps = []
    for s in (1e6, 1e8):
        lt = pg.leading_term(path, s=s)
        assert lt.wall_ambiguity
        gaps.append(abs(lt.norm_exponent() - target))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 2e-3 * target


def _turned(path, delta):
    """The path of the differential e^(3 i delta) q: every period and every
    junction angle turned ccw by delta."""
    w = cmath.exp(1j * delta)
    segs = tuple(SaddleConnection(seg.start, seg.end, w * seg.period)
                 for seg in path.segments)
    juncs = tuple(Junction(j.order, j.theta_in + delta, j.theta_out + delta,
                           j.zero) for j in path.junctions)
    return GeodesicPath(segs, juncs, path.closed)


def test_leading_term_gap_on_a_stokes_cycle_shrinks_like_s_to_minus_third():
    # every segment of the median cycle runs along a Stokes direction, so
    # every arc endpoint lies on a Stokes ray
    path = trigroup.straight_median_cycle(3, 3, 4)
    x1 = tropical.path_singular_exponents(
        seg.period for seg in path.segments).x1
    scaled = [(pg.leading_term(path, s).norm_exponent() - x1) * s ** (1 / 3)
              for s in (1e3, 1e6, 1e9)]
    assert scaled[0] < -0.5
    assert scaled == pytest.approx([scaled[0]] * 3, rel=1e-3)


def test_stokes_endpoints_follow_the_ccw_turned_differential():
    # on the (4,4,4) median cycle the two sides of the Stokes rays give
    # different arcs; the path factors read the ccw side, the limit of
    # e^(i eps) q as eps -> 0+
    path = trigroup.straight_median_cycle(4, 4, 4)
    s = 1e3
    log_scale = pg.leading_term(path, s).log_scale
    ccw = pg.leading_term(_turned(path, 1e-6), s).log_scale
    cw = pg.leading_term(_turned(path, -1e-6), s).log_scale
    assert ccw == pytest.approx(log_scale, abs=1e-4)
    assert abs(cw - log_scale) > 0.1


def test_leading_term_wall_flag():
    path = synthesize_path([1.0], turns=[], orders=[], start_angle=0.0)
    assert pg.leading_term(path, s=10.0).wall_ambiguity


def test_tropical_norm_exponent_geodesic_additive():
    path = synthesize_path([1.0, 1.4, 0.8],
                           turns=[PI + 0.4, PI + 0.9],
                           orders=[1, 2], start_angle=0.25)
    assert pg.tropical_norm_exponent(path) == pytest.approx(
        tropical.path_singular_exponents(
            seg.period for seg in path.segments).x1, abs=1e-9)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_junction_in_another_chart_of_its_zero_gives_the_same_terms(k, m):
    # theta_in and theta_out turned by 2 pi m/3 see the same directions in
    # another natural chart of the zero: _path_factors re-charts the
    # incoming segment (chart mismatch m) and the outgoing one (-m)
    extra = 2 * PI * k / 3            # the width of the geodesic turn range
    turn = 2 * PI * m / 3
    for start in (0.25, 4.0):
        path = synthesize_path([1.0, 1.4, 0.8],
                               turns=[PI + 0.3 * extra, PI + 0.8 * extra],
                               orders=[k, k], start_angle=start)
        for j, jn in enumerate(path.junctions):
            turned = dataclasses.replace(jn, theta_in=jn.theta_in + turn,
                                         theta_out=jn.theta_out + turn)
            other = dataclasses.replace(path, junctions=tuple(
                turned if i == j else x for i, x in enumerate(path.junctions)))
            a, b = pg.leading_term(path, 1e3), pg.leading_term(other, 1e3)
            assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-14
            assert a.norm_exponent() == pytest.approx(b.norm_exponent(),
                                                      rel=1e-14)
            assert (pg.tropical_norm_exponent(other)
                    == pg.tropical_norm_exponent(path))


def test_chart_alignment_tolerance_is_shared():
    # a junction 1e-6 rad off its chart is refused by validate_path and by
    # the leading term alike (1e-6 rad is under 1e-6 of 2 pi/3)
    path = synthesize_path([1.0, 1.4], turns=[PI + 0.4], orders=[1],
                           start_angle=0.25)
    jn = path.junctions[0]
    off = dataclasses.replace(path, junctions=(
        dataclasses.replace(jn, theta_in=jn.theta_in + 1e-6),))
    assert [v[0] for v in validate_path(off)] == ["ChartMisalignedIn"]
    with pytest.raises(ValueError, match="not chart-aligned"):
        pg.leading_term(off)
    with pytest.raises(ValueError, match="not chart-aligned"):
        pg.tropical_norm_exponent(off)


def test_tropical_norm_exponent_corner_deficit():
    from hitchin_limits.surface import GeodesicPath, Junction, SaddleConnection
    # corner with ccw side angle < pi at a k = 1 zero
    p0 = 1.0 * cmath.exp(0.25j)
    theta_in = 0.25 + PI
    ccw = 0.25 * PI  # sharper than pi
    theta_out = theta_in + ccw
    p1 = 1.3 * cmath.exp(1j * theta_out)
    path = GeodesicPath(
        (SaddleConnection(-1, -1, p0), SaddleConnection(-1, -1, p1)),
        (Junction(order=1, theta_in=theta_in, theta_out=theta_out),),
        False)
    total = tropical.path_singular_exponents(
        seg.period for seg in path.segments)
    deficit = total.x1 - pg.tropical_norm_exponent(path)
    assert deficit > 1e-6
