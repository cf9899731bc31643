import cmath
import math

import numpy as np
import pytest

from hitchin_limits import building
from hitchin_limits.surface import GeodesicPath, Junction, SaddleConnection, synthesize_path
from hitchin_limits.tropical import segment_exponents
from hitchin_limits.wang import CubicDifferential

PI = math.pi
TWO_PI = 2 * PI
CBRT4 = 2 ** (2 / 3)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_sector_count_and_angles(k):
    n = 2 * (k + 3)
    for m in range(n):
        ang = building.sector_image_angle(k, m)
        assert ang == pytest.approx(PI / 3, abs=1e-10)
    # total image cone angle
    assert n * PI / 3 == pytest.approx(2 * PI * (1 + k / 3), abs=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_sector_index_walls_and_last_sector(k):
    n = 2 * (k + 3)
    width = PI / (k + 3)
    for m in range(n):
        # wall m opens sector m and closes sector m - 1 (the angle of a
        # point exactly on the wall is only known to rounding)
        above = 0.5 * cmath.exp(1j * (m * width + 1e-12))
        below = 0.5 * cmath.exp(1j * (m * width - 1e-12))
        assert building.sector_index(k, above) == m
        assert building.sector_index(k, below) == (m - 1) % n
    # arg z just below 2 pi, reached from below the positive axis
    assert building.sector_index(k, complex(0.5, -1e-300)) == n - 1
    assert building.sector_index(k, cmath.exp(1j * (TWO_PI - 1e-15))) == n - 1


def test_sector_index_rejects_negative_order_and_origin():
    with pytest.raises(ValueError, match="zero order must be >= 0"):
        building.sector_index(-1, 0.5)
    with pytest.raises(ValueError, match="not in any sector chart"):
        building.sector_index(1, 0.0)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_adjacent_branches_single_reflection(k):
    # the cube-root labels (smallest, largest, middle) at consecutive sector
    # midpoints differ by one transposition
    width = PI / (k + 3)
    q = CubicDifferential(k)
    branches = []
    for m in range(2 * (k + 3)):
        z = 0.7 * cmath.exp(1j * (m + 0.5) * width)
        nu = segment_exponents(q.natural(*q.on_branch(z, PI))).nu
        branches.append(np.argsort(nu, kind="stable")[[0, 2, 1]])
    for a, b in zip(branches, branches[1:]):
        assert np.sum(a != b) == 2


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_loop_closure(k):
    # the labels close up around the zero: u is continuous across the seam
    # arg z = 0, where the chart monodromy w -> omega^k w meets sector 0
    rng = np.random.default_rng(k)
    for _ in range(20):
        r = rng.uniform(0.05, 1.0)
        above = building.local_model_eval(k, r * cmath.exp(1e-9j)).as_array()
        below = building.local_model_eval(k, r * cmath.exp(-1e-9j)).as_array()
        assert np.max(np.abs(above - below)) < 1e-8


def test_local_model_k0_radial():
    # u along the positive axis: -2^(2/3) t (1, -1/2, -1/2) up to ordering
    t = 0.8
    u = building.local_model_eval(0, t)
    vals = sorted(u.as_array())
    assert vals == pytest.approx(sorted([-CBRT4 * t, CBRT4 * t / 2,
                                         CBRT4 * t / 2]), abs=1e-12)
    assert np.linalg.norm(u.as_array()) == pytest.approx(building.SCALE * t, rel=1e-12)


def test_local_model_origin_rejected():
    with pytest.raises(ValueError, match="undefined at the cone point"):
        building.local_model_eval(1, 0.0)


def test_local_model_wall_lands_on_wall():
    # points on wall directions map to walls of the apartment (two equal
    # coordinates)
    for k in (0, 1, 2):
        for m in range(2 * (k + 3)):
            psi = m * PI / (k + 3) + 1e-15
            u = building.local_model_eval(k, 0.5 * cmath.exp(1j * psi))
            x = sorted(u.as_array())
            gaps = [abs(x[0] - x[1]), abs(x[1] - x[2])]
            assert min(gaps) < 1e-9


def test_local_model_continuity_across_walls():
    rng = np.random.default_rng(3)
    for k in (1, 2):
        for m in range(2 * (k + 3)):
            psi = (m + 1) * PI / (k + 3)
            r = rng.uniform(0.2, 1.0)
            below = r * cmath.exp(1j * (psi - 1e-9))
            above = r * cmath.exp(1j * (psi + 1e-9))
            ub = building.local_model_eval(k, below).as_array()
            ua = building.local_model_eval(k, above).as_array()
            assert np.max(np.abs(ub - ua)) < 1e-6


def test_model_rotation_equivariance():
    # the model symmetry z -> e^(2 pi i/(k+3)) z permutes apartment coordinates
    for k in (0, 1, 2, 3):
        rot = cmath.exp(2j * PI / (k + 3))
        rng = np.random.default_rng(k)
        for _ in range(10):
            z = rng.uniform(0.2, 1.0) * cmath.exp(1j * rng.uniform(0.02, 0.95)
                                                  * PI / (k + 3))
            u = np.sort(building.local_model_eval(k, z).as_array())
            v = np.sort(building.local_model_eval(k, rot * z).as_array())
            assert np.max(np.abs(u - v)) < 1e-9


def test_sector_bisectors_distinct_k1():
    # pairwise distinctness of the 8 bisector rays in the building: sectors
    # six apart share apartment coordinates, so distinctness is witnessed by
    # the tropical ambient separation, not the coordinate chart
    pts = [0.7 * cmath.exp(1j * (m + 0.5) * PI / 4) for m in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            if abs(i - j) in (1, 7):
                continue  # adjacent sectors genuinely share a wall
            assert building.ambient_separation(1, pts[i], pts[j]) > 1e-6


def test_flat_isometry_within_sector():
    k = 2
    rng = np.random.default_rng(11)
    pairs = []
    width = PI / (k + 3)
    for _ in range(50):
        m = rng.integers(0, 2 * (k + 3))
        a = (m + rng.uniform(0.05, 0.95)) * width
        b = (m + rng.uniform(0.05, 0.95)) * width
        pairs.append((rng.uniform(0.1, 1.0) * cmath.exp(1j * a),
                      rng.uniform(0.1, 1.0) * cmath.exp(1j * b)))
    dev = building.flat_isometry_check(k, pairs)
    assert dev <= 1e-10


def test_flat_isometry_cross_wall():
    k = 1
    rng = np.random.default_rng(13)
    width = PI / (k + 3)
    pairs = []
    for _ in range(60):
        m = int(rng.integers(0, 2 * (k + 3)))
        a = (m + rng.uniform(0.55, 0.95)) * width
        b = (m + 1 + rng.uniform(0.05, 0.45)) * width
        pairs.append((rng.uniform(0.2, 1.0) * cmath.exp(1j * a),
                      rng.uniform(0.2, 1.0) * cmath.exp(1j * b)))
    dev = building.flat_isometry_check(k, pairs)
    assert dev <= 1e-9


def test_radial_pairs_exact():
    for k in (0, 1, 3):
        pairs = [(0.2 * cmath.exp(0.3j), 0.9 * cmath.exp(0.3j))]
        assert building.flat_isometry_check(k, pairs) <= 1e-12


def test_nonadjacent_sectors_separated():
    for k in (1, 2):
        n = 2 * (k + 3)
        width = PI / (k + 3)
        rng = np.random.default_rng(17)
        for _ in range(200):
            ma = int(rng.integers(0, n))
            gap = int(rng.integers(2, n - 1))
            mb = (ma + gap) % n
            if min((mb - ma) % n, (ma - mb) % n) < 2:
                continue
            p = rng.uniform(0.1, 1.0) * cmath.exp(1j * (ma + rng.uniform(0.02, 0.98)) * width)
            q = rng.uniform(0.1, 1.0) * cmath.exp(1j * (mb + rng.uniform(0.02, 0.98)) * width)
            assert building.ambient_separation(k, p, q) > 1e-6


def test_same_point_zero_separation():
    z = 0.6 * cmath.exp(0.2j)
    assert building.ambient_separation(1, z, z) == pytest.approx(0.0, abs=1e-9)


def test_weak_convexity_geodesic_and_corner():
    geo = synthesize_path([1.0, 1.3], turns=[PI + 0.45], orders=[1],
                          start_angle=0.3)
    assert building.weak_convexity_check(geo)
    # sharp corner
    p0 = 1.0 * cmath.exp(0.3j)
    theta_in = 0.3 + PI
    theta_out = theta_in + 0.6  # way below pi
    p1 = 1.3 * cmath.exp(1j * theta_out)
    corner = GeodesicPath(
        (SaddleConnection(-1, -1, p0), SaddleConnection(-1, -1, p1)),
        (Junction(order=1, theta_in=theta_in, theta_out=theta_out),), False)
    assert not building.weak_convexity_check(corner)


def _stokes_direction_path(rng):
    """Two to four segments along Stokes directions (pi/6 mod pi/3), joined
    at zeros of order 0..3 by turns that are multiples of pi/3 inside the
    geodesic range, so every junction angle lies on a Stokes ray."""
    n = int(rng.integers(2, 5))
    lengths = rng.uniform(0.4, 2.5, size=n)
    orders = [int(rng.integers(0, 4)) for _ in range(n - 1)]
    turns = [PI + int(rng.integers(0, 2 * k + 1)) * PI / 3 for k in orders]
    start = PI / 6 + int(rng.integers(0, 6)) * PI / 3
    return synthesize_path(list(lengths), turns, orders, start_angle=start)


def test_weak_convexity_on_stokes_direction_paths():
    rng = np.random.default_rng(0)
    for _ in range(400):
        path = _stokes_direction_path(rng)
        assert building.weak_convexity_check(path), path
