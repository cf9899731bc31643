import cmath
import math

import numpy as np
import pytest

from hitchin_limits import building
from hitchin_limits.errors import OriginSingular
from hitchin_limits.surface import GeodesicPath, Junction, SaddleConnection, synthesize_path

PI = math.pi
CBRT4 = 2 ** (2 / 3)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_sector_count_and_angles(k):
    atlas = building.sector_atlas(k)
    assert atlas.count == 2 * (k + 3)
    for m in range(atlas.count):
        ang = building.sector_image_angle(atlas, m)
        assert ang == pytest.approx(PI / 3, abs=1e-10)
    # total image cone angle
    assert atlas.count * PI / 3 == pytest.approx(2 * PI * (1 + k / 3), abs=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_adjacent_branches_single_reflection(k):
    atlas = building.sector_atlas(k)
    for m in range(atlas.count - 1):
        a = atlas.sectors[m].branch
        b = atlas.sectors[m + 1].branch
        diffs = [i for i in range(3) if abs(a[i] - b[i]) > 1e-12]
        assert len(diffs) == 2  # one transposition


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_loop_closure(k):
    atlas = building.sector_atlas(k)
    assert building.loop_closure_is_identity(atlas)


def test_wall_types_alternate():
    atlas = building.sector_atlas(1)
    types = [sec.wall_type_start for sec in atlas.sectors]
    assert types == ["II", "I"] * 4


def test_local_model_k0_radial():
    # u along the positive axis: -2^(2/3) t (1, -1/2, -1/2) up to ordering
    t = 0.8
    u = building.local_model_eval(0, t)
    vals = sorted(u.as_array())
    assert vals == pytest.approx(sorted([-CBRT4 * t, CBRT4 * t / 2,
                                         CBRT4 * t / 2]), abs=1e-12)
    assert u.norm() == pytest.approx(building.SCALE * t, rel=1e-12)


def test_local_model_origin_rejected():
    with pytest.raises(OriginSingular):
        building.local_model_eval(1, 0.0)


def test_local_model_wall_lands_on_wall():
    # points on wall directions map to walls of the apartment (two equal
    # coordinates)
    for k in (0, 1, 2):
        atlas = building.sector_atlas(k)
        for m in range(2 * (k + 3)):
            psi = m * PI / (k + 3) + 1e-15
            u = building.local_model_eval(k, 0.5 * cmath.exp(1j * psi), atlas)
            x = sorted(u.as_array())
            gaps = [abs(x[0] - x[1]), abs(x[1] - x[2])]
            assert min(gaps) < 1e-9


def test_local_model_continuity_across_walls():
    rng = np.random.default_rng(3)
    for k in (1, 2):
        atlas = building.sector_atlas(k)
        for m in range(2 * (k + 3)):
            psi = (m + 1) * PI / (k + 3)
            r = rng.uniform(0.2, 1.0)
            below = r * cmath.exp(1j * (psi - 1e-9))
            above = r * cmath.exp(1j * (psi + 1e-9))
            ub = building.local_model_eval(k, below, atlas).as_array()
            ua = building.local_model_eval(k, above, atlas).as_array()
            assert np.max(np.abs(ub - ua)) < 1e-6


def test_model_rotation_equivariance():
    # the model symmetry z -> e^(2 pi i/(k+3)) z permutes apartment coordinates
    for k in (0, 1, 2, 3):
        atlas = building.sector_atlas(k)
        rot = cmath.exp(2j * PI / (k + 3))
        rng = np.random.default_rng(k)
        for _ in range(10):
            z = rng.uniform(0.2, 1.0) * cmath.exp(1j * rng.uniform(0.02, 0.95)
                                                  * PI / (k + 3))
            u = np.sort(building.local_model_eval(k, z, atlas).as_array())
            v = np.sort(building.local_model_eval(k, rot * z, atlas).as_array())
            assert np.max(np.abs(u - v)) < 1e-9


def test_sector_bisectors_distinct_k1():
    # pairwise distinctness of the 8 bisector rays in the building: sectors
    # six apart share apartment coordinates, so distinctness is witnessed by
    # the tropical ambient separation, not the coordinate chart
    atlas = building.sector_atlas(1)
    pts = []
    for m in range(8):
        lo, hi = atlas.sectors[m].z_interval
        pts.append(0.7 * cmath.exp(1j * (lo + hi) / 2))
    for i in range(8):
        for j in range(i + 1, 8):
            if abs(i - j) in (1, 7):
                continue  # adjacent sectors genuinely share a wall
            assert building.ambient_separation(atlas, pts[i], pts[j]) > 1e-6


def test_flat_isometry_within_sector():
    k = 2
    atlas = building.sector_atlas(k)
    rng = np.random.default_rng(11)
    pairs = []
    width = PI / (k + 3)
    for _ in range(50):
        m = rng.integers(0, 2 * (k + 3))
        a = (m + rng.uniform(0.05, 0.95)) * width
        b = (m + rng.uniform(0.05, 0.95)) * width
        pairs.append((rng.uniform(0.1, 1.0) * cmath.exp(1j * a),
                      rng.uniform(0.1, 1.0) * cmath.exp(1j * b)))
    dev = building.flat_isometry_check(k, pairs, atlas)
    assert dev <= 1e-10


def test_flat_isometry_cross_wall():
    k = 1
    atlas = building.sector_atlas(k)
    rng = np.random.default_rng(13)
    width = PI / (k + 3)
    pairs = []
    for _ in range(60):
        m = int(rng.integers(0, 2 * (k + 3)))
        a = (m + rng.uniform(0.55, 0.95)) * width
        b = (m + 1 + rng.uniform(0.05, 0.45)) * width
        pairs.append((rng.uniform(0.2, 1.0) * cmath.exp(1j * a),
                      rng.uniform(0.2, 1.0) * cmath.exp(1j * b)))
    dev = building.flat_isometry_check(k, pairs, atlas)
    assert dev <= 1e-9


def test_radial_pairs_exact():
    for k in (0, 1, 3):
        pairs = [(0.2 * cmath.exp(0.3j), 0.9 * cmath.exp(0.3j))]
        assert building.flat_isometry_check(k, pairs) <= 1e-12


def test_nonadjacent_sectors_separated():
    for k in (1, 2):
        atlas = building.sector_atlas(k)
        n = atlas.count
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
            assert building.ambient_separation(atlas, p, q) > 1e-6


def test_same_point_zero_separation():
    atlas = building.sector_atlas(1)
    z = 0.6 * cmath.exp(0.2j)
    assert building.ambient_separation(atlas, z, z) == pytest.approx(0.0, abs=1e-9)


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
