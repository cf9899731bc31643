"""A2 asymptotic-cone geometry around zeros.

The model apartment is the trace-free plane in R^3 with the S3 Weyl action.
Near a zero of order k the limiting harmonic map is, sector by sector,
u(z) = -2^(2/3) (Re int phi_1, Re int phi_2, Re int phi_3) for the three cube
roots of z^k dz^3; the punctured disk maps onto 2(k+3) flat Weyl sectors of
angle pi/3 glued consecutively along walls, and the branch labels hop by one
Weyl reflection per wall.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import polygon, tropical
from .errors import OriginSingular
from .frame import natural_coordinate, titeica_exponents
from .surface import GeodesicPath, Junction, SaddleConnection, synthesize_path
from .tropical import CBRT4, OMEGA

TWO_PI = 2.0 * math.pi
SCALE = math.sqrt(3.0) * 2.0 ** (1.0 / 6.0)  # metric factor of the limit map


@dataclass(frozen=True)
class ApartmentPoint:
    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        scale = max(1.0, abs(self.x1), abs(self.x2), abs(self.x3))
        if abs(self.x1 + self.x2 + self.x3) > 1e-12 * scale:
            raise ValueError("apartment point must be trace-free")

    def as_array(self):
        return np.array([self.x1, self.x2, self.x3])

    def norm(self):
        return float(np.linalg.norm(self.as_array()))


# ---------------------------------------------------------------------------
# sector atlas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sector:
    index: int
    z_interval: tuple        # z-argument range
    branch: tuple            # cube-root factor per coordinate slot
    wall_type_start: str     # type of the wall at the lower boundary


@dataclass(frozen=True)
class SectorAtlas:
    k: int
    sectors: tuple

    @property
    def count(self):
        return len(self.sectors)

    def sector_of(self, z: complex) -> Sector:
        if z == 0:
            raise OriginSingular("the cone point is not in any sector chart")
        psi = cmath.phase(z) % TWO_PI
        width = math.pi / (self.k + 3)
        idx = min(int(psi / width), len(self.sectors) - 1)
        return self.sectors[idx]


def _wall_swap(branch, wall_angle):
    """Swap the two coordinates whose branch values collide on the wall."""
    vals = [cmath.exp(1j * wall_angle) * c for c in branch]
    pairs = [(0, 1), (0, 2), (1, 2)]
    best = min(pairs, key=lambda ab: abs(vals[ab[0]].real - vals[ab[1]].real))
    a, b = best
    if abs(vals[a].real - vals[b].real) > 1e-9:
        raise ValueError("no colliding pair on the wall")
    out = list(branch)
    out[a], out[b] = out[b], out[a]
    return tuple(out)


def sector_atlas(k: int) -> SectorAtlas:
    """Wall-bounded sector charts with continuity-propagated branch labels.

    Sector 0 starts at the type-II wall along the positive axis, where the
    first cube root is fixed real and positive; each wall crossing swaps the
    two colliding labels (a single Weyl reflection).
    """
    if k < 0:
        raise ValueError("zero order must be >= 0")
    n = 2 * (k + 3)
    width_z = math.pi / (k + 3)
    sectors = []
    branch = (1.0 + 0.0j, OMEGA, OMEGA ** 2)  # phi_1 real positive at angle 0
    for m in range(n):
        wall_type = "II" if m % 2 == 0 else "I"
        sectors.append(Sector(index=m,
                              z_interval=(m * width_z, (m + 1) * width_z),
                              branch=branch,
                              wall_type_start=wall_type))
        # the wall closing sector m sits at natural-chart angle (m+1) pi/3
        branch = _wall_swap(branch, (m + 1) * math.pi / 3.0)
    atlas = SectorAtlas(k=k, sectors=tuple(sectors))
    if not loop_closure_is_identity(atlas):
        raise AssertionError("sector atlas does not close up around the zero")
    return atlas


def loop_closure_is_identity(atlas: SectorAtlas) -> bool:
    """Composing all wall transitions once around the puncture must return
    the starting labels, after accounting for the chart monodromy w ->
    e^(2 pi i (k+3)/3) w."""
    k = atlas.k
    n = atlas.count
    branch_end = _wall_swap(atlas.sectors[-1].branch,
                            n * math.pi / 3.0)
    mono = cmath.exp(-2j * math.pi * (k + 3) / 3.0)
    want = tuple(c * mono for c in atlas.sectors[0].branch)
    return all(abs(a - b) < 1e-9 for a, b in zip(branch_end, want))


def local_model_eval(k: int, z: complex, atlas: SectorAtlas = None) -> ApartmentPoint:
    """u_k(z): the triple of -2^(2/3) Re of the cube-root integrals from the
    zero, in the branch of the sector containing z."""
    z = complex(z)
    if z == 0:
        raise OriginSingular("local model undefined at the cone point")
    atlas = atlas or sector_atlas(k)
    sec = atlas.sector_of(z)
    w = natural_coordinate(z, k, math.pi)   # the branch arg z in [0, 2 pi]
    vals = [-CBRT4 * (c * w).real for c in sec.branch]
    vals[2] = -(vals[0] + vals[1])  # kill the rounding part of the trace
    return ApartmentPoint(*vals)


def sector_image_angle(atlas: SectorAtlas, m: int) -> float:
    """Opening angle in the apartment of the image of sector m."""
    k = atlas.k
    sec = atlas.sectors[m]
    z_lo = cmath.exp(1j * (sec.z_interval[0] + 1e-12))
    z_hi = cmath.exp(1j * (sec.z_interval[1] - 1e-12))
    a = local_model_eval(k, z_lo, atlas).as_array()
    b = local_model_eval(k, z_hi, atlas).as_array()
    cosang = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(math.acos(max(-1.0, min(1.0, cosang))))


# ---------------------------------------------------------------------------
# metric checks
# ---------------------------------------------------------------------------

def cone_distance(k: int, p: complex, q: complex) -> float:
    """|q0|^(2/3)-distance on the model cone (natural units)."""
    wp = natural_coordinate(p, k, math.pi)
    wq = natural_coordinate(q, k, math.pi)
    cone = TWO_PI * (1.0 + k / 3.0)
    dpsi = abs((cmath.phase(p) - cmath.phase(q)) % TWO_PI)
    dth = min(dpsi, TWO_PI - dpsi) * (k + 3) / 3.0
    if dth >= math.pi:
        return abs(wp) + abs(wq)
    return abs(abs(wp) - abs(wq) * cmath.exp(1j * dth))


def flat_isometry_check(k: int, sample_pairs, atlas: SectorAtlas = None) -> float:
    """Max relative deviation of |u(p) - u(q)| from sqrt(3) 2^(1/6) d_q0(p,q).

    Pairs must lie in one sector or adjacent sectors; for adjacent pairs the
    apartment distance is taken in the common apartment by reflecting the
    neighbor chart across the shared wall (equivalently, continuing the
    first sector's branch across the wall).
    """
    atlas = atlas or sector_atlas(k)
    worst = 0.0
    for p, q in sample_pairs:
        p, q = complex(p), complex(q)
        sp, sq = atlas.sector_of(p), atlas.sector_of(q)
        gap = (sq.index - sp.index) % atlas.count
        if gap > atlas.count // 2:
            gap = atlas.count - gap
        if gap > 1:
            raise ValueError("sample pair spans non-adjacent sectors")
        up = local_model_eval(k, p, atlas).as_array()
        if gap == 0:
            uq = local_model_eval(k, q, atlas).as_array()
        else:
            # continue p's branch across the shared wall: the unfolded chart,
            # on the lift of arg q nearest p's angle in [0, 2 pi)
            w = natural_coordinate(q, k, cmath.phase(p) % TWO_PI)
            uq = np.array([-CBRT4 * (c * w).real for c in sp.branch])
        d_building = float(np.linalg.norm(up - uq))
        d_flat = cone_distance(k, p, q)
        if d_flat < 1e-12:
            continue
        dev = abs(d_building - SCALE * d_flat) / (SCALE * d_flat)
        worst = max(worst, dev)
    return worst


def ambient_separation(atlas: SectorAtlas, p: complex, q: complex) -> float:
    """Tropical lower bound for the building distance between u(p) and u(q).

    Realized through the holonomy model in the continuous chart chain: the
    transport between the radial frames of the two points, through the Stokes
    unipotents of the arc separating them, has top exponent
    max over nonzero pattern entries (a, b) of d(p)_a - d(q)_b, and the
    building distance dominates it.  Zero for coinciding points, strictly
    positive for points of non-adjacent sectors away from the tip.
    """
    k = atlas.k
    lifts = polygon.regular_lifts(k + 3)
    # -2^(2/3) Re of the cube-root integrals in the continuous branch over
    # arg z in [0, 2 pi), in the polygon module's slot order
    dp = -titeica_exponents(natural_coordinate(p, k, math.pi))
    dq = -titeica_exponents(natural_coordinate(q, k, math.pi))

    def theta_w(z):
        psi = cmath.phase(z) % TWO_PI
        return (k + 3) / 3.0 * psi

    def nudge(th):
        r = (th - math.pi / 6) % (math.pi / 3)
        if min(r, math.pi / 3 - r) <= 1e-9:
            return th + 1e-4
        return th

    def one_sided(da, db, th_a, th_b):
        U = polygon.arc_unipotent(lifts, nudge(th_b), nudge(th_a))
        return np.max(da + polygon.max_plus_step(-db, U))

    a = one_sided(dp, dq, theta_w(p), theta_w(q))
    b = one_sided(dq, dp, theta_w(q), theta_w(p))
    return float(max(a, b, 0.0))


# ---------------------------------------------------------------------------
# weak convexity
# ---------------------------------------------------------------------------

def weak_convexity_check(path) -> bool:
    """Vector-distance additivity along a path.

    Compares the componentwise sum of per-segment sorted triples with the
    triple produced by the holonomy route (top exponents of the forward and
    reversed max-plus products through the unipotent patterns).  Additivity
    is exact for geodesic paths; a corner sharper than pi breaks the top
    alignment.
    """
    total = tropical.path_singular_exponents(
        seg.period for seg in path.segments)
    x1 = polygon.tropical_norm_exponent(path)
    x3 = -polygon.tropical_norm_exponent(path.reversed())
    x2 = -(x1 + x3)
    scale = max(1.0, abs(total.x1), abs(total.x3))
    return (abs(x1 - total.x1) <= 1e-9 * scale
            and abs(x2 - total.x2) <= 1e-9 * scale
            and abs(x3 - total.x3) <= 1e-9 * scale)


def random_geodesic_path(rng) -> GeodesicPath:
    """Two to four segments joined at zeros of order 0..3 by turns inside the
    geodesic range: vector-distance additivity must hold exactly."""
    n = int(rng.integers(2, 5))
    lengths = rng.uniform(0.4, 2.5, size=n)
    orders = [int(rng.integers(0, 4)) for _ in range(n - 1)]
    turns = []
    for k in orders:
        cone = TWO_PI * (1 + k / 3)
        lo, hi = math.pi + 0.05, cone - math.pi - 0.05
        turns.append(math.pi if hi <= lo else rng.uniform(lo, hi))
    start = rng.uniform(0.0, TWO_PI)
    return synthesize_path(list(lengths), turns, orders, start_angle=start)


def random_corner_path(rng) -> GeodesicPath:
    """A two-segment corner whose turn is sharp enough to break the dominant
    eigenvalue alignment: the direction change exceeds a full branch width
    2*pi/3, so the top coordinate shows a strict deficit.  Directions stay
    clear of walls and Stokes rays."""
    L0, L1 = rng.uniform(0.4, 2.0, size=2)
    k = int(rng.integers(0, 4))
    while True:
        a0 = rng.uniform(0.0, TWO_PI)
        ccw = rng.uniform(0.25, math.pi / 3 - 0.1)
        theta_out = a0 + math.pi + ccw
        if not (polygon.classify_angle_is_special(a0, 0.05)
                or polygon.classify_angle_is_special(theta_out, 0.05)):
            break
    p0 = L0 * cmath.exp(1j * a0)
    p1 = L1 * cmath.exp(1j * theta_out)
    return GeodesicPath(
        (SaddleConnection(-1, -1, p0), SaddleConnection(-1, -1, p1)),
        (Junction(order=k, theta_in=a0 + math.pi, theta_out=theta_out),), False)
