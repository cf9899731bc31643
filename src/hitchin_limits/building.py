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
from .frame import titeica_exponents
from .surface import (TWO_PI, GeodesicPath, Junction, SaddleConnection,
                      cone_angle, synthesize_path)
from .wang import CubicDifferential

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


# ---------------------------------------------------------------------------
# sectors and their branches
# ---------------------------------------------------------------------------

def sector_index(k: int, z: complex) -> int:
    """Index m of the sector arg z in [m pi/(k+3), (m+1) pi/(k+3)), with arg z
    taken in [0, 2 pi).  Sector 0 starts at the type-II wall along the
    positive axis; the walls alternate type II, I around the zero."""
    if k < 0:
        raise ValueError("zero order must be >= 0")
    if z == 0:
        raise ValueError("the cone point is not in any sector chart")
    psi = cmath.phase(z) % TWO_PI
    width = math.pi / (k + 3)
    return min(int(psi / width), 2 * (k + 3) - 1)


def _natural(k: int, z: complex, branch: float) -> complex:
    """w of z^k dz^3 at z, on the branch continuous near arg z = branch."""
    q = CubicDifferential(k)
    return q.natural(*q.on_branch(z, branch))


def local_model_eval(k: int, z: complex) -> ApartmentPoint:
    """u_k(z): the triple of -2^(2/3) Re of the cube-root integrals from the
    zero on the branch arg z in [0, 2 pi], as (smallest, largest, middle):
    continuation from sector 0 labels them so, as each wall swaps the two
    values that cross on it (one Weyl reflection) and the chart monodromy
    w -> omega^k w only permutes the roots."""
    z = complex(z)
    if z == 0:
        raise ValueError("local model undefined at the cone point")
    nu = tropical.segment_exponents(_natural(k, z, math.pi)).nu
    lo, hi = min(nu), max(nu)
    return ApartmentPoint(lo, hi, -(lo + hi))  # no rounding part in the trace


def sector_image_angle(k: int, m: int) -> float:
    """Opening angle in the apartment of the image of sector m."""
    width = math.pi / (k + 3)
    z_lo = cmath.exp(1j * (m * width + 1e-12))
    z_hi = cmath.exp(1j * ((m + 1) * width - 1e-12))
    a = local_model_eval(k, z_lo).as_array()
    b = local_model_eval(k, z_hi).as_array()
    cosang = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(math.acos(max(-1.0, min(1.0, cosang))))


# ---------------------------------------------------------------------------
# metric checks
# ---------------------------------------------------------------------------

def _cone_distance(k: int, p: complex, q: complex) -> float:
    """|q0|^(2/3)-distance on the model cone (natural units)."""
    wp = _natural(k, p, math.pi)
    wq = _natural(k, q, math.pi)
    dpsi = abs((cmath.phase(p) - cmath.phase(q)) % TWO_PI)
    dth = CubicDifferential(k).natural_angle(min(dpsi, TWO_PI - dpsi))
    if dth >= math.pi:
        return abs(wp) + abs(wq)
    return abs(abs(wp) - abs(wq) * cmath.exp(1j * dth))


def flat_isometry_check(k: int, sample_pairs) -> float:
    """Max relative deviation of |u(p) - u(q)| from sqrt(3) 2^(1/6) d_q0(p,q).

    Pairs must lie in one sector or adjacent sectors; for adjacent pairs the
    apartment distance is taken in the common apartment by reflecting the
    neighbor chart across the shared wall (equivalently, continuing the
    first sector's branch across the wall).
    """
    n = 2 * (k + 3)
    worst = 0.0
    for p, q in sample_pairs:
        p, q = complex(p), complex(q)
        gap = (sector_index(k, q) - sector_index(k, p)) % n
        if gap > n // 2:
            gap = n - gap
        if gap > 1:
            raise ValueError("sample pair spans non-adjacent sectors")
        up = local_model_eval(k, p).as_array()
        if gap == 0:
            uq = local_model_eval(k, q).as_array()
        else:
            # continue p's branch across the shared wall: the unfolded chart,
            # on the lift of arg q nearest p's angle in [0, 2 pi), in p's order
            nu_p = tropical.segment_exponents(_natural(k, p, math.pi)).nu
            w = _natural(k, q, cmath.phase(p) % TWO_PI)
            uq = np.array(tropical.segment_exponents(w).nu)[
                np.argsort(nu_p, kind="stable")[[0, 2, 1]]]
        d_building = float(np.linalg.norm(up - uq))
        d_flat = _cone_distance(k, p, q)
        if d_flat < 1e-12:
            continue
        dev = abs(d_building - SCALE * d_flat) / (SCALE * d_flat)
        worst = max(worst, dev)
    return worst


def ambient_separation(k: int, p: complex, q: complex) -> float:
    """Tropical lower bound for the building distance between u(p) and u(q).

    Realized through the holonomy model in the continuous chart chain: the
    transport between the radial frames of the two points, through the Stokes
    unipotents of the arc separating them, has top exponent
    max over nonzero pattern entries (a, b) of d(p)_a - d(q)_b, and the
    building distance dominates it.  Zero for coinciding points, strictly
    positive for points of non-adjacent sectors away from the tip.
    """
    lifts = polygon.regular_lifts(k + 3)
    # -2^(2/3) Re of the cube-root integrals in the continuous branch over
    # arg z in [0, 2 pi), in the polygon module's slot order
    dp = -titeica_exponents(_natural(k, p, math.pi))
    dq = -titeica_exponents(_natural(k, q, math.pi))

    def theta_w(z):
        return CubicDifferential(k).natural_angle(cmath.phase(z) % TWO_PI)

    def one_sided(da, db, th_a, th_b):
        U = polygon.arc_unipotent(lifts, th_b, th_a)
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
        lo, hi = math.pi + 0.05, cone_angle(k) - math.pi - 0.05
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
