"""Flat cone surfaces of cubic differentials (1/3-translation surfaces).

A surface is a collection of oriented Euclidean triangles with complex vertex
coordinates in charts where the differential is dz^3, glued edge-to-edge by
transitions z -> omega^m z + c with omega = e^(2*pi*i/3).  Cone points carry
an order k >= 0 and total angle 2*pi*(1 + k/3).  Straight segments between
marked points (saddle connections) are traced by developing triangle chains.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotConverged
from .tropical import OMEGA

TWO_PI = 2.0 * math.pi

_ANGLE_TOL = 1e-9       # cone-angle closure and turn-angle comparisons
_EDGE_TOL = 1e-12       # relative tolerance on glued edge lengths
_POS_TOL = 1e-9         # absolute position tolerance in developments
_CHART_TOL = 1e-7       # junction angle chart alignment, rad mod 2 pi/3


def _cross(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def cone_angle(order: int) -> float:
    """Total angle 2 pi (1 + order/3) around a zero of the given order."""
    return TWO_PI * (1.0 + order / 3.0)


def geodesic_turn(order: int, ccw: float) -> bool:
    """Whether a ccw side angle at a zero of the given order lies in the
    geodesic range [pi, cone - pi], to within _ANGLE_TOL."""
    return (math.pi - _ANGLE_TOL <= ccw
            <= cone_angle(order) - math.pi + _ANGLE_TOL)


# ---------------------------------------------------------------------------
# basic types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gluing:
    """Identifies edge_a of one triangle with edge_b of another.

    The transition T(z) = omega^rot * z + trans maps the chart of edge_a's
    triangle to the chart of edge_b's triangle, sending the directed edge
    (v_a -> v_a+1) onto the reversed directed edge (v_b+1 -> v_b).
    """

    edge_a: tuple  # (triangle index, side index)
    edge_b: tuple
    rot: int       # m in {0, 1, 2}
    trans: complex

    def map_a_to_b(self, z: complex) -> complex:
        return OMEGA ** self.rot * z + self.trans


@dataclass(frozen=True)
class SaddleConnection:
    """Straight segment between marked cone points, with its chart period."""

    start: int
    end: int
    period: complex

    def __post_init__(self):
        if self.period == 0:
            raise ValueError("saddle connection must have nonzero period")

    @property
    def length(self) -> float:
        return abs(self.period)

    @property
    def angle(self) -> float:
        return cmath.phase(self.period) % TWO_PI

    def reversed(self) -> "SaddleConnection":
        return SaddleConnection(self.end, self.start, -self.period)


@dataclass(frozen=True)
class Junction:
    """Zero-local data where two path segments meet.

    theta_in is the position angle (natural-chart lift) of the incoming ray
    seen from the zero; theta_out the outgoing one.  theta_out - theta_in is
    the counterclockwise side angle of the turn.
    """

    order: int
    theta_in: float
    theta_out: float
    zero: int = -1

    @property
    def turn_angles(self) -> tuple:
        ccw = self.theta_out - self.theta_in
        return (ccw, cone_angle(self.order) - ccw)


@dataclass(frozen=True)
class GeodesicPath:
    """Concatenation of saddle connections with >= pi side angles at zeros.

    For open paths, junctions[i] joins segments[i] to segments[i+1].  For
    closed paths there is one junction per segment and junctions[i] joins
    segments[i-1] to segments[i]; junctions[0] is the wrap-around.
    """

    segments: tuple
    junctions: tuple
    closed: bool = False

    def __post_init__(self):
        n = len(self.segments)
        if n == 0:
            raise ValueError("path has no segments")
        want = n if self.closed else n - 1
        if len(self.junctions) != want:
            raise ValueError(
                f"expected {want} junctions for {n} segments, got {len(self.junctions)}")

    def junction_after(self, i: int) -> Optional[int]:
        """Index of the junction joining segments[i] to the next segment, or
        None past either end of an open path (so the junction before
        segments[i] is junction_after(i - 1))."""
        n = len(self.segments)
        if self.closed:
            return (i + 1) % n
        return i if 0 <= i < n - 1 else None

    def reversed(self) -> "GeodesicPath":
        n = len(self.segments)
        segs = tuple(self.segments[n - 1 - j].reversed() for j in range(n))

        def rev(j: Junction) -> Junction:
            ccw, cw = j.turn_angles
            return Junction(order=j.order, zero=j.zero,
                            theta_in=j.theta_out, theta_out=j.theta_out + cw)

        if self.closed:
            juncs = tuple(rev(self.junctions[(n - j) % n]) for j in range(n))
        else:
            juncs = tuple(rev(j) for j in reversed(self.junctions))
        return GeodesicPath(segs, juncs, self.closed)


def chart_aligned(angle: float) -> bool:
    """Whether angle is within _CHART_TOL of a multiple of 2 pi/3."""
    r = angle % (TWO_PI / 3.0)
    return min(r, TWO_PI / 3.0 - r) <= _CHART_TOL


def validate_path(path: GeodesicPath) -> list:
    """Return violated geodesic/consistency conditions (empty when valid)."""
    out = []
    n = len(path.segments)
    for i, prev in enumerate(path.segments):
        ja = path.junction_after(i)
        if ja is None:
            continue
        nxt = path.segments[(i + 1) % n]
        j = path.junctions[ja]
        ccw, cw = j.turn_angles
        if not geodesic_turn(j.order, ccw):
            out.append(("TurnTooSharp", i, min(ccw, cw)))
        if prev.end >= 0 and nxt.start >= 0 and prev.end != nxt.start:
            out.append(("DisconnectedSegments", i, (prev.end, nxt.start)))
        # the junction chart must see the adjacent segment directions at
        # angles compatible with some natural chart (2*pi/3 rotations)
        rin = (j.theta_in - (cmath.phase(-prev.period))) % (TWO_PI / 3.0)
        rout = (j.theta_out - cmath.phase(nxt.period)) % (TWO_PI / 3.0)
        for r, tag in ((rin, "In"), (rout, "Out")):
            if not chart_aligned(r):
                out.append((f"ChartMisaligned{tag}", i, r))
    return out


def synthesize_path(lengths, turns, orders, start_angle=0.0, closed=False):
    """Build a geodesic path from segment lengths and ccw junction turns.

    turns[i] is the counterclockwise side angle at the junction joining
    segment i to segment i+1 (for closed paths the last entry is the
    wrap-around turn).  Charts are aligned segment by segment, so the
    resulting junction data is directly usable by the leading-term formula.
    Intended for synthetic workloads not grounded on a surface.
    """
    n = len(lengths)
    want = n if closed else n - 1
    if len(turns) != want or len(orders) != want:
        raise ValueError("need one turn/order per junction")
    angles = [start_angle]
    juncs = []
    for i, (ccw, k) in enumerate(zip(turns, orders)):
        if not geodesic_turn(k, ccw):
            raise ValueError(f"turn {ccw} out of geodesic range at junction {i}")
        theta_in = angles[-1] + math.pi
        theta_out = theta_in + ccw
        juncs.append(Junction(order=k, theta_in=theta_in, theta_out=theta_out))
        angles.append(theta_out)
    segs = tuple(SaddleConnection(-1, -1, L * cmath.exp(1j * a))
                 for L, a in zip(lengths, angles))
    if closed:
        if not chart_aligned(angles[-1] - start_angle):
            raise ValueError("wrap-around turn incompatible with the start "
                             "angle (must close up modulo 2*pi/3)")
        juncs.insert(0, juncs.pop())     # the wrap-around is junctions[0]
    return GeodesicPath(segs, tuple(juncs), closed)


# ---------------------------------------------------------------------------
# half-edge rules: gluing and fan walk
# ---------------------------------------------------------------------------

def glue(edge_map, e_a, e_b, rot, trans):
    """Record in edge_map the gluing of e_a to e_b by z -> omega^rot z + trans
    and its inverse transition from e_b back to e_a."""
    edge_map[e_a] = (e_b, rot, trans)
    minus = (-rot) % 3
    edge_map[e_b] = (e_a, minus, -(OMEGA ** minus) * trans)


def walk_fan(edge_map, corner):
    """The corners around corner's vertex in ccw order, and whether they
    close up.

    Walks cw (across the edge v -> v+1) to the fan's first corner, then ccw
    (across the edge v+2 -> v) to its last.  A closed fan starts at the
    corner met just before the cw walk returns to ``corner``.  Both walks stop
    at a repeated corner, so inconsistent gluings cannot make them loop.
    """
    cur = corner
    visited = {cur}
    closed = False
    while True:
        info = edge_map.get(cur)
        if info is None:
            break
        (t2, s2) = info[0]
        prev = (t2, (s2 + 1) % 3)
        if prev in visited:
            closed = True
            break
        visited.add(prev)
        cur = prev
    fan = [cur]
    seen = {cur}
    while True:
        t, v = fan[-1]
        info = edge_map.get((t, (v + 2) % 3))
        if info is None or info[0] in seen:
            break
        seen.add(info[0])
        fan.append(info[0])
    return fan, closed


# ---------------------------------------------------------------------------
# the surface
# ---------------------------------------------------------------------------

class CubicSurface:
    """Triangulated flat cone surface carrying |q0|^(2/3).

    Immutable after construction; derived combinatorics (vertex classes,
    corner fans, cone angles) are computed once up front.  They do not depend
    on vertex_orders, so a builder may mark classes before handing it out.
    """

    def __init__(self, triangles, gluings, vertex_orders=None, boundary=None):
        self.triangles = tuple(tuple(complex(z) for z in tri) for tri in triangles)
        self.gluings = tuple(gluings)
        self.boundary = frozenset(tuple(e) for e in (boundary or ()))
        self._edge_map = {}
        for g in self.gluings:
            glue(self._edge_map, g.edge_a, g.edge_b, g.rot, g.trans)
        self._build_vertex_classes()
        self.vertex_orders = dict(vertex_orders or {})

    # -- combinatorics ------------------------------------------------------

    def _build_vertex_classes(self):
        """Number the vertex classes by walking the fan of each corner not
        yet seen, in corner order; a class's members are its fan's corners.
        (A non-involutive gluing, which validate reports, can lead the walk
        away from its start corner, even onto a fan that already has a
        class; the start corner joins the class of the fan it lands on.)"""
        self._class_of = {}
        self.vertex_classes = []
        self.fans = []
        self.fan_closed = []
        self.cone_angles = []
        for t in range(len(self.triangles)):
            for v in range(3):
                if (t, v) in self._class_of:
                    continue
                fan, closed = walk_fan(self._edge_map, (t, v))
                if fan[0] in self._class_of:
                    cls = self._class_of[fan[0]]
                    self._class_of[(t, v)] = cls
                    self.vertex_classes[cls] = sorted(
                        {(t, v), *self.vertex_classes[cls]})
                    continue
                self._class_of[(t, v)] = len(self.fans)
                angle = 0.0
                for corner in fan:
                    self._class_of[corner] = len(self.fans)
                    angle += self.corner_angle(*corner)
                self.vertex_classes.append(sorted({(t, v), *fan}))
                self.fans.append(fan)
                self.fan_closed.append(closed)
                self.cone_angles.append(angle)

    def corner_angle(self, tri: int, v: int) -> float:
        p = self.coords(tri, v)
        q = self.coords(tri, v + 1)
        r = self.coords(tri, v + 2)
        ang = cmath.phase((r - p) / (q - p)) % TWO_PI
        return ang

    def class_of(self, tri: int, v: int) -> int:
        return self._class_of[(tri, v % 3)]

    def n_classes(self) -> int:
        return len(self.vertex_classes)

    def is_marked(self, cls: int) -> bool:
        return cls in self.vertex_orders

    def is_flat(self, cls: int) -> bool:
        """Whether the class is a closed fan of total angle 2*pi, which a
        straight ray passes without turning."""
        return self.fan_closed[cls] and \
            abs(self.cone_angles[cls] - TWO_PI) <= _ANGLE_TOL

    def marked_classes(self):
        return sorted(self.vertex_orders)

    def coords(self, tri: int, v: int) -> complex:
        return self.triangles[tri][v % 3]

    def edge_vector(self, tri: int, side: int) -> complex:
        return self.coords(tri, side + 1) - self.coords(tri, side)

    def neighbor(self, tri: int, side: int):
        """((tri2, side2), rot, trans) across the edge, or None on boundary.

        The transition z -> omega^rot z + trans maps this triangle's chart to
        the neighbor's chart.
        """
        return self._edge_map.get((tri, side))

    # -- Euler characteristic -------------------------------------------------

    def euler_characteristic(self) -> int:
        n_faces = len(self.triangles)
        all_edges = {(t, s) for t in range(n_faces) for s in range(3)}
        glued = set(self._edge_map)
        n_edges = len(glued) // 2 + len(all_edges - glued)
        return self.n_classes() - n_edges + n_faces

    def genus(self) -> Optional[int]:
        if self.boundary or any(not c for c in self.fan_closed):
            return None
        chi = self.euler_characteristic()
        if (2 - chi) % 2:
            return None
        return (2 - chi) // 2


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def build_polynomial_disk(k: int, radius: float) -> CubicSurface:
    """Model disk of z^k dz^3: one cone point of angle 2*pi*(1 + k/3).

    ``radius`` is the |q0|^(2/3)-radius (natural units).  The disk is realized
    as the cone over its inscribed 2(k+3)-gon: 2(k+3) wedges of apex angle
    pi/3 in natural charts, boundary chords marked as boundary edges.
    """
    if k < 0:
        raise ValueError("zero order k must be >= 0")
    if radius <= 0:
        raise ValueError("radius must be positive")
    n = 2 * (k + 3)
    tris = []
    for j in range(n):
        a = radius * cmath.exp(1j * math.pi / 3.0 * j)
        b = radius * cmath.exp(1j * math.pi / 3.0 * (j + 1))
        tris.append((0.0, a, b))
    gluings = []
    for j in range(n - 1):
        # consecutive wedges are stored in a common development
        gluings.append(Gluing((j, 2), (j + 1, 0), 0, 0.0))
    # closing seam: the transition from the last wedge's chart back to the
    # first runs clockwise through the full cone angle 2*pi*(k+3)/3, so its
    # rotation part is omega^(-k)
    gluings.append(Gluing((n - 1, 2), (0, 0), (-k) % 3, 0.0))
    boundary = {(j, 1) for j in range(n)}
    return CubicSurface(tris, gluings, vertex_orders={0: k}, boundary=boundary)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    detail: tuple = ()


def validate(surface: CubicSurface) -> list:
    """Check all structural invariants; return violations (never raises)."""
    if not surface.triangles:
        return [Violation("EmptySurface")]
    out = []
    seen = {}
    all_edges = {(t, s) for t in range(len(surface.triangles)) for s in range(3)}
    for g in surface.gluings:
        for e in (g.edge_a, g.edge_b):
            seen[e] = seen.get(e, 0) + 1
        if g.edge_a == g.edge_b:
            out.append(Violation("FixedEdge", (g.edge_a,)))
            continue
        va = surface.edge_vector(*g.edge_a)
        vb = surface.edge_vector(*g.edge_b)
        if abs(abs(va) - abs(vb)) > _EDGE_TOL * max(abs(va), abs(vb)):
            out.append(Violation("EdgeLengthMismatch", (g.edge_a, g.edge_b)))
        ta, sa = g.edge_a
        tb, sb = g.edge_b
        p = g.map_a_to_b(surface.coords(ta, sa))
        q = g.map_a_to_b(surface.coords(ta, sa + 1))
        ok = (abs(p - surface.coords(tb, sb + 1)) <= 1e-9 * max(1, abs(p))
              and abs(q - surface.coords(tb, sb)) <= 1e-9 * max(1, abs(q)))
        if not ok:
            out.append(Violation("TransitionMismatch", (g.edge_a, g.edge_b)))
    for e, count in seen.items():
        if count > 1:
            out.append(Violation("NotInvolutive", (e,)))
    unglued = all_edges - set(seen)
    for e in sorted(unglued - surface.boundary):
        out.append(Violation("UnpairedEdge", (e,)))
    for e in sorted(surface.boundary & set(seen)):
        out.append(Violation("BoundaryEdgeGlued", (e,)))
    for t in range(len(surface.triangles)):
        a, b, c = surface.triangles[t]
        if _cross(b - a, c - a) <= 0:
            out.append(Violation("ClockwiseTriangle", (t,)))
    for cls in range(surface.n_classes()):
        if not surface.fan_closed[cls]:
            continue
        angle = surface.cone_angles[cls]
        k = surface.vertex_orders.get(cls)
        if k is None:
            if abs(angle - TWO_PI) > _ANGLE_TOL:
                out.append(Violation("UnmarkedConical", (cls, angle)))
        else:
            want = cone_angle(k)
            if abs(angle - want) > _ANGLE_TOL:
                out.append(Violation("ConeAngleMismatch", (cls, angle, want)))
    if not surface.boundary and all(surface.fan_closed):
        g = surface.genus()
        if g is not None:
            total = sum(surface.vertex_orders.values())
            if total != 6 * g - 6:
                out.append(Violation("DegreeMismatch", (total, 6 * g - 6)))
    return out


# ---------------------------------------------------------------------------
# development: rays traced through the triangulation
# ---------------------------------------------------------------------------

@dataclass
class _Diag:
    clipped: int = 0


@dataclass(frozen=True)
class RayHit:
    """First marked point on a ray, with arrival chart data.

    ``point`` is the developed position; since developments start at the
    source vertex, it is also the chart period of the traced segment.  ``u``
    rotates the final triangle's chart into the development frame.
    """

    cls: int
    point: complex
    tri: int
    vertex: int
    u: complex


def _place(u, b, z):
    return u * z + b


def _compose_across(surface, u, b, tri, side):
    """Placement of the neighbor across (tri, side), or None on boundary."""
    nb = surface.neighbor(tri, side)
    if nb is None:
        return None
    (t2, s2), rot, trans = nb
    w = OMEGA ** ((-rot) % 3)
    return t2, s2, u * w, b - u * w * trans


def _exit(coords, x0, d, skip):
    """Nearest crossing of the ray x0 + t*d (t > _POS_TOL) with a side of the
    triangle other than ``skip``: (t, side, sig) with sig the crossing's
    position along the side, or None."""
    best = None
    for side in range(3):
        if side == skip:
            continue
        p, q = coords[side], coords[(side + 1) % 3]
        e = q - p
        denom = _cross(d, e)
        if abs(denom) < 1e-16:
            continue
        w = p - x0
        t = _cross(w, e) / denom
        sig = _cross(w, d) / denom
        if t <= _POS_TOL or sig < -1e-9 or sig > 1 + 1e-9:
            continue
        if best is None or t < best[0]:
            best = (t, side, sig)
    return best


def _ray_walk(surface, tri, u, b, x0, d, max_len, diag):
    """Follow the ray x0 + t*d through triangle interiors.

    Returns (tri, vtx, u, b) when the ray runs exactly into a vertex, or
    None when it crosses a boundary edge (counted as clipped) or passes
    max_len.
    """
    entry_side = None
    for _ in range(200000):
        coords = [_place(u, b, surface.coords(tri, i)) for i in range(3)]
        best = _exit(coords, x0, d, entry_side)
        if best is None and entry_side is not None:
            # numerical corner case: allow re-testing the entry side
            best = _exit(coords, x0, d, None)
        if best is None:
            raise NotConverged("ray found no exit from triangle")
        t, side, sig = best
        x1 = x0 + t * d
        dist = (x1 * d.conjugate()).real
        if dist > max_len + _POS_TOL:
            return None
        edge_len = abs(coords[(side + 1) % 3] - coords[side])
        if abs(sig) * edge_len <= _POS_TOL:
            return tri, side, u, b
        if abs(1 - sig) * edge_len <= _POS_TOL:
            return tri, (side + 1) % 3, u, b
        step = _compose_across(surface, u, b, tri, side)
        if step is None:
            diag.clipped += 1
            return None
        tri, entry_side, u, b = step
        x0 = x1
    raise NotConverged("ray developed too many triangles")


def _trace(surface, tri, vtx, u, b, d, max_len, diag):
    """Follow the ray along the unit direction d from vertex (tri, vtx),
    placed by z -> u z + b, to the first marked point within max_len: a
    RayHit, or None.

    Each vertex the ray stands on after the first is examined: a marked one
    is the hit, a flat one is passed straight, any other clips the ray.  The
    ray then leaves the vertex along an edge or into the corner that holds
    d, walking the fan as needed.
    """
    examine = False
    while True:
        pos = _place(u, b, surface.coords(tri, vtx))
        cls = surface.class_of(tri, vtx)
        if examine:
            dist = (pos * d.conjugate()).real
            if dist > max_len + _POS_TOL:
                return None
            if surface.is_marked(cls):
                return RayHit(cls, pos, tri, vtx, u)
            if not surface.is_flat(cls):
                diag.clipped += 1
                return None
        examine = True
        for _ in range(len(surface.fans[cls]) + 2):
            p1 = _place(u, b, surface.coords(tri, vtx + 1)) - pos
            p2 = _place(u, b, surface.coords(tri, vtx + 2)) - pos
            c1 = _cross(p1, d)
            c2 = _cross(d, p2)
            if abs(c1) <= _POS_TOL * abs(p1) and (p1 * d.conjugate()).real > 0:
                vtx = (vtx + 1) % 3
                break
            if abs(c2) <= _POS_TOL * abs(p2) and (p2 * d.conjugate()).real > 0:
                vtx = (vtx + 2) % 3
                break
            if c1 > 0 and c2 > 0:
                nxt = _ray_walk(surface, tri, u, b, pos, d, max_len, diag)
                if nxt is None:
                    return None
                tri, vtx, u, b = nxt
                break
            step = _compose_across(surface, u, b, tri, (vtx + 2) % 3)
            if step is None:
                diag.clipped += 1
                return None
            tri, vtx, u, b = step
        else:
            raise NotConverged("direction not found in vertex fan")


def claim_corner(surface, tri, vtx, chart_dir):
    """Normalize a direction at a vertex to the corner that claims it.

    Corner (t, v) claims directions from its ccw-first edge (inclusive) up to
    its second edge (exclusive).  Returns ((t, v), direction in that chart).
    """
    corner = (tri, vtx)
    d = chart_dir / abs(chart_dir)
    cls = surface.class_of(tri, vtx)
    for _ in range(2 * len(surface.fans[cls]) + 4):
        t, v = corner
        e1 = surface.edge_vector(t, v)
        e2 = -surface.edge_vector(t, (v + 2) % 3)
        c1 = _cross(e1, d) / abs(e1)
        c2 = _cross(d, e2) / abs(e2)
        on_e1 = abs(c1) <= _POS_TOL and (e1 * d.conjugate()).real > 0
        on_e2 = abs(c2) <= _POS_TOL and (e2 * d.conjugate()).real > 0
        if on_e1 or (c1 > 0 and c2 > 0 and not on_e2):
            return corner, d
        # step cw across the edge v -> v+1, or ccw across v+2 -> v
        cw = c1 < 0 and not on_e2
        info = surface.neighbor(t, v if cw else (v + 2) % 3)
        if info is None:
            return corner, d
        (t2, s2), rot, _ = info
        d = d * OMEGA ** rot
        corner = (t2, (s2 + 1) % 3) if cw else (t2, s2)
    raise NotConverged("claim_corner failed to settle")


# ---------------------------------------------------------------------------
# saddle connection enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _DirectedHit:
    start: int
    end: int
    period: complex
    dep_key: tuple
    arr_key: tuple


class EnumerationResult(tuple):
    """Sequence of saddle connections plus tracing diagnostics."""

    clipped = 0

    def __new__(cls, connections, clipped):
        obj = super().__new__(cls, connections)
        obj.clipped = clipped
        return obj


_MAX_DEVELOPED = 500000   # triangles one corner's wedge may develop
_SEED_BLOCK = 256         # corners developed together; bounds the frontier
_OTHER_SIDES = np.array([[1, 2], [0, 2], [0, 1]])   # by gate side
_OMEGA_POWERS = np.array([OMEGA ** m for m in range(3)])


def _mul(a, b):
    """a * b on complex arrays, rounded as Python's complex product (numpy's
    own complex multiply may fuse it into FMA instructions)."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    np.subtract(a.real * b.real, a.imag * b.imag, out=out.real)
    np.add(a.real * b.imag, a.imag * b.real, out=out.imag)
    return out


def _unit(a):
    """a / abs(a) on a complex array, rounded as Python's."""
    r = np.hypot(a.real, a.imag)
    out = np.empty_like(a)
    np.divide(a.real, r, out=out.real)
    np.divide(a.imag, r, out=out.imag)
    return out


class _Tables:
    """The surface as arrays.  Per triangle: vertex coordinates and classes,
    and across each side the neighbour triangle (-1 on the boundary), its
    side, (-rot) % 3 and the translation.  Per class: marked, and flat but
    unmarked."""

    def __init__(self, surface):
        n = len(surface.triangles)
        self.coords = np.array(surface.triangles, dtype=complex).reshape(n, 3)
        self.cls = np.array([surface.class_of(t, v) for t in range(n)
                             for v in range(3)], dtype=np.int32).reshape(n, 3)
        self.nb_tri = np.full((n, 3), -1, dtype=np.int32)
        self.nb_side, self.rot = np.zeros((2, n, 3), dtype=np.int8)
        self.trans = np.zeros((n, 3), dtype=complex)
        for (t, s), ((t2, s2), rot, trans) in surface._edge_map.items():
            self.nb_tri[t, s], self.nb_side[t, s] = t2, s2
            self.rot[t, s], self.trans[t, s] = -rot % 3, trans
        classes = range(surface.n_classes())
        self.marked = np.array([surface.is_marked(c) for c in classes], bool)
        self.flat = np.array([surface.is_flat(c) for c in classes], bool)
        self.flat &= ~self.marked


def _across(tab, tri, side, p, e, u, b, max_len, diag):
    """Cross the sides ``side`` (from p to p + e) of the triangles ``tri``
    placed by z -> u z + b, where they come within max_len of the origin:
    the indices crossed, and the neighbours' triangle, entry side and
    placement.  Boundary sides count as clipped."""
    l2 = e.real * e.real + e.imag * e.imag
    t = -(p.real * e.real + p.imag * e.imag) / l2
    t = np.where(t < 1.0, t, 1.0)
    t = np.where(t > 0.0, t, 0.0)
    dist = np.where(l2 == 0, np.hypot(p.real, p.imag),
                    np.hypot(p.real + t * e.real, p.imag + t * e.imag))
    nb = tab.nb_tri[tri, side]
    near = ~(dist > max_len)
    diag.clipped += int(np.count_nonzero(near & (nb < 0)))
    keep = np.flatnonzero(near & (nb >= 0))
    tri, side = tri[keep], side[keep]
    uw = _mul(u[keep], _OMEGA_POWERS[tab.rot[tri, side]])
    return (keep, nb[keep], tab.nb_side[tri, side], uw,
            b[keep] - _mul(uw, tab.trans[tri, side]))


def _exit_side(p, e, d):
    """For rays from the origin along the unit directions d, the side each
    leaves by, chosen as _exit chooses, of the two sides from p[:, k] to
    p[:, k] + e[:, k]: k, or -1 for none."""
    d = d[:, None]
    denom = _cross(d, e)
    t = _cross(p, e) / denom
    sig = _cross(p, d) / denom
    ok = ~((np.abs(denom) < 1e-16) | (t <= _POS_TOL) | (sig < -1e-9)
           | (sig > 1 + 1e-9))
    second = ok[:, 1] & (~ok[:, 0] | (t[:, 1] < t[:, 0]))
    return np.where(second, 1, ok[:, 0] - 1)


def _develop_wedges(surface, tab, seeds, first, max_len, diag, record):
    """Develop the view strictly inside the wedge of each marked corner
    (cls, tri, v) of ``seeds`` within max_len, breadth first and all seeds
    at once; record(first + seed index, 1, RayHit) each point seen.

    A node is a triangle entered through its gate side, its placement
    z -> u z + b in the seed's chart, and the wedge (lo, hi) of unit
    directions that reach it.  An apex strictly inside the wedge splits it;
    a marked apex is a hit, a flat unmarked one continues as a ray.  The
    arithmetic is Python's complex arithmetic written out, so nodes are
    placed exactly as a search of one corner with complex scalars would.
    """
    seed_cls, seed_tri, seed_v = seeds.T
    rows = np.arange(len(seeds))
    z = tab.coords[seed_tri]
    b = -z[rows, seed_v]
    lo = _unit(z[rows, (seed_v + 1) % 3] - z[rows, seed_v])
    hi = _unit(-(z[rows, seed_v] - z[rows, (seed_v + 2) % 3]))
    u = np.ones(len(seeds), dtype=complex)
    z = _mul(u[:, None], z) + b[:, None]
    gate = (seed_v + 1) % 3
    p = z[rows, gate]
    seed, tri, gate, u, b = _across(tab, seed_tri, gate, p,
                                    z[rows, (gate + 1) % 3] - p, u, b,
                                    max_len, diag)
    lo, hi = lo[seed], hi[seed]
    developed = np.zeros(len(seeds), dtype=np.intp)
    while len(tri):
        developed += np.bincount(seed, minlength=len(seeds))
        if developed.max() > _MAX_DEVELOPED:
            raise NotConverged("saddle connection search exploded")
        rows = np.arange(len(tri))
        z = _mul(u[:, None], tab.coords[tri]) + b[:, None]
        apex = (gate + 2) % 3
        pa = z[rows, apex]
        da = _unit(pa)
        alive = pa != 0
        inside = alive & (_cross(lo, da) > 1e-12) & (_cross(da, hi) > 1e-12)
        cls = tab.cls[tri, apex]
        seen = inside & (np.hypot(pa.real, pa.imag) <= max_len + _POS_TOL)
        hit = np.flatnonzero(seen & tab.marked[cls] & (seed_cls[seed] <= cls))
        for s, *h in zip(*(a[hit].tolist()
                           for a in (seed, cls, pa, tri, apex, u))):
            record(first + s, 1, RayHit(*h))
        for i in np.flatnonzero(seen & tab.flat[cls]):
            record(first + int(seed[i]), 1, _trace(
                surface, int(tri[i]), int(apex[i]), complex(u[i]),
                complex(b[i]), complex(da[i]), max_len, diag))
        # children: each half of a split wedge, or the whole wedge
        nchild = alive.astype(np.intp) + inside
        parent = np.repeat(rows, nchild)
        clo = np.where(inside, da, lo)[parent]
        chi = hi[parent]
        second = np.cumsum(nchild)[inside] - 1
        clo[second] = lo[inside]
        chi[second] = da[inside]
        sides = _OTHER_SIDES[gate[parent]]
        p = z[parent[:, None], sides]
        e = z[parent[:, None], (sides + 1) % 3] - p
        k = _exit_side(p, e, _unit(clo + chi))
        keep = np.flatnonzero(~(_cross(clo, chi) <= 1e-12) & (k >= 0))
        k, parent = k[keep], parent[keep]
        kept, tri, gate, u, b = _across(
            tab, tri[parent], sides[keep, k], p[keep, k], e[keep, k],
            u[parent], b[parent], max_len, diag)
        seed = seed[parent[kept]]
        lo, hi = clo[keep[kept]], chi[keep[kept]]


def enumerate_saddle_connections(surface: CubicSurface,
                                 max_length: float) -> EnumerationResult:
    """All straight segments between marked points of length <= max_length.

    Each geometric segment is reported once, oriented from the smaller vertex
    class, with the period of its chart development.  Deterministic order:
    (length, angle, start class).  Segments clipped by a surface boundary are
    dropped and counted in the ``clipped`` diagnostic.
    """
    if not 0 < max_length < math.inf:
        raise ValueError("max_length must be positive and finite")
    diag = _Diag()
    seeds = [(cls, t, v) for cls in surface.marked_classes()
             for t, v in surface.fans[cls]]
    found = []   # (seed index, 0 along an edge or 1 inside the wedge, hit)

    def record(seed, kind, hit):
        """Keep a RayHit (a ray that found none is None) from the seed's
        class to one no smaller, where each segment is reported."""
        start, t, v = seeds[seed]
        if hit is None or hit.cls < start:
            return
        period = hit.point
        if abs(period) <= _POS_TOL or abs(period) > max_length + _POS_TOL:
            return
        dep_key = arr_key = None
        if hit.cls == start:   # _dedup_hits reads the keys of self-loops
            d = period / abs(period)
            dep_key = (t, v, round(cmath.phase(d) % TWO_PI, 7))
            (t, v), back = claim_corner(surface, hit.tri, hit.vertex,
                                        (-d) * hit.u.conjugate())
            arr_key = (t, v, round(cmath.phase(back) % TWO_PI, 7))
        found.append((seed, kind, _DirectedHit(start, hit.cls, period,
                                               dep_key, arr_key)))

    tab = _Tables(surface)
    with np.errstate(divide="ignore", invalid="ignore"):
        for first in range(0, len(seeds), _SEED_BLOCK):
            block = np.array(seeds[first:first + _SEED_BLOCK], dtype=np.intp)
            _develop_wedges(surface, tab, block, first, max_length, diag,
                            record)
    for seed, (cls, t, v) in enumerate(seeds):
        # the rays along the corner's first edge, and along the open
        # fan's last edge, continuing straight past flat endpoints
        ends = [v + 1]
        if not surface.fan_closed[cls] and (t, v) == surface.fans[cls][-1]:
            ends.append(v + 2)
        for w in ends:
            edge = surface.coords(t, w) - surface.coords(t, v)
            record(seed, 0, _trace(
                surface, t, v, 1.0 + 0j, -complex(surface.coords(t, v)),
                edge / abs(edge), max_length, diag))
    # _dedup_hits' stable sorts keep the corners' order among equal keys;
    # within a corner the hits lie in distinct directions, which those
    # sorts tell apart (to 1e-9 rad, 1e-7 for self-loops), so their order
    # there is immaterial
    found.sort(key=lambda f: f[:2])
    return EnumerationResult(_dedup_hits([h for _, _, h in found]),
                             diag.clipped)


def _dedup_hits(hits):
    out = []
    self_loops = {}
    for h in hits:
        if h.start < h.end:
            out.append(h)
        elif h.start == h.end:
            self_loops.setdefault(h.start, []).append(h)
    for cls, group in self_loops.items():
        group.sort(key=lambda h: (round(abs(h.period), 7), h.dep_key, h.arr_key))
        for h in group:
            if h.dep_key < h.arr_key:
                out.append(h)
        tied = [h for h in group if h.dep_key == h.arr_key]
        out.extend(tied[: len(tied) // 2])
    conns = [SaddleConnection(h.start, h.end, h.period) for h in out]
    conns.sort(key=lambda c: (round(c.length, 9), round(c.angle, 9), c.start))
    return conns


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def surface_to_dict(surface: CubicSurface) -> dict:
    return {
        "triangles": [[[z.real, z.imag] for z in tri] for tri in surface.triangles],
        "gluings": [
            {"edgeA": list(g.edge_a), "edgeB": list(g.edge_b),
             "rot": g.rot, "trans": [g.trans.real, g.trans.imag]}
            for g in surface.gluings
        ],
        "vertexOrders": {str(c): k for c, k in sorted(surface.vertex_orders.items())},
        "boundary": sorted([list(e) for e in surface.boundary]),
    }


_JSON_MAX = 1e300   # coordinates beyond this overflow abs() in validate


def _json_check(ok, field, want):
    if not ok:
        raise ValueError(f"{field} must be {want}")


def _json_list(value, field, length):
    """value, checked to be an array of ``length`` items (any if None)."""
    _json_check(isinstance(value, list)
                and (length is None or len(value) == length), field,
                "an array" if length is None else f"an array of {length}")
    return value


def _json_int(value, field, stop):
    """value, checked to be an integer (in [0, stop) unless stop is None)."""
    _json_check(isinstance(value, int) and not isinstance(value, bool)
                and (stop is None or 0 <= value < stop), field,
                "an integer" if stop is None else f"an integer in [0, {stop})")
    return value


def _json_float(value, field):
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    _json_check(ok and abs(value) <= _JSON_MAX, field,
                f"a number of magnitude at most {_JSON_MAX:g}")
    return float(value)


def _json_complex(value, field):
    x, y = _json_list(value, field, 2)
    return complex(_json_float(x, field), _json_float(y, field))


def _json_edge(value, field, n_triangles):
    t, s = _json_list(value, field, 2)
    return (_json_int(t, field, n_triangles), _json_int(s, field, 3))


def _json_objects(value, field):
    """(name, item) for each item of the array value, checked to be objects."""
    for i, item in enumerate(_json_list(value, field, None)):
        _json_check(isinstance(item, dict), f"{field}[{i}]", "an object")
        yield f"{field}[{i}].", item


def surface_from_dict(data) -> CubicSurface:
    """The surface of a JSON object; ValueError names the first bad field."""
    _json_check(isinstance(data, dict), "surface JSON", "an object")
    try:
        tris = []
        for i, tri in enumerate(_json_list(data["triangles"], "triangles",
                                           None)):
            field = f"triangles[{i}]"
            pts = [_json_complex(z, field) for z in _json_list(tri, field, 3)]
            _json_check(len(set(pts)) == 3, field, "three distinct points")
            tris.append(pts)
        gluings = [Gluing(_json_edge(g["edgeA"], f + "edgeA", len(tris)),
                          _json_edge(g["edgeB"], f + "edgeB", len(tris)),
                          _json_int(g["rot"], f + "rot", None) % 3,
                          _json_complex(g["trans"], f + "trans"))
                   for f, g in _json_objects(data["gluings"], "gluings")]
    except KeyError as err:
        raise ValueError(f"surface JSON lacks key {err.args[0]!r}") from None
    orders = data.get("vertexOrders", {})
    _json_check(isinstance(orders, dict), "vertexOrders", "an object")
    try:
        classes = [int(c) for c in orders]
    except (TypeError, ValueError):
        raise ValueError("vertexOrders keys must be integers") from None
    orders = {c: _json_int(k, f"vertexOrders[{c}]", None)
              for c, k in zip(classes, orders.values())}
    boundary = data.get("boundary", [])
    boundary = {_json_edge(e, f"boundary[{i}]", len(tris))
                for i, e in enumerate(_json_list(boundary, "boundary", None))}
    surf = CubicSurface(tris, gluings, vertex_orders=orders, boundary=boundary)
    for c in orders:
        _json_int(c, "vertexOrders key", surf.n_classes())
    return surf


def save_surface(surface: CubicSurface, path: str):
    with open(path, "w") as fh:
        json.dump(surface_to_dict(surface), fh, indent=1, sort_keys=True)


def load_surface(path: str) -> CubicSurface:
    with open(path) as fh:
        return surface_from_dict(json.load(fh))


def path_from_dict(data) -> GeodesicPath:
    """The path of a JSON object; ValueError names the first bad field."""
    _json_check(isinstance(data, dict), "path JSON", "an object")
    try:
        segs = [SaddleConnection(_json_int(sg["start"], f + "start", None),
                                 _json_int(sg["end"], f + "end", None),
                                 _json_complex(sg["period"], f + "period"))
                for f, sg in _json_objects(data["segments"], "segments")]
        juncs = [Junction(order=_json_int(j["order"], f + "order", None),
                          theta_in=_json_float(j["thetaIn"], f + "thetaIn"),
                          theta_out=_json_float(j["thetaOut"], f + "thetaOut"),
                          zero=_json_int(j.get("zero", -1), f + "zero", None))
                 for f, j in _json_objects(data.get("junctions", []),
                                           "junctions")]
    except KeyError as err:
        raise ValueError(f"path JSON lacks key {err.args[0]!r}") from None
    _json_check(segs, "segments", "a non-empty array")
    closed = data.get("closed", False)
    _json_check(isinstance(closed, bool), "closed", "true or false")
    return GeodesicPath(tuple(segs), tuple(juncs), closed)


def load_path(filename: str) -> GeodesicPath:
    with open(filename) as fh:
        return path_from_dict(json.load(fh))
