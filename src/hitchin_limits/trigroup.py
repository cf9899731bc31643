"""Flat 1/3-translation structures of projectively deformable triangle
orbifolds, their tropical length spectra, and the boundary-circle probe.

The canonical differential makes the orbifold a union of unit equilateral
triangles with the outgoing edges at each vertex along the directions where
the differential is real and positive.  Developed from one triangle, every
vertex lies on the Eisenstein lattice a + b e^(i pi/3), with type
(a - b) mod 3 (the p/q/r corner), and a vertex of valence 2v is a cone point
of order v - 3.  The closed geodesics are walked on that lattice with
integer vectors, and their periods are exact lattice vectors.

The saddle connection enumeration needs the orbifold itself, represented by
a finite developed patch: triangles are attached across free edges and
vertex fans are zipped shut when they reach their full valence 2p, giving
honest interior cone points of order p - 3 surrounded by enough collar for
the enumeration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import tropical
from .surface import (TWO_PI, CubicSurface, GeodesicPath, Gluing, Junction,
                      SaddleConnection, enumerate_saddle_connections,
                      glue, walk_fan)
from .tropical import OMEGA

_ETA = complex(0.5, math.sqrt(3) / 2)   # e^(i pi/3)
# a patch takes ~2.4 kB per triangle (build and surface), so this budget
# keeps it to ~160 MB, next to wang._MAX_RINGS and frame._MAX_STEPS
_MAX_TRIANGLES = 65_000


@dataclass(frozen=True)
class TriangleOrbifoldSurface:
    p: int
    q: int
    r: int
    surface: CubicSurface
    orbifold_type: tuple       # vertex class -> 0/1/2 (the p/q/r corner)


def _valences(p: int, q: int, r: int) -> tuple:
    """The vertex valences (p, q, r) of a group whose orbifold carries a
    nonzero cubic differential, or the error saying why it carries none."""
    for v in (p, q, r):
        if v < 2:
            raise ValueError("triangle group orders must be >= 2")
        if v == 2:
            raise ValueError(
                "a (p,q,r) group with an order-2 vertex carries no nonzero "
                "cubic differential")
    return (p, q, r)


def _zip_fans(coords, edge_map, corner_type, valence, work):
    """Close every fan, among those of the corners in ``work``, that has
    reached its full valence.

    A fan with 2*ord corners and both boundary edges free is glued shut with
    the rigid motion matching the edge endpoints (an omega-power rotation).
    That gluing joins the far endpoints of the two glued edges into one
    vertex, whose fan may then be full in turn, so its corner joins the work.
    """
    while work:
        fan, closed = walk_fan(edge_map, work.pop())
        if closed:
            continue
        tf, vf = fan[0]
        ord_ = valence[corner_type[(tf, vf)]]
        if len(fan) < 2 * ord_:
            continue
        if len(fan) > 2 * ord_:
            raise RuntimeError("fan exceeded its valence")
        # boundary edges: cw edge of the first corner, ccw edge of last
        tl, vl = fan[-1]
        e_a = (tl, (vl + 2) % 3)       # from vl+2 to vl (head at vertex)
        e_b = (tf, vf)                 # from vf to vf+1 (tail at vertex)
        if e_a in edge_map or e_b in edge_map:
            raise RuntimeError("fan boundary edge already glued")
        a1 = coords[e_a[0]][e_a[1]]
        a2 = coords[e_a[0]][(e_a[1] + 1) % 3]
        b1 = coords[e_b[0]][e_b[1]]
        b2 = coords[e_b[0]][(e_b[1] + 1) % 3]
        rot = (b2 - b1) / (a1 - a2)
        m = round((cmath.phase(rot) % TWO_PI) / (TWO_PI / 3))
        if abs(rot - OMEGA ** (m % 3)) > 1e-9:
            raise RuntimeError("zip rotation is not a cube root of unity")
        trans = b2 - OMEGA ** (m % 3) * a1
        glue(edge_map, e_a, e_b, m % 3, trans)
        work.append((tf, (vf + 1) % 3))


def build_orbifold(p: int, q: int, r: int, layers: int = 4) -> TriangleOrbifoldSurface:
    """Developed patch of the (p, q, r) orbifold's canonical flat structure.

    Every vertex within ``layers`` triangle generations of the seed acquires
    its full fan (valence 2p/2q/2r); remaining edges stay as boundary.
    The patch grows exponentially in ``layers``; one of more than
    _MAX_TRIANGLES triangles is refused with a ValueError when the first
    triangle over the budget is to be added.
    """
    valence = _valences(p, q, r)

    coords = []
    corner_type = {}
    generation = []
    edge_map = {}

    def add_triangle(vertex_types, pts, gen):
        t = len(coords)
        if t == _MAX_TRIANGLES:
            raise ValueError(f"({p},{q},{r}) orbifold at {layers} layers "
                             f"takes more than the budget of "
                             f"{_MAX_TRIANGLES} triangles")
        coords.append(tuple(pts))
        for v in range(3):
            corner_type[(t, v)] = vertex_types[v]
        generation.append(gen)
        return t

    add_triangle((0, 1, 2), (0.0, 1.0, cmath.exp(1j * math.pi / 3)), 0)

    frontier = [(0, s) for s in range(3)]
    while frontier:
        new_frontier = []
        for (t, s) in frontier:
            if (t, s) in edge_map:
                continue
            if generation[t] >= layers:
                continue
            a = coords[t][s]
            b = coords[t][(s + 1) % 3]
            apex = a + b - coords[t][(s + 2) % 3]
            ta = corner_type[(t, s)]
            tb = corner_type[(t, (s + 1) % 3)]
            tc = 3 - ta - tb
            t2 = add_triangle((tb, ta, tc), (b, a, apex), generation[t] + 1)
            glue(edge_map, (t, s), (t2, 0), 0, 0.0)
            # the apex is a new vertex: only the base corners' fans grew
            _zip_fans(coords, edge_map, corner_type, valence,
                      [(t2, 0), (t2, 1)])
            new_frontier.extend((t2, s2) for s2 in (1, 2)
                                if (t2, s2) not in edge_map)
        frontier = [e for e in new_frontier if e not in edge_map]

    gluings = []
    done = set()
    for e_a, (e_b, rot, trans) in edge_map.items():
        if e_a in done or e_b in done:
            continue
        done.add(e_a)
        done.add(e_b)
        gluings.append(Gluing(e_a, e_b, rot, trans))
    boundary = {(t, s) for t in range(len(coords)) for s in range(3)
                if (t, s) not in edge_map}
    surface = CubicSurface(coords, gluings, boundary=boundary)
    types = [None] * surface.n_classes()
    for cls in range(surface.n_classes()):
        t, v = surface.vertex_classes[cls][0]
        types[cls] = corner_type[(t, v)]
        if surface.fan_closed[cls]:
            surface.vertex_orders[cls] = valence[types[cls]] - 3
    return TriangleOrbifoldSurface(p=p, q=q, r=r, surface=surface,
                                   orbifold_type=tuple(types))


# ---------------------------------------------------------------------------
# closed geodesics on the Eisenstein lattice
# ---------------------------------------------------------------------------

def trace_cycle(pqr, start_type: int, direction, turns) -> GeodesicPath:
    """Follow a closed orbifold geodesic on the Eisenstein lattice.

    ``direction`` is a lattice vector (a, b), standing for a + b*_ETA.  Each
    leg runs from a vertex of type t along it to the first lattice point,
    (a, b)/gcd(a, b), a vertex of type (t + a - b) mod 3; ``turns[i]``, a
    multiple of pi/3, is the ccw side angle taken there, which rotates the
    way back (-a, -b) by (a, b) -> (-b, a + b) per pi/3.  Charts of the
    orbifold differ by cube roots of unity, so the walk counts as closed
    when its last leg ends at a vertex of the start's type and leaves it in
    the start's direction up to a turn by 2*pi/3.  Segments carry the
    vertex types, so the resulting path is closed at the orbifold level.
    """
    valence = _valences(*pqr)
    if start_type not in (0, 1, 2):
        raise ValueError(f"cycle start type {start_type!r} is not 0, 1 or 2")
    a, b = direction
    g = math.gcd(a, b)
    if g == 0:
        raise ValueError("cycle direction must be a nonzero lattice vector")
    a, b = a // g, b // g
    start = (a, b)
    t = start_type
    segments = []
    junctions = []
    for turn in turns:
        k = round(turn / (math.pi / 3))
        if abs(turn - k * math.pi / 3) > 1e-9:
            raise ValueError(f"cycle turn {turn!r} is not a multiple of pi/3")
        end = (t + a - b) % 3
        seg = SaddleConnection(t, end, a + b * _ETA)
        # junction i+1 joins segment i to segment i+1; wrap goes to slot 0
        theta_in = cmath.phase(seg.period) + math.pi
        segments.append(seg)
        junctions.append(Junction(order=valence[end] - 3, theta_in=theta_in,
                                  theta_out=theta_in + turn, zero=end))
        a, b = -a, -b
        for _ in range(k % 6):
            a, b = -b, a + b
        t = end
    if t != start_type:
        raise ValueError("cycle does not close on the orbifold labels")
    if start not in ((a, b), (-a - b, a), (b, -a - b)):
        raise ValueError("cycle does not close in the start's direction")
    juncs = tuple(junctions[-1:] + junctions[:-1])
    return GeodesicPath(tuple(segments), juncs, closed=True)


def straight_positive_cycle(p: int, q: int, r: int) -> GeodesicPath:
    """The closed geodesic chaining unit edges along the positive directions
    of the canonical differential, passing each flat vertex straight and
    turning pi (against cone angle - pi) at the order >= 1 vertex.  It
    starts at the first vertex type of highest valence."""
    return trace_cycle((p, q, r), (p, q, r).index(max(p, q, r)), (1, 0),
                       [math.pi] * 3)


def straight_median_cycle(p: int, q: int, r: int) -> GeodesicPath:
    """A closed geodesic running along triangle medians: two segments
    i*sqrt(3) between vertices of one type, the first of lowest valence,
    passing each of them straight."""
    return trace_cycle((p, q, r), (p, q, r).index(min(p, q, r)), (-1, 2),
                       [math.pi] * 2)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumVector:
    values: tuple          # WeylVector per class
    projectivized: np.ndarray


def spectrum(curve_classes) -> SpectrumVector:
    """Tropical length spectrum of a finite family of closed geodesics."""
    values = []
    for path in curve_classes:
        if not getattr(path, "closed", False):
            raise ValueError("spectrum expects closed geodesic paths")
        values.append(tropical.path_singular_exponents(
            seg.period for seg in path.segments))
    if values:
        stacked = np.array([w.as_tuple() for w in values]).ravel()
        norm = np.linalg.norm(stacked)
        proj = stacked / norm if norm > 0 else stacked
    else:
        proj = np.zeros(0)
    return SpectrumVector(values=tuple(values), projectivized=proj)


def rotated_paths(curve_classes, theta):
    """The family of the differential e^(i theta) q0: every period is turned
    by e^(i a) and every junction angle by a, with a = theta/3.  theta is
    reduced modulo 2*pi first, so a full rotation leaves the paths bit for
    bit unchanged."""
    a = (theta % TWO_PI) / 3.0
    w = cmath.exp(1j * a)
    out = []
    for path in curve_classes:
        segs = tuple(SaddleConnection(s.start, s.end, w * s.period)
                     for s in path.segments)
        juncs = tuple(Junction(j.order, j.theta_in + a, j.theta_out + a,
                               j.zero) for j in path.junctions)
        out.append(GeodesicPath(segs, juncs, path.closed))
    return out


def boundary_injectivity_probe(curve_classes, theta_grid) -> float:
    """Minimum pairwise distance of projectivized spectra over a theta grid
    (inf for fewer than two angles).

    Positive for families containing segments at two or more distinct chart
    angles, such as the two straight cycles; a single angular class may
    degenerate at symmetric theta pairs.
    """
    thetas = list(theta_grid)
    spectra = [spectrum(rotated_paths(curve_classes, th)).projectivized
               for th in thetas]
    best = math.inf
    for i in range(len(thetas)):
        for j in range(i + 1, len(thetas)):
            best = min(best, float(np.linalg.norm(spectra[i] - spectra[j])))
    return best
