"""Fixtures and reference implementations shared by the tests.

Surfaces and path files the tests build on, closed forms the numerical code
is checked against, the chart-frame transport integrator the remainder
integrator is checked against, the transport's step plan made segment by
segment on Python scalars, which the array plan must match bit for bit,
read-outs of a frame transport beyond the ones the verify commands use,
orbifold bookkeeping, the corner-by-corner
saddle connection search the batched one must match, the flip-by-flip
product of the Stokes unipotents, and the triangle-group cycles traced on a
developed patch, which the lattice cycles must match.  No command of the package
reaches any of this, so it lives with the tests.
"""

import cmath
import json
import math

import numpy as np

from hitchin_limits import frame, polygon
from hitchin_limits import surface as sf
from hitchin_limits.errors import NotConverged
from hitchin_limits.surface import (TWO_PI, CubicSurface, Gluing, glue,
                                    walk_fan)
from hitchin_limits.tropical import OMEGA


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------

def build_square_torus() -> CubicSurface:
    """Flat torus of dz^3 on C/(Z + iZ): translations only, no marked points."""
    tris = [(0.0, 1.0, 1j), (1.0 + 1j, 1j, 1.0)]
    gluings = [
        Gluing((0, 1), (1, 1), 0, 0.0),   # shared diagonal
        Gluing((0, 0), (1, 0), 0, 1j),    # bottom edge -> top edge
        Gluing((0, 2), (1, 2), 0, 1.0),   # left edge -> right edge
    ]
    return CubicSurface(tris, gluings, vertex_orders={})


def build_l_surface() -> CubicSurface:
    """Genus-2 translation surface: L of three unit squares, opposite sides
    glued by translations.  One cone point of angle 6*pi (order k = 6)."""
    squares = [(0, 0), (1, 0), (0, 1)]
    tris = []
    for (x, y) in squares:
        z = complex(x, y)
        tris.append((z, z + 1, z + 1 + 1j))   # lower: sides bottom/right/diag
        tris.append((z, z + 1 + 1j, z + 1j))  # upper: sides diag/top/left
    # tris index: square i -> lower triangle 2i, upper 2i+1
    gluings = [Gluing((2 * i, 2), (2 * i + 1, 0), 0, 0.0) for i in range(3)]

    def glue(e1, e2, trans):
        gluings.append(Gluing(e1, e2, 0, complex(*trans)))

    glue((0, 0), (5, 1), (0, 2))    # bottom of sq0 -> top of sq2
    glue((2, 0), (3, 1), (0, 1))    # bottom of sq1 -> top of sq1
    glue((4, 0), (1, 1), (0, 0))    # bottom of sq2 = top of sq0 (interior seam)
    glue((1, 2), (2, 1), (2, 0))    # left of sq0 -> right of sq1
    glue((5, 2), (4, 1), (1, 0))    # left of sq2 -> right of sq2
    glue((0, 1), (3, 2), (0, 0))    # right of sq0 = left of sq1 (interior seam)
    return CubicSurface(tris, gluings, vertex_orders={0: 6})


def barycentric_refine(surface: CubicSurface) -> CubicSurface:
    """Subdivide every triangle at edge midpoints and centroid (6 pieces).

    Added vertices are unmarked flat points; the flat structure and all
    saddle connections are unchanged.
    """
    tris = []
    gluings = []
    sub_index = {}
    for t, (a, b, c) in enumerate(surface.triangles):
        mab, mbc, mca = (a + b) / 2, (b + c) / 2, (c + a) / 2
        g0 = (a + b + c) / 3
        base = len(tris)
        sub_index[t] = base
        tris.extend([
            (a, mab, g0), (mab, b, g0),
            (b, mbc, g0), (mbc, c, g0),
            (c, mca, g0), (mca, a, g0),
        ])
        for j in range(6):
            gluings.append(Gluing((base + j, 1), (base + (j + 1) % 6, 2), 0, 0.0))
    boundary = set()
    handled = set()
    for t in range(len(surface.triangles)):
        for s in range(3):
            first = (sub_index[t] + 2 * s, 0)
            second = (sub_index[t] + 2 * s + 1, 0)
            nb = surface.neighbor(t, s)
            if nb is None:
                boundary.add(first)
                boundary.add(second)
                continue
            if (t, s) in handled:
                continue
            (t2, s2), rot, trans = nb
            handled.add((t2, s2))
            gluings.append(Gluing(first, (sub_index[t2] + 2 * s2 + 1, 0), rot, trans))
            gluings.append(Gluing(second, (sub_index[t2] + 2 * s2, 0), rot, trans))
    refined = CubicSurface(tris, gluings, boundary=boundary)
    for cls, k in surface.vertex_orders.items():
        t, v = surface.vertex_classes[cls][0]
        refined.vertex_orders[refined.class_of(sub_index[t] + 2 * v, 0)] = k
    return refined


def develop_fan_closure(surface: CubicSurface, cls: int):
    """Compose the chart transitions around a closed vertex fan.

    Returns (u, c): the rigid motion z -> u z + c a chart picks up after one
    full loop.  For a valid surface u = zeta^(k mod 3).
    """
    if not surface.fan_closed[cls]:
        raise ValueError("fan is not closed")
    u, b = 1.0 + 0j, 0.0 + 0j
    for (t, v) in surface.fans[cls]:
        _, rot, trans = surface.neighbor(t, (v + 2) % 3)
        w = OMEGA ** ((-rot) % 3)
        u, b = u * w, b - u * w * trans
    return u, b


def reference_vertex_classes(surface: CubicSurface):
    """The vertex partition by union-find: the two corner pairs an edge
    gluing identifies are joined, and classes are ordered by their smallest
    corner.  Returns (classes, fans, cone_angles), each class a sorted corner
    list, its fan walked from that smallest corner, and the fan's total
    angle summed in fan order.  Reference for CubicSurface's fan-walk
    numbering on involutive gluings."""
    corners = [(t, v) for t in range(len(surface.triangles)) for v in range(3)]
    parent = {c: c for c in corners}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    edge_map = {}
    for g in surface.gluings:
        glue(edge_map, g.edge_a, g.edge_b, g.rot, g.trans)
        (ta, sa), (tb, sb) = g.edge_a, g.edge_b
        union((ta, sa), (tb, (sb + 1) % 3))
        union((ta, (sa + 1) % 3), (tb, sb))
    members = {}
    for c in corners:
        members.setdefault(find(c), []).append(c)
    classes = [sorted(members[rep]) for rep in sorted(members)]
    fans, angles = [], []
    for cls in classes:
        fan, _ = walk_fan(edge_map, cls[0])
        angle = 0.0
        for corner in fan:
            angle += surface.corner_angle(*corner)
        fans.append(fan)
        angles.append(angle)
    return classes, fans, angles


# ---------------------------------------------------------------------------
# saddle connections, corner by corner
# ---------------------------------------------------------------------------

def _segment_min_dist(p, q):
    e = q - p
    L2 = (e * e.conjugate()).real
    if L2 == 0:
        return abs(p)
    t = max(0.0, min(1.0, -((p * e.conjugate()).real) / L2))
    return abs(p + t * e)


def _wedge_search(surface, seed_tri, seed_v, max_len, diag, record):
    """Develop the view from corner (seed_tri, seed_v) depth first with
    complex scalars, recording (as a RayHit) every marked vertex visible
    strictly inside the corner wedge within max_len."""
    b0 = -complex(surface.coords(seed_tri, seed_v))
    lo = surface.edge_vector(seed_tri, seed_v)
    hi = -surface.edge_vector(seed_tri, (seed_v + 2) % 3)
    lo, hi = lo / abs(lo), hi / abs(hi)
    gate = (seed_v + 1) % 3
    coords0 = [sf._place(1.0, b0, surface.coords(seed_tri, i))
               for i in range(3)]
    if _segment_min_dist(coords0[gate], coords0[(gate + 1) % 3]) > max_len:
        return
    step = sf._compose_across(surface, 1.0 + 0j, b0, seed_tri, gate)
    if step is None:
        diag.clipped += 1
        return
    t2, s2, u2, b2 = step
    stack = [(t2, s2, u2, b2, lo, hi)]
    guard = 0
    while stack:
        guard += 1
        if guard > sf._MAX_DEVELOPED:
            raise NotConverged("saddle connection search exploded")
        tri, gate_side, u, b, wlo, whi = stack.pop()
        apex = (gate_side + 2) % 3
        coords = [sf._place(u, b, surface.coords(tri, i)) for i in range(3)]
        pa = coords[apex]
        if pa == 0:
            continue
        da = pa / abs(pa)
        c_lo = sf._cross(wlo, da)
        c_hi = sf._cross(da, whi)
        if c_lo > 1e-12 and c_hi > 1e-12:
            cls = surface.class_of(tri, apex)
            if abs(pa) <= max_len + sf._POS_TOL:
                if surface.is_marked(cls):
                    record(sf.RayHit(cls, pa, tri, apex, u))
                elif surface.is_flat(cls):
                    record(sf._trace(surface, tri, apex, u, b, da, max_len,
                                     diag))
            children = [(wlo, da), (da, whi)]
        else:
            children = [(wlo, whi)]
        for clo, chi in children:
            if sf._cross(clo, chi) <= 1e-12:
                continue
            dmid = clo + chi
            dmid = dmid / abs(dmid)
            crossing = sf._exit(coords, 0j, dmid, gate_side)
            if crossing is None:
                continue
            side = crossing[1]
            if _segment_min_dist(coords[side], coords[(side + 1) % 3]) \
                    > max_len:
                continue
            step = sf._compose_across(surface, u, b, tri, side)
            if step is None:
                diag.clipped += 1
                continue
            nt, ns, nu, nb = step
            stack.append((nt, ns, nu, nb, clo, chi))


def reference_saddle_connections(surface, max_length):
    """sf.enumerate_saddle_connections with each corner's wedge developed on
    its own, depth first, with complex scalars.  Reference for the batched
    array development, which must return the same result bit for bit."""
    diag = sf._Diag()
    hits = []

    def make_recorder(start_cls, dep_tri, dep_v):
        def record(hit):
            """Keep a RayHit (a ray that found none is None)."""
            if hit is None:
                return
            period = hit.point
            if abs(period) <= sf._POS_TOL \
                    or abs(period) > max_length + sf._POS_TOL:
                return
            d = period / abs(period)
            dep_key = (dep_tri, dep_v, round(cmath.phase(d) % TWO_PI, 7))
            (t, v), back = sf.claim_corner(surface, hit.tri, hit.vertex,
                                           (-d) * hit.u.conjugate())
            arr_key = (t, v, round(cmath.phase(back) % TWO_PI, 7))
            hits.append(sf._DirectedHit(start_cls, hit.cls, period, dep_key,
                                        arr_key))
        return record

    for cls in surface.marked_classes():
        fan = surface.fans[cls]
        for idx, (t, v) in enumerate(fan):
            record = make_recorder(cls, t, v)
            ends = [v + 1]
            if not surface.fan_closed[cls] and idx == len(fan) - 1:
                ends.append(v + 2)
            for w in ends:
                edge = surface.coords(t, w) - surface.coords(t, v)
                record(sf._trace(surface, t, v, 1.0 + 0j,
                                 -complex(surface.coords(t, v)),
                                 edge / abs(edge), max_length, diag))
            _wedge_search(surface, t, v, max_length, diag, record)
    return sf.EnumerationResult(sf._dedup_hits(hits), diag.clipped)


# ---------------------------------------------------------------------------
# Stokes flips
# ---------------------------------------------------------------------------

def flip_matrix(lifts, sigma: int) -> np.ndarray:
    """Change of basis B(sigma+1)^(-1) B(sigma) for one Stokes crossing."""
    return np.linalg.solve(polygon.basis_matrix(lifts, sigma + 1),
                           polygon.basis_matrix(lifts, sigma))


def flip_product(lifts, theta_in: float, theta_out: float) -> np.ndarray:
    """polygon.arc_unipotent as a product of one flip per crossed Stokes ray
    in crossing order, each flip inverted on a clockwise arc."""
    s_in = polygon.sector_of(theta_in)
    s_out = polygon.sector_of(theta_out)
    U = np.eye(3)
    if s_out >= s_in:
        for sigma in range(s_out - 1, s_in - 1, -1):
            U = U @ flip_matrix(lifts, sigma)
    else:
        for sigma in range(s_out, s_in):
            U = U @ np.linalg.inv(flip_matrix(lifts, sigma))
    return U


# ---------------------------------------------------------------------------
# path files
# ---------------------------------------------------------------------------

def path_to_dict(path) -> dict:
    return {
        "closed": path.closed,
        "segments": [
            {"start": s.start, "end": s.end,
             "period": [s.period.real, s.period.imag]}
            for s in path.segments
        ],
        "junctions": [
            {"order": j.order, "thetaIn": j.theta_in, "thetaOut": j.theta_out,
             "zero": j.zero}
            for j in path.junctions
        ],
    }


def save_path(path, filename: str):
    with open(filename, "w") as fh:
        json.dump(path_to_dict(path), fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Titeica closed forms
# ---------------------------------------------------------------------------

def orthonormal_gauge(phi: float) -> np.ndarray:
    """C(phi): right factor turning an affine-sphere frame into a real
    orthonormal frame for the Blaschke lift."""
    a = cmath.exp(-phi / 2.0)
    return np.array([
        [1.0, 0.0, 0.0],
        [0.0, a, 1j * a],
        [0.0, a, -1j * a],
    ], dtype=complex)


def titeica_transport(displacement: complex) -> np.ndarray:
    """Transport of the constant-differential frame over a natural-chart
    displacement: S exp(diag of 2^(2/3) Re(x e^(-i BETA_j))) S^(-1)."""
    S, S_inv = frame.titeica_frame()
    d = frame.titeica_exponents(complex(displacement))
    return (S * np.exp(d)) @ S_inv


def titeica_log_singular_values(displacement: complex):
    """Log singular values of the closed-form transport, computed stably in
    the factored form (oracle for large displacements)."""
    S, S_inv = frame.titeica_frame()
    d = frame.titeica_exponents(complex(displacement))
    return log_singular_values_of_factored(S, d, S_inv)


def log_singular_values_of_factored(A, logd, B):
    """Log singular values (largest, middle, smallest) of
    A diag(e^logd) B without overflow, for well-conditioned A and B."""
    m = float(np.max(logd))
    G = (A * np.exp(logd - m)) @ B
    s1 = m + math.log(np.linalg.norm(G, 2))
    m2 = float(np.max(-logd))
    Ginv = (np.linalg.inv(B) * np.exp(-logd - m2)) @ np.linalg.inv(A)
    s3 = -(m2 + math.log(np.linalg.norm(Ginv, 2)))
    det = np.linalg.slogdet(A)[1] + float(np.sum(logd)) + np.linalg.slogdet(B)[1]
    return np.array([s1, det - s1 - s3, s3])


# ---------------------------------------------------------------------------
# the connection in the chart frame, reference transport and arc
# ---------------------------------------------------------------------------

def structure_coefficients(phi, dz_phi, q):
    """(U, V) in the chart frame (1, d/dz, d/dzbar) from the conformal
    factor, its z-derivative and the cubic differential value q (already
    including the ray parameter s).  The arguments broadcast; U and V have
    the entry axes first, shape (3, 3, ...)."""
    phi, dz_phi, q = np.broadcast_arrays(phi, np.asarray(dz_phi, complex),
                                         np.asarray(q, complex))
    ephi = np.exp(phi)
    U = np.zeros((3, 3) + phi.shape, dtype=complex)
    V = np.zeros_like(U)
    U[0, 2] = 0.5 * ephi
    U[1, 0] = 1.0
    U[1, 1] = dz_phi
    U[2, 1] = q / ephi
    V[0, 1] = 0.5 * ephi
    V[1, 2] = q.conjugate() / ephi
    V[2, 0] = 1.0
    V[2, 2] = dz_phi.conjugate()
    return U, V


def titeica_structure():
    """Constant (U, V) of dz^3 with its flat conformal factor e^phi = 2^(1/3)."""
    phi = math.log(2.0) / 3.0
    return structure_coefficients(phi, 0.0 + 0.0j, 1.0 + 0.0j)


def chart_generators(phi, dz_phi, q, dz):
    """-(U dz + V dzbar) made trace-free, as row-major (m, 3, 3) complex
    stacks, for field values and steps dz that broadcast to shape (m,)."""
    U, V = (np.moveaxis(c, (0, 1), (-2, -1))
            for c in structure_coefficients(phi, dz_phi, q))
    dz = np.asarray(dz)[..., None, None]
    W = U * dz + V * dz.conjugate()
    W -= np.trace(W, axis1=-2, axis2=-1)[..., None, None] / 3.0 * np.eye(3)
    return -W


def reference_step_size(s: float) -> float:
    """The chart-frame integrator's step: capped at 0.01 and tightened so
    the RK4 truncation stays near 1e-10 per unit length against the Titeica
    growth rate 1.5 * 2^(2/3) s^(1/3), floored at 1e-5."""
    rate = 1.5 * 2.0 ** (2.0 / 3.0) * s ** (1.0 / 3.0)
    return max(min(0.01, (120.0 * 1e-10 / rate ** 5) ** 0.25), 1e-5)


class FoldedTransport:
    """A product of transport chunks kept as Q * diag(e^logd) * T: Q is
    orthogonal, T has O(1) rows and logd carries the per-direction log
    factors, so all three log singular values stay recoverable at any range
    (the discrete QR method of Dieci, Russell & Van Vleck, SIAM J. Numer.
    Anal. 34, 1997)."""

    def __init__(self):
        self.Q = np.eye(3)
        self.logd = np.zeros(3)
        self.T = np.eye(3)

    def push_left(self, P):
        """Fold X <- P X by a QR factorization of P Q."""
        Q2, R = np.linalg.qr(P @ self.Q)
        # R[i,j] e^(d_j - d_i) on the upper triangle; the exponent is zeroed
        # below it, where R is 0 and e^(d_j - d_i) could overflow.  Row i of
        # R D is carried by |R[i,i]|, its sign stays in T
        RD = R * np.exp(np.triu(self.logd - self.logd[:, None]))
        r = np.abs(np.diag(R))
        Tn = (RD / r[:, None]) @ self.T
        scale = np.maximum(np.max(np.abs(Tn), axis=1), 1e-300)
        self.Q = Q2
        self.logd = self.logd + np.log(r) + np.log(scale)
        self.T = Tn / scale[:, None]


def reference_transport(sol, path):
    """RK4 transport of the full structure-equation connection in the
    complex chart frame, folded one short run at a time: the chart-frame
    integrator that frame.integrate_transport's remainder integrator
    replaced.

    Each segment takes n equal steps of reference_step_size, is sampled on
    its own 2n+1 nodes, and every run of 10 steps is multiplied out in order
    and folded into a FoldedTransport, so no product spans a large growth.
    Returns the inverse transport X = Psi^(-1) in the chart frame.
    """
    I3 = np.eye(3, dtype=complex)
    xport = FoldedTransport()
    pts = [complex(z) for z in path]
    h = reference_step_size(sol.q.s)
    for a, b in zip(pts[:-1], pts[1:]):
        seg = b - a
        if seg == 0:
            continue
        n = max(2, int(math.ceil(abs(seg) / h)))
        dz = seg * (1.0 / n)
        nodes = a + seg * (np.arange(2 * n + 1) / (2 * n))
        G = chart_generators(sol.phi_at(nodes), sol.dz_phi_at(nodes),
                             sol.q.s * nodes ** sol.q.k, dz)
        f1, mid, end = G[:-1:2], G[1::2], G[2::2]
        f2 = mid @ (I3 + 0.5 * f1)
        f3 = mid @ (I3 + 0.5 * f2)
        f4 = end @ (I3 + f3)
        steps = I3 + (f1 + 2 * f2 + 2 * f3 + f4) / 6.0
        for lo in range(0, n, 10):
            block = I3
            for step in steps[lo:lo + 10]:
                block = step @ block
            xport.push_left(block)
    return xport


def natural_frame_diag(q, z: complex, branch_angle: float = 0.0):
    """Frame change from the chart frame (1, d/dz, d/dzbar) to the natural
    frame of q at z: |w'|^(2/3) diag(1, 1/w', 1/conj(w')) with w' =
    q.cube_root on the branch continuous near arg z = branch_angle; its
    determinant is 1."""
    wp = q.cube_root(*q.on_branch(z, branch_angle))
    diag = np.array([1.0, 1.0 / wp, 1.0 / wp.conjugate()], dtype=complex)
    return abs(wp) ** (2.0 / 3.0) * diag


def reference_weyl_exponents(sol, path):
    """frame.transport_weyl_exponents of reference_transport: the log
    singular values of S^(-1) X S in the natural frames of the endpoints,
    sorted and divided by s^(1/3)."""
    a, b = complex(path[0]), complex(path[-1])
    da = natural_frame_diag(sol.q, a, cmath.phase(a))
    db = natural_frame_diag(sol.q, b, cmath.phase(b))
    S, S_inv = frame.titeica_frame()
    xport = reference_transport(sol, path)
    vals = log_singular_values_of_factored(S_inv * (1.0 / db)[None, :] @ xport.Q,
                                           xport.logd, (xport.T * da) @ S)
    return np.sort(vals)[::-1] / sol.q.s ** (1.0 / 3.0)


def natural_transport_matrix(sol, path):
    """Psi, the transport of frame.integrate_transport in the chart frame as
    a dense matrix (use only at moderate range): X = Psi^(-1) is
    D_b S diag(e^-D1) Y diag(e^D0) S^(-1) D_a^(-1) with D_a, D_b the
    natural frame changes at the ends, on the branch continued along the
    path."""
    Y, D0, D1 = frame.integrate_transport(sol, path)
    S, S_inv = frame.titeica_frame()
    pts = [complex(z) for z in path]
    theta = cmath.phase(pts[0])
    da = natural_frame_diag(sol.q, pts[0], theta)
    for a, b in zip(pts[:-1], pts[1:]):
        theta += cmath.phase(b / a)
    db = natural_frame_diag(sol.q, pts[-1], theta)
    X = (db[:, None] * (S * np.exp(-D1)) @ Y @ (np.exp(D0)[:, None] * S_inv)
         / da[None, :])
    return np.linalg.inv(X)


def remainder_chart_difference(F, dphi_w, xdot):
    """W = (U_w - U_T) xdot + (V_w - V_T) conj(xdot) in the chart frame, a
    row-major (m, 3, 3) complex stack: the natural-chart connection (q = 1,
    conformal factor phi_w = log 2^(1/3) + F, d phi_w / dw = dphi_w) less the
    Titeica one over natural displacements xdot.  F, dphi_w and xdot are
    arrays of shape (m,) (or broadcast to it).  Its entries are formed in
    closed form: 2^(1/3) expm1(F) / 2 at U[0, 2] and V[0, 1], 2^(-1/3)
    expm1(-F) at U[2, 1] and V[1, 2], and dphi_w at U[1, 1] and conjugated
    at V[2, 2]."""
    F, dphi_w, xd = np.broadcast_arrays(F, np.asarray(dphi_w, complex),
                                        np.asarray(xdot, complex))
    e, g = 2.0 ** (1 / 3) * np.expm1(F) / 2, np.expm1(-F) / 2.0 ** (1 / 3)
    dU = np.zeros(F.shape + (3, 3), dtype=complex)
    dV = np.zeros_like(dU)
    dU[:, 0, 2], dU[:, 1, 1], dU[:, 2, 1] = e, dphi_w, g
    dV[:, 0, 1], dV[:, 2, 2], dV[:, 1, 2] = e, dphi_w.conjugate(), g
    xd = xd[:, None, None]
    return dU * xd + dV * xd.conjugate()


def arc_chart_difference(F, dF, q, radius, t):
    """remainder_chart_difference on the arc |z| = radius at the angles t,
    with xdot = dw/dt, from the radial profile F, F' (scalars, or arrays
    that broadcast with t): there dphi_w = e^(-it) F' / (2 w')."""
    t = np.asarray(t, dtype=float)
    wp = q.cube_root(radius, t)
    return remainder_chart_difference(F, 0.5 * np.exp(-1j * t) * dF / wp,
                                      wp * (1j * radius * np.exp(1j * t)))


def reference_arc_unipotent(sol, theta0, theta1, radius):
    """frame.arc_unipotent_numeric on row-major (m, 3, 3) stacks with
    np.matmul: the whole arc's integrand S^(-1) W S e^(D_i - D_j) formed from
    the complex chart-frame W of arc_chart_difference at every node, its RK4
    steps formed at once, and the steps multiplied out one by one in order:
    M' = M A from theta0 forward.  Reference for the package's arc, the real
    remainder transport from theta1 back to theta0 on entry-major batches
    with chunked products.
    """
    I3 = np.eye(3, dtype=complex)
    q = sol.q
    n = frame._arc_steps(q, theta0, theta1, radius)
    S, S_inv = frame.titeica_frame()
    h = (theta1 - theta0) / n
    t = theta0 + (h / 2) * np.arange(2 * n + 1)
    D = frame.titeica_exponents(q.natural(radius, t))
    W = arc_chart_difference(*sol.radial_profile(radius), q, radius, t)
    A = (S_inv @ W @ S) * np.exp(D[:, :, None] - D[:, None, :])
    # M' = M A is X' = A^T X for X = M^T
    G = h * A.transpose(0, 2, 1)
    f1, mid, end = G[:-1:2], G[1::2], G[2::2]
    f2 = mid @ (I3 + 0.5 * f1)
    f3 = mid @ (I3 + 0.5 * f2)
    f4 = end @ (I3 + f3)
    steps = I3 + (f1 + 2 * f2 + 2 * f3 + f4) / 6.0
    M = I3
    for step in steps.transpose(0, 2, 1):
        M = M @ step
    return S @ M @ S_inv


# ---------------------------------------------------------------------------
# the transport plan on Python scalars, segment by segment
# ---------------------------------------------------------------------------

def nearest(a: complex, seg: complex) -> float:
    """The parameter t in [0, 1] of the point a + t seg nearest the zero."""
    return min(max(-(a * seg.conjugate()).real / abs(seg) ** 2, 0.0), 1.0)


def scan_points(q, a: complex, seg: complex) -> list:
    """Parameters t in [0, 1] on the chart segment a -> a + seg at natural
    spacing frame._SCAN_STEP, and that of its closest approach to the zero."""
    n = math.ceil(abs(seg) * abs(q.cube_root(max(abs(a), abs(a + seg)), 0.0))
                  / frame._SCAN_STEP)
    return sorted({i / n for i in range(n + 1)} | {nearest(a, seg)})


def segment_steps(q, a: complex, b: complex) -> int:
    """RK4 steps for the chart segment a -> b, each at most
    frame._NATURAL_STEP long in the natural chart and, for k >= 1,
    frame._ZERO_STEP times the segment's closest approach to the zero."""
    near = abs(a + nearest(a, b - a) * (b - a))
    h = frame._NATURAL_STEP / abs(q.cube_root(max(abs(a), abs(b)), 0.0))
    return max(2, math.ceil(abs(b - a) / (min(h, frame._ZERO_STEP * near)
                                          if q.k else h)))


def scalar_plan(sol, path):
    """frame.integrate_transport's plan made segment by segment on Python
    scalars: (D0, D1, ns, nodes, args, F, F_z, dz, first), the slot exponents
    at the ends, the step count of each scan interval that takes steps in
    path order, the step nodes with their continued angles, remainders and
    chart steps, and the index of each step's start node, or (D0, D1, ns)
    with ns empty when no step is taken.  A path over frame._MAX_STEPS steps
    is refused as there.  frame._remainder_transport(q, |nodes|, args, F,
    F_z, dz, first, where) is the transport's Y."""
    q = sol.q

    def remainder(z):
        zf = np.where(z == 0, 1.0, z)
        flat, dz_flat = q.flat(np.log(np.abs(zf))), q.dz_flat(zf)
        F, F_z = sol.phi_at(z) - flat, sol.dz_phi_at(z) - dz_flat
        rounding = frame._FLAT_ROUNDING
        return (np.where(np.abs(F) <= rounding * np.abs(flat), 0.0, F),
                np.where(np.abs(F_z) <= rounding * np.abs(dz_flat), 0.0, F_z))
    pts = [complex(z) for z in path]
    segs = [(a, b - a) for a, b in zip(pts[:-1], pts[1:]) if b != a]
    theta = [cmath.phase(pts[0])]
    for a, seg in segs:
        if a + nearest(a, seg) * seg != 0:
            theta.append(theta[-1] + cmath.phase(1 + seg / a))
        else:
            theta.append(cmath.phase(a + seg))
    D0, D1 = (frame.titeica_exponents(q.natural(abs(z), th))
              for z, th in ((pts[0], theta[0]), (pts[-1], theta[-1])))
    scans = [scan_points(q, a, seg) for a, seg in segs]
    F, F_z = remainder(np.array([a + seg * t for (a, seg), ts in
                                 zip(segs, scans) for t in ts]))
    live = np.split((F != 0) | (F_z != 0), np.cumsum(list(map(len, scans))))
    pieces = []
    for g, ((a, seg), t, on) in enumerate(zip(segs, scans, live)):
        if on.any():
            i, j = np.flatnonzero(on)[[0, -1]]
            ts = t[max(i - 1, 0):j + 2]
            for lo, hi in zip(ts, ts[1:]):
                n = segment_steps(q, a + seg * lo, a + seg * hi)
                pieces.append((g, seg * lo, seg * ((hi - lo) / n), n))
    if sum(n for *_, n in pieces) > frame._MAX_STEPS:
        raise ValueError(f"path takes {sum(n for *_, n in pieces)} transport "
                         f"steps at s={q.s:g}, over the budget of "
                         f"{frame._MAX_STEPS}")
    if not pieces:
        return D0, D1, np.array([], int)
    g, off, dz, ns = (np.array(v) for v in zip(*pieces))
    a, th = np.array([a for a, _ in segs])[g], np.array(theta)[g]
    size = 2 * ns + 1
    piece = np.repeat(np.arange(len(ns)), size)
    local = np.arange(len(piece)) - (np.cumsum(size) - size)[piece]
    x = off[piece] + dz[piece] * (local / 2)
    nodes, a, dz = a[piece] + x, a[piece], dz[piece]
    args = th[piece] + np.angle(1 + x / a) if q.k else np.angle(nodes)
    first = np.flatnonzero((local % 2 == 0) & (local < 2 * ns[piece]))
    return (D0, D1, ns, nodes, args, *remainder(nodes), dz, first)


# ---------------------------------------------------------------------------
# read-outs of a FoldedTransport
# ---------------------------------------------------------------------------

def log_singular_values_inverse(xport, left_diag=None, right_diag=None):
    """Sorted log singular values of the holonomy X = Psi^(-1).

    Optional diagonal conjugation diag(left)^(-1) X diag(right) expresses
    the transport in another frame (e.g. the natural-coordinate frame).
    """
    A = xport.Q if left_diag is None else (xport.Q.T / np.asarray(left_diag)).T
    B = xport.T if right_diag is None else xport.T * np.asarray(right_diag)
    vals = log_singular_values_of_factored(A, xport.logd, B)
    return np.sort(vals)[::-1]


def log_singular_values(xport, left_diag=None, right_diag=None):
    """Sorted log singular values of the transport Psi itself."""
    return -log_singular_values_inverse(xport, left_diag, right_diag)[::-1]


def log_abs_det(xport):
    _, ld = np.linalg.slogdet(xport.T)
    return float(np.sum(xport.logd) + ld)


def transport_matrix(xport):
    """Psi as a dense matrix (use only at moderate range)."""
    Tinv = np.linalg.inv(xport.T)
    return (Tinv * np.exp(-xport.logd)) @ xport.Q.conjugate().T


# ---------------------------------------------------------------------------
# triangle orbifolds
# ---------------------------------------------------------------------------

def canonical_marking(orb) -> dict:
    """Per interior vertex class, the chart directions of its outgoing edges
    on which the differential is real and positive (0 mod 2*pi/3)."""
    out = {}
    surf = orb.surface
    for cls in surf.marked_classes():
        dirs = []
        for (t, v) in surf.fans[cls]:
            vec = surf.edge_vector(t, v)
            ang = cmath.phase(vec) % TWO_PI
            if (ang % (TWO_PI / 3)) < 1e-9 or \
                    (TWO_PI / 3 - ang % (TWO_PI / 3)) < 1e-9:
                dirs.append(ang)
        out[cls] = sorted(set(round(d, 9) for d in dirs))
    return out


def interior_classes_of_type(orb, t: int):
    """The vertex classes of orbifold type t (0/1/2: the p/q/r corner) whose
    fans close on the patch."""
    return [c for c in range(orb.surface.n_classes())
            if orb.orbifold_type[c] == t and orb.surface.fan_closed[c]]


def lifted_order_bookkeeping(orb) -> bool:
    """Gauss-Bonnet check: each orbifold point contributes quotient order -2
    (poles of order at most 2 on the underlying sphere, total -6)."""
    total = 0.0
    for t, ord_ in enumerate((orb.p, orb.q, orb.r)):
        classes = interior_classes_of_type(orb, t)
        if not classes:
            return False
        angle = orb.surface.cone_angles[classes[0]]
        # lifted cone angle must be 2 pi ord/3; quotient order is then -2
        if abs(angle - TWO_PI * ord_ / 3.0) > 1e-9:
            return False
        total += 3.0 * (angle / (TWO_PI * ord_) - 1.0)
    return abs(total - (-6.0)) < 1e-9


# ---------------------------------------------------------------------------
# triangle-group cycles traced on a developed patch
# ---------------------------------------------------------------------------

_MAX_LEG = 10.0        # longest cycle leg traced on a patch


def _fan_offset(surface, tri, v):
    """Metric angle from the first edge of the corner's fan to the corner's
    first edge."""
    fan = surface.fans[surface.class_of(tri, v)]
    return sum(surface.corner_angle(*c) for c in fan[:fan.index((tri, v))])


def fan_angle(surface, tri, v, chart_dir):
    """Metric angle of a direction at a vertex, in its class's fan frame.

    chart_dir is expressed in the chart of triangle tri; the corner that
    claims it is found first.  The result is measured ccw from the fan's
    first edge.
    """
    (tri, v), d = sf.claim_corner(surface, tri, v, chart_dir)
    base = surface.edge_vector(tri, v)
    rel = cmath.phase(d / base) % TWO_PI
    span = surface.corner_angle(tri, v)
    if rel >= TWO_PI - 1e-7:
        rel = 0.0
    if rel > span + 1e-7:
        raise ValueError("direction not inside the given corner")
    return _fan_offset(surface, tri, v) + rel


def direction_at_fan_angle(surface, cls, angle):
    """The inverse of fan_angle: the corner of class cls that claims the
    direction at fan angle ``angle`` (taken modulo the fan's total angle),
    and that unit direction in the corner's chart, as ((tri, v), direction).
    """
    angle = angle % surface.cone_angles[cls]
    for (t, v) in surface.fans[cls]:
        lo = _fan_offset(surface, t, v)
        if lo - 1e-12 <= angle <= lo + surface.corner_angle(t, v) + 1e-12:
            base = surface.edge_vector(t, v)
            d = base / abs(base) * cmath.exp(1j * (angle - lo))
            return sf.claim_corner(surface, t, v, d)
    raise ValueError("fan angle outside the fan")


def shoot(surface, tri, vtx, chart_dir, max_len):
    """The first marked point within max_len on the ray from vertex
    (tri, vtx) along chart_dir (in the triangle's own chart, pointing into
    the closed corner wedge), as a RayHit, or None."""
    d = chart_dir / abs(chart_dir)
    b = -complex(surface.coords(tri, vtx))
    return sf._trace(surface, tri, vtx, 1.0 + 0j, b, d, max_len, sf._Diag())


def patch_trace_cycle(orb, start_class, start_direction, turns):
    """Follow a closed orbifold geodesic on the patch of ``orb``.

    Starting at an interior vertex instance along a chart direction, each
    leg runs to the first marked point; ``turns[i]`` is the ccw side angle
    taken there.  The walk counts as closed when its last leg ends at a
    vertex of the starting orbifold type and the direction it leaves in
    there has the start's cubic phase (d/|d|)^3, within 1e-9.
    """
    surf = orb.surface
    t0, v0 = surf.fans[start_class][0]
    (t, v), d = sf.claim_corner(surf, t0, v0, start_direction)
    phase0 = (d / abs(d)) ** 3
    legs = []
    cls = start_class
    for turn in turns:
        hit = shoot(surf, t, v, d, _MAX_LEG)
        if hit is None:
            raise ValueError("cycle leg left the patch; increase layers")
        legs.append((cls, hit))
        # fan angle of the way back, seen in the arrival chart
        a_in = fan_angle(surf, hit.tri, hit.vertex, -(d * hit.u.conjugate()))
        (t, v), d = direction_at_fan_angle(surf, hit.cls, a_in + turn)
        cls = hit.cls
    if orb.orbifold_type[cls] != orb.orbifold_type[start_class]:
        raise ValueError("cycle does not close on the orbifold labels")
    if abs((d / abs(d)) ** 3 - phase0) > 1e-9:
        raise ValueError("cycle does not close in the start's direction")
    segments = [sf.SaddleConnection(orb.orbifold_type[c],
                                    orb.orbifold_type[hit.cls], hit.point)
                for c, hit in legs]
    junctions = []
    for seg, (_, hit), turn in zip(segments, legs, turns):
        theta_in = cmath.phase(seg.period) + math.pi
        junctions.append(sf.Junction(order=surf.vertex_orders[hit.cls],
                                     theta_in=theta_in,
                                     theta_out=theta_in + turn,
                                     zero=orb.orbifold_type[hit.cls]))
    juncs = tuple(junctions[-1:] + junctions[:-1])
    return sf.GeodesicPath(tuple(segments), juncs, closed=True)


def _seed_classes(orb, key):
    surf = orb.surface
    return [c for c in sorted({surf.class_of(0, v) for v in range(3)}, key=key)
            if surf.fan_closed[c]]


def patch_positive_cycle(orb):
    """The straight positive cycle found on the patch: seeded at a corner
    class of the seed triangle, highest order first, along each positive
    outgoing edge until one walk closes."""
    surf = orb.surface
    last_err = None
    for start in _seed_classes(orb, lambda c: -surf.vertex_orders.get(c, -1)):
        for (t, v) in surf.fans[start]:
            vec = surf.edge_vector(t, v)
            ang = cmath.phase(vec) % (TWO_PI / 3)
            if min(ang, TWO_PI / 3 - ang) > 1e-9:
                continue  # not a positive direction
            try:
                return patch_trace_cycle(orb, start, vec, [math.pi] * 3)
            except ValueError as err:
                last_err = err
    raise last_err or ValueError("no positive cycle found")


def patch_median_cycle(orb):
    """The straight median cycle found on the patch: seeded at a corner
    class of the seed triangle, lowest order first, along each fan edge
    turned by pi/6 until one walk closes."""
    surf = orb.surface
    last_err = None
    for start in _seed_classes(orb, lambda c: surf.vertex_orders.get(c, 9)):
        for (t, v) in surf.fans[start]:
            base = surf.edge_vector(t, v)
            d = base / abs(base) * cmath.exp(1j * math.pi / 6)
            try:
                return patch_trace_cycle(orb, start, d, [math.pi] * 2)
            except ValueError as err:
                last_err = err
    raise last_err or ValueError("no median cycle found")
