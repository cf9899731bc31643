"""Convex regular-polygon models of zeros.

Near a zero of order k the limit polygon has n = k + 3 vertices.  Crossing a
Stokes ray replaces one vector of the current vertex-lift basis (alternating
inscribed/circumscribed triangles); crossing a Weyl wall permutes which basis
slot carries the largest/medium/smallest frame eigenvalue.  With the
canonical lifts every single replacement is a unipotent change of basis, and
the products assemble the leading term of the holonomy along a ray.

Angles are natural-chart angles: Stokes rays at pi/6 mod pi/3, walls at
0 mod pi/3.  The six-step basis pattern advances all polygon indices by 3,
and the slot carrying the smallest eigenvalue is always the one replaced.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .frame import SLOT_BRANCH, titeica_exponents, titeica_frame
from .surface import GeodesicPath, chart_aligned, cone_angle, geodesic_turn

PI = math.pi
_STOKES_TOL = 1e-10
_PATTERN_TOL = 1e-12   # unipotent entries below this are structural zeros

# basis pattern per Stokes sector (sector sigma covers angles
# [(2 sigma - 1) pi/6, (2 sigma + 1) pi/6)); six sectors advance indices by 3
_BASIS_PATTERN = (
    (("r", -1), ("r", 0), ("r", 1)),
    (("q", 0), ("r", 0), ("r", 1)),
    (("r", 2), ("r", 0), ("r", 1)),
    (("r", 2), ("q", 1), ("r", 1)),
    (("r", 2), ("r", 3), ("r", 1)),
    (("r", 2), ("r", 3), ("q", 2)),
)


@dataclass(frozen=True)
class PolygonLifts:
    """Canonical vertex lifts of the regular n-gon.

    r[:, j] lifts vertex r_j; q[:, j] lifts the circumscribed-triangle apex
    q_j over edge e_j.  These are the unique lifts (up to one global scalar)
    making all Stokes-flip transformations unipotent.
    """

    n: int
    r: np.ndarray  # shape (3, n)
    q: np.ndarray

    def vector(self, kind: str, idx: int) -> np.ndarray:
        arr = self.r if kind == "r" else self.q
        return arr[:, idx % self.n]


def regular_lifts(n: int) -> PolygonLifts:
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    js = np.arange(n)
    ang = 2 * PI * js / n
    r = np.vstack([np.cos(ang), np.sin(ang), np.ones(n)])
    a = 2 * PI / n
    q0 = np.array([-math.cos(a) - 1.0, -math.sin(a), -2.0 * math.cos(a)])
    q = np.empty((3, n))
    for j in range(n):
        c, s_ = math.cos(a * j), math.sin(a * j)
        q[0, j] = c * q0[0] - s_ * q0[1]
        q[1, j] = s_ * q0[0] + c * q0[1]
        q[2, j] = q0[2]
    return PolygonLifts(n=n, r=r, q=q)


# ---------------------------------------------------------------------------
# scheme bookkeeping
# ---------------------------------------------------------------------------

def _line_offset(theta: float, phase: float) -> float:
    """Angular distance from theta to the nearest line phase mod pi/3: the
    Weyl walls at phase 0, the Stokes rays at phase pi/6."""
    x = (theta - phase) / (PI / 3)
    return abs(x - round(x)) * (PI / 3)


def classify_angle_is_special(theta: float, tol: float = 1e-6) -> bool:
    """True near a Stokes ray or a Weyl wall (used to skip degenerate sweeps)."""
    return min(_line_offset(theta, 0.0), _line_offset(theta, PI / 6)) <= tol


def on_stokes_ray(theta: float) -> bool:
    """Whether theta lies within _STOKES_TOL of a Stokes ray pi/6 mod pi/3."""
    return _line_offset(theta, PI / 6) <= _STOKES_TOL


def sector_of(theta: float) -> int:
    """Stokes sector index sigma with theta in the half-open sector
    [(2 sigma - 1) pi/6, (2 sigma + 1) pi/6), widened by _STOKES_TOL below:
    an angle on a Stokes ray counts in the sector ccw of it.  That is the
    limit eps -> 0+ of the differential e^(i eps) q, which turns every
    natural-chart direction ccw by eps/3, so each arc keeps its subtended
    angle."""
    return int(math.floor((theta + PI / 6 + _STOKES_TOL) / (PI / 3)))


def wall_interval_of(theta: float) -> int:
    """Wall-to-wall interval index tau with theta in (tau pi/3, (tau+1) pi/3)."""
    return int(math.floor(theta / (PI / 3)))


def basis_labels(sigma: int):
    u = sigma % 6
    shift = 3 * ((sigma - u) // 6)
    return tuple((kind, idx + shift) for kind, idx in _BASIS_PATTERN[u])


def eigen_tags(tau: int):
    """Rank tags s/m/l of the slot exponents on the wall-to-wall interval
    (tau pi/3, (tau+1) pi/3), read at its middle angle."""
    exps = titeica_exponents(cmath.exp(1j * (tau + 0.5) * PI / 3))
    return tuple("sml"[rank] for rank in np.argsort(np.argsort(exps)))


def basis_matrix(lifts: PolygonLifts, sigma: int) -> np.ndarray:
    return np.column_stack([lifts.vector(kind, idx)
                            for kind, idx in basis_labels(sigma)])


def slot_with_tag(theta: float, tag: str) -> int:
    return eigen_tags(wall_interval_of(theta)).index(tag)


def arc_unipotent(lifts: PolygonLifts, theta_in: float,
                  theta_out: float) -> np.ndarray:
    """U(theta_in, theta_out)^(-1) = B(sigma_out)^(-1) B(sigma_in) for the
    Stokes sectors of the endpoints.

    The product of the unipotent flips B(sigma+1)^(-1) B(sigma) of every
    Stokes ray the arc crosses, in crossing order (inverted on a cw arc),
    telescopes to this one change of basis.  Angles are natural-chart lifts;
    arcs may wind several times around the zero.  An endpoint on a Stokes
    ray counts in the sector ccw of it (sector_of).
    """
    return np.linalg.solve(basis_matrix(lifts, sector_of(theta_out)),
                           basis_matrix(lifts, sector_of(theta_in)))


def check_entry_nonzero(lifts: PolygonLifts, theta_in: float, theta_out: float):
    """Entry of U(theta_in, theta_out)^(-1) pairing the top outgoing slot with
    the top incoming slot of a geodesic turn; asserts it is positive.

    theta_in/theta_out are the position angles of the incoming and outgoing
    rays; the subtended angle must lie in [pi, cone - pi] (geodesic_turn).
    """
    subtend = theta_out - theta_in
    if not geodesic_turn(lifts.n - 3, subtend):
        raise ValueError(f"turn of {subtend} outside the geodesic range "
                         f"[pi, {cone_angle(lifts.n - 3) - PI}]")
    col = slot_with_tag(theta_in, "l")
    row = slot_with_tag(theta_out, "s")
    U = arc_unipotent(lifts, theta_in, theta_out)
    value = float(U[row, col])
    if value <= 0:
        raise AssertionError(
            f"paired unipotent entry not positive: U^-1[{row},{col}] = {value}")
    return {"entry": (row, col), "value": value}


def scheme_trace(flips: int):
    """The flip scheme's states over a number of Stokes flips, one row
    ((lo, hi), basis labels, eigenvalue-rank tags) per state.

    A state is a half-sector (h pi/6, (h+1) pi/6) between consecutive
    Stokes/wall lines: the start h = 0 holds basis (r_-1, r_0, r_1) just
    past the wall at angle 0, and flip f, past the next Stokes ray (and any
    wall before it), leads to h = 2f - 1.
    """
    rows = []
    for f in range(flips + 1):
        h = max(0, 2 * f - 1)
        rows.append(((h * PI / 6, (h + 1) * PI / 6),
                     basis_labels((h + 1) // 2), eigen_tags(h // 2)))
    return rows


# ---------------------------------------------------------------------------
# leading term of the holonomy along a ray
# ---------------------------------------------------------------------------

def _branch_permutation(m: int) -> np.ndarray:
    """Frame-change permutation in the S-gauge for a chart rotation zeta^m:
    the eigenvector of branch j moves to the slot of branch j + m."""
    branch = np.array(SLOT_BRANCH)
    return (branch[:, None] == (branch + m) % 3).astype(float)


def _chart_mismatch(angle_expected: float, angle_actual: float) -> int:
    """Multiple of 2 pi/3 separating two natural charts seeing the same
    direction; raises if the angles are not chart-aligned (chart_aligned)."""
    delta = angle_actual - angle_expected
    if not chart_aligned(delta):
        raise ValueError("junction angles are not chart-aligned modulo 2 pi/3")
    return round(delta / (2 * PI / 3)) % 3


@dataclass
class LeadingTerm:
    """Log-scaled evaluation of the dominant holonomy product A(s)."""

    s: float
    log_scale: float
    matrix: np.ndarray            # unit max-norm
    wall_ambiguity: bool = False

    def norm_exponent(self) -> float:
        """log ||A(s)|| / s^(1/3) (max-norm)."""
        return self.log_scale / self.s ** (1.0 / 3.0)

    def top_singular_exponent(self) -> float:
        return ((self.log_scale + math.log(np.linalg.norm(self.matrix, 2)))
                / self.s ** (1.0 / 3.0))


def _path_factors(path: GeodesicPath):
    """Factor sequence of the leading product in traversal order.

    Every segment diagonal is expressed in the segment's own chart; arc
    unipotents live in their junction's chart; a chart change rotating
    directions by 2 pi m/3 contributes the branch permutation P(-m) between
    the factors it separates (closed-path wraps, reversed paths).  An arc
    endpoint on a Stokes ray counts in the sector ccw of it (sector_of).
    Yields ("diag", exponent triple per unit s^(1/3)) | ("matrix", M) for a
    permutation or an arc unipotent.
    """
    n = len(path.segments)
    for i, seg in enumerate(path.segments):
        # the slot exponents of D(segment)^(-1) in the segment's chart
        yield ("diag", -titeica_exponents(seg.period))
        ja = path.junction_after(i)
        if ja is None:
            continue
        jn = path.junctions[ja]
        m_in = _chart_mismatch(cmath.phase(seg.period) + PI, jn.theta_in)
        if m_in:
            yield ("matrix", _branch_permutation(-m_in))
        yield ("matrix", arc_unipotent(regular_lifts(jn.order + 3),
                                       jn.theta_in, jn.theta_out))
        nxt = path.segments[(i + 1) % n]
        m_out = _chart_mismatch(jn.theta_out, cmath.phase(nxt.period))
        if m_out:
            yield ("matrix", _branch_permutation(-m_out))


def leading_term(path: GeodesicPath, s: float = 1.0) -> LeadingTerm:
    """A(s): the product of diagonal exponentials and arc unipotents that
    dominates Hol_s along the path, evaluated with log scaling.

    Wall-direction segments double a top diagonal entry; the result is
    flagged (wall_ambiguity), not rejected.
    """
    if s <= 0:
        raise ValueError("ray parameter s must be positive")
    S, S_inv = titeica_frame()
    log_scale = 0.0
    M = np.eye(3, dtype=complex)
    wall_flag = False

    def push(factor, ls=0.0):
        nonlocal M, log_scale
        M = factor @ M
        scale = float(np.max(np.abs(M)))
        M = M / scale
        log_scale += math.log(scale) + ls

    for kind, factor in _path_factors(path):
        if kind == "diag":
            exps = factor * s ** (1.0 / 3.0)
            top = float(np.max(exps))
            if np.sum(exps >= top - 1e-9 * max(1.0, abs(top))) > 1:
                wall_flag = True
            push(np.diag(np.exp(exps - top)).astype(complex), ls=top)
        else:
            push(factor.astype(complex))

    A = S @ M @ S_inv
    scale = float(np.max(np.abs(A)))
    return LeadingTerm(s=s, log_scale=log_scale + math.log(scale),
                       matrix=A / scale, wall_ambiguity=wall_flag)


# ---------------------------------------------------------------------------
# tropical (max-plus) top exponent through the unipotent patterns
# ---------------------------------------------------------------------------

def max_plus_step(state, M) -> np.ndarray:
    """Max-plus product of M's nonzero pattern with the slot vector state:
    entry r is the largest state[c] over the c with |M[r, c]| above
    _PATTERN_TOL, -inf where row r has none."""
    return np.max(np.where(np.abs(M) > _PATTERN_TOL, state, -np.inf), axis=1)


def tropical_norm_exponent(path: GeodesicPath) -> float:
    """Max-plus top exponent of the leading product: per-slot exponents chain
    through the nonzero pattern of each arc unipotent.

    For geodesic paths this equals the sum of per-segment top exponents; a
    corner whose direction change exceeds the dominant branch width breaks
    the eigenvalue alignment and produces a strict deficit.
    """
    state = np.zeros(3)  # max-plus column vector over slots
    for kind, factor in _path_factors(path):
        if kind == "diag":
            state = state + factor
        else:
            state = max_plus_step(state, factor)
    return float(np.max(state))
