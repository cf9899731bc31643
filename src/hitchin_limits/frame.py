"""Frame-field transport along paths in affine-sphere charts.

The structure equations give a flat connection -(U dz + V dzbar) from the
conformal factor phi and the cubic differential in the chart frame (1, d/dz,
d/dzbar).  In the natural chart w of q it is the Titeica (constant
differential) connection plus a remainder driven by F = phi - flat alone.
Transport and arcs integrate only the remainder, in the Titeica eigenbasis S:
the Titeica factor is diag(e^D) in closed form, D = titeica_exponents(w),
and the integrand e^(D_i - D_j) (S^(-1) dW S)_ij is real, O(1) at any s (F
decays like e^(-m|w|), m = 2^(2/3) sqrt 3 the largest rate of D_i - D_j)
and an exact zero wherever F is.  Transport plans its steps in one array
pass over all segments, only where a scan finds F nonzero.  An arc is the
remainder transport from its end angle back to its start, so both go
through one stepping core: RK4 propagators as entry-major float64 batches,
shape (3, 3, m), in chunks of at most _CHUNK_STEPS steps; both refuse more
than _MAX_STEPS steps before allocating nodes.

The constant differential has the classical closed-form frame (Titeica); its
eigenbasis S conjugates every asymptotic formula in the polygon module.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import StepUnstable
from .tropical import CBRT4, OMEGA

# slot j of every diagonal carries the cosine branch cos(theta - BETA[j]) and
# the Titeica eigenvector of branch SLOT_BRANCH[j], as polygon's flips expect
BETA = (-2.0 * math.pi / 3.0, 0.0, 2.0 * math.pi / 3.0)
SLOT_BRANCH = (1, 0, 2)
_SLOT_PHASES = np.array([cmath.exp(-1j * b) for b in BETA])

# steps follow F's scales where each is taken: F and D_i - D_j change at
# O(1) rates per unit of natural length (and angle, on arcs), and near the
# zero F ~ log r changes on the scale r.  A scan at natural spacing
# _SCAN_STEP finds where the remainder is not zero.  Transport and arcs form
# at most _CHUNK_STEPS steps at a time, bounding the (3, 3, m) transients
_NATURAL_STEP = 0.02
_ZERO_STEP = 0.0015
_SCAN_STEP = 1.0
_CHUNK_STEPS = 640
# a path or arc holds all its nodes at once, ~330 B per transport step and
# ~150 B per arc step, so this budget keeps them to ~165 MB, next to the
# ~165 MB of wang._MAX_RINGS
_MAX_STEPS = 500_000
_I3 = np.eye(3)[:, :, None]                    # the identity, a batch of one
# the real frame of the chart frame: C^H (U dz + V dzbar) C is real
_C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1j], [0.0, 1.0, -1j]])
_C[1:, 1:] *= math.sqrt(0.5)
_STEP_BOUND = math.exp(10) / 3.0
# a remainder within four roundings of its flat part is that rounding
_FLAT_ROUNDING = 4 * np.finfo(float).eps
_CBRT2 = 2.0 ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# Titeica closed form
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def titeica_frame():
    """(S, S_inv): eigenbasis of the Titeica monodromy, in closed form.

    Column j is (1, 2^(1/3) w^(2m), 2^(1/3) w^m) with w = e^(2 pi i/3) and
    m = SLOT_BRANCH[j], so slot j carries the branch cos(theta - BETA[j]).
    S = diag(1, 2^(1/3), 2^(1/3)) F with F the 3-point Fourier matrix up to
    the order of its rows and columns, so F^H F = 3 and
    S^(-1) = S^H diag(1, 2^(2/3), 2^(2/3))^(-1) / 3.
    """
    S = np.array([[1.0, _CBRT2 * OMEGA ** (2 * m), _CBRT2 * OMEGA ** m]
                  for m in SLOT_BRANCH], dtype=complex).T
    return S, S.conj().T / (3.0 * np.array([1.0, CBRT4, CBRT4]))


def titeica_exponents(x) -> np.ndarray:
    """The slot triple 2^(2/3) Re(x e^(-i BETA_j)): log-eigenvalues of the
    Titeica transport over a natural-chart displacement x.  x is a complex
    scalar or array; the slot axis is appended last."""
    x = np.asarray(x, dtype=complex)
    return CBRT4 * (x[..., None] * _SLOT_PHASES).real


@lru_cache(maxsize=1)
def _s_gauge():
    """The real table S_r^(-1) M S_r, S_r = C^H S, of the six matrices M
    of the trace-free remainder in the real frame: C^H dW_0 C = E x M_0 +
    E y M_1 + G x M_2 + G y M_3 + Im p M_4 + Re p M_5 over a natural step
    x + iy, with E = 2^(1/3) expm1(F) / sqrt(2), G = 2^(-1/3) expm1(-F)
    and p = dphi_w (x + iy); M_0 = e01, M_1 = e02, M_2 = e11 - e22,
    M_3 = -e12 - e21, M_4 = e21 - e12 and M_5 = diag(-2, 1, 1) / 3."""
    S, S_inv = titeica_frame()
    M = np.zeros((6, 3, 3))
    M[0, 0, 1] = M[1, 0, 2] = M[2, 1, 1] = M[4, 2, 1] = 1.0
    M[2, 2, 2] = M[3, 1, 2] = M[3, 2, 1] = M[4, 1, 2] = -1.0
    M[5] = np.diag([-2.0, 1.0, 1.0]) / 3.0
    return (S_inv @ _C).real @ M @ (_C.conj().T @ S).real


def _graded_log_singular_values(alpha, Y, beta):
    """Log singular values (largest, middle, smallest) of diag(e^alpha) Y
    diag(e^beta) for an O(1) Y, the top ones of it and of its inverse from
    entries scaled in log space, the middle one from the determinant.  Entry
    (i, j) meets e^(alpha_i + beta_j), so the inverse is formed by cofactors,
    which keep each entry to its own relative precision."""
    def top(a, M, b):
        L = np.log(np.abs(M)) + (a[:, None] + b)
        m = float(np.max(L))
        return m + math.log(np.linalg.svd(np.sign(M) * np.exp(L - m),
                                          compute_uv=False)[0])
    # row i: Y_i+1 x Y_i+2, in np.cross's operation order
    (a0, a1, a2), (b0, b1, b2) = Y[[1, 2, 0]].T, Y[[2, 0, 1]].T
    cof = np.stack((a1*b2 - a2*b1, a2*b0 - a0*b2, a0*b1 - a1*b0), axis=1)
    det = float(Y[0] @ cof[0])
    with np.errstate(divide="ignore"):         # a zero entry stays zero
        s1, s3 = top(alpha, Y, beta), -top(-beta, cof.T / det, -alpha)
    logdet = float(np.sum(alpha) + np.sum(beta)) + math.log(abs(det))
    return np.array([s1, logdet - s1 - s3, s3])


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

class FrameTransport:
    """The product Y of a path's transport chunks, multiplied out as it is:
    the remainder transport stays O(1), so each entry keeps its own relative
    precision."""

    def __init__(self):
        self.T = np.eye(3)

    def push_left(self, P: np.ndarray):
        """Y <- P Y."""
        self.T = P @ self.T


def _batch_mul(A, B):
    """The products A[..., i] @ B[..., i] of two entry-major (3, 3, m)
    batches (a matmul of (m, 3, 3) stacks makes one small BLAS call per
    matrix, and on float64 broadcast multiply-adds take twice as long)."""
    return np.einsum("ijm,jkm->ikm", A, B)


def _rk4_steps(f1, mid, end):
    """RK4 propagators I + (f1 + 2 f2 + 2 f3 + f4) / 6 of X' = A(t) X over m
    steps, from the (3, 3, m) batches of generators h A at the start, middle
    and end of each step; and the index of the first step that is not
    finite or has an entry above _STEP_BOUND, or -1 when there is none."""
    f2 = _batch_mul(mid, _I3 + 0.5 * f1)
    f3 = _batch_mul(mid, _I3 + 0.5 * f2)
    f4 = _batch_mul(end, _I3 + f3)
    steps = _I3 + (f1 + 2 * f2 + 2 * f3 + f4) / 6.0
    # a NaN or infinite entry fails the comparison too
    bad = ~(np.abs(steps).max(axis=(0, 1)) <= _STEP_BOUND)
    return steps, (int(np.argmax(bad)) if bad.any() else -1)


def _reach(q, z0, z1, d):
    """(|d|, t, |w'|, |z0 + t d|) of chart steps z0 -> z1 = z0 + d != z0, t
    in [0, 1] the closest approach to the zero and w' at max(|z0|, |z1|),
    rounded as on Python scalars: |.| by hypot, t in a real form."""
    length = np.hypot(d.real, d.imag)
    sq = np.array([x ** 2 for x in length.tolist()])
    t = np.clip(-(z0.real * d.real + z0.imag * d.imag) / sq, 0.0, 1.0)
    r = np.maximum(np.hypot(z0.real, z0.imag), np.hypot(z1.real, z1.imag))
    c = z0 + t * d
    wp = np.array([q.root_modulus(x) for x in r.tolist()])
    return length, t, wp, np.hypot(c.real, c.imag)


def _remainder_generators(F, F_z, dz, wp, D):
    """h B = -e^(D_i - D_j) (S^(-1) dW_0 S)_ij at m nodes, a real (3, 3, m)
    batch, dW_0 the trace-free remainder over a chart step dz in closed form
    from F, F_z, the cube root wp = w' and the slot exponents D (3, m); an
    exact zero of the remainder stays zero where e^(D_i - D_j) overflows."""
    dw, p = wp * dz, F_z * dz
    E = _CBRT2 * np.expm1(F) * math.sqrt(0.5)
    G = np.expm1(-F) / _CBRT2
    coeffs = np.stack((E * dw.real, E * dw.imag, G * dw.real, G * dw.imag,
                       p.imag, p.real))
    K = np.einsum("cij,cm->ijm", _s_gauge(), coeffs)
    return np.where(K == 0, 0.0, -K * np.exp(D[:, None] - D[None, :]))


def _remainder_transport(q, r, theta, F, F_z, dz, first, where):
    """Y of Y' = B Y from the identity, B = _remainder_generators, over RK4
    steps whose start, middle and end nodes are first, first + 1 and first +
    2 of the nodes at radii r and continued angles theta, with F, F_z and
    the chart step dz there; r and F may be one scalar for every node.  Each
    chunk of at most _CHUNK_STEPS steps is multiplied out into Y.  A step
    that is not finite or has an entry above e^10/3 raises StepUnstable
    naming it as where(i), i its index among the steps."""
    xport = FrameTransport()
    for lo in range(0, len(first), _CHUNK_STEPS):
        idx = first[lo:lo + _CHUNK_STEPS]
        part = slice(idx[0], idx[-1] + 3)
        radii, th, *field = (v[part] if getattr(v, "ndim", 0) else v
                             for v in (r, theta, F, F_z, dz))
        # a non-finite field or step is reported below, not warned about
        with np.errstate(invalid="ignore", over="ignore"):
            hB = _remainder_generators(
                *field, q.cube_root(radii, th),
                titeica_exponents(q.natural(radii, th)).T)
            # entry-major (3, 3, m) slices keep every einsum contiguous
            rel = idx - idx[0]
            steps, bad = _rk4_steps(*(hB.take(rel + role, axis=2)
                                      for role in range(3)))
        if bad >= 0:
            raise StepUnstable(f"{where(lo + bad)} is not finite or has an "
                               f"entry above e^10/3")
        # Y <- step Y: the chunk's product is its steps multiplied last first
        xport.push_left(_ordered_product(steps[..., ::-1]))
    return xport.T


def integrate_transport(sol, path):
    """RK4 transport of the Titeica remainder along a polyline of complex
    chart points; ``sol`` (a Wang solution) provides phi_at and dz_phi_at
    on arrays of chart points and the cubic differential q.  Returns (Y,
    D0, D1): the inverse transport, in the natural frame conjugated by S, is
    diag(e^-D1) Y diag(e^D0), D0 and D1 the slot exponents of w at the ends
    (arg z continued from the principal arg of the start), and Y' = B Y, B =
    _remainder_generators, from the identity.  F = phi - flat and F_z =
    dphi - dflat take the flat parts as the samplers add them, so far-field
    terms cancel to exact zeros; one within _FLAT_ROUNDING of its flat part
    (that part's rounding) is zero too.

    The plan is one array pass over all segments.  One sampler call of each
    scans segment g at t = i / n_g, n_g = ceil(|seg| |w'| / _SCAN_STEP) with
    w' at its far end, and at its closest approach to the zero.  Each
    interval between the scan points next to a segment's first and last
    nonzero remainder takes n equal steps of at most _NATURAL_STEP of
    natural length and, for k >= 1, _ZERO_STEP times its closest approach;
    one more call of each samples their nodes.  Each ceil's inputs round as
    on Python scalars (_reach).  A step that is not finite or has an entry
    above e^10/3 raises StepUnstable naming it as step j of n within its
    segment.  A path over _MAX_STEPS steps, or for k >= 1 with a segment
    through z = 0 (F ~ log r there), is a ValueError before any node exists."""
    q = sol.q

    def remainder(z):
        # z = 0 is sampled only at k = 0, where the flat parts are constants
        zf = np.where(z == 0, 1.0, z)
        flat, dz_flat = q.flat(np.log(np.abs(zf))), q.dz_flat(zf)
        F, F_z = sol.phi_at(z) - flat, sol.dz_phi_at(z) - dz_flat
        return tuple(np.where(np.abs(v) <= _FLAT_ROUNDING * np.abs(f), 0.0, v)
                     for v, f in ((F, flat), (F_z, dz_flat)))
    pts = [complex(z) for z in path]
    a, seg = np.array(pts[:-1], complex), np.diff(pts)
    a, seg = a[seg != 0], seg[seg != 0]
    length, near, wp, clear = _reach(q, a, a + seg, seg)
    # arg z continued along the path: a segment clear of z = 0 turns it by
    # less than pi, so arg(z / a) is continuous on it; k = 0 reads arg z
    # only mod 2 pi
    theta = [cmath.phase(pts[0])]
    for a0, d, r in zip(a.tolist(), seg.tolist(), clear.tolist()):
        if q.k and not r:
            raise ValueError(f"path segment {a0:.6g} -> {a0 + d:.6g} passes "
                             f"through z = 0")
        theta.append(theta[-1] + cmath.phase(1 + d / a0) if r
                     else cmath.phase(a0 + d))
    D0, D1 = (titeica_exponents(q.natural(abs(z), th))
              for z, th in ((pts[0], theta[0]), (pts[-1], theta[-1])))
    # segment g's scan points t = i / n_g, i <= n_g, and (i = n_g + 1) its
    # closest approach, as keys g + 1j t sorted, repeats merged (-0 reads 0)
    n = np.ceil(length * wp / _SCAN_STEP).astype(int)
    g = np.repeat(np.arange(len(n)), n + 2)
    i = np.arange(len(g)) - np.repeat(np.cumsum(n + 2) - n - 2, n + 2)
    scan = np.sort(g + 1j * np.where(i > n[g], near[g], i / n[g]))
    scan = scan[np.diff(scan, prepend=np.nan) != 0]
    g, t = scan.real.astype(int), scan.imag
    z = a[g] + seg[g] * t
    # interval (p, p + 1) of one segment takes steps when a nonzero
    # remainder of it lies at or before p + 1 and one at or after p
    F, F_z = remainder(z)
    on = (F != 0) | (F_z != 0)
    before = np.maximum.accumulate(np.where(on, g, -1)) == g
    after = np.minimum.accumulate(np.where(on, g, len(n))[::-1])[::-1] == g
    p = np.flatnonzero(before[1:] & after[:-1] & (g[1:] == g[:-1]))
    length, _, wp, near = _reach(q, z[p], z[p + 1], z[p + 1] - z[p])
    step = np.minimum(_NATURAL_STEP / wp, _ZERO_STEP * near if q.k else np.inf)
    ns = np.maximum(np.ceil(length / step), 2).astype(int)
    if ns.sum() > _MAX_STEPS:
        raise ValueError(f"path takes {ns.sum()} transport steps at "
                         f"s={q.s:g}, over the budget of {_MAX_STEPS}")
    if not len(ns):
        return np.eye(3), D0, D1
    # piece p has nodes 0 .. 2 n_p of its own, and its step j starts at 2 j
    g, size = g[p], 2 * ns + 1
    local = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    dz = seg[g] * ((t[p + 1] - t[p]) / ns)
    x = np.repeat(seg[g] * t[p], size) + np.repeat(dz, size) * (local / 2)
    a, dz = np.repeat(a[g], size), np.repeat(dz, size)
    nodes = a + x
    args = (np.repeat(np.array(theta)[g], size) + np.angle(1 + x / a)
            if q.k else np.angle(nodes))
    del local, x, a
    step_seg = np.repeat(g, ns)                        # each step's segment
    first = 2 * np.arange(len(step_seg)) + np.repeat(np.arange(len(ns)), ns)
    F, F_z = remainder(nodes)

    def where(i):
        mine = np.flatnonzero(step_seg == step_seg[i])
        return (f"transport step {i - mine[0] + 1} of {len(mine)} at "
                f"z={complex(nodes[first[i]]):.6g}")
    return _remainder_transport(q, np.abs(nodes), args, F, F_z, dz, first,
                                where), D0, D1


# ---------------------------------------------------------------------------
# arcs and read-outs
# ---------------------------------------------------------------------------

def arc_unipotent_numeric(sol, theta0: float, theta1: float,
                          radius: float) -> np.ndarray:
    """G_{theta0}^(-1) G_{theta1} for the arc |z| = radius between the two
    angles, converging to the conjugated Stokes unipotent product as s grows.

    It is S Y S^(-1) for the remainder transport Y of integrate_transport
    from theta1 back to theta0, so no inverse is formed.  F and F' = dF/dr
    are constants on the arc (sol.radial_profile, read once), so F_z = F'
    conj(z) / 2r and the chart step is dz = i z dtheta; it takes _arc_steps
    equal steps in theta.  A step that is not finite or has an entry above
    e^10/3 raises StepUnstable naming it as arc step j of n, counted from
    theta1, and so does a profile underflowing below the smallest normal
    float at k >= 1, where it has lost its bits: F inside the disk (F > 0
    there), F' on its rim (F = 0 there).  An arc of more than _MAX_STEPS
    steps is refused with a ValueError before any node is allocated.
    """
    q = sol.q
    n_steps = _arc_steps(q, theta0, theta1, radius)
    if n_steps > _MAX_STEPS:
        raise ValueError(f"arc takes {n_steps} steps at s={q.s:g}, over the "
                         f"budget of {_MAX_STEPS}")
    F, dF = sol.radial_profile(radius)
    if q.k and abs(F if radius < sol.R else dF) < np.finfo(float).tiny:
        low = "F" if radius < sol.R else "dF/dr"
        raise StepUnstable(f"arc at radius {radius:g}, s={q.s:g}: F = {F:.3g} "
                           f"and dF/dr = {dF:.3g}, {low} below the smallest "
                           f"normal float {np.finfo(float).tiny:.6g}")
    h = (theta0 - theta1) / n_steps
    t = theta1 + (h / 2) * np.arange(2 * n_steps + 1)
    z = radius * np.exp(1j * t)
    Y = _remainder_transport(q, radius, t, F, (0.5 * dF / radius) * z.conj(),
                             (1j * h) * z, np.arange(0, 2 * n_steps, 2),
                             lambda j: f"arc step {j + 1} of {n_steps} at "
                                       f"theta={t[2 * j]:.6g}")
    S, S_inv = titeica_frame()
    return S @ Y @ S_inv


def _arc_steps(q, theta0: float, theta1: float, radius: float) -> int:
    """RK4 steps for the arc |z| = radius from theta0 to theta1, each at
    most _NATURAL_STEP of natural length and of natural angle."""
    return max(2, math.ceil(abs(q.natural_angle(theta1 - theta0)) * max(
        q.natural_radius(radius), 1.0) / _NATURAL_STEP))


def _ordered_product(P):
    """P[..., 0] @ P[..., 1] @ ... @ P[..., -1] of an entry-major (3, 3, m)
    batch by pairwise batched products, an odd run padded with the identity
    at its end."""
    while P.shape[-1] > 1:
        if P.shape[-1] % 2:
            P = np.concatenate([P, _I3], axis=-1)
        P = _batch_mul(P[..., 0::2], P[..., 1::2])
    return P[..., 0]


def transport_weyl_exponents(sol, path):
    """s^(-1/3)-normalized sorted log singular values of the holonomy in the
    unimodular natural frames of the endpoints conjugated by S, which leaves
    no O(log cond S)/s^(1/3) offset: diag(e^-D1) Y diag(e^D0) of
    integrate_transport, read in log space.  The triple sums to 0 up to
    rounding.  A numpy LinAlgError in the transport or the read-out is raised
    as StepUnstable naming the transport layer."""
    try:
        Y, D0, D1 = integrate_transport(sol, path)
        vals = _graded_log_singular_values(-D1, Y, D0)
    except np.linalg.LinAlgError as err:
        raise StepUnstable(f"transport: {err}") from err
    return np.sort(vals)[::-1] / sol.q.s ** (1.0 / 3.0)
