"""Frame-field transport along paths in affine-sphere charts.

The structure equations give a flat connection -(U dz + V dzbar) built from
the conformal factor phi and the cubic differential in the chart frame
(1, d/dz, d/dzbar).  It is real in the constant unitary frame _C, as
conj(U) = P V P with P the swap of slots 1 and 2, so transport and arcs are
integrated there in float64.  Transport over long distances reaches
condition numbers far beyond double precision, so the inverse transport is
accumulated in a factored form Q * diag(e^d) * T with Q unitary; all three
log singular values stay accurate.

Transport and arc comparisons work on arrays: the Wang field is sampled once
on all RK4 nodes of a path, and read once at an arc's radius; generators,
RK4 propagators and their ordered products are real batches of 3x3 matrices
stored entry-major, shape (3, 3, m), and multiplied by _batch_mul, in chunks
of bounded size.  A path or arc of more than _MAX_STEPS steps is refused
before its nodes are allocated.  Both form their propagators with one RK4
step formula, which also rejects a step that is not finite or has an entry
above e^10/3.  Transport folds the product of each chunk into the factored
form once, the discrete QR method of Dieci, Russell & Van Vleck (SIAM J.
Numer. Anal. 34, 1997); a transport chunk is shortened where its growth
bound would otherwise exceed what double precision resolves.

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

# transport: RK4 truncation target per unit length.  Transport and arcs form
# at most _CHUNK_STEPS steps at a time, which bounds the transient (3, 3, m)
# arrays.  A transport chunk, folded by one QR step, is also capped so its
# growth bound stays within e^_FOLD_GROWTH: e^8 times the unit roundoff is
# 7e-13, so the chunk's product still resolves its smallest direction
_STEP_TOL = 1e-10
_CHUNK_STEPS = 640
_FOLD_GROWTH = 8.0
# a path or arc holds all its nodes at once, ~210 B per transport step and
# ~220 B per arc step, so this budget keeps them to ~160 MB, next to the
# ~165 MB of wang._MAX_RINGS
_MAX_STEPS = 500_000
_I3 = np.eye(3)[:, :, None]                    # the identity, a batch of one
# a chart-frame matrix P is C P_r C^H.  max |P| <= |P|_F = |P_r|_F <= 3 max
# |P_r|, so a step with a chart-frame entry above e^10 exceeds _STEP_BOUND
_C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1j], [0.0, 1.0, -1j]])
_C[1:, 1:] *= math.sqrt(0.5)
_STEP_BOUND = math.exp(10) / 3.0
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
    c = 2.0 ** (1.0 / 3.0)
    S = np.array([[1.0, c * OMEGA ** (2 * m), c * OMEGA ** m]
                  for m in SLOT_BRANCH], dtype=complex).T
    return S, S.conj().T / (3.0 * np.array([1.0, CBRT4, CBRT4]))


def titeica_exponents(x) -> np.ndarray:
    """The slot triple 2^(2/3) Re(x e^(-i BETA_j)): log-eigenvalues of the
    Titeica transport over a natural-chart displacement x.  x is a complex
    scalar or array; the slot axis is appended last."""
    x = np.asarray(x, dtype=complex)
    return CBRT4 * (x[..., None] * _SLOT_PHASES).real


def _log_singular_values_of_factored(A, logd, B):
    """Sorted log singular values of A diag(e^logd) B without overflow."""
    m = float(np.max(logd))
    G = (A * np.exp(logd - m)) @ B
    s1 = m + math.log(np.linalg.norm(G, 2))
    m2 = float(np.max(-logd))
    Ginv = (np.linalg.inv(B) * np.exp(-logd - m2)) @ np.linalg.inv(A)
    s3 = -(m2 + math.log(np.linalg.norm(Ginv, 2)))
    det = np.linalg.slogdet(A)[1] + float(np.sum(logd)) + np.linalg.slogdet(B)[1]
    s2 = det - s1 - s3
    return np.array([s1, s2, s3])


# ---------------------------------------------------------------------------
# factored transport accumulation
# ---------------------------------------------------------------------------

class FrameTransport:
    """Inverse transport X = Psi^(-1) kept as Q * diag(e^logd) * T.

    Q is unitary, T has O(1) rows (push_left keeps it upper triangular, and
    the final change of frame in integrate_transport, T <- T C^H, does not)
    and logd carries the Lyapunov-style per-direction log factors, so all
    three log singular values of the holonomy are recoverable at any range.
    """

    def __init__(self):
        self.Q = np.eye(3)
        self.logd = np.zeros(3)
        self.T = np.eye(3)

    def push_left(self, P: np.ndarray):
        """Fold X <- P X, keeping the factored form."""
        Q2, R = np.linalg.qr(P @ self.Q)
        # R[i,j] e^(d_j - d_i) on the upper triangle; the exponent is zeroed
        # below it, where R is 0 and e^(d_j - d_i) could overflow.  Row i of
        # R D is carried by |R[i,i]|, its phase stays in T
        RD = R * np.exp(np.triu(self.logd - self.logd[:, None]))
        r = np.abs(np.diag(R))
        Tn = (RD / r[:, None]) @ self.T
        scale = np.maximum(np.max(np.abs(Tn), axis=1), 1e-300)
        self.Q = Q2
        self.logd = self.logd + np.log(r) + np.log(scale)
        self.T = Tn / scale[:, None]


def _growth_rate(s: float) -> float:
    """Bound on the log growth of the frame per unit length of the chart:
    the spread 1.5 * 2^(2/3) s^(1/3) of the Titeica exponents."""
    return CBRT4 * s ** (1.0 / 3.0) * 1.5


def _step_size(s: float) -> float:
    """Step size: capped at 0.01 and tightened so the RK4 truncation stays
    near _STEP_TOL per unit length, floored at 1e-5."""
    h_acc = (120.0 * _STEP_TOL / _growth_rate(s) ** 5) ** 0.25
    return max(min(0.01, h_acc), 1e-5)


def _fold_steps(s: float, h: float) -> int:
    """Steps per transport chunk and QR fold: _CHUNK_STEPS, or fewer where
    that many steps of size h could grow the frame by more than
    e^_FOLD_GROWTH."""
    return max(1, min(_CHUNK_STEPS, int(_FOLD_GROWTH / (_growth_rate(s) * h))))


def _transport_generators(phi, dz_phi, q, dz):
    """-(U dz + V dzbar) made trace-free, in the real frame, at the start,
    middle and end node of each of the m steps dz over nodes 0 .. 2m: three
    (3, 3, m) float64 batches.  In the chart frame U[0,2] = V[0,1] =
    e^phi / 2, U[1,0] = V[2,0] = 1, U[1,1] = conj(V[2,2]) = dz_phi and
    U[2,1] = conj(V[1,2]) = q e^(-phi).  With dz = x + iy, p = dz_phi dz,
    beta = q e^(-phi) dz, r = Re p / 3 and a = e^phi / sqrt(2), the real
    frame's generator is [[2r, -a x, -a y], [-sqrt(2) x, -r - Re beta,
    Im p + Im beta], [-sqrt(2) y, Im beta - Im p, Re beta - r]]."""
    ephi = np.exp(phi)
    fields = np.stack((dz_phi, q * (1.0 / ephi), ephi))
    # roles[:, j, i] is node 2i + j, the start, middle or end of step i
    roles = np.stack((fields[:, :-1:2], fields[:, 1::2], fields[:, 2::2]), 1)
    p, beta = roles[:2] * dz
    a, r, x, y = roles[2].real * math.sqrt(0.5), p.real / 3.0, dz.real, dz.imag
    G = np.empty((3, 3, 3, len(dz)))        # entry, entry, role, step
    G[0] = 2.0 * r, -a * x, -a * y
    G[1:, 0] = -math.sqrt(2.0) * np.stack((x, y))[:, None]
    G[1, 1:] = -r - beta.real, p.imag + beta.imag
    G[2, 1:] = beta.imag - p.imag, beta.real - r
    return G.transpose(2, 0, 1, 3)


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


def integrate_transport(sol, path) -> FrameTransport:
    """RK4 transport of the structure-equation connection along a polyline.

    ``sol`` provides phi_at(z) and dz_phi_at(z) on arrays of chart points
    and the cubic differential q (a Wang solution); ``path`` is a sequence
    of complex chart points.  The connection is taken trace-free (the scalar
    e^(phi)-gauge is removed), so the result is unimodular; asymptotic
    exponents are unaffected.

    Each straight segment takes n equal steps of its own dz; zero-length
    segments are skipped.  The nodes of the whole path (start, middle and
    end of every step; a step's end node is the next one's start, across
    segment joints too) are sampled in one phi_at and one dz_phi_at call.
    The real-frame generators and RK4 propagators are formed as entry-major
    batches, _fold_steps (at most _CHUNK_STEPS) steps at a time so transient
    arrays stay small; each such chunk is multiplied out pairwise and folded
    into the factored transport once, which ends in the chart frame.  A
    chunk grows the frame by at most about e^_FOLD_GROWTH, so its product
    still resolves the small directions.  A step that is not finite or has
    a real-frame entry above e^10/3 raises StepUnstable naming the first
    such step as step j of n within its segment.  A path of more than
    _MAX_STEPS steps is refused with a ValueError before any node is
    allocated.
    """
    xport = FrameTransport()
    pts = [complex(z) for z in path]
    segs = [(a, b - a) for a, b in zip(pts[:-1], pts[1:]) if b != a]
    if not segs:
        return xport
    q = sol.q
    h = _step_size(q.s)
    ns = [max(2, int(math.ceil(abs(seg) / h))) for _, seg in segs]
    if sum(ns) > _MAX_STEPS:
        raise ValueError(f"path takes {sum(ns)} transport steps at "
                         f"s={q.s:g}, over the budget of {_MAX_STEPS}")
    # segment i takes steps stops[i] - ns[i] ... stops[i] - 1; its nodes
    # 2 (stops[i] - ns[i]) ... 2 stops[i] overlap the next segment's at one
    # joint, which takes the next segment's start point
    stops = np.cumsum(ns)
    nodes = np.empty(2 * stops[-1] + 1, dtype=complex)
    dz = np.empty(stops[-1], dtype=complex)
    for (a, seg), n, stop in zip(segs, ns, stops):
        nodes[2 * (stop - n):2 * stop + 1] = a + seg * (np.arange(2 * n + 1)
                                                        / (2 * n))
        dz[stop - n:stop] = seg * (1.0 / n)
    phi = sol.phi_at(nodes)
    dz_phi = sol.dz_phi_at(nodes)
    chunk = _fold_steps(q.s, h)
    for lo in range(0, len(dz), chunk):
        hi = min(lo + chunk, len(dz))
        part = slice(2 * lo, 2 * hi + 1)
        # a non-finite field or step is reported below, not warned about
        with np.errstate(invalid="ignore", over="ignore"):
            steps, bad = _rk4_steps(*_transport_generators(
                phi[part], dz_phi[part], q(nodes[part]), dz[lo:hi]))
        if bad >= 0:
            i = lo + bad
            j = int(np.searchsorted(stops, i, side="right"))
            raise StepUnstable(f"transport step {i - stops[j] + ns[j] + 1} of "
                               f"{ns[j]} at z={complex(nodes[2 * i]):.6g} is "
                               f"not finite or has a real-frame entry above "
                               f"e^10/3")
        # X <- step X: the chunk's product is its steps multiplied last first
        xport.push_left(_ordered_product(steps[..., ::-1]))
    # the chart-frame transport is C X C^H
    xport.Q, xport.T = _C @ xport.Q, xport.T @ _C.conj().T
    return xport


# ---------------------------------------------------------------------------
# arcs and read-outs
# ---------------------------------------------------------------------------

def natural_frame_diag(q, z: complex, branch_angle: float = 0.0) -> np.ndarray:
    """Frame change from the chart frame (1, d/dz, d/dzbar) to the natural
    frame of q at z: |w'|^(2/3) diag(1, 1/w', 1/conj(w')) with w' =
    q.cube_root on the branch continuous near arg z = branch_angle.

    Asymptotic transport formulas live in the natural frame; conjugating by
    these diagonals removes the polynomially-growing frame mismatch.  The
    factor |w'|^(2/3) makes the determinant 1, so a unimodular transport
    stays unimodular in the natural frame and its exponents sum to 0.
    """
    wp = q.cube_root(*q.on_branch(z, branch_angle))
    diag = np.array([1.0, 1.0 / wp, 1.0 / wp.conjugate()], dtype=complex)
    return abs(wp) ** (2.0 / 3.0) * diag


def arc_unipotent_numeric(sol, theta0: float, theta1: float,
                          radius: float) -> np.ndarray:
    """G_{theta0}^(-1) G_{theta1} for the arc |z| = radius between the two
    angles, converging to the conjugated Stokes unipotent product as s grows.

    Computed as the osculation comparison N(t) = F_T(x(t0)) Psi_w F_T(x(t))^(-1):
    N' = N * F_T (omega_w - omega_T) F_T^(-1), integrated in the eigen-gauge
    with entrywise exponential scaling, so the dynamic range of the direct
    triple product (which loses all precision at desk scale) never appears.
    In the natural chart the connection has the structure-equation form with
    q = 1 and phi_w = log 2^(1/3) + F, where F and dF/dr are constants on the
    arc (sol.radial_profile, read once); the integrand vanishes where F = 0,
    as for the constant differential.  A step that is not finite or has an
    entry above e^10/3 raises StepUnstable naming it as arc step j of n.  An
    arc of more than _MAX_STEPS steps is refused with a ValueError before
    any node is allocated.
    """
    q = sol.q
    n_steps = max(256, int(96 * abs(theta1 - theta0) * q.s ** (1 / 3)))
    if n_steps > _MAX_STEPS:
        raise ValueError(f"arc takes {n_steps} steps at s={q.s:g}, over the "
                         f"budget of {_MAX_STEPS}")
    # dw/dtheta and the slot exponents on the start, middle and end nodes
    h = (theta1 - theta0) / n_steps
    t = theta0 + (h / 2) * np.arange(2 * n_steps + 1)
    xdot = q.cube_root(radius, t) * (1j * radius * np.exp(1j * t))
    D = titeica_exponents(q.natural(radius, t)).T
    # M' = M A for the integrand A = (x A_x + y A_y + A_0) e^(D_i - D_j),
    # xdot = x + iy.  That is X' = A^T X for X = M^T: RK4 steps of X,
    # transposed back, advance M by M P with one propagator P per step
    A = _arc_coefficients(*sol.radial_profile(radius), radius)
    hA_x, hA_y, hA_0 = h * A.swapaxes(1, 2)[..., None]
    M = np.eye(3)
    for lo in range(0, n_steps, _CHUNK_STEPS):
        part = slice(2 * lo, 2 * min(lo + _CHUNK_STEPS, n_steps) + 1)
        x, y, d = xdot[part].real, xdot[part].imag, D[:, part]
        with np.errstate(invalid="ignore", over="ignore"):
            hAT = (hA_x * x + hA_y * y + hA_0) * np.exp(d - d[:, None])
            steps, bad = _rk4_steps(hAT[..., :-1:2], hAT[..., 1::2],
                                    hAT[..., 2::2])
        if bad >= 0:
            j = lo + bad
            raise StepUnstable(f"arc step {j + 1} of {n_steps} at theta="
                               f"{t[2 * j]:.6g} is not finite or has an "
                               f"entry above e^10/3")
        M = M @ _ordered_product(steps.swapaxes(0, 1))
    S, S_inv = titeica_frame()
    return S @ M @ S_inv


def _arc_coefficients(F, dF, radius):
    """(A_x, A_y, A_0), a real (3, 3, 3) stack with S^(-1) W S = x A_x +
    y A_y + A_0 for W = (U_w - U_T) xdot + (V_w - V_T) conj(xdot) on the arc
    |z| = radius, xdot = x + iy.  It is S_r^(-1) W_r S_r with the real S_r =
    C^H S and W_r = C^H W C = [[0, E x, E y], [0, G x, -P - G y], [0, P - G y,
    -G x]]: E = 2^(1/3) expm1(F) / sqrt(2), G = 2^(-1/3) expm1(-F), and
    dphi_w xdot = i P with P = radius F' / 2."""
    S, S_inv = titeica_frame()
    E = _CBRT2 * np.expm1(F) * math.sqrt(0.5)
    G = np.expm1(-F) / _CBRT2
    P = 0.5 * radius * dF
    W = np.array([[[0, E, 0], [0, G, 0], [0, 0, -G]],
                  [[0, 0, E], [0, 0, -G], [0, -G, 0]],
                  [[0, 0, 0], [0, 0, -P], [0, P, 0]]], dtype=float)
    return (S_inv @ _C).real @ W @ (_C.conj().T @ S).real


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
    """s^(-1/3)-normalized sorted log singular values of the holonomy.

    The transport is expressed in the unimodular natural frame at the
    endpoints and conjugated by the Titeica eigenbasis S, which removes the
    O(log cond S)/s^(1/3) offset between singular and asymptotic exponents
    (exact for the constant differential).  Both frame changes have
    determinant 1, so the triple sums to 0 up to rounding.  A numpy
    LinAlgError in the transport or the read-out is raised as StepUnstable
    naming the transport layer.
    """
    a, b = complex(path[0]), complex(path[-1])
    da = natural_frame_diag(sol.q, a, cmath.phase(a))
    db = natural_frame_diag(sol.q, b, cmath.phase(b))
    S, S_inv = titeica_frame()
    try:
        xport = integrate_transport(sol, path)
        A = S_inv * (1.0 / db)[None, :] @ xport.Q
        B = (xport.T * da) @ S
        vals = _log_singular_values_of_factored(A, xport.logd, B)
    except np.linalg.LinAlgError as err:
        raise StepUnstable(f"transport: {err}") from err
    return np.sort(vals)[::-1] / sol.q.s ** (1.0 / 3.0)
