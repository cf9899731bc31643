"""Frame-field transport along paths in affine-sphere charts.

The structure equations give a flat connection with matrices U, V built from
the conformal factor phi and the cubic differential.  Transport over long
distances reaches condition numbers far beyond double precision, so the
inverse transport is accumulated in a factored form Q * diag(e^d) * T with Q
unitary and T a mild upper-triangular remainder; all three log singular
values stay accurate.

Transport and arc comparisons work on arrays: the Wang field is sampled once
on all RK4 nodes of a segment or arc (neighbouring steps share their common
node), and the generators, RK4 propagators and the products folded into the
factored form are batched (..., 3, 3) matmuls, in chunks of bounded size.

The constant differential has the classical closed-form frame (Titeica); its
eigenbasis S conjugates every asymptotic formula in the polygon module.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import StepUnstable
from .tropical import CBRT4, OMEGA, segment_exponents

# slot j of every diagonal carries the cosine branch cos(theta - BETA[j]);
# this matches the Stokes-flip bookkeeping of the polygon module
BETA = (-2.0 * math.pi / 3.0, 0.0, 2.0 * math.pi / 3.0)

# transport: RK4 truncation target per unit length and steps per QR fold;
# transport and arcs form at most _CHUNK_STEPS steps (64 QR folds) at a time,
# which bounds the transient (m, 3, 3) arrays
_STEP_TOL = 1e-10
_QR_EVERY = 10
_CHUNK_STEPS = 64 * _QR_EVERY
_I3 = np.eye(3, dtype=complex)


# ---------------------------------------------------------------------------
# structure coefficients
# ---------------------------------------------------------------------------

def structure_coefficients(phi, dz_phi, q):
    """(U, V) from the conformal factor, its z-derivative and the cubic
    differential value q (already including the ray parameter s).  The
    arguments broadcast; U and V have shape (..., 3, 3)."""
    phi, dz_phi, q = np.broadcast_arrays(phi, np.asarray(dz_phi, complex),
                                         np.asarray(q, complex))
    ephi = np.exp(phi)
    U = np.zeros(phi.shape + (3, 3), dtype=complex)
    V = np.zeros_like(U)
    U[..., 0, 2] = 0.5 * ephi
    U[..., 1, 0] = 1.0
    U[..., 1, 1] = dz_phi
    U[..., 2, 1] = q / ephi
    V[..., 0, 1] = 0.5 * ephi
    V[..., 1, 2] = q.conjugate() / ephi
    V[..., 2, 0] = 1.0
    V[..., 2, 2] = dz_phi.conjugate()
    return U, V


# ---------------------------------------------------------------------------
# Titeica closed form
# ---------------------------------------------------------------------------

def titeica_structure():
    """Constant (U, V) of dz^3 with its flat conformal factor e^phi = 2^(1/3)."""
    phi = math.log(2.0) / 3.0
    return structure_coefficients(phi, 0.0 + 0.0j, 1.0 + 0.0j)


@lru_cache(maxsize=1)
def titeica_frame():
    """(S, S_inv): eigenbasis of the Titeica monodromy, in closed form.

    Column j is (1, 2^(1/3) w^(2m), 2^(1/3) w^m) with w = e^(2 pi i/3) and
    m = (1, 0, 2)[j], so slot j carries the branch cos(theta - BETA[j]).
    S = diag(1, 2^(1/3), 2^(1/3)) F with F the 3-point Fourier matrix up to
    the order of its rows and columns, so F^H F = 3 and
    S^(-1) = S^H diag(1, 2^(2/3), 2^(2/3))^(-1) / 3.
    """
    c = 2.0 ** (1.0 / 3.0)
    S = np.array([[1.0, c * OMEGA ** (2 * m), c * OMEGA ** m]
                  for m in (1, 0, 2)], dtype=complex).T
    return S, S.conj().T / (3.0 * np.array([1.0, CBRT4, CBRT4]))


def _titeica_exponents(x: complex) -> np.ndarray:
    """Log-eigenvalues 2^(2/3) Re(x e^(-i BETA_j)) of the Titeica transport."""
    return np.array([CBRT4 * (x * cmath.exp(-1j * b)).real for b in BETA])


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

    Q is unitary, T upper triangular with O(1) rows; logd carries the
    Lyapunov-style per-direction log factors, so all three log singular
    values of the holonomy are recoverable at any dynamic range.
    """

    def __init__(self):
        self.Q = np.eye(3, dtype=complex)
        self.logd = np.zeros(3)
        self.T = np.eye(3, dtype=complex)

    def push_left(self, P: np.ndarray):
        """Fold X <- P X, keeping the factored form."""
        A = P @ self.Q
        Q2, R = np.linalg.qr(A)
        # positive-diagonal convention
        ph = np.diag(R).copy()
        ph[np.abs(ph) == 0] = 1.0
        ph = ph / np.abs(ph)
        Q2 = Q2 * ph
        R = (R.T * ph.conjugate()).T
        RD = R * np.exp(self.logd - self.logd[:, None])  # R[i,j] e^(d_j - d_i)
        newd = self.logd + np.log(np.abs(np.diag(R)))
        T2 = RD / np.diag(R)[:, None]
        Tn = T2 @ self.T
        scale = np.maximum(np.max(np.abs(Tn), axis=1), 1e-300)
        self.Q = Q2
        self.logd = newd + np.log(scale)
        self.T = Tn / scale[:, None]


def _step_size(s: float) -> float:
    """Step size: capped at min(0.01, 0.5 s^(-1/3)) and tightened so the RK4
    truncation stays near _STEP_TOL per unit length."""
    cap = min(0.01, 0.5 * s ** (-1.0 / 3.0))
    rate = CBRT4 * s ** (1.0 / 3.0) * 1.5
    h_acc = (120.0 * _STEP_TOL / rate ** 5) ** 0.25
    return max(min(cap, h_acc), 1e-5)


def _transport_generators(sol, phi, dz_phi, z, dz, s):
    """-(U dz + V dzbar) at the chart points z, made trace-free: (m, 3, 3)."""
    U, V = structure_coefficients(phi, dz_phi, s * z ** sol.k)
    W = U * dz + V * dz.conjugate()
    d = np.arange(3)
    W[:, d, d] -= (np.trace(W, axis1=1, axis2=2) / 3.0)[:, None]
    return -W


def _fold_blocks(steps):
    """Products step[j+9] ... step[j] over consecutive runs of _QR_EVERY
    steps, the last run padded with identities: (ceil(m / _QR_EVERY), 3, 3)."""
    pad = -len(steps) % _QR_EVERY
    if pad:
        steps = np.concatenate([steps, np.broadcast_to(_I3, (pad, 3, 3))])
    runs = steps.reshape(-1, _QR_EVERY, 3, 3)
    block = runs[:, 0]
    for j in range(1, _QR_EVERY):
        block = runs[:, j] @ block
    return block


def integrate_transport(sol, path, s: float) -> FrameTransport:
    """RK4 transport of the structure-equation connection along a polyline.

    ``sol`` provides phi_at(z) and dz_phi_at(z) on arrays of chart points
    plus field k (a Wang solution); ``path`` is a sequence of complex chart
    points.  The connection is taken trace-free (the scalar e^(phi)-gauge is
    removed), so the result is unimodular; asymptotic exponents are
    unaffected.

    Each straight segment takes n equal steps.  Its 2n+1 nodes (start, middle
    and end of every step; a step's end node is the next one's start) are
    sampled in one phi_at and one dz_phi_at call.  The RK4 propagators and
    their products over runs of _QR_EVERY steps are formed as batched 3x3
    matmuls, _CHUNK_STEPS steps at a time so transient arrays stay small,
    and each run is folded into the factored transport.  A step that is not
    finite or has an entry above e^10 raises StepUnstable naming the first
    such step.
    """
    xport = FrameTransport()
    pts = [complex(z) for z in path]
    h = _step_size(s)
    for a, b in zip(pts[:-1], pts[1:]):
        seg = b - a
        if seg == 0:
            continue
        n = max(2, int(math.ceil(abs(seg) / h)))
        dz = seg * (1.0 / n)
        nodes = a + seg * (np.arange(2 * n + 1) / (2 * n))
        # a field that returns one value for all nodes still gives 2n+1
        phi = np.broadcast_to(sol.phi_at(nodes), nodes.shape)
        dz_phi = np.broadcast_to(sol.dz_phi_at(nodes), nodes.shape)
        for lo in range(0, n, _CHUNK_STEPS):
            part = slice(2 * lo, 2 * min(lo + _CHUNK_STEPS, n) + 1)
            # a non-finite field or step is reported below, not warned about
            with np.errstate(invalid="ignore", over="ignore"):
                G = _transport_generators(sol, phi[part], dz_phi[part],
                                          nodes[part], dz, s)
                # RK4 on X' = A(t) X with A sampled along the straight piece
                f1, mid, end = G[:-1:2], G[1::2], G[2::2]
                f2 = mid @ (_I3 + 0.5 * f1)
                f3 = mid @ (_I3 + 0.5 * f2)
                f4 = end @ (_I3 + f3)
                steps = _I3 + (f1 + 2 * f2 + 2 * f3 + f4) / 6.0
                bad = ~np.isfinite(steps).all(axis=(1, 2))
                bad |= np.abs(steps).max(axis=(1, 2)) > math.exp(10)
            if bad.any():
                i = lo + int(np.argmax(bad))
                raise StepUnstable(f"transport step {i + 1} of {n} at "
                                   f"z={complex(nodes[2 * i]):.6g} is not "
                                   f"finite or exceeds e^10")
            for block in _fold_blocks(steps):
                xport.push_left(block)
    return xport


# ---------------------------------------------------------------------------
# arcs and sweeps
# ---------------------------------------------------------------------------

def _polar_on_branch(z: complex, branch_angle: float):
    """(|z|, arg z) with the argument lifted to within pi of branch_angle."""
    th = cmath.phase(z)
    th += round((branch_angle - th) / (2 * math.pi)) * 2 * math.pi
    return abs(z), th


def natural_coordinate(z: complex, k: int, branch_angle: float = 0.0) -> complex:
    """w = 3/(k+3) z^((k+3)/3), the branch continuous near arg z =
    branch_angle."""
    r, th = _polar_on_branch(z, branch_angle)
    p = (k + 3) / 3.0
    return 3.0 / (k + 3) * r ** p * cmath.exp(1j * p * th)


def natural_frame_diag(z: complex, k: int, s: float,
                       branch_angle: float = 0.0) -> np.ndarray:
    """Frame change from the chart frame (1, d/dz, d/dzbar) to the natural
    frame of q_s at z: diag(1, 1/w', 1/conj(w')) with w' = s^(1/3) z^(k/3).

    Asymptotic transport formulas live in the natural frame; conjugating by
    these diagonals removes the polynomially-growing frame mismatch.
    """
    r, th = _polar_on_branch(z, branch_angle)
    wp = s ** (1.0 / 3.0) * r ** (k / 3.0) * cmath.exp(1j * th * k / 3.0)
    return np.array([1.0, 1.0 / wp, 1.0 / wp.conjugate()], dtype=complex)


def arc_unipotent_numeric(sol, k: int, s: float, theta0: float, theta1: float,
                          radius: float) -> np.ndarray:
    """G_{theta0}^(-1) G_{theta1} for the arc |z| = radius between the two
    angles, converging to the conjugated Stokes unipotent product as s grows.

    Computed as the osculation comparison N(t) = F_T(x(t0)) Psi_w F_T(x(t))^(-1):
    N' = N * F_T (omega_w - omega_T) F_T^(-1), integrated in the eigen-gauge
    with entrywise exponential scaling, so the dynamic range of the direct
    triple product (which loses all precision at desk scale) never appears.
    In the natural chart the connection keeps the structure-equation form with
    q = 1 and phi_w = phi - 2 log|w'|; for the constant differential the
    integrand vanishes identically.
    """
    n_steps = max(256, int(96 * abs(theta1 - theta0) * s ** (1 / 3)))
    S, S_inv = titeica_frame()
    U_T, V_T = titeica_structure()
    p = (k + 3) / 3.0
    rnat = s ** (1.0 / 3.0) * (3.0 / (k + 3)) * radius ** p
    omega_phases = np.array([cmath.exp(-1j * b) for b in BETA])

    # the field at the start, middle and end of every step
    h = (theta1 - theta0) / n_steps
    t = theta0 + (h / 2) * np.arange(2 * n_steps + 1)
    z = radius * np.exp(1j * t)
    wp = s ** (1.0 / 3.0) * radius ** (k / 3.0) * np.exp(1j * t * k / 3.0)
    xdot = wp * (1j * z)
    D = CBRT4 * (rnat * np.exp(1j * p * t)[:, None] * omega_phases).real
    phi_w = sol.phi_at(z) - 2.0 * np.log(np.abs(wp))
    dphi_w = (sol.dz_phi_at(z) - (k / 3.0) / z) / wp

    # RK4 on M' = M A: M advances by M P with one propagator P per step
    M = _I3
    for lo in range(0, n_steps, _CHUNK_STEPS):
        part = slice(2 * lo, 2 * min(lo + _CHUNK_STEPS, n_steps) + 1)
        U_w, V_w = structure_coefficients(phi_w[part], dphi_w[part], 1.0)
        xd = xdot[part, None, None]
        W = (U_w - U_T) * xd + (V_w - V_T) * xd.conjugate()
        Dp = D[part]
        A = (S_inv @ W @ S) * np.exp(Dp[:, :, None] - Dp[:, None, :])
        A1, A2, A4 = A[:-1:2], A[1::2], A[2::2]
        K2 = (_I3 + 0.5 * h * A1) @ A2
        K3 = (_I3 + 0.5 * h * K2) @ A2
        K4 = (_I3 + h * K3) @ A4
        steps = _I3 + (h / 6.0) * (A1 + 2 * K2 + 2 * K3 + K4)
        M = M @ _ordered_product(steps)
    return S @ M @ S_inv


def _ordered_product(P):
    """P[0] @ P[1] @ ... @ P[-1] by pairwise batched products, an odd run
    padded with the identity at its end."""
    while len(P) > 1:
        if len(P) % 2:
            P = np.concatenate([P, _I3[None]])
        P = P[0::2] @ P[1::2]
    return P[0]


def transport_weyl_exponents(sol, path, s: float):
    """s^(-1/3)-normalized sorted log singular values of the holonomy.

    The transport is expressed in the natural frame at the endpoints and
    conjugated by the Titeica eigenbasis S, which removes the
    O(log cond S)/s^(1/3) offset between singular and asymptotic exponents
    (exact for the constant differential).
    """
    xport = integrate_transport(sol, path, s)
    a, b = complex(path[0]), complex(path[-1])
    da = natural_frame_diag(a, sol.k, s, cmath.phase(a))
    db = natural_frame_diag(b, sol.k, s, cmath.phase(b))
    S, S_inv = titeica_frame()
    A = S_inv * (1.0 / db)[None, :] @ xport.Q
    B = (xport.T * da) @ S
    vals = _log_singular_values_of_factored(A, xport.logd, B)
    return np.sort(vals)[::-1] / s ** (1.0 / 3.0)


def convergence_sweep(solutions: dict, pts, period: complex, s_list):
    """Numeric-vs-tropical table over a ray sweep.

    solutions maps s to a Wang solution; pts is the chart polyline; period
    is the natural-chart period of the traced segment.  Rows:
    (s, numeric triple, tropical triple, relative gaps).
    """
    target = np.array(segment_exponents(period).weyl.as_tuple())
    scale = float(np.max(np.abs(target)))
    rows = []
    for s in s_list:
        numeric = transport_weyl_exponents(solutions[s], pts, s)
        gaps = np.abs(numeric - target) / scale
        rows.append({"s": s, "numeric": numeric, "tropical": target,
                     "gaps": gaps})
    return rows
