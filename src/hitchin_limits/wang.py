"""Wang's equation on model disks.

Solves  Delta phi = 2 e^phi - 4 e^(-2 phi) |q_s|^2,  q_s = s z^k dz^3,
on |z| <= R with Dirichlet data phi = (1/3) log(2 s^2 R^(2k)), by damped
Newton on a polar finite-difference grid.

The radial grid is geometric (default ratio 1.05).  On such a grid the
discrete polar Laplacian annihilates log r exactly, so the singular flat
solution phi_flat = (1/3) log(2 s^2 r^(2k)) lies in the kernel of the scheme
and the discrete solution inherits the strict lower bound
e^phi > 2^(1/3) |q_s|^(2/3) down to rounding noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import GridTooCoarse, NewtonDiverged

_FLAG_TOL = 1e-13  # nodes this close to the strict bound are flagged, not failed
_NEWTON_MAX_ITER = 80
_FIT_INNER, _FIT_OUTER = 0.35, 0.8   # decay-fit annulus, in units of R
_FIT_FLOOR = 1e-11                   # F below this is rounding noise


@dataclass(frozen=True)
class GridSpec:
    nr: int = 200
    ntheta: int = 0          # 0 -> 10 * (k + 3)
    ratio: float = 1.05

    def resolve(self, k: int):
        m = self.ntheta if self.ntheta > 0 else 10 * (k + 3)
        return self.nr, m, self.ratio


def _bilinear(grid, cell):
    i, t, j0, j1, wj = cell
    v0 = grid[i, j0] * (1 - wj) + grid[i, j1] * wj
    if t is None:
        return v0
    v1 = grid[i + 1, j0] * (1 - wj) + grid[i + 1, j1] * wj
    return v0 * (1 - t) + v1 * t


class WangSolution:
    """Discrete conformal factor of the Blaschke metric on a model disk."""

    def __init__(self, k, s, R, rs, thetas, phi_center, phi, residual_norm,
                 residual_history):
        self.k = k
        self.s = s
        self.R = R
        self.rs = rs                # radial nodes, rs[0] > 0, rs[-1] = R
        self.thetas = thetas
        self.phi_center = phi_center
        self.phi = phi              # shape (len(rs), len(thetas))
        self.residual_norm = residual_norm
        self.residual_history = list(residual_history)

    # -- analytic references ------------------------------------------------

    def flat_log(self, r):
        """(1/3) log(2 |q_s|^2) at radius r (the strict lower bound for phi)."""
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return (math.log(2.0) + 2.0 * math.log(self.s)
                    + 2.0 * self.k * np.log(r)) / 3.0

    # -- interpolation --------------------------------------------------------
    #
    # phi is split as flat + F with flat = (1/3) log(2 s^2 r^(2k)) handled
    # analytically: interpolating or differencing the log part numerically
    # would leave O(h^2) residues that dwarf the exponentially small F far
    # from the zero (and get amplified by e^(Delta D) in arc comparisons).

    @cached_property
    def _F(self):
        return self.phi - self.flat_log(self.rs)[:, None]

    @cached_property
    def _F_gradients(self):
        """(dF/dr, dF/dtheta) on the grid by finite differences."""
        rs, F = self.rs, self._F
        dr = np.empty_like(F)
        dr[1:-1] = ((F[2:] - F[:-2]).T / (rs[2:] - rs[:-2])).T
        dr[0] = (F[1] - F[0]) / (rs[1] - rs[0])
        dr[-1] = (F[-1] - F[-2]) / (rs[-1] - rs[-2])
        dth = np.empty_like(F)
        hth = self.thetas[1] - self.thetas[0]
        dth[:] = (np.roll(F, -1, axis=1) - np.roll(F, 1, axis=1)) / (2 * hth)
        return dr, dth

    def _cell(self, r, theta):
        """Bilinear cell (i, t, j0, j1, wj) of (r, theta) in (log r, theta).
        Radii outside the rings clamp to the nearest ring (t = None); the
        blend toward the center value inside it is phi_at's job."""
        rs, thetas = self.rs, self.thetas
        m = len(thetas)
        hth = thetas[1] - thetas[0]
        th = theta % (2 * math.pi)
        jf = th / hth
        j0 = int(jf) % m
        j1 = (j0 + 1) % m
        wj = jf - int(jf)
        if r <= rs[0]:
            return 0, None, j0, j1, wj
        if r >= rs[-1]:
            return len(rs) - 1, None, j0, j1, wj
        i = int(np.searchsorted(rs, r)) - 1
        i = max(0, min(i, len(rs) - 2))
        t = (math.log(r) - math.log(rs[i])) / (math.log(rs[i + 1]) - math.log(rs[i]))
        return i, t, j0, j1, wj

    def phi_at(self, z) -> float:
        z = complex(z)
        r = abs(z)
        cell = self._cell(r, np.angle(z))
        if r <= self.rs[0]:
            w = (r / self.rs[0]) ** 2
            ring = _bilinear(self.phi, cell)
            return (1 - w) * self.phi_center + w * ring
        return float(self.flat_log(r)) + _bilinear(self._F, cell)

    def dz_phi_at(self, z) -> complex:
        z = complex(z)
        r, th = abs(z), np.angle(z)
        if r <= self.rs[0]:
            r = self.rs[0]
        cell = self._cell(r, th)
        grad_r, grad_th = self._F_gradients
        dr = _bilinear(grad_r, cell)
        dth = _bilinear(grad_th, cell)
        return self.k / (3.0 * z) + 0.5 * np.exp(-1j * th) * (dr - 1j * dth / r)


def _radial_nodes(R: float, nr: int, ratio: float):
    expo = np.arange(nr - 1, -1, -1, dtype=float)
    return R * ratio ** (-expo)


def _assemble_laplacian(rs, m):
    """Sparse polar Laplacian on rings x angles plus a center node.

    Unknown order: [center, ring1 angles..., ring2 angles, ...] for rings
    1..n-1 (ring n = boundary is eliminated into the rhs).
    """
    n = len(rs)
    hth = 2 * math.pi / m
    n_unknown = 1 + (n - 1) * m
    A = sp.lil_matrix((n_unknown, n_unknown))
    rhs_bound = np.zeros(n_unknown)  # coefficient multiplying phi_boundary

    def idx(i, j):
        return 1 + (i - 1) * m + (j % m)

    # center: Delta phi(0) ~ 4 (<ring1> - center) / r1^2
    r1 = rs[0]
    A[0, 0] = -4.0 / r1 ** 2
    for j in range(m):
        A[0, idx(1, j)] = 4.0 / (m * r1 ** 2)
    for i in range(1, n):
        # ring i sits at radius rs[i-1]; neighbors at rs[i-2] (or the center)
        # and rs[i] (ring i+1, or the Dirichlet boundary when i = n-1)
        r = rs[i - 1]
        hm = rs[i - 1] - (0.0 if i == 1 else rs[i - 2])
        hp = rs[i] - rs[i - 1]
        c_m = 2.0 / (hm * (hm + hp)) - 1.0 / (r * (hm + hp))
        c_p = 2.0 / (hp * (hm + hp)) + 1.0 / (r * (hm + hp))
        c_0 = -2.0 / (hm * hp)
        if c_m <= 0:
            raise GridTooCoarse("radial stencil loses the maximum principle")
        c_th = 1.0 / (r ** 2 * hth ** 2)
        for j in range(m):
            row = idx(i, j)
            A[row, row] = c_0 - 2.0 * c_th
            A[row, idx(i, j - 1)] = c_th
            A[row, idx(i, j + 1)] = c_th
            if i == 1:
                A[row, 0] = c_m
            else:
                A[row, idx(i - 1, j)] = c_m
            if i < n - 1:
                A[row, idx(i + 1, j)] = c_p
            elif i == n - 1:
                rhs_bound[row] = c_p
    return sp.csr_matrix(A), rhs_bound


def solve_disk(k: int, s: float, R: float, grid: GridSpec = None,
               tol: float = 1e-10) -> WangSolution:
    """Damped-Newton solve of the discrete Wang equation on the model disk.

    Starts from the constant Dirichlet value (a supersolution); iterates are
    checked to stay between the flat subsolution and the start value.
    """
    if k < 0 or s <= 0 or R <= 0:
        raise ValueError("need k >= 0, s > 0, R > 0")
    grid = grid or GridSpec()
    nr, m, ratio = grid.resolve(k)
    if nr < 2 or m < 3 or not ratio > 1.0:
        raise ValueError(f"grid needs nr >= 2, ntheta >= 3 and ratio > 1, "
                         f"got nr={nr}, ntheta={m}, ratio={ratio:g}")
    rs = _radial_nodes(R, nr, ratio)
    thetas = np.arange(m) * (2 * math.pi / m)
    L, rhs_bound = _assemble_laplacian(rs, m)
    n_unknown = 1 + (nr - 1) * m

    phi_boundary = (math.log(2.0) + 2 * math.log(s) + 2 * k * math.log(R)) / 3.0
    # |q_s|^2 at the unknowns
    radii = np.concatenate([[0.0], np.repeat(rs[:-1], m)])
    q2 = s ** 2 * radii ** (2 * k) if k > 0 else np.full(n_unknown, s ** 2)
    if k > 0:
        q2[0] = 0.0

    with np.errstate(divide="ignore"):
        flat = (math.log(2.0) + 2 * math.log(s)
                + 2 * k * np.log(np.maximum(radii, 1e-300))) / 3.0
    flat[0] = -math.inf if k > 0 else flat[0]

    # measure the residual row-scaled: inner rings carry 1/h^2 stencil weights
    # around 1e11, so the raw residual has a cancellation floor far above tol;
    # positive row scaling changes neither the solution nor Newton directions
    row_scale = 1.0 / (1.0 + np.abs(L.diagonal()))

    def residual(u):
        return L @ u + rhs_bound * phi_boundary - (2 * np.exp(u)
                                                   - 4 * np.exp(-2 * u) * q2)

    def norm(res):
        return float(np.max(np.abs(res * row_scale)))

    u = np.full(n_unknown, phi_boundary)
    start = u.copy()
    res = residual(u)
    history = [norm(res)]
    for _ in range(_NEWTON_MAX_ITER):
        if history[-1] <= tol:
            break
        dN = 2 * np.exp(u) + 8 * np.exp(-2 * u) * q2
        J = L - sp.diags(dN)
        delta = spla.spsolve(J.tocsc(), -res)
        lam = 1.0
        for _ in range(40):
            trial = u + lam * delta
            res_trial = residual(trial)
            if norm(res_trial) < (1 - 0.25 * lam) * history[-1]:
                break
            lam *= 0.5
        else:
            raise NewtonDiverged("line search failed", history)
        u, res = trial, res_trial
        history.append(norm(res))
        if history[-1] > history[-2]:
            raise NewtonDiverged("residual increased", history)
        # sub/supersolution enclosure: transient excursions are bounded by
        # the residual; the converged iterate must sit inside the bracket
        with np.errstate(invalid="ignore"):
            violation = max(float(np.max(u - start)),
                            float(np.nanmax(np.where(np.isfinite(flat),
                                                     flat - u, -np.inf))))
        if violation > max(1e-8, 1e3 * history[-1]):
            raise GridTooCoarse("Newton iterate left the sub/supersolution bracket")
    else:
        raise NewtonDiverged("Newton did not reach tolerance", history)

    phi_center = u[0]
    rings = u[1:].reshape(nr - 1, m)
    phi = np.vstack([rings, np.full((1, m), phi_boundary)])
    sol = WangSolution(k, s, R, rs, thetas, phi_center, phi,
                       residual_norm=history[-1], residual_history=history)
    scaled = res * row_scale
    sol.residual_nodes = np.vstack([scaled[1:].reshape(nr - 1, m),
                                    np.zeros((1, m))])
    return sol


def pointwise_lower_bound_check(sol: WangSolution) -> bool:
    """Strict bound e^phi > 2^(1/3) |q_s|^(2/3) at every node.

    Equivalently F = phi - (1/3) log(2 |q_s|^2) > 0.  Nodes within 1e-13 of
    equality are flagged (counted on sol.lower_bound_flagged) and pass.
    """
    F = error_values(sol)
    sol.lower_bound_flagged = int(np.sum(np.abs(F) <= _FLAG_TOL))
    return bool(np.all(F > -_FLAG_TOL))


def error_values(sol: WangSolution):
    """F on the interior rings (boundary ring excluded: F = 0 there by the
    Dirichlet choice; center excluded: F diverges at a zero)."""
    interior = sol.phi[:-1]
    flat = sol.flat_log(sol.rs[:-1])
    return interior - flat[:, None]


@dataclass(frozen=True)
class ErrorField:
    rs: np.ndarray
    F: np.ndarray                 # ring-averaged F values
    fitted_exponent: float        # m_hat from log F ~ -m_hat * natural radius
    points_used: int = 0


def natural_radius(r, k):
    """|q0|^(2/3)-distance from the zero: 3/(k+3) r^((k+3)/3)."""
    r = np.asarray(r, dtype=float)
    return 3.0 / (k + 3) * r ** ((k + 3) / 3.0)


def error_field(sol: WangSolution) -> ErrorField:
    """F on the rings plus the fitted radial decay exponent.

    F behaves like a screened-Laplacian kernel, exp(-m rho)/sqrt(rho) in the
    natural radius rho, so the regression fits log(F sqrt(rho)) against rho;
    the plain log fit would carry a 1/(2 rho) bias of several percent at desk
    scale.  The annulus [0.35 R, 0.8 R] keeps clear of both the nonlinear
    core and the Dirichlet truncation at the rim; nodes below the noise floor
    are dropped.
    """
    F = error_values(sol)
    Fbar = F.mean(axis=1)
    rs = sol.rs[:-1]
    mask = ((rs >= _FIT_INNER * sol.R) & (rs <= _FIT_OUTER * sol.R)
            & (Fbar > _FIT_FLOOR))
    if int(mask.sum()) < 4:
        # widen inward until enough clean points are available
        mask = (rs <= _FIT_OUTER * sol.R) & (Fbar > _FIT_FLOOR)
        order = np.argsort(rs[mask])
        keep = np.where(mask)[0][order][-12:]
        mask = np.zeros_like(mask)
        mask[keep] = True
    x = natural_radius(rs[mask], sol.k)
    y = np.log(Fbar[mask]) + 0.5 * np.log(x)
    slope, _ = np.polyfit(x, y, 1)
    return ErrorField(rs=rs, F=Fbar, fitted_exponent=float(-slope),
                      points_used=int(mask.sum()))


def decay_fit_grid(s: float, ntheta: int = 0) -> GridSpec:
    """Grid whose radial spacing tracks the O(s^(-1/3)) decay length.

    The ratio matches the default 1.05 at the base scale s = 100 and refines
    with s so the fitted exponent stays dispersion-free across a sweep.
    """
    ratio = 1.0 + 0.22 * s ** (-1.0 / 3.0)
    nr = int(math.ceil(math.log(1e4) / math.log(ratio)))
    return GridSpec(nr=nr, ntheta=ntheta, ratio=ratio)
