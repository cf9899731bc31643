"""Wang's equation on model disks.

Solves  Delta phi = 2 e^phi - 4 e^(-2 phi) |q_s|^2,  q_s = s z^k dz^3,
on |z| <= R with Dirichlet data phi = (1/3) log(2 s^2 R^(2k)), by Newton
on a radial finite-difference grid.  |q_s|^2 = s^2 r^(2k) and the
boundary data are constant, so the solution is radial and the equation is an
ODE in r, with a center node for r = 0 and a tridiagonal Newton system.

The unknown is F = phi - flat, flat = (1/3) log(2 s^2 r^(2k)) the singular
flat solution, so the exponentially small F far from the zero is never a
difference of O(1) numbers; F = 0 on the Dirichlet ring.  The radial grid is
geometric (default ratio 1.05), and on it the discrete radial Laplacian
annihilates log r exactly: L flat vanishes on every ring but the first,
whose inner neighbor, the center, takes ring 1's flat value, so the one
source is c_p (flat(r_2) - flat(r_1)) on ring 1.  The nonlinearity is
a expm1(F) - b expm1(-2F) + (a - b), a = 2 e^flat, b = a on the rings and 0
at a zero's center.  The discrete solution inherits the strict lower bound
F > 0, e^phi > 2^(1/3) |q_s|^(2/3), down to rounding noise.

Newton starts at the flat metric outside the natural unit disk |w| < 1 of
the zero, r >= r_1 = |z(w = 1)|, and holds flat(r_1) inside it: F_0 =
max(flat(min(r_1, R)) - flat(r), 0).  Away from the zero the Blaschke metric
is exponentially close to the flat one (Dumas & Wolf, GAFA 25, 2015), so
only the core is left to converge, and far-field F grows from 0 instead of
being cancelled down from an O(1) start.  The start need not bound the
solution: the residual is concave in F, so every full Newton step lands on
a supersolution, and the Jacobians are M-matrices up to sign, so from there
full steps decrease onto the solution (Ortega & Rheinboldt 1970, ch. 13).
The converged F is still checked against the constant Dirichlet value
flat(R) - flat(r), a supersolution.

CubicDifferential owns q_s and its closed forms; a WangSolution carries the
one it solves.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridTooCoarse, NewtonDiverged

_FLAG_TOL = 1e-13  # nodes this close to the strict bound are flagged, not failed
_NEWTON_MAX_ITER = 80
_NEWTON_TOL = 1e-12                  # row-scaled residual at convergence
_BRACKET_TOL = 1e-8                  # converged F's slack past 0 <= F <= upper
_FIT_INNER, _FIT_OUTER = 0.35, 0.8   # decay-fit annulus, in units of R
_FIT_FLOOR = 1e-11                   # F below this is rounding noise
_MAX_RINGS = 500_000                 # ~330 B each: decay-fit s <= 1.7e12


@dataclass(frozen=True)
class GridSpec:
    nr: int = 200
    ratio: float = 1.05


def _exp(x):
    return cmath.exp(x) if isinstance(x, complex) else np.exp(x)


@dataclass(frozen=True)
class CubicDifferential:
    """q_s = s z^k dz^3 and its closed forms, each written once: |q_s|^2,
    the flat part (1/3) log(2 |q_s|^2) at log r and its d/dz, the cube root
    w' = s^(1/3) z^(k/3) and its modulus, the natural coordinate w = int w'
    dz, its modulus and argument, and its inverse on a continued sheet.
    Points are polar (r, theta) on the caller's branch (on_branch lifts arg
    z near one), as Python scalars (e^x by cmath) or numpy arrays, which
    round differently; each form has one operation order."""

    k: int
    s: float = 1.0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("zero order must be >= 0")
        if not 0 < self.s < math.inf:
            raise ValueError(f"need a finite s > 0, got {self.s!r}")

    def abs2(self, r):
        return self.s ** 2 * r ** (2 * self.k)

    def flat(self, log_r):
        return (math.log(2.0) + 2.0 * math.log(self.s)
                + 2.0 * self.k * log_r) / 3.0

    def dz_flat(self, z):
        return self.k / (3.0 * z)

    def cube_root(self, r, theta):
        return self.root_modulus(r) * _exp(1j * theta * self.k / 3.0)

    def root_modulus(self, r):
        return self.s ** (1.0 / 3.0) * r ** (self.k / 3.0)

    def natural_radius(self, r):
        return (self.s ** (1.0 / 3.0) * (3.0 / (self.k + 3))
                * r ** ((self.k + 3) / 3.0))

    def natural_angle(self, theta):
        return (self.k + 3) / 3.0 * theta

    def natural(self, r, theta):
        return self.natural_radius(r) * _exp(1j * self.natural_angle(theta))

    def chart_point(self, w: complex, sheet: int = 0) -> complex:
        p = 3.0 / (self.k + 3)
        z = (w * (self.k + 3) / 3.0 / self.s ** (1.0 / 3.0)) ** p
        return z * cmath.exp(2j * math.pi * sheet * p) if sheet else z

    @staticmethod
    def on_branch(z: complex, branch: float):
        th = cmath.phase(z)
        return abs(z), th + round((branch - th) / (2 * math.pi)) * 2 * math.pi


class WangSolution:
    """Discrete conformal factor of the Blaschke metric on a model disk, as a
    radial profile."""

    # the profile's one angular column
    thetas = np.zeros(1)
    thetas.flags.writeable = False

    def __init__(self, q, R, rs, F_center, F, residual_history,
                 residual_nodes):
        self.q = q                  # the CubicDifferential solved for
        self.R = R
        self.rs = rs                # radial nodes, rs[0] > 0, rs[-1] = R
        self.F = F                  # phi - flat at rs, read-only; F[-1] = 0
        F.flags.writeable = False
        # phi = flat + F, derived once; the center takes ring 1's flat part
        self.phi = q.flat(self._log_rs) + F
        self.phi_center = q.flat(self._log_rs[0]) + F_center
        # d phi / d(r^2) inside the first ring, where phi blends in r^2
        self._center_slope = (F[0] - F_center) / rs[0] ** 2
        self.residual_history = list(residual_history)
        self.residual_nodes = residual_nodes    # row-scaled, at rs

    # -- interpolation --------------------------------------------------------
    #
    # phi is read as flat + F with flat = (1/3) log(2 s^2 r^(2k)) handled
    # analytically: interpolating or differencing the log part numerically
    # would leave O(h^2) residues that dwarf the exponentially small F far
    # from the zero.  The stored F and dF/dr are linear in log r between
    # rings (one np.interp against the cached log rs), and radii past the rim
    # clamp to the rim ring.  Inside the first ring phi blends from phi_center
    # to phi[0] in r^2.  phi_at and dz_phi_at map an array of chart points to
    # an array of the same shape; radial_profile reads F and dF/dr alone.

    @cached_property
    def _dF(self):
        """dF/dr on the grid by finite differences."""
        rs, F = self.rs, self.F
        dr = np.empty_like(F)
        dr[1:-1] = (F[2:] - F[:-2]) / (rs[2:] - rs[:-2])
        dr[0] = (F[1] - F[0]) / (rs[1] - rs[0])
        dr[-1] = (F[-1] - F[-2]) / (rs[-1] - rs[-2])
        return dr

    @cached_property
    def _log_rs(self):
        return np.log(self.rs)

    def _log_radius(self, z):
        """(|z|, log max(|z|, rs[0]))."""
        r = np.abs(z)
        return r, np.log(np.maximum(r, self.rs[0]))

    def _blend(self, r):
        """phi inside the first ring."""
        w = np.square(r / self.rs[0])
        return (1 - w) * self.phi_center + w * self.phi[0]

    def phi_at(self, z):
        r, log_r = self._log_radius(z)
        ring = self.q.flat(log_r) + np.interp(log_r, self._log_rs, self.F)
        return np.where(r <= self.rs[0], self._blend(r), ring)

    def dz_phi_at(self, z):
        z = np.asarray(z, dtype=complex)
        r, log_r = self._log_radius(z)
        with np.errstate(divide="ignore", invalid="ignore"):  # z = 0 blends
            c = np.interp(log_r, self._log_rs, self._dF) / (2.0 * r)
            ring = self.q.dz_flat(z) + c * z.conj()    # e^(-i arg z) = zbar/r
        return np.where(r <= self.rs[0], self._center_slope * z.conj(), ring)

    def radial_profile(self, r):
        """(F, dF/dr) at radii r > 0 as the samplers read them: phi_at(r) -
        flat(log r) and 2 Re(dz_phi_at(r) - dz_flat(r))."""
        r, log_r = self._log_radius(r)
        F = np.interp(log_r, self._log_rs, self.F)
        dF = np.interp(log_r, self._log_rs, self._dF)
        inner, slope = r <= self.rs[0], self._center_slope
        return (np.where(inner, self._blend(r) - self.q.flat(np.log(r)), F),
                np.where(inner, 2.0 * (slope * r - self.q.dz_flat(r)), dF))


def _radial_nodes(R: float, nr: int, ratio: float):
    expo = np.arange(nr - 1, -1, -1, dtype=float)
    return R * ratio ** (-expo)


def _radial_operator(rs):
    """Radial Laplacian on [center, ring 1, ..., ring n-1] as three rows
    aligned with the unknowns: row 0 the sub-, row 1 the main, row 2 the
    super-diagonal (entry (i, i-1) at band[0, i], (i, i+1) at band[2, i];
    band[0, 0] = 0).  Ring i sits at rs[i-1]; band[2, -1] weighs ring n
    (rs[-1], the Dirichlet boundary, where F = 0), which no product or solve
    reads.
    """
    r = rs[:-1]
    hm = r - np.concatenate([[0.0], rs[:-2]])   # ring 1's inner neighbor is the center
    hp = rs[1:] - r
    c_m = 2.0 / (hm * (hm + hp)) - 1.0 / (r * (hm + hp))
    c_p = 2.0 / (hp * (hm + hp)) + 1.0 / (r * (hm + hp))
    c_0 = -2.0 / (hm * hp)
    # center: Delta phi(0) ~ 4 (ring1 - center) / r1^2
    c_center = 4.0 / rs[0] ** 2
    band = np.zeros((3, len(rs)))
    band[0, 1:] = c_m
    band[1, 0] = -c_center
    band[1, 1:] = c_0
    band[2, 0] = c_center
    band[2, 1:] = c_p
    return band


def _apply_band(band, u):
    """band @ u, summed in stencil order c_m u[i-1] + c_0 u[i] + c_p u[i+1]."""
    out = band[1] * u
    out[1:] += band[0, 1:] * u[:-1]
    out[:-1] += band[2, :-1] * u[1:]
    return out


def _solve_tridiagonal(band, rhs):
    """Solve band @ x = rhs, band in the aligned rows of _radial_operator,
    by Thomas elimination without pivoting.  The Newton Jacobians are
    strictly diagonally dominant (c_m + c_p = -c_0, and the nonlinear term
    only deepens the diagonal), so no pivot is needed."""
    w, y = [], []           # eliminated super-diagonal and right-hand side
    w_i = y_i = 0.0
    for a, b, c, r in zip(*band.tolist(), rhs.tolist()):
        pivot = b - a * w_i
        w_i, y_i = c / pivot, (r - a * y_i) / pivot
        w.append(w_i)
        y.append(y_i)
    x = [y_i]
    for w_i, y_i in zip(w[-2::-1], y[-2::-1]):
        x.append(y_i - w_i * x[-1])
    return np.array(x[::-1])


def solve_disk(k: int, s: float, R: float,
               grid: GridSpec = None) -> WangSolution:
    """Newton solve of the discrete Wang equation for F = phi - flat on the
    model disk, on ``grid`` (by default decay_fit_grid(s)).

    Full steps from the flat metric outside |w| < 1 and its value at |w| =
    1 inside (the constant Dirichlet value when |w(R)| <= 1); a step that
    raises the row-scaled residual, or _NEWTON_MAX_ITER steps, ends in
    NewtonDiverged (GridTooCoarse from under its rounding floor).  The
    converged F must lie between 0 (the flat subsolution) on the rings and
    the constant Dirichlet value (a supersolution).  A degenerate grid, one
    over _MAX_RINGS rings, or a disk whose stencil, |q_s|^2 or start
    residual overflows is a ValueError.
    """
    q = CubicDifferential(k, s)
    if not 0 < R < math.inf:
        raise ValueError(f"need a finite R > 0, got {R!r}")
    grid = grid or decay_fit_grid(s)
    nr, ratio = grid.nr, grid.ratio
    if nr < 2 or not ratio > 1.0:
        raise ValueError(f"grid for s={s:g} needs nr >= 2 and ratio > 1, "
                         f"got nr={nr}, ratio={ratio:g}")
    if nr > _MAX_RINGS:
        raise ValueError(f"grid for s={s:g} has {nr} rings, over the "
                         f"budget of {_MAX_RINGS}")

    def residual(F):
        # (a - b) is 0 on the rings; adding a before b would absorb a expm1(F)
        return _apply_band(L, F) + source - (
            a * np.expm1(F) - b * np.expm1(-2 * F) + (a - b))

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            rs = _radial_nodes(R, nr, ratio)
            L = _radial_operator(rs)
            q.abs2(R)    # |q_s|^2 in float range: it is largest at the rim
            flat = q.flat(np.log(rs))
            # flat part at the unknowns: the center takes ring 1's
            offset = np.append(flat[0], flat[:-1])
            source = np.zeros(nr)
            source[1] = L[2, 1] * (flat[1] - flat[0])
            a = 2 * np.exp(offset)
            b = a.copy()             # 4 e^(-2 flat) |q_s|^2 = 2 e^flat
            if k:
                b[0] = 0.0           # |q_s|^2 = 0 at a zero
            upper = flat[-1] - offset      # the constant Dirichlet value
            # the flat metric outside |w| < 1, held constant inside it
            r1 = min(abs(q.chart_point(1.0)), R)
            F = np.maximum(q.flat(math.log(r1)) - offset, 0.0)
            res = residual(F)
    except (FloatingPointError, OverflowError) as err:
        raise ValueError(f"s={s:g}, R={R:g}: the stencil, |q_s|^2 or the "
                         f"start residual overflows") from err

    # measure the residual row-scaled: inner rings carry 1/h^2 stencil weights
    # around 1e11, so the raw residual has a cancellation floor far above the
    # tolerance; positive row scaling changes neither the solution nor Newton
    # directions
    row_scale = 1.0 / (1.0 + np.abs(L[1]))

    def norm(res):
        return float(np.max(np.abs(res * row_scale)))

    history = [norm(res)]
    for _ in range(_NEWTON_MAX_ITER):
        if history[-1] <= _NEWTON_TOL:
            break
        J = L.copy()
        J[1] -= a * np.exp(F) + 2 * b * np.exp(-2 * F)
        F = F + _solve_tridiagonal(J, -res)
        res = residual(F)
        history.append(norm(res))
        if history[-1] > history[-2]:
            floor = np.finfo(float).eps * norm(
                _apply_band(np.abs(L), np.abs(F)) + np.abs(source) + a - b
                + a * np.abs(np.expm1(F)) + b * np.abs(np.expm1(-2 * F)))
            if history[-2] <= floor:
                raise GridTooCoarse(f"Newton residual {history[-2]:.3g} is "
                                    f"under its rounding floor {floor:.3g}")
            raise NewtonDiverged("residual increased", history)
    else:
        raise NewtonDiverged("Newton did not reach tolerance", history)
    # sub/supersolution enclosure of the converged F; iterates may leave it
    if max(np.max(F - upper), np.max(-F[1:])) > _BRACKET_TOL:
        raise GridTooCoarse("converged F left the sub/supersolution bracket")

    return WangSolution(q, R, rs, F[0], np.append(F[1:], 0.0), history,
                        np.append((res * row_scale)[1:], 0.0))


def pointwise_lower_bound_check(sol: WangSolution) -> bool:
    """Strict bound e^phi > 2^(1/3) |q_s|^(2/3) at every node.

    Equivalently F = phi - (1/3) log(2 |q_s|^2) > 0.  Nodes within 1e-13 of
    equality are flagged (counted on sol.lower_bound_flagged) and pass.
    """
    F = sol.F[:-1]
    sol.lower_bound_flagged = int(np.sum(np.abs(F) <= _FLAG_TOL))
    return bool(np.all(F > -_FLAG_TOL))


def error_field(sol: WangSolution) -> float:
    """The fitted exponent m_hat of log F ~ -m_hat * natural radius.

    F behaves like a screened-Laplacian kernel, exp(-m rho)/sqrt(rho) in the
    natural radius rho of z^k dz^3 (s = 1), so the regression fits
    log(F sqrt(rho)) against rho; the plain log fit would carry a 1/(2 rho)
    bias of several percent at desk scale.  The annulus [0.35 R, 0.8 R]
    keeps clear of both the nonlinear core and the Dirichlet truncation at
    the rim; nodes below the noise floor are dropped.
    """
    F, rs = sol.F[:-1], sol.rs[:-1]
    mask = ((rs >= _FIT_INNER * sol.R) & (rs <= _FIT_OUTER * sol.R)
            & (F > _FIT_FLOOR))
    if int(mask.sum()) < 4:
        # widen inward until enough clean points are available
        mask = (rs <= _FIT_OUTER * sol.R) & (F > _FIT_FLOOR)
        order = np.argsort(rs[mask])
        keep = np.where(mask)[0][order][-12:]
        mask = np.zeros_like(mask)
        mask[keep] = True
    x = CubicDifferential(sol.q.k).natural_radius(rs[mask])
    y = np.log(F[mask]) + 0.5 * np.log(x)
    slope, _ = np.polyfit(x, y, 1)
    return float(-slope)


def decay_fit_grid(s: float) -> GridSpec:
    """Grid whose radial spacing tracks the O(s^(-1/3)) decay length.

    The ratio matches the default 1.05 at the base scale s = 100 and refines
    with s so the fitted exponent stays dispersion-free across a sweep.
    """
    ratio = 1.0 + 0.22 * s ** (-1.0 / 3.0)
    # past s ~ 1e46 the ratio rounds to 1: no rings, which solve_disk refuses
    nr = int(math.ceil(math.log(1e4) / math.log(ratio))) if ratio > 1 else 0
    return GridSpec(nr=nr, ratio=ratio)
