import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hitchin_limits import wang
from hitchin_limits.errors import GridTooCoarse, NewtonDiverged


@pytest.fixture(scope="module")
def sol_k1_s100():
    return wang.solve_disk(1, 100.0, 1.0)


def test_k0_exact_constant():
    s = 37.0
    sol = wang.solve_disk(0, s, 1.0, wang.GridSpec(nr=40))
    want = math.log(2 * s * s) / 3.0
    assert abs(sol.phi_center - want) < 1e-12
    assert np.max(np.abs(sol.phi - want)) < 1e-12
    assert sol.residual_history[-1] <= 1e-10


def test_residual_monotone(sol_k1_s100):
    h = sol_k1_s100.residual_history
    assert all(b <= a for a, b in zip(h, h[1:]))
    assert h[-1] <= 1e-10


def test_lower_bound_holds(sol_k1_s100):
    assert wang.pointwise_lower_bound_check(sol_k1_s100)


def test_lower_bound_boundary_case_k0():
    sol = wang.solve_disk(0, 10.0, 1.0, wang.GridSpec(nr=40))
    assert wang.pointwise_lower_bound_check(sol)
    assert sol.lower_bound_flagged > 0  # the flat case sits on the bound


def _corrupted(sol, rings, by):
    """sol with F lowered by ``by`` on ``rings``."""
    F = sol.F.copy()
    F[rings] -= by
    F_center = sol.phi_center - sol.q.flat(math.log(sol.rs[0]))
    return wang.WangSolution(sol.q, sol.R, sol.rs, F_center, F,
                             sol.residual_history, sol.residual_nodes)


def test_lower_bound_detects_corruption(sol_k1_s100):
    # near a zero the bound has slack, so corrupt where F is small (the outer
    # annulus); also check the k=0 case, where any decrease breaks the bound
    bad = _corrupted(sol_k1_s100, slice(-40, -1), 0.1)
    assert not wang.pointwise_lower_bound_check(bad)

    flat = wang.solve_disk(0, 10.0, 1.0, wang.GridSpec(nr=40))
    assert not wang.pointwise_lower_bound_check(
        _corrupted(flat, slice(5, 20), 0.1))


def test_stored_F_is_read_only(sol_k1_s100):
    with pytest.raises(ValueError, match="read-only"):
        sol_k1_s100.F[0] = 0.0


def test_error_field_bound_lemma(sol_k1_s100):
    # F at |z| = 0.5 bounded by s^(1/6) e^(-m) with m = sqrt(3) 2^(2/3) a s^(1/3) r0/delta,
    # delta = 1.1, a = 0.9
    sol = sol_k1_s100
    i = int(np.argmin(np.abs(sol.rs - 0.5)))
    F_half = sol.F[i]
    r0 = wang.CubicDifferential(1).natural_radius(0.5)
    m = math.sqrt(3) * 2 ** (2 / 3) * 0.9 * 100 ** (1 / 3) * r0 / 1.1
    assert 0 < F_half < 100 ** (1 / 6) * math.exp(-m)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 60))
def test_solve_tridiagonal_matches_dense(data, n):
    # Thomas elimination without pivoting agrees with a pivoted dense solve
    # on strictly diagonally dominant systems, the class of every Newton
    # Jacobian
    def vector(size, lo, hi):
        return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=size,
                                           max_size=size)))

    sub, sup = vector(n - 1, -10.0, 10.0), vector(n - 1, -10.0, 10.0)
    slack, rhs = vector(n, 1e-2, 10.0), vector(n, -10.0, 10.0)
    sign = data.draw(st.sampled_from([-1.0, 1.0]))
    main = sign * (np.abs(np.append(sub, 0.0)) + np.abs(np.append(0.0, sup))
                   + slack)
    dense = np.diag(main) + np.diag(sup, 1) + np.diag(sub, -1)
    want = np.linalg.solve(dense, rhs)
    # the rows aligned with the unknowns: no entry left of row 0 or right of
    # row n - 1
    got = wang._solve_tridiagonal([0.0, *sub], main, [*sup, 0.0], rhs)
    assert np.max(np.abs(got - want)) <= 1e-10 * (1 + np.max(np.abs(want)))


def test_solve_tridiagonal_on_wang_jacobian():
    # the Newton Jacobian at the converged k=1, s=1e4 solution on the
    # s-adapted grid, whose inner rows carry ~1e11 stencil weights: the
    # radial operator less a e^F + 2 b e^(-2F), a = 2 e^flat at the unknowns
    # (the center takes ring 1's flat part), b = a but 0 at the zero
    s = 1e4
    grid = wang.decay_fit_grid(s)
    sol = wang.solve_disk(1, s, 1.0, grid)
    assert len(sol.rs) == 907
    J = wang._radial_operator(sol.rs)
    flat = sol.q.flat(np.log(sol.rs))
    F = np.append(sol.phi_center - flat[0], sol.F[:-1])
    a = 2 * np.exp(np.append(flat[0], flat[:-1]))
    b = np.append(0.0, a[1:])
    J[1] -= a * np.exp(F) + 2 * b * np.exp(-2 * F)
    dense = np.diag(J[1]) + np.diag(J[2, :-1], 1) + np.diag(J[0, 1:], -1)
    rhs = np.random.default_rng(0).normal(size=len(F))
    want = np.linalg.solve(dense, rhs)
    got = wang._solve_tridiagonal(J[0].tolist(), J[1], J[2].tolist(), rhs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("s", [1e-300, 3e8, 1e9, 1e10])
def test_k0_start_is_the_solution_at_any_scale(s):
    # F = 0 is the start and the exact discrete solution; the phi form
    # raised NewtonDiverged("line search failed") here from s = 3e8 on, and
    # refused s = 1e-300, whose e^(-2 phi) overflowed in the start residual
    sol = wang.solve_disk(0, s, 1.2, wang.GridSpec(nr=30))
    assert sol.residual_history == [0.0]
    assert not np.any(sol.F)


def test_newton_out_of_steps_is_refused(monkeypatch):
    monkeypatch.setattr(wang, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(NewtonDiverged,
                       match="Newton did not reach tolerance") as err:
        wang.solve_disk(1, 1e4, 1.0)
    h = err.value.residuals
    assert len(h) == 2 and wang._NEWTON_TOL < h[1] < h[0]


def test_newton_step_raising_the_residual_is_refused(monkeypatch):
    # the negated Newton step climbs the residual from the flat start
    solve = wang._solve_tridiagonal
    monkeypatch.setattr(wang, "_solve_tridiagonal",
                        lambda *rows: -solve(*rows))
    with pytest.raises(NewtonDiverged, match="residual increased") as err:
        wang.solve_disk(1, 1e4, 1.0)
    h = err.value.residuals
    assert len(h) == 2 and h[1] > h[0]


def test_newton_stalled_at_its_rounding_floor_is_a_coarse_grid():
    # two rings at ratio 1.001 give the row-scaled residual at s = 1e7 a
    # rounding floor of 1.04e-11, over the tolerance 1e-12: Newton reaches
    # 1.33e-12 and the next step rounds it up to 1.72e-12.  That is a grid
    # too coarse for s, not a diverging iteration
    with pytest.raises(GridTooCoarse, match=r"^Newton residual 1\.33e-12 is "
                       r"under its rounding floor 1\.04e-11$"):
        wang.solve_disk(1, 1e7, 1.0, wang.GridSpec(2, 1.001))

def test_converged_solution_outside_the_bracket_is_refused():
    # a first ring at 0.75 R leaves the center node too far from it: the
    # discrete solution dips below the flat subsolution (F = -1.3e-3)
    with pytest.raises(GridTooCoarse, match="left the sub/supersolution"):
        wang.solve_disk(1, 100.0, 1.0, wang.GridSpec(nr=30, ratio=1.01))


def test_far_field_F_keeps_relative_precision():
    # F(0.5) at k = 1 is 3.685e-18 at s = 1e5, 1.575e-25 at 3e5 and
    # 2.355e-37 at 1e6; as phi - flat of the phi form it was rounding noise
    # (4.4e-15, 1.8e-15).  The constant start stopped one Newton step short,
    # at 1.569e-25 and -7.7e-28 (where the arc exited 2 on both windows)
    want = {1e5: 3.685e-18, 3e5: 1.575e-25, 1e6: 2.355e-37}
    for s, F_half in want.items():
        sol = wang.solve_disk(1, s, 1.0)
        assert sol.radial_profile(0.5)[0] == pytest.approx(F_half, rel=1e-3,
                                                           abs=0)
        assert wang.pointwise_lower_bound_check(sol)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_solve_is_exact_under_natural_unit_scaling(k):
    # in the natural coordinate the F equation has constant coefficients, and
    # s -> 8 s with R -> R 2^(-3/(k+3)) keeps the natural radius of every
    # ring of one GridSpec: both solves give the same F (at the parent of
    # this test the worst ring was 1.7e-11 relative)
    for s in (1e2, 1e3, 1e4, 1e5, 1e6):
        grid = wang.decay_fit_grid(s)
        a = wang.solve_disk(k, s, 1.0, grid)
        b = wang.solve_disk(k, 8 * s, 2.0 ** (-3 / (k + 3)), grid)
        live = a.F != 0
        assert np.array_equal(live, b.F != 0) and live.sum() > 100
        assert np.max(np.abs(b.F[live] / a.F[live] - 1)) <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_flat_start_newton_budget(k):
    # the flat start leaves only the core |w| < 1 to converge: at most 5
    # steps on every decay-fit grid to s = 1e8 (about 19k rings); the
    # constant start took up to 11 here
    for s in 10.0 ** np.arange(2, 9):
        for R in (0.5, 1.0, 2.0):
            sol = wang.solve_disk(k, s, R)
            assert len(sol.residual_history) - 1 <= 5, (s, R)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(r=st.floats(1e-5, 1.0), theta=st.floats(0.0, 2 * math.pi),
       alpha=st.floats(0.0, 2 * math.pi, exclude_max=True))
def test_field_rotation_invariance(sol_k1_s100, r, theta, alpha):
    # |q_s| is rotation invariant, so phi is a function of r and dz phi
    # turns with e^(-i alpha) under z -> e^(i alpha) z.  dz phi is compared
    # against the size of its terms k/(3z) and F'/2, which cancel near
    # r = 0.008
    sol = sol_k1_s100
    z = r * cmath.exp(1j * theta)
    rot = cmath.exp(1j * alpha)
    phi = sol.phi_at(z)
    assert abs(sol.phi_at(rot * z) - phi) <= 1e-13 * abs(phi)
    dphi = sol.dz_phi_at(z)
    scale = abs(dphi) + sol.q.k / (3 * r)
    assert abs(rot * sol.dz_phi_at(rot * z) - dphi) <= 1e-13 * scale


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(points=st.lists(
    st.tuples(st.sampled_from(["center", "rings", "ring node", "rim"]),
              st.floats(1e-9, 1.0), st.floats(0.0, 2 * math.pi)),
    min_size=1, max_size=40))
def test_array_sampling_matches_scalar(sol_k1_s100, points):
    # phi_at/dz_phi_at on an array give the scalar calls' values bit for
    # bit: inside the first ring (center blend), between and on rings, and
    # at or beyond R (clamped to the rim ring)
    sol = sol_k1_s100

    def radius(region, u):
        if region == "center":
            return u * sol.rs[0]
        if region == "rings":
            return sol.rs[0] + u * (sol.R - sol.rs[0])
        if region == "ring node":
            return sol.rs[int(u * (len(sol.rs) - 1))]
        return sol.R * (1 + u)

    z = np.array([radius(g, u) * cmath.exp(1j * t) for g, u, t in points])
    phi, dphi = sol.phi_at(z), sol.dz_phi_at(z)
    assert phi.shape == dphi.shape == z.shape
    for i, zi in enumerate(z.tolist()):
        assert np.float64(sol.phi_at(zi)).tobytes() == phi[i].tobytes()
        assert np.complex128(sol.dz_phi_at(zi)).tobytes() == dphi[i].tobytes()


def test_decay_exponent_trend():
    fits = []
    for s in (1e2, 1e3):
        sol = wang.solve_disk(1, s, 1.0, wang.decay_fit_grid(s))
        fits.append(wang.error_field(sol) / s ** (1 / 3))
    target = math.sqrt(3) * 2 ** (2 / 3)
    assert fits[0] < fits[1] < target
    assert fits[0] > 1.5


@pytest.mark.parametrize("k", [1, 2])
def test_decay_grid_at_s_1e5(k):
    # the s-adapted grid at s=1e5 has 1,948 rings; one more decade of the
    # exponent's approach to sqrt(3) 2^(2/3) from below
    fits = []
    for s in (1e4, 1e5):
        sol = wang.solve_disk(k, s, 1.0, wang.decay_fit_grid(s))
        fits.append(wang.error_field(sol) / s ** (1 / 3))
    h = sol.residual_history
    assert all(b <= a for a, b in zip(h, h[1:]))
    assert wang.pointwise_lower_bound_check(sol)
    assert fits[0] < fits[1] < math.sqrt(3) * 2 ** (2 / 3)


def test_refinement_order():
    s, k = 50.0, 1
    sols = {}
    for nr in (60, 120, 240):
        sols[nr] = wang.solve_disk(k, s, 1.0, wang.GridSpec(nr=nr))
    # compare phi at probe radii via interpolation
    probes = [0.05, 0.2, 0.5, 0.8]
    errs = []
    for nr in (60, 120):
        e = max(abs(sols[nr].phi_at(r) - sols[240].phi_at(r)) for r in probes)
        errs.append(e)
    order = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert order >= 1.8


def test_interpolation_consistency(sol_k1_s100):
    sol = sol_k1_s100
    i = 60
    z = sol.rs[i] * np.exp(1.3j)
    assert sol.phi_at(z) == pytest.approx(sol.phi[i], abs=1e-9)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_radial_profile_is_what_the_samplers_read(k):
    # at ring nodes, between them and inside the first ring, (F, dF/dr) is
    # phi_at less the flat part and twice the real part of dz_phi_at less
    # its flat part, to the rounding of those differences
    sol = wang.solve_disk(k, 1e3, 1.0)
    q, rs = sol.q, sol.rs
    r = np.concatenate([rs[::37], np.sqrt(rs[:-1:29] * rs[1::29]),
                        rs[0] * np.array([1e-6, 0.3, 0.99])])
    F, dF = sol.radial_profile(r)
    flat, dflat = q.flat(np.log(r)), q.dz_flat(r)
    eps = np.finfo(float).eps
    assert np.all(np.abs(F - (sol.phi_at(r) - flat))
                  <= 4 * eps * (np.abs(flat) + np.abs(F)))
    assert np.all(np.abs(dF - 2 * (sol.dz_phi_at(r) - dflat).real)
                  <= 4 * eps * (np.abs(dflat) + np.abs(dF)))
    # a scalar radius gives the array's values
    assert sol.radial_profile(float(r[5])) == (F[5], dF[5])


def test_dz_phi_blends_inside_the_first_ring(sol_k1_s100):
    # inside the first ring dz phi is d/dz of phi_at's blend, finite down
    # to the zero (k/(3z) + F'/2 there was 3.3e5 at r = 1e-6 for k = 1)
    sol = sol_k1_s100
    rs0, h = sol.rs[0], 0.05 * sol.rs[0]
    assert sol.dz_phi_at(0j) == 0
    for r in (1e-6, 0.3 * rs0, 0.9 * rs0):
        for theta in (0.0, 1.0, -2.5):
            z = r * cmath.exp(1j * theta)
            fd = ((sol.phi_at(z + h) - sol.phi_at(z - h))
                  - 1j * (sol.phi_at(z + 1j * h) - sol.phi_at(z - 1j * h))
                  ) / (4 * h)
            assert abs(sol.dz_phi_at(z) - fd) <= 1e-9
    assert abs(sol.dz_phi_at(1e-6)) < 1e-5


def test_invalid_inputs():
    with pytest.raises(ValueError):
        wang.solve_disk(-1, 10.0, 1.0)
    with pytest.raises(ValueError):
        wang.solve_disk(1, -1.0, 1.0)


@pytest.mark.parametrize("s, R", [(math.nan, 1.0), (math.inf, 1.0),
                                  (10.0, math.nan), (10.0, math.inf)])
def test_non_finite_s_or_radius_rejected(s, R):
    # nan used to pass the sign checks; inf ended in NewtonDiverged
    with pytest.raises(ValueError, match="finite"):
        wang.solve_disk(1, s, R)


def test_default_grid_is_the_decay_fit_grid():
    s = 1e3
    sol = wang.solve_disk(1, s, 1.0)
    ref = wang.solve_disk(1, s, 1.0, wang.decay_fit_grid(s))
    assert len(sol.rs) == 424
    assert sol.rs.tobytes() == ref.rs.tobytes()
    assert sol.phi.tobytes() == ref.phi.tobytes()


def test_ring_budget_admits_s_1e12():
    assert wang.decay_fit_grid(1e12).nr == 418_657 <= wang._MAX_RINGS


@pytest.mark.parametrize("s, grid, match", [
    (1e20, None, "s=1e+20 has 194320973 rings, over the budget"),
    (1e48, None, "s=1e+48 needs nr >= 2 and ratio > 1, got nr=0"),
    (1e3, wang.GridSpec(nr=wang._MAX_RINGS + 1), "s=1000 has 500001 rings"),
], ids=["s1e20", "s1e48-degenerate", "nr-over-budget"])
def test_grid_refused_before_allocating(monkeypatch, s, grid, match):
    # s = 1e20 would ask for 194 million rings, and at s >= 1e46 the decay
    # grid's ratio rounds to 1
    def no_nodes(*args):
        raise AssertionError("allocated a refused grid")
    monkeypatch.setattr(wang, "_radial_nodes", no_nodes)
    with pytest.raises(ValueError, match=re.escape(match)):
        wang.solve_disk(1, s, 1.0, grid)


@pytest.mark.parametrize("k, s, R", [(0, 1e300, 1.0), (1, 1e3, 1e-300),
                                     (1, 1e3, 1e300), (0, 1e3, 1e300)])
def test_out_of_range_s_or_radius_refused(k, s, R):
    # s ** 2 or the 1/h^2 stencil weights leave the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError,
                           match=re.escape(f"s={s:g}, R={R:g}: ")):
            wang.solve_disk(k, s, R, wang.GridSpec())


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("s", [1.0, 1e3])
def test_cubic_differential_closed_forms_agree(k, s):
    q = wang.CubicDifferential(k, s)
    r, h = 0.7, 1e-6

    def flat(z):
        return q.flat(math.log(abs(z)))
    # chart angles continued past pi, so arg w passes pi onto later sheets
    for theta in np.linspace(-3.0, 6.0, 19):
        z = r * cmath.exp(1j * theta)
        w = q.natural(r, theta)
        sheet = round((q.natural_angle(theta) - cmath.phase(w))
                      / (2 * math.pi))
        assert abs(q.chart_point(w, sheet) - z) <= 1e-13
        wp = q.cube_root(r, theta)
        assert abs(wp ** 3 - s * z ** k) <= 1e-13 * abs(s * z ** k)
        dw = (q.natural(*q.on_branch(z + h, theta))
              - q.natural(*q.on_branch(z - h, theta))) / (2 * h)
        assert abs(dw - wp) <= 1e-8 * abs(wp)
        assert abs(w) == pytest.approx(q.natural_radius(r), rel=1e-14)
        # the flat part is (1/3) log(2 |q|^2); its d/dz by Wirtinger's rule
        assert math.exp(3 * flat(z)) == pytest.approx(2 * q.abs2(r),
                                                      rel=1e-13)
        dflat = ((flat(z + h) - flat(z - h))
                 - 1j * (flat(z + 1j * h) - flat(z - 1j * h))) / (4 * h)
        assert abs(dflat - q.dz_flat(z)) <= 1e-8 * abs(q.dz_flat(z)) + 1e-9
        for branch in (-7.0, 0.0, math.pi, 9.5):
            rb, tb = q.on_branch(z, branch)
            assert rb == abs(z) and abs(tb - branch) <= math.pi
            assert abs(cmath.exp(1j * tb) - z / abs(z)) <= 1e-14


@pytest.mark.parametrize("k, s", [(-1, 1.0), (1, 0.0), (1, -2.0),
                                  (1, math.inf), (1, math.nan)])
def test_cubic_differential_refuses_bad_order_or_scale(k, s):
    with pytest.raises(ValueError, match="zero order" if k < 0 else "finite"):
        wang.CubicDifferential(k, s)
