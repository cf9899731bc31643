import cmath
import math
import re

import numpy as np
import pytest

from hitchin_limits import cli, frame, polygon, tropical, wang
from hitchin_limits.errors import StepUnstable

import oracles


@pytest.fixture(scope="module")
def sol_k0():
    return wang.solve_disk(0, 1.0, 1.2, wang.GridSpec(nr=40))


@pytest.fixture(scope="module")
def sol_k1_s1000():
    return wang.solve_disk(1, 1000.0, 1.0, wang.GridSpec(nr=200))


def test_titeica_frame_diagonalizes_structure():
    # whatever way S is built, S^(-1) (x U + xbar V) S is diagonal with the
    # exponents of slot j's branch cos(theta - BETA[j]) for every x
    S, S_inv = frame.titeica_frame()
    U, V = oracles.titeica_structure()
    assert np.allclose(S @ S_inv, np.eye(3), atol=1e-14)
    for x in (0.8 * cmath.exp(0.23j), 1.0, -2.5 + 0.7j, 3j,
              1e3 * cmath.exp(2j)):
        D = S_inv @ (x * U + x.conjugate() * V) @ S
        want = np.diag(frame.titeica_exponents(x))
        assert np.max(np.abs(D - want)) <= 1e-14 * (1 + abs(x))


def _check_real_generators(F, F_z, dz, wp, D, W):
    # the real S-gauge remainder generators are -(S^(-1) (W - tr W / 3) S)
    # e^(D_i - D_j) of the chart-frame remainder W, to rounding of the
    # triple product
    S, S_inv = frame.titeica_frame()
    W = W - np.trace(W, axis1=1, axis2=2)[:, None, None] / 3 * np.eye(3)
    scaling = np.exp(D[:, None] - D[None, :])
    want = -np.einsum("ij,mjk,kl->ilm", S_inv, W, S) * scaling
    bound = np.einsum("ij,mjk,kl->ilm", np.abs(S_inv), np.abs(W),
                      np.abs(S)) * scaling
    got = frame._remainder_generators(F, F_z, dz, wp, D)
    assert got.dtype == np.float64 and got.shape == (3, 3, len(W))
    assert np.max(np.abs(got - want) / bound) <= 2e-15


def test_real_generators_are_the_chart_generators_in_the_real_frame():
    # the real generators match the chart-frame remainder W over a natural
    # step dw = w' dz, with dphi_w = F_z / w', formed in closed form, for
    # random F (down to 1e-12), F_z, w', dz and slot exponents D
    rng = np.random.default_rng(5)
    m = 12
    for _ in range(200):
        F = rng.choice([-1.0, 1.0], m) * 10 ** rng.uniform(-12, 0.5, m)
        F_z = 10 ** rng.uniform(-3, 3, m) * np.exp(2j * np.pi * rng.random(m))
        wp = 10 ** rng.uniform(-1, 4, m) * np.exp(2j * np.pi * rng.random(m))
        dz = 10 ** rng.uniform(-6, -2) * np.exp(2j * np.pi * rng.random())
        D = rng.normal(scale=5.0, size=(3, m))
        _check_real_generators(
            F, F_z, dz, wp, D,
            oracles.remainder_chart_difference(F, F_z / wp, wp * dz))
    # an exact zero stays zero where e^(D_i - D_j) overflows
    D = np.array([[1e4, 0.0], [0.0, 0.0], [-1e4, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        got = frame._remainder_generators(np.zeros(2), np.zeros(2), 1e-3,
                                          np.ones(2), D)
    assert np.array_equal(got, np.zeros((3, 3, 2)))


def test_real_arc_integrand_is_the_chart_frame_integrand():
    # S_r = C^H S is real, and on arcs |z| = r of k = 0 ... 3 the real
    # generators, with F constant, F_z = F' conj(z) / 2r and dz = i z dtheta,
    # are those of the arc's own chart-frame remainder formed from F in
    # closed form, for F down to 1e-12
    C = frame._C
    S, S_inv = frame.titeica_frame()
    assert np.max(np.abs((C.conj().T @ S).imag)) <= 1e-15 * np.max(np.abs(S))
    assert np.max(np.abs((S_inv @ C).imag)) <= 1e-15 * np.max(np.abs(S_inv))
    rng = np.random.default_rng(6)
    m = 10
    for _ in range(300):
        q = wang.CubicDifferential(int(rng.integers(4)),
                                   10 ** rng.uniform(0, 6))
        radius = rng.uniform(0.05, 1.0)
        F = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-12, 0)
        dF = rng.normal(scale=10 ** rng.uniform(-3, 3))
        t = rng.uniform(-4.0, 4.0, size=m)
        dtheta = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-5, -1)
        z = radius * np.exp(1j * t)
        _check_real_generators(
            F, (0.5 * dF / radius) * z.conj(), (1j * dtheta) * z,
            q.cube_root(radius, t), rng.normal(scale=5.0, size=(3, m)),
            oracles.arc_chart_difference(F, dF, q, radius, t) * dtheta)


def test_step_check_rejects_every_step_with_a_chart_entry_above_e10():
    # the check reads real-frame steps R against e^10/3.  A chart-frame step
    # C R C^H has its largest entry at most sqrt(2) times R's, so one just
    # above e^10 is rejected; among them the step where the ratio is sqrt(2)
    # (chart entry (1, 1) = (1 + i) r) and random ones
    C = frame._C
    chart_max = math.exp(10) * (1 + 1e-9)
    worst = np.eye(3)
    worst[1:, 1:] = [[1.0, -1.0], [1.0, 1.0]]
    rng = np.random.default_rng(3)
    R = np.stack([worst] + [rng.normal(size=(3, 3)) for _ in range(200)])
    R *= (chart_max / np.abs(C @ R @ C.conj().T).max(axis=(1, 2)))[:, None,
                                                                     None]
    # generators whose RK4 step is I + f1/6 = R
    f1 = np.moveaxis(6.0 * (R - np.eye(3)), 0, -1)
    zero = np.zeros_like(f1)
    for j in range(len(R)):
        steps, bad = frame._rk4_steps(f1[..., j:j + 1], zero[..., :1],
                                      zero[..., :1])
        assert bad == 0, j
    # one just under the bound in the real frame passes
    R = np.full((3, 3, 1), math.exp(10) / 3 * (1 - 1e-9))
    assert frame._rk4_steps(6.0 * (R - frame._I3), 0 * R, 0 * R)[1] == -1


def test_transport_and_arc_steps_are_float64(sol_k1_s1000, monkeypatch):
    # one complex constant would upcast every batch to complex128, and
    # every other test would still pass
    seen = []
    rk4 = frame._rk4_steps

    def spy_rk4(*gens):
        steps, bad = rk4(*gens)
        seen.extend([g.dtype for g in gens] + [steps.dtype])
        return steps, bad
    push_left = frame.FrameTransport.push_left
    folds = []

    def spy_push(self, P):
        folds.append(P.dtype)
        return push_left(self, P)
    monkeypatch.setattr(frame, "_rk4_steps", spy_rk4)
    monkeypatch.setattr(frame.FrameTransport, "push_left", spy_push)
    frame.integrate_transport(sol_k1_s1000, [0.3, 0.5 + 0.4j, 0.8j])
    assert folds and set(folds) == {np.dtype(np.float64)}
    frame.arc_unipotent_numeric(sol_k1_s1000, 0.3, 0.8, radius=0.5)
    assert seen and set(seen) == {np.dtype(np.float64)}


def test_titeica_transport_zero_displacement():
    assert np.allclose(oracles.titeica_transport(0.0), np.eye(3), atol=1e-12)


def test_titeica_transport_real_displacement_eigenvalues():
    L = 0.8
    M = oracles.titeica_transport(L)
    evals = sorted(np.linalg.eigvals(M).real, reverse=True)
    cbrt4 = 2 ** (2 / 3)
    want = sorted([math.exp(cbrt4 * L), math.exp(-cbrt4 * L / 2),
                   math.exp(-cbrt4 * L / 2)], reverse=True)
    assert evals == pytest.approx(want, rel=1e-9)


def test_titeica_structure_commutes():
    U, V = oracles.titeica_structure()
    assert np.max(np.abs(U @ V - V @ U)) < 1e-14
    assert np.max(np.abs(np.linalg.matrix_power(U, 3) - 0.5 * np.eye(3))) < 1e-14


def test_titeica_singular_exponents_match_tropical():
    # asymptotically the singular exponents of the inverse transport match
    # the tropical triple of the displacement
    L, theta = 30.0, 0.43
    x = L * cmath.exp(1j * theta)
    vals = oracles.titeica_log_singular_values(-0 + x)  # transport over x
    trop = np.array(tropical.segment_exponents(x).weyl.as_tuple())
    got = np.sort(vals)[::-1] / L
    # inverse transport: exponents negate and reverse
    inv = -got[::-1]
    assert np.allclose(inv, trop / L, atol=0.1)


def test_factored_transport_extreme_range():
    # the reference integrator's QR fold must recover all three exponents at
    # condition numbers ~ e^80
    rng = np.random.default_rng(0)
    xp = oracles.FoldedTransport()
    d = np.array([40.0, -5.0, -35.0]) / 200
    base = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    M = base @ np.diag(np.exp(d)) @ base.T
    for _ in range(200):
        xp.push_left(M)
    vals = oracles.log_singular_values_inverse(xp)
    assert vals == pytest.approx([40.0, -5.0, -35.0], abs=1e-8)
    assert abs(oracles.log_abs_det(xp)) < 1e-8


def _titeica_weyl_exponents(x, s):
    """The closed form of transport_weyl_exponents for q = s dz^3 over a
    natural displacement x: S^(-1) of the inverse Titeica transport is
    diag(e^(-titeica_exponents(x)))."""
    return np.sort(-frame.titeica_exponents(x))[::-1] / s ** (1 / 3)


def test_integrator_matches_closed_form_k0(sol_k0):
    s = 800.0
    sol = wang.solve_disk(0, s, 1.2, wang.GridSpec(nr=40))
    for z0, z1 in [(0.1 + 0.05j, 0.9 + 0.4j), (0.6j, 0.1 - 0.7j)]:
        got = frame.transport_weyl_exponents(sol, [z0, z1])
        want = _titeica_weyl_exponents(s ** (1 / 3) * (z1 - z0), s)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_integrator_closed_form_long_displacement():
    # displacement * s^(1/3) = 40: the exponents spread over 95, far past
    # what a dense matrix resolves, and are read in log space
    s = 6.4e4
    sol = wang.solve_disk(0, s, 1.2, wang.GridSpec(nr=30))
    z0, z1 = 0.05, 0.05 + 1.0
    got = frame.transport_weyl_exponents(sol, [z0, z1])
    want = _titeica_weyl_exponents(s ** (1 / 3) * (z1 - z0), s)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_reversed_path_inverse(sol_k1_s1000):
    # the reversed path transports by the inverse: its exponents negate and
    # reverse
    path = [0.35 + 0.1j, 0.7 + 0.3j]
    fwd = frame.transport_weyl_exponents(sol_k1_s1000, path)
    bwd = frame.transport_weyl_exponents(sol_k1_s1000, path[::-1])
    assert np.max(np.abs(fwd + bwd[::-1])) < 1e-12 * np.max(np.abs(fwd))


def test_unimodularity(sol_k1_s1000):
    # the remainder is trace-free, so Y has determinant 1
    Y, _, _ = frame.integrate_transport(sol_k1_s1000, [0.3, 0.8j])
    assert abs(np.linalg.det(Y) - 1) < 1e-12


def test_gauge_reality(sol_k1_s1000):
    # mapped back to the chart frame, the remainder transport is the
    # chart-frame transport of the full connection (the reference
    # integrator), and real in the orthonormal gauge
    sol = sol_k1_s1000
    a, b = 0.4, 0.25 + 0.6j
    psi = oracles.natural_transport_matrix(sol, [a, b])
    ref = oracles.transport_matrix(oracles.reference_transport(sol, [a, b]))
    assert np.max(np.abs(psi - ref)) < 1e-8 * np.max(np.abs(ref))
    Ca = oracles.orthonormal_gauge(sol.phi_at(a))
    Cb = oracles.orthonormal_gauge(sol.phi_at(b))
    R = np.linalg.inv(Ca) @ psi @ Cb
    assert np.max(np.abs(R.imag)) < 1e-6 * np.max(np.abs(R))


def test_radial_transport_vs_tropical_k1(sol_k1_s1000):
    sol = sol_k1_s1000
    theta_z = 0.27
    z0 = 0.3 * cmath.exp(1j * theta_z)
    z1 = 0.9 * cmath.exp(1j * theta_z)
    numeric = frame.transport_weyl_exponents(sol, [z0, z1])
    q = wang.CubicDifferential(1)
    period = (q.natural(*q.on_branch(z1, (4 / 3) * theta_z))
              - q.natural(*q.on_branch(z0, (4 / 3) * theta_z)))
    target = np.array(tropical.segment_exponents(period).weyl.as_tuple())
    scale = np.max(np.abs(target))
    assert np.max(np.abs(numeric - target)) / scale < 0.05


@pytest.mark.parametrize("path", [
    [0.3 * cmath.exp(0.27j), 0.9 * cmath.exp(0.27j)],
    [0.3 + 0.1j, 0.45 + 0.6j],
], ids=["radial", "chord"])
def test_natural_frame_triple_sums_to_zero(sol_k1_s1000, path):
    # the natural frame changes have determinant 1, so the exponents of a
    # unimodular transport sum to 0, also between endpoints at different |z|
    numeric = frame.transport_weyl_exponents(sol_k1_s1000, path)
    assert abs(float(np.sum(numeric))) <= 1e-12 * np.max(np.abs(numeric))


def test_arc_numeric_no_crossing_identity():
    s = 2000.0
    sol = wang.solve_disk(0, s, 1.2, wang.GridSpec(nr=40))
    # arc inside one Stokes sector of the k=0 model: z-angles = chart angles
    G = frame.arc_unipotent_numeric(sol, 0.62, 0.98, radius=0.5)
    assert np.max(np.abs(G - np.eye(3))) < 0.02


def test_arc_numeric_k0_crossing_identity_limit():
    # for the constant differential the flip unipotents are trivial and F
    # vanishes: the arc comparison is the identity up to rounding at every s
    for s in (1e2, 1e4):
        sol = wang.solve_disk(0, s, 1.2, wang.GridSpec(nr=40))
        G = frame.arc_unipotent_numeric(sol, 0.3, 0.8, radius=0.5)
        assert np.max(np.abs(G - np.eye(3))) < 1e-14


@pytest.mark.parametrize("s", [1e2, 1e4, 1e6])
def test_k0_arcs_equal_the_prediction_to_rounding(s):
    # F = 0 makes the integrand vanish identically, so no e^(Delta D) can
    # amplify a rounding of the field, out to the rim and up to s = 1e6
    # (there the natural radius of |z| = 0.9 is 90)
    sol = wang.solve_disk(0, s, 1.0)
    S, S_inv = frame.titeica_frame()
    lifts = polygon.regular_lifts(3)
    for theta0, theta1 in [(0.05, 1.00), (0.05, 2.05), (0.05, 3.10)]:
        pred = S @ np.linalg.inv(polygon.arc_unipotent(lifts, theta0,
                                                       theta1)) @ S_inv
        for radius in (0.4, 0.5, 0.9):
            G = frame.arc_unipotent_numeric(sol, theta0, theta1, radius)
            assert np.max(np.abs(G - pred)) <= 1e-15


def test_arc_reads_the_radial_profile_not_the_samplers(sol_k1_s1000,
                                                       monkeypatch):
    # the arc reads (F, dF/dr) once at its radius and samples no node
    want = frame.arc_unipotent_numeric(sol_k1_s1000, 0.3, 0.8, radius=0.5)
    reads = []
    profile = wang.WangSolution.radial_profile

    def count(self, r):
        reads.append(r)
        return profile(self, r)

    def refuse(self, z):
        raise AssertionError("the arc sampled the field")
    monkeypatch.setattr(wang.WangSolution, "radial_profile", count)
    monkeypatch.setattr(wang.WangSolution, "phi_at", refuse)
    monkeypatch.setattr(wang.WangSolution, "dz_phi_at", refuse)
    got = frame.arc_unipotent_numeric(sol_k1_s1000, 0.3, 0.8, radius=0.5)
    assert reads == [0.5]
    assert np.array_equal(got, want)


def test_arc_numeric_k1_converges_to_flip_product():
    import cmath
    from hitchin_limits import polygon as pg
    lifts = pg.regular_lifts(4)
    th0, th1 = 0.30, 0.80          # z-angles; natural angles scale by 4/3
    U = pg.arc_unipotent(lifts, 4 * th0 / 3, 4 * th1 / 3)
    S, _ = frame.titeica_frame()
    pred = S @ np.linalg.inv(U) @ np.linalg.inv(S)
    errs = []
    for s in (1e2, 1e4):
        sol = wang.solve_disk(1, s, 1.0, wang.GridSpec(nr=200))
        G = frame.arc_unipotent_numeric(sol, th0, th1, radius=0.5)
        errs.append(np.max(np.abs(G - pred)))
    assert errs[1] < 0.05
    assert errs[1] < errs[0] / 10


@pytest.mark.parametrize("k", [0, 1, 2])
def test_arc_matches_row_major_reference(k):
    # the entry-major batches and chunked pairwise products reorder only
    # rounding against the matmul stacks multiplied out step by step
    for s in (1e2, 1e4):
        sol = wang.solve_disk(k, s, 1.0)
        got = frame.arc_unipotent_numeric(sol, 0.04, 0.75, radius=0.5)
        want = oracles.reference_arc_unipotent(sol, 0.04, 0.75, radius=0.5)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_reversed_arc_is_the_inverse():
    # G(theta0, theta1) G(theta1, theta0) = I to the step error, relative
    # to the product of the largest entries (2.7e-11 at worst)
    for k in (1, 2, 3):
        for s in (1e2, 1e4, 1e6):
            sol = wang.solve_disk(k, s, 1.0)
            for theta0, theta1 in ((0.04, 0.75), (0.3, 0.8), (-0.5, 2.5)):
                G = frame.arc_unipotent_numeric(sol, theta0, theta1, 0.5)
                H = frame.arc_unipotent_numeric(sol, theta1, theta0, 0.5)
                assert np.max(np.abs(G @ H - np.eye(3))) <= \
                    1e-9 * np.max(np.abs(G)) * np.max(np.abs(H))


def test_arc_nan_past_an_angle_names_the_first_bad_step(monkeypatch):
    # the natural coordinate is NaN only past the angle of one step's middle
    # node, several chunks into the arc counted from theta1: that step is
    # the first with a NaN node, and the chunked check must neither skip
    # ahead nor stop early.  The field is a constant F = c, small enough
    # that every step passes where D is finite (e^(D_i - D_j) reaches e^64);
    # with F = 0 the remainder is an exact zero, also where D is NaN
    s, theta0, theta1, radius = 1e5, 0.1, 3.0, 0.5
    sol = _FlatField(s, 1e-24)
    n = frame._arc_steps(sol.q, theta0, theta1, radius)
    j = 3 * frame._CHUNK_STEPS + 17
    assert j < n - 1
    t = theta1 + ((theta0 - theta1) / n / 2) * np.arange(2 * n + 1)
    cut = t[2 * j + 1]
    S, S_inv = frame.titeica_frame()
    assert not np.array_equal(
        frame.arc_unipotent_numeric(sol, theta0, theta1, radius), S @ S_inv)
    natural = wang.CubicDifferential.natural

    def nan_past_cut(self, r, theta):
        return np.where(theta < cut, math.nan, natural(self, r, theta))
    monkeypatch.setattr(wang.CubicDifferential, "natural", nan_past_cut)
    with pytest.raises(StepUnstable,
                       match=rf"^arc step {j + 1} of {n} at theta=.* is "
                             rf"not finite or has an entry above e\^10/3$"):
        frame.arc_unipotent_numeric(sol, theta0, theta1, radius)
    G = frame.arc_unipotent_numeric(_FlatField(s), theta0, theta1, radius)
    assert np.array_equal(G, S @ S_inv)


def test_convergence_sweep_k0():
    period = 0.8 * cmath.exp(0.3j)
    z0 = 0.05 + 0.02j
    pts = [z0, z0 + period]
    target = np.array(tropical.segment_exponents(period).weyl.as_tuple())
    for s in (1e2, 1e3):
        sol = wang.solve_disk(0, s, 1.2, wang.GridSpec(nr=30))
        numeric = frame.transport_weyl_exponents(sol, pts)
        gaps = np.abs(numeric - target) / np.max(np.abs(target))
        assert np.max(gaps) < 5e-3


def test_orthonormal_gauge_real_on_closed_form():
    phi_T = math.log(2.0) / 3.0
    C = oracles.orthonormal_gauge(phi_T)
    for x in (0.4, 0.3 + 0.5j, -0.7j):
        psi = oracles.titeica_transport(x)
        R = np.linalg.inv(C) @ psi @ C
        assert np.max(np.abs(R.imag)) < 1e-9 * np.max(np.abs(R))


def test_two_segment_turn_leading_vs_numeric():
    # a geodesic turn through the k=1 zero: the evaluated leading term and
    # the transport along the truncated (radial-arc-radial) path agree on the
    # top singular exponent, improving with s
    import warnings
    from hitchin_limits import polygon
    from hitchin_limits.surface import GeodesicPath, Junction, SaddleConnection

    k = 1
    psi_in, psi_out = 0.15, 0.15 + 0.8 * math.pi
    r_out, eps = 0.85, 0.2
    t_in = 4 * psi_in / 3
    turn = 4 * (psi_out - psi_in) / 3
    ell = wang.CubicDifferential(k).natural_radius(r_out)
    p0 = ell * cmath.exp(1j * (t_in + math.pi))
    p1 = ell * cmath.exp(1j * (t_in + turn))
    path = GeodesicPath(
        (SaddleConnection(-1, 0, p0), SaddleConnection(0, -1, p1)),
        (Junction(order=k, theta_in=t_in + 2 * math.pi,
                  theta_out=t_in + 2 * math.pi + turn, zero=0),), False)

    arc = [eps * cmath.exp(1j * t)
           for t in np.linspace(psi_in, psi_out, 400)]
    pts = [r_out * cmath.exp(1j * psi_in)] + arc + [r_out * cmath.exp(1j * psi_out)]
    gaps = []
    for s in (1e3, 1e4):
        sol = wang.solve_disk(k, s, 1.0, wang.GridSpec(nr=200))
        numeric = frame.transport_weyl_exponents(sol, pts)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lt = polygon.leading_term(path, s=s)
        gaps.append(abs(lt.top_singular_exponent() - numeric))
    scale = abs(frame.CBRT4) * ell
    assert gaps[-1] < 0.1 * scale
    assert gaps[-1] < gaps[0]


def _live_segment_steps(q, a, b):
    """The step count of each scan interval of the segment a -> b in the
    scalar plan and the start, middle and end nodes of each step, as
    integrate_transport lays them out when the remainder is nonzero at every
    scan point."""
    seg, ns, steps = b - a, [], []
    ts = oracles.scan_points(q, a, seg)
    for lo, hi in zip(ts, ts[1:]):
        n = oracles.segment_steps(q, a + seg * lo, a + seg * hi)
        dz = seg * ((hi - lo) / n)
        nodes = a + (seg * lo + dz * (np.arange(2 * n + 1) / 2))
        ns.append(n)
        steps += [nodes[2 * i:2 * i + 3] for i in range(n)]
    return ns, steps


def test_nan_field_stops_transport_at_the_first_step(sol_k0, monkeypatch):
    calls = []

    def nan_phi(self, z):
        calls.append(z)
        return np.full(np.shape(z), math.nan)
    monkeypatch.setattr(wang.WangSolution, "phi_at", nan_phi)
    with pytest.raises(StepUnstable, match=r"step 1 of \d+ at z=.* is not "
                       r"finite or has an entry above e\^10/3$"):
        frame.integrate_transport(sol_k0, [0.3, 0.9])
    # the scan finds a nonzero (NaN) remainder, so the whole segment takes
    # steps: one phi_at call for the scan and one given the 2n+1 nodes of
    # each scan interval's n steps
    ns, _ = _live_segment_steps(sol_k0.q, 0.3, 0.9)
    assert len(calls) == 2
    assert np.shape(calls[1]) == (sum(2 * n + 1 for n in ns),)


def test_field_nan_past_a_radius_names_the_first_bad_step(monkeypatch):
    # phi is NaN only for |z| > cut on [0.05, 0.9], and a step-by-step loop
    # stops at the first step with a node past the cut.  The cut sits
    # halfway between step j's middle and last nodes, so every node of the
    # steps before lies below it by half a node spacing or more and rounding
    # of the nodes cannot move the index.  The chunked check must neither
    # skip ahead nor stop early.  F is nonzero on the whole segment at k = 1,
    # so all of it takes steps
    phi_at = wang.WangSolution.phi_at
    for s in (2000.0, 1e4):
        sol = wang.solve_disk(1, s, 1.0)
        _, steps = _live_segment_steps(sol.q, 0.05, 0.9)
        j = 3 * frame._CHUNK_STEPS + 17
        assert len(steps) > j + 1
        n, cut = len(steps), float(np.mean(steps[j][1:].real))
        monkeypatch.setattr(wang.WangSolution, "phi_at", lambda self, z: np.where(
            np.abs(z) > cut, math.nan, phi_at(self, z)))
        with pytest.raises(StepUnstable,
                           match=rf"step {j + 1} of {n} at z="):
            frame.integrate_transport(sol, [0.05, 0.9])


def test_path_of_coincident_points_is_the_identity(sol_k1_s1000):
    # no segment, no step: Y = I and both ends read the same exponents
    Y, D0, D1 = frame.integrate_transport(sol_k1_s1000, [0.5 + 0.2j] * 3)
    assert Y.tobytes() == np.eye(3).tobytes()
    assert D0.tobytes() == D1.tobytes()
    assert D0.tobytes() == frame.titeica_exponents(
        sol_k1_s1000.q.natural(abs(0.5 + 0.2j),
                               cmath.phase(0.5 + 0.2j))).tobytes()


@pytest.mark.parametrize("k", [1, 2])
def test_segment_through_the_zero_is_refused(k):
    # F ~ log r is singular there for k >= 1 (k = 0 transports through it:
    # test_shifted_flat_transport_is_the_product_of_exponentials)
    sol = wang.solve_disk(k, 1e3, 1.0)
    for path in ([0.5j, 0.5, -0.5], [0.5j, 0.0]):
        with pytest.raises(ValueError, match=r"passes through z = 0$"):
            frame.integrate_transport(sol, path)


def test_step_budget_refuses_paths_and_arcs_before_sampling(monkeypatch):
    # a path at the budget runs; one step over it is refused after the scan
    # and before its step nodes are sampled, and an arc over the budget is
    # refused before any node is sampled
    sol = wang.solve_disk(1, 1e3, 1.0)
    n = sum(_live_segment_steps(sol.q, 0.3, 0.9)[0])
    monkeypatch.setattr(frame, "_MAX_STEPS", n)
    frame.integrate_transport(sol, [0.3, 0.9])
    calls = []
    phi_at = wang.WangSolution.phi_at

    def count(self, z):
        calls.append(np.size(z))
        return phi_at(self, z)
    monkeypatch.setattr(wang.WangSolution, "phi_at", count)
    monkeypatch.setattr(frame, "_MAX_STEPS", n - 1)
    with pytest.raises(ValueError, match=rf"^path takes {n} transport steps "
                                         rf"at s=1000, over the budget of "
                                         rf"{n - 1}$"):
        frame.integrate_transport(sol, [0.3, 0.9])
    assert len(calls) == 1 and calls[0] < 20            # the scan alone
    sol = wang.solve_disk(0, 1e4, 1.2, wang.GridSpec(nr=40))
    monkeypatch.setattr(wang.WangSolution, "radial_profile", count)
    n = frame._arc_steps(sol.q, 0.04, 0.75, 0.5)
    monkeypatch.setattr(frame, "_MAX_STEPS", n - 1)
    with pytest.raises(ValueError, match=rf"^arc takes {n} steps at s=10000, "
                                         rf"over the budget of {n - 1}$"):
        frame.arc_unipotent_numeric(sol, 0.04, 0.75, radius=0.5)
    assert len(calls) == 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_arc_steps_converge(k, monkeypatch):
    # steps of at most _NATURAL_STEP of natural length and angle agree with
    # steps 8 times finer entrywise within 1e-8 of max(1, |G|) (7.3e-10 at
    # worst), on both README windows at the bench radius and inside the
    # natural unit circle, where the angle bounds the step
    for s in (1e2, 1e3, 1e4, 1e5, 1e6):
        sol = wang.solve_disk(k, s, 1.0)
        for radius in (0.5, 0.05):
            for window in ((0.04, 0.75), (0.3, 0.8)):
                got = frame.arc_unipotent_numeric(sol, *window, radius)
                with monkeypatch.context() as m:
                    m.setattr(frame, "_NATURAL_STEP", frame._NATURAL_STEP / 8)
                    want = frame.arc_unipotent_numeric(sol, *window, radius)
                assert np.max(np.abs(got - want)
                              / np.maximum(1.0, np.abs(want))) <= 1e-8


def test_scan_intervals_take_fewer_steps_than_one_segment_rule(monkeypatch):
    # each scan interval of the k = 1 radial 0.3 -> 0.9 sizes its steps by
    # its own closest approach and largest w'; one rule for the whole
    # segment takes 1,334 steps, all sized by r = 0.3
    steps = []
    rk4 = frame._rk4_steps

    def count(*gens):
        steps.append(gens[0].shape[-1])
        return rk4(*gens)
    monkeypatch.setattr(frame, "_rk4_steps", count)
    sol = wang.solve_disk(1, 1e4, 1.0)
    a, b = 0.3 * cmath.exp(0.27j), 0.9 * cmath.exp(0.27j)
    frame.integrate_transport(sol, [a, b])
    whole = oracles.segment_steps(sol.q, a, b)
    assert whole == 1334
    assert sum(steps) == sum(_live_segment_steps(sol.q, a, b)[0]) < whole


def _random_plan_path(rng, kind, k):
    """A random chart polyline in the unit disk: (kind 0) 2 to 6 points,
    (1) a chord whose closest approach to the zero lies inside it, (2) a
    polyline with a zero-length segment, (3, k = 0 only) a path to or
    through z = 0, or (4) a sweep chord on the natural circle of radius
    0.9."""
    m = int(rng.integers(2, 7))
    pts = list(10 ** rng.uniform(-2, 0, m)
               * np.exp(1j * rng.uniform(-math.pi, math.pi, m)))
    if kind == 1:
        u = 1j * pts[0] / abs(pts[0])
        return [pts[0], -pts[0] + 2 * 10 ** rng.uniform(-2, -0.5) * u]
    if kind == 2:
        i = int(rng.integers(m))
        return pts[:i + 1] + pts[i:]
    if kind == 3:
        return [pts[0], 0.0, pts[-1]] if rng.integers(2) else [pts[0], -pts[0]]
    if kind == 4:
        w = 0.9 * 3 / (k + 3) * np.exp(1j * rng.uniform(-math.pi, math.pi, 2))
        spec = "chord:%.4f,%.4f,%.4f,%.4f" % (w[0].real, w[0].imag,
                                              w[1].real, w[1].imag)
        return cli._sweep_path(spec, wang.CubicDifferential(k), 1.0)[0]
    return pts


def test_array_plan_is_the_scalar_plan(monkeypatch):
    # 250 random paths over k = 0..4 and s = 1e0..1e8 (50 of each kind of
    # _random_plan_path): the array plan takes the step counts, nodes,
    # angles, remainders, chart steps and start nodes of planning segment by
    # segment on Python scalars, bit for bit, so Y and the end exponents are
    # the same bytes too; a path over the budget (20,000 here, to keep the
    # paths that pass near the zero at low s fast) is refused with the same
    # step count
    monkeypatch.setattr(frame, "_MAX_STEPS", 20_000)
    core, seen = frame._remainder_transport, {}

    def keep(*args):
        seen["args"] = args
        return core(*args)
    monkeypatch.setattr(frame, "_remainder_transport", keep)
    phi_at, nodes_seen = wang.WangSolution.phi_at, []

    def sample(self, z):
        nodes_seen.append(z)
        return phi_at(self, z)
    monkeypatch.setattr(wang.WangSolution, "phi_at", sample)
    rng, sols = np.random.default_rng(32), {}
    for i in range(250):
        kind = i % 5
        k, s = 0 if kind == 3 else int(rng.integers(5)), 10.0 ** (i % 9)
        if (k, s) not in sols:
            sols[k, s] = wang.solve_disk(k, s, 1.0)
        sol, path = sols[k, s], _random_plan_path(rng, kind, k)
        try:
            D0, D1, ns, *plan = oracles.scalar_plan(sol, path)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                frame.integrate_transport(sol, path)
            continue
        seen.clear()
        nodes_seen.clear()
        Y, got0, got1 = frame.integrate_transport(sol, path)
        assert (got0.tobytes(), got1.tobytes()) == (D0.tobytes(), D1.tobytes())
        if not len(ns):
            assert not seen and Y.tobytes() == np.eye(3).tobytes()
            continue
        nodes, args, F, F_z, dz, first = plan
        _, r, *got, where = seen["args"]
        assert nodes_seen[-1].tobytes() == nodes.tobytes()
        assert r.tobytes() == np.abs(nodes).tobytes()
        for a, b in zip(got, (args, F, F_z, dz, first)):
            assert a.tobytes() == b.tobytes()
        # a new interval starts where a start node skips the last node
        starts = np.flatnonzero(np.diff(first, prepend=-3) == 3)
        assert np.diff(starts, append=len(first)).tolist() == ns.tolist()
        want = core(sol.q, np.abs(nodes), args, F, F_z, dz, first, where)
        assert Y.tobytes() == want.tobytes()


def test_plan_inputs_round_as_on_python_scalars():
    # every ceil of the plan reads |d|, the closest approach t, |w'| and
    # |z0 + t d| of its chart steps as the scalar plan forms them, bit for
    # bit, here on 3,000 random steps at each k = 0..4 and s = 1, 1e4, 1e8;
    # numpy's complex abs and powers round otherwise in 5-35% of cases and
    # x * x unlike x ** 2 in 0.07%, rare enough to pass a plan test
    rng = np.random.default_rng(3)
    z0, d = 10 ** rng.uniform(-3, 0, (2, 3000)) * np.exp(
        2j * math.pi * rng.uniform(size=(2, 3000)))
    for k in range(5):
        for s in (1.0, 1e4, 1e8):
            q = wang.CubicDifferential(k, s)
            want = []
            for a, b in zip(z0.tolist(), d.tolist()):
                t = oracles.nearest(a, b)
                want.append((abs(b), t, abs(q.cube_root(max(abs(a),
                             abs(a + b)), 0.0)), abs(a + t * b)))
            got = np.stack(frame._reach(q, z0, z0 + d, d), axis=1)
            assert got.tobytes() == np.array(want).tobytes()


def test_each_sampler_scans_then_samples_the_nodes(monkeypatch):
    # one call of each sampler scans the path and one more samples the step
    # nodes; the bench's sweep paths (the default radial at k = 1 and the
    # README chord at k = 2, s = 1e2, 1e3 and 1e4) sample 16,076 points,
    # the bench's wang.samples
    calls = []
    for name in ("phi_at", "dz_phi_at"):
        def sample(self, z, name=name, sampler=getattr(wang.WangSolution,
                                                       name)):
            calls.append((name, np.size(z)))
            return sampler(self, z)
        monkeypatch.setattr(wang.WangSolution, name, sample)
    total = 0
    for k, spec in ((1, "radial:0.3,0.9,0.27"),
                    (2, "chord:0.5480,0.0661,0.3211,0.4490")):
        path, _ = cli._sweep_path(spec, wang.CubicDifferential(k), 1.0)
        for s in (1e2, 1e3, 1e4):
            sol = wang.solve_disk(k, s, 1.0)
            calls.clear()
            frame.integrate_transport(sol, path)
            names, sizes = zip(*calls)
            assert names == ("phi_at", "dz_phi_at") * 2
            assert sizes[0] == sizes[1] < sizes[2] == sizes[3]
            total += sum(sizes)
    assert total == 16_076


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_steps_near_the_zero_stay_in_budget(k, monkeypatch):
    # radials each way, a chord and the same chord in 47 segments, all
    # passing 0.01 from the zero, take at most 29,446 steps (k = 1, s = 1e2,
    # the one-segment chord; 133,327 with one step rule per segment), read
    # from the budget refusal after the scan.  s = 1e11 and 1e12 take fewer
    # steps too, and are left out because each of their solves takes ~1 s
    monkeypatch.setattr(frame, "_MAX_STEPS", -1)
    x = math.sqrt(1 - 1e-4)
    chord = [complex(-x, 0.01), complex(x, 0.01)]
    paths = ([0.01 * cmath.exp(0.27j), cmath.exp(0.27j)],
             [cmath.exp(0.27j), 0.01 * cmath.exp(0.27j)], chord,
             list(np.linspace(*chord, 48)))
    for s in (1e2, 1e3, 1e4, 1e6, 1e8, 1e10):
        sol = wang.solve_disk(k, s, 1.0)
        for path in paths:
            with pytest.raises(ValueError, match=r"^path takes") as err:
                frame.integrate_transport(sol, path)
            assert int(str(err.value).split()[2]) <= 29_446


class _FlatField:
    """The exact k = 0 Wang solution, e^(3 phi) = 2 s^2, at any s without a
    disk solve; phi is the flat part as CubicDifferential writes it, shifted
    by a constant c (then it solves no Wang equation)."""

    def __init__(self, s, c=0.0):
        self.q = wang.CubicDifferential(0, s)
        self.c = c
        self.phi = self.q.flat(0.0) + c

    def phi_at(self, z):
        return np.full(np.shape(z), self.phi)

    def dz_phi_at(self, z):
        return np.zeros(np.shape(z), dtype=complex)

    def radial_profile(self, r):
        return self.c, 0.0


def _shifted_flat_weyl_exponents(path, s, c):
    """transport_weyl_exponents for k = 0 and phi = flat + c: the natural-chart
    connection x U + xbar V is constant on each segment, so the inverse
    transport is expm(-G_n) ... expm(-G_1) over the segments' natural
    displacements, each exponential from an eigen-decomposition.  The largest
    log singular value of its S-conjugate and of the inverse are read from
    dense products, the middle one from the determinant 1."""
    U, V = oracles.structure_coefficients(math.log(2.0) / 3.0 + c, 0.0, 1.0)
    S, S_inv = frame.titeica_frame()
    X = X_inv = np.eye(3)
    for a, b in zip(path[:-1], path[1:]):
        x = s ** (1 / 3) * (b - a)
        lam, P = np.linalg.eig(x * U + x.conjugate() * V)
        P_inv = np.linalg.inv(P)
        X = (P * np.exp(-lam)) @ P_inv @ X
        X_inv = X_inv @ (P * np.exp(lam)) @ P_inv
    s1 = math.log(np.linalg.norm(S_inv @ X @ S, 2))
    s3 = -math.log(np.linalg.norm(S_inv @ X_inv @ S, 2))
    return np.array([s1, -s1 - s3, s3]) / s ** (1 / 3)


def test_shifted_flat_transport_is_the_product_of_exponentials(monkeypatch):
    # phi = flat + c makes the remainder a nonzero constant F = c, so B =
    # e^(D_i - D_j) (S^(-1) dW_0 S)_ij varies along the path and every
    # segment takes steps; on a chord, a polyline and paths through and to
    # z = 0 (a regular point at k = 0) the transport is the exact product of
    # exponentials to the step error (3.7e-10; 1e-14 at 1/8 the step)
    steps = []
    rk4 = frame._rk4_steps

    def count(*gens):
        steps.append(gens[0].shape[-1])
        return rk4(*gens)
    monkeypatch.setattr(frame, "_rk4_steps", count)
    s, c = 1e2, 0.1
    sol = _FlatField(s, c)
    for path in ([0.1 + 0.05j, 0.5 + 0.3j], [0.3, 0.2 + 0.4j, -0.3 + 0.1j],
                 [0.5j, 0.5, -0.5], [0.5j, 0.0]):
        steps.clear()
        got = frame.transport_weyl_exponents(sol, path)
        want = _shifted_flat_weyl_exponents(path, s, c)
        assert sum(steps) == sum(sum(_live_segment_steps(sol.q, a, b)[0])
                                 for a, b in zip(path[:-1], path[1:]))
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
    # the real k = 0 solve has F = 0 and transports through z = 0 in closed
    # form
    sol = wang.solve_disk(0, 1e3, 1.0)
    for path in ([0.5j, 0.5, -0.5], [0.5j, 0.0]):
        got = frame.transport_weyl_exponents(sol, path)
        want = _titeica_weyl_exponents(1e3 ** (1 / 3) * (path[-1] - path[0]),
                                       1e3)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("s", [1e2, 1e8, 1e12])
def test_flat_part_rounding_takes_no_step(s, monkeypatch):
    # a sampler whose flat part differs from CubicDifferential's in the last
    # bits (a different formula, or a 2D solve) leaves a remainder of that
    # rounding everywhere; it is taken as zero, so a length-1.9 chord takes
    # no step (a step rule over the whole chord would pass _MAX_STEPS at s =
    # 1e12, and e^(D_i - D_j) would overflow) and equals the closed form
    sol = _FlatField(s)
    sol.phi += 3 * math.ulp(sol.phi)
    assert sol.phi_at(0.5)[()] != sol.q.flat(0.0)
    monkeypatch.setattr(frame.FrameTransport, "push_left", None)
    path = [-0.9 + 0.3j, 0.9 + 0.4j]
    got = frame.transport_weyl_exponents(sol, path)
    want = _titeica_weyl_exponents(s ** (1 / 3) * (path[1] - path[0]), s)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_chunk_folds_match_ten_step_folds(k, monkeypatch):
    # folding once per chunk (and sampling the whole path at once) gives the
    # normalized exponents of folding every 10 steps, on a one-segment
    # radial and on the sweep's 47-segment chord; and the remainder
    # integrator agrees with the chart-frame reference integrator (10-step
    # QR folds, its own step rule) to the larger step error of the two
    radial = [0.3 * cmath.exp(0.27j), 0.9 * cmath.exp(0.27j)]
    chord, _ = cli._sweep_path("chord:0.5487,0.0662,0.3208,0.4480",
                               wang.CubicDifferential(k), 1.0)
    assert len(chord) - 1 >= 40
    for s in (1.0, 1e2, 1e4):
        sol = wang.solve_disk(k, s, 1.0)
        for path in (radial, chord):
            got = frame.transport_weyl_exponents(sol, path)
            with monkeypatch.context() as m:
                m.setattr(frame, "_CHUNK_STEPS", 10)
                want = frame.transport_weyl_exponents(sol, path)
            assert np.max(np.abs(got - want)) <= 1e-14
            # the reference's 0.01 step is off by up to 2.4e-7 at s = 1
            ref = oracles.reference_weyl_exponents(sol, path)
            assert np.max(np.abs(got - ref)) <= (1e-9 if s > 1 else 1e-6)


@pytest.mark.parametrize("s, length", [(1e8, 0.2), (1e10, 0.05),
                                       (1e12, 0.01)])
def test_folds_stay_accurate_at_extreme_s(s, length):
    # the k = 0 remainder is an exact zero, so the transport is the closed
    # Titeica form to rounding at any s; the chart-frame reference with its
    # 1e-5 step floor is off by 3.6e-9, 2.0e-6 and 9.6e-4 here
    sol = _FlatField(s)
    z0, z1 = 0.05, 0.05 + length
    x = s ** (1 / 3) * length
    want = _titeica_weyl_exponents(x, s)
    got = frame.transport_weyl_exponents(sol, [z0, z1])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    ref = oracles.reference_weyl_exponents(sol, [z0, z1])
    assert np.max(np.abs(got - want)) <= np.max(np.abs(ref - want))


@pytest.mark.parametrize("s", [1e2, 1e4, 1e6, 1e8, 1e10, 1e12])
def test_k0_transport_is_the_closed_form_at_any_s(s):
    # on the default radial, a chord and a path across the branch cut
    sol = _FlatField(s)
    for path in ([0.3 * cmath.exp(0.27j), 0.9 * cmath.exp(0.27j)],
                 [0.3 + 0.1j, 0.45 + 0.6j, -0.5 + 0.2j, -0.4 - 0.3j]):
        got = frame.transport_weyl_exponents(sol, path)
        want = _titeica_weyl_exponents(s ** (1 / 3) * (path[-1] - path[0]), s)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_step_error_names_the_step_within_its_segment(monkeypatch):
    # three segments and a zero-length one; phi is NaN only in a disc inside
    # the middle segment, whose steps start several chunks into the path
    sol = wang.solve_disk(1, 1e3, 1.0)
    hole, radius = 0.5 + 0.2j, 0.05
    phi_at = wang.WangSolution.phi_at
    shapes = []

    def nan_in_hole(self, z):
        shapes.append(np.shape(z))
        return np.where(np.abs(z - hole) < radius, math.nan, phi_at(self, z))
    monkeypatch.setattr(wang.WangSolution, "phi_at", nan_in_hole)
    pts = [0.1, 0.5, 0.5, 0.5 + 0.4j, 0.2 + 0.4j]
    ns = [_live_segment_steps(sol.q, a, b)[0] for a, b in zip(pts, pts[1:])
          if b != a]
    assert sum(ns[0]) > frame._CHUNK_STEPS
    # the first step of the middle segment with a node in the disc
    _, steps = _live_segment_steps(sol.q, pts[2], pts[3])
    j = next(i for i, z in enumerate(steps)
             if (np.abs(z - hole) < radius).any())
    assert 0 < j < len(steps) - 1
    want = f"step {j + 1} of {len(steps)} at z={complex(steps[j][0]):.6g} "
    with pytest.raises(StepUnstable, match=re.escape(want)):
        frame.integrate_transport(sol, pts)
    # the scan's sample, then one of each scan interval's own 2n+1 nodes;
    # the zero-length segment has none
    assert len(shapes) == 2
    assert shapes[1] == (sum(2 * n + 1 for m in ns for n in m),)


@pytest.mark.parametrize("s", [1e4, 1e5])
def test_arc_polyline_and_chord_agree(s):
    # the holonomy is path independent: a 120-segment polyline of |z| = 0.8
    # and the chord to the same endpoint give the same exponents, also where
    # they pass the zero on different sides of the remainder's support
    sol = wang.solve_disk(1, s, 1.0)
    for psi in (0.5, 1.0, 2.0):
        arc = list(0.8 * np.exp(1j * np.linspace(0.0, psi, 121)))
        chord = [arc[0], arc[-1]]
        a = frame.transport_weyl_exponents(sol, arc)
        b = frame.transport_weyl_exponents(sol, chord)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
