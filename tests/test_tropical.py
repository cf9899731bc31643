import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hitchin_limits import tropical
from hitchin_limits.surface import synthesize_path

CBRT2 = 2.0 ** (1.0 / 3.0)


def test_segment_period_one():
    se = tropical.segment_exponents(1.0)
    assert se.weyl.as_tuple() == pytest.approx(
        (1 / CBRT2, 1 / CBRT2, -CBRT2 ** 2), abs=1e-12)


def test_segment_period_i():
    se = tropical.segment_exponents(cmath.exp(1j * math.pi / 2))
    root3 = math.sqrt(3.0)
    assert se.weyl.as_tuple() == pytest.approx(
        (root3 / CBRT2, 0.0, -root3 / CBRT2), abs=1e-12)


def _quadrature_exponents(period, n=4000):
    """Independent oracle: integrate the three cube roots of dz^3 along the
    segment by Simpson quadrature of Re(omega^j * dz)."""
    ts = np.linspace(0.0, 1.0, 2 * n + 1)
    out = []
    for j in range(3):
        integrand = np.real(tropical.OMEGA ** j * period * np.ones_like(ts))
        # Simpson weights
        w = np.ones_like(ts)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        val = (ts[1] - ts[0]) / 3.0 * np.sum(w * integrand)
        out.append(-tropical.CBRT4 * val)
    return sorted(out, reverse=True)


@pytest.mark.parametrize("theta", [0.2, 0.7, 1.9, 3.3, 5.1])
@pytest.mark.parametrize("length", [0.5, 1.0, 2.7])
def test_segment_generic_against_quadrature(theta, length):
    period = length * cmath.exp(1j * theta)
    se = tropical.segment_exponents(period)
    oracle = _quadrature_exponents(period)
    assert se.weyl.as_tuple() == pytest.approx(tuple(oracle), rel=1e-9)


def test_zero_period_rejected():
    with pytest.raises(ValueError, match="period must be nonzero"):
        tropical.segment_exponents(0.0)


def test_trace_free():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = complex(rng.normal(), rng.normal())
        if p == 0:
            continue
        se = tropical.segment_exponents(p)
        assert abs(sum(se.nu)) < 1e-12 * max(1.0, abs(p))


def test_sorted_triple_invariances():
    rng = np.random.default_rng(3)
    for _ in range(30):
        p = complex(rng.normal(), rng.normal())
        if abs(p) < 1e-3:
            continue
        base = tropical.segment_exponents(p).weyl.as_tuple()
        rot = tropical.segment_exponents(tropical.OMEGA * p).weyl.as_tuple()
        conj = tropical.segment_exponents(p.conjugate()).weyl.as_tuple()
        assert rot == pytest.approx(base, abs=1e-12)
        assert conj == pytest.approx(base, abs=1e-12)


def test_walls_tie_the_top_or_bottom_pair():
    # walls where the differential is real positive (angle 0 mod 2*pi/3)
    # double the top pair; the other walls double the bottom pair
    for m in range(6):
        theta = m * math.pi / 3.0
        x1, x2, x3 = tropical.segment_exponents(
            cmath.exp(1j * theta)).weyl.as_tuple()
        tied, apart = ((x1, x2), (x2, x3)) if m % 2 == 0 else ((x2, x3),
                                                               (x1, x2))
        assert tied[0] == pytest.approx(tied[1], abs=1e-12)
        assert apart[0] - apart[1] > 1.0
    x1, x2, x3 = tropical.segment_exponents(cmath.exp(0.2j)).weyl.as_tuple()
    assert x1 - x2 > 0.1 and x2 - x3 > 0.1


def test_path_sum_two_segments():
    vals = tropical.path_singular_exponents([1.0, 1j]).as_tuple()
    root3 = math.sqrt(3.0)
    expected = (1 / CBRT2 + root3 / CBRT2, 1 / CBRT2, -CBRT2 ** 2 - root3 / CBRT2)
    assert vals == pytest.approx(expected, abs=1e-12)


def test_path_norm_exponent():
    assert tropical.path_singular_exponents([1.0]).x1 == pytest.approx(1 / CBRT2)
    root3 = math.sqrt(3.0)
    assert tropical.path_singular_exponents([1.0, 1j]).x1 == pytest.approx(
        (1 + root3) / CBRT2)


# chart periods of a path: nonzero, over six decades of length
_periods = st.lists(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                                       allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=8)
_props = settings(derandomize=True, database=None, max_examples=80,
                  deadline=None)


def _rounding_scale(*paths):
    """Absolute tolerance for triples that agree up to the rounding of
    their per-segment terms."""
    return 1e-13 * (1.0 + sum(abs(p) for path in paths for p in path))


@_props
@given(periods=_periods)
def test_reversal_antisymmetry_exact(periods):
    fwd = tropical.path_singular_exponents(periods)
    bwd = tropical.path_singular_exponents([-p for p in reversed(periods)])
    # bitwise: negation is exact in floating point
    assert bwd.x1 == -fwd.x3
    assert bwd.x2 == -fwd.x2
    assert bwd.x3 == -fwd.x1


@_props
@given(p=_periods, q=_periods)
def test_concatenation_additivity(p, q):
    whole = tropical.path_singular_exponents(p + q)
    parts = np.add(tropical.path_singular_exponents(p).as_tuple(),
                   tropical.path_singular_exponents(q).as_tuple())
    assert whole.as_tuple() == pytest.approx(tuple(parts),
                                             abs=_rounding_scale(p, q))


@_props
@given(periods=_periods)
def test_full_rotation_fixes_outputs(periods):
    rotated = [tropical.OMEGA * p for p in periods]  # differential rotated by 2*pi
    a = tropical.path_singular_exponents(periods).as_tuple()
    b = tropical.path_singular_exponents(rotated).as_tuple()
    assert b == pytest.approx(a, abs=_rounding_scale(periods))


@_props
@given(periods=_periods)
def test_conjugation_fixes_outputs(periods):
    # conjugation permutes each segment's cube-root triple
    conjugated = [p.conjugate() for p in periods]
    a = tropical.path_singular_exponents(periods).as_tuple()
    b = tropical.path_singular_exponents(conjugated).as_tuple()
    assert b == pytest.approx(a, abs=_rounding_scale(periods))


def test_closed_unit_cycle_value():
    # two unit wall-direction segments: norm exponent 2 * 2^(-1/3)
    path = synthesize_path([1.0, 1.0],
                           turns=[math.pi, 5 * math.pi / 3],
                           orders=[1, 1], closed=True)
    total = tropical.path_singular_exponents(seg.period for seg in path.segments)
    assert total.x1 == pytest.approx(2 / CBRT2, abs=1e-12)
