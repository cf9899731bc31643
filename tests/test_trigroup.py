import math

import numpy as np
import pytest

from hitchin_limits import surface as sf
from hitchin_limits import building, polygon, trigroup, tropical

import oracles

CBRT2 = 2.0 ** (1.0 / 3.0)


@pytest.fixture(scope="module")
def orb334():
    return trigroup.build_orbifold(3, 3, 4, layers=9)


def test_334_valences_and_orders(orb334):
    surf = orb334.surface
    assert sf.validate(surf) == []
    for t, ord_ in ((0, 3), (1, 3), (2, 4)):
        classes = oracles.interior_classes_of_type(orb334, t)
        assert classes
        for cls in classes:
            assert len(surf.fans[cls]) == 2 * ord_
            assert surf.vertex_orders[cls] == ord_ - 3
    assert oracles.lifted_order_bookkeeping(orb334)


def test_nondeformable_rejected():
    with pytest.raises(ValueError, match="order-2 vertex"):
        trigroup.build_orbifold(2, 3, 7)


def test_333_euclidean_tiles_plane():
    orb = trigroup.build_orbifold(3, 3, 3, layers=6)
    assert (orb.p, orb.q, orb.r) == (3, 3, 3)
    assert sf.validate(orb.surface) == []
    # the development genuinely tiles: distinct triangles have distinct
    # centroids in the common plane development
    cents = [sum(tri) / 3 for tri in orb.surface.triangles]
    for i in range(len(cents)):
        for j in range(i + 1, len(cents)):
            assert abs(cents[i] - cents[j]) > 0.2


def test_canonical_marking_positive_directions(orb334):
    marking = oracles.canonical_marking(orb334)
    for cls, dirs in marking.items():
        assert dirs  # every interior vertex has positive outgoing edges
        for d in dirs:
            assert (d % (2 * math.pi / 3)) < 1e-8 or \
                (2 * math.pi / 3 - d % (2 * math.pi / 3)) < 1e-8


def test_unit_edges_enumerated(orb334):
    res = sf.enumerate_saddle_connections(orb334.surface, 1.01)
    assert len(res) > 0
    assert all(abs(c.length - 1.0) < 1e-9 for c in res)


def test_median_connections_enumerated(orb334):
    res = sf.enumerate_saddle_connections(orb334.surface, math.sqrt(3) + 0.01)
    med = [c for c in res if abs(c.length - math.sqrt(3)) < 1e-9]
    assert med
    for c in med:
        # medians run at pi/6 mod pi/3 to the edge directions
        r = (c.angle - math.pi / 6) % (math.pi / 3)
        assert min(r, math.pi / 3 - r) < 1e-9


def test_straight_positive_cycle():
    cyc = trigroup.straight_positive_cycle(3, 3, 4)
    assert cyc.closed and len(cyc.segments) == 3
    assert sf.validate_path(cyc) == []
    assert {s.start for s in cyc.segments} == {0, 1, 2}
    total = tropical.path_singular_exponents(seg.period for seg in cyc.segments)
    assert total.x1 == pytest.approx(3 / CBRT2, abs=1e-12)


def test_straight_median_cycle():
    cyc = trigroup.straight_median_cycle(3, 3, 4)
    assert cyc.closed and len(cyc.segments) == 2
    assert sf.validate_path(cyc) == []
    for s in cyc.segments:
        assert s.length == pytest.approx(math.sqrt(3), abs=1e-9)


def test_cycle_closing_in_another_phase_is_rejected():
    # the legs of the positive cycle, but the last turn leaves the start's
    # orbifold type rotated by pi/3: the labels match, the direction is off
    # every turn by 2*pi/3 of the start's
    assert trigroup.trace_cycle((3, 3, 4), 2, (1, 0), [math.pi] * 3).closed
    with pytest.raises(ValueError, match="direction"):
        trigroup.trace_cycle((3, 3, 4), 2, (1, 0),
                             [math.pi, math.pi, math.pi + math.pi / 3])
    with pytest.raises(ValueError, match="labels"):
        trigroup.trace_cycle((3, 3, 4), 2, (1, 0), [math.pi] * 2)


@pytest.mark.parametrize("turn", [math.pi / 2, 1.0, math.pi + 1e-6])
def test_trace_cycle_rejects_a_turn_off_the_lattice(turn):
    with pytest.raises(ValueError, match="not a multiple of pi/3"):
        trigroup.trace_cycle((3, 3, 4), 2, (1, 0), [math.pi, turn, math.pi])


@pytest.mark.parametrize("start_type", [3, -1])
def test_trace_cycle_rejects_a_start_type_outside_0_to_2(start_type):
    # a bad argument, not a cycle that fails to close on the labels
    with pytest.raises(ValueError, match=rf"^cycle start type {start_type} "
                                         r"is not 0, 1 or 2$"):
        trigroup.trace_cycle((3, 3, 4), start_type, (1, 0), [math.pi] * 3)


def test_rotation_identity_bit_exact():
    families = [trigroup.straight_positive_cycle(3, 3, 4)]
    a = trigroup.spectrum(families)
    turned = trigroup.rotated_paths(families, 2 * math.pi)
    b = trigroup.spectrum(turned)
    assert a.projectivized.tobytes() == b.projectivized.tobytes()
    assert turned[0].junctions == families[0].junctions


def test_spectrum_values():
    cyc = trigroup.straight_positive_cycle(3, 3, 4)
    spec = trigroup.spectrum([cyc])
    assert len(spec.values) == 1
    assert spec.values[0].x1 == pytest.approx(3 / CBRT2, abs=1e-12)
    assert np.linalg.norm(spec.projectivized) == pytest.approx(1.0, abs=1e-12)


def test_spectrum_empty_family():
    spec = trigroup.spectrum([])
    assert len(spec.values) == 0
    assert spec.projectivized.size == 0


def test_spectrum_respects_symmetry():
    # the two order-3 vertices play symmetric roles: seeding the median cycle
    # at either gives the same spectrum values
    cycles = [trigroup.trace_cycle((3, 3, 4), t, (-1, 2), [math.pi] * 2)
              for t in (0, 1)]
    assert [j.order for j in cycles[0].junctions] == \
        [j.order for j in cycles[1].junctions]
    s0, s1 = (tropical.path_singular_exponents(
        seg.period for seg in cyc.segments).as_tuple() for cyc in cycles)
    assert s0 == s1


def test_boundary_probe_positive():
    fam = [trigroup.straight_positive_cycle(3, 3, 4),
           trigroup.straight_median_cycle(3, 3, 4)]
    grid = [2 * math.pi * i / 12 for i in range(12)]
    assert trigroup.boundary_injectivity_probe(fam, grid) > 1e-4


def test_boundary_probe_single_theta_vacuous():
    fam = [trigroup.straight_positive_cycle(3, 3, 4)]
    assert trigroup.boundary_injectivity_probe(fam, [0.0]) == math.inf


def test_boundary_probe_single_class_degenerates():
    # a family of one angular class meets itself at symmetric theta pairs:
    # its probe distance is at rounding level (1.1e-16 for the positive
    # cycle, 0 for the median one)
    grid = [2 * math.pi * i / 12 for i in range(12)]
    for cycle in (trigroup.straight_positive_cycle,
                  trigroup.straight_median_cycle):
        fam = [cycle(3, 3, 4)]
        assert trigroup.boundary_injectivity_probe(fam, grid) <= 1e-15


def test_other_groups_build():
    for pqr in ((3, 4, 4), (4, 4, 4), (3, 3, 5)):
        orb = trigroup.build_orbifold(*pqr, layers=5)
        assert sf.validate(orb.surface) == []
        assert oracles.lifted_order_bookkeeping(orb)


def test_triangle_budget_refuses_the_build_naming_the_group(monkeypatch):
    # a patch at the budget builds; one triangle over it is refused
    n = len(trigroup.build_orbifold(3, 4, 5, layers=6).surface.triangles)
    monkeypatch.setattr(trigroup, "_MAX_TRIANGLES", n)
    assert len(trigroup.build_orbifold(3, 4, 5, layers=6).surface.triangles) == n
    monkeypatch.setattr(trigroup, "_MAX_TRIANGLES", n - 1)
    with pytest.raises(ValueError, match=rf"^\(3,4,5\) orbifold at 6 layers "
                                         rf"takes more than the budget of "
                                         rf"{n - 1} triangles$"):
        trigroup.build_orbifold(3, 4, 5, layers=6)


def test_orbifold_fan_closure_rotation(orb334):
    surf = orb334.surface
    for cls in surf.marked_classes():
        k = surf.vertex_orders[cls]
        u, _ = oracles.develop_fan_closure(surf, cls)
        assert abs(u - tropical.OMEGA ** (k % 3)) < 1e-9


@pytest.mark.parametrize("pqr", [(3, 3, 4), (3, 4, 5), (4, 4, 4), (3, 3, 7)])
def test_zip_leaves_no_full_fan_open(pqr):
    orb = trigroup.build_orbifold(*pqr, layers=6)
    surf = orb.surface
    assert sf.validate(surf) == []
    corners = []
    for cls, fan in enumerate(surf.fans):
        full = 2 * pqr[orb.orbifold_type[cls]]
        if surf.fan_closed[cls]:
            assert len(fan) == full
        else:
            assert len(fan) < full
        corners.extend(fan)
    assert sorted(corners) == [(t, v) for t in range(len(surf.triangles))
                               for v in range(3)]


@pytest.mark.parametrize("cycle", [trigroup.straight_positive_cycle,
                                   trigroup.straight_median_cycle],
                         ids=["positive", "median"])
@pytest.mark.parametrize("pqr", [(3, 3, 4), (3, 4, 5), (4, 4, 4), (3, 4, 4)])
def test_cycles_are_weakly_convex(pqr, cycle):
    # the median cycles run along Stokes directions, with turns of exactly
    # pi at their zeros on (4,4,4)
    path = cycle(*pqr)
    total = tropical.path_singular_exponents(
        seg.period for seg in path.segments)
    assert building.weak_convexity_check(path)
    assert polygon.tropical_norm_exponent(path) == pytest.approx(
        total.x1, abs=1e-12)
    assert -polygon.tropical_norm_exponent(path.reversed()) == pytest.approx(
        total.x3, abs=1e-12)


@pytest.mark.parametrize("pqr", [(3, 3, 4), (3, 4, 5), (4, 4, 4), (3, 4, 4),
                                 (5, 5, 5), (6, 6, 6), (3, 3, 10)])
def test_rotated_cycles_stay_geodesic_and_weakly_convex(pqr):
    # turning the differential turns the junction angles with the periods,
    # so every rotated cycle stays chart-aligned at its zeros
    family = [trigroup.straight_positive_cycle(*pqr),
              trigroup.straight_median_cycle(*pqr)]
    for i in range(12):
        for path in trigroup.rotated_paths(family, 2 * math.pi * i / 12):
            assert sf.validate_path(path) == []
            assert building.weak_convexity_check(path)


def _same_cycle(lattice, patch):
    """Whether the two closed paths agree up to a cyclic shift of their
    segments, with each patch period a cube root of unity times the
    lattice one (charts differ by those) to 1e-15."""
    n = len(lattice.segments)
    if len(patch.segments) != n:
        return False
    for shift in range(n):
        if all((lattice.junctions[i].order, lattice.junctions[i].zero)
               == (patch.junctions[(i + shift) % n].order,
                   patch.junctions[(i + shift) % n].zero)
               and min(abs(lattice.segments[i].period - tropical.OMEGA ** k
                           * patch.segments[(i + shift) % n].period)
                       for k in range(3)) <= 1e-15
               for i in range(n)):
            return True
    return False


@pytest.mark.parametrize("pqr", [(3, 3, 4), (3, 4, 5), (4, 4, 4), (3, 4, 4),
                                 (3, 3, 3)])
def test_lattice_cycles_match_the_patch_walk(pqr):
    # the cycles the parent patch walk found on a 9-layer patch; on (4,4,4)
    # the patch's median runs the other way round
    orb = trigroup.build_orbifold(*pqr, layers=9)
    assert _same_cycle(trigroup.straight_positive_cycle(*pqr),
                       oracles.patch_positive_cycle(orb))
    median = oracles.patch_median_cycle(orb)
    if pqr == (4, 4, 4):
        median = median.reversed()
    assert _same_cycle(trigroup.straight_median_cycle(*pqr), median)
