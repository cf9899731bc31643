import cmath
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from hitchin_limits import cli, polygon, trigroup
from hitchin_limits import surface as sf
from hitchin_limits.errors import NotConverged
from hitchin_limits.tropical import OMEGA

import oracles

TWO_PI = 2 * math.pi


# -- construction and validation --------------------------------------------

@pytest.mark.parametrize("k,radius,angle", [
    (0, 1.0, TWO_PI),
    (1, 1.0, 8 * math.pi / 3),
    (3, 2.0, 4 * math.pi),
])
def test_disk_cone_angle(k, radius, angle):
    disk = sf.build_polynomial_disk(k, radius)
    assert sf.validate(disk) == []
    assert disk.cone_angles[0] == pytest.approx(angle, abs=1e-9)
    assert disk.vertex_orders == {0: k}


def test_disk_rejects_negative_order():
    with pytest.raises(ValueError):
        sf.build_polynomial_disk(-1, 1.0)


def test_disk_stokes_ray_count():
    # 2(k+3) Stokes rays: natural-chart angles pi/6 + m*pi/3 within the cone
    k = 3
    disk = sf.build_polynomial_disk(k, 2.0)
    cone = disk.cone_angles[0]
    stokes = [a for m in range(200)
              if (a := math.pi / 6 + m * math.pi / 3) < cone - 1e-12]
    assert len(stokes) == 2 * (k + 3) == 12
    # each ray, and angles within 1e-11 of it, open the sector ccw of it
    for m, a in enumerate(stokes):
        for d in (-1e-11, 0.0, 1e-11):
            assert polygon.on_stokes_ray(a + d)
            assert polygon.sector_of(a + d) == m + 1


def test_stokes_rays_and_weyl_walls():
    # Stokes rays at pi/6 mod pi/3 belong to the sector ccw of them; walls at
    # 0 mod pi/3 are special directions but not Stokes rays, 0.2 is neither
    for m in (0, 5):
        a = math.pi / 6 + m * math.pi / 3
        for d in (-1e-11, 0.0, 1e-11):
            assert polygon.on_stokes_ray(a + d)
            assert polygon.sector_of(a + d) == m + 1
    for m in (0, 1):
        a = m * math.pi / 3
        assert not polygon.on_stokes_ray(a)
        assert polygon.sector_of(a) == m
        assert polygon.classify_angle_is_special(a)
    assert not polygon.on_stokes_ray(0.2)
    assert polygon.sector_of(0.2) == 0
    assert not polygon.classify_angle_is_special(0.2)


def test_torus_valid_and_flat():
    torus = oracles.build_square_torus()
    assert sf.validate(torus) == []
    assert torus.genus() == 1
    assert all(abs(a - TWO_PI) < 1e-9 for a in torus.cone_angles)


def test_l_surface_genus_two():
    surf = oracles.build_l_surface()
    assert sf.validate(surf) == []
    assert surf.genus() == 2
    assert surf.cone_angles[0] == pytest.approx(6 * math.pi, abs=1e-9)
    assert sum(surf.vertex_orders.values()) == 6  # = 6g - 6


def test_degree_mismatch_detected():
    surf = oracles.build_l_surface()
    bad = sf.CubicSurface(surf.triangles, surf.gluings, vertex_orders={0: 5})
    kinds = {v.kind for v in sf.validate(bad)}
    assert "DegreeMismatch" in kinds
    assert "ConeAngleMismatch" in kinds


def test_edge_length_mismatch_detected():
    tris = [(0.0, 1.0, 1j), (1.0 + 1j, 1j, 1.0)]
    gluings = [
        sf.Gluing((0, 1), (1, 1), 0, 0.0),
        sf.Gluing((0, 0), (1, 0), 0, 1j),
        sf.Gluing((0, 2), (1, 2), 0, 1.0),
    ]
    # stretch one triangle so a glued pair no longer matches
    tris[1] = (1.0 + 1.5j, 1.5j, 1.0)
    bad = sf.CubicSurface(tris, gluings, vertex_orders={})
    kinds = {v.kind for v in sf.validate(bad)}
    assert "EdgeLengthMismatch" in kinds


def test_empty_surface_is_a_violation():
    empty = sf.CubicSurface([], [])
    assert [v.kind for v in sf.validate(empty)] == ["EmptySurface"]


# derandomized and small, so the suite stays reproducible and fast
PROPERTY = settings(derandomize=True, database=None, max_examples=60,
                    deadline=None)
# two unit squares (four triangles); gluings below pair any of their edges
SQUARES = [(0.0, 1.0, 1 + 1j), (0.0, 1 + 1j, 1j),
           (1.0, 2.0, 2 + 1j), (1.0, 2 + 1j, 1 + 1j)]
EDGES = st.tuples(st.integers(0, len(SQUARES) - 1), st.integers(0, 2))
COORD = st.floats(-1e300, 1e300)


@PROPERTY
@given(st.lists(st.builds(sf.Gluing, EDGES, EDGES, st.integers(0, 2),
                          st.builds(complex, COORD, COORD)), max_size=8),
       st.sets(EDGES), st.dictionaries(st.integers(0, 11), st.integers(0, 9)))
def test_validate_never_raises_on_in_range_gluings(gluings, boundary, orders):
    surf = sf.CubicSurface(SQUARES, gluings, vertex_orders=orders,
                           boundary=boundary)
    assert all(isinstance(v, sf.Violation) for v in sf.validate(surf))


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=20)


@st.composite
def _mutated(draw, valid):
    """A valid JSON document with one value, at any depth, replaced."""
    doc = json.loads(json.dumps(valid))
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        if not isinstance(node[key], (dict, list)) or not node[key] \
                or draw(st.booleans()):
            node[key] = draw(JSON)
            return doc
        node = node[key]


@PROPERTY
@given(JSON | _mutated(sf.surface_to_dict(sf.build_polynomial_disk(1, 1.0))))
def test_surface_from_dict_raises_only_value_error(data):
    try:
        sf.surface_from_dict(data)
    except ValueError:
        pass


@PROPERTY
@given(JSON | _mutated(oracles.path_to_dict(sf.synthesize_path(
    [1.0, 0.7], turns=[3.5], orders=[1]))))
def test_path_from_dict_raises_only_value_error(data):
    try:
        sf.path_from_dict(data)
    except ValueError:
        pass


@pytest.mark.parametrize("surf", [
    sf.build_polynomial_disk(1, 1.0),
    oracles.build_l_surface(),
    trigroup.build_orbifold(3, 3, 4, layers=6).surface,
], ids=["disk", "L", "334"])
def test_surface_dict_roundtrip(surf):
    back = sf.surface_from_dict(json.loads(json.dumps(sf.surface_to_dict(surf))))
    assert sf.surface_to_dict(back) == sf.surface_to_dict(surf)
    assert back.triangles == surf.triangles
    assert back.gluings == surf.gluings
    assert back.vertex_orders == surf.vertex_orders
    assert back.boundary == surf.boundary


def test_fan_closure_rotation_forced_by_order():
    for k in (0, 1, 2, 3, 4):
        disk = sf.build_polynomial_disk(k, 1.0)
        u, c = oracles.develop_fan_closure(disk, 0)
        assert abs(u - OMEGA ** (k % 3)) < 1e-12
        assert abs(c) < 1e-12


# -- saddle connection enumeration -------------------------------------------

def hexagon_fan_surface():
    """Closed fan of six unit equilateral triangles around one vertex, the rim
    glued into a cone: a 'hexagon pillow' is overkill; instead reuse the
    order-0 disk of natural radius 1, whose wedges are unit equilateral
    triangles, and mark the rim classes."""
    disk = sf.build_polynomial_disk(0, 1.0)
    orders = dict(disk.vertex_orders)
    for cls in range(disk.n_classes()):
        if cls not in orders:
            orders[cls] = 0
    return sf.CubicSurface(disk.triangles, disk.gluings, vertex_orders=orders,
                           boundary=disk.boundary)


def test_enumerate_on_torus_empty():
    torus = oracles.build_square_torus()
    result = sf.enumerate_saddle_connections(torus, 10.0)
    assert list(result) == []
    assert result.clipped == 0


def test_enumerate_disk_center_to_rim():
    surf = hexagon_fan_surface()
    result = sf.enumerate_saddle_connections(surf, 1.01)
    # center to each of the 6 rim classes plus the 6 rim edges
    lengths = sorted(round(c.length, 9) for c in result)
    assert lengths == [1.0] * 12
    from_center = [c for c in result if c.start == 0 or c.end == 0]
    assert len(from_center) == 6


def test_enumerate_finds_rim_chords():
    surf = hexagon_fan_surface()
    result = sf.enumerate_saddle_connections(surf, math.sqrt(3.0) + 0.01)
    chords = [c for c in result if abs(c.length - math.sqrt(3.0)) < 1e-9]
    # rim vertices two apart: six such chords, each crossing two triangles
    assert len(chords) == 6
    result2 = sf.enumerate_saddle_connections(surf, 2.01)
    diameters = [c for c in result2 if abs(c.length - 2.0) < 1e-9]
    # diameters pass exactly through the marked center, so they are NOT
    # saddle connections (they decompose); none should be reported
    assert diameters == []


@pytest.mark.parametrize("build, count, clipped", [
    # the disk's only marked point is its center: every ray from it leaves
    # through the rim before it meets another marked point
    (lambda: sf.build_polynomial_disk(1, 1.0), 0, 16),
    (lambda: trigroup.build_orbifold(3, 3, 4, layers=9).surface, 257, 457),
    (lambda: trigroup.build_orbifold(3, 3, 4, layers=12).surface, 828, 1266),
], ids=["disk", "orbifold-334", "orbifold-334-12"])
def test_enumerate_counts_rays_clipped_by_the_boundary(build, count, clipped):
    result = sf.enumerate_saddle_connections(build(), 1.8)
    assert len(result) == count
    assert result.clipped == clipped


def _unmarked_center_disk():
    disk = sf.build_polynomial_disk(0, 1.0)
    orders = {cls: 0 for cls in range(disk.n_classes()) if cls != 0}
    return sf.CubicSurface(disk.triangles, disk.gluings, vertex_orders=orders,
                           boundary=disk.boundary)


def test_enumerate_passes_through_unmarked_flat_vertex():
    # unmark the center of the flat disk: diameters become single segments
    result = sf.enumerate_saddle_connections(_unmarked_center_disk(), 2.01)
    diameters = [c for c in result if abs(c.length - 2.0) < 1e-9]
    assert len(diameters) == 3


def test_enumerate_l_surface_core_lengths():
    surf = oracles.build_l_surface()
    result = sf.enumerate_saddle_connections(surf, 1.01)
    # all its saddle connections are loops at the single zero; at length <= 1
    # these are the four unit lattice segments (two horizontal, two vertical
    # in the L), six distinct loop classes
    assert all(c.start == 0 and c.end == 0 for c in result)
    assert sorted(round(c.length, 9) for c in result) == [1.0] * 6


def test_enumerate_stable_under_barycentric_refinement():
    surf = oracles.build_l_surface()
    refined = oracles.barycentric_refine(surf)
    assert sf.validate(refined) == []
    a = sf.enumerate_saddle_connections(surf, 2.3)
    b = sf.enumerate_saddle_connections(refined, 2.3)
    pa = sorted((round(c.length, 8), round(c.angle % (TWO_PI / 3), 6)) for c in a)
    pb = sorted((round(c.length, 8), round(c.angle % (TWO_PI / 3), 6)) for c in b)
    assert len(pa) == len(pb)
    for (la, aa), (lb, ab) in zip(pa, pb):
        assert la == pytest.approx(lb, abs=1e-7)


def test_enumeration_deterministic_order():
    surf = hexagon_fan_surface()
    r1 = sf.enumerate_saddle_connections(surf, 2.0)
    r2 = sf.enumerate_saddle_connections(surf, 2.0)
    assert [(c.start, c.end, c.period) for c in r1] == \
        [(c.start, c.end, c.period) for c in r2]
    keys = [(round(c.length, 9), round(c.angle, 9), c.start) for c in r1]
    assert keys == sorted(keys)


def _bits(result):
    return ([(c.start, c.end, c.period.real.hex(), c.period.imag.hex())
             for c in result], result.clipped)


def _orbifold(p, q, r, layers):
    return lambda: trigroup.build_orbifold(p, q, r, layers=layers).surface


@pytest.mark.parametrize("build, max_length", [
    (_orbifold(3, 3, 4, 8), 2.3),
    (_orbifold(3, 3, 4, 12), 1.8),
    (_orbifold(3, 4, 5, 9), 1.8),
    (_orbifold(4, 4, 4, 9), 1.8),
    (_orbifold(3, 4, 4, 10), 1.8),
    (_orbifold(3, 3, 3, 9), 1.8),
    (lambda: sf.build_polynomial_disk(0, 2.5), 3.1),
    (lambda: sf.build_polynomial_disk(3, 2.5), 3.1),
    (hexagon_fan_surface, 2.01),
    (lambda: oracles.barycentric_refine(hexagon_fan_surface()), 2.3),
    (_unmarked_center_disk, 2.01),
    (oracles.build_l_surface, 3.1),
    (lambda: oracles.barycentric_refine(oracles.build_l_surface()), 2.3),
    (lambda: oracles.barycentric_refine(_orbifold(3, 3, 4, 6)()), 2.3),
], ids=["334-8", "334-12", "345-9", "444-9", "344-10", "333-9", "disk0",
        "disk3", "hexagon-fan", "hexagon-fan-refined", "unmarked-center",
        "l-surface", "l-surface-refined", "334-6-refined"])
def test_enumeration_matches_corner_by_corner_search(build, max_length):
    # the same connections, periods, order and clipped count, bit for bit;
    # the L-surfaces' connections are all self-loops, and refined surfaces
    # have unmarked flat vertices that rays pass straight
    surf = build()
    assert _bits(sf.enumerate_saddle_connections(surf, max_length)) == \
        _bits(oracles.reference_saddle_connections(surf, max_length))


@pytest.mark.parametrize("max_length", [0.0, -1.0, math.nan, math.inf])
def test_enumerate_rejects_bad_length(max_length):
    with pytest.raises(ValueError, match="positive and finite"):
        sf.enumerate_saddle_connections(hexagon_fan_surface(), max_length)


def test_enumeration_explosion_guard(monkeypatch):
    surf = trigroup.build_orbifold(3, 3, 4, layers=9).surface
    monkeypatch.setattr(sf, "_MAX_DEVELOPED", 3)
    with pytest.raises(NotConverged, match="saddle connection search exploded"):
        sf.enumerate_saddle_connections(surf, 1.8)


def test_explosion_guard_counts_as_the_corner_by_corner_search(monkeypatch):
    # every limit either trips both searches or neither: the guard counts
    # the triangles each corner develops
    surf = oracles.barycentric_refine(oracles.build_l_surface())
    tripped = []
    for limit in range(18, 26):
        monkeypatch.setattr(sf, "_MAX_DEVELOPED", limit)
        outcomes = []
        for search in (sf.enumerate_saddle_connections,
                       oracles.reference_saddle_connections):
            try:
                outcomes.append(_bits(search(surf, 1.6)))
            except NotConverged:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1]
        tripped.append(outcomes[0] is None)
    assert tripped[0] and not tripped[-1]


@pytest.mark.parametrize("build", [
    lambda: trigroup.build_orbifold(3, 3, 4, layers=9).surface,
    oracles.build_l_surface,
], ids=["orbifold-334", "l-surface"])
def test_direction_at_fan_angle_inverts_fan_angle(build):
    surf = build()
    for cls in range(surf.n_classes()):
        if not surf.fan_closed[cls]:
            continue
        for (t, v) in surf.fans[cls]:
            base = surf.edge_vector(t, v)
            for frac in (0.0, 0.3, 0.7):
                d = base * cmath.exp(1j * frac * surf.corner_angle(t, v))
                angle = oracles.fan_angle(surf, t, v, d)
                (t2, v2), d2 = oracles.direction_at_fan_angle(surf, cls, angle)
                assert surf.class_of(t2, v2) == cls
                assert oracles.fan_angle(surf, t2, v2, d2) == pytest.approx(
                    angle, abs=1e-9)


# -- geodesic paths ----------------------------------------------------------

def test_synthesize_and_validate_path():
    p = sf.synthesize_path([1.0, 2.0], turns=[math.pi + 0.3], orders=[1])
    assert sf.validate_path(p) == []
    bad = sf.synthesize_path([1.0, 2.0], turns=[math.pi + 0.3], orders=[1])
    jun = sf.Junction(order=0, theta_in=0.0, theta_out=2.0)  # < pi turn
    broken = sf.GeodesicPath(bad.segments, (jun,), False)
    assert sf.validate_path(broken) != []


def test_path_reversal_roundtrip():
    p = sf.synthesize_path([1.0, 2.0, 1.5],
                           turns=[math.pi + 0.2, math.pi + 0.5],
                           orders=[1, 2])
    r = p.reversed()
    assert sf.validate_path(r) == []
    rr = r.reversed()
    for a, b in zip(p.segments, rr.segments):
        assert a.period == pytest.approx(b.period, abs=1e-12)
    # turn angles at matching junctions swap sides
    for jp, jr in zip(p.junctions, reversed(r.junctions)):
        assert jp.turn_angles[0] == pytest.approx(jr.turn_angles[1], abs=1e-9)


# -- file round trips --------------------------------------------------------

def test_surface_roundtrip(tmp_path):
    surf = sf.build_polynomial_disk(2, 1.5)
    fn = tmp_path / "disk.json"
    sf.save_surface(surf, str(fn))
    back = sf.load_surface(str(fn))
    assert sf.validate(back) == []
    assert back.triangles == surf.triangles
    assert back.vertex_orders == surf.vertex_orders


def test_path_roundtrip(tmp_path):
    p = sf.synthesize_path([1.0, 2.0], turns=[math.pi + 0.3], orders=[1])
    fn = tmp_path / "path.json"
    oracles.save_path(p, str(fn))
    back = sf.load_path(str(fn))
    assert back.closed == p.closed
    for a, b in zip(p.segments, back.segments):
        assert a.period == b.period
    for a, b in zip(p.junctions, back.junctions):
        assert a.theta_in == b.theta_in and a.theta_out == b.theta_out


@pytest.mark.parametrize("build", [
    oracles.build_square_torus, oracles.build_l_surface,
    lambda: oracles.barycentric_refine(oracles.build_square_torus()),
    lambda: oracles.barycentric_refine(oracles.build_l_surface()),
    *[lambda k=k: sf.build_polynomial_disk(k, 1.0) for k in range(4)],
    lambda: trigroup.build_orbifold(3, 3, 4, layers=12).surface,
    lambda: trigroup.build_orbifold(4, 4, 4, layers=7).surface,
], ids=["torus", "l-surface", "torus-refined", "l-surface-refined",
        "disk-k0", "disk-k1", "disk-k2", "disk-k3", "orbifold-334-12",
        "orbifold-444-7"])
def test_fan_walk_classes_match_union_find(build):
    surf = build()
    classes, fans, angles = oracles.reference_vertex_classes(surf)
    assert surf.vertex_classes == classes
    assert surf.fans == fans
    assert surf.cone_angles == angles
    for cls, members in enumerate(classes):
        assert all(surf.class_of(t, v) == cls for t, v in members)


def _gluing(a, b, trans=(0.0, 0.0)):
    return {"edgeA": list(a), "edgeB": list(b), "rot": 0, "trans": list(trans)}


_SQUARE = [[[0, 0], [1, 0], [0, 1]], [[1, 1], [0, 1], [1, 0]]]
_TORUS = [_gluing((0, 1), (1, 1)), _gluing((0, 0), (1, 0), (0, 1)),
          _gluing((0, 2), (1, 2), (1, 0))]
_WEDGES = [[[0, 0], [1, 0], [0.5, 0.8]], [[0, 0], [0.5, 0.8], [-0.5, 0.8]],
           [[0, 0], [-0.5, 0.8], [-1, 0]]]


@pytest.mark.parametrize("triangles, gluings, boundary, want", [
    (_SQUARE, _TORUS + _TORUS[:1], [],
     ["NotInvolutive: ((0, 1),)", "NotInvolutive: ((1, 1),)"]),
    (_SQUARE, [_gluing((0, 0), (0, 0)), _TORUS[0], _TORUS[2]], [[1, 0]],
     ["FixedEdge: ((0, 0),)", "NotInvolutive: ((0, 0),)",
      "UnmarkedConical: (0, 3.141592653589793)"]),
    (_WEDGES, [_gluing((0, 2), (1, 0)), _gluing((1, 2), (2, 0)),
               _gluing((2, 2), (0, 0))], [],
     ["TransitionMismatch: ((2, 2), (0, 0))", "UnpairedEdge: ((0, 1),)",
      "UnpairedEdge: ((1, 1),)", "UnpairedEdge: ((2, 1),)",
      "UnmarkedConical: (0, 3.1415926535897936)"]),
    (_SQUARE, _TORUS + [_gluing((0, 1), (1, 2))], [],
     ["EdgeLengthMismatch: ((0, 1), (1, 2))",
      "TransitionMismatch: ((0, 1), (1, 2))",
      "NotInvolutive: ((0, 1),)", "NotInvolutive: ((1, 2),)",
      "UnmarkedConical: (0, 2.356194490192345)"]),
], ids=["duplicated-edge", "self-glued-edge", "inconsistent-chain",
        "extra-gluing"])
def test_validate_lines_on_malformed_gluings(tmp_path, capsys, triangles,
                                            gluings, boundary, want):
    # the lines the union-find classes gave on these malformed gluings
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"triangles": triangles, "gluings": gluings,
                                "vertexOrders": {}, "boundary": boundary}))
    assert cli.main(["surface", "validate", "--in", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == want
