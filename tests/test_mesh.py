from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

import pillowfold.mesh as mesh_module
from pillowfold.deformation import (DeformationSchedule, assemble_deformed,
                                    deformed_quarter)
from pillowfold.development import double_rectangle_mesh
from pillowfold.errors import DegenerateTriangle, GridTooCoarse
from pillowfold.mesh import (_CONTACT_FACTOR, TriMesh, _box_pairs,
                             assemble_reflected, export_obj, export_svg,
                             export_trace, min_triangle_area_check,
                             quarter_grid_v, sample_quarter,
                             self_intersection_pairs)
from pillowfold.pillowbox import QuarterParametrization, assemble_box
from pillowfold.profiles import FundamentalData, ProfileFunction

import oracles as oc
from strategies import admissible_data


def test_trimesh_basics_on_cube():
    v, f = oc.unit_cube_mesh()
    cube = TriMesh(v, f)
    assert cube.n_vertices == 8 and cube.n_faces == 12
    assert cube.n_edges() == 18
    assert cube.boundary_edge_count() == 0
    assert cube.nonmanifold_edge_count() == 0
    assert cube.is_closed() and cube.orientation_consistent()
    assert cube.euler_characteristic() == 2
    assert abs(cube.triangle_areas().sum() - 6.0) < 1e-12
    assert abs(cube.diagonal() - np.sqrt(3.0)) < 1e-15
    with pytest.raises(IndexError):
        TriMesh(v, np.array([[0, 1, 99]]))


def test_edge_table_on_open_cube_with_fin():
    # the cube without its bottom face, plus a fin triangle on the edge 4-5:
    # four + two boundary edges and one edge shared by three triangles
    v, f = oc.unit_cube_mesh()
    v = np.vstack([v, [0.5, -0.5, 1.5]])
    f = np.vstack([f[2:], [[4, 5, 8]]])
    m = TriMesh(v, f)
    expected = {}
    for tri in f.tolist():
        for a, b in zip(tri, tri[1:] + tri[:1]):
            key = (min(a, b), max(a, b))
            expected[key] = expected.get(key, 0) + 1
    edges, counts = m.edges_with_counts()
    assert [tuple(e) for e in edges.tolist()] == sorted(expected)
    assert counts.tolist() == [expected[k] for k in sorted(expected)]
    assert m.n_edges() == len(expected) == 19
    assert m.boundary_edge_count() == sum(
        c == 1 for c in expected.values()) == 6
    assert m.nonmanifold_edge_count() == sum(
        c > 2 for c in expected.values()) == 1
    assert not m.is_closed()
    assert m.euler_characteristic() == len(v) - len(expected) + len(f) == 1
    # computed once: every query reads the same read-only arrays
    assert m.edges_with_counts()[0] is edges
    assert not edges.flags.writeable and not counts.flags.writeable


def test_quarter_grid_v_rows():
    z = np.array([0.0, 0.4, 0.0])
    vmat = quarter_grid_v(z, 1.0, 2, 2)
    assert vmat.shape == (5, 3)
    # bottom row is the vertical end, middle row the crease, top the rim
    assert np.allclose(vmat[0], z - 1.0)
    assert np.allclose(vmat[2], 0.0)
    assert np.allclose(vmat[-1], z)
    # v increases monotonically within each column
    assert np.all(np.diff(vmat, axis=0) >= 0.0)


def quarter_mesh(data, n_s: int, n_v: int) -> TriMesh:
    """One folded quarter, sampled on the n_s x n_v grid, as an open mesh."""
    s = np.linspace(0.0, data.length, n_s + 1)
    verts, _, faces, _ = sample_quarter(
        QuarterParametrization(data).X, s, data.zeta.eval(s, 0), data.b,
        n_v // 2, n_v - n_v // 2)
    return TriMesh(verts, faces)


def test_coarse_quarter_triangle_counts():
    # corner columns collapse where zeta = 0: two quads degenerate
    demo = FundamentalData.demo()
    assert quarter_mesh(demo, 2, 2).n_faces == 6
    # a profile with nonzero ends keeps all 8 triangles of the 2x2 grid
    flat = FundamentalData(1.0, ProfileFunction.polynomial([0.3], 2.0))
    assert quarter_mesh(flat, 2, 2).n_faces == 8
    with pytest.raises(GridTooCoarse):
        assemble_reflected(QuarterParametrization(demo).X,
                           np.linspace(0.0, demo.length, 2), demo.b, 2)


def test_quarter_mesh_contains_exact_crease_samples():
    demo = FundamentalData.demo()
    quarter = QuarterParametrization(demo)
    m = quarter_mesh(demo, 8, 4)
    s_values = np.linspace(0.0, 2.0, 9)
    crease = quarter.X(s_values, np.zeros(9))
    for p in crease:
        assert np.any(np.all(m.vertices == p, axis=1))


def test_quarter_mesh_nondegenerate_at_working_resolution():
    m = quarter_mesh(FundamentalData.demo(), 64, 32)
    min_triangle_area_check(m)
    assert m.triangle_areas().min() > 1e-14 * m.diagonal() ** 2


def test_min_area_check_rejects_sliver():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0]])
    with pytest.raises(DegenerateTriangle):
        min_triangle_area_check(TriMesh(verts, np.array([[0, 1, 2], [0, 1, 3]])))


def _pairs_checked_by_oracle(mesh: TriMesh) -> list:
    pairs = self_intersection_pairs(mesh)
    assert pairs == oc.brute_force_intersections(mesh, _CONTACT_FACTOR)
    return pairs


def _broad_phase_checked_by_scan(mesh: TriMesh, labels) -> None:
    """The broad phase under the given face labels yields exactly the pairs
    of one slab and different pieces, among those whose boxes an O(F^2) scan
    finds overlapping within eps, each once."""
    P = mesh.vertices[mesh.faces]
    lo, hi = P.min(axis=1), P.max(axis=1)
    eps = _CONTACT_FACTOR * mesh.diagonal()
    i, j = np.triu_indices(mesh.n_faces, 1)
    near = np.all((lo[i] <= hi[j] + eps) & (lo[j] <= hi[i] + eps), axis=1)
    if labels is not None:
        near &= (labels[i, 0] == labels[j, 0]) & (labels[i, 1] != labels[j, 1])
    found = [pair for batch in _box_pairs(lo, hi, labels, eps)
             for pair in zip(*(k.tolist() for k in batch))]
    assert sorted(found) == list(zip(i[near].tolist(), j[near].tolist()))


def test_self_intersection_pairs_examples():
    # a triangle piercing another: one offending pair
    verts = np.array([
        [0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0],
        [0.5, 0.5, -1.0], [1.5, 0.5, 1.0], [0.5, 1.5, 1.0],
        [0.1, 0.1, 0.0], [1.9, 0.1, 0.0], [0.1, 1.9, 0.0],
    ])
    pierced = TriMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
    assert _pairs_checked_by_oracle(pierced) == [(0, 1)]
    # coplanar overlap is tangential contact, not an intersection
    coplanar = TriMesh(verts, np.array([[0, 1, 2], [6, 7, 8]]))
    assert _pairs_checked_by_oracle(coplanar) == []
    # a triangle and its mirror image in z = 0, their common edge split to
    # z = -3e-10 and +3e-10 by rounding: the boxes overlap only within the
    # contact tolerance, across z = 0, and the narrow phase counts the edge
    mirrored = np.array([[0.0, 0.0, -3e-10], [1.0, 0.0, -3e-10],
                         [0.0, 0.5, -1.0]])
    mirrored = np.vstack([mirrored, mirrored * [1.0, 1.0, -1.0]])
    assert _pairs_checked_by_oracle(
        TriMesh(mirrored, np.array([[0, 1, 2], [3, 4, 5]]))) == [(0, 1)]
    # a closed cube: neighbours share a vertex, the other faces are apart
    assert _pairs_checked_by_oracle(TriMesh(*oc.unit_cube_mesh())) == []
    # one face: nothing to pair
    assert _pairs_checked_by_oracle(TriMesh(verts, np.array([[0, 1, 2]]))) == []


def test_self_intersection_pairs_past_a_power_of_two():
    # 16 triangles of a 4x2 grid in z = 0 and one long triangle across them,
    # whose y-range covers every grid face
    x, y = np.meshgrid(np.arange(5.0), np.arange(3.0))
    grid = np.stack([x.ravel(), y.ravel(), np.zeros(15)], axis=1)
    quads = [(5 * r + c, 5 * r + c + 1, 5 * r + c + 6, 5 * r + c + 5)
             for r in range(2) for c in range(4)]
    faces = [f for a, b, c, d in quads for f in ((a, b, c), (a, c, d))]
    verts = np.vstack([grid, [[0.3, 0.4, -1.0], [3.7, 0.6, 1.0],
                              [0.3, 1.6, 1.0]]])
    mesh = TriMesh(verts, np.array(faces + [[15, 16, 17]]))
    pairs = _pairs_checked_by_oracle(mesh)
    assert len(pairs) >= 4 and all(j == 16 for _, j in pairs)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_self_intersection_pairs_of_deformed_demo(t):
    mesh = assemble_deformed(deformed_quarter(
        FundamentalData.demo(), DeformationSchedule.linear(), t), 8, 4)
    pairs = _pairs_checked_by_oracle(mesh)
    # the corollary: only the open states between the ends self-intersect
    assert bool(pairs) == (0.0 < t < 1.0)
    # batches of about 100 sweep candidates find the same pairs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_NARROW_CHUNK", 100)
        assert self_intersection_pairs(mesh) == pairs


_LATTICE = st.integers(-3, 3).map(float)
_NUDGES = (3e-10, 3e-9, 3e-8)   # about the contact tolerance, 1e-9 x diagonal


@st.composite
def triangle_soups(draw) -> TriMesh:
    """2 to 40 triangles over a small vertex pool on a lattice whose z takes
    three values, so faces share vertices and lie exactly coplanar; some
    pool vertices get a copy nudged by about the contact tolerance."""
    n_pool = draw(st.integers(3, 12))
    pool = draw(st.lists(st.tuples(_LATTICE, _LATTICE,
                                   st.integers(-1, 1).map(float)),
                         min_size=n_pool, max_size=n_pool))
    verts = np.array(pool)
    nudged = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                     st.integers(0, 2),
                                     st.sampled_from(_NUDGES + tuple(
                                         -d for d in _NUDGES))),
                           max_size=6))
    for k, axis, delta in nudged:
        v = verts[k].copy()
        v[axis] += delta
        verts = np.vstack([verts, v])
    index = st.integers(0, len(verts) - 1)
    n_faces = draw(st.integers(2, 40))
    faces = draw(st.lists(st.lists(index, min_size=3, max_size=3, unique=True),
                          min_size=n_faces, max_size=n_faces))
    return TriMesh(verts, np.array(faces))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(triangle_soups())
def test_self_intersection_pairs_match_oracle_on_soups(mesh):
    _pairs_checked_by_oracle(mesh)
    # unlabelled: every box pair that overlaps within eps
    _broad_phase_checked_by_scan(mesh, None)
    # three slabs of two pieces each, interleaved across the face order
    k = np.arange(mesh.n_faces)
    labels = np.stack([k % 3, k // 3 % 2], axis=1)
    _broad_phase_checked_by_scan(mesh, labels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_NARROW_CHUNK", 3)
        _broad_phase_checked_by_scan(mesh, None)
        _broad_phase_checked_by_scan(mesh, labels)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(admissible_data(), st.floats(0.05, 0.95))
def test_labelled_broad_phase_on_admissible_states(data, t_open):
    # same-slab, cross-piece pairs lose no hit of the O(F^2) scan, folded,
    # open or flat; 8 examples draw all four profile kinds
    for t in (0.0, t_open, 1.0):
        mesh = assemble_deformed(
            deformed_quarter(data, DeformationSchedule.linear(), t), 12, 6)
        slab, piece = mesh.face_labels.T
        assert np.bincount(piece).tolist() == [mesh.n_faces // 4] * 4
        # slab j lies between the column planes x_j and x_{j+1}
        x = mesh.vertices[mesh.faces][:, :, 0]
        lo_x, hi_x = np.array([[x[slab == k].min(), x[slab == k].max()]
                               for k in range(12)]).T
        assert np.all(lo_x < hi_x) and np.all(hi_x[:-1] <= lo_x[1:])
        assert bool(_pairs_checked_by_oracle(mesh)) == (t == t_open)
        _broad_phase_checked_by_scan(mesh, mesh.face_labels)


def _narrow_phase_input(mesh: TriMesh) -> list:
    """The pairs self_intersection_pairs hands to the narrow phase, sorted;
    its hits must equal the oracle's."""
    seen = []
    batch = mesh_module._tri_tri_batch

    def spy(P, normal, length, i, j, eps):
        seen.extend(zip(i.tolist(), j.tolist()))
        return batch(P, normal, length, i, j, eps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_tri_tri_batch", spy)
        _pairs_checked_by_oracle(mesh)
    return sorted(seen)


def _unlabelled_narrow_phase_input(mesh: TriMesh) -> list:
    """By plain loops: the face pairs whose boxes overlap within eps, that
    share no vertex index, and that are not two faces with all corners at
    one z (+0.0 equals -0.0)."""
    P = mesh.vertices[mesh.faces]
    lo, hi = P.min(axis=1), P.max(axis=1)
    eps = _CONTACT_FACTOR * mesh.diagonal()
    level = [set(z) if len(set(z)) == 1 else None
             for z in P[:, :, 2].tolist()]
    faces = [set(f) for f in mesh.faces.tolist()]
    return [(i, j) for i in range(mesh.n_faces)
            for j in range(i + 1, mesh.n_faces)
            if not faces[i] & faces[j]
            and (level[i] is None or level[i] != level[j])
            and np.all((lo[i] <= hi[j] + eps) & (lo[j] <= hi[i] + eps))]


_LEVELS = (0.0, -0.0, 1.0)
_SIGNED_NUDGES = _NUDGES + tuple(-d for d in _NUDGES)


@st.composite
def level_soups(draw) -> TriMesh:
    """Faces on the levels z = +-0 (the sign drawn per corner) and z = 1,
    one corner sometimes nudged off by about the contact tolerance, or on
    the tilted plane z = x / 2 + y / 4; corners may repeat or line up, which
    gives zero-area faces.  Then slivers 1e-3 wide on a level, tilted by a
    nudge of the apex; copies of some faces over copied vertices (a double
    cover, either orientation); and faces over any vertices."""
    xy = st.tuples(_LATTICE, _LATTICE)
    verts, faces = [], []

    def add_face(corners):
        faces.append([len(verts), len(verts) + 1, len(verts) + 2])
        verts.extend(corners)

    def level(z):
        return draw(st.sampled_from((0.0, -0.0))) if z == 0.0 else z

    for _ in range(draw(st.integers(1, 12))):
        plane = draw(st.sampled_from(_LEVELS + ("tilted",)))
        corners = [[x, y, x / 2 + y / 4 if plane == "tilted" else level(plane)]
                   for x, y in draw(st.lists(xy, min_size=3, max_size=3))]
        corners[0][2] += draw(st.sampled_from((0.0,) * 4 + _SIGNED_NUDGES))
        add_face(corners)
    for _ in range(draw(st.integers(0, 3))):
        (x0, y0), (x1, y1) = draw(st.lists(xy, min_size=2, max_size=2,
                                           unique=True))
        z = draw(st.sampled_from(_LEVELS))
        apex = [(x0 + x1) / 2 - 1e-3 * (y1 - y0),
                (y0 + y1) / 2 + 1e-3 * (x1 - x0),
                z + draw(st.sampled_from(_SIGNED_NUDGES))]
        add_face([[x0, y0, level(z)], [x1, y1, level(z)], apex])
    for k in draw(st.lists(st.integers(0, len(faces) - 1), max_size=3)):
        corners = [list(verts[i]) for i in faces[k]]
        add_face(corners[::-1] if draw(st.booleans()) else corners)
    index = st.integers(0, len(verts) - 1)
    faces += draw(st.lists(st.lists(index, min_size=3, max_size=3,
                                    unique=True), max_size=8))
    return TriMesh(np.array(verts), np.array(faces))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(level_soups())
def test_narrow_phase_skips_exactly_the_level_pairs_at_one_z(mesh):
    # nudged, tilted and sliver faces reach the narrow phase; two faces
    # with all corners at one z do not, whatever the signs of their zeros
    assert _narrow_phase_input(mesh) == _unlabelled_narrow_phase_input(mesh)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_NARROW_CHUNK", 3)
        assert self_intersection_pairs(mesh) == oc.brute_force_intersections(
            mesh, _CONTACT_FACTOR)


def test_near_level_slivers_cross():
    # two slivers 1e-3 wide in z = 0, crossing at the origin, each apex
    # lifted by 3e-9, below the contact tolerance (5.7e-9): each straddles
    # the other's plane, so they cross along a segment about 7e-4 long
    verts = np.array([[-2.0, 0.0, 0.0], [2.0, 0.0, -0.0], [0.0, 1e-3, 3e-9],
                      [0.0, -2.0, -0.0], [0.0, 2.0, 0.0], [-1e-3, 0.0, 3e-9]])
    mesh = TriMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
    assert _narrow_phase_input(mesh) == [(0, 1)]
    assert self_intersection_pairs(mesh) == [(0, 1)]
    # with both apexes in z = 0 the pair is level at one z, and coplanar
    verts[[2, 5], 2] = [0.0, -0.0]
    assert _narrow_phase_input(TriMesh(verts, mesh.faces)) == []


@pytest.mark.parametrize("n", range(1, 7))
def test_double_rectangle_never_reaches_the_narrow_phase(n):
    rect = double_rectangle_mesh(oc.TWO_A, 2.0, n)
    assert _narrow_phase_input(rect) == []


@settings(derandomize=True, max_examples=8, deadline=None)
@given(admissible_data())
def test_flat_states_never_reach_the_narrow_phase(data):
    # every face of the flat state lies in z = 0, with +0.0 and -0.0 mixed
    mesh = assemble_deformed(
        deformed_quarter(data, DeformationSchedule.linear(), 1.0), 12, 6)
    assert np.all(mesh.vertices[:, 2] == 0.0)
    P = mesh.vertices[mesh.faces]
    eps = _CONTACT_FACTOR * mesh.diagonal()
    assert sum(len(i) for i, _ in _box_pairs(P.min(axis=1), P.max(axis=1),
                                             mesh.face_labels, eps)) > 0
    assert _narrow_phase_input(mesh) == []


def test_level_meshes_skip_the_broad_phase():
    # with every corner at one z the z-level rule drops every pair, so the
    # broad phase is not run: the flat state, and that mesh moved to z = 0.3
    schedule = DeformationSchedule.linear()
    data = FundamentalData.demo()
    flat = assemble_deformed(deformed_quarter(data, schedule, 1.0), 12, 6)
    raised = TriMesh(flat.vertices + [0.0, 0.0, 0.3], flat.faces,
                     face_labels=flat.face_labels)
    opened = assemble_deformed(deformed_quarter(data, schedule, 0.5), 12, 6)
    calls = []

    def spy(*args):
        calls.append(len(args[0]))
        return _box_pairs(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_box_pairs", spy)
        assert self_intersection_pairs(flat) == []
        assert self_intersection_pairs(raised) == []
        assert calls == []
        assert self_intersection_pairs(opened) != []
    assert calls == [opened.n_faces]


def test_face_labels_of_the_double_rectangle():
    rect = double_rectangle_mesh(oc.TWO_A, 2.0, 6)
    # slab = column of cells, piece = sheet; two triangles per cell and sheet
    assert rect.face_labels[:8].tolist() == [[0, 0], [0, 0], [0, 1],
                                             [0, 1]] * 2
    assert np.bincount(rect.face_labels[:, 0]).tolist() == [24] * 6
    moved = TriMesh(rect.vertices + [0.5, -1.0, 2.0], rect.faces,
                    face_labels=rect.face_labels)
    assert np.array_equal(moved.face_labels, rect.face_labels)
    assert _pairs_checked_by_oracle(moved) == []
    _broad_phase_checked_by_scan(moved, moved.face_labels)
    with pytest.raises(ValueError):
        TriMesh(rect.vertices, rect.faces, face_labels=rect.face_labels[1:])


def test_box_mesh_statistics():
    box = assemble_box(QuarterParametrization(FundamentalData.demo()), 16,
                       8)
    assert box.weld_report["boundary_edge_count"] == 0
    assert box.is_closed()
    # every face uses the welded vertex pool, no orphans
    assert set(np.unique(box.faces)) == set(range(box.n_vertices))


_CORRESPONDENCES = ("vertical_end", "endpoint_columns", "horizontal_end")


@settings(derandomize=True, max_examples=25, deadline=None)
@given(admissible_data(), st.floats(0.05, 0.95))
def test_assembly_of_admissible_boxes(data, t):
    schedule = DeformationSchedule.linear()
    box = assemble_box(QuarterParametrization(data), 8, 4)
    assert box.is_closed() and box.euler_characteristic() == 2
    assert box.orientation_consistent()
    bound = (2.0 * data.half_width()) * (2.0 * data.b) \
        * (2.0 * data.max_height())
    assert 0.0 < box.signed_volume() < bound
    # in between, only the horizontal end leaves the mirror plane z = 0
    mid = assemble_deformed(deformed_quarter(data, schedule, t), 8, 4)
    assert [mid.weld_report[k] for k in _CORRESPONDENCES] == [
        "welded", "welded", "open"]
    for mesh, X in ((box, QuarterParametrization(data).X),
                    (mid, deformed_quarter(data, schedule, t).X)):
        vertices, faces, statuses = oc.loop_assembly(X, data, 8, 4)
        assert np.array_equal(mesh.vertices, vertices)
        assert np.array_equal(mesh.faces, faces)
        assert statuses == {k: mesh.weld_report[k] for k in _CORRESPONDENCES}


def test_obj_round_trip(tmp_path):
    box = assemble_box(QuarterParametrization(FundamentalData.demo()), 12,
                       6)
    p1 = tmp_path / "box.obj"
    p2 = tmp_path / "box2.obj"
    export_obj(box, p1)
    loaded = oc.load_obj(p1)
    assert loaded.n_vertices == box.n_vertices
    assert np.array_equal(loaded.faces, box.faces)
    assert np.max(np.abs(loaded.vertices - box.vertices)) < 1e-8 * box.diagonal()
    # once through the 9-digit format, the round trip is exact
    export_obj(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_obj_format(tmp_path):
    v, f = oc.unit_cube_mesh()
    path = tmp_path / "cube.obj"
    export_obj(TriMesh(v, f), path)
    lines = path.read_text(encoding="ascii").splitlines()
    vlines = [l for l in lines if l.startswith("v ")]
    flines = [l for l in lines if l.startswith("f ")]
    assert len(vlines) == 8 and len(flines) == 12
    assert vlines[0] == "v 0 0 0"
    assert flines[0] == "f 1 3 2"
    back = oc.load_obj(path)
    assert np.array_equal(back.vertices, v)


def test_obj_matches_the_fstring_writer(tmp_path):
    corners = np.array([[-0.0, 5e-324, 1e21], [0.1 + 0.2, -1e-300, 1.0],
                        [np.pi, -2.5e-7, 123456789.0]])
    meshes = [TriMesh(corners, np.array([[0, 1, 2], [2, 1, 0]])),
              TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)),
              assemble_deformed(deformed_quarter(
                  FundamentalData.demo(), DeformationSchedule.linear(), 0.5),
                  96, 48)]
    for k, mesh in enumerate(meshes):
        path = tmp_path / f"{k}.obj"
        export_obj(mesh, path)
        assert path.read_bytes() == oc.fstring_obj(
            mesh.vertices, mesh.faces).encode("ascii")


def _writes_fstring_bytes(mesh: TriMesh, path) -> bool:
    export_obj(mesh, path)
    return path.read_bytes() == oc.fstring_obj(
        mesh.vertices, mesh.faces).encode("ascii")


# values that '%.9g' spells in every way it can: signed zeros, subnormals,
# the extremes, infinities, NaN of either sign, and both sides of its switch
# to exponent notation (below 1e-4, from 1e9 up, and where rounding to nine
# digits crosses it)
_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                   2.2250738585072014e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308, np.inf, -np.inf, np.nan, -np.nan,
                   1e-4, -1e-4, 9.999999999e-5, 9.9999999949e-5,
                   0.00010000000005, 1e-5, 1e9, -1e9, 999999999.0,
                   999999999.4, 999999999.5, 1e9 + 0.5, 123456789.0, 1e21]


def _bits_to_float(k: int) -> float:
    return float(np.array([k], dtype=np.uint64).view(np.float64)[0])


_coordinates = st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                         st.floats(allow_nan=True, allow_infinity=True),
                         st.integers(0, 2 ** 64 - 1).map(_bits_to_float))


@settings(derandomize=True, max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pool=st.lists(_coordinates, min_size=1, max_size=24),
       picks=st.lists(st.integers(0, 2 ** 16), min_size=3, max_size=90))
@example(pool=_SPECIAL_FLOATS, picks=list(range(3 * len(_SPECIAL_FLOATS))))
def test_obj_writer_matches_the_fstring_writer_on_any_coordinates(
        pool, picks, tmp_path):
    # coordinates picked from a small pool, so values repeat within and
    # across vertices
    n = len(picks) // 3
    vertices = np.array([pool[k % len(pool)] for k in picks[:3 * n]])
    faces = np.array([[k, (k + 1) % n, n - 1] for k in range(n)])
    assert _writes_fstring_bytes(TriMesh(vertices.reshape(n, 3), faces),
                                 tmp_path / "m.obj")


@pytest.mark.parametrize("n", [9, 10, 99, 100, 9999, 10000])
@settings(derandomize=True, max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_obj_indices_across_digit_boundaries(n, data, tmp_path):
    index = st.integers(0, n - 1)
    faces = data.draw(st.lists(st.tuples(index, index, index), max_size=40))
    faces.append((n - 1, 0, n - 1))
    vertices = np.linspace(-1.0, 1.0, 3 * n).reshape(n, 3)
    assert _writes_fstring_bytes(TriMesh(vertices, np.array(faces)),
                                 tmp_path / "m.obj")


def test_obj_of_vertices_without_faces(tmp_path):
    v, _ = oc.unit_cube_mesh()
    mesh = TriMesh(v, np.zeros((0, 3), dtype=np.int64))
    assert _writes_fstring_bytes(mesh, tmp_path / "m.obj")
    assert oc.load_obj(tmp_path / "m.obj").n_vertices == 8


@pytest.mark.parametrize("k", [1, 2])
def test_obj_block_edges(k, monkeypatch, tmp_path):
    block = 4
    monkeypatch.setattr(mesh_module, "_OBJ_BLOCK", block)
    for n_vertices in (k * block - 1, k * block, k * block + 1):
        vertices = np.arange(3.0 * n_vertices).reshape(-1, 3) / 7.0
        for n_faces in (k * block - 1, k * block, k * block + 1):
            faces = np.arange(3 * n_faces).reshape(-1, 3) % n_vertices
            assert _writes_fstring_bytes(TriMesh(vertices, faces),
                                         tmp_path / "m.obj")


def test_orientation_of_closed_meshes_with_one_flipped_face():
    for mesh in (TriMesh(*oc.unit_cube_mesh()),
                 double_rectangle_mesh(oc.TWO_A, 2.0, 3),
                 assemble_box(QuarterParametrization(FundamentalData.demo()),
                              8, 4)):
        assert mesh.orientation_consistent()
        for k in range(0, mesh.n_faces, 7):
            faces = mesh.faces.copy()
            faces[k] = faces[k, ::-1]
            assert not TriMesh(mesh.vertices, faces).orientation_consistent()
            assert not oc.directed_edges_once(faces)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(triangle_soups(), st.integers(0, 39))
def test_orientation_matches_a_directed_edge_count(mesh, k):
    faces = mesh.faces.copy()
    faces[k % len(faces)] = faces[k % len(faces), ::-1]
    for f in (mesh.faces, faces):
        assert TriMesh(mesh.vertices, f).orientation_consistent() \
            == oc.directed_edges_once(f)


def test_svg_pattern_output(tmp_path):
    from pillowfold.development import pattern_graph
    demo = FundamentalData.demo()
    psi = pattern_graph(demo)
    xs = np.linspace(0.0, psi.length, 129)
    ys = np.asarray(psi.eval(xs, 0))
    path = tmp_path / "pattern.svg"
    export_svg(path, psi.length, 2.0, [np.stack([xs, ys], axis=1),
                                       np.stack([xs, 2.0 - ys], axis=1)])
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    rect = root.find(f"{ns}rect")
    assert abs(float(rect.get("width")) - oc.TWO_A) < 1e-6
    polys = root.findall(f"{ns}polyline")
    assert len(polys) == 2
    pts = np.array([[float(u) for u in chunk.split(",")]
                    for chunk in polys[0].get("points").split()])
    # y is flipped into SVG coordinates: y_svg = height - y
    assert abs(pts[0, 0]) < 1e-9 and abs(pts[0, 1] - 2.0) < 1e-9
    assert abs(pts[-1, 0] - oc.TWO_A) < 1e-6 and abs(pts[-1, 1] - 2.0) < 1e-9
    # crease pattern slope stays strictly below 1 in magnitude
    d = np.diff(pts, axis=0)
    assert np.max(np.abs(d[:, 1] / d[:, 0])) < 1.0


def test_trace_round_trip(tmp_path):
    rows = [{"t": 0.0, "closed": True, "volume": 1.25},
            {"t": 1.0, "closed": True, "volume": 0.0}]
    path = tmp_path / "trace.json"
    export_trace(rows, path)
    with open(path, "r", encoding="ascii") as fh:
        assert json.load(fh) == rows
