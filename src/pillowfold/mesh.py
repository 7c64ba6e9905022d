"""Indexed triangle meshes: grid sampling, structured welding, queries, file IO.

The assembly helpers here know the layout of a quarter grid (rows of constant
v-fraction, columns of constant s, crease row at v = 0) so that reflected
copies can be welded by explicit row/column correspondences instead of global
coordinate hashing.  That distinction matters at the flat stage, where four
boundary rows coincide in space but only specific pairs are identified.

The same layout labels each face of an assembled mesh with a slab, the
column interval of the quad it came from, and a piece, the reflected quarter
(or flat sheet) it belongs to.  The self-intersection broad phase tests only
faces of one slab in different pieces, which loses no hit: x depends on s
alone, so faces of different slabs meet at most in a shared column plane,
where their column edges cross in points; and each piece is embedded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateTriangle, GridTooCoarse, IoError,
                     NonFiniteEvaluation, WeldFailure)
from .profiles import BC_TOL

_DEDUPE_FACTOR = 1e-13     # in-column duplicate snap, relative to bbox diagonal
_WELD_TOL_FACTOR = 1e-6    # weld tolerance, relative to bbox diagonal
_CONTACT_FACTOR = 1e-9     # seam contact tolerance for intersection tests
_DEGENERATE_AREA_FACTOR = 1e-14
_SVG_MARGIN = 0.05         # SVG padding, relative to the larger side


@dataclass
class TriMesh:
    """Vertices (n, 3) float64 and triangles (m, 3) int64, 0-based.

    face_labels, where the layout is known, is (m, 2): each face's slab and
    piece (see above).  The undirected edge table, the face corners, the
    face normals and the bounding-box diagonal are computed on first use and
    kept; vertices and faces are not reassigned after construction, so they
    cannot go stale.
    """

    vertices: np.ndarray
    faces: np.ndarray
    weld_report: dict | None = field(default=None, compare=False)
    face_labels: np.ndarray | None = field(default=None, compare=False)
    _edge_table: tuple | None = field(default=None, init=False, compare=False,
                                      repr=False)
    _normals: tuple | None = field(default=None, init=False, compare=False,
                                   repr=False)
    _corners: np.ndarray | None = field(default=None, init=False,
                                        compare=False, repr=False)
    _diagonal: float | None = field(default=None, init=False, compare=False,
                                    repr=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.faces = np.ascontiguousarray(self.faces, dtype=np.int64)
        if self.faces.size and (self.faces.min() < 0
                                or self.faces.max() >= len(self.vertices)):
            raise IndexError("face index out of range")
        if self.face_labels is not None \
                and np.shape(self.face_labels) != (len(self.faces), 2):
            raise ValueError("face_labels needs one (slab, piece) per face")

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def n_faces(self) -> int:
        return int(self.faces.shape[0])

    def diagonal(self) -> float:
        """Length of the bounding box's diagonal, computed once per mesh."""
        if self._diagonal is None:
            if not len(self.vertices):
                self._diagonal = 0.0
            else:
                span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
                self._diagonal = float(np.linalg.norm(span))
        return self._diagonal

    def corners(self) -> np.ndarray:
        """Each face's three corners, vertices[faces], (m, 3, 3); a read-only
        array computed once per mesh."""
        if self._corners is None:
            self._corners = self.vertices[self.faces]
            self._corners.flags.writeable = False
        return self._corners

    def _edge_keys(self, undirected: bool) -> np.ndarray:
        """Each face edge (i, j) as the int64 key i * n_vertices + j, with
        i < j when undirected."""
        f = self.faces.T
        i, j = np.concatenate(f), np.concatenate(f[[1, 2, 0]])
        if undirected:
            i, j = np.minimum(i, j), np.maximum(i, j)
        return i * self.n_vertices + j

    def edges_with_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected edges (k, 2), sorted, with the number of incident
        triangles; read-only arrays computed once per mesh."""
        if self._edge_table is None:
            keys, counts = np.unique(self._edge_keys(undirected=True),
                                     return_counts=True)
            edges = np.stack(np.divmod(keys, self.n_vertices), axis=1)
            edges.flags.writeable = counts.flags.writeable = False
            self._edge_table = (edges, counts)
        return self._edge_table

    @property
    def _edge_counts(self) -> np.ndarray:
        """Triangles per edge. Reads the stored table without re-entering
        edges_with_counts, so a profile of that method counts computations."""
        return (self._edge_table or self.edges_with_counts())[1]

    def n_edges(self) -> int:
        return int(self._edge_counts.size)

    def boundary_edge_count(self) -> int:
        return int(np.count_nonzero(self._edge_counts == 1))

    def nonmanifold_edge_count(self) -> int:
        return int(np.count_nonzero(self._edge_counts > 2))

    def is_closed(self) -> bool:
        return bool(self.n_faces and np.all(self._edge_counts == 2))

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges() + self.n_faces

    def orientation_consistent(self) -> bool:
        """True when no directed edge is traversed twice in the same sense."""
        keys = np.sort(self._edge_keys(undirected=False))
        return not np.any(keys[1:] == keys[:-1])

    def signed_volume(self) -> float:
        """Sum of det(p0, p1, p2) / 6 over the triangles: the enclosed volume
        when the mesh is closed and consistently oriented."""
        p = self.corners()
        return float(np.einsum('ij,ij->', p[:, 0],
                               np.cross(p[:, 1], p[:, 2])) / 6.0)

    def face_normals(self) -> tuple[np.ndarray, np.ndarray]:
        """Each face's normal cross(p1 - p0, p2 - p0), (m, 3), and its
        length, (m,); read-only arrays computed once per mesh.  Every
        operation is per face, so the rows of a subset carry the same bits
        as the same products taken over that subset alone."""
        if self._normals is None:
            p = self.corners()
            normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
            length = np.linalg.norm(normal, axis=1)
            normal.flags.writeable = length.flags.writeable = False
            self._normals = (normal, length)
        return self._normals

    def triangle_areas(self) -> np.ndarray:
        return 0.5 * self.face_normals()[1]


# ---------------------------------------------------------------------------
# Quarter-grid sampling and triangulation
# ---------------------------------------------------------------------------

def quarter_grid_v(heights: np.ndarray, b: float, n_lower: int,
                   n_upper: int) -> np.ndarray:
    """Per-column v samples from v = h - b up to v = h, h the column's
    height, crease row at 0.

    Rows run bottom (vertical end) to top (horizontal end); row n_lower is
    exactly v = 0 so the crease is a mesh polyline.
    """
    z = np.asarray(heights, dtype=float)
    lower = np.multiply.outer(1.0 - np.arange(n_lower) / n_lower, z - b)
    upper = np.multiply.outer(np.arange(n_upper + 1) / n_upper, z)
    return np.concatenate([lower, upper])


def _grid_indices(points: np.ndarray, snap_tol: float):
    """Assign vertex ids over a (rows, cols, 3) grid, merging vertically
    coincident neighbours (collapsed corner columns).  Ids run up each
    column in turn."""
    new = np.ones(points.shape[:2], dtype=bool)
    new[1:] = np.linalg.norm(np.diff(points, axis=0), axis=-1) > snap_tol
    idx = np.cumsum(new.T, dtype=np.int64).reshape(new.T.shape).T - 1
    return points.transpose(1, 0, 2)[new.T], idx


def _grid_faces(idx: np.ndarray, crease_row: int) -> tuple:
    """Triangulate the quad grid, diagonal split toward the crease row; the
    triangles that a collapsed column makes degenerate are dropped.  Returns
    the faces and the column interval (slab) of each."""
    a, bb = idx[:-1, :-1], idx[:-1, 1:]
    d, c = idx[1:, :-1], idx[1:, 1:]
    above = (np.arange(len(idx) - 1) >= crease_row)[:, None]
    tris = np.where(above, [[a, d, c], [a, c, bb]], [[a, d, bb], [bb, d, c]])
    tris = tris.transpose(2, 3, 0, 1).reshape(-1, 3)
    slabs = np.tile(np.arange(a.shape[1]).repeat(2), a.shape[0])
    keep = np.all(tris != np.roll(tris, 1, axis=1), axis=1)
    return tris[keep], slabs[keep]


def sample_quarter(X, s_values: np.ndarray, heights: np.ndarray, b: float,
                   n_lower: int, n_upper: int):
    """Evaluate X on the quarter grid; returns (vertices, idx, faces, slabs).

    idx, shape (rows, cols) with rows = n_lower + n_upper + 1, gives the
    vertex id of each grid point; slabs the column interval of each face.
    """
    s = np.asarray(s_values, dtype=float)
    vmat = quarter_grid_v(heights, b, n_lower, n_upper)
    smat = np.broadcast_to(s, vmat.shape)
    pts = X(smat, vmat)
    if not np.all(np.isfinite(pts)):
        raise NonFiniteEvaluation("surface sampler returned non-finite points")
    scale = float(np.linalg.norm(pts.max(axis=(0, 1)) - pts.min(axis=(0, 1))))
    verts, idx = _grid_indices(pts, _DEDUPE_FACTOR * max(scale, 1.0))
    faces, slabs = _grid_faces(idx, crease_row=n_lower)
    return verts, idx, faces, slabs


# ---------------------------------------------------------------------------
# Reflected assembly with structured welding
# ---------------------------------------------------------------------------

# Piece k of the box is the quarter with its coordinates multiplied by
# _PIECE_SIGNS[k], and y moved up by 2b where it flips: piece 1 is the rho_V
# image, piece 2 the rho_H image, piece 3 both.
_PIECE_SIGNS = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0],
                         [1.0, 1.0, -1.0], [1.0, -1.0, -1.0]])


def assemble_reflected(X, s_values, b: float, n_v: int) -> TriMesh:
    """Weld the four reflected copies of a quarter into one mesh.

    The quarter X is sampled in columns at the given abscissae (at least 3),
    each from v = h - b up to its height h, the y of X(s, 0) on the crease;
    a first or last height within BC_TOL of 0 is snapped to 0.
    Reflections: rho_V about the plane y = b, rho_H about z = 0. Corresponding
    boundaries: vertical-end rows between a piece and its rho_V image, the
    s-endpoint columns and horizontal-end rows between a piece and its rho_H
    image.  Each vertex pair within _WELD_TOL_FACTOR x the bounding-box
    diagonal is welded.  The vertical end and the endpoint columns are
    required: any pair outside the tolerance raises WeldFailure.  The
    horizontal end is welded when it lies in z = 0, as at lam in {0, 1},
    and reported open otherwise.  The weld report gives each
    correspondence's status and worst gap, and the tolerance.
    Each face is labelled with its slab and its piece k (see _PIECE_SIGNS);
    X must be a quarter map, whose x depends on s alone and increases with
    it, and which is injective.
    """
    s_values = np.asarray(s_values, dtype=float)
    if s_values.size < 3 or n_v < 2:
        raise GridTooCoarse("need n_s >= 2 and n_v >= 2")
    heights = np.array(X(s_values, 0.0)[:, 1])
    ends = heights[[0, -1]]
    heights[[0, -1]] = np.where(np.abs(ends) <= BC_TOL, 0.0, ends)
    n_lower = n_v // 2
    n_upper = n_v - n_lower
    verts0, idx, faces0, slabs = sample_quarter(X, s_values, heights, b,
                                                n_lower, n_upper)

    n_local = len(verts0)
    pieces = verts0 * _PIECE_SIGNS[:, None, :]
    pieces[_PIECE_SIGNS[:, 1] < 0, :, 1] += 2.0 * b
    faces = faces0 + n_local * np.arange(4)[:, None, None]
    mirrored = np.prod(_PIECE_SIGNS, axis=1) < 0
    faces[mirrored] = faces[mirrored][:, :, [0, 2, 1]]
    all_verts = pieces.reshape(-1, 3)
    all_faces = faces.reshape(-1, 3)

    diag = float(np.linalg.norm(all_verts.max(axis=0) - all_verts.min(axis=0)))
    tol = _WELD_TOL_FACTOR * diag

    # correspondence: (quarter boundary ids, piece pairs it joins, required)
    correspondences = {
        "vertical_end": (idx[0], [[0, 1], [2, 3]], True),
        "endpoint_columns": (idx[:, [0, -1]].T, [[0, 2], [1, 3]], True),
        "horizontal_end": (idx[-1], [[0, 2], [1, 3]], False),
    }
    report, worst_gap, welds = {}, {}, []
    for name, (ids, piece_pairs, required) in correspondences.items():
        ga, gb = (ids.ravel() + n_local * np.array(piece_pairs).T[..., None]
                  ).reshape(2, -1)
        gap = np.linalg.norm(all_verts[ga] - all_verts[gb], axis=1)
        worst = worst_gap[name] = float(gap.max())
        if worst > tol and required:
            raise WeldFailure(f"{name.replace('_', ' ')} correspondence off by "
                              f"{worst:.3e} > tol {tol:.3e}")
        report[name] = "welded" if worst <= tol else "open"
        welds.append(np.stack([ga, gb])[:, gap <= tol])
    report.update(tol=tol, worst_gap=worst_gap)
    ga, gb = np.concatenate(welds, axis=1)

    # each welded vertex takes the smallest index in its weld class
    label = np.arange(len(all_verts))
    while True:
        before = label.copy()
        np.minimum.at(label, ga, label[gb])
        np.minimum.at(label, gb, label[ga])
        if np.array_equal(label, before):
            break
    roots, new_ids = np.unique(label, return_inverse=True)
    labels = np.c_[np.tile(slabs, 4), np.arange(4).repeat(len(slabs))]
    mesh = TriMesh(all_verts[roots], new_ids[all_faces], weld_report=report,
                   face_labels=labels)
    report["boundary_edge_count"] = mesh.boundary_edge_count()
    return mesh


# ---------------------------------------------------------------------------
# Self-intersection: slab/piece sort and sweep, then Moller's interval test,
# which counts contacts along an edge as hits
# ---------------------------------------------------------------------------

_NARROW_CHUNK = 1 << 16    # y-sweep candidates per batch, bounds memory


def _box_pairs(lo: np.ndarray, hi: np.ndarray, labels: np.ndarray | None,
               eps: float):
    """Yield batches (i, j), i < j, of the face pairs in one slab and in
    different pieces whose boxes [lo, hi] overlap within eps on every axis.

    Sort and sweep (Ericson, Real-Time Collision Detection, 2004, 7.5): the
    faces are sorted by (slab, lo_y), so each face meets the run of later
    faces of its slab with lo_y <= hi_y + eps.  Runs are expanded about
    _NARROW_CHUNK pairs at a time and filtered on z, x and piece.  Without
    labels all faces form one slab and each is its own piece, so every
    overlapping pair is yielded.
    """
    n = len(lo)
    slab, piece = (np.zeros(n), np.arange(n)) if labels is None else labels.T
    # complex numbers sort by real part, then imaginary: keys (slab, lo_y)
    key = slab + 1j * lo[:, 1]
    order = np.argsort(key, kind="stable")
    key, piece = key[order], piece[order]
    lo, hi = lo[order].T, hi[order].T + eps
    # the run of p: later faces up to the last of p's slab with lo_y <= hi_y
    # (eps included); it starts at p + 1, as key[p] is within the bound
    count = np.searchsorted(key, key.real + 1j * hi[1], side="right") \
        - np.arange(1, n + 1)
    cum = np.cumsum(count)
    first = cum - count
    p0 = 0
    while p0 < n:
        p1 = max(int(np.searchsorted(cum, first[p0] + _NARROW_CHUNK,
                                     side="right")), p0 + 1)
        p = np.repeat(np.arange(p0, p1), count[p0:p1])
        q = p + 1 + np.arange(first[p0], cum[p1 - 1]) - first[p]
        for axis in (2, 0):
            keep = (lo[axis, q] <= hi[axis, p]) & (lo[axis, p] <= hi[axis, q])
            p, q = p[keep], q[keep]
        keep = piece[p] != piece[q]
        i, j = order[p[keep]], order[q[keep]]
        yield np.minimum(i, j), np.maximum(i, j)
        p0 = p1


def self_intersection_pairs(mesh: TriMesh) -> list:
    """Face pairs (i, j), i < j, sorted, that share no vertex index and meet
    along a segment longer than eps = _CONTACT_FACTOR x the mesh diagonal.

    Broad phase: _box_pairs over the face labels, on boxes taken over each
    face's three corners.  Two filters then drop pairs that cannot hit: pairs
    of level faces at one z (below), and pairs that share a vertex index.
    Narrow phase, in batches: Moller's interval test (_tri_tri_batch), which
    counts triangles that cross transversally and also triangles that touch
    along an edge whose ends are not shared vertex indices (all 752 hits of
    the 96x48 demo at t = 0.5 are such contacts, of a piece and its rho_H
    image along a grid row in z = 0).  Pairs coplanar within eps, or meeting
    in a point or not at all, do not count.

    The z-level rule: a face whose three corners have equal z has the normal
    (+-0, +-0, nz) to the bit, since each z difference is +-0.  The plane
    distance of a corner at the same z (+0.0 equals -0.0) is then +-0, so
    the narrow phase calls two such faces at one z coplanar and rejects them
    (and where a product overflows, the NaN it makes rejects them too).  The
    rule drops these pairs before the narrow phase, which changes no hit; where
    every corner has one z, as in the flat state, it skips the broad phase.
    """
    P = mesh.corners()                     # (F, 3, 3)
    if mesh.n_faces < 2 or np.all(P[:, :, 2] == P[0, 0, 2]):
        return []
    p0, p1, p2 = P[:, 0], P[:, 1], P[:, 2]
    lo = np.minimum(np.minimum(p0, p1), p2)
    hi = np.maximum(np.maximum(p0, p1), p2)
    z0, z1, z2 = P[:, :, 2].T
    level_z = np.where((z0 == z1) & (z1 == z2), z0, np.nan)
    normal, length = mesh.face_normals()
    eps = _CONTACT_FACTOR * max(mesh.diagonal(), 1e-300)
    hits = []
    for i, j in _box_pairs(lo, hi, mesh.face_labels, eps):
        keep = level_z[i] != level_z[j]     # NaN (not level) equals nothing
        i, j = i[keep], j[keep]
        fi, fj = mesh.faces[i], mesh.faces[j]
        shares = np.any(fi[:, :, None] == fj[:, None, :], axis=(1, 2))
        i, j = i[~shares], j[~shares]
        hit = _tri_tri_batch(P, normal, length, i, j, eps)
        hits += zip(i[hit].tolist(), j[hit].tolist())
    return sorted(hits)


def _plane_side(T_other: np.ndarray, origin: np.ndarray, normal: np.ndarray,
                thresh: np.ndarray) -> tuple:
    """Plane distances d (times the normal's length) of T_other's corners,
    and where the test is settled: all corners strictly on one side of the
    plane, or all within thresh of it."""
    d = np.einsum('mkj,mj->mk', T_other - origin[:, None, :], normal)
    pos = np.all(d > thresh[:, None], axis=1)
    neg = np.all(d < -thresh[:, None], axis=1)
    onp = np.all(np.abs(d) <= thresh[:, None], axis=1)
    return d, pos | neg | onp


def _interval_on_line(T: np.ndarray, d: np.ndarray, thresh: np.ndarray,
                      axis_dir: np.ndarray) -> tuple:
    """Projection interval of each triangle's plane cross-section onto the
    intersection line direction. Candidates: on-plane vertices and edge
    crossings."""
    m = T.shape[0]
    proj = np.einsum('mkj,mj->mk', T, axis_dir)          # (m, 3)
    cand = np.full((m, 6), np.nan)
    on_plane = np.abs(d) <= thresh[:, None]
    cand[:, :3] = np.where(on_plane, proj, np.nan)
    edges = ((0, 1), (1, 2), (2, 0))
    for e, (a, bb) in enumerate(edges):
        da, db = d[:, a], d[:, bb]
        crossing = ((da > thresh) & (db < -thresh)) | ((da < -thresh) & (db > thresh))
        denom = np.where(crossing, da - db, 1.0)
        t = da / denom
        pt = proj[:, a] + t * (proj[:, bb] - proj[:, a])
        cand[:, 3 + e] = np.where(crossing, pt, np.nan)
    valid = np.any(np.isfinite(cand), axis=1)
    lo = np.nanmin(np.where(np.isfinite(cand), cand, np.inf), axis=1)
    hi = np.nanmax(np.where(np.isfinite(cand), cand, -np.inf), axis=1)
    return lo, hi, valid


def _tri_tri_batch(P: np.ndarray, normal: np.ndarray, length: np.ndarray,
                   i: np.ndarray, j: np.ndarray, eps: float) -> np.ndarray:
    """True where faces i and j (corners P, normals and their lengths as
    TriMesh.face_normals gives them) meet along a segment longer than eps,
    crossing or touching along an edge: two faces hinged on one edge hit.

    Staged: face j's corners against face i's plane, then face i's against
    face j's on the pairs left, then the intersection line and the two
    intervals on the pairs both sides leave.  Each stage works per pair, so
    it gives each pair the bits a single pass over all pairs gives."""
    hit = np.zeros(len(i), dtype=bool)
    k = np.arange(len(i))
    th_i, th_j = eps * length[i], eps * length[j]
    d2, settled = _plane_side(P[j], P[i, 0], normal[i], th_i)
    keep = ~settled
    k, i, j, th_i, th_j, d2 = (a[keep] for a in (k, i, j, th_i, th_j, d2))
    d1, settled = _plane_side(P[i], P[j, 0], normal[j], th_j)
    keep = ~settled
    k, i, j, th_i, th_j, d1, d2 = (a[keep] for a in (k, i, j, th_i, th_j,
                                                     d1, d2))
    D = np.cross(normal[i], normal[j])
    Dn = np.linalg.norm(D, axis=1)
    keep = ~(Dn <= 1e-14 * length[i] * length[j])     # not near parallel
    k, i, j, th_i, th_j, d1, d2, D, Dn = (
        a[keep] for a in (k, i, j, th_i, th_j, d1, d2, D, Dn))
    Dhat = D / np.where(Dn > 0, Dn, 1.0)[:, None]

    lo1, hi1, v1 = _interval_on_line(P[i], d1, th_j, Dhat)
    lo2, hi2, v2 = _interval_on_line(P[j], d2, th_i, Dhat)
    overlap = np.minimum(hi1, hi2) - np.maximum(lo1, lo2)
    hit[k] = v1 & v2 & (overlap > eps)
    return hit


def min_triangle_area_check(mesh: TriMesh) -> None:
    """Raise DegenerateTriangle when any triangle falls below the area floor."""
    if not mesh.n_faces:
        return
    floor = _DEGENERATE_AREA_FACTOR * mesh.diagonal() ** 2
    areas = mesh.triangle_areas()
    if np.any(areas < floor):
        worst = int(np.argmin(areas))
        raise DegenerateTriangle(
            f"triangle {worst} area {areas[worst]:.3e} below {floor:.3e}")


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------

_OBJ_BLOCK = 4096          # OBJ records assembled per write


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _coordinate_text(vertices: np.ndarray) -> tuple:
    """(table, rows): each distinct coordinate as '%.9g' text, NUL-padded to
    a fixed width, and each vertex's three indices into that table.

    Values are told apart by their bits, so -0.0 keeps its sign; each is
    formatted once, by Python's own '%.9g'."""
    bits = vertices.view(np.int64).reshape(-1)
    distinct, inverse = np.unique(bits, return_inverse=True)
    table = np.array(["%.9g" % x for x in distinct.view(np.float64).tolist()],
                     dtype="S")
    return table, inverse.reshape(-1, 3)


def _index_text(n: int) -> np.ndarray:
    """b'1' .. b'n' as decimal digits, NUL-padded on the left to one width."""
    k = np.arange(1, n + 1)[:, None]
    powers = 10 ** np.arange(len(str(n)) - 1, -1, -1)
    digits = (k // powers % 10 + ord("0")).astype(np.uint8)
    digits[k < powers] = 0
    return digits.view(f"S{powers.size}").reshape(-1)


def _records(tag: bytes, table: np.ndarray, rows: np.ndarray) -> bytes:
    """One record 'tag a b c' per row of table indices, LF-terminated:
    fixed-width fields whose NUL padding is dropped."""
    text = f"S{table.dtype.itemsize}"
    out = np.zeros(len(rows), dtype=[("tag", "S2"), ("a", text), ("_a", "S1"),
                                     ("b", text), ("_b", "S1"), ("c", text),
                                     ("_c", "S1")])
    out["tag"] = tag
    out["_a"] = out["_b"] = b" "
    out["_c"] = b"\n"
    out["a"], out["b"], out["c"] = table[rows.T]
    return out.tobytes().translate(None, b"\0")


def export_obj(mesh: TriMesh, path) -> None:
    """ASCII OBJ, v/f records, 1-based indices, 9 significant digits.

    The bytes are those of one f-string per record ('v {x:.9g} {y:.9g}
    {z:.9g}', 'f {a} {b} {c}'), with LF line ends on every platform. Each
    distinct coordinate is formatted once and each index 1..n_vertices is
    written once, as array code; records are gathered from those texts in
    blocks of _OBJ_BLOCK, so no more than one block's records are held at
    once."""
    try:
        with open(path, "wb") as fh:
            fh.write(b"# pillowfold triangle mesh\n")
            table, rows = _coordinate_text(mesh.vertices)
            for start in range(0, mesh.n_vertices, _OBJ_BLOCK):
                fh.write(_records(b"v ", table, rows[start:start + _OBJ_BLOCK]))
            labels = _index_text(mesh.n_vertices)
            for start in range(0, mesh.n_faces, _OBJ_BLOCK):
                fh.write(_records(b"f ", labels,
                                  mesh.faces[start:start + _OBJ_BLOCK]))
    except OSError as exc:
        raise IoError(str(exc)) from exc


def export_svg(path, width: float, height: float, polylines: list) -> None:
    """Rectangle outline [0,w]x[0,h] plus polylines, y flipped to SVG."""
    pad = _SVG_MARGIN * max(width, height)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
            fh.write(
                f'<svg xmlns="http://www.w3.org/2000/svg" viewBox='
                f'"{_fmt(-pad)} {_fmt(-pad)} {_fmt(width + 2 * pad)} '
                f'{_fmt(height + 2 * pad)}">\n')
            fh.write(
                f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" '
                'fill="none" stroke="black" stroke-width="0.004"/>\n')
            for pts in polylines:
                coords = " ".join(
                    f"{_fmt(p[0])},{_fmt(height - p[1])}" for p in pts)
                fh.write(f'<polyline points="{coords}" fill="none" '
                         'stroke="red" stroke-width="0.004"/>\n')
            fh.write("</svg>\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc


def export_trace(rows: list, path) -> None:
    """Rows as an indented JSON array: a sweep trace, one row per requested
    t, or verify's check reports."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc
