"""Independent oracles and frozen expected values.

Everything here is computed without the library's own quadrature or
differentiation: composite Simpson on fixed grids, plain finite differences,
and closed forms.  The frozen constants were produced by these same oracles
(cross-checked at much higher resolution) before the library existed; tests
compare library output against them, never the other way round.  The
exceptions are: the frozen library mesh volumes (V_64x32, V_128x64,
FAMILY_VOLUMES_48x24), which pin the library's own output; the
intersection oracle, a one-pass copy of the library's triangle-pair test
(Moller's interval test, as it was before the library staged it) run on
every pair, with no candidate search or filter; the OBJ oracle, the
f-string writer the library's %-format writer must match byte for byte;
the assembly oracle, which calls the library's surface map and tolerance
factors but samples, triangulates and welds with plain loops and a
union-find; the separate-call Simpson oracle, the batched adaptive
Simpson with one integrand call per point array, against which the library's
one-call-per-sweep version must agree to the bit; the separate-call Newton
inverse, a monotone map's three Newton steps with one forward and one rate
call each, against which the library's one-rate-call step must agree to the
bit; and the measured metric, centred differences of a library strip's
embedding, whose ruling is built here from the strip's Frenet frame and the
library's beta_from_alpha.  Helix is the one twisted crease the Frenet
kernel is tested on, in closed form, and load_obj reads the library's OBJ
output back.  nested_pattern_scaling builds a pattern-scaling member the
long way, through the library's pattern graph and two nested monotone maps;
vertical_end and horizontal_end read a library quarter map on its two rims.
"""

from __future__ import annotations

import numpy as np

from pillowfold.curves import SpaceCurve
from pillowfold.development import pattern_graph
from pillowfold.errors import QuadratureFailure
from pillowfold.folding import beta_from_alpha
from pillowfold.mesh import _DEDUPE_FACTOR, _WELD_TOL_FACTOR, TriMesh
from pillowfold.profiles import (FundamentalData, ProfileFunction,
                                 graph_to_arclength_profile)
from pillowfold.quadrature import (_WIDTH_FLOOR_FACTOR, MAX_PANELS,
                                   _ensure_finite)

SQRT2 = float(np.sqrt(2.0))

# demo profile zeta(s) = sqrt(2) - sqrt((s-1)^2 + 1) on [0, 2], b = 1
ZETA_MAX = SQRT2 - 1.0                      # apex height, attained at s = 1
B03_MARGIN = 0.3 - ZETA_MAX                 # below-b margin for b = 0.3

# x-progress of the folded crease: int_0^s sqrt(1 - 2 zeta'^2)
X1_TRUE = 0.7119586597782638                # Simpson after s = 1 + sin(theta)
X1_SIMPSON_1E4 = 0.7119585785944917         # fixed_simpson below, 10^4 bins
D_TOTAL = 1.4239173195565287                # full travel, s = 2

# developed width 2a = 2 asinh(1) = 2 ln(1 + sqrt 2)
TWO_A = 1.7627471740390859
PATTERN_SHIFT = float(np.log(1.0 + SQRT2))  # pattern apex abscissa a

# fold parameter 1/2: crease x-progress at s = 1 and horizontal-end depth
XT_HALF = 0.8467502013236765
DEPTH_HALF = -0.12426406871192852           # = -0.3 (sqrt 2 - 1)

# ruling angle data at the folded state
F_HALF = -0.4472135954999579                # cos(beta)(0.5) = -zeta'(0.5)
KAPPA_AT_1 = SQRT2
ALPHA_AT_1 = float(np.pi / 4.0)
BETA_AT_1 = float(np.pi / 2.0)

# box volume: continuum value int 4 zeta (b - zeta) sigma ds and
# grid-converged mesh values (volumes increase toward the continuum)
V_CONTINUUM = 1.1597471509484811
V_64x32 = 1.159379094567569                 # frozen library mesh volumes
V_128x64 = 1.159653885181611
V_REL_64_128 = 4e-4                         # measured 2.37e-4, O(h^2) margin
V_REL_128_CONT = 2e-4                       # measured 8.0e-5

# the demo's default `family --pattern-scaling` rows at 48x24: frozen
# library mesh volumes at t = 0, 0.25, 0.5, 0.75, 0.95, taken when each
# member's box was still assembled through the member's nested profile
FAMILY_T = (0.0, 0.25, 0.5, 0.75, 0.95)
FAMILY_VOLUMES_48x24 = (1.1590975918785444, 1.0440287501043264,
                        0.8015266080464648, 0.44907529991043105,
                        0.09687267732713974)

# `family_members` rows at 24x12 for t = 0, 0.5, 0.9: frozen library
# (volume, width, width_gap) per t, taken when each member's topology still
# counted the box's self-intersections; on the demo and on the tabulated box
# b = 0.5, s = [0, 0.5, 1, 1.5, 2], values [0, 0.2, 0.27, 0.2, 0]
FAMILY_ROWS_T = (0.0, 0.5, 0.9)
FAMILY_ROWS_24x12 = {
    "demo": ((1.157208926271835, 1.7627471740390896, 0.0),
             (0.8005018449224077, 1.7627471740390854, 4.218847493575595e-15),
             (0.19008052869304856, 1.7627471740390834, 6.217248937900877e-15)),
    "table": ((0.37517404492469525, 1.9001490397062686, 0.0),
              (0.2680898163582641, 1.9001490397062708, 2.220446049250313e-15),
              (0.06604266456089651, 1.9001490397062677, 8.881784197001252e-16)),
}


def demo_zeta(s, order: int = 0):
    """The demo profile and derivatives, written out independently."""
    s = np.asarray(s, dtype=float)
    u = s - 1.0
    root = np.sqrt(u * u + 1.0)
    if order == 0:
        return SQRT2 - root
    if order == 1:
        return -u / root
    return -1.0 / root ** 3


def demo_pattern(x):
    """Closed form of the demo crease pattern: sqrt 2 - cosh(x - ln(1+sqrt 2))."""
    return SQRT2 - np.cosh(np.asarray(x, dtype=float) - PATTERN_SHIFT)


def fixed_simpson(fn, a: float, b: float, n: int = 10_000) -> float:
    """Composite Simpson on n equal intervals (n even); non-adaptive."""
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = np.asarray(fn(x), dtype=float)
    h = (b - a) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                            + 2.0 * y[2:-1:2].sum()))


def separate_call_simpson(fn, lo, hi, tol,
                          max_panels: int = MAX_PANELS) -> np.ndarray:
    """Batched adaptive Simpson over each [lo_i, hi_i] that calls fn once per
    point array: on the ends and midpoints at the start (three calls), then
    on the left and the right quarter points of each sweep (two calls)."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    nseg = lo.size
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (nseg,)).copy()
    tol = np.maximum(tol, 1e-17)

    totals = np.zeros(nseg)
    seg = np.arange(nseg)
    a = lo.copy()
    b = hi.copy()
    mid = 0.5 * (a + b)
    fa = np.asarray(fn(a), dtype=float)
    fm = np.asarray(fn(mid), dtype=float)
    fb = np.asarray(fn(b), dtype=float)
    _ensure_finite(fa, a)
    _ensure_finite(fm, mid)
    _ensure_finite(fb, b)
    coarse = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    budget = tol.copy()
    floor_w = np.abs(hi - lo) * _WIDTH_FLOOR_FACTOR
    floor_per_panel = floor_w[seg]

    n_panels = nseg
    while seg.size:
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = np.asarray(fn(lm), dtype=float)
        frm = np.asarray(fn(rm), dtype=float)
        _ensure_finite(flm, lm)
        _ensure_finite(frm, rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        fine = left + right
        err = (fine - coarse) / 15.0
        accept = (np.abs(err) <= budget) | ((b - a) <= floor_per_panel)

        if np.any(accept):
            np.add.at(totals, seg[accept], fine[accept] + err[accept])

        keep = ~accept
        n_new = 2 * int(np.count_nonzero(keep))
        n_panels += n_new
        if n_panels > max_panels:
            raise QuadratureFailure(
                f"panel cap {max_panels} exceeded ({seg[keep].size} panels still open)"
            )
        seg = np.concatenate([seg[keep], seg[keep]])
        a = np.concatenate([a[keep], m[keep]])
        b = np.concatenate([m[keep], b[keep]])
        fa = np.concatenate([fa[keep], fm[keep]])
        fb = np.concatenate([fm[keep], fb[keep]])
        fm = np.concatenate([flm[keep], frm[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
        half = 0.5 * budget[keep]
        budget = np.concatenate([half, half])
        floor_per_panel = np.concatenate([floor_per_panel[keep], floor_per_panel[keep]])
    return totals


def pattern_member_crease(data, t: float, u) -> np.ndarray:
    """The pattern-scaling member's folded crease at base abscissae u, in
    closed form over the base: (int_0^u sigma_c, c zeta(u), c zeta(u)) with
    c = 1 - t and sigma_c = sqrt(1 - (1 + c^2) zeta'^2), the travel by
    fixed_simpson.  Accurate to about 1e-15 where sigma_c stays away from 0
    (t > 0 for every admissible profile)."""
    c = 1.0 - t
    u = np.asarray(u, dtype=float)

    def sigma_c(x):
        return np.sqrt(1.0 - (1.0 + c * c) * np.asarray(data.zeta.eval(x, 1)) ** 2)
    x = [fixed_simpson(sigma_c, 0.0, float(ui)) if ui > 0.0 else 0.0
         for ui in u]
    height = c * np.asarray(data.zeta.eval(u, 0))
    return np.stack([np.asarray(x), height, height], axis=-1)


def nested_pattern_scaling(data, t):
    """The member as the pattern graph scaled by 1 - t and converted back to
    arc length: two nested monotone maps per evaluation."""
    psi = pattern_graph(data)
    scaled = psi if t == 0.0 else ProfileFunction(
        psi.length, "scaled",
        lambda x, order: (1.0 - t) * np.asarray(psi.eval(x, order)))
    return FundamentalData(
        data.b, graph_to_arclength_profile(scaled, "plane-crease")[1])


def newton_inverse(travel, x):
    """travel.inverse(x) with a separate forward and rate call per Newton
    step: table interpolation, then three clipped Newton steps."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, travel.total)
    u = np.interp(x, travel.table, travel.grid)
    for _ in range(3):
        u = np.clip(u - (travel.forward(u) - x) / travel.rate(u),
                    0.0, travel.span)
    return u


def central_diff(fn, x, h: float):
    x = np.asarray(x, dtype=float)
    return (np.asarray(fn(x + h)) - np.asarray(fn(x - h))) / (2.0 * h)


def five_point_diff(fn, x, h: float):
    x = np.asarray(x, dtype=float)
    return (np.asarray(fn(x - 2 * h)) - 8.0 * np.asarray(fn(x - h))
            + 8.0 * np.asarray(fn(x + h)) - np.asarray(fn(x + 2 * h))) / (12.0 * h)


class Helix(SpaceCurve):
    """Circular helix (r cos, r sin, h theta) over a fixed number of turns,
    by arc length: curvature r / (r^2 + h^2), torsion h / (r^2 + h^2).
    Pitch 0 gives a circle of radius r."""

    def __init__(self, radius: float, pitch: float, turns: float = 1.0):
        self.radius = float(radius)
        self.pitch = float(pitch)
        self._speed = float(np.hypot(radius, pitch))
        self.length = 2.0 * np.pi * turns * self._speed
        self.analytic_torsion = self.pitch / (self._speed ** 2)

    @classmethod
    def from_curvature_torsion(cls, kappa: float, tau: float,
                               turns: float = 1.0) -> "Helix":
        c = kappa * kappa + tau * tau
        return cls(kappa / c, tau / c, turns)

    def _theta(self, s):
        return self._check_domain(s) / self._speed

    def point(self, s):
        th = self._theta(s)
        return np.stack([self.radius * np.cos(th), self.radius * np.sin(th),
                         self.pitch * th], axis=-1)

    def velocity(self, s):
        th = self._theta(s)
        return np.stack([-self.radius * np.sin(th), self.radius * np.cos(th),
                         np.full_like(th, self.pitch)], axis=-1) / self._speed

    def acceleration(self, s):
        th = self._theta(s)
        return np.stack([-self.radius * np.cos(th), -self.radius * np.sin(th),
                         np.zeros_like(th)], axis=-1) / self._speed ** 2


def ruling(strip, s) -> np.ndarray:
    """The unit ruling cos(beta) T + sin(beta) (cos(alpha) N + sin(alpha) B)
    of a library strip at s, from its Frenet frame and angles."""
    fr = strip.frame(s)
    al = np.asarray(strip.alpha(fr.s), dtype=float)
    be = beta_from_alpha(al, strip.alpha_prime(fr.s), fr.kappa, fr.tau)
    n_g = np.cos(al)[..., None] * fr.normal + np.sin(al)[..., None] * fr.binormal
    return (np.cos(be)[..., None] * fr.tangent
            + np.sin(be)[..., None] * n_g)


def measured_metric(strip, s, v) -> tuple:
    """(E, F, G) of the strip X(s, v) = c(s) + v xi(s): X_s by centred
    differences of the embedding with step 1e-5 max(L, 1), X_v = xi."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    v = np.broadcast_to(np.asarray(v, dtype=float), s.shape)
    h = 1e-5 * max(strip.curve.length, 1.0)

    def emb(ss):
        return strip.curve.point(ss) + v[..., None] * ruling(strip, ss)

    Xs = (emb(s + h) - emb(s - h)) / (2.0 * h)
    Xv = ruling(strip, s)
    return (np.einsum('...j,...j->...', Xs, Xs),
            np.einsum('...j,...j->...', Xs, Xv),
            np.einsum('...j,...j->...', Xv, Xv))


def vertical_end(quarter, s) -> np.ndarray:
    """A quarter's rim v = crease height - b, which lies in the plane y = b."""
    return quarter.X(s, quarter.crease.point(s)[..., 1] - quarter.data.b)


def horizontal_end(quarter, s) -> np.ndarray:
    """A quarter's rim v = crease height, which the depth formula measures."""
    return quarter.X(s, quarter.crease.point(s)[..., 1])


def load_obj(path) -> TriMesh:
    """The v and f records of an OBJ file as a mesh, indices made 0-based."""
    verts, faces = [], []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if parts and parts[0] == "v":
                verts.append([float(p) for p in parts[1:4]])
            elif parts and parts[0] == "f":
                faces.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
    return TriMesh(np.asarray(verts, dtype=float),
                   np.asarray(faces, dtype=np.int64).reshape(-1, 3))


def unit_cube_mesh():
    """Axis-aligned unit cube, 12 triangles, outward orientation."""
    v = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                  [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=float)
    f = np.array([
        [0, 2, 1], [0, 3, 2],      # bottom (z = 0), outward -z
        [4, 5, 6], [4, 6, 7],      # top (z = 1), outward +z
        [0, 1, 5], [0, 5, 4],      # y = 0
        [1, 2, 6], [1, 6, 5],      # x = 1
        [2, 3, 7], [2, 7, 6],      # y = 1
        [3, 0, 4], [3, 4, 7],      # x = 0
    ], dtype=np.int64)
    return v, f


def _plane_side(T_other, origin, normal, thresh) -> tuple:
    d = np.einsum('mkj,mj->mk', T_other - origin[:, None, :], normal)
    pos = np.all(d > thresh[:, None], axis=1)
    neg = np.all(d < -thresh[:, None], axis=1)
    onp = np.all(np.abs(d) <= thresh[:, None], axis=1)
    return d, pos | neg, onp


def _interval_on_line(T, d, thresh, axis_dir) -> tuple:
    m = T.shape[0]
    proj = np.einsum('mkj,mj->mk', T, axis_dir)
    cand = np.full((m, 6), np.nan)
    on_plane = np.abs(d) <= thresh[:, None]
    cand[:, :3] = np.where(on_plane, proj, np.nan)
    for e, (a, bb) in enumerate(((0, 1), (1, 2), (2, 0))):
        da, db = d[:, a], d[:, bb]
        crossing = ((da > thresh) & (db < -thresh)) \
            | ((da < -thresh) & (db > thresh))
        t = da / np.where(crossing, da - db, 1.0)
        pt = proj[:, a] + t * (proj[:, bb] - proj[:, a])
        cand[:, 3 + e] = np.where(crossing, pt, np.nan)
    valid = np.any(np.isfinite(cand), axis=1)
    lo = np.nanmin(np.where(np.isfinite(cand), cand, np.inf), axis=1)
    hi = np.nanmax(np.where(np.isfinite(cand), cand, -np.inf), axis=1)
    return lo, hi, valid


def tri_tri_pairs(T1, T2, eps: float) -> np.ndarray:
    """True where the triangle pairs (T1[k], T2[k]) cross, or touch along an
    edge, with crossing-segment overlap longer than eps: both plane tests,
    the intersection line and both intervals on every pair, the normals
    taken per pair."""
    n1 = np.cross(T1[:, 1] - T1[:, 0], T1[:, 2] - T1[:, 0])
    n2 = np.cross(T2[:, 1] - T2[:, 0], T2[:, 2] - T2[:, 0])
    th1 = eps * np.linalg.norm(n1, axis=1)
    th2 = eps * np.linalg.norm(n2, axis=1)

    d2, sep1, cop1 = _plane_side(T2, T1[:, 0], n1, th1)
    d1, sep2, cop2 = _plane_side(T1, T2[:, 0], n2, th2)
    alive = ~(sep1 | sep2 | cop1 | cop2)
    if not np.any(alive):
        return alive

    D = np.cross(n1, n2)
    Dn = np.linalg.norm(D, axis=1)
    near_parallel = Dn <= 1e-14 * np.linalg.norm(n1, axis=1) \
        * np.linalg.norm(n2, axis=1)
    alive &= ~near_parallel
    Dhat = D / np.where(Dn > 0, Dn, 1.0)[:, None]

    lo1, hi1, v1 = _interval_on_line(T1, d1, th2, Dhat)
    lo2, hi2, v2 = _interval_on_line(T2, d2, th1, Dhat)
    overlap = np.minimum(hi1, hi2) - np.maximum(lo1, lo2)
    return alive & v1 & v2 & (overlap > eps)


def brute_force_intersections(mesh, contact_tol_factor: float) -> list:
    """Intersecting triangle pairs (i, j), i < j, sorted: tri_tri_pairs on
    every pair that shares no vertex, with no broad phase.  O(F^2), for
    small meshes."""
    i, j = np.triu_indices(mesh.n_faces, 1)
    fi, fj = mesh.faces[i], mesh.faces[j]
    shares = np.any(fi[:, :, None] == fj[:, None, :], axis=(1, 2))
    i, j = i[~shares], j[~shares]
    P = mesh.vertices[mesh.faces]
    eps = contact_tol_factor * max(mesh.diagonal(), 1e-300)
    hit = tri_tri_pairs(P[i], P[j], eps)
    return sorted(zip(i[hit].tolist(), j[hit].tolist()))


def fstring_obj(vertices, faces) -> str:
    """The OBJ text of a mesh, one f-string per record: header, then v
    records with 9 significant digits, then f records with 1-based indices."""
    return ("# pillowfold triangle mesh\n"
            + "".join(f"v {x:.9g} {y:.9g} {z:.9g}\n"
                      for x, y, z in np.asarray(vertices).tolist())
            + "".join(f"f {a} {b} {c}\n"
                      for a, b, c in (np.asarray(faces) + 1).tolist()))


def directed_edges_once(faces) -> bool:
    """True when no directed edge (a, b) of the faces occurs twice: a dict
    count over the edges of every face."""
    seen = {}
    for tri in np.asarray(faces).tolist():
        for a, b in zip(tri, tri[1:] + tri[:1]):
            seen[a, b] = seen.get((a, b), 0) + 1
    return all(n == 1 for n in seen.values())


def loop_assembly(X, data, n_s: int, n_v: int) -> tuple:
    """The four reflected quarters of X welded point by point: (vertices,
    faces, statuses), as mesh.assemble_reflected builds them.

    Rows of the (n_v + 1) x (n_s + 1) quarter grid run from v = zeta - b up
    to v = zeta with the crease row at v = 0; ids run up each column,
    vertically coincident neighbours share one.  rho_V reflects in y = b,
    rho_H in z = 0.  Every boundary vertex pair within the weld tolerance is
    merged into the class of its smallest index; a correspondence with a
    pair outside it is "open".  Nothing is raised: the library raises where
    a required correspondence is open.
    """
    n_lower = n_v // 2
    n_upper = n_v - n_lower
    b = data.b
    s = np.linspace(0.0, data.length, n_s + 1)
    z = np.asarray(data.zeta.eval(s, 0), dtype=float).copy()
    for k in (0, n_s):
        if abs(z[k]) <= 1e-9:
            z[k] = 0.0
    rows = [(z - b) * (1.0 - j / n_lower) for j in range(n_lower)]
    rows += [z * (j / n_upper) for j in range(n_upper + 1)]
    vmat = np.stack(rows)
    pts = X(np.broadcast_to(s, vmat.shape), vmat)
    snap = _DEDUPE_FACTOR * max(float(np.linalg.norm(
        pts.max(axis=(0, 1)) - pts.min(axis=(0, 1)))), 1.0)

    n_rows, n_cols = vmat.shape
    idx = np.zeros((n_rows, n_cols), dtype=np.int64)
    quarter = []
    for i in range(n_cols):
        for j in range(n_rows):
            if j and np.linalg.norm(pts[j, i] - pts[j - 1, i]) <= snap:
                idx[j, i] = idx[j - 1, i]
            else:
                idx[j, i] = len(quarter)
                quarter.append(pts[j, i])

    tris = []
    for j in range(n_rows - 1):
        for i in range(n_cols - 1):
            a, bb = idx[j, i], idx[j, i + 1]
            d, c = idx[j + 1, i], idx[j + 1, i + 1]
            pair = ((a, d, c), (a, c, bb)) if j >= n_lower \
                else ((a, d, bb), (bb, d, c))
            tris += [t for t in pair if len(set(t)) == 3]

    n = len(quarter)
    verts, faces = [], []
    for k, (flip_y, flip_z) in enumerate(((False, False), (True, False),
                                          (False, True), (True, True))):
        for p in quarter:
            verts.append([p[0], 2.0 * b - p[1] if flip_y else p[1],
                          -p[2] if flip_z else p[2]])
        for t0, t1, t2 in tris:
            faces.append((t0 + k * n, t2 + k * n, t1 + k * n)
                         if flip_y != flip_z else
                         (t0 + k * n, t1 + k * n, t2 + k * n))
    verts = np.array(verts)
    tol = _WELD_TOL_FACTOR * float(np.linalg.norm(
        verts.max(axis=0) - verts.min(axis=0)))

    parent = list(range(len(verts)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    statuses = {}
    top = n_rows - 1
    correspondences = (
        ("vertical_end", [idx[0, i] for i in range(n_cols)], ((0, 1), (2, 3))),
        ("endpoint_columns", [idx[j, i] for i in (0, n_cols - 1)
                              for j in range(n_rows)], ((0, 2), (1, 3))),
        ("horizontal_end", [idx[top, i] for i in range(n_cols)],
         ((0, 2), (1, 3))),
    )
    for name, ids, piece_pairs in correspondences:
        statuses[name] = "welded"
        for ka, kb in piece_pairs:
            for i in ids:
                ga, gb = int(i + ka * n), int(i + kb * n)
                if np.linalg.norm(verts[ga] - verts[gb]) > tol:
                    statuses[name] = "open"
                    continue
                ra, rb = sorted((find(ga), find(gb)))
                parent[rb] = ra

    roots = sorted({find(i) for i in range(len(verts))})
    new_id = {r: k for k, r in enumerate(roots)}
    faces = [[new_id[find(i)] for i in f] for f in faces]
    return verts[roots], np.array(faces, dtype=np.int64), statuses
