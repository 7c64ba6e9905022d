"""Flat state: development of the folded surface and its crease pattern.

Unrolling either bent strip into the plane sends the crease to the planar
unit-speed curve gamma(s) = (int_0^s sqrt(1 - zeta'^2), zeta(s), 0) and both
rulings to (0, -1, 0); the quarter then covers the rectangle
[0, 2a] x [0, b].  The same crease, written as a graph y = psi(x), is what a
cutting machine needs, so the conversion between arc-length and graph
parametrizations lives here too.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NonFiniteEvaluation, NonGraph, OutOfDomain
from .mesh import TriMesh
from .profiles import (FundamentalData, ProfileFunction, ValidationReport,
                       _MonotoneMap, safe_sqrt)


def _developed_travel(data: FundamentalData) -> _MonotoneMap:
    """s -> x(s) = int_0^s sqrt(1 - zeta'^2), the developed abscissa."""

    def rate(s):
        return safe_sqrt(1.0 - np.asarray(data.zeta.eval(s, 1)) ** 2)

    return _MonotoneMap(rate, data.length)


class PlanarDevelopment:
    """Development Y(s, v) = gamma(s) + v (0, -1, 0) of one quarter."""

    def __init__(self, data: FundamentalData):
        self.data = data
        self.length = data.length
        self._travel = _developed_travel(data)
        self.width = self._travel.total      # = 2a

    def gamma(self, s) -> np.ndarray:
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        z0 = np.asarray(self.data.zeta.eval(s_arr, 0))
        return np.stack([self._travel.forward(s_arr), z0,
                         np.zeros_like(z0)], axis=-1)

    def Y(self, s, v, domain_slack: float = 0.0) -> np.ndarray:
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        v_arr = np.broadcast_to(np.asarray(v, dtype=float), s_arr.shape)
        z0 = np.asarray(self.data.zeta.eval(s_arr, 0))
        tol = 1e-9 * max(self.length, self.data.b) + domain_slack
        if np.any(v_arr > z0 + tol) or np.any(v_arr < z0 - self.data.b - tol):
            raise OutOfDomain("v outside [zeta - b, zeta]")
        out = self.gamma(s_arr)
        out[..., 1] -= v_arr
        return out

    def __call__(self, s, v):
        return self.Y(s, v)


def developing_map(data: FundamentalData) -> PlanarDevelopment:
    """Isometric development of the quarter onto the plane z = 0."""
    return PlanarDevelopment(data)


def pattern_graph(data: FundamentalData) -> ProfileFunction:
    """The crease pattern as a graph y = psi(x) over [0, 2a].

    With x(s) the developed abscissa, psi(x) = zeta(s(x)); derivatives follow
    from dx/ds = sqrt(1 - zeta'^2).
    """
    zeta = data.zeta
    travel = _developed_travel(data)

    def evaluator(x, order):
        s = travel.inverse(x)
        if order == 0:
            return zeta.eval(s, 0)
        z1 = np.asarray(zeta.eval(s, 1))
        if order == 1:
            return z1 / safe_sqrt(1.0 - z1 ** 2)
        z2 = np.asarray(zeta.eval(s, 2))
        return z2 / (1.0 - z1 ** 2) ** 2

    return ProfileFunction(travel.total, "graph", evaluator,
                           {"base_kind": zeta.kind})


def validate_pattern_conditions(f: ProfileFunction, b: float,
                                n_samples: int = 99,
                                bc_tol: float = 1e-9) -> ValidationReport:
    """Check a graph profile psi against the pattern admissibility conditions:
    zero ends, sub-unit slope, strict concavity, and 0 < psi < b inside."""
    if not np.isfinite(b) or b <= 0:
        raise DomainError(f"b must be positive, got {b}")
    w = f.length
    x = w * np.arange(1, n_samples + 1) / (n_samples + 1)
    try:
        p0 = np.asarray(f.eval(x, 0))
        p1 = np.asarray(f.eval(x, 1))
        p2 = np.asarray(f.eval(x, 2))
        ends = np.array([f.eval(0.0, 0), f.eval(w, 0)])
    except NonFiniteEvaluation as exc:
        raise NonGraph(
            "pattern samples do not form a single-valued graph") from exc

    def entry(name, margin, worst_x, gating=True):
        return {"name": name, "passed": bool(margin > 0), "margin": float(margin),
                "worst_s": float(worst_x), "gating": gating}

    entries = [
        entry("endpoints-zero", bc_tol - np.max(np.abs(ends)),
              0.0 if abs(ends[0]) >= abs(ends[1]) else w),
        entry("slope-subunit", np.min(1.0 - p1 ** 2), x[np.argmax(p1 ** 2)]),
        entry("concave", -np.max(p2), x[np.argmax(p2)]),
        entry("interior-positive", np.min(p0), x[np.argmin(p0)]),
        entry("below-b", b - np.max(p0), x[np.argmax(p0)]),
    ]
    valid = all(e["passed"] for e in entries if e["gating"])
    return ValidationReport(entries, valid, n_samples, bc_tol)


def double_rectangle_mesh(width: float, height: float, n: int) -> TriMesh:
    """Two coincident flat sheets over [0, width] x [0, height], welded along
    the common boundary with opposite orientations: a closed genus-0 mesh of
    zero volume.  Each face is labelled with its column of cells (slab) and
    its sheet (piece)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    xs = np.linspace(0.0, width, n + 1)
    ys = np.linspace(0.0, height, n + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    sheet = np.stack([gx, gy, np.zeros_like(gx)], axis=-1).reshape(-1, 3)

    # the second sheet shares the boundary vertices of the first and copies
    # its interior ones, numbered after it in the same order
    ids = np.arange(len(sheet)).reshape(n + 1, n + 1)
    interior = np.zeros(ids.shape, dtype=bool)
    interior[1:-1, 1:-1] = True
    ids2 = ids.copy()
    ids2[interior] = ids.size + np.arange(np.count_nonzero(interior))
    vertices = np.concatenate([sheet, sheet[interior.ravel()]])

    def corners(v):
        """Cell (i, j) corners (i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)."""
        return v[:-1, :-1], v[1:, :-1], v[1:, 1:], v[:-1, 1:]

    # The sheets use opposite diagonals; otherwise the two corner cells whose
    # diagonal endpoints are both boundary vertices would share that edge
    # between four triangles.
    a, bb, c, d = corners(ids)
    a2, b2, c2, d2 = corners(ids2)
    faces = np.array([[a, bb, c], [a, c, d], [a2, d2, b2], [b2, d2, c2]])
    labels = np.stack([np.repeat(np.arange(n), 4 * n),
                       np.tile([0, 0, 1, 1], n * n)], axis=1)
    return TriMesh(vertices, faces.transpose(2, 3, 0, 1).reshape(-1, 3),
                   face_labels=labels)
