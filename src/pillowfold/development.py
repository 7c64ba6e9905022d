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

from .deformation import quarter_domain
from .errors import DomainError, NonFiniteEvaluation, NonGraph
from .mesh import TriMesh
from .profiles import (FundamentalData, ProfileFunction, ValidationReport,
                       condition_entry, reparametrized, shape_conditions)


def pattern_graph(data: FundamentalData) -> ProfileFunction:
    """The crease pattern as a graph y = psi(x) over [0, 2a].

    psi(x) = zeta(s(x)) over the developed abscissa x(s) = int_0^s
    sqrt(1 - zeta'^2): reparametrized with k = -1, whose travel is x(s).
    """
    return reparametrized(data.zeta, -1.0, kind="graph")


class PlanarDevelopment:
    """Development Y(s, v) = gamma(s) + v (0, -1, 0) of one quarter; pattern
    is the crease pattern's graph, whose travel gives gamma's x(s)."""

    def __init__(self, data: FundamentalData):
        self.data = data
        self.length = data.length
        self.pattern = pattern_graph(data)
        self.width = self.pattern.length      # = 2a

    def gamma(self, s) -> np.ndarray:
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        z0 = np.asarray(self.data.zeta.eval(s_arr, 0))
        return np.stack([self.pattern.travel.forward(s_arr), z0,
                         np.zeros_like(z0)], axis=-1)

    def Y(self, s, v) -> np.ndarray:
        out = self.gamma(s)
        out[..., 1] -= quarter_domain(out[..., 1], v, self.data.b,
                                      self.length, 0.0)
        return out


def validate_pattern_conditions(f: ProfileFunction,
                                b: float) -> ValidationReport:
    """Check a graph profile psi against the pattern admissibility
    conditions: zero ends, sub-unit slope, strict concavity, and
    0 < psi < b inside.  A sample that does not evaluate raises NonGraph."""
    try:
        (zero, positive, below, concave), x, p1 = shape_conditions(f, b)
    except NonFiniteEvaluation as exc:
        raise NonGraph(
            "pattern samples do not form a single-valued graph") from exc
    slope = condition_entry("slope-subunit", np.min(1.0 - p1 ** 2),
                            x[np.argmax(p1 ** 2)])
    return ValidationReport.of([zero, slope, concave, positive, below])


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
