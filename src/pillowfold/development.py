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

from .deformation import DeformedQuarter, assemble_deformed, quarter_domain
from .errors import NonFiniteEvaluation, NonGraph
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


def double_rectangle_mesh(quarter: DeformedQuarter, n_s: int,
                          n_v: int) -> TriMesh:
    """The double rectangle: assemble_deformed's n_s x n_v mesh of the flat
    quarter DeformedQuarter(data, 0.0), two coincident sheets in z = 0 that
    close into a zero-volume sphere, the crease a row of each.  A function
    of its own so that perfbench's tracer times it as a span."""
    return assemble_deformed(quarter, n_s, n_v)
