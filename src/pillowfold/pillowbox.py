"""The fully folded box: the lam = 1 quarter, its Frenet strip pair, the mesh.

The folded quarter is the family's state lam = 1, mu = 0 (DeformedQuarter):
the crease c(s) = (int_0^s sigma, zeta, zeta), sigma = sqrt(1 - 2 zeta'^2),
ruled by the constant (0, 0, -1) above and (0, -1, 0) below.  This module
adds the upper strip written through the crease's Frenet frame (its dual is
the lower one), which the curved-fold kernel measures (ruling angles, dual
metrics), and assemble_box, which meshes the quarter it is given.  The
embedding uses the constant rulings: the Frenet-based formulas degenerate at
the interval ends (sigma -> 0), while the surface stays perfectly smooth
there.
"""

from __future__ import annotations

import numpy as np

from .curves import ProfileCrease
from .deformation import DeformedQuarter, grid_columns
from .folding import DevelopableStrip
from .mesh import TriMesh, assemble_reflected
from .profiles import FundamentalData


def _alpha_functions(crease: ProfileCrease):
    """The upper strip's angle alpha = arctan(1 / sigma) and its derivative,
    sigma the rate of the folded crease."""
    zeta = crease.data.zeta

    def alpha(s):
        return np.arctan2(1.0, crease.sigma(s))

    def alpha_prime(s):
        z1 = np.asarray(zeta.eval(s, 1))
        z2 = np.asarray(zeta.eval(s, 2))
        sig = crease.sigma(s)
        return 2.0 * z1 * z2 / (sig * (sig ** 2 + 1.0))

    return alpha, alpha_prime


class QuarterParametrization(DeformedQuarter):
    """One quarter of the folded box: the deformed quarter at lam = 1, mu = 0.

    v >= 0 is the strip that folds down (ruling xi_upper), v < 0 the strip
    that folds sideways (ruling xi_lower); v = 0 is the crease.  upper_strip
    is the first as a Frenet strip, and upper_strip.dual() the second.
    """

    def __init__(self, data: FundamentalData):
        super().__init__(data, 1.0, 0.0)
        self.upper_strip = DevelopableStrip(self.crease,
                                            *_alpha_functions(self.crease))

    def X(self, s, v) -> np.ndarray:
        # DeformedQuarter.X; defined here too so that perfbench's tracer,
        # which hooks methods by class and name, times the folded quarter.
        return super().X(s, v)


def assemble_box(quarter: QuarterParametrization, n_s: int,
                 n_v: int) -> TriMesh:
    """The closed box mesh of the folded quarter: assemble_deformed's, written
    out again so that perfbench's tracer times the box as a span of its own.
    An open profile raises WeldFailure (see mesh.assemble_reflected)."""
    return assemble_reflected(quarter.X, grid_columns(quarter.length, n_s),
                              quarter.data.b, n_v)


__all__ = ["QuarterParametrization", "assemble_box"]
