"""The fully folded box: the lam = 1 quarter, its Frenet strip pair, the mesh.

The folded quarter is deformation.DeformedQuarter at lam = 1, mu = 0: the
crease c(s) = (int_0^s sigma, zeta, zeta) with sigma = sqrt(1 - 2 zeta'^2),
ruled by the constant (0, 0, -1) above and (0, -1, 0) below.  This module
adds the same two strips written through the crease's Frenet frame, which the
curved-fold kernel measures (ruling angles, dual metrics), and
assemble_box.  The embedding uses the constant rulings, since the
Frenet-based formulas degenerate at the interval ends (sigma -> 0) while the
surface itself stays perfectly smooth there.
"""

from __future__ import annotations

import numpy as np

from .curves import SIGMA_MIN, ProfileCrease
from .deformation import XI_LOWER, DeformedQuarter, grid_columns
from .folding import DevelopableStrip
from .mesh import TriMesh, assemble_reflected
from .profiles import FundamentalData

XI_UPPER = np.array([0.0, 0.0, -1.0])


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

    v >= 0 is the strip that folds down (ruling XI_UPPER), v < 0 the strip
    that folds sideways (ruling XI_LOWER); v = 0 is the crease.
    """

    def __init__(self, data: FundamentalData):
        super().__init__(data, 1.0, 0.0)
        self.upper_strip = DevelopableStrip(self.crease,
                                            *_alpha_functions(self.crease))
        self.lower_strip = self.upper_strip.dual()

    def X(self, s, v) -> np.ndarray:
        # DeformedQuarter.X; defined here too so that perfbench's tracer,
        # which hooks methods by class and name, times the folded quarter.
        return super().X(s, v)


def assemble_box(data: FundamentalData, n_s: int, n_v: int) -> TriMesh:
    """Closed box mesh from four reflected quarters.

    All four boundary correspondences (vertical end, horizontal end, endpoint
    columns) are required here; any miss raises WeldFailure.
    """
    quarter = QuarterParametrization(data)
    return assemble_reflected(quarter.X, grid_columns(data.length, n_s),
                              data.b, n_v, require_horizontal_weld=True)


__all__ = ["XI_UPPER", "XI_LOWER", "SIGMA_MIN", "QuarterParametrization",
           "assemble_box"]
