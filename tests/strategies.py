"""hypothesis strategies shared by the property tests."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, strategies as st

from pillowfold.profiles import (FundamentalData, ProfileFunction,
                                 validate_fundamental_data)

CRITICAL_SLOPE = 1.0 / np.sqrt(2.0)


@st.composite
def admissible_data(draw) -> FundamentalData:
    """(b, zeta) over the four serializable profile kinds, with lengths from
    0.5 to 10, end slopes up to and including the critical 1/sqrt2 (where
    the folded crease's rate sqrt(1 - 2 zeta'^2) vanishes, as the demo's
    does), and b from 1.001 to 20 times max zeta, kept when
    validate_fundamental_data accepts them."""
    kind = draw(st.sampled_from(["hyperbolic", "circular", "poly", "table"]))
    length = draw(st.floats(0.5, 10.0))
    # about the larger end slope
    slope = draw(st.one_of(st.just(CRITICAL_SLOPE),
                           st.floats(0.1, CRITICAL_SLOPE)))
    if kind == "hyperbolic":
        # end slope 1 / hypot(1, width / half)
        zeta = {"kind": kind, "length": length,
                "width": 0.5 * length * np.sqrt(1.0 / slope ** 2 - 1.0)}
    elif kind == "circular":
        # end slope half / sqrt(radius^2 - half^2)
        zeta = {"kind": kind, "length": length,
                "radius": 0.5 * length * np.sqrt(1.0 + 1.0 / slope ** 2)}
    elif kind == "poly":
        # a s (L - s)(1 + c s / L), end slopes a L and a L (1 + c)
        c = draw(st.floats(-0.45, 0.45))
        a = slope / (length * (1.0 + max(c, 0.0)))
        zeta = {"kind": kind, "length": length,
                "coeffs": [0.0, a * length, a * (c - 1.0), -a * c / length]}
    else:
        # a tilted sine arch sampled at 5 to 9 knots; the spline is linear
        # in its values, so scaling them sets its larger end slope
        u = np.linspace(0.0, 1.0, draw(st.integers(5, 9)))
        tilt = draw(st.floats(-0.4, 0.4))
        arch = np.sin(np.pi * u) * (1.0 + tilt * (u - 0.5))
        arch[[0, -1]] = 0.0
        unit = ProfileFunction.tabulated(length * u, arch)
        values = arch * slope / max(abs(unit.eval(0.0, 1)),
                                    abs(unit.eval(length, 1)))
        zeta = {"kind": kind, "s": (length * u).tolist(),
                "values": values.tolist()}
    height = FundamentalData.from_descriptor(
        {"b": 1.0, "zeta": zeta}).max_height()
    data = FundamentalData.from_descriptor(
        {"b": height * draw(st.floats(1.001, 20.0)), "zeta": zeta})
    assume(validate_fundamental_data(data.b, data.zeta).valid)
    return data
