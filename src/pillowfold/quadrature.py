"""Adaptive Simpson quadrature, batched over many segments at once.

All integrands must accept numpy arrays and act elementwise. The batch variant
keeps a flat queue of active panels (segment id, endpoints, cached
endpoint/midpoint values) and refines every failing panel per sweep, so the
integrand is called once per sweep, on the new left and right quarter points
of every open panel together, instead of recursing panel by panel; a sweep
gathers its open panels once, by index.  An integrand fn(x, p) with one
value p per segment serves a family of integrands in one call: each point is
evaluated with its segment's value, as a call of that segment's own would.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteEvaluation, QuadratureFailure

# Hard cap on the number of panels one point set may need; a call that
# integrates several sets at once gets this cap once per set.
MAX_PANELS = 2 ** 20

# Panels narrower than width * 2^-46 are accepted unconditionally: below that
# scale the Richardson estimate is dominated by rounding noise.
_WIDTH_FLOOR_FACTOR = 2.0 ** -46


def _ensure_finite(values: np.ndarray, points: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if np.any(bad):
        where = np.atleast_1d(points)[np.atleast_1d(bad)]
        raise NonFiniteEvaluation(
            f"integrand not finite near {float(where.flat[0])!r}")


def _evaluate(fn, params, seg, *parts):
    """fn on several equal-length arrays through one call, split back.

    Integrands are elementwise, so one call on the concatenation gives the
    values of one call per part; the first non-finite value is named in
    the order of the parts.  Every part holds one point of each panel,
    whose segment seg gives; params, unless None, holds one value per
    segment, and fn is called as fn(points, p) with p each point's value.
    """
    points = np.concatenate(parts)
    args = (points,) if params is None else (
        points, np.concatenate([params.take(seg)] * len(parts)))
    values = np.asarray(fn(*args), dtype=float)
    _ensure_finite(values, points)
    return np.split(values, len(parts))


def integrate_segments(fn, lo, hi, tol, sets: int = 1,
                       params=None) -> np.ndarray:
    """Integrate fn over each [lo_i, hi_i] with per-segment absolute tolerance.

    Returns one value per segment. Accepted panels use Richardson
    extrapolation of the two Simpson estimates.  Each segment is refined on
    its own: its panels, tolerance budget and width floor, and the order in
    which its accepted panels are summed, do not depend on the other
    segments of the call, so a segment's value has the same bits in any
    call that contains it.  The call raises QuadratureFailure once it has
    made more than sets * MAX_PANELS panels; a caller that batches the
    segments of several point sets passes their number as sets, so that
    only a call in which one set alone passes MAX_PANELS is stopped.

    params, unless None, holds one float per segment, and fn is called as
    fn(x, p) with p the value of each point's segment; every panel reads
    its segment's value, so the segment integrates fn(., p_i) with the
    bits of a call of its own.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    nseg = lo.size
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (nseg,)).copy()
    tol = np.maximum(tol, 1e-17)
    params = None if params is None else np.asarray(params, dtype=float)

    totals = np.zeros(nseg)
    seg = np.arange(nseg)
    a = lo.copy()
    b = hi.copy()
    mid = 0.5 * (a + b)
    fa, fm, fb = _evaluate(fn, params, seg, a, mid, b)
    coarse = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    budget = tol.copy()
    floor_w = np.abs(hi - lo) * _WIDTH_FLOOR_FACTOR

    n_panels = nseg
    cap = sets * MAX_PANELS
    while seg.size:
        m = 0.5 * (a + b)
        flm, frm = _evaluate(fn, params, seg, 0.5 * (a + m),
                             0.5 * (m + b))
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (left + right - coarse) / 15.0
        accept = (np.abs(err) <= budget) | ((b - a) <= floor_w.take(seg))

        if np.any(accept):
            np.add.at(totals, seg[accept],
                      left[accept] + right[accept] + err[accept])

        # the open panels, in queue order; each splits into a left child
        # (first half of the new queue) and a right child (second half)
        kidx = np.flatnonzero(~accept)
        n_panels += 2 * kidx.size
        if n_panels > cap:
            raise QuadratureFailure(
                f"panel cap {cap} exceeded ({kidx.size} panels still open)"
            )
        seg = seg.take(kidx)
        seg = np.concatenate([seg, seg])
        m = m.take(kidx)
        a = np.concatenate([a.take(kidx), m])
        b = np.concatenate([m, b.take(kidx)])
        fm = fm.take(kidx)
        fa = np.concatenate([fa.take(kidx), fm])
        fb = np.concatenate([fm, fb.take(kidx)])
        fm = np.concatenate([flm.take(kidx), frm.take(kidx)])
        coarse = np.concatenate([left.take(kidx), right.take(kidx)])
        half = 0.5 * budget.take(kidx)
        budget = np.concatenate([half, half])
    return totals


def cumulative_integral(fn, points, tol: float = 1e-12) -> np.ndarray:
    """Cumulative integral of fn along ascending points, zero at points[0].

    The per-segment tolerance is tol scaled by the segment's share of the
    total width (with a small absolute floor), so the accumulated error over
    all segments stays near tol while neighbouring values remain consistent
    to much better than tol.  Each value therefore depends on the whole
    point set, not only on the points up to it: adding points elsewhere
    changes the last bits, so a caller that memoizes results must key them
    by the full set and never merge sets.  This is the one-set call of
    cumulative_integrals, which batches several sets without merging them.
    """
    return cumulative_integrals(fn, [points], tol)[0]


def cumulative_integrals(fn, point_sets, tol: float = 1e-12,
                         params=None) -> list:
    """cumulative_integral along each ascending set, in one quadrature call.

    The segments of every set go through one integrate_segments call, so
    the integrand is called once per sweep for all of them; each set keeps
    its own tolerance split (tol times the segment's share of that set's
    width) and its own panel cap, and integrate_segments refines every
    segment on its own.  So each result has the bits of a
    cumulative_integral call on that set alone: sets share a call but are
    never merged.  A 1-point set gives [0] and a zero-width set zeros.

    params, unless None, holds one float per set, and fn is called as
    fn(x, p) with p each point's set value: every segment of a set carries
    that set's value, so the set's result has the bits of a call of its
    own with fn(., p) as the integrand.
    """
    out, live = [], []
    for k, points in enumerate(point_sets):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("points must be a 1-d array")
        widths = np.diff(pts)
        if np.any(widths < 0):
            raise ValueError("points must be ascending")
        out.append(np.zeros(pts.size))
        total = pts[-1] - pts[0]
        if total <= 0:
            continue
        live.append((out[-1], pts, np.maximum(tol * widths / total, 1e-16), k))
    if live:
        cums, sets, seg_tols, ks = zip(*live)
        counts = [seg_tol.size for seg_tol in seg_tols]
        values = integrate_segments(
            fn, np.concatenate([pts[:-1] for pts in sets]),
            np.concatenate([pts[1:] for pts in sets]),
            np.concatenate(seg_tols), sets=len(live),
            params=None if params is None else np.repeat(
                [params[k] for k in ks], counts))
        for cum, increments in zip(cums, np.split(values,
                                                  np.cumsum(counts)[:-1])):
            np.cumsum(increments, out=cum[1:])
    return out


_GL15_NODES, _GL15_WEIGHTS = np.polynomial.legendre.leggauss(15)


def gauss_segments(fn, a, b) -> np.ndarray:
    """Fixed 15-point Gauss-Legendre integral over each [a_i, b_i].

    Intended for short panels with a smooth integrand, where it is exact to
    rounding; used for the local corrections in monotone reparametrization,
    and by verify to check such a map's table cell by cell.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    centre = 0.5 * (a + b)
    nodes = centre[..., None] + half[..., None] * _GL15_NODES
    values = np.asarray(fn(nodes.reshape(-1)), dtype=float).reshape(nodes.shape)
    return half * (values @ _GL15_WEIGHTS)
