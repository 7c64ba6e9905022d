"""Numerical certification: isometry, flatness, planarity, mesh topology.

Every check measures a residual against an explicit threshold and reports
worst value and location, so a failing certificate says where to look.
Finite differences only ever see guarded interior grids; the library's job is
to keep the checks honest, not to make them pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (CollinearSamples, DegenerateMetric, GridTooCoarse,
                     InconsistentOrientation, NotClosed)
from .mesh import TriMesh, min_triangle_area_check, self_intersection_pairs


@dataclass
class CheckReport:
    """One certified inequality: worst residual vs threshold."""

    check: str
    grid: str
    worst: float
    at: tuple
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {"check": self.check, "grid": self.grid,
                "worst": float(self.worst),
                "at": [float(x) for x in self.at],
                "threshold": float(self.threshold), "pass": bool(self.passed)}


def _as_grid(s_values, v_values):
    s = np.atleast_1d(np.asarray(s_values, dtype=float))
    v = np.asarray(v_values, dtype=float)
    if v.ndim == 1:
        v = np.broadcast_to(v, (s.size, v.size))
    if s.size < 3 or v.shape[1] < 3:
        raise GridTooCoarse("need at least 3 samples per direction")
    smat = np.broadcast_to(s[:, None], v.shape)
    return smat, v


def check_isometry(sampler, reference, s_values, v_values, h_s: float,
                   h_v: float, threshold: float = 1e-6,
                   label: str = "isometry") -> CheckReport:
    """Compare the measured first fundamental form of sampler(s, v) with the
    reference metric on the given grid.

    reference(smat, vmat) returns (E, F, G) arrays.  The v stencil must not
    cross a crease, so callers keep |v| > h_v away from ruling switches.
    """
    smat, vmat = _as_grid(s_values, v_values)
    Xs = (sampler(smat + h_s, vmat) - sampler(smat - h_s, vmat)) / (2.0 * h_s)
    Xv = (sampler(smat, vmat + h_v) - sampler(smat, vmat - h_v)) / (2.0 * h_v)
    E = np.einsum('...j,...j->...', Xs, Xs)
    F = np.einsum('...j,...j->...', Xs, Xv)
    G = np.einsum('...j,...j->...', Xv, Xv)
    E0, F0, G0 = reference(smat, vmat)
    resid = np.maximum(np.abs(E - E0),
                       np.maximum(np.abs(F - F0), np.abs(G - G0)))
    worst = float(np.max(resid))
    k = np.unravel_index(int(np.argmax(resid)), resid.shape)
    return CheckReport(label, f"{smat.shape[0]}x{smat.shape[1]}", worst,
                       (float(smat[k]), float(vmat[k])), threshold,
                       worst <= threshold)


def check_flatness(sampler, s_values, v_values, h_s: float, h_v: float,
                   threshold: float = 1e-5,
                   label: str = "flatness") -> CheckReport:
    """Gaussian curvature of the sampled surface via a 3x3 stencil."""
    smat, vmat = _as_grid(s_values, v_values)

    X0 = sampler(smat, vmat)
    Xp = sampler(smat + h_s, vmat)
    Xm = sampler(smat - h_s, vmat)
    Yp = sampler(smat, vmat + h_v)
    Ym = sampler(smat, vmat - h_v)
    Xs = (Xp - Xm) / (2.0 * h_s)
    Xv = (Yp - Ym) / (2.0 * h_v)
    Xss = (Xp - 2.0 * X0 + Xm) / h_s ** 2
    Xvv = (Yp - 2.0 * X0 + Ym) / h_v ** 2
    Xsv = (sampler(smat + h_s, vmat + h_v) - sampler(smat + h_s, vmat - h_v)
           - sampler(smat - h_s, vmat + h_v) + sampler(smat - h_s, vmat - h_v)
           ) / (4.0 * h_s * h_v)

    E = np.einsum('...j,...j->...', Xs, Xs)
    F = np.einsum('...j,...j->...', Xs, Xv)
    G = np.einsum('...j,...j->...', Xv, Xv)
    det = E * G - F * F
    if np.any(det < 1e-12):
        raise DegenerateMetric(f"EG - F^2 reaches {float(np.min(det)):.3e}")
    n = np.cross(Xs, Xv)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    Lf = np.einsum('...j,...j->...', Xss, n)
    Mf = np.einsum('...j,...j->...', Xsv, n)
    Nf = np.einsum('...j,...j->...', Xvv, n)
    K = (Lf * Nf - Mf * Mf) / det
    worst = float(np.max(np.abs(K)))
    k = np.unravel_index(int(np.argmax(np.abs(K))), K.shape)
    return CheckReport(label, f"{smat.shape[0]}x{smat.shape[1]}", worst,
                       (float(smat[k]), float(vmat[k])), threshold,
                       worst <= threshold)


@dataclass
class PlanarityReport:
    """Best plane through the x-axis fitting the samples."""

    normal: tuple
    max_deviation: float
    lambda_estimate: float
    n_samples: int

    def to_dict(self) -> dict:
        return {"normal": list(self.normal),
                "max_deviation": self.max_deviation,
                "lambda_estimate": self.lambda_estimate,
                "n_samples": self.n_samples}


def check_crease_planarity(points) -> PlanarityReport:
    """Fit a plane containing the x-axis (normal (0, p, q)) to the samples
    and estimate the fold parameter as -p/q from z = lam y."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.shape[0] < 3:
        raise CollinearSamples("need at least 3 samples")
    M = pts[:, 1:3]
    scale = float(np.max(np.abs(M))) if M.size else 0.0
    _, svals, vt = np.linalg.svd(M, full_matrices=False)
    if scale <= 0 or svals[0] < 1e-12 * (1.0 + float(np.max(np.abs(pts)))):
        raise CollinearSamples("samples lie on the x-axis; plane undetermined")
    p, q = vt[-1]
    deviation = float(np.max(np.abs(M @ vt[-1])))
    lam = float(-p / q) if abs(q) > 1e-12 else float("inf")
    return PlanarityReport((0.0, float(p), float(q)), deviation, lam,
                           pts.shape[0])


@dataclass
class TopologyReport:
    vertices: int
    edges: int
    faces: int
    euler: int
    closed: bool
    boundary_edges: int
    nonmanifold_edges: int
    intersections: int
    volume: float
    volume_valid: bool

    def to_dict(self) -> dict:
        return {"vertices": self.vertices, "edges": self.edges,
                "faces": self.faces, "euler": self.euler,
                "closed": self.closed, "boundary_edges": self.boundary_edges,
                "nonmanifold_edges": self.nonmanifold_edges,
                "intersections": self.intersections, "volume": self.volume,
                "volume_valid": self.volume_valid}


def enclosed_volume(mesh: TriMesh) -> float:
    """Signed volume of a closed, consistently oriented mesh."""
    if not mesh.is_closed():
        raise NotClosed(
            f"mesh has {mesh.boundary_edge_count()} boundary and "
            f"{mesh.nonmanifold_edge_count()} non-manifold edges")
    if not mesh.orientation_consistent():
        raise InconsistentOrientation("triangle windings disagree across an edge")
    return mesh.signed_volume()


def count_self_intersections(mesh: TriMesh) -> int:
    return len(self_intersection_pairs(mesh))


def topology_report(mesh: TriMesh, count_intersections: bool = True) -> TopologyReport:
    """Combinatorial and geometric summary of a welded mesh."""
    min_triangle_area_check(mesh)
    closed = mesh.is_closed()
    inter = count_self_intersections(mesh) if count_intersections else 0
    volume_valid = closed and mesh.orientation_consistent()
    volume = mesh.signed_volume() if volume_valid else 0.0
    return TopologyReport(mesh.n_vertices, mesh.n_edges(), mesh.n_faces,
                          mesh.euler_characteristic(), closed,
                          mesh.boundary_edge_count(),
                          mesh.nonmanifold_edge_count(), inter, volume,
                          volume_valid)
