"""Mutations of the certified geometry: every check must be able to fail.

Each mutation moves the strips that certify samples on the demo's lam = 0.5
state (t = 0.5 of the linear schedule), and certify runs on fresh quarters
at the CLI's 32x16 grid and endpoint guard, with its own stencil steps.  A
strip is crease(s) + v xi, so a map of its points that depends on s alone
moves its crease.  Worst residuals on the upper strip:

    mutation                                  isometry (1e-6)  flatness (1e-5)
    none                                      1.8e-10          4.5e-9
    ruling of lam = 0.51                      5.7e-3           7.0e-9
    crease z + 1e-3 sin 3s                    2.4e-3           4.5e-9
    crease x * 1.001                          2.0e-3           4.5e-9
    x + 1e-3 s v (not a cylinder)             1.3e-3           5.1e-7

Every sampled strip is a generalized cylinder, whose Gaussian curvature
vanishes for any crease and any constant ruling, so no mutation of the
crease or the ruling moves flatness: it stays on NO_POWER, the families
that no mutation here fails by 10x its threshold.

The flat state's double-rectangle check reads the flat quarter's mesh.  Its
verdict is boolean (closed, Euler characteristic 2, zero volume), so the
10x rule does not apply: lifting the flat quarter's upper sheet by
1e-3 max(v, 0) must make it fail.

The box's box-closed and box-volume-bounds checks read the welded box mesh,
and are mutated through it.  Their verdicts are boolean too (closed with
Euler characteristic 2; closed, consistently oriented and a volume inside
its bound), so the 10x rule does not apply either: dropping one face must
fail box-closed, and reversing one piece's faces, which leaves the box
closed and its volume inside the bound, must fail box-volume-bounds on
the orientation verdict alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from pillowfold import pillowbox
from pillowfold.deformation import DeformationSchedule, DeformedQuarter
from pillowfold.mesh import TriMesh
from pillowfold.profiles import FundamentalData
from pillowfold.verify import TOLERANCES, certify

LAM = 0.5
FAMILIES = ("isometry", "flatness")
NO_POWER = {"flatness"}

_TURN = (DeformedQuarter(FundamentalData.demo(), 0.51).xi_upper
         - DeformedQuarter(FundamentalData.demo(), LAM).xi_upper)


def _ruling(s, v, points, side):
    return points + v[..., None] * _TURN if side == "upper" else points


def _on_axis(axis, move):
    def mutation(s, v, points, side):
        out = points.copy()
        out[..., axis] = move(s, v, out[..., axis])
        return out
    return mutation


MUTATIONS = {
    "ruling-0.51": _ruling,
    "crease-z-sin": _on_axis(2, lambda s, v, z: z + 1e-3 * np.sin(3.0 * s)),
    "crease-x-scaled": _on_axis(0, lambda s, v, x: 1.001 * x),
    "x-plus-s-v": _on_axis(0, lambda s, v, x: x + 1e-3 * s * v),
}


def _worst(mutation, monkeypatch):
    """certify's worst residual of each family on the upper strip at t =
    0.5, the lam = 0.5 quarter's strips moved by mutation."""
    sampler = DeformedQuarter.sampler

    def mutated(self, side, slack=0.0):
        strip = sampler(self, side, slack)
        if self.lam != LAM or mutation is None:
            return strip

        def moved(s, v):
            return mutation(s, v, strip(s, v), side)
        return moved

    monkeypatch.setattr(DeformedQuarter, "sampler", mutated)
    reports = certify(FundamentalData.demo(), DeformationSchedule.linear(),
                      32, 16, 1e-3, TOLERANCES)
    return {family: next(r.worst for r in reports
                         if r.check == f"{family} t=0.5 upper")
            for family in FAMILIES}


def test_unmutated_strips_pass(monkeypatch):
    worst = _worst(None, monkeypatch)
    assert all(worst[f] <= TOLERANCES[f] for f in FAMILIES), worst


@pytest.mark.parametrize("name", MUTATIONS)
def test_isometry_rejects_every_mutation_by_ten_times(name, monkeypatch):
    worst = _worst(MUTATIONS[name], monkeypatch)
    assert worst["isometry"] >= 10.0 * TOLERANCES["isometry"], worst


def test_families_no_mutation_fails_are_pinned(monkeypatch):
    caught = set()
    for mutation in MUTATIONS.values():
        worst = _worst(mutation, monkeypatch)
        caught |= {f for f in FAMILIES if worst[f] >= 10.0 * TOLERANCES[f]}
    assert set(FAMILIES) - caught == NO_POWER


def test_double_rectangle_rejects_a_lifted_sheet(monkeypatch):
    # the lift leaves the horizontal end out of z = 0, so the flat mesh
    # stays open there; the t = 1 state is the same mesh and fails with it
    X = DeformedQuarter.X

    def lifted(self, s, v):
        out = X(self, s, v)
        if (self.lam, self.mu) == (0.0, 0.0):
            out[..., 2] += 1e-3 * np.maximum(v, 0.0)
        return out

    monkeypatch.setattr(DeformedQuarter, "X", lifted)
    reports = certify(FundamentalData.demo(), DeformationSchedule.linear(),
                      32, 16, 1e-3, TOLERANCES)
    failed = {r.check for r in reports if not r.passed}
    assert {"double-rectangle", "topology t=1"} <= failed


def _box_failures(mutation, monkeypatch):
    """The checks certify fails on the demo at 32x16 when the welded box
    mesh is replaced by mutation(box)."""
    assemble = pillowbox.assemble_box

    def mutated(quarter, n_s, n_v):
        return mutation(assemble(quarter, n_s, n_v))

    monkeypatch.setattr(pillowbox, "assemble_box", mutated)
    reports = certify(FundamentalData.demo(), DeformationSchedule.linear(),
                      32, 16, 1e-3, TOLERANCES)
    return {r.check for r in reports if not r.passed}


def test_box_closed_rejects_a_dropped_face(monkeypatch):
    def dropped(box):
        return TriMesh(box.vertices, box.faces[1:],
                       face_labels=box.face_labels[1:])
    assert "box-closed" in _box_failures(dropped, monkeypatch)


def test_box_volume_bounds_rejects_a_reversed_piece(monkeypatch):
    def reversed_piece(box):
        faces = box.faces.copy()
        last = box.face_labels[:, 1] == 3
        faces[last] = faces[last][:, [0, 2, 1]]
        mutant = TriMesh(box.vertices, faces, face_labels=box.face_labels)
        assert mutant.is_closed() and mutant.euler_characteristic() == 2
        assert not mutant.orientation_consistent()
        return mutant
    failed = _box_failures(reversed_piece, monkeypatch)
    assert "box-volume-bounds" in failed and "box-closed" not in failed
