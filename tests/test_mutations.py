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
"""

from __future__ import annotations

import numpy as np
import pytest

from pillowfold.deformation import DeformationSchedule, DeformedQuarter
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
