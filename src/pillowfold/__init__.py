"""Curved-folding pillow boxes: construction, development, deformation,
and numerical certification, all driven by a half-depth b and a height
profile zeta on [0, L]."""

from .curves import ProfileCrease
from .deformation import (DeformationSchedule, DeformedQuarter,
                          assemble_deformed, assemble_pattern_scaled,
                          deformed_quarter, depth_coefficient,
                          horizontal_end_depth, pattern_scaling_family,
                          validate_schedule)
from .development import (PlanarDevelopment, double_rectangle_mesh,
                          pattern_graph, validate_pattern_conditions)
from .errors import PillowFoldError
from .folding import (DevelopableStrip, FrenetData, beta_from_alpha,
                      first_fundamental_form, frenet_frame)
from .mesh import TriMesh, export_obj, export_svg, export_trace
from .pillowbox import QuarterParametrization, assemble_box
from .profiles import (FundamentalData, ProfileFunction,
                       graph_to_arclength_profile, validate_fundamental_data)
from .verify import (TOLERANCES, CheckReport, PlanarityReport,
                     TopologyReport, box_checks, certify,
                     check_crease_planarity, check_flatness, check_isometry,
                     development_checks, family_members, state_report,
                     sweep_trace, topology_report)

__version__ = "0.1.0"

__all__ = [
    "ProfileCrease",
    "DeformationSchedule", "DeformedQuarter", "assemble_deformed",
    "assemble_pattern_scaled", "deformed_quarter", "depth_coefficient",
    "horizontal_end_depth", "pattern_scaling_family", "validate_schedule",
    "PlanarDevelopment", "double_rectangle_mesh", "pattern_graph",
    "validate_pattern_conditions",
    "PillowFoldError",
    "DevelopableStrip", "FrenetData", "beta_from_alpha",
    "first_fundamental_form", "frenet_frame",
    "TriMesh", "export_obj", "export_svg", "export_trace",
    "QuarterParametrization", "assemble_box",
    "FundamentalData", "ProfileFunction", "graph_to_arclength_profile",
    "validate_fundamental_data",
    "TOLERANCES", "CheckReport", "PlanarityReport", "TopologyReport",
    "box_checks", "certify", "check_crease_planarity", "check_flatness",
    "check_isometry", "development_checks", "family_members",
    "state_report", "sweep_trace", "topology_report",
]
