"""Exception taxonomy shared by all modules."""


class PillowFoldError(Exception):
    """Base class for all library errors."""


class NonFiniteEvaluation(PillowFoldError):
    """A function evaluation produced NaN or infinity."""


class DomainError(PillowFoldError):
    """Invalid domain or parameter range (L <= 0, b <= 0, s outside [0, L], ...)."""


class QuadratureFailure(PillowFoldError):
    """Adaptive quadrature exceeded its panel cap without converging."""


class NonMonotone(PillowFoldError):
    """A cumulative length or knot sequence failed to be strictly increasing."""


class VanishingCurvature(PillowFoldError):
    """Frenet frame requested where the curvature is below threshold."""


class DegenerateAngle(PillowFoldError):
    """First angular function has sin(alpha) = 0, ruling undefined."""


class OutOfDomain(PillowFoldError):
    """Strip or surface evaluated outside its (s, v) parameter domain."""


class EndpointSingularity(PillowFoldError):
    """Crease derivative requested where the speed factor sigma is below threshold."""


class DegenerateMetric(PillowFoldError):
    """First fundamental form has EG - F^2 below threshold."""


class ScheduleViolation(PillowFoldError):
    """Deformation schedule violates its admissibility hypotheses at this t."""


class WeldFailure(PillowFoldError):
    """A required boundary correspondence exceeded the weld tolerance."""


class GridTooCoarse(PillowFoldError):
    """A numerical check was requested with fewer than 3 samples per direction."""


class NonGraph(PillowFoldError):
    """Sampled pattern input is not the graph of a single-valued function."""


class CollinearSamples(PillowFoldError):
    """Plane fit requested on samples that do not span a plane."""


class DegenerateTriangle(PillowFoldError):
    """Mesh contains a triangle below the area threshold."""


class IoError(PillowFoldError):
    """Failed to read or write an artifact file."""
