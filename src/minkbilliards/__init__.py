"""Billiards within an ellipsoid in the 3-dimensional Minkowski space.

Numeric simulator (reflection, caustics, period detection), exact-rational
rank-type periodicity conditions, polynomial Pell identities, and a
search-and-cross-validate pipeline connecting the two.

The public names below are imported on first access (PEP 562), so
``import minkbilliards`` loads no submodule and only the search pipeline
loads numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "confocal": (
        "CausticCase", "CausticPair", "Ellipsoid", "EllipticCoords", "IntervalPartition",
        "QuadricType", "classify_case", "elliptic_coordinates", "interval_partition",
        "line_caustics", "point_from_elliptic", "quadric_residual", "quadric_type",
    ),
    "conditions": (
        "HyperellipticParams", "cayley_test", "condition_vector", "darboux_integrals",
        "divided_series", "double_caustic_test", "lightlike_test", "rationalize",
        "sqrt_series",
    ),
    "minkowski": (
        "LineType", "Vec3", "classify_direction", "mink_dot", "mink_quadrance",
        "reflect_direction",
    ),
    "pell": (
        "PellSolution", "PellVariant", "RatPoly", "compose_pell", "solve_pell",
        "solve_pell_singular", "verify_pell",
    ),
    "search": (
        "PeriodicCandidate", "SearchSpec", "ValidationReport", "cross_validate",
        "find_periodic", "tangent_line_for_caustics",
    ),
    "series": (
        "HankelMatrix", "NormalizedSeries", "SeriesKind", "hankel_block", "hankel_rank",
    ),
    "simulator": (
        "BounceRecord", "PeriodSignature", "SurfaceComponent", "Trajectory",
        "chasles_residual", "classify_surface_point", "detect_period", "next_impact",
        "parity_ok", "reflect_at", "surface_normal", "trace",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
