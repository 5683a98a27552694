"""graftkit: exact multicurve calculus and grafting-complex enumeration.

The package computes with multicurves on tori and on meridian-charted
surfaces using exact integer arithmetic throughout: crossing surgery in
both orientation modes, Dehn twists, admissibility and spiral grafting,
structure canonicalization, and breadth-first enumeration of the graph
whose vertices are structures and whose edges are graft and elementary
moves. A brute-force grid oracle validates the torus layer end to end.
"""

from .errors import (
    BadConfiguration,
    BadIntersectionPattern,
    DegeneratePosition,
    GraftError,
    NonPrimitive,
    NotAdmissible,
    OddMultiplicity,
    UnknownChart,
    UnknownSuite,
    ZeroTwister,
)
from .torus import (
    Mode,
    TorusClass,
    TorusMulticurve,
    algebraic_intersection,
    dehn_twist,
    geometric_intersection,
    is_primitive,
    normalize,
    resolve,
)
from .surface import (
    MERIDIAN,
    Admissibility,
    Component,
    Configuration,
    Structure,
    SurfaceModel,
    canonical_key,
    canonicalize,
    component,
    goldman_decompose,
    graft_along,
    is_admissible,
    parse_configuration,
    structure,
    structure_to_json,
    twist_about_curve,
    twist_about_meridian,
    validate_configuration,
)
from .complex_graph import ComplexGraph, Edge, build_complex, \
    standard_configuration
from .suites import (
    FanReport,
    Report,
    Witness,
    common_grafts,
    standard_fan,
    suite_names,
    verify_suite,
    witness_graph,
)

__version__ = "0.1.0"

__all__ = [
    "Mode",
    "TorusClass",
    "TorusMulticurve",
    "algebraic_intersection",
    "dehn_twist",
    "geometric_intersection",
    "is_primitive",
    "normalize",
    "resolve",
    "MERIDIAN",
    "Admissibility",
    "Component",
    "Configuration",
    "Structure",
    "SurfaceModel",
    "canonical_key",
    "canonicalize",
    "component",
    "goldman_decompose",
    "graft_along",
    "is_admissible",
    "parse_configuration",
    "structure",
    "structure_to_json",
    "twist_about_curve",
    "twist_about_meridian",
    "validate_configuration",
    "ComplexGraph",
    "Edge",
    "FanReport",
    "Report",
    "Witness",
    "build_complex",
    "common_grafts",
    "standard_configuration",
    "standard_fan",
    "suite_names",
    "verify_suite",
    "witness_graph",
    "GraftError",
    "ZeroTwister",
    "NonPrimitive",
    "DegeneratePosition",
    "BadIntersectionPattern",
    "NotAdmissible",
    "UnknownChart",
    "OddMultiplicity",
    "BadConfiguration",
    "UnknownSuite",
    "__version__",
]
