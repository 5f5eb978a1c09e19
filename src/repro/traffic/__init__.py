"""Traffic classes, gravity-model matrices, and temporal variability.

Implements the evaluation setup of Section 8.2: a traffic matrix for
every ingress-egress PoP pair from a population gravity model, total
volume anchored at 8 million sessions for the 11-PoP Internet2 network
and scaled linearly with PoP count, plus an empirical-CDF variability
model that produces families of time-varying traffic matrices.
"""

from repro.traffic.classes import TrafficClass, DEFAULT_RESOURCES
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.gravity import (
    gravity_traffic,
    gravity_traffic_matrix,
    paper_total_sessions,
    classes_from_matrix,
)
from repro.traffic.variability import TrafficVariabilityModel
from repro.traffic.applications import (
    ApplicationProfile,
    DEFAULT_APPLICATION_MIX,
    classes_with_applications,
    port_classifier_map,
    validate_mix,
)

__all__ = [
    "ApplicationProfile",
    "DEFAULT_APPLICATION_MIX",
    "DEFAULT_RESOURCES",
    "classes_with_applications",
    "port_classifier_map",
    "validate_mix",
    "TrafficClass",
    "TrafficMatrix",
    "TrafficVariabilityModel",
    "classes_from_matrix",
    "gravity_traffic",
    "gravity_traffic_matrix",
    "paper_total_sessions",
]
