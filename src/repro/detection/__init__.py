"""Operational composite-event detection (Sentinel-style event graph).

* :mod:`repro.detection.nodes` — operator node state machines combining
  constituent occurrences under a parameter context, timestamping results
  through the ``Max`` operator (Section 5.2).
* :mod:`repro.detection.graph` — event-graph construction from Snoop
  expressions with common-subexpression sharing.
* :mod:`repro.detection.detector` — the detection engine: feed
  primitive occurrences, advance the clock, collect detections.
* :mod:`repro.detection.coordinator` — that engine placed over sites:
  operator placement and cross-site event propagation.
* :mod:`repro.detection.stabilizer` — watermark parking for exact
  in-order evaluation of out-of-order streams.
* :mod:`repro.detection.approximate` — the anytime layer: eager
  detections with TENTATIVE/CONFIRMED/RETRACTED verdicts.
"""

from repro.detection.approximate import (
    ApproximateStabilizer,
    Verdict,
    VerdictDetection,
)
from repro.detection.detector import Detector, Detection
from repro.detection.graph import EventGraph, build_graph
from repro.detection.coordinator import DistributedDetector, PlacementPolicy
from repro.detection.stabilizer import Stabilizer

__all__ = [
    "ApproximateStabilizer",
    "Detection",
    "Detector",
    "DistributedDetector",
    "EventGraph",
    "PlacementPolicy",
    "Stabilizer",
    "Verdict",
    "VerdictDetection",
    "build_graph",
]
